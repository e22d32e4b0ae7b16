// Execution tracing: a bounded in-memory record of an engine run.
//
// A Trace subscribes to an Engine's transition listener and records every
// state transition together with round stamps, giving benches and tests a
// uniform way to ask "what happened": per-node transition counts, per-type
// statistics (via a classifier callback), CSV export for offline analysis,
// and replay assertions (the recorded history deterministically reproduces
// the final configuration from the initial one).
#pragma once

#include <deque>
#include <functional>
#include <iosfwd>
#include <string>
#include <vector>

#include "core/engine.hpp"

namespace ssau::core {

struct TraceEvent {
  Time time = 0;
  NodeId node = 0;
  StateId from = 0;
  StateId to = 0;
};

class Trace {
 public:
  /// Attaches to the engine (replacing any previous transition listener) and
  /// snapshots the current configuration as the replay baseline.
  /// `capacity` bounds memory; older events are dropped FIFO, in O(1) each,
  /// when exceeded (dropped() reports how many). Capacity 0 keeps nothing
  /// and counts every event as dropped.
  explicit Trace(Engine& engine, std::size_t capacity = 1 << 20);

  [[nodiscard]] const std::deque<TraceEvent>& events() const {
    return events_;
  }
  [[nodiscard]] std::size_t dropped() const { return dropped_; }

  /// Number of recorded transitions of node v.
  [[nodiscard]] std::uint64_t transitions_of(NodeId v) const;

  /// Counts events per label as produced by `classify`.
  [[nodiscard]] std::vector<std::pair<std::string, std::uint64_t>> histogram(
      const std::function<std::string(const TraceEvent&)>& classify) const;

  /// Writes "time,node,from,to" rows (with a header).
  void write_csv(std::ostream& os) const;

  /// Applies the recorded events (in order) to the baseline configuration
  /// and returns the result — equal to the engine's current configuration
  /// iff no events were dropped and the engine was not externally mutated.
  [[nodiscard]] Configuration replay() const;

  /// The configuration at attach time.
  [[nodiscard]] const Configuration& baseline() const { return baseline_; }

 private:
  Configuration baseline_;
  std::deque<TraceEvent> events_;
  std::size_t capacity_;
  std::size_t dropped_ = 0;
};

}  // namespace ssau::core
