// The four workloads. Each builds its inputs from RunConfig::seed, measures
// for RunConfig::seconds, checks its outputs, and fills a Report: the
// end-to-end metrics on an untraced run, the per-layer metrics on a traced
// one (see README.md for the workload choices and the layer map).
#pragma once

#include <cstdint>
#include <vector>

#include "core/engine.hpp"
#include "core/types.hpp"
#include "graph/graph.hpp"
#include "harness.hpp"
#include "util/rng.hpp"

namespace perfbench {

Report run_au_async(const RunConfig& cfg);
Report run_au_sync(const RunConfig& cfg);
Report run_mis_le(const RunConfig& cfg);
Report run_service_mix(const RunConfig& cfg);

/// One repeat of a unit of a run's measured work: which unit, the
/// activations it executed, its time, and its operations. A chunk gives
/// either the latency (seconds) of each operation, reduced to their count and
/// mean when the chunk is added, or, when its operations ran back to back on
/// one thread, their count and mean directly.
struct Chunk {
  std::size_t unit = 0;
  double activations = 0.0;
  double seconds = 0.0;
  std::vector<double> op_s;
  std::size_t ops = 0;
  double mean_op_s = 0.0;
};

/// A run's measurements, reduced to the shared end-to-end metrics. Every unit
/// of work is repeated through the run, and only each unit's fastest repeat
/// is kept: interference from other tenants of a shared host comes in
/// episodes of seconds that only ever slow a repeat down (the fastest repeat
/// is the one with the highest activation rate). Rates and latencies are then
/// computed over the kept repeats of all units. Single-threaded workloads
/// time their chunks with thread_cpu_seconds(), multi-threaded ones with the
/// wall clock.
struct EndToEnd {
  std::vector<double> setup_s;  // one entry per set-up, timed like the chunks
  std::vector<Chunk> chunks;
  double bytes_per_node = 0.0;

  /// Reduces the chunk's latencies to their mean and keeps it.
  void add(Chunk c);
  [[nodiscard]] double activations() const;
  [[nodiscard]] double seconds() const;
  void report(Report& r) const;
};

/// Pins the calling thread to the allowed CPUs in turn. Single-threaded
/// workloads move each repeat of a unit to the next CPU, so a run samples
/// every core and the fastest-repeat reduction is not at the mercy of one
/// core that a neighbour on the host happens to slow down for the whole run.
class CpuRotation {
 public:
  CpuRotation();
  ~CpuRotation();  // restores the original affinity
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pins to the (k mod count)-th allowed CPU.
  void pin(std::size_t k);

 private:
  std::vector<int> cpus_;
};

/// Elapsed-time gate for time-boxed loops: true while the measurement window
/// is open or fewer than `min_repeats` repeats have run.
[[nodiscard]] bool keep_going(Clock::time_point start, double seconds,
                              std::size_t repeats, std::size_t min_repeats);

/// Sum of the engine's per-node activation counts.
[[nodiscard]] double activation_total(const ssau::core::Engine& e);

/// Uniform random node sample without replacement (k <= n).
[[nodiscard]] std::vector<ssau::core::NodeId> sample_nodes(
    ssau::core::NodeId n, std::size_t k, ssau::util::Rng& rng);

}  // namespace perfbench
