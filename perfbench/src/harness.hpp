// Benchmark harness: clocks, the outside-in tracer, sample statistics, the
// result record every workload fills, and the run's provenance stamp.
//
// Layers are measured from outside the library: a traced run wraps each call
// into a module's public function in Tracer::timed(), which charges the call
// to a named layer accumulator and, up to a cap, records a span (name, start,
// end, parent). Untraced runs never construct a Tracer, so end-to-end numbers
// carry no tracing cost beyond the clock reads their own metrics need.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

[[nodiscard]] inline double seconds_since(Clock::time_point a) {
  return seconds_between(a, Clock::now());
}

/// CPU time the calling thread has run, in seconds. Single-threaded
/// workloads time their units of work with it: unlike the wall clock it
/// leaves out the time the thread was runnable but not running, whether
/// another process held its CPU or the hypervisor did (steal time).
[[nodiscard]] double thread_cpu_seconds();

// --- statistics ---------------------------------------------------------------

/// Linear-interpolation quantile (q in [0, 1]) of an unsorted sample; 0 for
/// an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);
[[nodiscard]] inline double median(std::vector<double> v) {
  return quantile(std::move(v), 0.5);
}


// --- tracing -------------------------------------------------------------------

class Tracer {
 public:
  /// Fine spans kept in memory; later fine spans are only aggregated.
  static constexpr std::size_t kSpanCap = 200'000;

  Tracer();

  /// The id of a named layer (created on first use). Hot loops resolve ids
  /// once so a timed call costs two clock reads and an append.
  std::uint32_t layer(const std::string& name);

  /// Opens a coarse span (always recorded) and makes it the parent of the
  /// spans opened until the matching close(); spans close in LIFO order.
  std::uint32_t open(const std::string& name);
  void close(std::uint32_t span);

  /// Times one call into a library function, charging it to `layer_id`.
  template <typename F>
  decltype(auto) timed(std::uint32_t layer_id, F&& f) {
    const auto t0 = Clock::now();
    if constexpr (std::is_void_v<decltype(f())>) {
      f();
      record(layer_id, t0, Clock::now());
    } else {
      decltype(auto) r = f();
      record(layer_id, t0, Clock::now());
      return r;
    }
  }

  /// Busy seconds and calls charged to a layer so far (0 if never used).
  [[nodiscard]] double seconds(const std::string& name) const;
  [[nodiscard]] std::uint64_t calls(const std::string& name) const;

  /// Writes every recorded span as one JSON document.
  void write(const std::string& path) const;

 private:
  struct Span {
    std::uint32_t name = 0;
    std::uint32_t parent = 0;  // index into spans_; 0 = the root
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
  };
  struct Layer {
    std::string name;
    double seconds = 0.0;
    std::uint64_t calls = 0;
  };

  void record(std::uint32_t layer_id, Clock::time_point t0,
              Clock::time_point t1);
  [[nodiscard]] std::int64_t ns(Clock::time_point t) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch_)
        .count();
  }

  Clock::time_point epoch_;
  std::vector<Layer> layers_;
  std::map<std::string, std::uint32_t> layer_ids_;
  std::vector<Span> spans_;  // spans_[0] is the implicit root
  std::vector<std::uint32_t> open_;
  std::uint64_t dropped_ = 0;
};

// --- results ---------------------------------------------------------------------

struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Metric values by name. Units live in BENCHMARK.json, which run.py
  /// attaches to the values it passes on.
  std::map<std::string, double> metrics;

  void set(const std::string& name, double value) { metrics[name] = value; }
  /// Counts one operation; a failed one also marks the run incorrect and
  /// prints why to stderr.
  void op(bool ok, const std::string& what);

  /// The single-line JSON result.
  [[nodiscard]] std::string json() const;
};

// --- run parameters -----------------------------------------------------------

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 0;
  double seconds = 1.0;
  bool trace = false;
  bool smoke = false;
  std::string trace_out;  // where a traced run writes its spans
  std::string scratch_dir;  // checkpoints written by the service workload
  std::string source_id;
};

/// Prints the provenance stamp: source id, compiler, build type and flags,
/// SSAU_NATIVE, CPU model, nproc, and a pure-compute scaling probe at 1, 2
/// and 4 threads.
void print_stamp(const RunConfig& cfg);

}  // namespace perfbench
