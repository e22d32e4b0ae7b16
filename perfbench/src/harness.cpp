#include "harness.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <iostream>
#include <sstream>
#include <thread>

namespace perfbench {

double thread_cpu_seconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(pos));
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

// --- Tracer ----------------------------------------------------------------------

Tracer::Tracer() : epoch_(Clock::now()) {
  spans_.reserve(kSpanCap + 1024);
  spans_.push_back(Span{layer("run"), 0, 0, 0});
  open_.push_back(0);
}

std::uint32_t Tracer::layer(const std::string& name) {
  const auto it = layer_ids_.find(name);
  if (it != layer_ids_.end()) return it->second;
  const auto id = static_cast<std::uint32_t>(layers_.size());
  layers_.push_back(Layer{name, 0.0, 0});
  layer_ids_.emplace(name, id);
  return id;
}

std::uint32_t Tracer::open(const std::string& name) {
  const auto id = static_cast<std::uint32_t>(spans_.size());
  spans_.push_back(Span{layer(name), open_.back(), ns(Clock::now()), -1});
  open_.push_back(id);
  return id;
}

void Tracer::close(std::uint32_t span) {
  Span& s = spans_[span];
  s.end_ns = ns(Clock::now());
  Layer& l = layers_[s.name];
  l.seconds += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  ++l.calls;
  open_.pop_back();  // spans close in LIFO order
}

void Tracer::record(std::uint32_t layer_id, Clock::time_point t0,
                    Clock::time_point t1) {
  Layer& l = layers_[layer_id];
  l.seconds += seconds_between(t0, t1);
  ++l.calls;
  if (spans_.size() < kSpanCap) {
    spans_.push_back(Span{layer_id, open_.back(), ns(t0), ns(t1)});
  } else {
    ++dropped_;
  }
}

double Tracer::seconds(const std::string& name) const {
  const auto it = layer_ids_.find(name);
  return it == layer_ids_.end() ? 0.0 : layers_[it->second].seconds;
}

std::uint64_t Tracer::calls(const std::string& name) const {
  const auto it = layer_ids_.find(name);
  return it == layer_ids_.end() ? 0 : layers_[it->second].calls;
}

void Tracer::write(const std::string& path) const {
  std::ofstream out(path);
  if (!out) {
    std::cerr << "perfbench: cannot write trace to " << path << "\n";
    return;
  }
  out << "{\"dropped_fine_spans\": " << dropped_ << ", \"layers\": {";
  for (std::size_t i = 0; i < layers_.size(); ++i) {
    out << (i ? ", " : "") << "\"" << layers_[i].name << "\": {\"seconds\": "
        << layers_[i].seconds << ", \"calls\": " << layers_[i].calls << "}";
  }
  out << "},\n\"spans\": [\n";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i ? ",\n" : "") << "[" << i << ", \"" << layers_[s.name].name
        << "\", " << s.start_ns << ", " << s.end_ns << ", " << s.parent << "]";
  }
  out << "\n]}\n";
}

// --- Report ----------------------------------------------------------------------

void Report::op(bool ok, const std::string& what) {
  ++attempted;
  if (!ok) {
    ++failed;
    correct = false;
    std::cerr << "perfbench: FAILED: " << what << "\n";
  }
}

std::string Report::json() const {
  std::ostringstream o;
  o.precision(17);
  o << "{\"correct\": " << (correct ? "true" : "false")
    << ", \"attempted\": " << attempted << ", \"failed\": " << failed
    << ", \"metrics\": {";
  bool first = true;
  for (const auto& [name, value] : metrics) {
    o << (first ? "" : ", ") << "\"" << name << "\": " << value;
    first = false;
  }
  o << "}}";
  return o.str();
}

// --- provenance stamp ----------------------------------------------------------------

namespace {

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

// Independent per-thread integer work with no shared memory traffic: on a
// machine whose cores are really available it scales linearly, so the probe
// shows how much parallel speed-up this host can deliver at all.
double probe_seconds(unsigned threads, std::uint64_t iters) {
  std::vector<std::uint64_t> sink(threads * 8, 0);
  const auto t0 = Clock::now();
  std::vector<std::thread> pool;
  for (unsigned t = 0; t < threads; ++t) {
    pool.emplace_back([&sink, t, iters] {
      std::uint64_t x = 0x9E3779B97F4A7C15ULL + t;
      for (std::uint64_t i = 0; i < iters; ++i) {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
      }
      sink[t * 8] = x;
    });
  }
  for (auto& th : pool) th.join();
  const double s = seconds_since(t0);
  std::uint64_t acc = 0;
  for (const auto v : sink) acc ^= v;
  if (acc == 1) std::fprintf(stderr, " ");  // keep the work observable
  return s;
}

}  // namespace

void print_stamp(const RunConfig& cfg) {
  std::printf("perfbench workload=%s seed=%llu seconds=%g trace=%d%s\n",
              cfg.workload.c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.seconds, cfg.trace ? 1 : 0, cfg.smoke ? " smoke" : "");
  std::printf("  source       %s\n", cfg.source_id.c_str());
#if defined(__clang__)
  std::printf("  compiler     clang %s\n", __clang_version__);
#elif defined(__GNUC__)
  std::printf("  compiler     gcc %s\n", __VERSION__);
#else
  std::printf("  compiler     unknown\n");
#endif
  std::printf("  build        %s, flags \"%s\", SSAU_NATIVE=OFF%s\n",
              PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS,
#if defined(__AVX2__)
              " (AVX2 compiled in)"
#else
              " (portable, scalar gathers)"
#endif
  );
  std::printf("  cpu          %s\n", cpu_model().c_str());
  std::printf("  nproc        %u\n", std::thread::hardware_concurrency());
  const std::uint64_t iters = cfg.smoke ? 2'000'000 : 40'000'000;
  const double t1 = probe_seconds(1, iters);
  const double t2 = probe_seconds(2, iters);
  const double t4 = probe_seconds(4, iters);
  std::printf("  probe        speed-up 1t=1.00 2t=%.2f 4t=%.2f "
              "(pure compute, same work per thread)\n",
              2.0 * t1 / t2, 4.0 * t1 / t4);
  std::fflush(stdout);
}

}  // namespace perfbench
