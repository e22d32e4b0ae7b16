#include <sched.h>

#include <cstdio>
#include <map>
#include <numeric>

#include "workloads.hpp"

namespace perfbench {

void EndToEnd::add(Chunk c) {
  if (!c.op_s.empty()) {
    c.ops = c.op_s.size();
    double sum = 0;
    for (const double x : c.op_s) sum += x;
    c.mean_op_s = sum / static_cast<double>(c.ops);
    c.op_s = {};
  }
  chunks.push_back(std::move(c));
}

double EndToEnd::activations() const {
  double a = 0;
  for (const Chunk& c : chunks) a += c.activations;
  return a;
}

double EndToEnd::seconds() const {
  double s = 0;
  for (const Chunk& c : chunks) s += c.seconds;
  return s;
}

void EndToEnd::report(Report& r) const {
  std::map<std::size_t, const Chunk*> best;
  for (const Chunk& c : chunks) {
    const Chunk*& b = best[c.unit];
    if (b == nullptr || c.activations * b->seconds > b->activations * c.seconds) b = &c;
  }
  double act = 0, sec = 0;
  std::size_t ops = 0;
  for (const auto& [unit, c] : best) {
    act += c->activations;
    sec += c->seconds;
    ops += c->ops;
  }
  // The mean latency is taken per unit and averaged over the units that ran
  // an operation, so units of different kinds (MIS and LE phases) weigh the
  // same in every run.
  double mean = 0;
  std::size_t with_ops = 0;
  for (const auto& [unit, c] : best) {
    if (c->ops == 0) continue;
    mean += c->mean_op_s;
    ++with_ops;
  }
  if (with_ops > 0) mean /= static_cast<double>(with_ops);
  std::printf("  e2e: %zu set-ups; %zu units, %zu repeats; kept %zu operations; "
              "all repeats %.4g activations/s\n",
              setup_s.size(), best.size(), chunks.size(), ops,
              activations() / seconds());
  r.set("setup_s", median(setup_s));
  r.set("activations_per_s", act / sec);
  r.set("memory_bytes_per_node", bytes_per_node);
  r.set("latency_mean_ms", mean * 1e3);
}

CpuRotation::CpuRotation() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) != 0) return;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus_.push_back(c);
  }
}

CpuRotation::~CpuRotation() {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus_) CPU_SET(c, &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

void CpuRotation::pin(std::size_t k) {
  if (cpus_.empty()) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpus_[k % cpus_.size()], &set);
  (void)sched_setaffinity(0, sizeof set, &set);
}

bool keep_going(Clock::time_point start, double seconds, std::size_t repeats,
                std::size_t min_repeats) {
  return repeats < min_repeats || seconds_since(start) < seconds;
}

double activation_total(const ssau::core::Engine& e) {
  double sum = 0;
  for (ssau::core::NodeId v = 0; v < e.graph().num_nodes(); ++v) {
    sum += static_cast<double>(e.activation_count(v));
  }
  return sum;
}

std::vector<ssau::core::NodeId> sample_nodes(ssau::core::NodeId n,
                                             std::size_t k,
                                             ssau::util::Rng& rng) {
  std::vector<ssau::core::NodeId> all(n);
  std::iota(all.begin(), all.end(), ssau::core::NodeId{0});
  for (std::size_t i = 0; i < k && i < n; ++i) {
    const auto j = i + static_cast<std::size_t>(rng.below(n - i));
    std::swap(all[i], all[j]);
  }
  all.resize(std::min<std::size_t>(k, n));
  return all;
}

}  // namespace perfbench
