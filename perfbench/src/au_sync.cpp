// au-sync-1m — the kernel workload: AlgAU under the synchronous daemon on a
// million-node random connected graph (average degree about 10), built with
// the churn-capable constructor so the kAuto locality reorder engages, on 4
// engine threads. D = 16 on every seed, certified by twice the eccentricity
// of a maximum-degree node (the graph is resampled while that exceeds 16), so
// the automaton runs in spec with the same |Q| = 12D+6 = 198, beyond the
// 64-state compiled-table limit, whatever the seed. No legitimacy predicate runs: every round is
// gather, delta, and the sharded/overlapped apply.
#include <cstdio>
#include <memory>
#include <stdexcept>

#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "sched/scheduler.hpp"
#include "unison/alg_au.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace ssau;

constexpr unsigned kThreads = 4;
constexpr int kD = 16;
// The per-round cost falls as the configuration loses diversity, so the work
// is a fixed trajectory: one repeat runs kRounds rounds from C_0, and the next
// repeat re-injects C_0. Each round is a unit of work and one operation: it
// advances through run_rounds and then reads the engine time, which flushes
// the overlapped pipeline (the user's "advance and observe" call). Units this
// short are repeated often enough in a run for the fastest repeat of each
// round to escape most of the host's interference.
constexpr std::size_t kRounds = 8;
// The serial reference replays this many rounds of the first repeat.
constexpr std::uint64_t kCheckRounds = 2;

struct World {
  graph::Graph g;
  std::unique_ptr<unison::AlgAu> alg;
  core::Configuration c0;
  std::unique_ptr<sched::Scheduler> sched;
  std::unique_ptr<core::Engine> engine;
  double build_s = 0, diameter_s = 0, ctor_s = 0;
};

// The world on a certified graph: automaton, C_0, daemon and engine.
std::unique_ptr<World> build_world(graph::Graph g, util::Rng& rng, std::uint64_t seed,
                                   double build_s, double diameter_s) {
  const graph::NodeId n = g.num_nodes();
  auto w = std::make_unique<World>(World{std::move(g), nullptr, {}, nullptr, nullptr});
  w->alg = std::make_unique<unison::AlgAu>(kD);
  w->c0 = unison::au_adversarial_configuration("random", *w->alg, w->g, rng);
  w->sched = std::make_unique<sched::SynchronousScheduler>(n);
  core::EngineOptions opt;
  opt.thread_count = kThreads;
  const auto t3 = Clock::now();
  // A non-const graph binds the churn-capable constructor: kAuto reorders.
  w->engine = std::make_unique<core::Engine>(w->g, *w->alg, *w->sched, w->c0,
                                             seed, opt);
  w->build_s = build_s;
  w->diameter_s = diameter_s;
  w->ctor_s = seconds_since(t3);
  return w;
}

// Builds the graph, resampling (deterministically) until D is certified.
std::unique_ptr<World> set_up(graph::NodeId n, std::uint64_t seed) {
  double build_s = 0, diameter_s = 0;
  for (std::uint64_t attempt = 0;; ++attempt) {
    util::Rng rng = util::Rng::stream(seed, 2000 + attempt);
    const auto t0 = Clock::now();
    graph::Graph g = graph::random_connected(n, 8.0 / n, rng);
    const auto t1 = Clock::now();
    graph::NodeId hub = 0;
    for (graph::NodeId v = 1; v < n; ++v) {
      if (g.degree(v) > g.degree(hub)) hub = v;
    }
    const bool certified = 2 * graph::eccentricity(g, hub) <= kD;
    build_s += seconds_between(t0, t1);
    diameter_s += seconds_since(t1);
    if (!certified) {
      if (attempt == 8) throw std::runtime_error("no graph with 2 x eccentricity <= D");
      continue;
    }
    return build_world(std::move(g), rng, seed, build_s, diameter_s);
  }
}

// A second engine over the world's (already reordered) graph.
std::unique_ptr<core::Engine> sibling(World& w, unsigned threads,
                                      sched::SynchronousScheduler& s,
                                      std::uint64_t seed) {
  core::EngineOptions opt;
  opt.thread_count = threads;
  return std::make_unique<core::Engine>(w.g, *w.alg, s, w.c0, seed, opt);
}

}  // namespace

Report run_au_sync(const RunConfig& cfg) {
  const graph::NodeId n = cfg.smoke ? 70'000 : 1'000'000;
  const std::size_t setups = cfg.smoke ? 2 : 3;
  Report r;
  EndToEnd e2e;

  std::unique_ptr<World> w;
  std::vector<double> build, diam, ctor;
  for (std::size_t i = 0; i < setups; ++i) {
    w.reset();
    const auto t0 = Clock::now();
    w = set_up(n, cfg.seed);
    e2e.setup_s.push_back(seconds_since(t0));
    build.push_back(w->build_s);
    diam.push_back(w->diameter_s);
    ctor.push_back(w->ctor_s);
  }
  core::Engine& e = *w->engine;
  std::printf("  graph        n=%u m=%zu D=%d |Q|=%llu reordered=%d shards=%u\n",
              n, w->g.num_edges(), w->alg->turns().diameter_bound(),
              static_cast<unsigned long long>(w->alg->state_count()),
              w->g.reordered() ? 1 : 0, e.shard_count());
  r.op(w->g.reordered(), "kAuto reorder did not engage");

  // The first repeat records the checkpoint the serial reference must
  // reproduce and the final configuration every later repeat must reproduce.
  core::Configuration checkpoint, first_final;
  const auto start = Clock::now();
  std::uint64_t rounds = 0;
  for (std::size_t repeat = 0; keep_going(start, cfg.seconds, repeat, 2); ++repeat) {
    if (repeat > 0) e.inject_configuration(w->c0);
    for (std::size_t round = 0; round < kRounds; ++round) {
      Chunk c;
      c.unit = round;
      const auto t0 = Clock::now();
      e.run_rounds(1);
      (void)e.time();
      c.seconds = seconds_since(t0);
      c.op_s.push_back(c.seconds);
      c.activations = n;
      e2e.add(std::move(c));
      if (repeat == 0 && round + 1 == kCheckRounds) checkpoint = e.config();
    }
    rounds += kRounds;
    if (repeat == 0) {
      first_final = e.config();
    } else {
      r.op(e.config() == first_final,
           "au-sync repeat " + std::to_string(repeat) + " diverged from the first");
    }
  }
  e2e.bytes_per_node =
      static_cast<double>(e.dynamic_memory_usage() + w->g.dynamic_memory_usage()) / n;

  r.op(e.time() == rounds && e.rounds_completed() == rounds,
       "au-sync engine time/rounds disagree with the steps taken");
  r.op(activation_total(e) == static_cast<double>(rounds * n),
       "au-sync activation counts disagree with full activation");
  {
    sched::SynchronousScheduler s(n);
    auto serial = sibling(*w, 1, s, cfg.seed);
    serial->run_rounds(kCheckRounds);
    r.op(serial->config() == checkpoint,
         "au-sync 4-thread configuration differs from the serial engine's");
  }
  if (!cfg.trace) {
    e2e.report(r);
    return r;
  }

  // --- traced run: fresh 4-thread and serial engines, same rounds ----------
  Tracer tr;
  // The traced engines replay the first units of the untraced trajectory.
  const std::uint64_t traced_rounds = cfg.smoke ? 4 : kRounds;
  struct Side {
    double step_s = 0;
    core::Configuration final_config;
  };
  auto traced_side = [&](unsigned threads, const char* tag,
                         std::unique_ptr<core::Engine>& keep,
                         sched::SynchronousScheduler& s) {
    Side side;
    const auto span = tr.open(std::string("au-sync.") + tag);
    const auto L_ctor = tr.layer(std::string("engine.ctor.") + tag);
    const auto L_step = tr.layer(std::string("engine.step.") + tag);
    const auto L_config = tr.layer("engine.config");
    keep = tr.timed(L_ctor, [&] { return sibling(*w, threads, s, cfg.seed); });
    for (std::uint64_t t = 0; t < traced_rounds; ++t) {
      tr.timed(L_step, [&] {
        keep->run_rounds(1);
        (void)keep->time();
      });
    }
    side.final_config = tr.timed(L_config, [&] { return keep->config(); });
    tr.close(span);
    side.step_s = tr.seconds(std::string("engine.step.") + tag);
    return side;
  };
  sched::SynchronousScheduler s_par(n), s_ser(n);
  std::unique_ptr<core::Engine> par, ser;
  const Side p = traced_side(kThreads, "parallel", par, s_par);
  const double shards = par->shard_count();
  const double barrier = static_cast<double>(par->barrier_wait_ns()) * 1e-9;
  const double apply = static_cast<double>(par->apply_phase_ns()) * 1e-9;
  const double field = par->signal_field_active() ? 1 : 0;
  const double engine_bytes = static_cast<double>(par->dynamic_memory_usage()) / n;
  par.reset();
  const Side q = traced_side(1, "serial", ser, s_ser);
  r.op(p.final_config == q.final_config,
       "au-sync 4-thread final configuration differs from the serial run's");

  const double acts = static_cast<double>(traced_rounds) * n;
  // The untraced reference is the same rounds of the first repeat, which
  // like the traced engines starts from a freshly constructed engine.
  double untraced_s = 0;
  for (std::size_t u = 0; u < traced_rounds; ++u) untraced_s += e2e.chunks[u].seconds;
  const double untraced_rate = acts / untraced_s;
  const double traced_rate = acts / p.step_s;
  r.set("engine.ctor_s", median(ctor));
  r.set("engine.config_s", tr.seconds("engine.config"));
  r.set("engine.config_calls", tr.calls("engine.config"));
  r.set("engine.step_s", p.step_s);
  r.set("engine.steps", traced_rounds);
  r.set("engine.activations", acts);
  r.set("engine.step_ns_per_activation", p.step_s * 1e9 / acts);
  r.set("engine.bytes_per_node", engine_bytes);
  r.set("engine.shards", shards);
  r.set("engine.barrier_wait_s", barrier);
  r.set("engine.apply_phase_s", apply);
  r.set("engine.parallel_efficiency", traced_rate / (kThreads * acts / q.step_s));
  r.set("engine.field_active", field);
  r.set("graph.build_s", median(build));
  r.set("graph.diameter_s", median(diam));
  r.set("trace.overhead", untraced_rate / traced_rate - 1.0);
  std::printf("  traced       %llu rounds: %d threads %.4f s, serial %.4f s "
              "(untraced %.3g act/s, traced %.3g act/s)\n",
              static_cast<unsigned long long>(traced_rounds), kThreads, p.step_s,
              q.step_s, untraced_rate, traced_rate);
  if (!cfg.trace_out.empty()) tr.write(cfg.trace_out);
  return r;
}

}  // namespace perfbench
