// au-async-stabilize — Thm 1.1's asynchronous headline: AlgAU from a random
// C_0 (uniform over all 12D+6 turns) under the uniform-single daemon, on
// random connected graphs with average degree about 10. Every instance runs
// with the same certified bound D = 6 (its exact diameter is at most 6), so
// all of them take the same kernel path (|Q| = 78, beyond the compiled-table
// limit). The job stabilises a fixed batch of instances; it repeats until
// the measurement window closes, and every repeat must reproduce the first
// one's per-instance (time, rounds) exactly.
#include <cstdio>
#include <memory>

#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "sched/scheduler.hpp"
#include "unison/alg_au.hpp"
#include "unison/au_invariants.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace ssau;

struct Params {
  graph::NodeId n;
  std::size_t instances;
};

struct Instance {
  graph::Graph g;
  std::unique_ptr<unison::AlgAu> alg;
  core::Configuration c0;
  std::uint64_t engine_seed = 0;
};

struct Outcome {
  bool reached = false;
  core::Time time = 0;
  std::uint64_t rounds = 0;
  friend bool operator==(const Outcome&, const Outcome&) = default;
};

constexpr std::uint64_t kMaxRounds = 2000;
constexpr int kD = 6;

struct SetupTimes {
  double build = 0, diameter = 0;
};

Instance make_instance(const Params& p, std::uint64_t seed, std::size_t i,
                       SetupTimes& t) {
  // D certification resamples (deterministically) until diameter <= D.
  for (std::uint64_t attempt = 0; attempt < 64; ++attempt) {
    util::Rng rng = util::Rng::stream(seed, 1000 + 64 * i + attempt);
    const auto t0 = Clock::now();
    graph::Graph g = graph::random_connected(p.n, 8.0 / p.n, rng);
    const auto t1 = Clock::now();
    const bool certified = graph::diameter_at_most(g, kD);
    t.build += seconds_between(t0, t1);
    t.diameter += seconds_since(t1);
    if (!certified) continue;
    auto alg = std::make_unique<unison::AlgAu>(kD);
    core::Configuration c0 =
        unison::au_adversarial_configuration("random", *alg, g, rng);
    return Instance{std::move(g), std::move(alg), std::move(c0),
                    rng.below(1u << 30)};
  }
  throw std::runtime_error("no instance with diameter <= D");
}

std::unique_ptr<core::Engine> make_engine(const Instance& in,
                                          std::unique_ptr<sched::Scheduler>& s) {
  s = sched::make_scheduler("uniform-single", in.g);
  const graph::Graph& g = in.g;
  return std::make_unique<core::Engine>(g, *in.alg, *s, in.c0, in.engine_seed);
}

// One untraced repeat of the job: what a user writes — run_until with the
// legitimacy predicate evaluated on the benchmark's own copy of the graph.
// Each instance is one chunk, timed by the thread's CPU clock; an operation
// is one step and the legitimacy check after it. Returns the batch's wall
// time.
double run_batch(const std::vector<Instance>& batch, std::vector<Outcome>& outcomes,
                 EndToEnd& e2e, CpuRotation& cpus, std::size_t repeat) {
  double total = 0.0;
  outcomes.clear();
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Instance& in = batch[i];
    cpus.pin(i + repeat);
    std::unique_ptr<sched::Scheduler> s;
    auto engine = make_engine(in, s);
    const auto& ts = in.alg->turns();
    const auto t0 = Clock::now();
    const double cpu0 = thread_cpu_seconds();
    const core::RunOutcome out = engine->run_until(
        [&](const core::Configuration& c) { return unison::graph_good(ts, in.g, c); },
        kMaxRounds);
    Chunk chunk;
    chunk.seconds = thread_cpu_seconds() - cpu0;
    total += seconds_since(t0);
    chunk.unit = i;
    chunk.ops = static_cast<std::size_t>(out.time);
    chunk.mean_op_s = chunk.ops > 0 ? chunk.seconds / static_cast<double>(chunk.ops) : 0.0;
    chunk.activations = activation_total(*engine);
    e2e.add(std::move(chunk));
    outcomes.push_back(Outcome{out.reached, out.time, out.rounds});
    if (e2e.bytes_per_node == 0.0) {
      e2e.bytes_per_node =
          static_cast<double>(engine->dynamic_memory_usage() +
                              in.g.dynamic_memory_usage()) /
          in.g.num_nodes();
    }
  }
  return total;
}

void check_batch(const std::vector<Outcome>& got,
                 const std::vector<Outcome>& first, Report& r) {
  for (std::size_t i = 0; i < got.size(); ++i) {
    r.op(got[i].reached, "au-async instance " + std::to_string(i) +
                             " did not reach a good configuration");
    if (got[i].reached) {
      r.op(got[i] == first[i], "au-async instance " + std::to_string(i) +
                                   " repeat diverged from its first run");
    }
  }
}

}  // namespace

Report run_au_async(const RunConfig& cfg) {
  const Params p = cfg.smoke ? Params{300, 2} : Params{1500, 16};
  Report r;
  EndToEnd e2e;

  std::vector<Instance> batch;
  std::vector<SetupTimes> setups;
  for (std::size_t i = 0; i < p.instances; ++i) {
    SetupTimes t;
    const double t0 = thread_cpu_seconds();
    batch.push_back(make_instance(p, cfg.seed, i, t));
    std::unique_ptr<sched::Scheduler> s;
    auto engine = make_engine(batch.back(), s);
    e2e.setup_s.push_back(thread_cpu_seconds() - t0);
    setups.push_back(t);
  }
  std::printf("  instances    %zu x n=%u, D=%d\n", batch.size(), p.n, kD);

  // First repeat defines the per-instance record; later ones must match it.
  std::vector<Outcome> first, got;
  std::vector<double> batch_s;
  const auto start = Clock::now();
  CpuRotation cpus;
  batch_s.push_back(run_batch(batch, first, e2e, cpus, 0));
  check_batch(first, first, r);
  for (std::size_t i = 0; i < first.size(); ++i) {
    std::printf("  instance %zu  time %llu  rounds %llu\n", i,
                static_cast<unsigned long long>(first[i].time),
                static_cast<unsigned long long>(first[i].rounds));
  }
  while (keep_going(start, cfg.seconds, batch_s.size(), 2)) {
    batch_s.push_back(run_batch(batch, got, e2e, cpus, batch_s.size()));
    check_batch(got, first, r);
  }
  if (!cfg.trace) {
    e2e.report(r);
    return r;
  }

  // --- traced run: the same batch, run_until unrolled into timed calls ------
  // Each instance runs on the CPU it used in the first repeat, which is the
  // untraced reference for the overhead.
  Tracer tr;
  const auto L_config = tr.layer("engine.config");
  const auto L_step = tr.layer("engine.step");
  const auto L_good = tr.layer("unison.graph_good");
  const auto L_ctor = tr.layer("engine.ctor");
  double traced_total = 0.0, steps = 0.0, acts = 0.0;
  double shards = 0, barrier = 0, apply = 0, field = 0;
  const auto span_batch = tr.open("au-async.batch");
  for (std::size_t i = 0; i < batch.size(); ++i) {
    const Instance& in = batch[i];
    cpus.pin(i);
    const auto span = tr.open("au-async.instance");
    std::unique_ptr<sched::Scheduler> s;
    auto engine = tr.timed(L_ctor, [&] { return make_engine(in, s); });
    const auto& ts = in.alg->turns();
    const auto t0 = Clock::now();
    auto check = [&] {
      const core::Configuration& c = tr.timed(
          L_config, [&]() -> const core::Configuration& { return engine->config(); });
      return tr.timed(L_good, [&] { return unison::graph_good(ts, in.g, c); });
    };
    bool good = check();
    while (!good && engine->rounds_completed() < kMaxRounds) {
      tr.timed(L_step, [&] { engine->step(); });
      good = check();
    }
    traced_total += seconds_since(t0);
    tr.close(span);
    const Outcome o{good, engine->time(),
                    good ? engine->round_index_now() : engine->rounds_completed()};
    r.op(o == first[i], "au-async traced instance " + std::to_string(i) +
                            " diverged from the untraced run");
    steps += static_cast<double>(engine->time());
    acts += activation_total(*engine);
    shards += engine->shard_count();
    barrier += static_cast<double>(engine->barrier_wait_ns()) * 1e-9;
    apply += static_cast<double>(engine->apply_phase_ns()) * 1e-9;
    field += engine->signal_field_active() ? 1 : 0;
    if (i == 0) {
      r.set("engine.bytes_per_node",
            static_cast<double>(engine->dynamic_memory_usage()) / in.g.num_nodes());
    }
  }
  tr.close(span_batch);

  // The daemon's draw cost, on a separate instance of it.
  {
    auto s = sched::make_scheduler("uniform-single", batch[0].g);
    std::vector<core::NodeId> out;
    util::Rng rng = util::Rng::stream(cfg.seed, 99);
    const std::uint64_t draws = cfg.smoke ? 20'000 : 2'000'000;
    const auto t0 = Clock::now();
    for (std::uint64_t t = 0; t < draws; ++t) s->activations(t, out, rng);
    r.set("sched.draw_ns", seconds_since(t0) * 1e9 / draws);
  }

  const double untraced = batch_s.front();
  std::vector<double> build, diam;
  for (const auto& t : setups) {
    build.push_back(t.build);
    diam.push_back(t.diameter);
  }
  const double step_s = tr.seconds("engine.step");
  r.set("engine.ctor_s", tr.seconds("engine.ctor") / batch.size());
  r.set("engine.config_s", tr.seconds("engine.config"));
  r.set("engine.config_calls", tr.calls("engine.config"));
  r.set("engine.step_s", step_s);
  r.set("engine.steps", steps);
  r.set("engine.activations", acts);
  r.set("engine.step_ns_per_activation", acts > 0 ? step_s * 1e9 / acts : 0);
  r.set("engine.shards", shards / batch.size());
  r.set("engine.barrier_wait_s", barrier);
  r.set("engine.apply_phase_s", apply);
  r.set("engine.field_active", field / batch.size());
  r.set("unison.graph_good_s", tr.seconds("unison.graph_good"));
  r.set("unison.graph_good_calls", tr.calls("unison.graph_good"));
  r.set("graph.build_s", median(build));
  r.set("graph.diameter_s", median(diam));
  r.set("trace.overhead", traced_total / untraced - 1.0);
  std::printf("  traced batch %.4f s vs untraced first batch %.4f s: config %.4f + "
              "step %.4f + graph_good %.4f s\n",
              traced_total, untraced, tr.seconds("engine.config"), step_s,
              tr.seconds("unison.graph_good"));
  if (!cfg.trace_out.empty()) tr.write(cfg.trace_out);
  return r;
}

}  // namespace perfbench
