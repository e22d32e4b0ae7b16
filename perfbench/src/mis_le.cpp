// mis-le-faults — Thm 1.3/1.4 on the paper's motivating family: synchronous
// AlgMIS and AlgLE with D = 2 on damaged cliques (n = 400, each edge dropped
// with probability 0.1, diameter certified <= 2), four independent graphs per
// run so that the seed-to-seed differences in recovery length average out
// within a run. On each graph, each algorithm stabilises
// from a random C_0, then a fixed schedule of bursts runs: every burst
// scrambles k nodes (inject_state) and applies one ChurnAdversary event
// (keep_connected) through apply_topology_delta, then runs until legitimate
// again. Randomized, uncompiled, |Q| > 64 automata on dense neighbourhoods;
// the only workload that writes to the topology mid-run.
//
// Legitimacy is evaluated on the benchmark's own user-id copy of the graph,
// with every churn delta mirrored onto it; its diameter is re-certified
// after each churn event, outside the timed region.
#include <cstdio>
#include <functional>
#include <memory>

#include "core/adversary.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "le/alg_le.hpp"
#include "mis/alg_mis.hpp"
#include "sched/scheduler.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace ssau;

constexpr int kD = 2;
constexpr std::uint64_t kBudgetRounds = 100'000;

struct Params {
  graph::NodeId n;
  std::size_t graphs;  // distinct campaign graphs per run
  std::size_t bursts;
  std::size_t nodes_per_burst;
  bool smoke;
};

// One algorithm's campaign record: stabilisation and per-burst recovery, in
// rounds, plus the engine time at first legitimacy.
struct Record {
  bool stabilized = false;
  core::Time stabilize_time = 0;
  std::uint64_t stabilize_rounds = 0;
  std::vector<std::int64_t> recovery_rounds;  // -1 = not recovered
  friend bool operator==(const Record&, const Record&) = default;
};

struct Timing {
  double stabilize_s = 0, recover_s = 0, activations = 0;
};

// Hooks a traced run uses to time each library call; the untraced run calls
// straight through.
struct Calls {
  Tracer* tr = nullptr;
  std::uint32_t step = 0, config = 0, legit = 0, inject = 0, churn = 0, delta = 0;
};

struct Algo {
  const char* name;
  std::unique_ptr<core::Automaton> alg;
  std::function<bool(const graph::Graph&, const core::Configuration&)> legit;
  std::function<core::Configuration(const graph::Graph&, util::Rng&)> c0;
};

std::vector<Algo> make_algos() {
  std::vector<Algo> out;
  {
    auto a = std::make_unique<mis::AlgMis>(mis::AlgMisParams{.diameter_bound = kD});
    const mis::AlgMis* p = a.get();
    out.push_back(Algo{"mis", std::move(a),
                       [p](const graph::Graph& g, const core::Configuration& c) {
                         return mis::mis_legitimate(*p, g, c);
                       },
                       [p](const graph::Graph& g, util::Rng& rng) {
                         return mis::mis_adversarial_configuration("random", *p, g, rng);
                       }});
  }
  {
    auto a = std::make_unique<le::AlgLe>(le::AlgLeParams{.diameter_bound = kD});
    const le::AlgLe* p = a.get();
    out.push_back(Algo{"le", std::move(a),
                       [p](const graph::Graph& g, const core::Configuration& c) {
                         return le::le_legitimate(*p, g, c);
                       },
                       [p](const graph::Graph& g, util::Rng& rng) {
                         return le::le_adversarial_configuration("random", *p, g, rng);
                       }});
  }
  return out;
}

// Builds campaign c's damaged clique; D certification resamples
// (deterministically) until the diameter is at most D.
graph::Graph make_graph(const Params& p, std::uint64_t seed, std::size_t c,
                        double& build_s, double& diameter_s) {
  for (std::uint64_t attempt = 0;; ++attempt) {
    util::Rng rng = util::Rng::stream(seed, 3000 + 64 * c + attempt);
    const auto t0 = Clock::now();
    graph::Graph g = graph::damaged_clique(p.n, 0.1, rng);
    const auto t1 = Clock::now();
    const bool ok = graph::diameter_at_most(g, kD);
    build_s += seconds_between(t0, t1);
    diameter_s += seconds_since(t1);
    if (ok) return g;
    if (attempt == 16) throw std::runtime_error("no damaged clique with diameter <= 2");
  }
}

// diameter <= 2 on the mirror, with adjacency bitsets: every node reaches
// every other node through its closed two-hop neighbourhood. It replaces the
// library's all-pairs BFS after each churn event, which took longer than the
// campaign it certifies on these dense graphs; smoke runs check that both
// agree.
bool diameter_at_most_2(const graph::Graph& g) {
  const graph::NodeId n = g.num_nodes();
  const std::size_t words = (n + 63) / 64;
  std::vector<std::uint64_t> adj(static_cast<std::size_t>(n) * words, 0);
  for (graph::NodeId v = 0; v < n; ++v) {
    std::uint64_t* row = &adj[v * words];
    row[v / 64] |= std::uint64_t{1} << (v % 64);
    for (const graph::NodeId w : g.neighbors(v)) row[w / 64] |= std::uint64_t{1} << (w % 64);
  }
  std::vector<std::uint64_t> reach(words);
  for (graph::NodeId v = 0; v < n; ++v) {
    const std::uint64_t* row = &adj[v * words];
    std::copy(row, row + words, reach.begin());
    for (const graph::NodeId w : g.neighbors(v)) {
      const std::uint64_t* other = &adj[w * words];
      for (std::size_t k = 0; k < words; ++k) reach[k] |= other[k];
    }
    for (graph::NodeId u = 0; u < n; ++u) {
      if (!(reach[u / 64] >> (u % 64) & 1)) return false;
    }
  }
  return true;
}

// run_until with the legitimacy predicate on the mirror; untraced runs call
// the library loop, traced runs unroll it into timed calls.
core::RunOutcome run_to_legit(core::Engine& e, const Algo& a,
                              const graph::Graph& mirror, const Calls& k) {
  if (k.tr == nullptr) {
    return e.run_until(
        [&](const core::Configuration& c) { return a.legit(mirror, c); },
        kBudgetRounds);
  }
  Tracer& tr = *k.tr;
  auto check = [&] {
    const core::Configuration& c = tr.timed(
        k.config, [&]() -> const core::Configuration& { return e.config(); });
    return tr.timed(k.legit, [&] { return a.legit(mirror, c); });
  };
  core::RunOutcome out;
  out.reached = check();
  while (!out.reached && e.rounds_completed() < kBudgetRounds) {
    tr.timed(k.step, [&] { e.step(); });
    out.reached = check();
  }
  out.time = e.time();
  out.rounds = out.reached ? e.round_index_now() : e.rounds_completed();
  return out;
}

// Where a campaign's phases (the stabilisation, then each burst) run and are
// recorded: phase j is pinned to CPU slot `first_slot + j` and, untraced,
// becomes a repeat of unit `first_unit + j` in `out`, timed by the thread's
// CPU clock. Its operations are its synchronous rounds; their mean latency
// leaves out the burst's injection and churn.
struct Phases {
  CpuRotation& cpus;
  std::size_t first_slot = 0;
  std::size_t first_unit = 0;
  EndToEnd* out = nullptr;
};

// One algorithm's campaign on a fresh copy of the base graph.
Record campaign(const Params& p, const graph::Graph& base, const Algo& a,
                util::Rng rng, const Calls& k, Timing& t, Report& r,
                Phases ph, double* churn_rounds_out) {
  graph::Graph g = base;       // the engine's (mutable) graph
  graph::Graph mirror = base;  // the benchmark's user-id copy
  sched::SynchronousScheduler s(p.n);
  core::Engine e(g, *a.alg, s, a.c0(mirror, rng), rng.below(1u << 30));
  core::ChurnAdversary churn(mirror, core::ChurnOptions{.fail_p = 0.001,
                                                       .heal_p = 0.25,
                                                       .keep_connected = true});
  std::size_t phase = 0;
  auto close_phase = [&](double mutate_s, double run_s, std::uint64_t rounds) {
    Chunk chunk;
    chunk.unit = ph.first_unit + phase++;
    chunk.seconds = mutate_s + run_s;
    chunk.ops = static_cast<std::size_t>(rounds);
    chunk.mean_op_s = rounds > 0 ? run_s / static_cast<double>(rounds) : 0.0;
    chunk.activations = static_cast<double>(rounds) * p.n;
    if (ph.out) ph.out->add(std::move(chunk));
  };
  Record rec;
  ph.cpus.pin(ph.first_slot);
  const auto t0 = Clock::now();
  const double cpu0 = thread_cpu_seconds();
  const core::RunOutcome st = run_to_legit(e, a, mirror, k);
  const double stabilize_cpu_s = thread_cpu_seconds() - cpu0;
  const double stabilize_s = seconds_since(t0);
  close_phase(0.0, stabilize_cpu_s, e.rounds_completed());
  t.stabilize_s += stabilize_s;
  double recover_s = 0;
  rec.stabilized = st.reached;
  rec.stabilize_time = st.time;
  rec.stabilize_rounds = st.rounds;
  r.op(st.reached, std::string(a.name) + " did not stabilise");
  if (!st.reached) return rec;

  const auto q = static_cast<std::uint64_t>(a.alg->state_count());
  double recovery_rounds = 0;
  for (std::size_t b = 0; b < p.bursts; ++b) {
    ph.cpus.pin(ph.first_slot + 1 + b);
    const auto tb = Clock::now();
    const double cpu_b = thread_cpu_seconds();
    for (const core::NodeId v : sample_nodes(p.n, p.nodes_per_burst, rng)) {
      const core::StateId state = rng.below(q);
      if (k.tr) {
        k.tr->timed(k.inject, [&] { e.inject_state(v, state); });
      } else {
        e.inject_state(v, state);
      }
    }
    graph::TopologyDelta delta, effective;
    if (k.tr) {
      delta = k.tr->timed(k.churn, [&] { return churn.next_event(rng); });
      effective = k.tr->timed(k.delta, [&] { return e.apply_topology_delta(delta); });
    } else {
      delta = churn.next_event(rng);
      effective = e.apply_topology_delta(delta);
    }
    const double mutate_s = seconds_since(tb);
    const double mutate_cpu_s = thread_cpu_seconds() - cpu_b;
    // Outside the timed region: mirror the delta and re-certify D.
    const graph::TopologyDelta mirrored = mirror.apply_delta(delta);
    const bool same = mirrored.remove == effective.remove && mirrored.add == effective.add;
    static_assert(kD == 2, "the churn certification checks diameter <= 2");
    const bool certified = diameter_at_most_2(mirror);
    if (p.smoke) {
      r.op(certified == graph::diameter_at_most(mirror, kD),
           "the bitset and BFS diameter certifications disagree");
    }
    r.op(same && certified,
         std::string(a.name) + " burst " + std::to_string(b) +
             (same ? ": diameter exceeds D after churn"
                   : ": engine and mirror disagree on the effective delta"));
    const std::uint64_t before = e.rounds_completed();
    const auto tr0 = Clock::now();
    const double cpu_r = thread_cpu_seconds();
    const core::RunOutcome out = run_to_legit(e, a, mirror, k);
    const double run_cpu_s = thread_cpu_seconds() - cpu_r;
    recover_s += mutate_s + seconds_since(tr0);
    close_phase(mutate_cpu_s, run_cpu_s, e.rounds_completed() - before);
    r.op(out.reached, std::string(a.name) + " burst " + std::to_string(b) +
                          " did not recover");
    rec.recovery_rounds.push_back(out.reached ? static_cast<std::int64_t>(out.rounds - before) : -1);
    recovery_rounds += out.reached ? static_cast<double>(out.rounds - before) : 0;
  }
  t.recover_s += recover_s;
  t.activations += static_cast<double>(e.rounds_completed()) * p.n;
  if (churn_rounds_out) *churn_rounds_out += recovery_rounds;
  return rec;
}

// The random stream of algorithm i's campaign on graph c.
util::Rng campaign_rng(std::uint64_t seed, std::size_t c, std::size_t i) {
  return util::Rng::stream(seed, 4000 + 2 * c + i);
}

}  // namespace

Report run_mis_le(const RunConfig& cfg) {
  const Params p = cfg.smoke ? Params{40, 2, 3, 3, true} : Params{400, 4, 8, 10, false};
  Report r;
  EndToEnd e2e;
  const std::vector<Algo> algos = make_algos();

  // Set-up: every campaign graph's build and D certification, and both
  // engines' construction on it; repeated so its median is steady.
  const std::size_t setups = cfg.smoke ? 2 : 5;
  std::vector<graph::Graph> bases;
  std::vector<double> build, diam;
  for (std::size_t j = 0; j < setups; ++j) {
    bases.clear();
    double build_s = 0, diameter_s = 0;
    const double t0 = thread_cpu_seconds();
    for (std::size_t c = 0; c < p.graphs; ++c) {
      double b = 0, d = 0;
      bases.push_back(make_graph(p, cfg.seed, c, b, d));
      build_s += b;
      diameter_s += d;
      for (std::size_t i = 0; i < algos.size(); ++i) {
        graph::Graph g = bases.back();
        util::Rng rng = campaign_rng(cfg.seed, c, i);
        sched::SynchronousScheduler s(p.n);
        core::Engine e(g, *algos[i].alg, s, algos[i].c0(g, rng), 1);
      }
    }
    e2e.setup_s.push_back(thread_cpu_seconds() - t0);
    build.push_back(build_s);
    diam.push_back(diameter_s);
  }
  std::printf("  graphs       %zu damaged cliques n=%u m=%zu..., D=%d; %zu bursts x %zu nodes\n",
              p.graphs, p.n, bases[0].num_edges(), kD, p.bursts, p.nodes_per_burst);

  // Unit u = (graph c, algorithm i, phase j) with u = (c * 2 + i) * (bursts + 1) + j.
  const std::size_t phases = p.bursts + 1;
  std::vector<Record> first;  // per (c, i), from the first repeat
  std::vector<double> first_s;
  CpuRotation cpus;
  const auto start = Clock::now();
  std::size_t repeats = 0;
  for (; keep_going(start, cfg.seconds, repeats, 2); ++repeats) {
    for (std::size_t c = 0; c < p.graphs; ++c) {
      for (std::size_t i = 0; i < algos.size(); ++i) {
        const std::size_t ci = c * algos.size() + i;
        const Phases ph{cpus, repeats + ci * phases, ci * phases, &e2e};
        Timing t;
        const Record rec = campaign(p, bases[c], algos[i], campaign_rng(cfg.seed, c, i),
                                    Calls{}, t, r, ph, nullptr);
        if (repeats > 0) {
          r.op(rec == first[ci], std::string(algos[i].name) + " on graph " +
                                     std::to_string(c) +
                                     " diverged from its first campaign");
          continue;
        }
        first.push_back(rec);
        first_s.push_back(t.stabilize_s + t.recover_s);
        std::printf("  %-4s graph %zu: stabilised at time %llu (round %llu) in %.4f s; "
                    "recovery %.4f s, rounds:",
                    algos[i].name, c, static_cast<unsigned long long>(rec.stabilize_time),
                    static_cast<unsigned long long>(rec.stabilize_rounds), t.stabilize_s,
                    t.recover_s);
        for (const auto x : rec.recovery_rounds) std::printf(" %lld", static_cast<long long>(x));
        std::printf("\n");
      }
    }
  }
  {
    // Footprint of one campaign's engine plus graph, after set-up.
    graph::Graph g = bases[0];
    util::Rng rng = campaign_rng(cfg.seed, 0, 0);
    sched::SynchronousScheduler s(p.n);
    core::Engine e(g, *algos[0].alg, s, algos[0].c0(g, rng), 1);
    e2e.bytes_per_node =
        static_cast<double>(e.dynamic_memory_usage() + g.dynamic_memory_usage()) / p.n;
  }
  if (!cfg.trace) {
    e2e.report(r);
    return r;
  }

  // --- traced run: one campaign with every library call timed -------------
  Tracer tr;
  Calls k{&tr,
          tr.layer("engine.step"),
          tr.layer("engine.config"),
          0,
          tr.layer("engine.inject_state"),
          tr.layer("adversary.churn_event"),
          tr.layer("engine.topology_delta")};
  Timing t;
  double recovery_rounds = 0;
  std::vector<Record> traced;
  // Graph 0's campaigns again, on the CPUs of their first repeat.
  const auto span = tr.open("mis-le.campaign");
  for (std::size_t i = 0; i < algos.size(); ++i) {
    Calls ki = k;
    ki.legit = tr.layer(std::string(algos[i].name) + ".legitimate");
    const auto s = tr.open(std::string("mis-le.") + algos[i].name);
    const Phases ph{cpus, i * phases, 0, nullptr};
    traced.push_back(campaign(p, bases[0], algos[i], campaign_rng(cfg.seed, 0, i), ki,
                              t, r, ph, &recovery_rounds));
    tr.close(s);
    r.op(traced.back() == first[i], std::string(algos[i].name) +
                                        " traced campaign diverged from the untraced one");
  }
  tr.close(span);
  const double step_s = tr.seconds("engine.step");
  r.set("engine.config_s", tr.seconds("engine.config"));
  r.set("engine.config_calls", tr.calls("engine.config"));
  r.set("engine.step_s", step_s);
  r.set("engine.steps", tr.calls("engine.step"));
  r.set("engine.activations", t.activations);
  r.set("engine.step_ns_per_activation", t.activations > 0 ? step_s * 1e9 / t.activations : 0);
  r.set("engine.topology_delta_s", tr.seconds("engine.topology_delta"));
  r.set("mis.legitimate_s", tr.seconds("mis.legitimate"));
  r.set("mis.legitimate_calls", tr.calls("mis.legitimate"));
  r.set("le.legitimate_s", tr.seconds("le.legitimate"));
  r.set("le.legitimate_calls", tr.calls("le.legitimate"));
  r.set("adversary.churn_event_s", tr.seconds("adversary.churn_event"));
  r.set("faults.recovery_rounds", recovery_rounds);
  r.set("graph.build_s", median(build));
  r.set("graph.diameter_s", median(diam));
  r.set("trace.overhead", (t.stabilize_s + t.recover_s) / (first_s[0] + first_s[1]) - 1.0);
  std::printf("  traced       stabilize %.4f s, recover %.4f s: step %.4f, config %.4f, "
              "legitimacy %.4f, churn %.4f, delta %.4f s\n",
              t.stabilize_s, t.recover_s, step_s, tr.seconds("engine.config"),
              tr.seconds("mis.legitimate") + tr.seconds("le.legitimate"),
              tr.seconds("adversary.churn_event"), tr.seconds("engine.topology_delta"));
  if (!cfg.trace_out.empty()) tr.write(cfg.trace_out);
  return r;
}

}  // namespace perfbench
