// End-to-end tests for AlgMIS (Thm 1.4) under the synchronous scheduler.
#include "mis/alg_mis.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <tuple>

#include "analysis/experiment.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "sched/scheduler.hpp"

namespace ssau::mis {
namespace {

graph::Graph make_graph(const std::string& name) {
  util::Rng rng(8675309);
  if (name == "clique6") return graph::complete(6);
  if (name == "star9") return graph::star(9);
  if (name == "cycle8") return graph::cycle(8);
  if (name == "grid3x4") return graph::grid(3, 4);
  if (name == "path7") return graph::path(7);
  if (name == "random12") return graph::random_connected(12, 0.3, rng);
  throw std::invalid_argument("bad graph name");
}

std::uint64_t mis_budget(int d, core::NodeId n) {
  const double logn = std::log2(std::max<double>(n, 2));
  return static_cast<std::uint64_t>(800.0 * (d + logn + 2) * (logn + 1)) + 800;
}

class MisConvergence
    : public ::testing::TestWithParam<std::tuple<std::string, std::string>> {};

TEST_P(MisConvergence, ReachesCorrectMisFromAnywhere) {
  const auto& [graph_name, adversary] = GetParam();
  const graph::Graph g = make_graph(graph_name);
  const int diam = std::max<int>(1, static_cast<int>(graph::diameter(g)));
  const AlgMis alg({.diameter_bound = diam});

  int successes = 0;
  for (std::uint64_t seed = 1; seed <= 4; ++seed) {
    util::Rng rng(seed * 65537);
    sched::SynchronousScheduler sched(g.num_nodes());
    core::Engine engine(g, alg, sched,
                        mis_adversarial_configuration(adversary, alg, g, rng),
                        seed);
    const auto outcome = engine.run_until(
        [&](const core::Configuration& c) {
          return mis_legitimate(alg, g, c);
        },
        mis_budget(diam, g.num_nodes()));
    ASSERT_TRUE(outcome.reached)
        << graph_name << "/" << adversary << " seed " << seed;

    // Absorbing: the output vector stays a correct MIS.
    bool stable = true;
    for (std::uint64_t r = 0; r < 10ULL * (diam + 3); ++r) {
      engine.step();
      if (!mis_legitimate(alg, g, engine.config())) stable = false;
    }
    EXPECT_TRUE(stable) << graph_name << "/" << adversary;
    if (stable) ++successes;
  }
  EXPECT_GE(successes, 3);
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, MisConvergence,
    ::testing::Combine(::testing::Values("clique6", "star9", "cycle8",
                                         "grid3x4", "path7", "random12"),
                       ::testing::Values("random", "adjacent-in", "orphan-out",
                                         "all-in", "mid-restart",
                                         "skewed-steps")));

TEST(Mis, FromScratchProducesIndependentDominatingSet) {
  const graph::Graph g = graph::grid(4, 4);
  const int diam = static_cast<int>(graph::diameter(g));
  const AlgMis alg({.diameter_bound = diam});
  sched::SynchronousScheduler sched(16);
  core::Engine engine(
      g, alg, sched, core::uniform_configuration(16, alg.initial_state()), 7);
  const auto outcome = engine.run_until(
      [&](const core::Configuration& c) { return mis_legitimate(alg, g, c); },
      mis_budget(diam, 16));
  ASSERT_TRUE(outcome.reached);
  EXPECT_TRUE(mis_outputs_correct(alg, g, engine.config()));
}

TEST(Mis, SingleNodeJoinsIn) {
  const graph::Graph g(1, {});
  const AlgMis alg({.diameter_bound = 1});
  sched::SynchronousScheduler sched(1);
  core::Engine engine(g, alg, sched, {alg.initial_state()}, 3);
  const auto outcome = engine.run_until(
      [&](const core::Configuration& c) { return mis_legitimate(alg, g, c); },
      mis_budget(1, 1));
  ASSERT_TRUE(outcome.reached);
  EXPECT_EQ(alg.output(engine.state_of(0)), 1);
}

TEST(Mis, CompleteGraphElectsExactlyOne) {
  // On a clique, MIS = LE: exactly one IN node.
  const graph::Graph g = graph::complete(7);
  const AlgMis alg({.diameter_bound = 1});
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    sched::SynchronousScheduler sched(7);
    core::Engine engine(
        g, alg, sched, core::uniform_configuration(7, alg.initial_state()),
        seed);
    const auto outcome = engine.run_until(
        [&](const core::Configuration& c) {
          return mis_legitimate(alg, g, c);
        },
        mis_budget(1, 7));
    ASSERT_TRUE(outcome.reached) << "seed " << seed;
    std::size_t in_count = 0;
    for (core::NodeId v = 0; v < 7; ++v) {
      in_count += alg.output(engine.state_of(v)) == 1 ? 1 : 0;
    }
    EXPECT_EQ(in_count, 1u);
  }
}

TEST(Mis, PhasesStayRoundSynchronizedInCleanExecution) {
  // From a clean start: no Restart is ever invoked, every undecided edge
  // stays valid (|step difference| <= 1, Obs 3.3/3.4 analogue), and the
  // decision rounds D+1 / D+2 are entered by all undecided nodes
  // concurrently (Cor 3.6). Mid-phase, steps may legitimately form a
  // distance-shaped gradient (Lem 3.5(3)) — only per-edge validity holds.
  const graph::Graph g = graph::cycle(8);
  const int diam = static_cast<int>(graph::diameter(g));
  const AlgMis alg({.diameter_bound = diam});
  sched::SynchronousScheduler sched(8);
  core::Engine engine(
      g, alg, sched, core::uniform_configuration(8, alg.initial_state()), 5);
  for (int t = 0; t < 500; ++t) {
    engine.step();
    std::vector<int> steps(8, -1);
    for (core::NodeId v = 0; v < 8; ++v) {
      const MisState s = alg.decode(engine.state_of(v));
      ASSERT_NE(s.mode, MisState::Mode::kRestart)
          << "clean run invoked Restart at step " << t;
      if (s.mode == MisState::Mode::kUndecided) steps[v] = s.step;
    }
    for (const auto& [u, v] : g.edges()) {
      if (steps[u] >= 0 && steps[v] >= 0) {
        EXPECT_LE(std::abs(steps[u] - steps[v]), 1)
            << "edge (" << u << "," << v << ") invalid at step " << t;
      }
    }
    // Cor 3.6: the penultimate/ultimate phase rounds are global.
    for (const int tail : {diam + 1, diam + 2}) {
      bool any = false, all = true;
      for (const int s : steps) {
        if (s == tail) any = true;
        if (s >= 0 && s != tail) all = false;
      }
      EXPECT_TRUE(!any || all)
          << "step " << tail << " not entered concurrently at step " << t;
    }
  }
}

TEST(Mis, InNodesNeverHaveInNeighborsPostStabilization) {
  util::Rng graph_rng(424242);
  const graph::Graph g = graph::random_connected(14, 0.25, graph_rng);
  const int diam = std::max<int>(1, static_cast<int>(graph::diameter(g)));
  const AlgMis alg({.diameter_bound = diam});
  sched::SynchronousScheduler sched(g.num_nodes());
  util::Rng rng(17);
  core::Engine engine(g, alg, sched,
                      core::random_configuration(alg, g.num_nodes(), rng), 17);
  const auto outcome = engine.run_until(
      [&](const core::Configuration& c) { return mis_legitimate(alg, g, c); },
      mis_budget(diam, g.num_nodes()));
  ASSERT_TRUE(outcome.reached);
  for (int t = 0; t < 200; ++t) {
    engine.step();
    for (const auto& [u, v] : g.edges()) {
      EXPECT_FALSE(alg.output(engine.state_of(u)) == 1 &&
                   alg.output(engine.state_of(v)) == 1)
          << "adjacent IN nodes at step " << t;
    }
  }
}

TEST(Mis, DecidedSetGrowsMonotonicallyInCleanRuns) {
  // Without faults there are no restarts, and decided nodes never revert:
  // the decided set only grows until it covers V. The property is whp, not
  // certain — adjacent candidates that toss identical coin sequences both
  // join IN and trigger a restart wave — so the seed pins a conflict-free
  // trajectory (re-pin if the engine's rng stream derivation changes).
  const graph::Graph g = graph::grid(3, 3);
  const int diam = static_cast<int>(graph::diameter(g));
  const AlgMis alg({.diameter_bound = diam});
  sched::SynchronousScheduler sched(9);
  core::Engine engine(
      g, alg, sched, core::uniform_configuration(9, alg.initial_state()), 62);
  std::vector<bool> decided(9, false);
  for (int t = 0; t < 2000; ++t) {
    engine.step();
    for (core::NodeId v = 0; v < 9; ++v) {
      const bool now = alg.is_output(engine.state_of(v));
      ASSERT_FALSE(decided[v] && !now)
          << "node " << v << " reverted to undecided at step " << t;
      decided[v] = now;
    }
  }
  for (core::NodeId v = 0; v < 9; ++v) EXPECT_TRUE(decided[v]);
}

TEST(Mis, StressLargerInstance) {
  // A moderately large tissue: 8x8 grid (n = 64, diam = 14) from a random
  // adversarial configuration — single seed, generous budget.
  const graph::Graph g = graph::grid(8, 8);
  const int diam = static_cast<int>(graph::diameter(g));
  const AlgMis alg({.diameter_bound = diam});
  util::Rng rng(777);
  sched::SynchronousScheduler sched(64);
  core::Engine engine(g, alg, sched,
                      core::random_configuration(alg, 64, rng), 777);
  const auto outcome = engine.run_until(
      [&](const core::Configuration& c) { return mis_legitimate(alg, g, c); },
      mis_budget(diam, 64));
  ASSERT_TRUE(outcome.reached);
  EXPECT_TRUE(mis_outputs_correct(alg, g, engine.config()));
}

TEST(Mis, StabilizationScalesGentlyWithN) {
  // Thm 1.4 shape probe on cycles (D grows with n/2, log n factor small):
  // mean rounds should grow roughly linearly in D, not quadratically in n.
  std::vector<double> ds, rounds;
  for (const core::NodeId n : {6u, 10u, 14u}) {
    const graph::Graph g = graph::cycle(n);
    const int diam = static_cast<int>(graph::diameter(g));
    const AlgMis alg({.diameter_bound = diam});
    const auto samples = analysis::run_trials(
        4, 2000 + n, [&](std::size_t, util::Rng& rng) {
          sched::SynchronousScheduler sched(n);
          core::Engine engine(g, alg, sched,
                              core::random_configuration(alg, n, rng), rng());
          const auto outcome = engine.run_until(
              [&](const core::Configuration& c) {
                return mis_legitimate(alg, g, c);
              },
              mis_budget(diam, n));
          EXPECT_TRUE(outcome.reached);
          return static_cast<double>(outcome.rounds);
        });
    ds.push_back(diam);
    rounds.push_back(util::summarize(samples).mean);
  }
  EXPECT_LT(rounds.back(), 40.0 * rounds.front());
}

// mis_legitimate and mis_outputs_correct read a user-order configuration
// through the graph's layout. On an engine whose graph a forced BFS reorder
// relabelled in place, checking against engine.graph() must give the answer
// the user-id graph gives, at every step: false while the run stabilises,
// true once it has.
TEST(Mis, LegitimacyAgreesOnAReorderedEngineGraph) {
  util::Rng rng(2031);
  const graph::Graph g0 = graph::random_connected(300, 6.0 / 300, rng);
  const int diam = static_cast<int>(graph::diameter(g0));
  const AlgMis alg({.diameter_bound = diam});
  graph::Graph g = g0;
  sched::SynchronousScheduler sched(g.num_nodes());
  core::Engine engine(g, alg, sched,
                      mis_adversarial_configuration("random", alg, g0, rng),
                      31, core::EngineOptions{.reorder = core::ReorderMode::kBfs});
  ASSERT_TRUE(engine.graph().reordered());

  std::uint64_t steps = 0, legitimate_steps = 0;
  const std::uint64_t budget = mis_budget(diam, g0.num_nodes());
  while (steps < budget && legitimate_steps < 40) {
    engine.step();
    ++steps;
    const core::Configuration& c = engine.config();
    const bool on_layout = mis_legitimate(alg, engine.graph(), c);
    ASSERT_EQ(on_layout, mis_legitimate(alg, g0, c)) << "step " << steps;
    ASSERT_EQ(mis_outputs_correct(alg, engine.graph(), c),
              mis_outputs_correct(alg, g0, c))
        << "step " << steps;
    if (on_layout) ++legitimate_steps;
  }
  EXPECT_EQ(legitimate_steps, 40u);
  EXPECT_GT(steps, legitimate_steps);
}

}  // namespace
}  // namespace ssau::mis
