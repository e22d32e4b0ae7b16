// End-to-end stabilization tests for AlgAU (Thm 1.1): from every adversarial
// initial configuration, under every scheduler, the graph becomes good within
// the O(D^3) round budget, and goodness is absorbing.
#include <gtest/gtest.h>

#include <string>
#include <tuple>

#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "sched/scheduler.hpp"
#include "unison/alg_au.hpp"
#include "unison/au_invariants.hpp"
#include "unison/au_monitor.hpp"
#include "unison/au_potential.hpp"

namespace ssau::unison {
namespace {

graph::Graph make_graph(const std::string& name) {
  util::Rng rng(777);
  if (name == "cycle9") return graph::cycle(9);
  if (name == "path7") return graph::path(7);
  if (name == "grid3x4") return graph::grid(3, 4);
  if (name == "clique6") return graph::complete(6);
  if (name == "star8") return graph::star(8);
  if (name == "ring-of-cliques") return graph::ring_of_cliques(3, 4);
  if (name == "random14") return graph::random_connected(14, 0.3, rng);
  throw std::invalid_argument("bad graph name");
}

/// Generous empirical budget consistent with the paper's O(k^3) rounds.
std::uint64_t round_budget(int k) {
  return 40ULL * static_cast<std::uint64_t>(k) * k * k + 400;
}

class AuStabilization
    : public ::testing::TestWithParam<std::tuple<std::string, std::string,
                                                 std::string>> {};

TEST_P(AuStabilization, ReachesGoodWithinCubicBudget) {
  const auto& [graph_name, sched_name, adversary] = GetParam();
  const graph::Graph g = make_graph(graph_name);
  const int diam = static_cast<int>(graph::diameter(g));
  const AlgAu alg(diam);

  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    util::Rng rng(seed * 7919);
    const auto scheduler = sched::make_scheduler(sched_name, g);
    core::Engine engine(g, alg, *scheduler,
                        au_adversarial_configuration(adversary, alg, g, rng),
                        seed);
    const auto outcome =
        run_to_good(engine, alg, round_budget(alg.turns().k()));
    ASSERT_TRUE(outcome.reached)
        << graph_name << "/" << sched_name << "/" << adversary << " seed "
        << seed << " not good after " << engine.rounds_completed()
        << " rounds";

    // Goodness is absorbing (Lem 2.10): run on and re-check.
    engine.run_rounds(2 * static_cast<std::uint64_t>(diam) + 10);
    EXPECT_TRUE(graph_good(alg.turns(), g, engine.config()));
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, AuStabilization,
    ::testing::Combine(
        ::testing::Values("cycle9", "path7", "grid3x4", "clique6", "star8",
                          "ring-of-cliques", "random14"),
        ::testing::Values("synchronous", "uniform-single", "random-subset",
                          "rotating-single", "laggard", "wave",
                          "permutation", "burst"),
        ::testing::Values("random", "tear", "all-faulty", "opposed",
                          "random-able")));

TEST(AuStabilization, GradientConfigIsAlreadyGood) {
  const graph::Graph g = graph::path(5);
  const AlgAu alg(4);
  const auto c = au_config_gradient(alg, g);
  EXPECT_TRUE(graph_good(alg.turns(), g, c));
}

TEST(AuStabilization, DiameterBoundLooserThanActualDiameterStillWorks) {
  // The algorithm only needs diam(G) <= D; run with slack (D = diam + 3).
  const graph::Graph g = graph::cycle(8);
  const int diam = static_cast<int>(graph::diameter(g));
  const AlgAu alg(diam + 3);
  util::Rng rng(5);
  auto scheduler = sched::make_scheduler("uniform-single", g);
  core::Engine engine(g, alg, *scheduler,
                      au_adversarial_configuration("random", alg, g, rng), 21);
  const auto outcome = run_to_good(engine, alg, round_budget(alg.turns().k()));
  EXPECT_TRUE(outcome.reached);
}

TEST(AuStabilization, RoundsIndependentOfNAtFixedDiameter) {
  // The "thin" headline: with D fixed, stabilization time does not grow
  // with n (Thm 1.1 bounds depend on D alone).
  const AlgAu alg(2);
  std::vector<double> means;
  for (const core::NodeId n : {8u, 32u, 96u}) {
    util::Rng rng(n * 31 + 1);
    std::vector<double> rounds;
    for (int i = 0; i < 3; ++i) {
      graph::Graph g = graph::random_bounded_diameter(n, 2, rng);
      auto scheduler = sched::make_scheduler("uniform-single", g);
      core::Engine engine(g, alg, *scheduler,
                          au_adversarial_configuration("random", alg, g, rng),
                          n + i);
      const auto outcome = run_to_good(engine, alg, 100000);
      ASSERT_TRUE(outcome.reached);
      rounds.push_back(static_cast<double>(outcome.rounds));
    }
    double sum = 0;
    for (const double r : rounds) sum += r;
    means.push_back(sum / static_cast<double>(rounds.size()));
  }
  // A 12x growth in n must not even double the mean stabilization rounds.
  EXPECT_LT(means.back(), 2.0 * means.front() + 10.0);
}

TEST(AuStabilization, StressLargeRing) {
  // cycle(48), D = 24 (k = 74, 294 states): one adversarial random start
  // under an asynchronous daemon; must stabilize well inside the budget.
  const graph::Graph g = graph::cycle(48);
  const AlgAu alg(24);
  util::Rng rng(4242);
  auto scheduler = sched::make_scheduler("random-subset", g);
  core::Engine engine(g, alg, *scheduler,
                      au_adversarial_configuration("random", alg, g, rng),
                      4242);
  const auto k = static_cast<std::uint64_t>(alg.turns().k());
  const auto outcome = run_to_good(engine, alg, 60 * k * k * k);
  ASSERT_TRUE(outcome.reached);
  EXPECT_LT(outcome.rounds, k * k * k);
  const auto report = verify_post_stabilization(engine, alg, 60);
  EXPECT_TRUE(report.safety_ok);
  EXPECT_TRUE(report.liveness_ok);
}

TEST(AuStabilization, SingleNodeGraphTicksForever) {
  const graph::Graph g(1, {});
  const AlgAu alg(1);
  auto scheduler = sched::make_scheduler("synchronous", g);
  core::Engine engine(g, alg, *scheduler, {alg.turns().able_id(1)}, 1);
  for (int i = 0; i < 4 * alg.turns().k(); ++i) engine.step();
  // After 4k synchronous steps the lone node has lapped the 2k-cycle twice.
  EXPECT_EQ(engine.state_of(0), alg.turns().able_id(1));
}

TEST(AuStabilization, TwoNodeTearHealsByGapClosing) {
  // The clock-tear edge heals without any reset: both sides converge to ±1
  // neighborhood via the faulty detours (the §2.1 design narrative).
  const graph::Graph g = graph::path(2);
  const AlgAu alg(1);
  auto scheduler = sched::make_scheduler("synchronous", g);
  core::Engine engine(g, alg, *scheduler, au_config_tear(alg, 2), 3);
  const auto outcome = run_to_good(engine, alg, round_budget(alg.turns().k()));
  ASSERT_TRUE(outcome.reached);
  EXPECT_TRUE(graph_good(alg.turns(), g, engine.config()));
}

// The AU helpers read Engine::config() (user ids) against Engine::graph(),
// which on a reordered engine walks layout ids. At 70,000 nodes
// ReorderMode::kAuto relabels the graph, so run_to_good and
// verify_post_stabilization must report exactly what the identity layout
// reports: AlgAU is deterministic and the synchronous daemon activates every
// node, so the reordered run is the same run relabelled. Two engine threads
// keep the 10M node-steps per run short.
TEST(AuStabilization, RunToGoodAgreesWithAndWithoutReorder) {
  constexpr core::NodeId kN = 70'000;
  ASSERT_GE(kN, core::kReorderAutoMinNodes);
  util::Rng rng(2027);
  const graph::Graph g0 = graph::random_connected(kN, 8.0 / kN, rng);
  // Certified bound: diam <= 2 * ecc(v) for any v.
  const AlgAu alg(2 * static_cast<int>(graph::eccentricity(g0, 0)));
  const core::Configuration c0 =
      au_adversarial_configuration("random", alg, g0, rng);

  struct Result {
    bool reordered = false;
    core::RunOutcome good;
    PostStabilizationReport post;
  };
  const auto run = [&](core::ReorderMode mode) {
    core::EngineOptions opts;
    opts.reorder = mode;
    opts.thread_count = 2;
    graph::Graph g = g0;
    auto sched = sched::make_scheduler("synchronous", g);
    core::Engine engine(g, alg, *sched, c0, 1, opts);
    Result r;
    r.reordered = g.reordered();
    r.good = run_to_good(engine, alg, round_budget(alg.turns().k()));
    r.post = verify_post_stabilization(engine, alg, 8);
    return r;
  };
  const Result on = run(core::ReorderMode::kAuto);
  const Result off = run(core::ReorderMode::kOff);
  ASSERT_TRUE(on.reordered);
  ASSERT_FALSE(off.reordered);

  ASSERT_TRUE(off.good.reached);
  EXPECT_EQ(on.good.reached, off.good.reached);
  EXPECT_EQ(on.good.time, off.good.time);
  EXPECT_EQ(on.good.rounds, off.good.rounds);

  EXPECT_TRUE(on.post.safety_ok);
  EXPECT_TRUE(on.post.outputs_ok);
  EXPECT_TRUE(on.post.ticks_plus_one);
  EXPECT_TRUE(on.post.liveness_ok);
  EXPECT_EQ(on.post.min_ticks, off.post.min_ticks);
  EXPECT_EQ(on.post.max_ticks, off.post.max_ticks);
}

// The same agreement for track_phases and measure_potential, on a graph
// small enough to reorder only when asked (ReorderMode::kBfs).
TEST(AuStabilization, PhaseTrackingAgreesWithAndWithoutReorder) {
  constexpr core::NodeId kN = 600;
  util::Rng rng(2028);
  const graph::Graph g0 = graph::random_connected(kN, 6.0 / kN, rng);
  const AlgAu alg(static_cast<int>(graph::diameter(g0)));
  const core::Configuration c0 =
      au_adversarial_configuration("random", alg, g0, rng);

  struct Result {
    bool reordered = false;
    PotentialSnapshot start;
    PhaseTimes phases;
    core::Time time = 0;
  };
  const auto run = [&](core::ReorderMode mode) {
    core::EngineOptions opts;
    opts.reorder = mode;
    graph::Graph g = g0;
    auto sched = sched::make_scheduler("synchronous", g);
    core::Engine engine(g, alg, *sched, c0, 1, opts);
    Result r;
    r.reordered = g.reordered();
    r.start = measure_potential(alg.turns(), engine.graph(), engine.config());
    r.phases = track_phases(engine, alg, round_budget(alg.turns().k()));
    r.time = engine.time();
    return r;
  };
  const Result on = run(core::ReorderMode::kBfs);
  const Result off = run(core::ReorderMode::kOff);
  ASSERT_TRUE(on.reordered);
  ASSERT_FALSE(off.reordered);

  EXPECT_EQ(on.start.non_protected_edges, off.start.non_protected_edges);
  EXPECT_EQ(on.start.faulty_nodes, off.start.faulty_nodes);
  EXPECT_EQ(on.start.non_out_protected_nodes,
            off.start.non_out_protected_nodes);
  EXPECT_EQ(on.start.unjustified_nodes, off.start.unjustified_nodes);
  EXPECT_EQ(on.start.max_level_gap, off.start.max_level_gap);

  ASSERT_TRUE(off.phases.reached_t2);
  EXPECT_EQ(on.phases.reached_t0, off.phases.reached_t0);
  EXPECT_EQ(on.phases.reached_t1, off.phases.reached_t1);
  EXPECT_EQ(on.phases.reached_t2, off.phases.reached_t2);
  EXPECT_EQ(on.phases.t0_rounds, off.phases.t0_rounds);
  EXPECT_EQ(on.phases.t1_rounds, off.phases.t1_rounds);
  EXPECT_EQ(on.phases.t2_rounds, off.phases.t2_rounds);
  EXPECT_EQ(on.phases.monotone, off.phases.monotone);
  EXPECT_EQ(on.time, off.time);
}

}  // namespace
}  // namespace ssau::unison
