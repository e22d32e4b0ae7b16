// Property tests replaying the fundamental invariants of §2.3 (Obs 2.1–2.9,
// Lem 2.10, Lem 2.16) against real executions of AlgAU on several graph
// families, schedulers, and adversarial initial configurations.
#include "unison/au_invariants.hpp"

#include <gtest/gtest.h>

#include <numeric>
#include <stdexcept>
#include <string>
#include <tuple>

#include "core/adversary.hpp"
#include "core/engine.hpp"
#include "graph/generators.hpp"
#include "graph/metrics.hpp"
#include "graph/reorder.hpp"
#include "sched/scheduler.hpp"
#include "unison/alg_au.hpp"

namespace ssau::unison {
namespace {

struct Instance {
  std::string graph_name;
  std::string scheduler;
  std::string adversary;
};

graph::Graph make_graph(const std::string& name) {
  util::Rng rng(1234);
  if (name == "cycle8") return graph::cycle(8);
  if (name == "path6") return graph::path(6);
  if (name == "grid3x3") return graph::grid(3, 3);
  if (name == "clique5") return graph::complete(5);
  if (name == "random12") return graph::random_connected(12, 0.25, rng);
  throw std::invalid_argument("bad graph name");
}

class AuInvariants
    : public ::testing::TestWithParam<std::tuple<std::string, std::string,
                                                 std::string>> {};

// Checks every §2.3 step-invariant between consecutive configurations.
void check_step_invariants(const TurnSystem& ts, const graph::Graph& g,
                           const core::Configuration& pre,
                           const core::Configuration& post) {
  const int k = ts.k();

  // Obs 2.1 / 2.2: protected edges (away from the {−k,k} seam) stay protected.
  for (const auto& [u, v] : g.edges()) {
    const Level lu = ts.level_of(pre[u]);
    const Level lv = ts.level_of(pre[v]);
    const bool seam = (lu == k && lv == -k) || (lu == -k && lv == k);
    if (edge_protected(ts, pre, u, v) && !seam) {
      EXPECT_TRUE(edge_protected(ts, post, u, v))
          << "Obs 2.1 violated on edge (" << u << "," << v << ")";
    }
  }

  for (core::NodeId v = 0; v < g.num_nodes(); ++v) {
    const Level pre_level = ts.level_of(pre[v]);
    // Obs 2.3: out-protected persists.
    if (node_out_protected(ts, g, pre, v)) {
      EXPECT_TRUE(node_out_protected(ts, g, post, v))
          << "Obs 2.3 violated at node " << v;
    }
    // Obs 2.4: a level change implies out-protected afterwards.
    if (ts.level_of(post[v]) != pre_level) {
      EXPECT_TRUE(node_out_protected(ts, g, post, v))
          << "Obs 2.4 violated at node " << v;
    }
  }

  // Obs 2.5: across a non-protected edge the level gap only narrows.
  for (const auto& [u, v] : g.edges()) {
    if (edge_protected(ts, pre, u, v)) continue;
    core::NodeId lo = u, hi = v;
    if (ts.level_of(pre[lo]) > ts.level_of(pre[hi])) std::swap(lo, hi);
    EXPECT_LE(ts.level_of(pre[lo]), ts.level_of(post[lo])) << "Obs 2.5";
    EXPECT_LT(ts.level_of(post[lo]), ts.level_of(post[hi])) << "Obs 2.5";
    EXPECT_LE(ts.level_of(post[hi]), ts.level_of(pre[hi])) << "Obs 2.5";
  }

  // Obs 2.6: ℓ-out-protectedness persists (spot-check ℓ ∈ {1, -1, 2, -2}).
  for (const Level l : {1, -1, 2, -2}) {
    if (graph_l_out_protected(ts, g, pre, l)) {
      EXPECT_TRUE(graph_l_out_protected(ts, g, post, l))
          << "Obs 2.6 violated for level " << l;
    }
  }

  // Lem 2.10: good persists.
  if (graph_good(ts, g, pre)) {
    EXPECT_TRUE(graph_good(ts, g, post)) << "Lem 2.10 violated";
  }

  // Lem 2.16 (shape): once the graph is out-protected, no node becomes
  // unjustifiably faulty.
  if (graph_out_protected(ts, g, pre) && graph_justified(ts, g, pre)) {
    EXPECT_TRUE(graph_justified(ts, g, post)) << "Lem 2.16 violated";
  }
}

TEST_P(AuInvariants, HoldOnEveryStep) {
  const auto& [graph_name, sched_name, adversary] = GetParam();
  const graph::Graph g = make_graph(graph_name);
  const int diam = static_cast<int>(graph::diameter(g));
  const AlgAu alg(diam);
  const TurnSystem& ts = alg.turns();

  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    util::Rng rng(seed * 1000003);
    const auto scheduler = sched::make_scheduler(sched_name, g);
    core::Engine engine(g, alg, *scheduler,
                        au_adversarial_configuration(adversary, alg, g, rng),
                        seed);
    for (int s = 0; s < 600; ++s) {
      const core::Configuration pre = engine.config();
      engine.step();
      check_step_invariants(ts, g, pre, engine.config());
    }
  }
}

TEST_P(AuInvariants, ProtectedGraphHasCompactLevelSpan) {
  // Obs 2.7 + 2.8: whenever the whole graph is protected, all levels lie in a
  // window {φ^j(ℓ) : 0 <= j <= d} with d <= diam(G).
  const auto& [graph_name, sched_name, adversary] = GetParam();
  const graph::Graph g = make_graph(graph_name);
  const int diam = static_cast<int>(graph::diameter(g));
  const AlgAu alg(diam);
  const TurnSystem& ts = alg.turns();

  util::Rng rng(99);
  const auto scheduler = sched::make_scheduler(sched_name, g);
  core::Engine engine(g, alg, *scheduler,
                      au_adversarial_configuration(adversary, alg, g, rng), 7);
  for (int s = 0; s < 800; ++s) {
    engine.step();
    const auto& c = engine.config();
    if (!graph_protected(ts, g, c)) continue;
    // Some base level ℓ must see every level within forward-distance diam.
    bool window_found = false;
    for (core::NodeId base = 0; base < g.num_nodes() && !window_found;
         ++base) {
      const Level l0 = ts.level_of(c[base]);
      bool all_in = true;
      for (const core::StateId q : c) {
        const int kappa =
            (ts.clock(ts.level_of(q)) - ts.clock(l0) + 2 * ts.k()) %
            (2 * ts.k());
        if (kappa > diam) {
          all_in = false;
          break;
        }
      }
      window_found = all_in;
    }
    EXPECT_TRUE(window_found) << "Obs 2.8 violated at step " << s;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Matrix, AuInvariants,
    ::testing::Combine(
        ::testing::Values("cycle8", "path6", "grid3x3", "clique5", "random12"),
        ::testing::Values("synchronous", "uniform-single", "rotating-single"),
        ::testing::Values("random", "tear", "all-faulty")));

// --- graph_good against its reference composition ---------------------------

/// What graph_good is defined as: no faulty turn (TurnSystem::is_faulty),
/// then every edge protected (graph_protected, which goes through
/// TurnSystem::level_of / adjacent).
bool reference_good(const TurnSystem& ts, const graph::Graph& g,
                    const core::Configuration& c) {
  for (const core::StateId q : c) {
    if (ts.is_faulty(q)) return false;
  }
  return graph_protected(ts, g, c);
}

core::StateId at_clock(const TurnSystem& ts, int kappa) {
  return ts.able_id(ts.level_at_clock(kappa));
}

/// Every node's clock drawn from {base, base + 1}: all edges protected.
core::Configuration window_config(const TurnSystem& ts, core::NodeId n,
                                  util::Rng& rng) {
  const int base = static_cast<int>(rng.below(2 * ts.k()));
  core::Configuration c(n);
  for (auto& q : c) q = at_clock(ts, base + static_cast<int>(rng.below(2)));
  return c;
}

/// graph_good(g, c) must equal the reference, both on g and on a randomly
/// relabelled copy of g (user-ordered c, layout-walking graph).
void expect_matches_reference(const TurnSystem& ts, const graph::Graph& g,
                              const graph::Graph& scrambled,
                              const core::Configuration& c) {
  const bool want = reference_good(ts, g, c);
  ASSERT_EQ(graph_good(ts, g, c), want);
  ASSERT_EQ(graph_good(ts, scrambled, c), want);
  ASSERT_EQ(reference_good(ts, scrambled, c), want);
}

graph::Graph scramble(const graph::Graph& g, util::Rng& rng) {
  std::vector<core::NodeId> perm(g.num_nodes());
  std::iota(perm.begin(), perm.end(), core::NodeId{0});
  for (std::size_t i = perm.size(); i > 1; --i) {
    std::swap(perm[i - 1], perm[rng.below(i)]);
  }
  return graph::reorder_graph(g, perm);
}

TEST(GraphGood, MatchesReferenceComposition) {
  for (int d = 1; d <= 8; ++d) {
    SCOPED_TRACE("D=" + std::to_string(d));
    const TurnSystem ts(d);
    const int m = 2 * ts.k();
    util::Rng rng(static_cast<std::uint64_t>(d) * 7717);
    std::size_t good = 0, bad = 0;
    for (int trial = 0; trial < 40; ++trial) {
      const graph::Graph g = graph::random_connected(24, 0.2, rng);
      const graph::Graph scrambled = scramble(g, rng);
      const core::NodeId n = g.num_nodes();

      // Random mixed able/faulty configurations (almost always a faulty
      // turn, so the first loop decides).
      core::Configuration c(n);
      for (auto& q : c) q = rng.below(ts.state_count());
      expect_matches_reference(ts, g, scrambled, c);

      // All able, arbitrary clocks: the edge loop decides.
      for (auto& q : c) q = rng.below(static_cast<core::StateId>(m));
      expect_matches_reference(ts, g, scrambled, c);

      // Protected everywhere; then one node moved to a random able clock,
      // which breaks exactly its far edges (or none).
      c = window_config(ts, n, rng);
      expect_matches_reference(ts, g, scrambled, c);
      good += graph_good(ts, g, c) ? 1 : 0;
      c[rng.below(n)] = rng.below(static_cast<core::StateId>(m));
      expect_matches_reference(ts, g, scrambled, c);

      // The same with one faulty turn: never good.
      c = window_config(ts, n, rng);
      c[rng.below(n)] = static_cast<core::StateId>(m) +
                        rng.below(ts.state_count() - static_cast<core::StateId>(m));
      expect_matches_reference(ts, g, scrambled, c);
      bad += graph_good(ts, g, c) ? 0 : 1;
    }
    EXPECT_EQ(good, 40u);
    EXPECT_EQ(bad, 40u);
  }
}

TEST(GraphGood, GoodExceptOneEdge) {
  // A path's leaf has one edge: moving it `gap` clocks away from its
  // neighbour unprotects exactly that edge. Gap 1 (either way) keeps it.
  for (int d = 1; d <= 8; ++d) {
    SCOPED_TRACE("D=" + std::to_string(d));
    const TurnSystem ts(d);
    const int m = 2 * ts.k();
    const graph::Graph g = graph::path(12);
    util::Rng rng(static_cast<std::uint64_t>(d) + 5);
    const graph::Graph scrambled = scramble(g, rng);
    for (int base = 0; base < m; ++base) {
      core::Configuration c(12, at_clock(ts, base));
      for (int gap = 0; gap < m; ++gap) {
        c[11] = at_clock(ts, base + gap);
        expect_matches_reference(ts, g, scrambled, c);
        const bool adjacent = gap <= 1 || gap == m - 1;
        ASSERT_EQ(graph_good(ts, g, c), adjacent) << "base " << base << " gap " << gap;
      }
    }
  }
}

TEST(GraphGood, WrapEdgeBetweenLastAndFirstClock) {
  for (int d = 1; d <= 8; ++d) {
    SCOPED_TRACE("D=" + std::to_string(d));
    const TurnSystem ts(d);
    const int m = 2 * ts.k();
    const graph::Graph g = graph::cycle(10);
    util::Rng rng(static_cast<std::uint64_t>(d) + 17);
    const graph::Graph scrambled = scramble(g, rng);
    // Alternating clocks 2k-1 and 0 (levels -1 and 1): every edge wraps.
    core::Configuration c(10);
    for (core::NodeId v = 0; v < 10; ++v) {
      c[v] = at_clock(ts, v % 2 == 0 ? m - 1 : 0);
    }
    expect_matches_reference(ts, g, scrambled, c);
    EXPECT_TRUE(graph_good(ts, g, c));
    // One step further either side of the seam is distance 2.
    c[1] = at_clock(ts, 1);
    expect_matches_reference(ts, g, scrambled, c);
    EXPECT_FALSE(graph_good(ts, g, c));
    c[1] = at_clock(ts, 0);
    c[0] = at_clock(ts, m - 2);
    expect_matches_reference(ts, g, scrambled, c);
    EXPECT_FALSE(graph_good(ts, g, c));
  }
}

TEST(GraphGood, OutOfRangeStateThrows) {
  for (int d = 1; d <= 8; ++d) {
    const TurnSystem ts(d);
    const graph::Graph g = graph::cycle(6);
    util::Rng rng(static_cast<std::uint64_t>(d));
    for (const core::StateId bad : {ts.state_count(), ts.state_count() + 1,
                                    ts.state_count() + 1000}) {
      core::Configuration c = window_config(ts, 6, rng);
      c[3] = bad;
      EXPECT_THROW((void)reference_good(ts, g, c), std::invalid_argument);
      EXPECT_THROW((void)graph_good(ts, g, c), std::invalid_argument);
    }
  }
}

}  // namespace
}  // namespace ssau::unison
