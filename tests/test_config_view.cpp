// Differential suite for Engine::config(), the engine's one cached user-order
// configuration view. The view is patched on serial writes and invalidated
// on raw ones (see Engine::config_view_); a missed patch or a missed
// invalidation shows up here as config() disagreeing with the store. The
// oracle is Engine::state_of(u), which reads the store directly.
//
// After every step, and after every inject_state, inject_configuration,
// apply_topology_delta and snapshot restore, config()[u] == state_of(u) for
// every user id u — across all eight schedulers, thread counts {1, 2, 4, 8},
// fast path on and off, narrow (|Q| <= 256) and wide stores, and reordered
// and identity layouts. Repeated config() calls with no step in between
// must return the same object with the same contents.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/snapshot.hpp"
#include "graph/generators.hpp"
#include "sched/scheduler.hpp"
#include "unison/alg_au.hpp"
#include "util/rng.hpp"

namespace ssau::core {
namespace {

const char* const kAllSchedulers[] = {
    "synchronous", "uniform-single", "random-subset", "rotating-single",
    "laggard",     "wave",           "permutation",   "burst"};

constexpr NodeId kN = 120;

/// The contract: config() equals {state_of(u)} in user order, and a second
/// call with nothing in between hands back the same view unchanged.
void expect_view_exact(const Engine& e, const std::string& where) {
  SCOPED_TRACE(where);
  const Configuration& c = e.config();
  ASSERT_EQ(c.size(), kN);
  for (NodeId u = 0; u < kN; ++u) {
    ASSERT_EQ(c[u], e.state_of(u)) << "user node " << u;
  }
  const Configuration& again = e.config();
  ASSERT_EQ(&again, &c);
  ASSERT_EQ(again, c);
}

struct Cell {
  std::string scheduler;
  unsigned threads = 1;
  bool fast_path = true;
  bool wide = false;
  ReorderMode reorder = ReorderMode::kOff;
  bool listener = false;

  [[nodiscard]] std::string name() const {
    return scheduler + " threads=" + std::to_string(threads) +
           (fast_path ? " fast" : " legacy") + (wide ? " wide" : " narrow") +
           (reorder == ReorderMode::kOff ? " identity" : " reordered") +
           (listener ? " listener" : "");
  }
};

/// One user-id edge to drop (an existing neighbor of `u`) and one to add
/// (a non-neighbor), for the engine's current graph.
graph::TopologyDelta make_delta(const graph::Graph& g, NodeId u,
                                util::Rng& rng) {
  graph::TopologyDelta d;
  const NodeId i = g.to_internal(u);
  if (g.degree(i) > 1) d.remove.push_back({u, g.to_user(g.neighbors(i)[0])});
  for (int tries = 0; tries < 64; ++tries) {
    const auto w = static_cast<NodeId>(rng.below(kN));
    if (w != u && !g.has_edge(i, g.to_internal(w))) {
      d.add.push_back({u, w});
      break;
    }
  }
  return d;
}

void run_cell(const Cell& cell, std::uint64_t seed) {
  SCOPED_TRACE(cell.name());
  util::Rng rng(seed);
  // D = 2 keeps |Q| = 30 (byte store); D = 21 gives |Q| = 258 (wide store).
  const unison::AlgAu alg(cell.wide ? 21 : 2);
  graph::Graph g = graph::random_connected(kN, 8.0 / kN, rng);
  auto sched = sched::make_scheduler(cell.scheduler, g);
  EngineOptions opts;
  opts.fast_path = cell.fast_path;
  opts.thread_count = cell.threads;
  opts.sparse_activation_threshold = 16;  // let large A_t shard at n = 120
  opts.reorder = cell.reorder;
  auto engine = std::make_unique<Engine>(
      g, alg, *sched, random_configuration(alg, kN, rng), seed, opts);
  ASSERT_EQ(engine->compact_config(), !cell.wide);
  ASSERT_EQ(g.reordered(), cell.reorder != ReorderMode::kOff);
  std::uint64_t transitions = 0;
  if (cell.listener) {
    engine->set_transition_listener(
        [&](NodeId, StateId, StateId, const Signal&, Time) { ++transitions; });
  }

  // Checks after every step, and also leaves stretches unread so patches
  // and invalidations pile up between two config() calls.
  const auto advance = [&](int steps, bool check_each) {
    for (int s = 0; s < steps; ++s) {
      engine->step();
      if (check_each) expect_view_exact(*engine, "step");
    }
    expect_view_exact(*engine, "after steps");
  };

  expect_view_exact(*engine, "construction");
  advance(30, true);
  advance(7, false);

  for (int f = 0; f < 4; ++f) {
    engine->inject_state(static_cast<NodeId>(rng.below(kN)),
                         rng.below(alg.state_count()));
    expect_view_exact(*engine, "inject_state");
  }
  advance(10, true);

  engine->inject_configuration(random_configuration(alg, kN, rng));
  expect_view_exact(*engine, "inject_configuration");
  advance(10, true);

  engine->apply_topology_delta(
      make_delta(engine->graph(), static_cast<NodeId>(rng.below(kN)), rng));
  expect_view_exact(*engine, "apply_topology_delta");
  advance(10, true);

  // Snapshot restore: a fresh engine from the wire reports the same view,
  // and both keep agreeing as they step on.
  const std::vector<std::uint8_t> bytes = snapshot::save(*engine);
  graph::Graph restored_graph = snapshot::restore_graph(bytes);
  auto restored_sched = sched::make_scheduler(cell.scheduler, restored_graph);
  auto restored = snapshot::restore(bytes, restored_graph, alg, *restored_sched);
  expect_view_exact(*restored, "restore");
  ASSERT_EQ(restored->config(), engine->config());
  for (int s = 0; s < 10; ++s) {
    engine->step();
    restored->step();
    expect_view_exact(*restored, "restored step");
    ASSERT_EQ(restored->config(), engine->config());
  }
  if (cell.listener) {
    EXPECT_GT(transitions, 0u);
  }
}

TEST(ConfigView, MatchesStateOfEverywhere) {
  std::uint64_t seed = 1;
  for (const char* sched : kAllSchedulers) {
    for (const bool wide : {false, true}) {
      for (const ReorderMode reorder : {ReorderMode::kOff, ReorderMode::kBfs}) {
        // The legacy oracle is always serial: one cell covers it.
        run_cell({sched, 1, false, wide, reorder}, seed++);
        for (const unsigned threads : {1u, 2u, 4u, 8u}) {
          run_cell({sched, threads, true, wide, reorder}, seed++);
        }
      }
    }
  }
}

TEST(ConfigView, MatchesStateOfWithListener) {
  // A listener keeps every step on the serial kernels: the patch side of
  // the rule for asynchronous steps, the invalidate side for synchronous
  // ones, at every thread count.
  std::uint64_t seed = 1000;
  for (const char* sched : {"synchronous", "uniform-single", "random-subset"}) {
    for (const unsigned threads : {1u, 4u}) {
      for (const ReorderMode reorder : {ReorderMode::kOff, ReorderMode::kBfs}) {
        run_cell({sched, threads, true, false, reorder, true}, seed++);
      }
    }
  }
}

TEST(ConfigView, OneViewAtMost) {
  // The view is the engine's only user-order copy: materializing it costs
  // n StateIds once, and stepping and re-reading never allocates another.
  // A wide store on an identity layout is returned directly, with no copy.
  for (const bool wide : {false, true}) {
    for (const ReorderMode reorder : {ReorderMode::kOff, ReorderMode::kBfs}) {
      util::Rng rng(7);
      const unison::AlgAu alg(wide ? 21 : 2);
      graph::Graph g = graph::random_connected(kN, 8.0 / kN, rng);
      auto sched = sched::make_scheduler("uniform-single", g);
      EngineOptions opts;
      opts.reorder = reorder;
      opts.signal_field = SignalFieldMode::kOff;
      Engine engine(g, alg, *sched, random_configuration(alg, kN, rng), 7,
                    opts);
      engine.step();  // warm the scratch buffers
      const std::size_t before = engine.dynamic_memory_usage();
      (void)engine.config();
      const std::size_t view =
          wide && reorder == ReorderMode::kOff ? 0 : kN * sizeof(StateId);
      EXPECT_EQ(engine.dynamic_memory_usage(), before + view);
      for (int s = 0; s < 50; ++s) {
        engine.step();
        (void)engine.config();
      }
      engine.inject_configuration(random_configuration(alg, kN, rng));
      (void)engine.config();
      EXPECT_EQ(engine.dynamic_memory_usage(), before + view);
    }
  }
}

}  // namespace
}  // namespace ssau::core
