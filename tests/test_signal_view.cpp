// Tests for the zero-allocation signal fast path: SignalView semantics vs
// Signal, the SignalScratch word-bitmap (byte store) and sorted (wide store)
// construction paths, and make_signal_view projections.
#include "core/signal_view.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "core/signal.hpp"
#include "graph/generators.hpp"
#include "util/rng.hpp"

namespace ssau::core {
namespace {

TEST(SignalView, FromSignalSmallStatesCarriesMask) {
  const Signal sig = Signal::from_states({5, 1, 5, 3, 1});
  const SignalView view(sig);
  ASSERT_TRUE(view.has_mask());
  EXPECT_EQ(view.mask(), (1u << 1) | (1u << 3) | (1u << 5));
  EXPECT_EQ(view.size(), 3u);
  EXPECT_TRUE(view.contains(1));
  EXPECT_TRUE(view.contains(3));
  EXPECT_TRUE(view.contains(5));
  EXPECT_FALSE(view.contains(0));
  EXPECT_FALSE(view.contains(4));
  EXPECT_FALSE(view.contains(64));
  EXPECT_FALSE(view.contains(1000));
}

TEST(SignalView, FromSignalLargeStatesFallsBackToSparse) {
  const Signal sig = Signal::from_states({2, 64, 100});
  const SignalView view(sig);
  EXPECT_FALSE(view.has_mask());
  EXPECT_TRUE(view.contains(2));
  EXPECT_TRUE(view.contains(64));
  EXPECT_TRUE(view.contains(100));
  EXPECT_FALSE(view.contains(3));
}

TEST(SignalView, AnyAllMatchSignal) {
  const Signal sig = Signal::from_states({2, 4, 6});
  const SignalView view(sig);
  EXPECT_TRUE(view.any([](StateId q) { return q == 4; }));
  EXPECT_FALSE(view.any([](StateId q) { return q == 5; }));
  EXPECT_TRUE(view.all([](StateId q) { return q % 2 == 0; }));
  EXPECT_FALSE(view.all([](StateId q) { return q > 2; }));
}

TEST(SignalView, MaterializeRoundTrips) {
  const Signal sig = Signal::from_states({9, 0, 63, 9});
  const SignalView view(sig);
  EXPECT_EQ(view.materialize(), sig);
}

TEST(SignalScratch, BitmaskPathMatchesFromStates) {
  const graph::Graph g = graph::cycle(6);
  const Configuration c{0, 5, 5, 63, 2, 0};
  SignalScratch scratch;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    std::vector<StateId> sensed{c[v]};
    for (const NodeId u : g.neighbors(v)) sensed.push_back(c[u]);
    const Signal expected = Signal::from_states(std::move(sensed));
    const SignalView view = scratch.sense(g, c, v);
    ASSERT_TRUE(view.has_mask());
    EXPECT_EQ(view.materialize(), expected) << "node " << v;
    EXPECT_EQ(view.mask(), SignalView(expected).mask());
  }
}

TEST(SignalScratch, SparsePathMatchesFromStates) {
  const graph::Graph g = graph::star(5);
  const Configuration c{1000, 3, 64, 3, 1000};
  SignalScratch scratch;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    std::vector<StateId> sensed{c[v]};
    for (const NodeId u : g.neighbors(v)) sensed.push_back(c[u]);
    const Signal expected = Signal::from_states(std::move(sensed));
    const SignalView view = scratch.sense(g, c, v);
    EXPECT_FALSE(view.has_mask());
    EXPECT_EQ(view.materialize(), expected) << "node " << v;
  }
}

TEST(SignalScratch, MixedBoundaryStates) {
  // Exactly 63 stays on the bitmask path; exactly 64 leaves it.
  const graph::Graph g = graph::path(2);
  SignalScratch scratch;
  EXPECT_TRUE(scratch.sense(g, {63, 0}, 0).has_mask());
  EXPECT_FALSE(scratch.sense(g, {64, 0}, 0).has_mask());
  EXPECT_FALSE(scratch.sense(g, {0, 64}, 0).has_mask());
}

TEST(SignalScratch, RandomizedAgainstFromStates) {
  util::Rng rng(42);
  const graph::Graph g = graph::random_connected(40, 0.1, rng);
  SignalScratch scratch;
  for (int trial = 0; trial < 50; ++trial) {
    // Half the trials stay under 64 states, half straddle the boundary.
    const StateId universe = trial % 2 == 0 ? 60 : 90;
    Configuration c(g.num_nodes());
    for (auto& q : c) q = rng.below(universe);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      std::vector<StateId> sensed{c[v]};
      for (const NodeId u : g.neighbors(v)) sensed.push_back(c[u]);
      const Signal expected = Signal::from_states(std::move(sensed));
      EXPECT_EQ(scratch.sense(g, c, v).materialize(), expected);
    }
  }
}

// Byte stores (every |Q| <= 256) sense through a four-word presence bitmap:
// the view's span, words, mask and contains() must all agree with the Signal
// oracle, on graphs with isolated nodes and with the word-boundary states
// planted.
TEST(SignalScratch, ByteStoreWordsMatchFromStates) {
  util::Rng rng(71);
  constexpr NodeId kN = 60;
  constexpr NodeId kLinked = 48;  // nodes kLinked.. stay isolated
  const StateId boundary[] = {63, 64, 127, 128, 191, 192, 255};
  SignalScratch scratch;
  for (const StateId q_count : {65u, 128u, 198u, 256u}) {
    for (int trial = 0; trial < 6; ++trial) {
      const double p = trial % 2 == 0 ? 0.05 : 0.35;
      std::vector<std::pair<NodeId, NodeId>> edges;
      for (NodeId u = 0; u < kLinked; ++u) {
        for (NodeId v = u + 1; v < kLinked; ++v) {
          if (rng.uniform01() < p) edges.emplace_back(u, v);
        }
      }
      const graph::Graph g(kN, edges);
      std::vector<std::uint8_t> c(kN + simd::kByteStorePadding);
      for (NodeId v = 0; v < kN; ++v) {
        c[v] = static_cast<std::uint8_t>(rng.below(q_count));
      }
      for (const StateId q : boundary) {
        if (q < q_count) c[rng.below(kN)] = static_cast<std::uint8_t>(q);
      }
      for (NodeId v = 0; v < kN; ++v) {
        std::vector<StateId> sensed{c[v]};
        for (const NodeId u : g.neighbors(v)) sensed.push_back(c[u]);
        const Signal expected = Signal::from_states(std::move(sensed));
        const std::span<const StateId> want = expected.states();
        const SignalView view = scratch.sense(g, c.data(), v);

        // contains() first: a word view answers it before any unpack.
        for (StateId q = 0; q < 300; ++q) {
          ASSERT_EQ(view.contains(q),
                    std::binary_search(want.begin(), want.end(), q))
              << "|Q|=" << q_count << " v=" << v << " q=" << q;
        }
        ASSERT_EQ(view.materialize(), expected) << "|Q|=" << q_count << " v=" << v;
        ASSERT_EQ(view.size(), want.size());
        ASSERT_EQ(view.has_mask(), want.back() < 64);
        if (view.has_mask()) {
          ASSERT_EQ(view.mask(), SignalView(expected).mask());
        }
        std::uint64_t words[simd::kPresenceWords] = {};
        for (const StateId q : want) words[q / 64] |= std::uint64_t{1} << (q % 64);
        ASSERT_EQ(view.words().size(), simd::kPresenceWords);
        for (std::size_t w = 0; w < simd::kPresenceWords; ++w) {
          ASSERT_EQ(view.words()[w], words[w]) << "word " << w << " v=" << v;
        }
        for (StateId q = q_count; q < 256; ++q) {
          ASSERT_EQ((view.words()[q / 64] >> (q % 64)) & 1u, 0u);
        }
      }
    }
  }
}

// A word view copied before its first states() call unpacks on its own, to
// the same span.
TEST(SignalScratch, ByteStoreViewCopiesUnpackAlike) {
  const graph::Graph g = graph::star(6);
  const std::vector<std::uint8_t> c{200, 3, 64, 3, 130, 255, 0, 0, 0, 0};
  SignalScratch scratch;
  const SignalView view = scratch.sense(g, c.data(), 0);
  const SignalView copy = view;  // NOLINT(performance-unnecessary-copy-initialization)
  const std::vector<StateId> want{3, 64, 130, 200, 255};
  EXPECT_EQ(std::vector<StateId>(copy.states().begin(), copy.states().end()),
            want);
  EXPECT_EQ(std::vector<StateId>(view.states().begin(), view.states().end()),
            want);
  EXPECT_FALSE(view.has_mask());
}

TEST(MakeSignalView, SortsDedupsAndMasks) {
  std::vector<StateId> buf{7, 1, 7, 40, 1};
  const SignalView view = make_signal_view(buf);
  EXPECT_EQ(buf, (std::vector<StateId>{1, 7, 40}));
  ASSERT_TRUE(view.has_mask());
  EXPECT_EQ(view.mask(),
            (std::uint64_t{1} << 1) | (std::uint64_t{1} << 7) |
                (std::uint64_t{1} << 40));

  std::vector<StateId> big{99, 2, 99};
  const SignalView sparse = make_signal_view(big);
  EXPECT_FALSE(sparse.has_mask());
  EXPECT_EQ(big, (std::vector<StateId>{2, 99}));
}

TEST(Signal, FromSortedUniqueEqualsFromStates) {
  EXPECT_EQ(Signal::from_sorted_unique({1, 2, 3}),
            Signal::from_states({3, 2, 1, 2}));
}

}  // namespace
}  // namespace ssau::core
