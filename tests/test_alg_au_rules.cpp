// Unit tests for AlgAU's transition function against Table 1, condition by
// condition, using hand-built signals.
#include "unison/alg_au.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <span>
#include <vector>

#include "core/signal.hpp"
#include "core/signal_view.hpp"

namespace ssau::unison {
namespace {

class AlgAuRules : public ::testing::Test {
 protected:
  AlgAuRules() : alg_(2), ts_(alg_.turns()) {}  // D=2, k=8

  core::Signal sig(std::initializer_list<core::StateId> states) {
    return core::Signal::from_states(std::vector<core::StateId>(states));
  }

  AlgAu alg_;
  const TurnSystem& ts_;
  util::Rng rng_{1};
};

// --- type AA ----------------------------------------------------------------

TEST_F(AlgAuRules, AaTicksWhenAloneAtOwnLevel) {
  const auto q = ts_.able_id(3);
  EXPECT_EQ(alg_.step(q, sig({q}), rng_), ts_.able_id(4));
}

TEST_F(AlgAuRules, AaTicksWhenNeighborsAtOwnOrNextLevel) {
  const auto q = ts_.able_id(3);
  const auto next = ts_.able_id(4);
  EXPECT_EQ(alg_.step(q, sig({q, next}), rng_), next);
}

TEST_F(AlgAuRules, AaWrapsMinusOneToOne) {
  const auto q = ts_.able_id(-1);
  EXPECT_EQ(alg_.step(q, sig({q, ts_.able_id(1)}), rng_), ts_.able_id(1));
}

TEST_F(AlgAuRules, AaWrapsKToMinusK) {
  const auto q = ts_.able_id(ts_.k());
  EXPECT_EQ(alg_.step(q, sig({q, ts_.able_id(-ts_.k())}), rng_),
            ts_.able_id(-ts_.k()));
}

TEST_F(AlgAuRules, AaBlockedByLaggingNeighbor) {
  // A neighbor one level behind (own level - 1) blocks the tick: Λ ⊄ {ℓ, ℓ+1}.
  const auto q = ts_.able_id(3);
  EXPECT_EQ(alg_.step(q, sig({q, ts_.able_id(2)}), rng_), q);
}

TEST_F(AlgAuRules, AaBlockedBySensedFaultyTurn) {
  // Λ ⊆ {ℓ, ℓ+1} holds but a faulty turn at ℓ+1 makes v not good.
  const auto q = ts_.able_id(3);
  EXPECT_EQ(alg_.step(q, sig({q, ts_.faulty_id(4)}), rng_), q);
}

TEST_F(AlgAuRules, AaBlockedByFaultyTwinAtOwnLevel) {
  const auto q = ts_.able_id(3);
  EXPECT_EQ(alg_.step(q, sig({q, ts_.faulty_id(3)}), rng_), q);
}

// --- type AF ----------------------------------------------------------------

TEST_F(AlgAuRules, AfWhenUnprotected) {
  // Neighbor at level 6 is not adjacent to level 3 -> v unprotected -> ^3.
  const auto q = ts_.able_id(3);
  EXPECT_EQ(alg_.step(q, sig({q, ts_.able_id(6)}), rng_), ts_.faulty_id(3));
}

TEST_F(AlgAuRules, AfWhenUnprotectedByOppositeSign) {
  const auto q = ts_.able_id(3);
  EXPECT_EQ(alg_.step(q, sig({q, ts_.able_id(-3)}), rng_), ts_.faulty_id(3));
}

TEST_F(AlgAuRules, AfOnFaultyInwardNeighbor) {
  // v at level 4 sensing ^3 (= faulty ψ−1(4)) goes faulty even if protected.
  const auto q = ts_.able_id(4);
  EXPECT_EQ(alg_.step(q, sig({q, ts_.faulty_id(3)}), rng_), ts_.faulty_id(4));
}

TEST_F(AlgAuRules, NoAfOnFaultyOutwardNeighbor) {
  // ^5 is one unit outwards of 4: AF condition (2) does not apply; the node
  // is protected (levels adjacent), so it stays (AA blocked by faulty).
  const auto q = ts_.able_id(4);
  EXPECT_EQ(alg_.step(q, sig({q, ts_.faulty_id(5)}), rng_), q);
}

TEST_F(AlgAuRules, LevelOneNeverGoesFaulty) {
  // |ℓ| = 1 has no faulty twin: an unprotected node at level 1 stays put.
  const auto q = ts_.able_id(1);
  EXPECT_EQ(alg_.step(q, sig({q, ts_.able_id(5)}), rng_), q);
}

TEST_F(AlgAuRules, LevelMinusOneNeverGoesFaulty) {
  const auto q = ts_.able_id(-1);
  EXPECT_EQ(alg_.step(q, sig({q, ts_.able_id(-5)}), rng_), q);
}

TEST_F(AlgAuRules, LevelTwoHasNoFaultyInwardTrigger) {
  // ψ−1(2) = 1 has no faulty twin, so condition (2) can never fire at level 2.
  const auto q = ts_.able_id(2);
  EXPECT_EQ(alg_.step(q, sig({q, ts_.able_id(1)}), rng_), q);
}

// --- type FA ----------------------------------------------------------------

TEST_F(AlgAuRules, FaReturnsOneUnitInwards) {
  const auto q = ts_.faulty_id(4);
  EXPECT_EQ(alg_.step(q, sig({q, ts_.able_id(3)}), rng_), ts_.able_id(3));
}

TEST_F(AlgAuRules, FaFromLevelTwoLandsOnOne) {
  const auto q = ts_.faulty_id(2);
  EXPECT_EQ(alg_.step(q, sig({q}), rng_), ts_.able_id(1));
}

TEST_F(AlgAuRules, FaFromNegativeLevel) {
  const auto q = ts_.faulty_id(-5);
  EXPECT_EQ(alg_.step(q, sig({q}), rng_), ts_.able_id(-4));
}

TEST_F(AlgAuRules, FaBlockedBySensedOutwardLevel) {
  // Sensing level 5 (outwards of 4, same sign) blocks the return.
  const auto q = ts_.faulty_id(4);
  EXPECT_EQ(alg_.step(q, sig({q, ts_.able_id(5)}), rng_), q);
}

TEST_F(AlgAuRules, FaBlockedBySensedOutwardFaulty) {
  const auto q = ts_.faulty_id(4);
  EXPECT_EQ(alg_.step(q, sig({q, ts_.faulty_id(6)}), rng_), q);
}

TEST_F(AlgAuRules, FaIgnoresOppositeSignOutwardLevels) {
  // Ψ>(4) contains only positive levels: sensing -7 does not block.
  const auto q = ts_.faulty_id(4);
  EXPECT_EQ(alg_.step(q, sig({q, ts_.able_id(-7)}), rng_), ts_.able_id(3));
}

TEST_F(AlgAuRules, FaFromOutermostLevelAlwaysEnabled) {
  // Nothing is outwards of k: ^k returns inwards upon first activation.
  const auto q = ts_.faulty_id(ts_.k());
  EXPECT_EQ(alg_.step(q, sig({q, ts_.able_id(ts_.k()), ts_.faulty_id(-2)}),
                      rng_),
            ts_.able_id(ts_.k() - 1));
}

// --- classification & metadata ------------------------------------------------

TEST_F(AlgAuRules, ClassifyRecognizesAllThreeTypes) {
  EXPECT_EQ(alg_.classify(ts_.able_id(3), ts_.able_id(4)),
            AlgAu::TransitionType::AA);
  EXPECT_EQ(alg_.classify(ts_.able_id(-1), ts_.able_id(1)),
            AlgAu::TransitionType::AA);
  EXPECT_EQ(alg_.classify(ts_.able_id(3), ts_.faulty_id(3)),
            AlgAu::TransitionType::AF);
  EXPECT_EQ(alg_.classify(ts_.faulty_id(3), ts_.able_id(2)),
            AlgAu::TransitionType::FA);
  EXPECT_EQ(alg_.classify(ts_.able_id(3), ts_.able_id(3)),
            AlgAu::TransitionType::None);
  EXPECT_THROW((void)alg_.classify(ts_.able_id(3), ts_.able_id(6)),
               std::logic_error);
}

TEST_F(AlgAuRules, OutputsAreClockValues) {
  EXPECT_TRUE(alg_.is_output(ts_.able_id(5)));
  EXPECT_FALSE(alg_.is_output(ts_.faulty_id(5)));
  EXPECT_EQ(alg_.output(ts_.able_id(1)), 0);
  EXPECT_EQ(alg_.output(ts_.able_id(ts_.k())), ts_.k() - 1);
  EXPECT_EQ(alg_.output(ts_.able_id(-1)), 2 * ts_.k() - 1);
}

TEST_F(AlgAuRules, DeterministicStateSpaceIsThin) {
  for (int d = 1; d <= 10; ++d) {
    EXPECT_EQ(AlgAu(d).state_count(),
              static_cast<core::StateId>(12 * d + 6));
  }
}

// --- local predicates ---------------------------------------------------------

TEST_F(AlgAuRules, LocallyProtectedAndGood) {
  const auto q = ts_.able_id(3);
  EXPECT_TRUE(alg_.locally_protected(q, sig({q, ts_.able_id(4)})));
  EXPECT_FALSE(alg_.locally_protected(q, sig({q, ts_.able_id(5)})));
  EXPECT_TRUE(alg_.locally_good(q, sig({q, ts_.able_id(4)})));
  EXPECT_FALSE(alg_.locally_good(q, sig({q, ts_.faulty_id(4)})));
}

// --- word kernel vs the scalar level walk -------------------------------------

/// The δ of AlgAU(d) on signal `states` three ways: through a view carrying
/// the exact ceil(|Q|/64)-word bitmap (a dense signal-field sense), through a
/// view carrying four words (a byte-store sense), and through a view of a
/// Signal, which has no words and so walks the sensed levels.
void expect_word_paths_agree(const AlgAu& alg, core::StateId q,
                             std::vector<core::StateId> states,
                             util::Rng& rng) {
  states.push_back(q);
  const core::Signal signal = core::Signal::from_states(std::move(states));
  const std::size_t exact = (alg.state_count() + 63) / 64;
  std::vector<std::uint64_t> words(4, 0);
  for (const core::StateId s : signal.states()) {
    words[s / 64] |= std::uint64_t{1} << (s % 64);
  }
  const core::SignalView scalar(signal);
  ASSERT_TRUE(scalar.words().empty());
  const core::StateId want = alg.step_fast(q, scalar, rng);
  const core::SignalView field_like(
      signal.states(), std::span<const std::uint64_t>(words.data(), exact));
  const core::SignalView byte_like(signal.states(), words);
  ASSERT_EQ(alg.step_fast(q, field_like, rng), want)
      << "q=" << alg.state_name(q) << " |signal|=" << signal.states().size();
  ASSERT_EQ(alg.step_fast(q, byte_like, rng), want)
      << "q=" << alg.state_name(q) << " |signal|=" << signal.states().size();
}

// For every in-spec word width (W = 2, 2, 3, 4, 4) and all eight ablation
// combinations: every (q, {s}) pair exhaustively, then random signals drawn
// around q's level (where AA, AF and FA all fire) plus stray states.
TEST(AlgAuWordKernel, MatchesScalarLevelWalk) {
  util::Rng rng(97);
  for (const int d : {5, 6, 11, 16, 20}) {
    for (int bits = 0; bits < 8; ++bits) {
      const AlgAuOptions options{.af_inward_trigger = (bits & 1) != 0,
                                 .fa_outward_guard = (bits & 2) != 0,
                                 .aa_requires_good = (bits & 4) != 0};
      const AlgAu alg(d, options);
      const TurnSystem& ts = alg.turns();
      const core::StateId n = alg.state_count();
      ASSERT_LE(n, 256u);
      for (core::StateId q = 0; q < n; ++q) {
        expect_word_paths_agree(alg, q, {}, rng);
        for (core::StateId s = 0; s < n; ++s) {
          expect_word_paths_agree(alg, q, {s}, rng);
        }
        std::vector<core::StateId> near;
        for (core::StateId s = 0; s < n; ++s) {
          const Level ls = ts.level_of(s), lq = ts.level_of(q);
          if (ts.adjacent(lq, ls) || ts.adjacent(ts.forward(lq), ls)) {
            near.push_back(s);
          }
        }
        for (int trial = 0; trial < 12; ++trial) {
          std::vector<core::StateId> picked;
          const std::uint64_t size = 1 + rng.below(6);
          for (std::uint64_t i = 0; i < size; ++i) {
            picked.push_back(near[rng.below(near.size())]);
          }
          if (rng.below(3) == 0) picked.push_back(rng.below(n));
          expect_word_paths_agree(alg, q, picked, rng);
        }
      }
    }
  }
}

// Beyond |Q| = 256 there are no word tables: D = 21 (|Q| = 258) ignores any
// words a view might carry and walks the levels.
TEST(AlgAuWordKernel, NoTablesPastTwoHundredFiftySixStates) {
  EXPECT_TRUE(AlgAu(4).native_mask_kernel());
  EXPECT_FALSE(AlgAu(5).native_mask_kernel());
  EXPECT_EQ(AlgAu(20).state_count(), 246u);
  EXPECT_EQ(AlgAu(21).state_count(), 258u);
  const AlgAu alg(21);
  const TurnSystem& ts = alg.turns();
  util::Rng rng(3);
  const core::StateId q = ts.able_id(2);
  const core::Signal signal =
      core::Signal::from_states({q, ts.able_id(3), ts.faulty_id(21)});
  const std::uint64_t bogus[4] = {0, 0, 0, 0};
  EXPECT_EQ(alg.step_fast(q, core::SignalView(signal.states(), bogus), rng),
            alg.step_fast(q, core::SignalView(signal), rng));
}

// --- crafted adversarial configurations ---------------------------------------

TEST_F(AlgAuRules, AdversaryKindsProduceValidConfigs) {
  const graph::Graph g = graph::Graph(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4},
                                          {4, 5}, {5, 0}});
  util::Rng rng(9);
  for (const auto& kind : au_adversary_kinds()) {
    const auto c = au_adversarial_configuration(kind, alg_, g, rng);
    ASSERT_EQ(c.size(), 6u) << kind;
    for (const auto q : c) EXPECT_LT(q, alg_.state_count()) << kind;
  }
  EXPECT_THROW(au_adversarial_configuration("bogus", alg_, g, rng),
               std::invalid_argument);
}

TEST_F(AlgAuRules, GradientConfigIsGood) {
  const graph::Graph g(4, {{0, 1}, {1, 2}, {2, 3}});
  const auto c = au_config_gradient(alg_, g);
  EXPECT_EQ(ts_.level_of(c[0]), 1);
  EXPECT_EQ(ts_.level_of(c[1]), 2);
  EXPECT_EQ(ts_.level_of(c[2]), 3);
  EXPECT_EQ(ts_.level_of(c[3]), 4);
}

}  // namespace
}  // namespace ssau::unison
