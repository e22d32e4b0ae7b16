// AlgLE — synchronous self-stabilizing leader election (§3.2, Thm 1.3).
//
// State space O(D); stabilization O(D log n) synchronous rounds in
// expectation and whp.
//
// Structure, following the paper:
//   * Epochs of D+1 rounds (one toss round r=0 plus D flood rounds; the flood
//     needs D sensing rounds to cover distance D, see DESIGN.md).
//   * Computation stage: RandCount (every node holds flag; while flag=1 it
//     flips to 0 w.p. p0 at each epoch start; the epoch floods
//     Iflag = OR of flags; Iflag = 0 halts the stage) in parallel with Elect
//     (candidates toss fair coins; the epoch floods IC = OR of candidates'
//     coins; a candidate with C_v=0 while IC=1 drops out; at halt the
//     surviving candidates mark themselves leaders).
//   * Verification stage: DetectLE (each epoch the leader draws a temporary
//     identifier from [k_id] and the epoch floods it; a node that hears two
//     distinct identifiers, or none by epoch end, invokes Restart).
//   * Restart (§3.3) brings every node back to the uniform initial state q0*
//     concurrently, after which the computation stage runs from scratch.
//   * Local consistency: any neighbor disagreeing on epoch round number or
//     stage invokes Restart (deterministic, sound under synchrony).
//
// Node states are structs (LeState) bijectively encoded into dense StateIds,
// keeping AlgLE a bona fide SA automaton with |Q| = O(D).
#pragma once

#include <optional>

#include "core/automaton.hpp"
#include "core/engine.hpp"
#include "restart/restart.hpp"

namespace ssau::le {

struct AlgLeParams {
  int diameter_bound = 2;  // D
  int id_alphabet = 4;     // k_id: temporary identifiers drawn from [1..k_id]
  double p0 = 0.5;         // RandCount flag-decay probability per epoch
};

/// Decoded node state.
struct LeState {
  enum class Mode { kCompute, kVerify, kRestart };
  Mode mode = Mode::kCompute;
  // kRestart:
  int sigma = 0;  // σ index in [0, 2D]
  // kCompute / kVerify:
  int r = 0;  // round within the epoch, in [0, D+1) ... [0, E-1] with E = D+1
  // kCompute:
  bool flag = true;       // RandCount: still randomizing the prefix length
  bool flag_acc = false;  // OR-flood accumulator for Iflag
  bool candidate = true;  // Elect: still in the running
  bool coin = false;      // Elect: this epoch's fair coin C_v
  bool coin_acc = false;  // OR-flood accumulator for IC
  // kVerify:
  bool leader = false;  // marked as leader at computation halt
  int slot = 0;         // first temporary identifier heard this epoch (0=none)

  friend bool operator==(const LeState&, const LeState&) = default;
};

class AlgLe final : public core::Automaton {
 public:
  explicit AlgLe(AlgLeParams params);

  [[nodiscard]] const AlgLeParams& params() const { return params_; }
  /// Epoch length E = D + 1 (toss round + D flood rounds).
  [[nodiscard]] int epoch_length() const { return params_.diameter_bound + 1; }

  // --- state codec ---------------------------------------------------------
  [[nodiscard]] core::StateId encode(const LeState& s) const;
  [[nodiscard]] LeState decode(core::StateId q) const;
  /// q0*: Compute, r=0, flag=1, candidate=1, accumulators clear.
  [[nodiscard]] core::StateId initial_state() const;

  // --- Automaton -----------------------------------------------------------
  [[nodiscard]] core::StateId state_count() const override;
  /// Output states: the verification stage (ω = leader bit).
  [[nodiscard]] bool is_output(core::StateId q) const override;
  [[nodiscard]] std::int64_t output(core::StateId q) const override;
  /// Randomized, so ineligible for table compilation — but the SignalView
  /// overload keeps the engine hot path allocation-free, and the rng draw
  /// sequence is identical either way.
  [[nodiscard]] core::StateId step_fast(core::StateId q,
                                        const core::SignalView& sig,
                                        util::Rng& rng) const override;
  [[nodiscard]] std::string state_name(core::StateId q) const override;
  /// Stateless δ (decode/encode on the stack): safe to shard.
  [[nodiscard]] bool parallel_safe() const override { return true; }

 private:
  AlgLeParams params_;
  restart::RestartRules restart_;
  // Block offsets within the dense StateId space.
  core::StateId compute_base_ = 0;
  core::StateId verify_base_ = 0;
  core::StateId sigma_base_ = 0;
  core::StateId count_ = 0;
};

/// Legitimacy: no Restart states, every node in Verify with the same epoch
/// round, exactly one leader, and all nonzero identifier slots agree with the
/// leader's. First-hit time of this predicate is the stabilization measure
/// used by bench E5 (it is absorbing along real executions; the tests verify
/// that empirically). Every condition is over the multiset of states alone:
/// `g` is ignored, so any id order of `c` — user ids from Engine::config()
/// included — gives the same answer on any layout of the graph.
[[nodiscard]] bool le_legitimate(const AlgLe& alg, const graph::Graph& g,
                                 const core::Configuration& c);

/// Count of nodes whose output is 1 among Verify-stage nodes.
[[nodiscard]] std::size_t le_leader_count(const AlgLe& alg,
                                          const core::Configuration& c);

/// Adversarial initial configurations: random | zero-leaders | two-leaders |
/// all-leaders | mid-restart | skewed-rounds.
[[nodiscard]] core::Configuration le_adversarial_configuration(
    const std::string& kind, const AlgLe& alg, const graph::Graph& g,
    util::Rng& rng);
[[nodiscard]] std::vector<std::string> le_adversary_kinds();

}  // namespace ssau::le
