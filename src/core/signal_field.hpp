// Delta-maintained neighborhood senses — the signal-field layer.
//
// The SA signal of node v is pure set-membership over N+(v) (paper §1.1): v
// learns which states appear in its inclusive neighborhood, nothing more.
// That makes the signal *incrementally maintainable*: instead of rescanning
// N+(v) on every sense (O(deg(v)) per activation, the cost the serial
// per-activation engine path pays under every single-node daemon), a
// SignalField keeps, for every node, the multiset of states present in its
// inclusive neighborhood and patches it on each applied transition
// (v, q -> q') by updating only the counters of v and v's neighbors. A sense
// then collapses to an O(1) presence-bitmap lookup — no neighborhood scan,
// no scratch sort.
//
// One representation: a flat q-major counter table
// counts[q * n + v] = multiplicity of q in N+(v), with 16-bit counters, plus
// a per-node presence bitmap of ceil(|Q| / 64) words (exactly one word — the
// engine's step_mask input — when |Q| <= 64). The q-major layout keeps a
// transition patch (two counter rows) inside two n-sized stripes that stay
// cache-hot across steps. A graph the table cannot hold (fits() is false:
// |Q| > kDenseStateLimit, a degree that could saturate a counter, or a table
// over kDenseMaxCounterBytes) gets no field, and the engine rescans.
//
// The field is a cache of the engine's serial asynchronous kernel and of
// nothing else: core::Engine owns one only where that kernel runs (never on
// a full-activation or sparse-eligible engine) and EngineOptions::signal_field
// routes its senses through it. The engine patches it from applied updates,
// per edge on topology churn (apply_edge_insertion / apply_edge_removal —
// O(1) per edge, the two endpoints exchange presence of each other's
// current state), and rebuilds it at once after a configuration injection.
// Invariant at every sense: the field equals a fresh rebuild from the
// current configuration ON the current graph, so field-sensed trajectories
// are bit-identical to rescan-sensed ones.
#pragma once

#include <cstdint>
#include <vector>

#include "core/signal_view.hpp"
#include "core/types.hpp"
#include "graph/graph.hpp"

namespace ssau::core {

class SignalField {
 public:
  /// Largest |Q| the counter table (n * |Q| uint16 entries) is built for —
  /// also the byte-store bound, so a field only ever reads byte stores.
  static constexpr StateId kDenseStateLimit = 256;
  /// Hard budget for the counter table. |Q| alone does not bound the table —
  /// n does too — so graphs where n * |Q| counters would exceed this get no
  /// field even when |Q| <= kDenseStateLimit.
  static constexpr std::size_t kDenseMaxCounterBytes = std::size_t{64} << 20;
  /// Counter ceiling. A node's counter for one state is bounded by
  /// deg(v) + 1, so fits() refuses graphs whose max degree could reach it.
  static constexpr std::uint16_t kSaturated = 0xFFFF;

  /// True when a field over `g` with `state_count` states fits the counter
  /// table: |Q| <= kDenseStateLimit, max_degree + 1 < kSaturated, and
  /// n * |Q| counters within kDenseMaxCounterBytes.
  [[nodiscard]] static bool fits(const graph::Graph& g, StateId state_count);

  /// Builds the field for `g` over a state space of size `state_count` and
  /// initializes it from `initial` (one O(n + m) pass): n byte states in g's
  /// node order — the engine's raw byte store, so no wide copy is needed.
  /// Requires fits(g, state_count). The graph must outlive the field.
  SignalField(const graph::Graph& g, StateId state_count,
              const std::uint8_t* initial);

  /// Re-initializes every counter and presence bit from the n states at `c`
  /// in one pass — the recovery path after an arbitrary configuration
  /// overwrite.
  void rebuild(const std::uint8_t* c);

  /// Patches the field for one applied transition of node v from state
  /// `from` to state `to`: only the rows of v and v's neighbors are touched
  /// (O(deg(v))). Deltas commute, so a batch of same-step transitions may be
  /// applied in any order as long as each (from, to) pair is taken from the
  /// pre-step configuration.
  void apply_transition(NodeId v, StateId from, StateId to);

  /// Patches the field for one edge insertion {u, v} already applied to the
  /// graph: u gains qv (= v's current state) in its multiset and v gains qu —
  /// O(1), no neighborhood scan (the topology-churn analogue of
  /// apply_transition). The caller passes the two current states directly so
  /// the engine's compact configuration storage never has to materialize a
  /// wide buffer for a churn event. The graph must still fit().
  void apply_edge_insertion(NodeId u, NodeId v, StateId qu, StateId qv);

  /// Patches the field for one edge removal {u, v}: u loses qv, v loses qu.
  /// Same contract as apply_edge_insertion.
  void apply_edge_removal(NodeId u, NodeId v, StateId qu, StateId qv);

  /// The 64-bit presence mask of N+(v) — the exact signal encoding the
  /// engine's step_mask kernels consume. Only meaningful when mask_exact().
  [[nodiscard]] std::uint64_t mask_of(NodeId v) const { return masks_[v]; }

  /// True iff mask_of() is the complete signal (|Q| <= 64).
  [[nodiscard]] bool mask_exact() const { return mask_words_ == 1; }

  /// The signal of node v as a zero-copy sorted view: the presence bitmap is
  /// unpacked into `scratch` (O(distinct)) and the node's own bitmap row is
  /// handed out as the view's words(). The view is invalidated by the next
  /// sense into the same scratch and by any apply_transition/rebuild.
  [[nodiscard]] SignalView sense(NodeId v, std::vector<StateId>& scratch) const;

  /// Multiplicity of state q in N+(v) — observability for tests.
  [[nodiscard]] std::uint32_t count_of(NodeId v, StateId q) const {
    return counts_[static_cast<std::size_t>(q) * n_ + v];
  }

  /// Heap bytes owned by the field (counter table + presence bitmaps) — see
  /// util/memusage.hpp for the contract.
  [[nodiscard]] std::size_t dynamic_memory_usage() const;

 private:
  void bump(NodeId v, StateId q);  // increment q's multiplicity at v
  void drop(NodeId v, StateId q);  // decrement q's multiplicity at v

  const graph::Graph& graph_;
  NodeId n_;
  StateId state_count_;
  StateId mask_words_;  // presence words per node: ceil(|Q| / 64)

  // counts_[q * n + v]; presence bit q of node v lives in
  // masks_[v * mask_words_ + q / 64]. For |Q| <= 64 that degenerates to one
  // word per node, indexed masks_[v].
  std::vector<std::uint16_t> counts_;
  std::vector<std::uint64_t> masks_;
};

}  // namespace ssau::core
