// Zero-allocation view of an SA set-broadcast signal.
//
// SignalView is the engine hot path's replacement for Signal: a non-owning
// span over a caller-managed sorted scratch buffer, optionally paired with a
// presence bitmap of the sensed states. Three encodings, by state range:
//
//   * 64-bit mask (has_mask()) — every sensed StateId is < 64, which covers
//     AlgAU's Z_{2k} clocks for D <= 4 and all the small baselines;
//   * word bitmap (words()) — bit q of word q / 64, for 64 < |Q| <= 256:
//     every byte-store sense and every signal-field sense carries one,
//     so in-spec AlgAU for D <= 20 and the D = 2 MIS/LE automata sense
//     without sorting and test membership in O(1); a byte-store view unpacks
//     its sorted span only when states() is first asked for;
//   * sorted span only — wide stores (|Q| > 256, the synchronizer's product
//     spaces) and views wrapping a Signal; contains() binary-searches.
//
// Semantics are identical to Signal (the sorted set of distinct StateIds in
// N+(v)); the view merely avoids owning the storage, so the engine can build
// one per node-activation without touching the allocator.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <span>
#include <type_traits>
#include <vector>

#include "core/signal.hpp"
#include "core/simd_gather.hpp"
#include "core/types.hpp"

namespace ssau::core {

/// Appends the set bits of `mask` to `out` in ascending order, offset by
/// `base` — the one definition of the mask -> sorted-StateId-span decoding
/// that SignalScratch, the default Automaton::step_mask, CompiledAutomaton,
/// and SignalField (whose multi-word bitmaps decode word w with base w * 64)
/// all share.
inline void unpack_mask(std::uint64_t mask, std::vector<StateId>& out,
                        StateId base = 0) {
  for (std::uint64_t m = mask; m != 0; m &= m - 1) {
    out.push_back(base + static_cast<StateId>(std::countr_zero(m)));
  }
}

/// Writes the states of the presence bitmap `words` (bit q of word q / 64)
/// to `out` in ascending order and returns how many there are.
inline std::size_t unpack_words(std::span<const std::uint64_t> words,
                                StateId* out) {
  std::size_t count = 0;
  for (std::size_t w = 0; w < words.size(); ++w) {
    for (std::uint64_t m = words[w]; m != 0; m &= m - 1) {
      out[count++] = static_cast<StateId>(w * 64 + std::countr_zero(m));
    }
  }
  return count;
}

class SignalView {
 public:
  /// Maximum StateId representable in the presence bitmask.
  static constexpr StateId kMaskBits = 64;

  SignalView() = default;

  /// Wraps a Signal (sorted, deduplicated by construction). Implicit on
  /// purpose: any Signal call site can feed a step_fast overload directly.
  SignalView(const Signal& sig)  // NOLINT(google-explicit-constructor)
      : states_(sig.states()) {
    has_mask_ = true;
    for (const StateId q : states_) {
      if (q >= kMaskBits) {
        has_mask_ = false;
        mask_ = 0;
        return;
      }
      mask_ |= std::uint64_t{1} << q;
    }
  }

  /// Wraps an externally maintained sorted+deduplicated buffer. `mask` must be
  /// the exact presence bitmask iff `has_mask` (i.e. all states < 64).
  SignalView(std::span<const StateId> sorted_unique, std::uint64_t mask,
             bool has_mask)
      : states_(sorted_unique), mask_(mask), has_mask_(has_mask) {}

  /// Wraps a sorted+deduplicated buffer together with its exact presence
  /// bitmap (bit q of words[q / 64]; every sensed state < 64 * words.size()).
  /// The view also reports the 64-bit mask whenever the upper words are
  /// empty.
  SignalView(std::span<const StateId> sorted_unique,
             std::span<const std::uint64_t> words)
      : states_(sorted_unique), words_(words) {
    has_mask_ = true;
    for (std::size_t w = 1; w < words.size(); ++w) {
      if (words[w] != 0) has_mask_ = false;
    }
    mask_ = has_mask_ ? words[0] : 0;
  }

  /// Wraps a presence bitmap alone: the sorted span is unpacked into
  /// `unpack_to` (room for every set bit) on the first states() call, so a
  /// δ that only tests words — AlgAU's word kernel — never pays for it.
  SignalView(std::span<const std::uint64_t> words, StateId* unpack_to)
      : SignalView(std::span<const StateId>(), words) {
    unpack_to_ = unpack_to;
  }

  /// True iff state q appears somewhere in N+(v).
  [[nodiscard]] bool contains(StateId q) const {
    if (has_mask_) {
      return q < kMaskBits && ((mask_ >> q) & 1u) != 0;
    }
    if (!words_.empty()) {
      return q < kMaskBits * words_.size() &&
             ((words_[q / kMaskBits] >> (q % kMaskBits)) & 1u) != 0;
    }
    return std::binary_search(states_.begin(), states_.end(), q);
  }

  /// True iff some sensed state satisfies pred.
  template <typename Pred>
  [[nodiscard]] bool any(Pred pred) const {
    const std::span<const StateId> sensed = states();
    return std::any_of(sensed.begin(), sensed.end(), pred);
  }

  /// True iff every sensed state satisfies pred.
  template <typename Pred>
  [[nodiscard]] bool all(Pred pred) const {
    const std::span<const StateId> sensed = states();
    return std::all_of(sensed.begin(), sensed.end(), pred);
  }

  /// The distinct sensed states, ascending.
  [[nodiscard]] std::span<const StateId> states() const {
    if (unpack_to_ != nullptr) {
      states_ = {unpack_to_, unpack_words(words_, unpack_to_)};
      unpack_to_ = nullptr;
    }
    return states_;
  }

  [[nodiscard]] std::size_t size() const { return states().size(); }

  /// The presence bitmask; meaningful only when has_mask().
  [[nodiscard]] std::uint64_t mask() const { return mask_; }
  [[nodiscard]] bool has_mask() const { return has_mask_; }

  /// The presence bitmap (bit q of word q / 64), or empty when the view has
  /// none (wide stores, views of a Signal). Sensed states all lie below
  /// 64 * words().size(), so a state past the last word is absent.
  [[nodiscard]] std::span<const std::uint64_t> words() const { return words_; }

  /// Owning copy for code that needs a real Signal (listener callbacks,
  /// fallback paths). Allocates.
  [[nodiscard]] Signal materialize() const {
    const std::span<const StateId> sensed = states();
    return Signal::from_sorted_unique(
        std::vector<StateId>(sensed.begin(), sensed.end()));
  }

 private:
  // A word view unpacks lazily: until then states_ is empty and unpack_to_
  // names the caller's buffer.
  mutable std::span<const StateId> states_;
  mutable StateId* unpack_to_ = nullptr;
  std::span<const std::uint64_t> words_;
  std::uint64_t mask_ = 0;
  bool has_mask_ = false;
};

/// Sorts + deduplicates `buffer` in place and wraps it in a view (with the
/// presence bitmask when every entry is < 64). For signal projections that
/// start from an arbitrary state list (e.g. the synchronizer's per-coordinate
/// signals); the view aliases `buffer`.
[[nodiscard]] inline SignalView make_signal_view(std::vector<StateId>& buffer) {
  std::sort(buffer.begin(), buffer.end());
  buffer.erase(std::unique(buffer.begin(), buffer.end()), buffer.end());
  std::uint64_t mask = 0;
  bool small = true;
  for (const StateId q : buffer) {
    if (q >= SignalView::kMaskBits) {
      small = false;
      break;
    }
    mask |= std::uint64_t{1} << q;
  }
  return {buffer, small ? mask : 0, small};
}

/// Reusable scratch for building SignalViews — one instance per engine; zero
/// allocations per activation once warmed up to the graph's maximum degree.
class SignalScratch {
 public:
  void reserve(std::size_t capacity) { buffer_.reserve(capacity); }

  /// Builds the signal of node v under configuration c on graph g. The
  /// returned view aliases this scratch: it is invalidated by the next sense()
  /// call. Templated on the configuration element type so the engine's
  /// byte-compact storage mode (uint8_t per node for |Q| <= 256) senses
  /// through the same one definition as the wide StateId buffers.
  ///
  /// A byte store ORs N+(v) into a 256-bit presence bitmap (the gather in
  /// core/simd_gather.hpp: AVX2 under SSAU_NATIVE, prefetched scalar
  /// otherwise); the view carries the words, and its sorted span is those
  /// bits unpacked in ascending order — no sort, no dedup — on the first
  /// states() call. A wide store sorts and deduplicates, and carries the
  /// 64-bit mask when every state is < 64. `prefetch_distance` is the gather
  /// lookahead in adjacency elements (0 disables).
  template <typename T>
  SignalView sense(const graph::Graph& g, const T* c, NodeId v,
                   unsigned prefetch_distance = simd::kDefaultPrefetchDistance) {
    const std::span<const NodeId> nbrs = g.neighbors(v);
    if constexpr (std::is_same_v<T, std::uint8_t>) {
      words_ = {};
      words_[c[v] >> 6] = std::uint64_t{1} << (c[v] & 63);
      simd::accumulate_words(nbrs, c, words_.data(), prefetch_distance);
      // N+(v) holds at most min(deg + 1, 256) distinct states; the buffer
      // only ever grows to that, and the view unpacks into it on demand.
      const std::size_t most = std::min<std::size_t>(
          nbrs.size() + 1, SignalView::kMaskBits * simd::kPresenceWords);
      if (buffer_.size() < most) buffer_.resize(most);
      return {words_, buffer_.data()};
    } else {
      buffer_.clear();
      buffer_.push_back(c[v]);
      for (const NodeId u : nbrs) buffer_.push_back(c[u]);
      return make_signal_view(buffer_);
    }
  }

  SignalView sense(const graph::Graph& g, const Configuration& c, NodeId v) {
    return sense(g, c.data(), v);
  }

  /// Heap bytes owned by the scratch — see util/memusage.hpp.
  [[nodiscard]] std::size_t dynamic_memory_usage() const {
    return buffer_.capacity() * sizeof(StateId);
  }

 private:
  std::vector<StateId> buffer_;
  std::array<std::uint64_t, simd::kPresenceWords> words_{};
};

}  // namespace ssau::core
