#include "core/signal_field.hpp"

#include <algorithm>
#include <cassert>
#include <span>

#include "core/simd_gather.hpp"
#include "util/memusage.hpp"

namespace ssau::core {

bool SignalField::fits(const graph::Graph& g, StateId state_count) {
  // The table stays small in |Q| AND in total bytes (n is the other
  // factor), and no counter can ever reach the ceiling (a counter is
  // bounded by deg + 1).
  return state_count <= kDenseStateLimit &&
         g.max_degree() + 1 < static_cast<std::size_t>(kSaturated) &&
         static_cast<std::size_t>(state_count) * g.num_nodes() *
                 sizeof(std::uint16_t) <=
             kDenseMaxCounterBytes;
}

SignalField::SignalField(const graph::Graph& g, StateId state_count,
                         const std::uint8_t* initial)
    : graph_(g),
      n_(g.num_nodes()),
      state_count_(state_count),
      mask_words_((state_count + 63) / 64),
      counts_(static_cast<std::size_t>(state_count) * n_),
      masks_(static_cast<std::size_t>(n_) * mask_words_) {
  assert(state_count_ >= 1 && fits(g, state_count_));
  rebuild(initial);
}

void SignalField::bump(NodeId v, StateId q) {
  std::uint16_t& c = counts_[static_cast<std::size_t>(q) * n_ + v];
  assert(c != kSaturated);
  if (c++ == 0) {
    masks_[static_cast<std::size_t>(v) * mask_words_ + (q >> 6)] |=
        std::uint64_t{1} << (q & 63);
  }
}

void SignalField::drop(NodeId v, StateId q) {
  std::uint16_t& c = counts_[static_cast<std::size_t>(q) * n_ + v];
  assert(c != 0);
  if (--c == 0) {
    masks_[static_cast<std::size_t>(v) * mask_words_ + (q >> 6)] &=
        ~(std::uint64_t{1} << (q & 63));
  }
}

void SignalField::apply_edge_insertion(NodeId u, NodeId v, StateId qu,
                                       StateId qv) {
  assert(u < n_ && v < n_ && u != v);
  bump(u, qv);
  bump(v, qu);
}

void SignalField::apply_edge_removal(NodeId u, NodeId v, StateId qu,
                                     StateId qv) {
  assert(u < n_ && v < n_ && u != v);
  drop(u, qv);
  drop(v, qu);
}

void SignalField::rebuild(const std::uint8_t* c) {
  // Full-graph gather: prefetch the state loads a fixed distance down each
  // adjacency span (the ids are sequential; only c[u] misses).
  constexpr unsigned kPf = simd::kDefaultPrefetchDistance;
  std::fill(counts_.begin(), counts_.end(), 0);
  std::fill(masks_.begin(), masks_.end(), 0);
  for (NodeId v = 0; v < n_; ++v) {
    bump(v, c[v]);
    const std::span<const NodeId> nbrs = graph_.neighbors(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      if (i + kPf < nbrs.size()) simd::prefetch(c + nbrs[i + kPf]);
      bump(v, c[nbrs[i]]);
    }
  }
}

void SignalField::apply_transition(NodeId v, StateId from, StateId to) {
  assert(v < n_ && from < state_count_ && to < state_count_ && from != to);
  std::uint16_t* from_row = counts_.data() + static_cast<std::size_t>(from) * n_;
  std::uint16_t* to_row = counts_.data() + static_cast<std::size_t>(to) * n_;
  if (mask_words_ == 1) {
    // Hot patch (|Q| <= 64, the engine's mask-kernel regime): branchless.
    // fits() keeps every counter below the ceiling, so the counters move
    // freely; `to` is present after its increment by definition, `from` iff
    // its counter stayed positive — one blend per neighbor, no unpredictable
    // branches.
    const std::uint64_t from_bit = std::uint64_t{1} << from;
    const std::uint64_t to_bit = std::uint64_t{1} << to;
    const auto patch = [&](NodeId w) {
      assert(from_row[w] != 0 && to_row[w] != kSaturated);
      const std::uint16_t fc = --from_row[w];
      ++to_row[w];
      masks_[w] = (masks_[w] & ~from_bit) |
                  (fc != 0 ? from_bit : std::uint64_t{0}) | to_bit;
    };
    patch(v);
    for (const NodeId u : graph_.neighbors(v)) patch(u);
    return;
  }
  const std::size_t from_word = from >> 6, to_word = to >> 6;
  const std::uint64_t from_bit = std::uint64_t{1} << (from & 63);
  const std::uint64_t to_bit = std::uint64_t{1} << (to & 63);
  const auto patch = [&](NodeId w) {
    std::uint64_t* row = masks_.data() + static_cast<std::size_t>(w) * mask_words_;
    assert(from_row[w] != 0 && to_row[w] != kSaturated);
    if (--from_row[w] == 0) row[from_word] &= ~from_bit;
    if (to_row[w]++ == 0) row[to_word] |= to_bit;
  };
  patch(v);
  for (const NodeId u : graph_.neighbors(v)) patch(u);
}

SignalView SignalField::sense(NodeId v, std::vector<StateId>& scratch) const {
  scratch.clear();
  const std::uint64_t* words =
      masks_.data() + static_cast<std::size_t>(v) * mask_words_;
  for (StateId w = 0; w < mask_words_; ++w) {
    unpack_mask(words[w], scratch, w * SignalView::kMaskBits);
  }
  return {scratch, std::span<const std::uint64_t>(words, mask_words_)};
}

std::size_t SignalField::dynamic_memory_usage() const {
  return util::DynamicUsage(counts_) + util::DynamicUsage(masks_);
}

}  // namespace ssau::core
