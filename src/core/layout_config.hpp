// Reading a user-ordered configuration by a graph's layout ids.
//
// Engine::config() reports states in USER id order, while the engine's own
// graph walks LAYOUT ids after a locality reorder (graph/reorder.hpp). A
// predicate that takes both walks the graph's CSR by layout id i and reads
// the state of i through g.to_user(i). On an identity layout the two
// coincide, so the reader indexes the configuration directly.
#pragma once

#include "core/types.hpp"
#include "graph/graph.hpp"

namespace ssau::core {

/// A user-ordered configuration read by g's layout ids: c[g.to_user(i)] on
/// a reordered graph, plain c[i] on an identity layout (kReordered = false —
/// the branch-free loop every non-reordered caller runs).
template <bool kReordered>
class LayoutConfig {
 public:
  LayoutConfig(const graph::Graph& g, const Configuration& c)
      : to_user_(g.inverse_permutation().data()), c_(c.data()) {}

  StateId operator[](NodeId i) const {
    if constexpr (kReordered) {
      return c_[to_user_[i]];
    } else {
      return c_[i];
    }
  }

 private:
  const NodeId* to_user_;
  const StateId* c_;
};

/// The one place a predicate picks its reader: runs body(lc) with the
/// LayoutConfig matching g's layout.
template <typename F>
decltype(auto) with_layout(const graph::Graph& g, const Configuration& c,
                           F&& body) {
  if (g.reordered()) return body(LayoutConfig<true>(g, c));
  return body(LayoutConfig<false>(g, c));
}

}  // namespace ssau::core
