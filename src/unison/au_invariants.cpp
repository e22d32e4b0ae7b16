#include "unison/au_invariants.hpp"

#include <limits>
#include <queue>
#include <stdexcept>

#include "core/layout_config.hpp"

namespace ssau::unison {

namespace {

using core::with_layout;

// The predicates proper, over layout id i and a LayoutConfig c.

template <typename C>
bool protected_at(const TurnSystem& ts, const graph::Graph& g, const C& c,
                  core::NodeId i) {
  const Level li = ts.level_of(c[i]);
  for (const core::NodeId u : g.neighbors(i)) {
    if (!ts.adjacent(ts.level_of(c[u]), li)) return false;
  }
  return true;
}

template <typename C>
bool good_at(const TurnSystem& ts, const graph::Graph& g, const C& c,
             core::NodeId i) {
  if (!protected_at(ts, g, c, i)) return false;
  if (ts.is_faulty(c[i])) return false;
  for (const core::NodeId u : g.neighbors(i)) {
    if (ts.is_faulty(c[u])) return false;
  }
  return true;
}

template <typename C>
bool out_protected_at(const TurnSystem& ts, const graph::Graph& g, const C& c,
                      core::NodeId i) {
  const Level li = ts.level_of(c[i]);
  for (const core::NodeId u : g.neighbors(i)) {
    if (ts.far_outwards(ts.level_of(c[u]), li)) return false;
  }
  return true;
}

template <typename C>
bool justifiably_faulty_at(const TurnSystem& ts, const graph::Graph& g,
                           const C& c, core::NodeId i) {
  if (!ts.is_faulty(c[i])) return false;
  if (!protected_at(ts, g, c, i)) return true;
  const Level inward = ts.outwards(ts.level_of(c[i]), -1);
  if (!ts.has_faulty(inward)) return false;
  const core::StateId want = ts.faulty_id(inward);
  for (const core::NodeId u : g.neighbors(i)) {
    if (c[u] == want) return true;
  }
  return false;
}

template <typename C>
bool graph_protected_impl(const TurnSystem& ts, const graph::Graph& g,
                          const C& c) {
  for (core::NodeId v = 0; v < g.num_nodes(); ++v) {
    for (const core::NodeId u : g.neighbors(v)) {
      if (v < u && !ts.adjacent(ts.level_of(c[u]), ts.level_of(c[v]))) {
        return false;
      }
    }
  }
  return true;
}

/// graph_good's hot loop — the legitimacy check run_until evaluates after
/// every step. Same result as "no faulty turn, then graph_protected", with
/// the TurnSystem calls inlined: faulty is a range test on the id, and an
/// able id q (level q - k for q < k, q - k + 1 otherwise) has the closed-form
/// clock κ = q + k for q < k and q - k otherwise, so edge protection is a
/// cyclic-distance test on two clocks with no division. Both early exits
/// stay: unstabilized configurations almost always fail within the first few
/// nodes or edges, so a branchless full scan would do far more work.
template <typename C>
bool graph_good_impl(const TurnSystem& ts, const graph::Graph& g, const C& c) {
  const core::NodeId n = g.num_nodes();
  const auto k = static_cast<core::StateId>(ts.k());
  const core::StateId able = 2 * k;  // ids [0, 2k) are able turns
  const core::StateId states = ts.state_count();
  for (core::NodeId v = 0; v < n; ++v) {
    const core::StateId q = c[v];
    if (q >= able) {
      if (q >= states) {
        throw std::invalid_argument("graph_good: state out of range");
      }
      return false;  // a faulty turn
    }
  }
  const auto clock = [k](core::StateId q) { return q < k ? q + k : q - k; };
  const core::StateId wrap = able - 1;  // clocks 2k-1 and 0 are adjacent
  for (core::NodeId v = 0; v < n; ++v) {
    const core::StateId cv = clock(c[v]);
    for (const core::NodeId u : g.neighbors(v)) {
      const core::StateId cu = clock(c[u]);
      const core::StateId d = cv > cu ? cv - cu : cu - cv;
      if (d > 1 && d != wrap) return false;
    }
  }
  return true;
}

}  // namespace

std::vector<Level> levels_of(const TurnSystem& ts,
                             const core::Configuration& c) {
  std::vector<Level> l(c.size());
  for (std::size_t v = 0; v < c.size(); ++v) l[v] = ts.level_of(c[v]);
  return l;
}

bool edge_protected(const TurnSystem& ts, const core::Configuration& c,
                    core::NodeId u, core::NodeId v) {
  return ts.adjacent(ts.level_of(c[u]), ts.level_of(c[v]));
}

bool node_protected(const TurnSystem& ts, const graph::Graph& g,
                    const core::Configuration& c, core::NodeId v) {
  return with_layout(g, c, [&](const auto& lc) {
    return protected_at(ts, g, lc, g.to_internal(v));
  });
}

bool node_good(const TurnSystem& ts, const graph::Graph& g,
               const core::Configuration& c, core::NodeId v) {
  return with_layout(g, c, [&](const auto& lc) {
    return good_at(ts, g, lc, g.to_internal(v));
  });
}

bool node_out_protected(const TurnSystem& ts, const graph::Graph& g,
                        const core::Configuration& c, core::NodeId v) {
  return with_layout(g, c, [&](const auto& lc) {
    return out_protected_at(ts, g, lc, g.to_internal(v));
  });
}

bool graph_protected(const TurnSystem& ts, const graph::Graph& g,
                     const core::Configuration& c) {
  return with_layout(g, c, [&](const auto& lc) {
    return graph_protected_impl(ts, g, lc);
  });
}

bool graph_good(const TurnSystem& ts, const graph::Graph& g,
                const core::Configuration& c) {
  return with_layout(g, c,
                     [&](const auto& lc) { return graph_good_impl(ts, g, lc); });
}

bool graph_out_protected(const TurnSystem& ts, const graph::Graph& g,
                         const core::Configuration& c) {
  return with_layout(g, c, [&](const auto& lc) {
    for (core::NodeId i = 0; i < g.num_nodes(); ++i) {
      if (!out_protected_at(ts, g, lc, i)) return false;
    }
    return true;
  });
}

bool graph_l_out_protected(const TurnSystem& ts, const graph::Graph& g,
                           const core::Configuration& c, Level l) {
  return with_layout(g, c, [&](const auto& lc) {
    for (core::NodeId i = 0; i < g.num_nodes(); ++i) {
      if (ts.weakly_outwards(ts.level_of(lc[i]), l) &&
          !out_protected_at(ts, g, lc, i)) {
        return false;
      }
    }
    return true;
  });
}

bool justifiably_faulty(const TurnSystem& ts, const graph::Graph& g,
                        const core::Configuration& c, core::NodeId v) {
  return with_layout(g, c, [&](const auto& lc) {
    return justifiably_faulty_at(ts, g, lc, g.to_internal(v));
  });
}

bool graph_justified(const TurnSystem& ts, const graph::Graph& g,
                     const core::Configuration& c) {
  return with_layout(g, c, [&](const auto& lc) {
    for (core::NodeId i = 0; i < g.num_nodes(); ++i) {
      if (ts.is_faulty(lc[i]) && !justifiably_faulty_at(ts, g, lc, i)) {
        return false;
      }
    }
    return true;
  });
}

std::vector<bool> grounded_nodes(const TurnSystem& ts, const graph::Graph& g,
                                 const core::Configuration& c) {
  return with_layout(g, c, [&](const auto& lc) {
    const core::NodeId n = g.num_nodes();
    std::vector<bool> is_protected(n);
    for (core::NodeId i = 0; i < n; ++i) {
      is_protected[i] = protected_at(ts, g, lc, i);
    }
    // Multi-source BFS of depth D inside the protected-induced subgraph from
    // protected nodes at level ±1 (in layout ids).
    constexpr auto kUnreached = std::numeric_limits<std::uint32_t>::max();
    std::vector<std::uint32_t> depth(n, kUnreached);
    std::queue<core::NodeId> frontier;
    for (core::NodeId i = 0; i < n; ++i) {
      const Level l = ts.level_of(lc[i]);
      if (is_protected[i] && (l == 1 || l == -1)) {
        depth[i] = 0;
        frontier.push(i);
      }
    }
    const auto max_depth = static_cast<std::uint32_t>(ts.diameter_bound());
    while (!frontier.empty()) {
      const core::NodeId i = frontier.front();
      frontier.pop();
      if (depth[i] == max_depth) continue;
      for (const core::NodeId u : g.neighbors(i)) {
        if (is_protected[u] && depth[u] == kUnreached) {
          depth[u] = depth[i] + 1;
          frontier.push(u);
        }
      }
    }
    std::vector<bool> grounded(n, false);
    for (core::NodeId i = 0; i < n; ++i) {
      grounded[g.to_user(i)] = depth[i] != kUnreached;
    }
    return grounded;
  });
}

bool node_grounded(const TurnSystem& ts, const graph::Graph& g,
                   const core::Configuration& c, core::NodeId v) {
  return grounded_nodes(ts, g, c)[v];
}

bool au_safety_holds(const TurnSystem& ts, const graph::Graph& g,
                     const core::Configuration& c) {
  return graph_protected(ts, g, c);
}

}  // namespace ssau::unison
