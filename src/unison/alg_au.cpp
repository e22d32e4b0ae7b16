#include "unison/alg_au.hpp"

#include <algorithm>
#include <cstdlib>
#include <span>
#include <stdexcept>

#include "graph/metrics.hpp"

namespace ssau::unison {

AlgAu::AlgAu(int diameter_bound, AlgAuOptions options)
    : turns_(diameter_bound), options_(options) {
  const std::size_t words =
      (turns_.state_count() + core::SignalView::kMaskBits - 1) /
      core::SignalView::kMaskBits;
  switch (words) {
    case 1: build_guards<1>(); break;
    case 2: build_guards<2>(); break;
    case 3: build_guards<3>(); break;
    case 4: build_guards<4>(); break;
    default: return;  // |Q| > 256: the scalar level walk only
  }
  words_ = words;
}

template <std::size_t W>
void AlgAu::build_guards() {
  const core::StateId n = turns_.state_count();
  const auto set = [](auto& words, core::StateId s) {
    words[s / 64] |= std::uint64_t{1} << (s % 64);
  };
  for (core::StateId s = 0; s < n; ++s) {
    if (turns_.is_faulty(s)) set(faulty_words_, s);
  }
  auto& table = std::get<W - 1>(guards_);
  table.resize(n);
  for (core::StateId q = 0; q < n; ++q) {
    TurnGuards<W>& tg = table[q];
    const Level l = turns_.level_of(q);
    const Level fwd = turns_.forward(l);
    for (core::StateId s = 0; s < n; ++s) {
      const Level sl = turns_.level_of(s);
      if (turns_.adjacent(l, sl)) set(tg.adjacent, s);
      if (sl == l || sl == fwd) set(tg.in_step, s);
      if (turns_.strictly_outwards(sl, l)) set(tg.outwards, s);
    }
    tg.able = turns_.is_able(q);
    if (tg.able) {
      tg.aa_next = turns_.able_id(fwd);
      tg.has_faulty_twin = turns_.has_faulty(l);
      if (tg.has_faulty_twin) {
        tg.af_next = turns_.faulty_id(l);
        const Level inward = turns_.outwards(l, -1);
        if (turns_.has_faulty(inward)) {
          set(tg.af_inward, turns_.faulty_id(inward));
        }
      }
    } else {
      tg.fa_next = turns_.able_id(turns_.outwards(l, -1));
    }
  }
}

template <std::size_t W>
core::StateId AlgAu::step_words(core::StateId q,
                                const std::uint64_t* sensed) const {
  const TurnGuards<W>& tg = std::get<W - 1>(guards_)[q];
  // Λ_v leaves the guard set `m` / Λ_v meets it, over all W words.
  const auto outside = [sensed](const std::uint64_t* m) {
    std::uint64_t x = 0;
    for (std::size_t w = 0; w < W; ++w) x |= sensed[w] & ~m[w];
    return x != 0;
  };
  const auto meets = [sensed](const std::uint64_t* m) {
    std::uint64_t x = 0;
    for (std::size_t w = 0; w < W; ++w) x |= sensed[w] & m[w];
    return x != 0;
  };

  if (tg.able) {
    // --- type AA: good (or merely protected under the ablation) and
    // Λ_v ⊆ {ℓ, φ(ℓ)} ------------------------------------------------------
    const bool prot = !outside(tg.adjacent.data());
    const bool good = options_.aa_requires_good
                          ? prot && !meets(faulty_words_.data())
                          : prot;
    if (good && !outside(tg.in_step.data())) return tg.aa_next;

    // --- type AF (only levels with |ℓ| >= 2 have a faulty twin) ------------
    if (tg.has_faulty_twin) {
      if (!prot) return tg.af_next;
      if (options_.af_inward_trigger && meets(tg.af_inward.data())) {
        return tg.af_next;
      }
    }
    return q;
  }

  // --- type FA -------------------------------------------------------------
  if (options_.fa_outward_guard && meets(tg.outwards.data())) return q;
  return tg.fa_next;
}

core::StateId AlgAu::step_mask(core::StateId q, std::uint64_t mask,
                               util::Rng& rng) const {
  if (words_ != 1) return Automaton::step_mask(q, mask, rng);
  return step_words<1>(q, &mask);
}

core::StateId AlgAu::step_fast(core::StateId q, const core::SignalView& sig,
                               util::Rng& /*rng*/) const {
  const std::span<const std::uint64_t> sensed = sig.words();
  if (words_ != 0 && sensed.size() >= words_) {
    // Sensed states all lie below |Q| <= 64 * words_, so any words past
    // the first words_ are empty.
    switch (words_) {
      case 1: return step_words<1>(q, sensed.data());
      case 2: return step_words<2>(q, sensed.data());
      case 3: return step_words<3>(q, sensed.data());
      default: return step_words<4>(q, sensed.data());
    }
  }

  const Level l = turns_.level_of(q);

  if (turns_.is_able(q)) {
    // --- type AA ---------------------------------------------------------
    const Level fwd = turns_.forward(l);
    const bool good = options_.aa_requires_good ? locally_good(q, sig)
                                                : locally_protected(q, sig);
    bool levels_in_step = true;  // Λ_v ⊆ {ℓ, φ(ℓ)}
    for (const core::StateId s : sig.states()) {
      const Level sl = turns_.level_of(s);
      if (sl != l && sl != fwd) {
        levels_in_step = false;
        break;
      }
    }
    if (good && levels_in_step) return turns_.able_id(fwd);

    // --- type AF (only levels with |ℓ| >= 2 have a faulty twin) -----------
    if (turns_.has_faulty(l)) {
      if (!locally_protected(q, sig)) return turns_.faulty_id(l);
      if (options_.af_inward_trigger) {
        const Level inward = turns_.outwards(l, -1);
        if (turns_.has_faulty(inward) &&
            sig.contains(turns_.faulty_id(inward))) {
          return turns_.faulty_id(l);
        }
      }
    }
    return q;
  }

  // --- type FA ------------------------------------------------------------
  if (options_.fa_outward_guard) {
    for (const core::StateId s : sig.states()) {
      if (turns_.strictly_outwards(turns_.level_of(s), l)) return q;
    }
  }
  return turns_.able_id(turns_.outwards(l, -1));
}

AlgAu::TransitionType AlgAu::classify(core::StateId from,
                                      core::StateId to) const {
  if (from == to) return TransitionType::None;
  const Level lf = turns_.level_of(from);
  const Level lt = turns_.level_of(to);
  if (turns_.is_able(from) && turns_.is_able(to) &&
      lt == turns_.forward(lf)) {
    return TransitionType::AA;
  }
  if (turns_.is_able(from) && turns_.is_faulty(to) && lf == lt) {
    return TransitionType::AF;
  }
  if (turns_.is_faulty(from) && turns_.is_able(to) &&
      lt == turns_.outwards(lf, -1)) {
    return TransitionType::FA;
  }
  throw std::logic_error("AlgAu::classify: not a legal transition shape (" +
                         turns_.turn_name(from) + " -> " +
                         turns_.turn_name(to) + ")");
}

bool AlgAu::locally_protected(core::StateId q,
                              const core::SignalView& sig) const {
  const Level l = turns_.level_of(q);
  for (const core::StateId s : sig.states()) {
    if (!turns_.adjacent(l, turns_.level_of(s))) return false;
  }
  return true;
}

bool AlgAu::locally_good(core::StateId q, const core::SignalView& sig) const {
  if (!locally_protected(q, sig)) return false;
  for (const core::StateId s : sig.states()) {
    if (turns_.is_faulty(s)) return false;
  }
  return true;
}

std::string to_string(AlgAu::TransitionType t) {
  switch (t) {
    case AlgAu::TransitionType::None: return "None";
    case AlgAu::TransitionType::AA: return "AA";
    case AlgAu::TransitionType::AF: return "AF";
    case AlgAu::TransitionType::FA: return "FA";
  }
  return "?";
}

core::Configuration au_config_tear(const AlgAu& alg, core::NodeId n) {
  const auto& ts = alg.turns();
  core::Configuration c(n, ts.able_id(1));
  for (core::NodeId v = n / 2; v < n; ++v) c[v] = ts.able_id(ts.k());
  return c;
}

core::Configuration au_config_all_faulty(const AlgAu& alg, core::NodeId n) {
  return core::Configuration(n, alg.turns().faulty_id(alg.turns().k()));
}

core::Configuration au_config_opposed(const AlgAu& alg, core::NodeId n) {
  const auto& ts = alg.turns();
  core::Configuration c(n);
  for (core::NodeId v = 0; v < n; ++v) {
    c[v] = (v % 2 == 0) ? ts.able_id(ts.k()) : ts.able_id(-ts.k());
  }
  return c;
}

core::Configuration au_config_random_able(const AlgAu& alg, core::NodeId n,
                                          util::Rng& rng) {
  const auto& ts = alg.turns();
  core::Configuration c(n);
  for (auto& q : c) q = rng.below(2 * static_cast<std::uint64_t>(ts.k()));
  return c;  // able ids occupy [0, 2k)
}

core::Configuration au_config_gradient(const AlgAu& alg,
                                       const graph::Graph& g) {
  const auto& ts = alg.turns();
  const auto dist = graph::bfs_distances(g, 0);
  core::Configuration c(g.num_nodes());
  for (core::NodeId v = 0; v < g.num_nodes(); ++v) {
    const int l = std::min<int>(1 + static_cast<int>(dist[v]), ts.k());
    c[v] = ts.able_id(l);
  }
  return c;
}

std::vector<std::string> au_adversary_kinds() {
  return {"tear", "all-faulty", "opposed", "random-able", "random",
          "gradient"};
}

core::Configuration au_adversarial_configuration(const std::string& kind,
                                                 const AlgAu& alg,
                                                 const graph::Graph& g,
                                                 util::Rng& rng) {
  const core::NodeId n = g.num_nodes();
  if (kind == "tear") return au_config_tear(alg, n);
  if (kind == "all-faulty") return au_config_all_faulty(alg, n);
  if (kind == "opposed") return au_config_opposed(alg, n);
  if (kind == "random-able") return au_config_random_able(alg, n, rng);
  if (kind == "random") return core::random_configuration(alg, n, rng);
  if (kind == "gradient") return au_config_gradient(alg, g);
  throw std::invalid_argument("unknown AU adversary kind: " + kind);
}

}  // namespace ssau::unison
