// service-mix — the service and snapshot layers under a closed loop: one
// generator thread drives S sessions of a SimulationService with 2 workers,
// each session with exactly one outstanding command. Half of the sessions
// run AlgAU on small random graphs under uniform-single, the other half
// AlgMIS or AlgLE (D = 2) on damaged cliques under the synchronous daemon.
// Each session cycles through the per-session command script of
// bench_engine_perf's service table (see script_pass); the node, state and
// edge each command names are drawn from the seed.
//
// Latency is what the client observes: submit to the moment the generator
// sees the future ready. The generator never sleeps: it sweeps every
// outstanding future in a loop (yielding between empty sweeps), so a finished
// command is seen within one sweep and the closed loop does not depend on how
// fast the host wakes a sleeping thread.
#include <cstdio>
#include <deque>
#include <filesystem>
#include <future>
#include <memory>
#include <thread>

#include "graph/metrics.hpp"
#include "service/service.hpp"
#include "service/session.hpp"
#include "workloads.hpp"

namespace perfbench {
namespace {

using namespace ssau;
using service::Command;
using service::CommandType;

constexpr unsigned kWorkers = 2;
// Sessions whose command streams are kept and replayed for the bit-identity
// check (and, traced, for execution times); the first ones cover all kinds.
constexpr std::size_t kReplayed = 4;

struct Params {
  std::size_t sessions;
  graph::NodeId au_nodes;
  graph::NodeId clique_nodes;
};

struct Plan {
  service::SessionSpec spec;
  graph::Graph mirror;  // the generator's copy, for choosing edge edits
  std::uint64_t states = 0;
  bool async = false;
  util::Rng rng;
  std::deque<Command> script;         // the rest of the current pass
  std::size_t passes = 0;             // script passes generated
  std::string checkpoint;
  std::size_t count = 0;              // commands issued
  bool keep = false;                  // record the stream for the replay
  std::vector<Command> issued;
  std::vector<std::uint64_t> hashes;  // per issued command (query_hash only)
};

struct Fleet {
  std::vector<Plan> plans;
  std::unique_ptr<service::SimulationService> svc;
  std::vector<service::SimulationService::SessionId> ids;
  double build_s = 0, diameter_s = 0, open_s = 0;
};

Plan make_plan(const Params& p, std::uint64_t seed, std::size_t i,
               const std::string& scratch, double& build_s, double& diameter_s) {
  const std::uint64_t session_seed = seed * 1000 + i;
  service::SessionSpec spec;
  spec.seed = session_seed;
  spec.initial = "random";
  const bool async = i % 2 == 0;
  std::string family;
  if (async) {
    family = "random:" + std::to_string(p.au_nodes) + ":" +
             std::to_string(6.0 / p.au_nodes);
    spec.scheduler = "uniform-single";
  } else {
    family = "damaged-clique:" + std::to_string(p.clique_nodes) + ":0.1";
    spec.scheduler = "synchronous";
  }
  // The generator's copy is built from the same spec and seed as the session's.
  for (;; ++spec.seed) {
    const auto t0 = Clock::now();
    graph::Graph g = service::make_graph(family, spec.seed);
    const auto t1 = Clock::now();
    const std::uint32_t d = graph::diameter(g);
    build_s += seconds_between(t0, t1);
    diameter_s += seconds_since(t1);
    if (!async && d > 2) continue;  // MIS/LE run with D = 2
    spec.graph = family;
    spec.automaton = async ? "alg-au:" + std::to_string(d)
                           : std::string(i % 4 == 1 ? "alg-mis:2" : "alg-le:2");
    const std::uint64_t states = service::make_automaton(spec.automaton)->state_count();
    return Plan{spec, std::move(g), states, async,
                util::Rng::stream(session_seed, 5000), {}, 0,
                scratch + "/svc-" + std::to_string(i) + ".ckpt", 0,
                i < kReplayed, {}, {}};
  }
}

// A snapshot ends every kSnapshotEvery-th pass of a session's script.
constexpr std::size_t kSnapshotEvery = 16;

// One pass of a session's command script. It is the per-session script of
// bench_engine_perf's service table: step(30), one injection, then on the
// dense (damaged-clique) sessions an edge drop, step(10) and the heal, on
// the sparse (random-graph) sessions run_rounds(2), step(10) and
// query_config, then query_stats and query_hash. Two things are added: the
// injected node and state and the dropped edge are drawn from the seed (the
// table's fixed picks need not exist on a damaged clique), and the
// occasional snapshot puts the checkpoint path on the traffic.
void script_pass(Plan& pl) {
  const graph::NodeId n = pl.mirror.num_nodes();
  auto& s = pl.script;
  s.push_back(service::cmd::step(30));
  const auto v = static_cast<core::NodeId>(pl.rng.below(n));
  s.push_back(service::cmd::inject_state(v, pl.rng.below(pl.states)));
  if (pl.async) {
    s.push_back(service::cmd::run_rounds(2));
    s.push_back(service::cmd::step(10));
    s.push_back(service::cmd::query_config());
  } else {
    graph::NodeId u = static_cast<graph::NodeId>(pl.rng.below(n));
    while (pl.mirror.degree(u) == 0) u = (u + 1) % n;
    const auto nb = pl.mirror.neighbors(u);
    const graph::NodeId w = nb[pl.rng.below(nb.size())];
    graph::TopologyDelta drop, heal;
    drop.remove.emplace_back(std::min(u, w), std::max(u, w));
    heal.add = drop.remove;
    s.push_back(service::cmd::topology_delta(std::move(drop)));
    s.push_back(service::cmd::step(10));
    s.push_back(service::cmd::topology_delta(std::move(heal)));
  }
  s.push_back(service::cmd::query_stats());
  s.push_back(service::cmd::query_hash());
  if (++pl.passes % kSnapshotEvery == 0) s.push_back(service::cmd::snapshot(pl.checkpoint));
}

Command next_command(Plan& pl) {
  if (pl.script.empty()) script_pass(pl);
  Command c = std::move(pl.script.front());
  pl.script.pop_front();
  return c;
}

std::unique_ptr<Fleet> set_up(const Params& p, const RunConfig& cfg) {
  auto f = std::make_unique<Fleet>();
  for (std::size_t i = 0; i < p.sessions; ++i) {
    f->plans.push_back(make_plan(p, cfg.seed, i, cfg.scratch_dir, f->build_s, f->diameter_s));
  }
  const auto t0 = Clock::now();
  f->svc = std::make_unique<service::SimulationService>(
      service::ServiceOptions{.workers = kWorkers});
  for (const Plan& pl : f->plans) f->ids.push_back(f->svc->open_session(pl.spec));
  f->open_s = seconds_since(t0);
  return f;
}

struct Completion {
  std::size_t session;
  std::size_t index;
  double latency_s;
  double at_s;  // completion, from the start of the window
  double activations;
};

// Completions are grouped into windows of kChunkSeconds; window k repeats
// unit k mod kUnits.
constexpr double kChunkSeconds = 0.1;
constexpr std::size_t kUnits = 8;

// Replays the first `count` sessions' command streams, each on a fresh
// Session: every result must match the live one (status kOk, identical state
// hashes). Returns the wall time; the traced replay also fills `exec` with
// each command's execution seconds.
double replay(const std::vector<Plan>& plans, std::size_t count, Report& r,
              std::vector<std::vector<double>>* exec, Tracer* tr) {
  const auto t0 = Clock::now();
  for (std::size_t i = 0; i < count; ++i) {
    const Plan& pl = plans[i];
    service::Session s(pl.spec);
    if (exec) (*exec)[i].reserve(pl.issued.size());
    bool ok = true;
    for (std::size_t j = 0; j < pl.issued.size(); ++j) {
      const Command& c = pl.issued[j];
      service::Result res;
      if (tr) {
        const auto layer = tr->layer(c.type == CommandType::kSnapshot
                                         ? "snapshot.save"
                                         : "service.session_apply");
        const auto a = Clock::now();
        res = tr->timed(layer, [&] { return s.apply(c); });
        (*exec)[i].push_back(seconds_since(a));
      } else {
        res = s.apply(c);
      }
      ok = ok && res.ok() &&
           (c.type != CommandType::kQueryHash || res.hash == pl.hashes[j]);
    }
    r.op(ok, "service session " + std::to_string(i) +
                 " replay diverged from the live run");
  }
  return seconds_since(t0);
}

}  // namespace

Report run_service_mix(const RunConfig& cfg) {
  const Params p = cfg.smoke ? Params{6, 64, 24} : Params{48, 256, 48};
  Report r;
  EndToEnd e2e;
  std::filesystem::create_directories(cfg.scratch_dir);

  std::unique_ptr<Fleet> f;
  std::vector<double> build, diam, open;
  for (int i = 0; i < 3; ++i) {
    f.reset();
    const auto t0 = Clock::now();
    f = set_up(p, cfg);
    e2e.setup_s.push_back(seconds_since(t0));
    build.push_back(f->build_s);
    diam.push_back(f->diameter_s);
    open.push_back(f->open_s);
  }
  std::size_t nodes = 0;
  for (const Plan& pl : f->plans) nodes += pl.mirror.num_nodes();
  std::printf("  fleet        %zu sessions (%u workers), %zu nodes in total\n",
              f->plans.size(), kWorkers, nodes);

  struct Pending {
    std::size_t session;
    Clock::time_point submitted;
    std::future<service::Result> fut;
  };
  std::deque<Pending> pending;
  std::vector<Completion> done;
  auto submit = [&](std::size_t i) {
    Plan& pl = f->plans[i];
    Command c = next_command(pl);
    ++pl.count;
    if (pl.keep) {
      pl.issued.push_back(c);
      pl.hashes.push_back(0);
    }
    const auto now = Clock::now();
    pending.push_back(Pending{i, now, f->svc->submit(f->ids[i], std::move(c))});
  };
  const auto start = Clock::now();
  auto complete = [&](Pending& pd, Clock::time_point now) {
    const service::Result res = pd.fut.get();
    Plan& pl = f->plans[pd.session];
    // One outstanding command per session: the last one issued completed.
    const std::size_t j = pl.count - 1;
    if (pl.keep) pl.hashes[j] = res.hash;
    r.op(res.ok(), "service command failed: " + res.error);
    // uniform-single activates one node per step, synchronous all of them.
    const double per_step = pl.async ? 1.0 : pl.mirror.num_nodes();
    done.push_back(Completion{pd.session, j, seconds_between(pd.submitted, now),
                              seconds_between(start, now),
                              static_cast<double>(res.steps) * per_step});
  };

  for (std::size_t i = 0; i < f->plans.size(); ++i) submit(i);
  std::vector<std::size_t> resubmit;
  while (!pending.empty()) {
    const std::size_t completed = done.size();
    const auto now = Clock::now();
    const bool open_window = seconds_between(start, now) < cfg.seconds;
    resubmit.clear();
    for (auto it = pending.begin(); it != pending.end();) {
      if (it->fut.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        ++it;
        continue;
      }
      complete(*it, now);
      if (open_window) resubmit.push_back(it->session);
      it = pending.erase(it);
    }
    if (done.size() == completed) std::this_thread::yield();
    for (const std::size_t i : resubmit) submit(i);
  }
  const double window = seconds_since(start);
  f->svc->drain();

  std::vector<Chunk> windows;
  for (const Completion& c : done) {
    const auto k = static_cast<std::size_t>(c.at_s / kChunkSeconds);
    if (static_cast<double>(k + 1) * kChunkSeconds > window) break;  // partial tail
    if (windows.size() <= k) windows.resize(k + 1);
    windows[k].activations += c.activations;
    windows[k].op_s.push_back(c.latency_s);
  }
  for (std::size_t k = 0; k < windows.size(); ++k) {
    windows[k].unit = k % kUnits;
    windows[k].seconds = kChunkSeconds;
    e2e.add(std::move(windows[k]));
  }
  double counted = 0;
  for (const Completion& c : done) counted += c.activations;
  double acts = 0, bytes = 0;
  for (const auto id : f->ids) {
    const service::Session& s = f->svc->session(id);
    acts += activation_total(s.engine());
    bytes += static_cast<double>(s.dynamic_memory_usage());
  }
  r.op(acts == counted, "service activation counts disagree with the steps run");
  e2e.bytes_per_node = bytes / nodes;
  std::printf("  closed loop  %zu commands in %.3f s = %.0f commands/s\n", done.size(),
              window, done.size() / window);

  const std::size_t replayed = std::min(kReplayed, f->plans.size());
  const double untraced = replay(f->plans, replayed, r, nullptr, nullptr);
  if (!cfg.trace) {
    e2e.report(r);
    return r;
  }

  // --- traced run: the same streams again, each Session::apply timed -------
  Tracer tr;
  std::vector<std::vector<double>> exec(replayed);
  const auto span = tr.open("service.replay");
  const double traced = replay(f->plans, replayed, r, &exec, &tr);
  tr.close(span);

  std::vector<double> exec_all, queue_all;
  for (const Completion& c : done) {
    if (c.session >= replayed) continue;
    const double x = exec[c.session][c.index];
    exec_all.push_back(x);
    queue_all.push_back(std::max(0.0, c.latency_s - x));
  }
  double snap_bytes = 0, snaps = 0;
  for (const Plan& pl : f->plans) {
    std::error_code ec;
    const auto size = std::filesystem::file_size(pl.checkpoint, ec);
    if (!ec) {
      snap_bytes += static_cast<double>(size);
      ++snaps;
    }
  }
  r.set("service.exec_p50_ms", quantile(exec_all, 0.5) * 1e3);
  r.set("service.exec_p99_ms", quantile(exec_all, 0.99) * 1e3);
  r.set("service.queue_p50_ms", quantile(queue_all, 0.5) * 1e3);
  r.set("service.queue_p99_ms", quantile(queue_all, 0.99) * 1e3);
  r.set("service.peak_pending", static_cast<double>(f->svc->peak_pending()));
  r.set("snapshot.save_s", tr.seconds("snapshot.save"));
  r.set("snapshot.bytes", snaps > 0 ? snap_bytes / snaps : 0);
  r.set("engine.ctor_s", median(open) / f->plans.size());
  r.set("graph.build_s", median(build));
  r.set("graph.diameter_s", median(diam));
  r.set("trace.overhead", traced / untraced - 1.0);
  std::printf("  replay       untraced %.3f s, traced %.3f s (%zu snapshot saves, %.4f s)\n",
              untraced, traced, static_cast<std::size_t>(tr.calls("snapshot.save")),
              tr.seconds("snapshot.save"));
  if (!cfg.trace_out.empty()) tr.write(cfg.trace_out);
  return r;
}

}  // namespace perfbench
