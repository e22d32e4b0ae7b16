// Tests for the execution trace recorder.
#include "core/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "graph/generators.hpp"
#include "sched/scheduler.hpp"
#include "unison/alg_au.hpp"

namespace ssau::core {
namespace {

struct TracedRun {
  graph::Graph g = graph::cycle(6);
  unison::AlgAu alg{3};  // diam(C6) = 3
  sched::SynchronousScheduler sched{6};
};

TEST(Trace, RecordsEveryTransitionAndReplays) {
  TracedRun r;
  util::Rng rng(3);
  Engine engine(r.g, r.alg, r.sched,
                unison::au_adversarial_configuration("random", r.alg, r.g,
                                                     rng),
                3);
  Trace trace(engine);
  for (int t = 0; t < 100; ++t) engine.step();
  EXPECT_EQ(trace.dropped(), 0u);
  EXPECT_FALSE(trace.events().empty());
  EXPECT_EQ(trace.replay(), engine.config());
}

TEST(Trace, EventsCarryConsistentTimesAndStates) {
  TracedRun r;
  util::Rng rng(5);
  Engine engine(r.g, r.alg, r.sched,
                unison::au_adversarial_configuration("tear", r.alg, r.g, rng),
                5);
  Trace trace(engine);
  for (int t = 0; t < 60; ++t) engine.step();
  Time prev_time = 0;
  for (const auto& e : trace.events()) {
    EXPECT_GE(e.time, prev_time);
    prev_time = e.time;
    EXPECT_NE(e.from, e.to);
    EXPECT_LT(e.node, 6u);
    EXPECT_LT(e.to, r.alg.state_count());
  }
}

TEST(Trace, PerNodeCountsSumToTotal) {
  TracedRun r;
  util::Rng rng(7);
  Engine engine(r.g, r.alg, r.sched,
                unison::au_adversarial_configuration("random", r.alg, r.g,
                                                     rng),
                7);
  Trace trace(engine);
  for (int t = 0; t < 80; ++t) engine.step();
  std::uint64_t sum = 0;
  for (NodeId v = 0; v < 6; ++v) sum += trace.transitions_of(v);
  EXPECT_EQ(sum, trace.events().size());
}

TEST(Trace, HistogramByTransitionType) {
  TracedRun r;
  util::Rng rng(9);
  Engine engine(r.g, r.alg, r.sched,
                unison::au_adversarial_configuration("tear", r.alg, r.g, rng),
                9);
  Trace trace(engine);
  for (int t = 0; t < 200; ++t) engine.step();
  const auto hist = trace.histogram([&](const TraceEvent& e) {
    return unison::to_string(r.alg.classify(e.from, e.to));
  });
  std::uint64_t total = 0;
  for (const auto& [label, count] : hist) {
    EXPECT_TRUE(label == "AA" || label == "AF" || label == "FA") << label;
    total += count;
  }
  EXPECT_EQ(total, trace.events().size());
}

TEST(Trace, CapacityBoundDropsOldestEvents) {
  // A capped trace keeps exactly the newest `capacity` events of an uncapped
  // trace of the same run, and counts every other event as dropped.
  for (const std::size_t capacity : {std::size_t{10}, std::size_t{0}}) {
    TracedRun r;
    util::Rng rng(11);
    const Configuration c0 =
        unison::au_adversarial_configuration("random", r.alg, r.g, rng);
    sched::SynchronousScheduler full_sched{6};
    Engine full_engine(r.g, r.alg, full_sched, c0, 11);
    Engine capped_engine(r.g, r.alg, r.sched, c0, 11);
    Trace full(full_engine);
    Trace capped(capped_engine, capacity);
    for (int t = 0; t < 50; ++t) {
      full_engine.step();
      capped_engine.step();
    }
    ASSERT_EQ(full.dropped(), 0u);
    ASSERT_GT(full.events().size(), capacity);
    EXPECT_EQ(capped.events().size(), capacity) << "capacity " << capacity;
    EXPECT_EQ(capped.dropped() + capped.events().size(), full.events().size());
    const auto same = [](const TraceEvent& a, const TraceEvent& b) {
      return a.time == b.time && a.node == b.node && a.from == b.from &&
             a.to == b.to;
    };
    EXPECT_TRUE(std::equal(capped.events().begin(), capped.events().end(),
                           full.events().end() -
                               static_cast<std::ptrdiff_t>(capacity),
                           same))
        << "capacity " << capacity;
  }
}

TEST(Trace, CsvHasHeaderAndOneRowPerEvent) {
  TracedRun r;
  util::Rng rng(13);
  Engine engine(r.g, r.alg, r.sched,
                unison::au_adversarial_configuration("random", r.alg, r.g,
                                                     rng),
                13);
  Trace trace(engine);
  for (int t = 0; t < 30; ++t) engine.step();
  std::ostringstream os;
  trace.write_csv(os);
  const std::string out = os.str();
  std::size_t lines = 0;
  for (const char c : out) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, trace.events().size() + 1);  // header + rows
  EXPECT_EQ(out.rfind("time,node,from,to", 0), 0u);
}

}  // namespace
}  // namespace ssau::core
