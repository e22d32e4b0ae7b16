#include "core/trace.hpp"

#include <map>
#include <ostream>

namespace ssau::core {

Trace::Trace(Engine& engine, std::size_t capacity)
    : baseline_(engine.config()), capacity_(capacity) {
  engine.set_transition_listener([this](NodeId v, StateId from, StateId to,
                                        const Signal&, Time t) {
    if (capacity_ == 0) {
      ++dropped_;
      return;
    }
    if (events_.size() == capacity_) {
      events_.pop_front();
      ++dropped_;
    }
    events_.push_back({t, v, from, to});
  });
}

std::uint64_t Trace::transitions_of(NodeId v) const {
  std::uint64_t n = 0;
  for (const auto& e : events_) {
    if (e.node == v) ++n;
  }
  return n;
}

std::vector<std::pair<std::string, std::uint64_t>> Trace::histogram(
    const std::function<std::string(const TraceEvent&)>& classify) const {
  std::map<std::string, std::uint64_t> counts;
  for (const auto& e : events_) ++counts[classify(e)];
  return {counts.begin(), counts.end()};
}

void Trace::write_csv(std::ostream& os) const {
  os << "time,node,from,to\n";
  for (const auto& e : events_) {
    os << e.time << ',' << e.node << ',' << e.from << ',' << e.to << '\n';
  }
}

Configuration Trace::replay() const {
  Configuration c = baseline_;
  for (const auto& e : events_) {
    c[e.node] = e.to;
  }
  return c;
}

}  // namespace ssau::core
