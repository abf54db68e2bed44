#include "stats/flow_stats.hpp"

#include <stdexcept>

namespace trim::stats {

std::uint64_t FlowStats::begin_message(std::uint64_t bytes, sim::SimTime now) {
  MessageRecord rec;
  rec.id = messages_.size();
  rec.bytes = bytes;
  rec.start = now;
  messages_.push_back(rec);
  return rec.id;
}

void FlowStats::complete_message(std::uint64_t id, sim::SimTime now) {
  if (id >= messages_.size()) throw std::out_of_range("FlowStats::complete_message: bad id");
  if (messages_[id].completed) throw std::logic_error("FlowStats: message completed twice");
  messages_[id].completed = now;
  ++completed_;
}

std::vector<sim::SimTime> FlowStats::completed_message_times() const {
  std::vector<sim::SimTime> out;
  out.reserve(completed_);
  for (const auto& m : messages_) {
    if (m.done()) out.push_back(m.completion_time());
  }
  return out;
}

}  // namespace trim::stats
