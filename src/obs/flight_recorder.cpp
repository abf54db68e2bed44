#include "obs/flight_recorder.hpp"

namespace trim::obs {

std::uint64_t EventCounts::total() const {
  std::uint64_t sum = 0;
  for (const auto n : by_kind) sum += n;
  return sum;
}

void EventCounts::merge(const EventCounts& other) {
  for (std::size_t i = 0; i < by_kind.size(); ++i) by_kind[i] += other.by_kind[i];
}

void FlightRecorder::enable(std::size_t capacity) {
  ring_.clear();
  ring_.resize(capacity);
  head_ = 0;
  size_ = 0;
}

void FlightRecorder::emit(sim::SimTime at, EventKind kind, std::uint32_t subject,
                          double a, double b) {
  ++counts_.by_kind[static_cast<std::size_t>(kind)];
  ++total_emitted_;
  if (ring_.empty()) return;
  if (size_ < ring_.size()) {
    ring_[size_++] = {at, kind, subject, a, b};
    return;
  }
  // Full: overwrite the oldest slot in place.
  ring_[head_] = {at, kind, subject, a, b};
  head_ = (head_ + 1) % ring_.size();
}

const RecordedEvent& FlightRecorder::event(std::size_t i) const {
  return ring_[(head_ + i) % ring_.size()];
}

std::vector<RecordedEvent> FlightRecorder::events() const {
  std::vector<RecordedEvent> out;
  out.reserve(size_);
  for (std::size_t i = 0; i < size_; ++i) out.push_back(event(i));
  return out;
}

std::vector<RecordedEvent> FlightRecorder::events(EventKind kind) const {
  std::vector<RecordedEvent> out;
  for (std::size_t i = 0; i < size_; ++i) {
    const auto& e = event(i);
    if (e.kind == kind) out.push_back(e);
  }
  return out;
}

std::string FlightRecorder::to_jsonl() const {
  std::string out;
  out.reserve(size_ * 96);
  for (std::size_t i = 0; i < size_; ++i) append_event_jsonl(out, event(i));
  return out;
}

void FlightRecorder::clear() {
  head_ = 0;
  size_ = 0;
  counts_ = EventCounts{};
  total_emitted_ = 0;
}

}  // namespace trim::obs
