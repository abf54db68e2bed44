#include "http/response_stream.hpp"

#include <utility>

#include "sim/config_error.hpp"

namespace trim::http {

ResponseStream::ResponseStream(sim::Simulator* sim, tcp::TcpSender* sender,
                               SizeSampler size, GapSampler gap)
    : sim_{sim}, sender_{sender}, size_{std::move(size)}, gap_{std::move(gap)} {
  if (sim_ == nullptr || sender_ == nullptr) {
    throw ConfigError{"null simulator or sender", "ResponseStream"};
  }
}

void ResponseStream::run(sim::SimTime start, sim::SimTime stop,
                         std::uint64_t max_messages) {
  if (running_) {
    throw ConfigError{"run() called twice", "ResponseStream::run",
                      "one active interval per stream"};
  }
  if (stop <= start || max_messages == 0) {
    throw ConfigError{"empty stream", "ResponseStream::run",
                      "start < stop, max_messages >= 1"};
  }
  running_ = true;
  stop_ = stop;
  remaining_ = max_messages;
  sender_->add_message_complete_callback([this](std::uint64_t, sim::SimTime now) {
    if (remaining_ == 0) return;
    const sim::SimTime gap = gap_();
    const sim::SimTime at = now + gap;
    if (at >= stop_) return;
    if (gap == sim::SimTime::zero()) {
      write();
    } else {
      sim_->schedule_at(at, [this] { write(); });
    }
  });
  sim_->schedule_at(start, [this] { write(); });
}

void ResponseStream::write() {
  --remaining_;
  sender_->write(size_());
}

}  // namespace trim::http
