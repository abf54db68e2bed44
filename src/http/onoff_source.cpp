#include "http/onoff_source.hpp"

#include "sim/config_error.hpp"

#include <stdexcept>

namespace trim::http {

OnOffSource::OnOffSource(sim::Simulator* sim, tcp::TcpSender* sender,
                         TrainWorkload workload)
    : sim_{sim}, sender_{sender}, workload_{std::move(workload)} {
  if (sim_ == nullptr || sender_ == nullptr) {
    throw ConfigError{"null simulator or sender", "OnOffSource"};
  }
}

void OnOffSource::run(sim::SimTime start, sim::SimTime stop) {
  if (stop <= start) {
    throw ConfigError{"empty interval", "OnOffSource::run", "start < stop"};
  }
  stop_ = stop;

  // Close the loop through the transport: gap starts when the previous
  // train is fully acked.
  sender_->add_message_complete_callback([this](std::uint64_t, sim::SimTime now) {
    schedule_next(now + workload_.sample_gap());
  });
  schedule_next(start);
}

void OnOffSource::schedule_next(sim::SimTime at) {
  if (at >= stop_) return;
  sim_->schedule_at(at, [this] { emit_train(); });
}

void OnOffSource::emit_train() {
  const auto bytes = workload_.sample_train_bytes();
  ++trains_emitted_;
  bytes_emitted_ += bytes;
  sender_->write(bytes);
}

}  // namespace trim::http
