// ON/OFF traffic source: emits packet trains separated by OFF gaps on one
// persistent connection — the HTTP traffic shape of Sec. II-A. The next
// train is scheduled one gap after the previous train is fully acked
// (serialized request/response exchange on a persistent connection).
#pragma once

#include <cstdint>
#include <functional>

#include "http/train_workload.hpp"
#include "sim/simulator.hpp"
#include "tcp/tcp_sender.hpp"

namespace trim::http {

class OnOffSource {
 public:
  OnOffSource(sim::Simulator* sim, tcp::TcpSender* sender, TrainWorkload workload);

  // Emit trains from `start` until `stop` (train starts after `stop` are
  // suppressed; an in-flight train completes naturally).
  void run(sim::SimTime start, sim::SimTime stop);

  std::uint64_t trains_emitted() const { return trains_emitted_; }
  std::uint64_t bytes_emitted() const { return bytes_emitted_; }

 private:
  void emit_train();
  void schedule_next(sim::SimTime at);

  sim::Simulator* sim_;
  tcp::TcpSender* sender_;
  TrainWorkload workload_;
  sim::SimTime stop_;
  std::uint64_t trains_emitted_ = 0;
  std::uint64_t bytes_emitted_ = 0;
};

}  // namespace trim::http
