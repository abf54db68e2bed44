#include "tcp/lifecycle.hpp"

#include "sim/config_error.hpp"

namespace trim::tcp {

const char* to_string(ConnState s) {
  switch (s) {
    case ConnState::kClosed: return "CLOSED";
    case ConnState::kListen: return "LISTEN";
    case ConnState::kSynSent: return "SYN_SENT";
    case ConnState::kSynRcvd: return "SYN_RCVD";
    case ConnState::kEstablished: return "ESTABLISHED";
    case ConnState::kFinWait1: return "FIN_WAIT_1";
    case ConnState::kFinWait2: return "FIN_WAIT_2";
    case ConnState::kClosing: return "CLOSING";
    case ConnState::kTimeWait: return "TIME_WAIT";
    case ConnState::kCloseWait: return "CLOSE_WAIT";
    case ConnState::kLastAck: return "LAST_ACK";
  }
  return "?";
}

void validate(const LifecycleConfig& cfg) {
  if (cfg.time_wait < sim::SimTime::zero()) {
    throw ConfigError{"negative TIME_WAIT dwell", "LifecycleConfig::time_wait",
                      ">= 0"};
  }
  if (cfg.retx_rto_initial <= sim::SimTime::zero()) {
    throw ConfigError{"non-positive control RTO",
                      "LifecycleConfig::retx_rto_initial", "> 0"};
  }
  if (cfg.retx_rto_max < cfg.retx_rto_initial) {
    throw ConfigError{"control RTO cap below its initial value",
                      "LifecycleConfig::retx_rto_max", ">= retx_rto_initial"};
  }
}

}  // namespace trim::tcp
