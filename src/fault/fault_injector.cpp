#include "fault/fault_injector.hpp"

#include <string>

#include "net/link.hpp"
#include "net/routing.hpp"
#include "obs/telemetry.hpp"
#include "sim/config_error.hpp"

namespace trim::fault {

namespace {

// Per-fault-class stream tags. Streams are forked as mix(seed ^ tag) so a
// profile's seed fully determines every stream, independently.
constexpr std::uint64_t kLossTag = 0x10551055'10551055ull;
constexpr std::uint64_t kCtrlLossTag = 0x5f5c741f'5f5c741full;
constexpr std::uint64_t kGilbertTag = 0x6e6b6572'67696c62ull;
constexpr std::uint64_t kCorruptTag = 0xc0441291'c0441291ull;
constexpr std::uint64_t kDuplicateTag = 0xd0bb1ed0'bb1ed0bbull;
constexpr std::uint64_t kReorderTag = 0x4e04de4e'04de4e04ull;
constexpr std::uint64_t kJitterTag = 0x31773e43'31773e43ull;

std::uint64_t stream_seed(std::uint64_t seed, std::uint64_t tag) {
  return net::mix64(seed ^ tag);
}

void check_probability(double p, const char* name) {
  if (p < 0.0 || p > 1.0) {
    throw ConfigError{"probability out of range", std::string("FaultConfig::") + name,
                      "[0, 1]"};
  }
}

}  // namespace

void validate(const FaultConfig& cfg) {
  check_probability(cfg.loss_probability, "loss_probability");
  check_probability(cfg.ctrl_loss_probability, "ctrl_loss_probability");
  check_probability(cfg.gilbert.p_good_to_bad, "gilbert.p_good_to_bad");
  check_probability(cfg.gilbert.p_bad_to_good, "gilbert.p_bad_to_good");
  check_probability(cfg.gilbert.loss_good, "gilbert.loss_good");
  check_probability(cfg.gilbert.loss_bad, "gilbert.loss_bad");
  check_probability(cfg.corrupt_probability, "corrupt_probability");
  check_probability(cfg.duplicate_probability, "duplicate_probability");
  check_probability(cfg.reorder_probability, "reorder_probability");
  if (cfg.reorder_probability > 0.0 && cfg.reorder_extra_max <= sim::SimTime::zero()) {
    throw ConfigError{"reordering enabled without a hold-back bound",
                      "FaultConfig::reorder_extra_max", "> 0 when reorder_probability > 0"};
  }
  if (cfg.jitter_max < sim::SimTime::zero() ||
      cfg.added_delay < sim::SimTime::zero()) {
    throw ConfigError{"negative delay", "FaultConfig::jitter_max/added_delay", ">= 0"};
  }
  if (cfg.active_until <= cfg.active_from) {
    throw ConfigError{"empty active window", "FaultConfig::active_from/active_until",
                      "active_from < active_until"};
  }
  sim::SimTime prev_up = sim::SimTime::zero();
  for (std::size_t i = 0; i < cfg.flaps.size(); ++i) {
    const auto& f = cfg.flaps[i];
    if (f.up_at <= f.down_at) {
      throw ConfigError{"flap with empty outage", "FaultConfig::flaps[" +
                        std::to_string(i) + "]", "down_at < up_at"};
    }
    if (i > 0 && f.down_at < prev_up) {
      throw ConfigError{"overlapping flap schedules", "FaultConfig::flaps[" +
                        std::to_string(i) + "]", "sorted and non-overlapping"};
    }
    prev_up = f.up_at;
  }
}

FaultInjector::FaultInjector(sim::Simulator* sim, FaultConfig cfg)
    : sim_{sim},
      cfg_{std::move(cfg)},
      loss_rng_{stream_seed(cfg_.seed, kLossTag)},
      ctrl_loss_rng_{stream_seed(cfg_.seed, kCtrlLossTag)},
      gilbert_rng_{stream_seed(cfg_.seed, kGilbertTag)},
      corrupt_rng_{stream_seed(cfg_.seed, kCorruptTag)},
      duplicate_rng_{stream_seed(cfg_.seed, kDuplicateTag)},
      reorder_rng_{stream_seed(cfg_.seed, kReorderTag)},
      jitter_rng_{stream_seed(cfg_.seed, kJitterTag)} {
  if (sim_ == nullptr) throw ConfigError{"null simulator", "FaultInjector"};
  validate(cfg_);
}

FaultInjector::~FaultInjector() {
  for (auto id : flap_events_) sim_->cancel(id);
  if (link_ != nullptr) link_->set_fault_injector(nullptr);
}

void FaultInjector::attach(net::Link& link) {
  if (link_ != nullptr) {
    throw ConfigError{"injector already attached", "FaultInjector::attach(" +
                      link.name() + ")", "one injector per link"};
  }
  link_ = &link;
  link.set_fault_injector(this);
  subject_ = obs::subject_id(link.name());
  for (const auto& flap : cfg_.flaps) {
    flap_events_.push_back(sim_->schedule_at(flap.down_at, [this] {
      down_ = true;
      drops_at_down_ = stats_.link_down_drops;
      obs::emit(sim_, obs::EventKind::kFaultLinkDown, subject_);
    }));
    flap_events_.push_back(sim_->schedule_at(flap.up_at, [this] {
      down_ = false;
      ++stats_.flaps_completed;
      obs::emit(sim_, obs::EventKind::kFaultLinkUp, subject_,
                static_cast<double>(stats_.link_down_drops - drops_at_down_));
    }));
  }
}

bool FaultInjector::in_active_window() const {
  const auto now = sim_->now();
  return now >= cfg_.active_from && now < cfg_.active_until;
}

bool FaultInjector::offer(const net::Packet& p) {
  if (down_) {
    ++stats_.link_down_drops;
    return false;
  }
  if (!in_active_window()) return true;
  if (cfg_.loss_probability > 0.0 &&
      loss_rng_.uniform01() < cfg_.loss_probability) {
    ++stats_.random_losses;
    obs::emit(sim_, obs::EventKind::kFaultLoss, subject_, /*a=*/1.0,
              static_cast<double>(p.flow));
    return false;
  }
  if (cfg_.ctrl_loss_probability > 0.0 && (p.syn || p.fin || p.rst) &&
      ctrl_loss_rng_.uniform01() < cfg_.ctrl_loss_probability) {
    ++stats_.ctrl_losses;
    obs::emit(sim_, obs::EventKind::kFaultLoss, subject_, /*a=*/3.0,
              static_cast<double>(p.flow));
    return false;
  }
  if (cfg_.gilbert.enabled()) {
    // Step the chain, then draw the state's loss probability — both from
    // the Gilbert stream, so the chain's trajectory is seed-stable.
    if (gilbert_bad_) {
      if (gilbert_rng_.uniform01() < cfg_.gilbert.p_bad_to_good) gilbert_bad_ = false;
    } else {
      if (gilbert_rng_.uniform01() < cfg_.gilbert.p_good_to_bad) gilbert_bad_ = true;
    }
    const double loss = gilbert_bad_ ? cfg_.gilbert.loss_bad : cfg_.gilbert.loss_good;
    if (loss > 0.0 && gilbert_rng_.uniform01() < loss) {
      ++stats_.random_losses;
      obs::emit(sim_, obs::EventKind::kFaultLoss, subject_, /*a=*/2.0,
                static_cast<double>(p.flow));
      return false;
    }
  }
  return true;
}

sim::SimTime FaultInjector::on_deliver(net::Packet& p) {
  if (!in_active_window()) return sim::SimTime::zero();
  auto extra = cfg_.added_delay;
  if (cfg_.corrupt_probability > 0.0 &&
      corrupt_rng_.uniform01() < cfg_.corrupt_probability) {
    p.corrupted = true;
    ++stats_.corrupted;
    obs::emit(sim_, obs::EventKind::kFaultCorrupt, subject_,
              static_cast<double>(p.flow), static_cast<double>(p.seq));
  }
  if (cfg_.reorder_probability > 0.0 &&
      reorder_rng_.uniform01() < cfg_.reorder_probability) {
    const auto hold =
        reorder_rng_.uniform_time(sim::SimTime::nanos(1), cfg_.reorder_extra_max);
    extra += hold;
    ++stats_.reordered;
    obs::emit(sim_, obs::EventKind::kFaultReorder, subject_,
              static_cast<double>(p.flow), hold.to_seconds());
  }
  if (cfg_.jitter_max > sim::SimTime::zero()) {
    extra += jitter_rng_.uniform_time(sim::SimTime::zero(), cfg_.jitter_max);
  }
  return extra;
}

bool FaultInjector::duplicate_now(const net::Packet& p) {
  if (!in_active_window() || cfg_.duplicate_probability <= 0.0) return false;
  if (duplicate_rng_.uniform01() < cfg_.duplicate_probability) {
    ++stats_.duplicated;
    obs::emit(sim_, obs::EventKind::kFaultDuplicate, subject_,
              static_cast<double>(p.flow), static_cast<double>(p.seq));
    return true;
  }
  return false;
}

}  // namespace trim::fault
