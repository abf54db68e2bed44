#include "net/queue.hpp"

#include "sim/config_error.hpp"

#include <stdexcept>

#include "obs/telemetry.hpp"

namespace trim::net {

bool Queue::dequeue_into(Packet& out) {
  if (fifo_.empty()) return false;
  out = std::move(fifo_.front());
  fifo_.pop_front();
  bytes_ -= out.size_bytes();
  ++stats_.dequeued;
  record_occupancy();
  return true;
}

std::optional<Packet> Queue::dequeue() {
  // In-place default construction: dequeue_into move-assigns the head
  // packet straight into the optional's storage (no throwaway temporary).
  std::optional<Packet> p{std::in_place};
  if (!dequeue_into(*p)) return std::nullopt;
  return p;
}

void Queue::push_back(Packet p) {
  bytes_ += p.size_bytes();
  ++stats_.enqueued;
  fifo_.push_back(std::move(p));
  record_occupancy();
  if (clock_ != nullptr) {
    // An accepted packet ends any running drop episode: the episode is the
    // maximal run of rejections with no accept in between.
    if (in_drop_episode_) {
      in_drop_episode_ = false;
      obs::emit(clock_, obs::EventKind::kQueueDropEpisodeEnd, obs_subject_,
                static_cast<double>(episode_drops_),
                (clock_->now() - episode_start_).to_seconds());
    }
    if (fifo_.size() > hwm_packets_) {
      hwm_packets_ = fifo_.size();
      obs::emit(clock_, obs::EventKind::kQueueHighWatermark, obs_subject_,
                static_cast<double>(fifo_.size()), static_cast<double>(bytes_));
    }
  }
}

void Queue::drop(const Packet& p) {
  ++stats_.dropped;
  stats_.bytes_dropped += p.size_bytes();
  if (clock_ != nullptr) {
    if (auto* t = obs::telemetry_of(clock_)) t->core().queue_drops->inc();
    if (!in_drop_episode_) {
      in_drop_episode_ = true;
      episode_drops_ = 0;
      episode_start_ = clock_->now();
      obs::emit(clock_, obs::EventKind::kQueueDropEpisodeStart, obs_subject_,
                static_cast<double>(fifo_.size()), static_cast<double>(bytes_));
    }
    ++episode_drops_;
  }
  record_occupancy();
}

void Queue::record_occupancy() {
  if (trace_ != nullptr && clock_ != nullptr) {
    trace_->record(clock_->now(), static_cast<double>(fifo_.size()));
  }
}

DropTailQueue::DropTailQueue(QueueConfig cfg) : cfg_{cfg} {
  if (cfg_.capacity_packets == 0 && cfg_.capacity_bytes == 0) {
    // An unlimited queue is legal (host NIC side), nothing to validate.
  }
  // The ring grows on demand to peak occupancy and then keeps its
  // capacity, so steady state is allocation-free without pre-sizing.
  // (Eagerly reserving capacity_packets here would pin the full buffer
  // in every queue of a large fabric — tens of MB of RSS across
  // thousands of mostly-idle ports.)
}

bool DropTailQueue::has_room(const Packet& p) const {
  if (cfg_.capacity_packets != 0 && fifo_.size() >= cfg_.capacity_packets) return false;
  if (cfg_.capacity_bytes != 0 && bytes_ + p.size_bytes() > cfg_.capacity_bytes) return false;
  return true;
}

bool DropTailQueue::enqueue(Packet p) {
  if (!has_room(p)) {
    drop(p);
    return false;
  }
  push_back(std::move(p));
  return true;
}

EcnDropTailQueue::EcnDropTailQueue(QueueConfig cfg) : DropTailQueue{cfg} {
  if (!cfg.ecn_enabled()) {
    throw ConfigError{"no ECN threshold configured", "EcnDropTailQueue",
                      "ecn_threshold_packets or ecn_threshold_bytes > 0"};
  }
}

bool EcnDropTailQueue::enqueue(Packet p) {
  if (!has_room(p)) {
    drop(p);
    return false;
  }
  // DCTCP instantaneous marking: compare occupancy *at arrival* against K.
  const bool over_pkts = cfg_.ecn_threshold_packets != 0 &&
                         fifo_.size() >= cfg_.ecn_threshold_packets;
  const bool over_bytes = cfg_.ecn_threshold_bytes != 0 &&
                          bytes_ + p.size_bytes() > cfg_.ecn_threshold_bytes;
  if ((over_pkts || over_bytes) && p.ecn == EcnCodepoint::kEct) {
    p.ecn = EcnCodepoint::kCe;
    ++stats_.marked_ce;
  }
  push_back(std::move(p));
  return true;
}

std::unique_ptr<Queue> make_queue(const QueueConfig& cfg) {
  if (cfg.ecn_enabled()) return std::make_unique<EcnDropTailQueue>(cfg);
  return std::make_unique<DropTailQueue>(cfg);
}

}  // namespace trim::net
