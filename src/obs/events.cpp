#include "obs/events.hpp"

namespace trim::obs {

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kTrimGapDetected: return "trim.gap_detected";
    case EventKind::kTrimProbeEnter: return "trim.probe_enter";
    case EventKind::kTrimProbeSent: return "trim.probe_sent";
    case EventKind::kTrimProbeAck: return "trim.probe_ack";
    case EventKind::kTrimProbeTimeout: return "trim.probe_timeout";
    case EventKind::kTrimResumeEq1: return "trim.resume_eq1";
    case EventKind::kTrimQueueCutEq3: return "trim.queue_cut_eq3";
    case EventKind::kTrimKUpdate: return "trim.k_update";
    case EventKind::kRtoArmed: return "tcp.rto_armed";
    case EventKind::kRtoFired: return "tcp.rto_fired";
    case EventKind::kRtoBackoff: return "tcp.rto_backoff";
    case EventKind::kFastRetransmit: return "tcp.fast_retransmit";
    case EventKind::kQueueHighWatermark: return "queue.high_watermark";
    case EventKind::kQueueDropEpisodeStart: return "queue.drop_episode_start";
    case EventKind::kQueueDropEpisodeEnd: return "queue.drop_episode_end";
    case EventKind::kFaultLoss: return "fault.loss";
    case EventKind::kFaultLinkDown: return "fault.link_down";
    case EventKind::kFaultLinkUp: return "fault.link_up";
    case EventKind::kFaultCorrupt: return "fault.corrupt";
    case EventKind::kFaultDuplicate: return "fault.duplicate";
    case EventKind::kFaultReorder: return "fault.reorder";
    case EventKind::kLinkEnqueued: return "link.enqueued";
    case EventKind::kLinkDropped: return "link.dropped";
    case EventKind::kLinkDelivered: return "link.delivered";
    case EventKind::kConnSynSent: return "conn.syn_sent";
    case EventKind::kConnEstablished: return "conn.established";
    case EventKind::kConnStateChange: return "conn.state_change";
    case EventKind::kConnClosed: return "conn.closed";
    case EventKind::kSynRetx: return "conn.syn_retx";
    case EventKind::kFinRetx: return "conn.fin_retx";
    case EventKind::kRstSent: return "conn.rst_sent";
    case EventKind::kChallengeAck: return "conn.challenge_ack";
    case EventKind::kBacklogDrop: return "conn.backlog_drop";
    case EventKind::kPortExhausted: return "conn.port_exhausted";
    case EventKind::kConnTimeWaitEnter: return "conn.time_wait_enter";
    case EventKind::kConnTimeWaitExpire: return "conn.time_wait_expire";
    case EventKind::kPortExhaustedEnd: return "conn.port_exhausted_end";
    case EventKind::kShardWindowAdvance: return "shard.window_advance";
    case EventKind::kShardMailboxFlush: return "shard.mailbox_flush";
  }
  return "?";
}

}  // namespace trim::obs
