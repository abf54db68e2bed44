// perfbench — the measuring harness of the repository benchmark.
//
// Builds one workload from the simulator's public layer calls — exp::World,
// topo::build_two_tier / build_fat_tree, topo::shard_network,
// core::make_protocol_flow, World::run_until, World::telemetry_snapshot and
// the World destructor — and times each call from outside, reading every
// layer's public counters at the same boundaries. Nothing under src/ is
// instrumented for it.
//
//   perfbench --workload incast_trim|fattree_sharded|storm_churn
//             --seed N [--seconds S] [--scale full|quick]
//             [--mode timed|traced|reference|invariants]
//             [--trace-out FILE] [--corrupt-digest]
//
// Modes:
//   timed       repeats the workload until --seconds have elapsed (at least
//               three repetitions); each repetition calls run_until once.
//   traced      alternates untimed-style and traced repetitions; a traced
//               one splits sim.run into fixed simulated slices, samples the
//               counters at every slice boundary and keeps its spans, which
//               are written to --trace-out as Chrome trace-event JSON.
//   reference   one run through the scenario's own entry point
//               (run_large_scale / run_fattree / run_connection_storm), for
//               the digest that the layer-built repetitions must match.
//   invariants  the entry point again with the invariant checker on; the
//               caller sets TRIM_CHECK_INVARIANTS=1.
//
// Prints one JSON object on stdout. perfbench/run.py turns it into the
// benchmark's metrics and checks.
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "core/sender_factory.hpp"
#include "exp/connection_storm_scenario.hpp"
#include "exp/experiment.hpp"
#include "exp/fattree_scenario.hpp"
#include "exp/large_scale_scenario.hpp"
#include "http/lpt_source.hpp"
#include "http/train_workload.hpp"
#include "net/routing.hpp"
#include "obs/events.hpp"
#include "stats/summary.hpp"
#include "tcp/rst_responder.hpp"
#include "topo/fat_tree.hpp"
#include "topo/partition.hpp"
#include "topo/two_tier.hpp"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

using namespace trim;

namespace {

using Clock = std::chrono::steady_clock;

// Pinned engine: every World is built with these, never from TRIM_* knobs.
// They equal the knobs' defaults, so the scenario entry points (which read
// the knobs) run the same program when the environment is clean.
constexpr sim::SchedulerKind kScheduler = sim::SchedulerKind::kWheel;
constexpr sim::SyncMode kSync = sim::SyncMode::kMatrix;

[[noreturn]] void die(const std::string& msg, int code = 2) {
  std::fprintf(stderr, "perfbench: %s\n", msg.c_str());
  std::exit(code);
}

double rss_mb() {
  long pages = 0, resident = 0;
  if (FILE* f = std::fopen("/proc/self/statm", "r")) {
    if (std::fscanf(f, "%ld %ld", &pages, &resident) != 2) resident = 0;
    std::fclose(f);
  }
  return static_cast<double>(resident) * static_cast<double>(sysconf(_SC_PAGESIZE)) /
         (1024.0 * 1024.0);
}

// Peak resident set of this process: VmHWM, not getrusage's ru_maxrss,
// which Linux carries across execve (it would report the launching
// process's peak when that is larger).
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::strtod(line.c_str() + 6, nullptr) / 1024.0;
  }
  die("no VmHWM in /proc/self/status");
}

// ---- spans ---------------------------------------------------------------

struct Span {
  std::string name;
  int parent = -1;  // index into the same repetition's spans; -1 = root
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  double seconds() const { return static_cast<double>(end_ns - start_ns) * 1e-9; }
};

struct CounterSample {
  std::int64_t at_ns = 0;
  std::string name;
  double value = 0.0;
};

using Counts = std::map<std::string, double>;

// One repetition's timeline. The root span ("rep") opens at construction;
// every layer call opens a child of it. Untraced repetitions record the
// same handful of spans (a few clock reads), so setup/run/wall come from
// one code path in both modes; only traced ones slice sim.run.
class Rep {
 public:
  Rep(Clock::time_point epoch, bool traced, sim::SimTime slice)
      : epoch_{epoch}, traced_{traced}, slice_{slice} {
    spans.push_back({"rep", -1, now_ns(), 0});
  }

  bool traced() const { return traced_; }

  int open(const char* name, int parent = 0) {
    spans.push_back({name, parent, now_ns(), 0});
    return static_cast<int>(spans.size()) - 1;
  }
  void close(int id) { spans[static_cast<std::size_t>(id)].end_ns = now_ns(); }
  void finish() { spans.front().end_ns = now_ns(); }

  // sim.run: one run_until call untraced; fixed simulated slices traced,
  // with the counters sampled at every slice boundary.
  void run(exp::World& world, sim::SimTime horizon) {
    if (traced_) {
      counts["mem.rss_setup_mb"] = rss_mb();
      pending_peak_ = world.engine.pending_events();
    }
    run_span_ = open("sim.run");
    if (!traced_) {
      world.run_until(horizon);
    } else {
      for (sim::SimTime until = slice_;; until += slice_) {
        if (until > horizon) until = horizon;
        const int s = open("sim.slice", run_span_);
        world.run_until(until);
        close(s);
        sample(world, spans.back().end_ns);
        if (until == horizon) break;
      }
      counts["sim.pending_peak"] = static_cast<double>(pending_peak_);
    }
    close(run_span_);
  }

  double setup_s() const {
    return static_cast<double>(spans[static_cast<std::size_t>(run_span_)].start_ns -
                               spans.front().start_ns) *
           1e-9;
  }
  double run_s() const { return spans[static_cast<std::size_t>(run_span_)].seconds(); }
  double wall_s() const { return spans.front().seconds(); }

  std::vector<Span> spans;
  std::vector<CounterSample> samples;
  Counts counts;

 private:
  std::int64_t now_ns() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - epoch_)
        .count();
  }

  void sample(exp::World& world, std::int64_t at) {
    std::uint64_t pkts = 0;
    for (const auto& link : world.network.links()) pkts += link->packets_delivered();
    std::uint64_t segments = 0, acks = 0;
    for (const auto& t : world.shard_telemetry) {
      segments += t->core().segments_sent->value;
      acks += t->core().acks_processed->value;
    }
    const std::size_t pending = world.engine.pending_events();
    pending_peak_ = std::max(pending_peak_, pending);
    const std::pair<const char*, double> values[] = {
        {"sim.events", static_cast<double>(world.engine.events_dispatched())},
        {"sim.pending", static_cast<double>(pending)},
        {"net.pkts", static_cast<double>(pkts)},
        {"net.drops", static_cast<double>(world.network.total_drops())},
        {"tcp.segments", static_cast<double>(segments)},
        {"tcp.acks", static_cast<double>(acks)},
        {"shard.windows", static_cast<double>(world.engine.windows_run())},
    };
    for (const auto& [name, value] : values) samples.push_back({at, name, value});
  }

  Clock::time_point epoch_;
  bool traced_;
  sim::SimTime slice_;
  int run_span_ = 0;
  std::size_t pending_peak_ = 0;
};

// ---- outputs and digests -------------------------------------------------

// What a repetition simulated. `values` are checks, never scored: a pure
// performance change must leave every one of them bit-identical.
struct Outputs {
  std::vector<std::pair<std::string, double>> values;
  std::uint64_t events = 0;  // events dispatched (0 where not exposed)
  obs::EventCounts telemetry;
  bool complete = false;
};

// Output values are hashed by their exact bits, in the workload's fixed order.
std::uint64_t digest(const Outputs& out) {
  std::uint64_t h = 0;
  auto add = [&h](std::uint64_t v) { h = net::mix64(h ^ v); };
  for (const auto& kv : out.values) add(std::bit_cast<std::uint64_t>(kv.second));
  add(out.events);
  for (std::uint64_t n : out.telemetry.by_kind) add(n);
  return h;
}

// Transport totals over a set of senders (read before they are destroyed).
struct FlowTotals {
  std::uint64_t flows = 0, messages = 0, messages_done = 0;
  std::uint64_t data_packets = 0, data_bytes = 0, retransmitted = 0;
  std::uint64_t goodput_bytes = 0, timeouts = 0, fast_retx = 0;
  std::uint64_t probe_rounds = 0, delay_backoffs = 0;

  void add(const stats::FlowStats& s) {
    ++flows;
    messages += s.messages().size();
    messages_done += s.messages().size() - s.incomplete_messages();
    data_packets += s.data_packets_sent;
    data_bytes += s.data_bytes_sent;
    retransmitted += s.retransmitted_packets;
    goodput_bytes += s.goodput_bytes;
    timeouts += s.timeouts;
    fast_retx += s.fast_retransmits;
    probe_rounds += s.probe_rounds;
    delay_backoffs += s.delay_backoffs;
  }
};

double ratio(double num, double den) { return den > 0.0 ? num / den : 0.0; }

// Layer counters every workload shares, read after the run (and, for the
// obs layer, from the snapshot). Keys are the benchmark's per-layer names.
void world_counts(const exp::World& w, const obs::TelemetrySnapshot& snap,
                  const FlowTotals& ft, Counts& c) {
  const auto& eng = w.engine;
  c["topo.nodes"] = static_cast<double>(w.network.node_count());
  c["topo.links"] = static_cast<double>(w.network.links().size());
  c["topo.cut_links"] = static_cast<double>(eng.cut_links());

  c["sim.events"] = static_cast<double>(eng.events_dispatched());

  const double elapsed_s = static_cast<double>(eng.elapsed_wall_ns()) * 1e-9;
  double stall_sum = 0.0, stall_max = 0.0;
  for (int i = 0; i < eng.shard_count(); ++i) {
    const double s = static_cast<double>(eng.shard_stats(i).stall_wall_ns) * 1e-9;
    stall_sum += s;
    stall_max = std::max(stall_max, s);
  }
  c["shard.windows"] = static_cast<double>(eng.windows_run());
  c["shard.windows_skipped"] = static_cast<double>(eng.windows_skipped());
  c["shard.posts"] = static_cast<double>(eng.posts_flushed());
  c["shard.window_rate"] = ratio(static_cast<double>(eng.windows_run()), elapsed_s);
  c["shard.stall_frac"] = ratio(stall_sum, elapsed_s * eng.shard_count());
  c["shard.stall_frac_max"] = ratio(stall_max, elapsed_s);
  c["shard.imbalance"] = eng.events_imbalance();

  std::uint64_t pkts = 0, bytes = 0;
  for (const auto& link : w.network.links()) {
    pkts += link->packets_delivered();
    bytes += link->bytes_delivered();
  }
  const auto drops = w.network.total_drops();
  c["net.pkts"] = static_cast<double>(pkts);
  c["net.bytes"] = static_cast<double>(bytes);
  c["net.drops"] = static_cast<double>(drops);
  // Offered = every packet a link took or refused (per hop).
  c["net.drop_ratio"] = ratio(static_cast<double>(drops), static_cast<double>(pkts + drops));

  std::uint64_t segments = 0, acks = 0, staged_dropped = 0;
  for (const auto& t : w.shard_telemetry) {
    segments += t->core().segments_sent->value;
    acks += t->core().acks_processed->value;
    staged_dropped += t->staged_dropped();
  }
  c["tcp.segments"] = static_cast<double>(segments);
  c["tcp.acks"] = static_cast<double>(acks);
  c["tcp.retx_ratio"] =
      ratio(static_cast<double>(ft.retransmitted), static_cast<double>(ft.data_packets));
  c["tcp.goodput_ratio"] =
      ratio(static_cast<double>(ft.goodput_bytes), static_cast<double>(ft.data_bytes));
  c["tcp.timeouts"] = static_cast<double>(ft.timeouts);
  c["tcp.fast_retx"] = static_cast<double>(ft.fast_retx);

  c["core.flows"] = static_cast<double>(ft.flows);
  c["core.probe_rounds"] = static_cast<double>(ft.probe_rounds);
  c["core.eq3_cuts"] = static_cast<double>(ft.delay_backoffs);
  c["core.eq1_resumes"] =
      static_cast<double>(snap.events[obs::EventKind::kTrimResumeEq1]);
  c["core.probe_timeouts"] =
      static_cast<double>(snap.events[obs::EventKind::kTrimProbeTimeout]);

  c["http.trains"] = static_cast<double>(ft.messages);
  c["http.trains_done"] = static_cast<double>(ft.messages_done);

  std::size_t arena_bytes = 0, arena_objects = 0, hot_slots = 0;
  for (const auto& m : w.shard_memory) {
    arena_bytes += m->arena.bytes_reserved();
    arena_objects += m->arena.object_count();
    hot_slots += m->hot.capacity();
  }
  c["mem.arena_mb"] = static_cast<double>(arena_bytes) / (1024.0 * 1024.0);
  c["mem.arena_objects"] = static_cast<double>(arena_objects);
  c["mem.hot_slots"] = static_cast<double>(hot_slots);

  c["obs.events"] = static_cast<double>(snap.events.total());
  c["obs.staged_dropped"] = static_cast<double>(staged_dropped);
  c["obs.episodes"] = static_cast<double>(snap.episodes.size());

  // Connection lifecycle: only the storm opens connections; it overwrites.
  for (const char* k : {"tcp.conns_attempted", "tcp.conns_established", "tcp.syn_retx",
                        "tcp.fin_retx", "tcp.rst_sent", "tcp.backlog_drops",
                        "tcp.port_dry"}) {
    c.emplace(k, 0.0);
  }
}

// ---- workloads -----------------------------------------------------------

enum class Workload { kIncast, kFattree, kStorm };

struct Spec {
  Workload kind = Workload::kIncast;
  exp::LargeScaleConfig incast;
  exp::FattreeConfig fattree;
  exp::ConnectionStormConfig storm;
  sim::SimTime slice;  // traced runs split sim.run at this simulated period
  int shards = 1;
};

Spec make_spec(const std::string& name, std::uint64_t seed, bool quick) {
  Spec s;
  if (name == "incast_trim") {
    // Fig. 8 two-tier incast at 4x the paper's largest size: 100 ToR x 42
    // servers (200 long + 4000 short trains) into one front end, TCP-TRIM,
    // serial engine.
    s.kind = Workload::kIncast;
    auto& c = s.incast;
    c.protocol = tcp::Protocol::kTrim;
    c.num_switches = quick ? 5 : 100;
    c.servers_per_switch = 42;
    c.lpt_servers_per_switch = 2;
    c.spacing = exp::SptSpacing::kUniform;
    c.spt_window = sim::SimTime::seconds(quick ? 0.2 : 0.5);
    c.drain = sim::SimTime::seconds(quick ? 0.3 : 0.7);
    c.min_rto = sim::SimTime::millis(20);
    c.seed = seed;
    c.shards = 1;
    c.sync_mode = kSync;
    s.slice = sim::SimTime::millis(5);
  } else if (name == "fattree_sharded") {
    // Fig. 12 fat-tree, k=8 (128 servers, 1 MB each on a persistent
    // connection), Reno, two shards with matrix sync.
    s.kind = Workload::kFattree;
    auto& c = s.fattree;
    c.protocol = tcp::Protocol::kReno;
    c.pods = quick ? 4 : 8;
    c.run_until = sim::SimTime::seconds(quick ? 1.5 : 3.0);
    c.seed = seed;
    c.shards = 2;
    c.sync_mode = kSync;
    s.slice = sim::SimTime::millis(100);
  } else if (name == "storm_churn") {
    // Connection storm: Poisson arrivals at 4000/s from 20 clients through
    // the front end's listen backlog; 10-segment request, FIN close,
    // 100 ms TIME_WAIT. Reno, serial engine.
    s.kind = Workload::kStorm;
    auto& c = s.storm;
    c.protocol = tcp::Protocol::kReno;
    c.num_switches = 2;
    c.clients_per_switch = 10;
    c.connections_total = quick ? 1500 : 60000;
    c.arrival_rate_cps = 4000.0;
    c.request_bytes = 10 * 1460ull;
    c.run_until = sim::SimTime::seconds(quick ? 1.5 : 17.0);
    c.min_rto = sim::SimTime::millis(50);
    c.max_rto = sim::SimTime::millis(400);
    c.lifecycle.retx_rto_initial = sim::SimTime::millis(50);
    c.lifecycle.retx_rto_max = sim::SimTime::millis(400);
    c.lifecycle.time_wait = sim::SimTime::millis(100);
    c.seed = seed;
    c.shards = 1;
    c.scheduler = kScheduler;
    s.slice = sim::SimTime::millis(100);
  } else {
    die("unknown workload '" + name + "'");
  }
  s.shards = s.kind == Workload::kFattree ? s.fattree.shards : 1;
  return s;
}

// incast_trim, built as run_large_scale builds it.
Outputs incast_rep(const exp::LargeScaleConfig& cfg, Rep& rep) {
  int id = rep.open("exp.world");
  auto world = std::make_unique<exp::World>(cfg.shards, kScheduler, cfg.sync_mode);
  rep.close(id);
  exp::World& w = *world;

  id = rep.open("topo.build");
  topo::TwoTierConfig topo_cfg;
  topo_cfg.num_switches = cfg.num_switches;
  topo_cfg.servers_per_switch = cfg.servers_per_switch;
  topo_cfg.switch_queue =
      exp::switch_queue_for(cfg.protocol, topo_cfg.switch_buffer_pkts, topo_cfg.edge_bps);
  const auto topo = topo::build_two_tier(w.network, topo_cfg);
  rep.close(id);

  id = rep.open("topo.partition");
  topo::shard_network(w.network, w.engine);
  rep.close(id);

  id = rep.open("core.flow_setup");
  sim::Rng rng{cfg.seed};
  const auto opts = exp::default_options(cfg.protocol, topo_cfg.edge_bps, cfg.min_rto);
  const auto run_until = cfg.spt_window + cfg.drain;
  auto size_cdf = http::TrainWorkload::default_size_cdf();
  std::vector<tcp::Flow> flows;
  std::vector<std::unique_ptr<http::LptSource>> lpt_sources;
  std::vector<tcp::TcpSender*> spt_senders;
  for (int s = 0; s < cfg.num_switches; ++s) {
    for (int h = 0; h < cfg.servers_per_switch; ++h) {
      auto* server = topo.servers[s][h];
      flows.push_back(core::make_protocol_flow(w.network, *server, *topo.front_end,
                                               cfg.protocol, opts));
      auto* sender = flows.back().sender.get();
      if (h < cfg.lpt_servers_per_switch) {
        lpt_sources.push_back(
            std::make_unique<http::LptSource>(server->simulator(), sender, 512 * 1024));
        lpt_sources.back()->run(sim::SimTime::zero(), run_until);
        continue;
      }
      const auto at = rng.uniform_time(sim::SimTime::zero(), cfg.spt_window);
      const auto bytes = static_cast<std::uint64_t>(std::max(size_cdf.sample(rng), 512.0));
      spt_senders.push_back(sender);
      server->simulator()->schedule_at(at, [sender, bytes] { sender->write(bytes); });
    }
  }
  rep.close(id);

  rep.run(w, run_until);

  id = rep.open("obs.snapshot");
  const auto snap = w.telemetry_snapshot();
  rep.close(id);

  // Result aggregation (root self time), exactly as the scenario does it.
  stats::Summary summary;
  std::uint64_t total = 0, timeouts = 0;
  for (auto* sender : spt_senders) {
    for (const auto& m : sender->stats().messages()) {
      if (http::TrainWorkload::is_long_train(m.bytes)) continue;
      ++total;
      if (m.done()) summary.add(m.completion_time().to_millis());
    }
    timeouts += sender->stats().timeouts;
  }
  Outputs out;
  out.values = {{"spt_act_ms", summary.empty() ? 0.0 : summary.mean()},
                {"spt_max_ms", summary.empty() ? 0.0 : summary.max()},
                {"spt_completed", static_cast<double>(summary.count())},
                {"spt_total", static_cast<double>(total)},
                {"spt_timeouts", static_cast<double>(timeouts)},
                {"drops", static_cast<double>(w.network.total_drops())}};
  out.events = w.engine.events_dispatched();
  out.telemetry = snap.events;
  out.complete = total > 0 && summary.count() == total;
  FlowTotals ft;
  for (const auto& f : flows) ft.add(f.sender->stats());
  world_counts(w, snap, ft, rep.counts);

  id = rep.open("exp.teardown");
  lpt_sources.clear();
  flows.clear();
  world.reset();
  rep.close(id);
  return out;
}

Outputs incast_reference(const exp::LargeScaleConfig& cfg) {
  const auto r = exp::run_large_scale(cfg);
  Outputs out;
  out.values = {{"spt_act_ms", r.spt_act_ms},
                {"spt_max_ms", r.spt_max_ms},
                {"spt_completed", static_cast<double>(r.completed_spts)},
                {"spt_total", static_cast<double>(r.total_spts)},
                {"spt_timeouts", static_cast<double>(r.spt_timeouts)},
                {"drops", static_cast<double>(r.drops)}};
  out.events = r.events_dispatched;
  out.telemetry = r.telemetry.events;
  out.complete = r.total_spts > 0 && r.completed_spts == r.total_spts;
  return out;
}

// fattree_sharded, built as run_fattree builds it.
Outputs fattree_rep(const exp::FattreeConfig& cfg, Rep& rep) {
  int id = rep.open("exp.world");
  auto world = std::make_unique<exp::World>(cfg.shards, kScheduler, cfg.sync_mode);
  rep.close(id);
  exp::World& w = *world;

  id = rep.open("topo.build");
  topo::FatTreeConfig topo_cfg;
  topo_cfg.k = cfg.pods;
  topo_cfg.switch_queue = exp::switch_queue_bytes_for(
      cfg.protocol, topo_cfg.switch_buffer_bytes, topo_cfg.link_bps, 1460);
  const auto topo = topo::build_fat_tree(w.network, topo_cfg);
  rep.close(id);

  id = rep.open("topo.partition");
  topo::shard_network(w.network, w.engine);
  rep.close(id);

  id = rep.open("core.flow_setup");
  sim::Rng rng{cfg.seed};
  const auto opts = exp::default_options(cfg.protocol, topo_cfg.link_bps, cfg.min_rto);
  const int n = static_cast<int>(topo.hosts.size());
  std::vector<tcp::Flow> flows;
  std::vector<std::uint64_t> big_ids(static_cast<std::size_t>(n), 0);
  for (int i = 0; i < n; ++i) {
    int sink = static_cast<int>(rng.uniform_int(0, n - 2));
    if (sink >= i) ++sink;
    flows.push_back(core::make_protocol_flow(w.network, *topo.hosts[i], *topo.hosts[sink],
                                             cfg.protocol, opts));
    auto* sender = flows.back().sender.get();
    sim::Simulator* host_sim = topo.hosts[i]->simulator();
    std::uint64_t sent = 0;
    sim::SimTime t = cfg.small_start;
    for (int o = 0; o < cfg.small_objects; ++o) {
      const auto bytes = static_cast<std::uint64_t>(rng.uniform_int(2048, 6144));
      sent += bytes;
      host_sim->schedule_at(t, [sender, bytes] { sender->write(bytes); });
      t += cfg.small_spacing;
    }
    const std::uint64_t big = cfg.total_bytes > sent ? cfg.total_bytes - sent : 1;
    auto* id_slot = &big_ids[static_cast<std::size_t>(i)];
    host_sim->schedule_at(cfg.big_start,
                          [sender, big, id_slot] { *id_slot = sender->write(big); });
  }
  rep.close(id);

  rep.run(w, cfg.run_until);

  id = rep.open("obs.snapshot");
  const auto snap = w.telemetry_snapshot();
  rep.close(id);

  stats::Summary summary;
  std::uint64_t timeouts = 0;
  for (int i = 0; i < n; ++i) {
    const auto& stats = flows[static_cast<std::size_t>(i)].sender->stats();
    timeouts += stats.timeouts;
    const auto& big = stats.messages().at(big_ids[static_cast<std::size_t>(i)]);
    if (big.done()) summary.add((*big.completed - cfg.small_start).to_millis());
  }
  Outputs out;
  out.values = {{"mean_completion_ms", summary.empty() ? 0.0 : summary.mean()},
                {"max_completion_ms", summary.empty() ? 0.0 : summary.max()},
                {"servers_completed", static_cast<double>(summary.count())},
                {"servers_total", static_cast<double>(n)},
                {"timeouts", static_cast<double>(timeouts)},
                {"drops", static_cast<double>(w.network.total_drops())}};
  out.events = w.engine.events_dispatched();
  out.telemetry = snap.events;
  out.complete = n > 0 && summary.count() == static_cast<std::uint64_t>(n);
  FlowTotals ft;
  for (const auto& f : flows) ft.add(f.sender->stats());
  world_counts(w, snap, ft, rep.counts);

  id = rep.open("exp.teardown");
  flows.clear();
  world.reset();
  rep.close(id);
  return out;
}

Outputs fattree_reference(const exp::FattreeConfig& cfg) {
  const auto r = exp::run_fattree(cfg);
  Outputs out;
  out.values = {{"mean_completion_ms", r.mean_completion_ms},
                {"max_completion_ms", r.max_completion_ms},
                {"servers_completed", static_cast<double>(r.completed_servers)},
                {"servers_total", static_cast<double>(r.total_servers)},
                {"timeouts", static_cast<double>(r.timeouts)},
                {"drops", static_cast<double>(r.drops)}};
  out.events = r.events_dispatched;
  out.telemetry = r.telemetry.events;
  out.complete = r.total_servers > 0 && r.completed_servers == r.total_servers;
  return out;
}

struct StormTally {
  std::uint64_t attempted = 0, no_port = 0, established = 0, graceful = 0, aborted = 0;
  std::uint64_t stuck = 0, syn_retx = 0, fin_retx = 0, rst_sent = 0;
  double setup_latency_sum_s = 0.0;
};

std::vector<std::pair<std::string, double>> storm_values(const StormTally& t,
                                                         std::uint64_t backlog_drops,
                                                         std::uint64_t backlog_rsts,
                                                         std::uint64_t queue_drops) {
  return {{"conns_attempted", static_cast<double>(t.attempted)},
          {"no_port_skips", static_cast<double>(t.no_port)},
          {"conns_established", static_cast<double>(t.established)},
          {"graceful_closes", static_cast<double>(t.graceful)},
          {"aborted_closes", static_cast<double>(t.aborted)},
          {"stuck_connections", static_cast<double>(t.stuck)},
          {"setup_latency_sum_s", t.setup_latency_sum_s},
          {"syn_retx", static_cast<double>(t.syn_retx)},
          {"fin_retx", static_cast<double>(t.fin_retx)},
          {"rst_sent", static_cast<double>(t.rst_sent)},
          {"backlog_drops", static_cast<double>(backlog_drops)},
          {"backlog_rsts", static_cast<double>(backlog_rsts)},
          {"queue_drops", static_cast<double>(queue_drops)}};
}

// One storm connection; reaped (endpoints destroyed) once both sides are
// terminal, as in run_connection_storm.
struct Conn {
  tcp::Flow flow;
  int client = 0;
  int port = 0;
  bool sender_closed = false;
  bool sender_graceful = false;
  bool receiver_closed = false;
  bool reaped = false;
  tcp::LifecycleStats sender_stats;
  tcp::LifecycleStats receiver_stats;
};

// storm_churn, built as run_connection_storm builds it (no fault profile).
Outputs storm_rep(const exp::ConnectionStormConfig& cfg, Rep& rep) {
  int id = rep.open("exp.world");
  auto world = std::make_unique<exp::World>(cfg.shards, cfg.scheduler, kSync);
  rep.close(id);
  exp::World& w = *world;

  id = rep.open("topo.build");
  topo::TwoTierConfig topo_cfg;
  topo_cfg.num_switches = cfg.num_switches;
  topo_cfg.servers_per_switch = cfg.clients_per_switch;
  topo_cfg.switch_queue =
      exp::switch_queue_for(cfg.protocol, topo_cfg.switch_buffer_pkts, topo_cfg.edge_bps);
  const auto topo = topo::build_two_tier(w.network, topo_cfg);
  rep.close(id);

  id = rep.open("topo.partition");
  topo::shard_network(w.network, w.engine);
  rep.close(id);

  id = rep.open("core.flow_setup");
  std::vector<net::Host*> clients;
  for (const auto& group : topo.servers) clients.insert(clients.end(), group.begin(), group.end());
  auto backlog = std::make_unique<tcp::ListenQueue>(cfg.backlog);
  std::vector<std::unique_ptr<tcp::PortAllocator>> ports;
  for (net::Host* c : clients) {
    ports.push_back(std::make_unique<tcp::PortAllocator>(&w.simulator, cfg.ports));
    ports.back()->set_telemetry_subject(obs::subject_id(c->name()));
  }
  std::vector<std::unique_ptr<tcp::RstResponder>> responders;
  responders.push_back(std::make_unique<tcp::RstResponder>(topo.front_end));
  topo.front_end->set_default_agent(responders.back().get());
  for (net::Host* c : clients) {
    responders.push_back(std::make_unique<tcp::RstResponder>(c));
    c->set_default_agent(responders.back().get());
  }
  auto opts = exp::default_options(cfg.protocol, topo_cfg.edge_bps, cfg.min_rto);
  opts.tcp.max_rto = cfg.max_rto;
  opts.tcp.simulate_handshake = true;
  opts.tcp.lifecycle = cfg.lifecycle;
  tcp::ReceiverConfig rcfg;
  rcfg.expect_handshake = true;
  rcfg.lifecycle = cfg.lifecycle;

  StormTally tally;
  FlowTotals ft;
  std::vector<std::unique_ptr<Conn>> conns;
  conns.reserve(static_cast<std::size_t>(cfg.connections_total));
  auto maybe_reap = [&](Conn* c) {
    if (c->reaped || !c->sender_closed) return;
    if (!c->receiver_closed && c->flow.receiver->conn_state() != tcp::ConnState::kListen) {
      return;
    }
    c->reaped = true;
    w.simulator.schedule(sim::SimTime::zero(), [&, c] {
      c->sender_stats = c->flow.sender->lifecycle_stats();
      c->receiver_stats = c->flow.receiver->lifecycle_stats();
      ft.add(c->flow.sender->stats());
      if (c->sender_graceful) {
        ports[static_cast<std::size_t>(c->client)]->release(c->port);
      } else {
        ports[static_cast<std::size_t>(c->client)]->release_with_hold(
            c->port, cfg.lifecycle.time_wait);
      }
      c->flow.sender.reset();
      c->flow.receiver.reset();
    });
  };
  sim::Rng rng{cfg.seed};
  const auto mean_gap = sim::SimTime::seconds(1.0 / cfg.arrival_rate_cps);
  auto at = cfg.start;
  for (int i = 0; i < cfg.connections_total; ++i) {
    const auto client = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(clients.size()) - 1));
    w.simulator.schedule_at(at, [&, client] {
      const auto port = ports[client]->allocate();
      if (!port) {
        ++tally.no_port;
        obs::emit(&w.simulator, obs::EventKind::kPortExhausted,
                  obs::subject_id(clients[client]->name()),
                  static_cast<double>(ports[client]->ports_held()));
        return;
      }
      ++tally.attempted;
      auto conn = std::make_unique<Conn>();
      conn->client = static_cast<int>(client);
      conn->port = *port;
      conn->flow = core::make_protocol_flow(w.network, *clients[client], *topo.front_end,
                                            cfg.protocol, opts, rcfg);
      conn->flow.receiver->set_listen_queue(backlog.get());
      Conn* c = conn.get();
      c->flow.sender->add_closed_callback([&, c](bool graceful, sim::SimTime) {
        c->sender_closed = true;
        c->sender_graceful = graceful;
        maybe_reap(c);
      });
      c->flow.receiver->add_closed_callback([&, c](bool, sim::SimTime) {
        c->receiver_closed = true;
        maybe_reap(c);
      });
      c->flow.sender->connect();
      c->flow.sender->write(cfg.request_bytes);
      c->flow.sender->close();
      conns.push_back(std::move(conn));
    });
    at += rng.exponential_time(mean_gap);
  }
  rep.close(id);

  rep.run(w, cfg.run_until);

  id = rep.open("obs.snapshot");
  const auto snap = w.telemetry_snapshot();
  rep.close(id);

  for (const auto& c : conns) {
    if (!c->reaped) {
      ++tally.stuck;
      c->sender_stats = c->flow.sender->lifecycle_stats();
      c->receiver_stats = c->flow.receiver->lifecycle_stats();
      ft.add(c->flow.sender->stats());
    }
    if (c->sender_stats.ever_established) {
      ++tally.established;
      tally.setup_latency_sum_s += c->sender_stats.setup_latency.to_seconds();
    }
    if (c->sender_closed) {
      if (c->sender_graceful) ++tally.graceful;
      else ++tally.aborted;
    }
    tally.syn_retx += c->sender_stats.syn_retx + c->receiver_stats.synack_retx;
    tally.fin_retx += c->sender_stats.fin_retx + c->receiver_stats.fin_retx;
    tally.rst_sent += c->sender_stats.rst_sent + c->receiver_stats.rst_sent;
  }
  const auto& bl = backlog->stats();
  Outputs out;
  out.values = storm_values(tally, bl.overflow_drops, bl.overflow_rsts,
                            w.network.total_drops());
  out.events = w.engine.events_dispatched();
  out.telemetry = snap.events;
  out.complete = tally.stuck == 0 && tally.established > 0;
  world_counts(w, snap, ft, rep.counts);
  rep.counts["core.flows"] = static_cast<double>(ft.flows);
  rep.counts["tcp.conns_attempted"] = static_cast<double>(tally.attempted);
  rep.counts["tcp.conns_established"] = static_cast<double>(tally.established);
  rep.counts["tcp.syn_retx"] = static_cast<double>(tally.syn_retx);
  rep.counts["tcp.fin_retx"] = static_cast<double>(tally.fin_retx);
  rep.counts["tcp.rst_sent"] = static_cast<double>(tally.rst_sent);
  rep.counts["tcp.backlog_drops"] = static_cast<double>(bl.overflow_drops + bl.overflow_rsts);
  rep.counts["tcp.port_dry"] = static_cast<double>(tally.no_port);

  id = rep.open("exp.teardown");
  conns.clear();
  responders.clear();
  ports.clear();
  backlog.reset();
  world.reset();
  rep.close(id);
  return out;
}

// The storm's entry point does not expose its event count, so its digest
// (and the layer-built one it is compared with) leaves events out.
Outputs storm_reference(const exp::ConnectionStormConfig& cfg, std::uint64_t* violations,
                        std::uint64_t* checkpoints) {
  const auto r = exp::run_connection_storm(cfg);
  StormTally t;
  t.attempted = r.connections_attempted;
  t.no_port = r.no_port_skips;
  t.established = r.connections_established;
  t.graceful = r.graceful_closes;
  t.aborted = r.aborted_closes;
  t.stuck = r.stuck_connections;
  for (double s : r.setup_latency_s) t.setup_latency_sum_s += s;
  t.syn_retx = r.syn_retx;
  t.fin_retx = r.fin_retx;
  t.rst_sent = r.rst_sent;
  Outputs out;
  out.values = storm_values(t, r.backlog.overflow_drops, r.backlog.overflow_rsts,
                            r.queue_drops);
  out.telemetry = r.telemetry.events;
  out.complete = r.stuck_connections == 0 && r.connections_established > 0;
  *violations = r.invariant_violations;
  *checkpoints = r.invariant_checkpoints;
  return out;
}

Outputs run_rep(const Spec& spec, Rep& rep) {
  Outputs out;
  switch (spec.kind) {
    case Workload::kIncast: out = incast_rep(spec.incast, rep); break;
    case Workload::kFattree: out = fattree_rep(spec.fattree, rep); break;
    case Workload::kStorm: out = storm_rep(spec.storm, rep); break;
  }
  rep.finish();
  return out;
}

// ---- JSON ----------------------------------------------------------------

std::string num(double v) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string hex(std::uint64_t v) {
  char buf[24];
  std::snprintf(buf, sizeof buf, "\"%016llx\"", static_cast<unsigned long long>(v));
  return buf;
}

std::string quoted(const std::string& s) { return "\"" + s + "\""; }

std::string object(const std::vector<std::pair<std::string, double>>& kv) {
  std::string out = "{";
  for (const auto& [k, v] : kv) {
    if (out.size() > 1) out += ",";
    out += quoted(k) + ":" + num(v);
  }
  return out + "}";
}

std::string object(const Counts& c) {
  return object(std::vector<std::pair<std::string, double>>(c.begin(), c.end()));
}

// Chrome trace-event JSON (loadable in Perfetto / chrome://tracing): one
// complete ("X") event per span, one counter ("C") track per sampled
// counter. args.id / args.parent are per-repetition span indices.
void write_trace(const std::string& path, const std::vector<Rep>& reps,
                 const std::string& meta) {
  std::ofstream f(path);
  if (!f) die("cannot write trace file " + path);
  f << "{\"displayTimeUnit\":\"ms\",\"metadata\":" << meta << ",\"traceEvents\":[\n";
  f << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1,"
       "\"args\":{\"name\":\"perfbench\"}}";
  int index = 0;
  for (const auto& rep : reps) {
    if (!rep.traced()) continue;
    for (std::size_t i = 0; i < rep.spans.size(); ++i) {
      const Span& s = rep.spans[i];
      f << ",\n{\"name\":" << quoted(s.name) << ",\"cat\":\"layer\",\"ph\":\"X\",\"pid\":1,"
        << "\"tid\":1,\"ts\":" << num(static_cast<double>(s.start_ns) / 1e3)
        << ",\"dur\":" << num(static_cast<double>(s.end_ns - s.start_ns) / 1e3)
        << ",\"args\":{\"rep\":" << index << ",\"id\":" << i << ",\"parent\":" << s.parent
        << "}}";
    }
    for (const auto& c : rep.samples) {
      f << ",\n{\"name\":" << quoted(c.name) << ",\"ph\":\"C\",\"pid\":1,\"ts\":"
        << num(static_cast<double>(c.at_ns) / 1e3) << ",\"args\":{\"value\":"
        << num(c.value) << "}}";
    }
    ++index;
  }
  f << "\n]}\n";
  if (!f) die("failed writing trace file " + path);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 0;
  bool have_seed = false;
  double seconds = 10.0;
  std::string mode = "timed";
  bool quick = false;
  std::string trace_out;
  bool corrupt_digest = false;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) die("missing value for " + k);
      return argv[++i];
    };
    if (k == "--workload") {
      a.workload = value();
    } else if (k == "--seed") {
      const std::string v = value();
      char* end = nullptr;
      a.seed = std::strtoull(v.c_str(), &end, 10);
      if (v.empty() || *end != '\0') die("bad --seed '" + v + "'");
      a.have_seed = true;
    } else if (k == "--seconds") {
      const std::string v = value();
      char* end = nullptr;
      a.seconds = std::strtod(v.c_str(), &end);
      if (v.empty() || *end != '\0' || !(a.seconds > 0.0) || a.seconds > 3600.0) {
        die("bad --seconds '" + v + "'");
      }
    } else if (k == "--mode") {
      a.mode = value();
    } else if (k == "--scale") {
      const std::string v = value();
      if (v != "full" && v != "quick") die("bad --scale '" + v + "'");
      a.quick = v == "quick";
    } else if (k == "--trace-out") {
      a.trace_out = value();
    } else if (k == "--corrupt-digest") {
      a.corrupt_digest = true;
    } else {
      die("unknown argument '" + k + "'");
    }
  }
  if (a.workload.empty() || !a.have_seed) die("--workload and --seed are required");
  if (a.mode != "timed" && a.mode != "traced" && a.mode != "reference" &&
      a.mode != "invariants") {
    die("bad --mode '" + a.mode + "'");
  }
  if (a.mode == "traced" && a.trace_out.empty()) die("--mode traced needs --trace-out");
  return a;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = parse(argc, argv);
  const Spec spec = make_spec(args.workload, args.seed, args.quick);

  // run.py strips every TRIM_* knob from the measured processes' environment
  // and sets this one for the invariant pass only.
  if (args.mode == "invariants" && !exp::invariants_enabled()) {
    die("invariants mode needs TRIM_CHECK_INVARIANTS=1");
  }

  std::string head = "{\"workload\":" + quoted(args.workload) +
                     ",\"scale\":" + quoted(args.quick ? "quick" : "full") +
                     ",\"seed\":" + std::to_string(args.seed) + ",\"mode\":" +
                     quoted(args.mode) + ",\"shards\":" + std::to_string(spec.shards) +
                     ",\"scheduler\":" + quoted(sim::to_string(kScheduler)) +
                     ",\"sync\":" + quoted(sim::to_string(kSync)) + ",\"hw_threads\":" +
                     std::to_string(std::thread::hardware_concurrency()) +
                     ",\"build_type\":" + quoted(PERFBENCH_BUILD_TYPE);

  if (args.mode == "reference" || args.mode == "invariants") {
    Outputs out;
    std::uint64_t violations = 0, checkpoints = 0;
    switch (spec.kind) {
      case Workload::kIncast: out = incast_reference(spec.incast); break;
      case Workload::kFattree: out = fattree_reference(spec.fattree); break;
      case Workload::kStorm: out = storm_reference(spec.storm, &violations, &checkpoints); break;
    }
    std::printf("%s,\"ref_digest\":%s,\"complete\":%s,\"violations\":%llu,"
                "\"checkpoints\":%llu,\"outputs\":%s}\n",
                head.c_str(), hex(digest(out)).c_str(), out.complete ? "true" : "false",
                static_cast<unsigned long long>(violations),
                static_cast<unsigned long long>(checkpoints), object(out.values).c_str());
    return 0;
  }

  const bool traced_mode = args.mode == "traced";
  const auto epoch = Clock::now();
  const int min_reps = traced_mode ? 4 : 3;
  std::vector<Rep> reps;
  std::string rep_json;
  Outputs first;
  double first_peak_rss_mb = 0.0;
  for (int i = 0;; ++i) {
    reps.emplace_back(epoch, traced_mode && i % 2 == 1, spec.slice);
    Rep& rep = reps.back();
    Outputs out = run_rep(spec, rep);
    // The entry points expose no event count for the storm; its reference
    // digest leaves events out.
    Outputs ref = out;
    if (spec.kind == Workload::kStorm) ref.events = 0;
    std::uint64_t d = digest(out);
    if (args.corrupt_digest && i == 1) d ^= 1;
    if (i == 0) {
      // The first repetition of a fresh process: later ones run on heap the
      // allocator kept from earlier ones, so the process peak drifts with
      // the repetition count.
      first = out;
      first_peak_rss_mb = peak_rss_mb();
    }
    if (!rep_json.empty()) rep_json += ",";
    rep_json += "{\"traced\":" + std::string(rep.traced() ? "true" : "false") +
                ",\"setup_s\":" + num(rep.setup_s()) + ",\"run_s\":" + num(rep.run_s()) +
                ",\"wall_s\":" + num(rep.wall_s()) + ",\"digest\":" + hex(d) +
                ",\"ref_digest\":" + hex(digest(ref)) + ",\"complete\":" +
                (out.complete ? "true" : "false") + ",\"counts\":" + object(rep.counts) + "}";
    if (!rep.traced()) rep.spans.clear();  // only traced spans are kept
    const double elapsed =
        std::chrono::duration<double>(Clock::now() - epoch).count();
    if (static_cast<int>(reps.size()) >= min_reps && elapsed >= args.seconds) break;
  }
  const std::string result = head + ",\"peak_rss_mb\":" + num(first_peak_rss_mb) +
                             ",\"outputs\":" + object(first.values) +
                             ",\"events\":" + std::to_string(first.events) +
                             ",\"reps\":[" + rep_json + "]}";
  if (traced_mode) write_trace(args.trace_out, reps, head + "}");
  std::printf("%s\n", result.c_str());
  return 0;
}
