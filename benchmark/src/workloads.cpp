#include "workloads.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <functional>
#include <map>
#include <memory>
#include <sched.h>
#include <thread>
#include <unistd.h>

#include "fleet.h"
#include "prep.h"
#include "replay.h"
#include "serve/engine_registry.h"
#include "serve/net/transport_client.h"
#include "serve/router/model_router.h"
#include "traffic.h"

namespace fqbench {

using namespace fqbert;
using serve::Micros;
using serve::RequestStatus;
using serve::TraceStage;
using serve::net::TransportClient;

namespace {

constexpr size_t kPoolSize = 512;
/// Set-ups per untraced run (setup_s is their median). A fresh engine
/// process is cheap, a fleet costs a teardown.
constexpr int kEngineProbes = 11;
constexpr int kFleetSetups = 5;
// fleet_ladder: the rate rungs, the latency rung, and the SLO.
const std::vector<double> kRungs = {500,  630,  800,  1000, 1250,
                                    1600, 2000, 2500, 3150, 4000,
                                    5000, 6300, 8000, 10000};
constexpr double kLatencyRung = 800.0;
constexpr double kSloP99Ms = 10.0;
constexpr double kSloFailShare = 0.001;
constexpr double kMaxLagMs = 1.0;
constexpr double kChurnRate = 500.0;
constexpr double kAuxShare = 0.1;
constexpr int kControlProbes = 4;
/// A fleet_ladder rung lasts this share of --seconds, the latency rung
/// kLatencyRungSpan times as long (its p50/p99 are reported, and a host
/// hiccup of a few ms must not move a p99), so a ladder of eight rungs
/// takes about --seconds.
constexpr double kRungShare = 0.08;
constexpr double kLatencyRungSpan = 6.0;
/// Warm-up before any timed phase, as a share of --seconds.
constexpr double kWarmupShare = 0.1;
/// Replays, and traced fleet requests, that also become spans (bounds
/// the trace file).
constexpr uint64_t kSpanReplays = 64;
constexpr uint64_t kSpanRequests = 2000;
constexpr double kDrainS = 20.0;
/// encoder_b1 requests between moves to the next CPU (see CpuRotation).
constexpr uint64_t kRotateEvery = 8;

// ---------------------------------------------------------------------------
// Per-layer metrics: one declared list, emitted in order by every traced
// run, so each workload reports exactly the same names.
// ---------------------------------------------------------------------------

struct LayerDecl {
  std::string name;
  std::string unit;
};

const std::vector<LayerDecl>& layer_decls() {
  static const std::vector<LayerDecl> decls = [] {
    std::vector<LayerDecl> d;
    for (int s = 0; s < kNumStages; ++s)
      d.push_back({std::string("core.") + stage_name(s) + ".us", "us"});
    for (int s = 0; s < kNumStages; ++s)
      if (stage_is_matmul(s))
        d.push_back({std::string("core.") + stage_name(s) + ".gmacs",
                     "GMAC/s"});
    const std::vector<LayerDecl> rest = {
        {"core.coverage", "ratio"},
        {"router.queue_p50_us", "us"},
        {"router.queue_p99_us", "us"},
        {"router.dispatch_p50_us", "us"},
        {"router.compute_p50_us", "us"},
        {"router.batch_mean", "req/batch"},
        {"net.respond_p50_us", "us"},
        {"net.client_hop_p50_us", "us"},
        {"shard.self_p50_us", "us"},
        {"shard.failovers", "count"},
        {"shard.epoch_retries", "count"},
        {"shard.placement_changes", "count"},
        {"control.stats_p50_ms", "ms"},
        {"control.move_p50_ms", "ms"},
        {"peel.engine_us", "us"},
        {"peel.router_us", "us"},
        {"peel.backend_us", "us"},
        {"peel.proxy_us", "us"},
        {"loadgen.lag_p99_ms", "ms"},
        {"trace.overhead", "ratio"}};
    d.insert(d.end(), rest.begin(), rest.end());
    return d;
  }();
  return decls;
}

using LayerValues = std::map<std::string, std::pair<double, uint64_t>>;

void emit_layer_metrics(const LayerValues& values, WorkloadResult& r) {
  for (const LayerDecl& d : layer_decls()) {
    const auto it = values.find(d.name);
    if (it == values.end()) {
      r.fail("per-layer metric " + d.name + " was not measured");
      r.metric(d.name, 0.0, d.unit, 0);
      continue;
    }
    r.metric(d.name, it->second.first, d.unit, it->second.second);
  }
}

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

double elapsed_us(double t0, double t1) { return (t1 - t0) * 1e6; }

/// The time origin of a span file: the first scheduled send.
double earliest(const std::vector<Record>& recs) {
  double t = recs.empty() ? now_s() : recs.front().t_sched;
  for (const Record& rec : recs) t = std::min(t, rec.t_sched);
  return t;
}

Phase phase_of(const std::string& name, const std::vector<Record>& recs) {
  Phase p{name};
  p.sent = recs.size();
  for (const Record& rec : recs) p.ok += rec.ok ? 1 : 0;
  p.failed = p.sent - p.ok;
  return p;
}

/// OK responses per second, from the first due send to the last response.
double ok_per_second(const std::vector<Record>& recs) {
  double first = now_s(), last = 0;
  uint64_t ok = 0;
  for (const Record& rec : recs) {
    first = std::min(first, rec.t_sched);
    last = std::max(last, rec.t_recv);
    ok += rec.ok ? 1 : 0;
  }
  return last > first ? static_cast<double>(ok) / (last - first) : 0.0;
}

/// Records every problem of a batch of requests and adds its phase.
void account(const std::string& phase, const std::vector<Record>& recs,
             WorkloadResult& r) {
  const Phase p = phase_of(phase, recs);
  uint64_t mismatches = 0;
  for (const Record& rec : recs) mismatches += rec.mismatch ? 1 : 0;
  if (mismatches > 0)
    r.fail(phase + ": " + std::to_string(mismatches) +
           " responses differ from the oracle's logits");
  if (p.failed > mismatches)
    r.fail(phase + ": " + std::to_string(p.failed - mismatches) +
           " requests failed (non-OK status or transport error)");
  r.phases.push_back(p);
}

/// Latency of OK requests in ms, timed from when each was due.
/// `traced`: -1 every request, 0 untraced only, 1 traced only.
std::vector<double> latencies_ms(const std::vector<Record>& recs,
                                 int traced = -1) {
  std::vector<double> out;
  for (const Record& rec : recs)
    if (rec.ok && (traced < 0 || rec.traced == (traced == 1)))
      out.push_back((rec.t_recv - rec.t_sched) * 1e3);
  return out;
}

/// Closed loops: the generator's own turnaround, from a response to the
/// same client's next send.
std::vector<double> closed_loop_lag_ms(std::vector<Record> recs) {
  std::sort(recs.begin(), recs.end(), [](const Record& a, const Record& b) {
    return a.conn != b.conn ? a.conn < b.conn : a.t_send < b.t_send;
  });
  std::vector<double> lag;
  for (size_t i = 1; i < recs.size(); ++i)
    if (recs[i].conn == recs[i - 1].conn)
      lag.push_back((recs[i].t_send - recs[i - 1].t_recv) * 1e3);
  return lag;
}

/// Open loops: how late the sender ran against its schedule.
std::vector<double> open_loop_lag_ms(const std::vector<Record>& recs) {
  std::vector<double> lag;
  for (const Record& rec : recs) lag.push_back((rec.t_send - rec.t_sched) * 1e3);
  return lag;
}

/// Every (example, tier) pair of pool `index` once, in seeded order.
std::vector<Req> shuffled_pairs(uint32_t index, const Pool& pool, Rng& rng) {
  std::vector<Req> out;
  for (uint32_t t = 0; t < pool.model->tiers.size(); ++t)
    for (uint32_t e = 0; e < pool.examples.size(); ++e)
      out.push_back({index, t, e});
  rng.shuffle(out);
  return out;
}

/// Moves the calling thread round-robin over the CPUs the process may use
/// (restoring the original mask at scope exit). On a shared VM the vCPUs
/// can run at speeds up to 2x apart that change by the second, so a
/// single-threaded measurement that stays on one core reports which core
/// it drew; one that visits every core reports the machine.
class CpuRotation {
 public:
  CpuRotation() {
    CPU_ZERO(&mask_);
    ::sched_getaffinity(0, sizeof(mask_), &mask_);
    for (int c = 0; c < CPU_SETSIZE; ++c)
      if (CPU_ISSET(c, &mask_)) cpus_.push_back(c);
  }
  ~CpuRotation() { ::sched_setaffinity(0, sizeof(mask_), &mask_); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  void next() {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[next_++ % cpus_.size()], &one);
    ::sched_setaffinity(0, sizeof(one), &one);
  }

 private:
  cpu_set_t mask_;
  std::vector<int> cpus_;
  size_t next_ = 0;
};

/// In-process closed loop for `seconds`. With `rotation`, the caller moves
/// to the next CPU every kRotateEvery requests, outside the timed calls.
std::vector<Record> timed_in_process(
    const Traffic& t, double seconds, uint64_t first,
    const std::function<std::vector<float>(const Req&)>& call,
    CpuRotation* rotation = nullptr) {
  std::vector<Record> recs;
  const double end = now_s() + seconds;
  for (uint64_t k = first; now_s() < end; ++k) {
    if (rotation != nullptr && k % kRotateEvery == 0) rotation->next();
    Record rec;
    rec.req = static_cast<uint32_t>(k % t.reqs.size());
    const Req& r = t.reqs[rec.req];
    rec.t_sched = rec.t_send = now_s();
    const std::vector<float> logits = call(r);  // empty = request failed
    rec.t_recv = now_s();
    rec.mismatch =
        !logits.empty() && !t.matches(r, logits.data(), logits.size());
    rec.ok = !logits.empty() && !rec.mismatch;
    recs.push_back(std::move(rec));
  }
  return recs;
}

std::vector<float> to_vector(const Tensor& t) {
  return std::vector<float>(t.data(), t.data() + t.numel());
}

// ---------------------------------------------------------------------------
// Trace stamps of a fleet response (microseconds, proxy-relative)
// ---------------------------------------------------------------------------

struct Stamps {
  double at[serve::kLastTraceStage + 1] = {};
  bool has[serve::kLastTraceStage + 1] = {};

  explicit Stamps(const std::vector<serve::TraceEvent>& events) {
    for (const serve::TraceEvent& e : events) {
      const auto s = static_cast<size_t>(e.stage);
      at[s] = static_cast<double>(e.t_us);  // the last attempt wins
      has[s] = true;
    }
  }
  bool complete() const {
    for (const TraceStage s :
         {TraceStage::kAdmitted, TraceStage::kBatchFormed,
          TraceStage::kWorkerStart, TraceStage::kWorkerEnd,
          TraceStage::kResponded, TraceStage::kProxyReceived,
          TraceStage::kProxyResponse})
      if (!has[static_cast<size_t>(s)]) return false;
    return true;
  }
  double operator[](TraceStage s) const { return at[static_cast<size_t>(s)]; }
};

/// Quantile of whole-microsecond trace stamp differences, interpolated
/// inside the 1 µs bucket it falls in: the stamps are rounded, and a plain
/// order statistic of a ~1 µs stage reads the same integer run after run.
double stamp_quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double target = q * static_cast<double>(v.size());
  const double m = v[std::min(v.size() - 1, static_cast<size_t>(target))];
  const auto below = std::lower_bound(v.begin(), v.end(), m) - v.begin();
  const auto upto = std::upper_bound(v.begin(), v.end(), m) - v.begin();
  return m - 0.5 +
         (target - static_cast<double>(below)) /
             static_cast<double>(upto - below);
}

/// Serving-stage metrics and spans from traced fleet responses.
void fleet_stage_metrics(const std::vector<Record>& recs, double origin_s,
                         LayerValues& lv, SpanLog* spans) {
  std::vector<double> queue, dispatch, compute, respond, shard_self, hop;
  uint64_t spanned = 0;
  for (const Record& rec : recs) {
    if (!rec.traced || !rec.ok) continue;
    const Stamps st(rec.stages);
    if (!st.complete()) continue;
    const double client_us = elapsed_us(rec.t_send, rec.t_recv);
    const double proxy_us =
        st[TraceStage::kProxyResponse] - st[TraceStage::kProxyReceived];
    const double backend_us =
        st[TraceStage::kResponded] - st[TraceStage::kAdmitted];
    queue.push_back(st[TraceStage::kBatchFormed] - st[TraceStage::kAdmitted]);
    dispatch.push_back(st[TraceStage::kWorkerStart] -
                       st[TraceStage::kBatchFormed]);
    compute.push_back(st[TraceStage::kWorkerEnd] - st[TraceStage::kWorkerStart]);
    respond.push_back(st[TraceStage::kResponded] - st[TraceStage::kWorkerEnd]);
    shard_self.push_back(proxy_us - backend_us);
    hop.push_back(client_us - proxy_us);
    if (spans == nullptr || ++spanned > kSpanRequests) continue;
    // The proxy's clock is not the client's: its span is centred in the
    // client span (equal wire legs); backend stamps are already shifted
    // onto the proxy's timeline by the proxy itself.
    const uint32_t tid = rec.conn + 1;
    const double c0 = elapsed_us(origin_s, rec.t_send);
    const uint64_t client = spans->add("client", c0, client_us, tid, 0);
    const double p0 = c0 + (client_us - proxy_us) / 2.0 -
                      st[TraceStage::kProxyReceived];
    const uint64_t proxy =
        spans->add("proxy", p0 + st[TraceStage::kProxyReceived], proxy_us, tid,
                   client);
    const uint64_t backend = spans->add(
        "backend", p0 + st[TraceStage::kAdmitted], backend_us, tid, proxy);
    const auto child = [&](const char* name, TraceStage a, TraceStage b) {
      spans->add(name, p0 + st[a], st[b] - st[a], tid, backend);
    };
    child("queue", TraceStage::kAdmitted, TraceStage::kBatchFormed);
    child("dispatch", TraceStage::kBatchFormed, TraceStage::kWorkerStart);
    child("compute", TraceStage::kWorkerStart, TraceStage::kWorkerEnd);
    child("respond", TraceStage::kWorkerEnd, TraceStage::kResponded);
  }
  const uint64_t n = queue.size();
  lv["router.queue_p50_us"] = {stamp_quantile(queue, 0.5), n};
  lv["router.queue_p99_us"] = {stamp_quantile(queue, 0.99), n};
  lv["router.dispatch_p50_us"] = {stamp_quantile(dispatch, 0.5), n};
  lv["router.compute_p50_us"] = {stamp_quantile(compute, 0.5), n};
  lv["net.respond_p50_us"] = {stamp_quantile(respond, 0.5), n};
  lv["net.client_hop_p50_us"] = {quantile(hop, 0.5), n};
  lv["shard.self_p50_us"] = {stamp_quantile(shard_self, 0.5), n};
}

/// Traced p50 over untraced p50, minus 1.
double trace_overhead(const std::vector<Record>& recs) {
  const double untraced = quantile(latencies_ms(recs, 0), 0.5);
  return untraced > 0 ? quantile(latencies_ms(recs, 1), 0.5) / untraced - 1.0
                      : 0.0;
}

// ---------------------------------------------------------------------------
// Probes shared by the traced runs
// ---------------------------------------------------------------------------

/// What a core probe measured besides the core.* metrics.
struct CoreRun {
  std::vector<Record> replays;
  std::vector<double> gaps_ms;  // generator time between engine calls
  double overhead = 0;          // replay p50 / forward() p50 - 1
};

/// Core stage replay over `t` for `seconds`, alternating with untraced
/// forward() calls on the same requests; fills core.*. With
/// `check_coverage`, a coverage outside 0.90-1.10 fails the run (on an
/// engine of a few µs the stage clock's own reads are a visible share,
/// so only the kernel-bound workload is held to it).
CoreRun core_probe(const Traffic& t, double seconds, double origin_s,
                   SpanLog* spans, bool check_coverage, LayerValues& lv,
                   WorkloadResult& r) {
  CoreRun run;
  std::vector<Record>& recs = run.replays;
  StageArray ns{}, macs{}, bytes{};
  std::vector<double> fwd_us, replay_us;
  uint64_t replay_mismatch = 0;
  double len_sum = 0;
  double idle_since = now_s();
  const double end = now_s() + seconds;
  for (uint64_t k = 0; now_s() < end; ++k) {
    const Req& req = t.reqs[k % t.reqs.size()];
    const core::FqBertModel& engine = *t.pools[req.pool]->model->engines[req.tier];
    const nn::Example& ex = t.example(req);
    std::vector<float> fwd, rep;
    double f_us = 0, r_us = 0, rep_t0 = 0, rep_t1 = 0;
    StageArray ns_req{};
    // Alternate the order so neither call always runs on warm caches.
    for (int pass = 0; pass < 2; ++pass) {
      if ((pass == 0) == (k % 2 == 0)) {
        const double t0 = now_s();
        run.gaps_ms.push_back((t0 - idle_since) * 1e3);
        fwd = to_vector(engine.forward(ex));
        idle_since = now_s();
        f_us = elapsed_us(t0, idle_since);
      } else {
        SpanLog* s = spans != nullptr && k < kSpanReplays ? spans : nullptr;
        rep_t0 = now_s();
        run.gaps_ms.push_back((rep_t0 - idle_since) * 1e3);
        const uint64_t root =
            s != nullptr ? s->add("forward", elapsed_us(origin_s, rep_t0), 0,
                                  1, 0)
                         : 0;
        rep = replay_forward(engine, ex, ns_req, s, 1, root, origin_s);
        rep_t1 = idle_since = now_s();
        r_us = elapsed_us(rep_t0, rep_t1);
        if (s != nullptr) s->finish(root, elapsed_us(origin_s, rep_t1));
      }
    }
    Record rec;
    rec.req = static_cast<uint32_t>(k % t.reqs.size());
    rec.t_sched = rec.t_send = rep_t0;
    rec.t_recv = rep_t1;
    rec.mismatch = !t.matches(req, rep.data(), rep.size()) ||
                   !t.matches(req, fwd.data(), fwd.size());
    replay_mismatch += rep != fwd ? 1 : 0;
    rec.ok = !rec.mismatch;
    recs.push_back(std::move(rec));
    fwd_us.push_back(f_us);
    replay_us.push_back(r_us);
    const int64_t len = static_cast<int64_t>(ex.tokens.size());
    len_sum += static_cast<double>(len);
    const StageArray m = stage_macs(engine, len), b = stage_bytes(engine, len);
    for (int s = 0; s < kNumStages; ++s) {
      ns[s] += ns_req[s];
      macs[s] += m[s];
      bytes[s] += b[s];
    }
  }
  if (replay_mismatch > 0)
    r.fail("core replay: " + std::to_string(replay_mismatch) +
           " logits differ from forward()");
  const auto n = static_cast<double>(recs.size());
  const uint64_t samples = recs.size();
  double stage_sum_us = 0;
  for (int s = 0; s < kNumStages; ++s) {
    const double us = ns[s] / n / 1e3;
    stage_sum_us += us;
    lv[std::string("core.") + stage_name(s) + ".us"] = {us, samples};
    if (stage_is_matmul(s))
      lv[std::string("core.") + stage_name(s) + ".gmacs"] = {macs[s] / ns[s],
                                                            samples};
  }
  const double coverage = stage_sum_us / mean(fwd_us);
  lv["core.coverage"] = {coverage, samples};
  if (check_coverage && (coverage < 0.90 || coverage > 1.10))
    r.fail("core.coverage " + std::to_string(coverage) +
           " is outside 0.90-1.10");
  run.overhead = quantile(replay_us, 0.5) / quantile(fwd_us, 0.5) - 1.0;

  // The stage table: measured time beside computed work and the
  // accelerator model's cycles for the mean request shape.
  const int64_t mean_len = static_cast<int64_t>(std::lround(len_sum / n));
  const StageArray cycles =
      zcu102_cycles(t.pools[t.reqs[0].pool]->model->config, mean_len);
  char line[256];
  std::snprintf(line, sizeof(line),
                "   %-10s %9s %6s %11s %12s %7s %8s %13s", "stage", "us/req",
                "share", "MACs/req", "bytes/req", "MAC/B", "GMAC/s",
                "zcu102_cycles");
  r.notes.push_back(line);
  r.notes.push_back("   (bytes computed from tensor sizes; cycles from "
                    "accel::PerfModel at seq " +
                    std::to_string(mean_len) + ")");
  for (int s = 0; s < kNumStages; ++s) {
    const double us = ns[s] / n / 1e3;
    if (stage_is_matmul(s))
      std::snprintf(line, sizeof(line),
                    "   %-10s %9.2f %5.1f%% %11.0f %12.0f %7.2f %8.2f %13.0f",
                    stage_name(s), us, 100.0 * us / stage_sum_us, macs[s] / n,
                    bytes[s] / n, macs[s] / bytes[s], macs[s] / ns[s],
                    cycles[s]);
    else
      std::snprintf(line, sizeof(line), "   %-10s %9.2f %5.1f%% %51s %13.0f",
                    stage_name(s), us, 100.0 * us / stage_sum_us, "",
                    cycles[s]);
    r.notes.push_back(line);
  }
  return run;
}

struct ControlStats {
  std::vector<double> move_ms, stats_ms;
  uint64_t moves_ok = 0;
  uint64_t failed = 0;
};

/// One control round through the proxy: move `aux` to the other backend,
/// then a STATS fan-out for `stats_model`.
void control_round(TransportClient& c, const Fleet& fleet,
                   const PreparedModel& aux, const std::string& stats_model,
                   int* aux_at, ControlStats& cs, std::string* error) {
  std::string message;
  const double t0 = now_s();
  if (c.move_model(aux.name, 0, fleet.backend_address(*aux_at),
                   fleet.backend_address(1 - *aux_at), aux.path, &message)) {
    cs.move_ms.push_back((now_s() - t0) * 1e3);
    *aux_at = 1 - *aux_at;
    ++cs.moves_ok;
  } else {
    ++cs.failed;
    *error = "MOVE_MODEL failed: " + message + " " + c.error();
  }
  const double t1 = now_s();
  if (c.query_stats(stats_model))
    cs.stats_ms.push_back((now_s() - t1) * 1e3);
  else
    ++cs.failed;
}

void record_control(const ControlStats& cs, LayerValues& lv,
                    WorkloadResult& r) {
  Phase p{"control"};
  p.sent = cs.move_ms.size() + cs.stats_ms.size() + cs.failed;
  p.ok = p.sent - cs.failed;
  p.failed = cs.failed;
  r.phases.push_back(p);
  if (cs.failed > 0)
    r.fail(std::to_string(cs.failed) + " control operations failed");
  lv["control.move_p50_ms"] = {quantile(cs.move_ms, 0.5), cs.move_ms.size()};
  lv["control.stats_p50_ms"] = {quantile(cs.stats_ms, 0.5),
                                cs.stats_ms.size()};
}

/// Proxy counters, and the check that placement changed exactly once per
/// completed move.
void shard_counters(const Fleet& fleet, uint64_t moves, LayerValues& lv,
                    WorkloadResult& r) {
  const std::map<std::string, double> m = fleet.proxy_metrics();
  const auto get = [&](const char* name) {
    const auto it = m.find(name);
    if (it == m.end()) r.fail(std::string("proxy /metrics lacks ") + name);
    return it == m.end() ? 0.0 : it->second;
  };
  lv["shard.failovers"] = {get("fqbert_proxy_failovers_total"), 1};
  lv["shard.epoch_retries"] = {get("fqbert_proxy_epoch_retries_total"), 1};
  const double changes = get("fqbert_proxy_placement_changes_total");
  lv["shard.placement_changes"] = {changes, 1};
  if (changes != static_cast<double>(moves))
    r.fail("proxy placement_changes " + std::to_string(changes) + " != " +
           std::to_string(moves) + " moves performed");
}

/// Every backend lane balances; `batch_mean` gets the batch occupancy.
void check_accounting(const Fleet& fleet, WorkloadResult& r,
                      double* batch_mean = nullptr) {
  std::string why;
  double occupancy = 0;
  if (!fleet.check_accounting(&why, &occupancy)) r.fail(why);
  if (batch_mean != nullptr) *batch_mean = occupancy;
}

/// A few control rounds through the proxy, for workloads that move no
/// model themselves.
ControlStats control_probe(const Fleet& fleet, const PreparedModel& aux,
                           const std::string& stats_model, WorkloadResult& r) {
  ControlStats cs;
  TransportClient c;
  c.set_timeouts(Micros(2'000'000), Micros(30'000'000));
  int aux_at = 0;
  std::string error;
  if (!c.connect("127.0.0.1", fleet.proxy_port())) error = c.error();
  for (int i = 0; error.empty() && i < kControlProbes; ++i)
    control_round(c, fleet, aux, stats_model, &aux_at, cs, &error);
  if (!error.empty()) r.fail("control probe: " + error);
  return cs;
}

/// Control-plane, proxy-counter and accounting metrics of a traced run.
void fleet_counters(const Fleet& fleet, const ControlStats& cs,
                    LayerValues& lv, WorkloadResult& r) {
  record_control(cs, lv, r);
  shard_counters(fleet, cs.moves_ok, lv, r);
  double batch_mean = 0;
  check_accounting(fleet, r, &batch_mean);
  lv["router.batch_mean"] = {batch_mean, 1};
}

/// Peel the stack from outside, one client each: engine, in-process
/// router, one backend over the wire, the proxy. Returns the proxy step's
/// records (every other one traced).
std::vector<Record> peel_probe(const Fleet& fleet, const Traffic& t,
                               const PreparedModel& model, Micros max_wait,
                               double step_s, uint64_t* next,
                               LayerValues& lv, WorkloadResult& r) {
  const auto p50_us = [](const std::vector<Record>& recs) {
    return quantile(latencies_ms(recs, 0), 0.5) * 1e3;
  };
  const auto engine_of = [&](const Req& q) -> const core::FqBertModel& {
    return *t.pools[q.pool]->model->engines[q.tier];
  };
  std::vector<Record> recs = timed_in_process(
      t, step_s, *next,
      [&](const Req& q) { return to_vector(engine_of(q).forward(t.example(q))); });
  *next += recs.size();
  account("peel_engine", recs, r);
  lv["peel.engine_us"] = {p50_us(recs), recs.size()};

  serve::EngineRegistry registry;
  serve::RouterConfig rcfg;
  rcfg.batcher.max_wait = max_wait;
  serve::ModelRouter router(registry, rcfg);
  std::string error;
  bool loaded = router.load_model(model.name, model.path, &error, model.tiers[0]);
  for (size_t i = 1; loaded && i < model.tiers.size(); ++i)
    loaded = router.load_model(model.name, "", &error, model.tiers[i]);
  if (!loaded) r.fail("in-process router: " + error);
  router.start();
  recs = timed_in_process(t, step_s, *next, [&](const Req& q) {
    serve::ServeResponse resp =
        router.submit(model.name, t.example(q), std::nullopt, nullptr, 0,
                      t.wire_tier(q))
            .get();
    return resp.status == RequestStatus::kOk ? resp.logits
                                             : std::vector<float>{};
  });
  router.shutdown(/*drain=*/true);
  *next += recs.size();
  account("peel_router", recs, r);
  lv["peel.router_us"] = {p50_us(recs), recs.size()};

  recs = closed_loop_wire(fleet.backend_port(0), 1, step_s, t, *next, 0);
  *next += recs.size();
  account("peel_backend", recs, r);
  lv["peel.backend_us"] = {p50_us(recs), recs.size()};

  recs = closed_loop_wire(fleet.proxy_port(), 1, step_s, t, *next, 2);
  *next += recs.size();
  account("peel_proxy", recs, r);
  lv["peel.proxy_us"] = {p50_us(recs), recs.size()};
  return recs;
}

// ---------------------------------------------------------------------------
// Fleet set-up
// ---------------------------------------------------------------------------

FleetConfig fleet_config(const PreparedModel& main, const PreparedModel& aux,
                         bool no_batch_wait) {
  FleetConfig cfg;
  cfg.models[0] = {main.serve_spec(), aux.serve_spec()};
  cfg.models[1] = {main.serve_spec()};
  if (no_batch_wait) cfg.serve_flags = {"--wait-us", "0"};
  cfg.placement[0] = {main.name, aux.name};
  cfg.placement[1] = {main.name};
  return cfg;
}

/// Bring the fleet up `repeats` times (all but the last torn down again);
/// the set-up times go to `setup_s`. False when it does not come up.
bool start_fleet(Fleet& fleet, const FleetConfig& cfg, const Traffic& t,
                 int repeats, WorkloadResult& r, std::vector<double>* setup_s) {
  Phase phase{"setup"};
  bool mismatch = false;
  const auto first_request = [&](TransportClient& c) {
    const Req& q = t.reqs[0];
    const auto resp = c.call(t.example(q), std::nullopt, t.model(q), 0,
                             t.wire_tier(q));
    if (!resp || resp->status != RequestStatus::kOk) return false;
    mismatch = mismatch ||
               !t.matches(q, resp->logits.data(), resp->logits.size());
    return true;
  };
  for (int i = 0; i < repeats; ++i) {
    const double s = fleet.start(cfg, first_request);
    ++phase.sent;
    if (s < 0) {
      ++phase.failed;
      r.phases.push_back(phase);
      r.fail("fleet set-up: " + fleet.error());
      return false;
    }
    ++phase.ok;
    setup_s->push_back(s);
    if (i + 1 < repeats) fleet.stop();
  }
  r.phases.push_back(phase);
  if (mismatch) r.fail("fleet set-up: first response differs from the oracle");
  return true;
}

/// A seeded warm-up rung, so connection pools and page caches are filled
/// before anything is timed.
void warm_up(const std::vector<int>& conns, const Traffic& t, double seconds,
             uint64_t seed, uint64_t* next, WorkloadResult& r) {
  const auto n = static_cast<size_t>(std::max(1.0, seconds * kChurnRate));
  const std::vector<Record> recs = open_loop(
      conns, poisson_offsets(n, kChurnRate, seed), t, *next, 0, kDrainS);
  *next += recs.size();
  account("warmup", recs, r);
}

std::vector<int> open_connections(uint16_t port, int n, WorkloadResult& r) {
  std::vector<int> conns;
  for (int i = 0; i < n; ++i) {
    const int fd = connect_tcp(port);
    if (fd < 0) {
      r.fail("cannot connect to the proxy");
      break;
    }
    conns.push_back(fd);
  }
  return conns;
}

void close_connections(std::vector<int>& conns) {
  for (const int fd : conns) ::close(fd);
  conns.clear();
}

void write_spans(const SpanLog& spans, const Env& env, WorkloadResult& r) {
  const std::string path = env.out_dir + "/" + r.name + ".trace.json";
  if (!spans.write_chrome_json(path)) r.fail("cannot write " + path);
  r.notes.push_back("   spans: " + std::to_string(spans.size()) + " -> " +
                    path);
}

void e2e_latency(const std::vector<double>& lat_ms, WorkloadResult& r) {
  r.metric("lat_p50_ms", quantile(lat_ms, 0.5), "ms", lat_ms.size());
  r.metric("lat_p99_ms", quantile(lat_ms, 0.99), "ms", lat_ms.size());
}

// ---------------------------------------------------------------------------
// encoder_b1
// ---------------------------------------------------------------------------

/// encoder_b1's set-up time and resident memory, from fresh processes
/// (see probe_engine).
void engine_setup_probes(const Env& env, const std::string& path,
                         WorkloadResult& r, std::vector<double>* setup_s,
                         std::vector<double>* rss_mb) {
  Phase probes{"setup"};
  const std::string cmd = "'" + env.self_exe + "' --probe-engine '" + path + "'";
  CpuRotation rotation;  // each probe process inherits the next single CPU
  for (int i = 0; i < kEngineProbes; ++i) {
    ++probes.sent;
    rotation.next();
    std::FILE* p = ::popen(cmd.c_str(), "r");
    double s = -1, m = -1;
    if (p != nullptr) {
      if (std::fscanf(p, "setup_s=%lf rss_mb=%lf", &s, &m) != 2) s = -1;
      if (::pclose(p) != 0) s = -1;
    }
    if (s < 0) {
      ++probes.failed;
      continue;
    }
    ++probes.ok;
    setup_s->push_back(s);
    rss_mb->push_back(m);
  }
  r.phases.push_back(probes);
  if (probes.failed > 0) r.fail("engine set-up probe failed");
}

WorkloadResult encoder_b1(const Options& o, const Env& env) {
  WorkloadResult r{"encoder_b1"};
  const PreparedModel bert = prepare_model(bert_mini_def(), env.prep_dir);
  const Pool pool =
      make_pool(bert, spread_lengths(16, 64, kPoolSize), o.seed * 7919 + 1);
  Rng rng(o.seed);
  Traffic t{{&pool}, shuffled_pairs(0, pool, rng)};
  const core::FqBertModel& engine = *bert.engines[0];
  const auto forward = [&](const Req& q) {
    return to_vector(engine.forward(t.example(q)));
  };

  if (!o.trace) {
    std::vector<Record> recs;
    {
      CpuRotation rotation;
      recs = timed_in_process(t, kWarmupShare * o.seconds, 0, forward,
                              &rotation);
      account("warmup", recs, r);
      recs = timed_in_process(t, o.seconds, recs.size(), forward, &rotation);
    }
    account("measure", recs, r);
    std::vector<double> setup, rss;
    engine_setup_probes(env, bert.path, r, &setup, &rss);
    r.metric("setup_s", quantile(setup, 0.5), "s", setup.size());
    e2e_latency(latencies_ms(recs), r);
    r.metric("throughput_rps",
             ok_per_second(recs), "req/s", recs.size());
    r.metric("peak_rss_mb", quantile(rss, 0.5), "MB", rss.size());
    return r;
  }

  LayerValues lv;
  SpanLog spans;
  const double origin = now_s();
  const CoreRun core =
      core_probe(t, 0.6 * o.seconds, origin, &spans, true, lv, r);
  account("replay", core.replays, r);
  lv["trace.overhead"] = {core.overhead, core.replays.size()};
  lv["loadgen.lag_p99_ms"] = {quantile(core.gaps_ms, 0.99),
                              core.gaps_ms.size()};

  // The serving layers, measured around this engine by a probe fleet.
  const PreparedModel aux = prepare_model(aux_def(), env.prep_dir);
  Fleet fleet(env.cli, env.log_dir);
  std::vector<double> setup;
  if (start_fleet(fleet, fleet_config(bert, aux, true), t, 1, r, &setup)) {
    uint64_t next = 0;
    const std::vector<Record> proxied = peel_probe(
        fleet, t, bert, Micros(0), 0.1 * o.seconds, &next, lv, r);
    fleet_stage_metrics(proxied, origin, lv, &spans);
    fleet_counters(fleet, control_probe(fleet, aux, bert.name, r), lv, r);
  }
  fleet.stop();
  write_spans(spans, env, r);
  emit_layer_metrics(lv, r);
  return r;
}

// ---------------------------------------------------------------------------
// Fleet workloads
// ---------------------------------------------------------------------------

/// End-to-end metrics of an untraced fleet run; stops the fleet.
void fleet_e2e(Fleet& fleet, const std::vector<double>& setup_s,
               const std::vector<double>& lat_ms, double throughput,
               uint64_t throughput_samples, WorkloadResult& r) {
  const double rss = fleet.peak_rss_mb();
  check_accounting(fleet, r);
  fleet.stop();
  r.metric("setup_s", quantile(setup_s, 0.5), "s", setup_s.size());
  e2e_latency(lat_ms, r);
  r.metric("throughput_rps", throughput, "req/s", throughput_samples);
  r.metric("peak_rss_mb", rss, "MB", 3);
}

/// Per-layer metrics of a traced fleet run: serving stages from the
/// workload's traced requests `recs`, then core replay on its engine,
/// the peel, and (unless the workload moved models itself, `own_control`)
/// a few control rounds. Stops the fleet and writes the spans.
void fleet_traced(const Options& o, const Env& env, Fleet& fleet,
                  const std::vector<Record>& recs,
                  const std::vector<double>& lag_ms, const Traffic& main,
                  const PreparedModel& model, const PreparedModel& aux,
                  Micros max_wait, const ControlStats* own_control,
                  uint64_t* next, WorkloadResult& r) {
  LayerValues lv;
  SpanLog spans;
  fleet_stage_metrics(recs, earliest(recs), lv, &spans);
  lv["trace.overhead"] = {trace_overhead(recs), recs.size()};
  lv["loadgen.lag_p99_ms"] = {quantile(lag_ms, 0.99), lag_ms.size()};
  const CoreRun core =
      core_probe(main, 0.2 * o.seconds, now_s(), nullptr, false, lv, r);
  account("replay", core.replays, r);
  peel_probe(fleet, main, model, max_wait, 0.1 * o.seconds, next, lv, r);
  fleet_counters(fleet,
                 own_control != nullptr
                     ? *own_control
                     : control_probe(fleet, aux, model.name, r),
                 lv, r);
  fleet.stop();
  write_spans(spans, env, r);
  emit_layer_metrics(lv, r);
}

WorkloadResult hop_overhead(const Options& o, const Env& env) {
  WorkloadResult r{"hop_overhead"};
  const PreparedModel tiny = prepare_model(tiny_def(), env.prep_dir);
  const PreparedModel aux = prepare_model(aux_def(), env.prep_dir);
  const Pool pool =
      make_pool(tiny, spread_lengths(4, 16, kPoolSize), o.seed * 7919 + 2);
  Rng rng(o.seed);
  const Traffic t{{&pool}, shuffled_pairs(0, pool, rng)};

  Fleet fleet(env.cli, env.log_dir);
  std::vector<double> setup;
  if (!start_fleet(fleet, fleet_config(tiny, aux, true), t,
                   o.trace ? 1 : kFleetSetups, r, &setup))
    return r;
  const int trace_every = o.trace ? 2 : 0;
  uint64_t next = 0;
  std::vector<Record> recs =
      closed_loop_wire(fleet.proxy_port(), 4, kWarmupShare * o.seconds, t, next,
                       0);
  next += recs.size();
  account("warmup", recs, r);
  recs = closed_loop_wire(fleet.proxy_port(), 4, o.seconds, t, next,
                          trace_every);
  next += recs.size();
  account("measure", recs, r);

  if (o.trace)
    fleet_traced(o, env, fleet, recs, closed_loop_lag_ms(recs), t, tiny, aux,
                 Micros(0), nullptr, &next, r);
  else
    fleet_e2e(fleet, setup, latencies_ms(recs), ok_per_second(recs),
              recs.size(), r);
  return r;
}

/// The fleet_ladder / fleet_churn set-up: MiniBERT int8 + derived int4
/// behind the proxy at CLI-default serving flags.
struct MiniFleet {
  PreparedModel mini, aux;
  Pool mini_pool, aux_pool;
  Traffic main;  // mini only, 50/50 across tiers
};

std::unique_ptr<MiniFleet> prepare_mini_fleet(const Options& o, const Env& env) {
  auto f = std::make_unique<MiniFleet>();
  f->mini = prepare_model(mini_def(), env.prep_dir);
  f->aux = prepare_model(aux_def(), env.prep_dir);
  const std::vector<int64_t> lengths = {8, 16, 24, 32};
  f->mini_pool = make_pool(f->mini, cycle_lengths(lengths, kPoolSize),
                           o.seed * 7919 + 3);
  f->aux_pool = make_pool(f->aux, cycle_lengths(lengths, 64), o.seed * 7919 + 4);
  Rng rng(o.seed);
  f->main = Traffic{{&f->mini_pool}, shuffled_pairs(0, f->mini_pool, rng)};
  return f;
}

struct Rung {
  double rate = 0;
  double p50_ms = 0, p99_ms = 0, fail_share = 0, lag_p99_ms = 0;
  bool valid = true, pass = false;
  std::vector<Record> recs;
};

/// The rate where p99 crosses the SLO, interpolated in log-rate (and
/// log-p99) between the highest passing rung and the rung above it.
double max_rate(const std::vector<Rung>& rungs) {
  int top = -1;
  for (int i = 0; i < static_cast<int>(rungs.size()); ++i)
    if (rungs[static_cast<size_t>(i)].pass) top = i;
  if (top < 0)  // even the first rung fails: scale it down to the SLO
    return rungs.front().rate *
           std::min(1.0, kSloP99Ms / std::max(rungs.front().p99_ms, 1e-9));
  if (top + 1 == static_cast<int>(rungs.size())) return rungs.back().rate;
  const Rung& lo = rungs[static_cast<size_t>(top)];
  const Rung& hi = rungs[static_cast<size_t>(top) + 1];
  if (!hi.valid || hi.fail_share > kSloFailShare || hi.p99_ms <= lo.p99_ms)
    return lo.rate;
  const double frac = std::clamp(
      std::log(kSloP99Ms / lo.p99_ms) / std::log(hi.p99_ms / lo.p99_ms), 0.0,
      1.0);
  return lo.rate * std::pow(hi.rate / lo.rate, frac);
}

WorkloadResult fleet_ladder(const Options& o, const Env& env) {
  WorkloadResult r{"fleet_ladder"};
  const std::unique_ptr<MiniFleet> mf = prepare_mini_fleet(o, env);
  Fleet fleet(env.cli, env.log_dir);
  std::vector<double> setup;
  if (!start_fleet(fleet, fleet_config(mf->mini, mf->aux, false), mf->main,
                   o.trace ? 1 : kFleetSetups, r, &setup))
    return r;
  std::vector<int> conns = open_connections(fleet.proxy_port(), 4, r);
  if (conns.size() < 4) return r;
  uint64_t next = 0;
  warm_up(conns, mf->main, kWarmupShare * o.seconds, o.seed, &next, r);

  const int trace_every = o.trace ? 2 : 0;
  std::vector<Rung> rungs;
  int failing_in_a_row = 0;
  // Two failing rungs in a row end the ladder, but never before the
  // latency rung has run.
  for (size_t i = 0; i < kRungs.size() &&
                     (failing_in_a_row < 2 || kRungs[i] <= kLatencyRung);
       ++i) {
    Rung g;
    g.rate = kRungs[i];
    const double span = g.rate == kLatencyRung ? kLatencyRungSpan : 1.0;
    const auto n =
        static_cast<size_t>(std::lround(g.rate * span * kRungShare * o.seconds));
    g.recs = open_loop(conns, poisson_offsets(n, g.rate, o.seed * 100 + i),
                       mf->main, next, trace_every, kDrainS);
    next += g.recs.size();
    account("rung_" + std::to_string(static_cast<int>(g.rate)), g.recs, r);
    // A failed request misses the SLO: it counts as infinitely slow.
    std::vector<double> lat = latencies_ms(g.recs);
    const size_t ok = lat.size();
    lat.resize(g.recs.size(), INFINITY);
    g.p50_ms = quantile(lat, 0.5);
    g.p99_ms = quantile(lat, 0.99);
    g.fail_share = 1.0 - static_cast<double>(ok) / static_cast<double>(n);
    g.lag_p99_ms = quantile(open_loop_lag_ms(g.recs), 0.99);
    g.valid = g.lag_p99_ms <= kMaxLagMs;
    g.pass = g.valid && g.p99_ms <= kSloP99Ms && g.fail_share <= kSloFailShare;
    failing_in_a_row = g.pass ? 0 : failing_in_a_row + 1;
    char line[160];
    std::snprintf(line, sizeof(line),
                  "   rung %6.0f req/s: p50 %8.3f ms  p99 %9.3f ms  fail "
                  "%.4f  lag p99 %.3f ms  %s",
                  g.rate, g.p50_ms, g.p99_ms, g.fail_share, g.lag_p99_ms,
                  g.pass ? "pass" : (g.valid ? "FAIL" : "INVALID"));
    r.notes.push_back(line);
    rungs.push_back(std::move(g));
  }
  close_connections(conns);
  const auto at = std::find_if(rungs.begin(), rungs.end(), [](const Rung& g) {
    return g.rate == kLatencyRung;
  });

  if (o.trace)
    fleet_traced(o, env, fleet, at->recs, open_loop_lag_ms(at->recs),
                 mf->main, mf->mini, mf->aux, Micros(2000), nullptr, &next, r);
  else
    fleet_e2e(fleet, setup, latencies_ms(at->recs), max_rate(rungs),
              rungs.size(), r);
  return r;
}

WorkloadResult fleet_churn(const Options& o, const Env& env) {
  WorkloadResult r{"fleet_churn"};
  const std::unique_ptr<MiniFleet> mf = prepare_mini_fleet(o, env);
  // 90% MiniBERT across both tiers, 10% the model being moved.
  Rng rng(o.seed + 1);
  Traffic t{{&mf->mini_pool, &mf->aux_pool}, {}};
  for (size_t i = 0; i < mf->main.reqs.size(); ++i)
    t.reqs.push_back(
        rng.uniform() < kAuxShare
            ? Req{1, 0,
                  static_cast<uint32_t>(rng.randint(
                      0, static_cast<int64_t>(mf->aux_pool.examples.size()) -
                             1))}
            : mf->main.reqs[i]);

  Fleet fleet(env.cli, env.log_dir);
  std::vector<double> setup;
  if (!start_fleet(fleet, fleet_config(mf->mini, mf->aux, false), t,
                   o.trace ? 1 : kFleetSetups, r, &setup))
    return r;
  std::vector<int> conns = open_connections(fleet.proxy_port(), 3, r);
  if (conns.size() < 3) return r;
  uint64_t next = 0;
  warm_up(conns, t, kWarmupShare * o.seconds, o.seed, &next, r);

  // The control plane runs on the fourth connection, once per second.
  ControlStats cs;
  std::string control_error;
  std::atomic<bool> data_done{false};
  std::thread control([&] {
    TransportClient c;
    c.set_timeouts(Micros(2'000'000), Micros(30'000'000));
    if (!c.connect("127.0.0.1", fleet.proxy_port())) {
      control_error = "control connection failed: " + c.error();
      return;
    }
    int aux_at = 0;
    const double start = now_s();
    for (int m = 1; m < o.seconds && !data_done; ++m) {
      sleep_until_s(start + m);
      if (data_done) break;
      control_round(c, fleet, mf->aux, mf->mini.name, &aux_at, cs,
                    &control_error);
    }
  });
  const auto n = static_cast<size_t>(kChurnRate * o.seconds);
  const std::vector<Record> recs =
      open_loop(conns, poisson_offsets(n, kChurnRate, o.seed * 100 + 99), t,
                next, o.trace ? 2 : 0, kDrainS);
  data_done = true;
  control.join();
  close_connections(conns);
  next += recs.size();
  account("measure", recs, r);
  if (!control_error.empty()) r.fail(control_error);

  if (o.trace) {
    fleet_traced(o, env, fleet, recs, open_loop_lag_ms(recs), mf->main,
                 mf->mini, mf->aux, Micros(2000), &cs, &next, r);
  } else {
    LayerValues unused;
    record_control(cs, unused, r);
    shard_counters(fleet, cs.moves_ok, unused, r);
    fleet_e2e(fleet, setup, latencies_ms(recs), ok_per_second(recs),
              recs.size(), r);
  }
  return r;
}

}  // namespace

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"encoder_b1", "hop_overhead",
                                                 "fleet_ladder", "fleet_churn"};
  return names;
}

WorkloadResult run_workload(const std::string& name, const Options& opts,
                            const Env& env) {
  if (name == "encoder_b1") return encoder_b1(opts, env);
  if (name == "hop_overhead") return hop_overhead(opts, env);
  if (name == "fleet_ladder") return fleet_ladder(opts, env);
  if (name == "fleet_churn") return fleet_churn(opts, env);
  WorkloadResult r{name};
  r.fail("unknown workload");
  return r;
}

int probe_engine(const std::string& path) {
  const double t0 = now_s();
  const core::FqBertModel engine = core::FqBertModel::load_any(path);
  Rng rng(7);
  const nn::BertConfig& cfg = engine.config();
  (void)engine.forward(make_example(rng, std::min<int64_t>(32, cfg.max_seq_len), cfg));
  const double setup = now_s() - t0;
  // One request per length, so the resident set includes the largest
  // scratch the workload's pool needs.
  for (int64_t len = 16; len <= cfg.max_seq_len; len += 16)
    (void)engine.forward(make_example(rng, len, cfg));
  std::printf("setup_s=%.9f rss_mb=%.6f\n", setup, peak_rss_mb(::getpid()));
  return 0;
}

}  // namespace fqbench
