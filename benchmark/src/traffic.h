// Load generation over the wire: a closed loop of blocking clients, and
// an open loop with one sender and one receiver thread over pipelined
// connections. Every response is checked against the oracle's logits.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "prep.h"
#include "serve/trace.h"

namespace fqbench {

/// What the load generator sends: requests drawn from one or more pools.
struct Traffic {
  std::vector<const Pool*> pools;
  std::vector<Req> reqs;  // cycled through in order

  const std::string& model(const Req& r) const {
    return pools[r.pool]->model->name;
  }
  /// Tier on the wire: the pool tier's weight bits when the model is
  /// tiered, 0 (the default tier) otherwise.
  uint8_t wire_tier(const Req& r) const;
  const fqbert::nn::Example& example(const Req& r) const {
    return pools[r.pool]->examples[r.example];
  }
  bool matches(const Req& r, const float* logits, size_t n) const {
    return pools[r.pool]->matches(r.tier, r.example, logits, n);
  }
};

/// One request's outcome. Times are now_s() seconds.
struct Record {
  uint32_t req = 0;     // index into Traffic::reqs
  uint32_t conn = 0;    // client or connection index
  double t_sched = 0.0;  // when it was due (== t_send in a closed loop)
  double t_send = 0.0;
  double t_recv = 0.0;   // 0 = no response
  bool ok = false;        // kOk status and oracle-identical logits
  bool mismatch = false;  // kOk status, wrong logits
  bool traced = false;
  std::vector<fqbert::serve::TraceEvent> stages;  // proxy-relative, us
};

/// Every `trace_every`-th request (1-based) carries a trace id; 0 = none.
bool is_traced(uint64_t index, int trace_every);

/// Closed loop: `clients` threads (the caller's thread is client 0), each
/// on its own persistent TransportClient to 127.0.0.1:`port`, sending the
/// next request as soon as the previous one returns, for `seconds`.
/// Request k (a shared counter starting at `first`) is
/// traffic.reqs[k % size]. Returns the records of every request sent.
std::vector<Record> closed_loop_wire(uint16_t port, int clients,
                                     double seconds, const Traffic& traffic,
                                     uint64_t first, int trace_every);

/// Open loop: request i (traffic.reqs[(first + i) % size]) is due at
/// start + offsets[i] and goes out on connection i % conns; one sender
/// thread keeps the schedule, the caller's thread receives. Requests
/// still unanswered `drain_s` after the last send count as failed.
/// `first` also seeds the correlation ids, which must be unique per
/// connection over its lifetime.
std::vector<Record> open_loop(const std::vector<int>& conns,
                              const std::vector<double>& offsets,
                              const Traffic& traffic, uint64_t first,
                              int trace_every, double drain_s);

/// A TCP connection to 127.0.0.1:port with TCP_NODELAY (-1 on failure).
int connect_tcp(uint16_t port);

/// Sorted arrival offsets of `n` requests uniform over [0, n / rate):
/// a Poisson process conditioned on its count, so every seed offers the
/// same number of requests over the same window.
std::vector<double> poisson_offsets(size_t n, double rate, uint64_t seed);

}  // namespace fqbench
