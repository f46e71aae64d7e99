#include "traffic.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <thread>

#include "bench.h"
#include "serve/net/frame.h"
#include "serve/net/transport_client.h"
#include "tensor/rng.h"

namespace fqbench {

using namespace fqbert;
using serve::Micros;
using serve::RequestStatus;

namespace {

/// Trace ids are nonzero and distinct from every correlation id.
uint64_t trace_id_for(uint64_t index) { return 0x5000000000000000ull + index; }

/// Send everything before `deadline` (now_s()); false on error/timeout.
bool send_all(int fd, const uint8_t* data, size_t len, double deadline) {
  size_t sent = 0;
  while (sent < len) {
    const ssize_t n = ::send(fd, data + sent, len - sent,
                             MSG_NOSIGNAL | MSG_DONTWAIT);
    if (n > 0) {
      sent += static_cast<size_t>(n);
      continue;
    }
    if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)
      return false;
    const double left = deadline - now_s();
    if (left <= 0) return false;
    pollfd pfd{fd, POLLOUT, 0};
    ::poll(&pfd, 1, static_cast<int>(std::min(left * 1000.0, 100.0)) + 1);
  }
  return true;
}

}  // namespace

uint8_t Traffic::wire_tier(const Req& r) const {
  const PreparedModel& m = *pools[r.pool]->model;
  return m.tiers.size() > 1 ? static_cast<uint8_t>(m.tiers[r.tier]) : 0;
}

bool is_traced(uint64_t index, int trace_every) {
  return trace_every > 0 &&
         index % static_cast<uint64_t>(trace_every) ==
             static_cast<uint64_t>(trace_every - 1);
}

int connect_tcp(uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    ::close(fd);
    return -1;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

std::vector<double> poisson_offsets(size_t n, double rate, uint64_t seed) {
  Rng rng(seed);
  const double window = static_cast<double>(n) / rate;
  std::vector<double> out(n);
  for (double& t : out) t = rng.uniform(0.0, window);
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<Record> closed_loop_wire(uint16_t port, int clients,
                                     double seconds, const Traffic& traffic,
                                     uint64_t first, int trace_every) {
  std::atomic<uint64_t> next{first};
  std::vector<std::vector<Record>> per_client(static_cast<size_t>(clients));
  const double end = now_s() + seconds;
  const auto client_loop = [&](int c) {
    std::vector<Record>& out = per_client[static_cast<size_t>(c)];
    serve::net::TransportClient client;
    client.set_timeouts(Micros(2'000'000), Micros(30'000'000));
    const bool connected = client.connect("127.0.0.1", port);
    while (now_s() < end) {
      const uint64_t k = next++;
      Record rec;
      rec.req = static_cast<uint32_t>(k % traffic.reqs.size());
      rec.conn = static_cast<uint32_t>(c);
      rec.traced = is_traced(k, trace_every);
      const Req& r = traffic.reqs[rec.req];
      rec.t_sched = rec.t_send = now_s();
      const auto resp =
          connected ? client.call(traffic.example(r), std::nullopt,
                                  traffic.model(r),
                                  rec.traced ? trace_id_for(k) : 0,
                                  traffic.wire_tier(r))
                    : std::nullopt;
      rec.t_recv = now_s();
      if (resp && resp->status == RequestStatus::kOk) {
        rec.mismatch = !traffic.matches(r, resp->logits.data(),
                                        resp->logits.size());
        rec.ok = !rec.mismatch;
        if (rec.traced) rec.stages = resp->trace;
      }
      out.push_back(std::move(rec));
      if (!resp) break;  // transport failure: this client stops
    }
  };
  std::vector<std::thread> threads;
  for (int c = 1; c < clients; ++c) threads.emplace_back(client_loop, c);
  client_loop(0);
  for (std::thread& t : threads) t.join();
  std::vector<Record> all;
  for (std::vector<Record>& v : per_client)
    all.insert(all.end(), std::make_move_iterator(v.begin()),
               std::make_move_iterator(v.end()));
  return all;
}

std::vector<Record> open_loop(const std::vector<int>& conns,
                              const std::vector<double>& offsets,
                              const Traffic& traffic, uint64_t first,
                              int trace_every, double drain_s) {
  const size_t n = offsets.size();
  std::vector<Record> recs(n);
  // Encode every frame before the clock starts: the sender only sleeps
  // and writes.
  std::vector<std::vector<uint8_t>> frames(n);
  for (size_t i = 0; i < n; ++i) {
    const uint64_t k = first + i;
    Record& rec = recs[i];
    rec.req = static_cast<uint32_t>(k % traffic.reqs.size());
    rec.conn = static_cast<uint32_t>(i % conns.size());
    rec.traced = is_traced(k, trace_every);
    const Req& r = traffic.reqs[rec.req];
    serve::net::WireRequest wire;
    wire.correlation_id = k;
    wire.trace_id = rec.traced ? trace_id_for(k) : 0;
    wire.tier = traffic.wire_tier(r);
    wire.model = traffic.model(r);
    wire.example = traffic.example(r);
    serve::net::encode_serve_request(wire, frames[i]);
  }

  const double start = now_s() + 0.005;
  std::atomic<bool> sender_done{false};
  std::atomic<double> last_send{start};
  std::atomic<size_t> unsent{0};  // never answered: not waited for
  std::thread sender([&] {
    for (size_t i = 0; i < n; ++i) {
      Record& rec = recs[i];
      rec.t_sched = start + offsets[i];
      sleep_until_s(rec.t_sched);
      rec.t_send = now_s();
      if (!send_all(conns[rec.conn], frames[i].data(), frames[i].size(),
                    rec.t_send + drain_s))
        ++unsent;
      last_send = rec.t_send;
    }
    sender_done = true;
  });

  std::vector<std::vector<uint8_t>> inbox(conns.size());
  std::vector<pollfd> pfds;
  for (const int fd : conns) pfds.push_back({fd, POLLIN, 0});
  size_t received = 0;
  std::vector<uint8_t> buf(64 * 1024);
  while (received + unsent < n) {
    if (sender_done && now_s() > last_send + drain_s) break;
    if (::poll(pfds.data(), pfds.size(), 10) <= 0) continue;
    for (size_t c = 0; c < pfds.size(); ++c) {
      if ((pfds[c].revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const ssize_t got = ::recv(pfds[c].fd, buf.data(), buf.size(), 0);
      const double t_recv = now_s();
      if (got <= 0) {
        pfds[c].fd = -1;  // closed: its outstanding requests fail
        continue;
      }
      std::vector<uint8_t>& in = inbox[c];
      in.insert(in.end(), buf.data(), buf.data() + got);
      size_t pos = 0;
      for (;;) {
        serve::net::FrameHeader hdr;
        const serve::net::DecodeStatus st =
            serve::net::decode_header(in.data() + pos, in.size() - pos, &hdr);
        if (st == serve::net::DecodeStatus::kError) {
          pfds[c].fd = -1;  // desynchronized stream: stop reading it
          pos = in.size();
          break;
        }
        if (st == serve::net::DecodeStatus::kNeedMore ||
            in.size() - pos < serve::net::kHeaderSize + hdr.payload_len)
          break;
        serve::net::WireResponse wire;
        const bool decoded =
            hdr.type == serve::net::FrameType::kServeResponse &&
            serve::net::decode_serve_response(
                in.data() + pos + serve::net::kHeaderSize, hdr.payload_len,
                hdr.version, &wire);
        pos += serve::net::kHeaderSize + hdr.payload_len;
        if (!decoded || wire.correlation_id < first ||
            wire.correlation_id - first >= n)
          continue;
        Record& rec = recs[wire.correlation_id - first];
        if (rec.t_recv != 0.0) continue;
        rec.t_recv = t_recv;
        ++received;
        if (wire.response.status == RequestStatus::kOk) {
          rec.mismatch = !traffic.matches(traffic.reqs[rec.req],
                                          wire.response.logits.data(),
                                          wire.response.logits.size());
          rec.ok = !rec.mismatch;
          if (rec.traced) rec.stages = std::move(wire.response.trace);
        }
      }
      in.erase(in.begin(), in.begin() + static_cast<std::ptrdiff_t>(pos));
    }
  }
  sender.join();
  return recs;
}

}  // namespace fqbench
