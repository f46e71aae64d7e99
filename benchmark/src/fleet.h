// The system under test for the fleet workloads: two
// `fqbert_cli serve --listen` backends behind one `fqbert_cli proxy`,
// each a child process of the benchmark.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "serve/net/transport_client.h"

namespace fqbench {

struct FleetConfig {
  /// `serve --model` specs, per backend.
  std::vector<std::string> models[2];
  /// Extra `serve` flags shared by both backends (e.g. --wait-us 0).
  std::vector<std::string> serve_flags;
  /// Model names the proxy places on each backend.
  std::vector<std::string> placement[2];
};

class Fleet {
 public:
  Fleet(std::string cli_path, std::string log_dir)
      : cli_(std::move(cli_path)), log_dir_(std::move(log_dir)) {}
  ~Fleet() { stop(); }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  /// Spawn both backends, then the proxy, and call `first_request` on a
  /// client connected to the proxy until it reports an OK response.
  /// Returns the seconds from the first spawn to that response, or a
  /// negative value (see error()) when the fleet does not come up.
  double start(const FleetConfig& cfg,
               const std::function<bool(fqbert::serve::net::TransportClient&)>&
                   first_request);
  /// SIGTERM every child and wait for each to exit. Idempotent.
  void stop();

  uint16_t proxy_port() const { return proxy_port_; }
  std::string backend_address(int i) const;
  uint16_t backend_port(int i) const { return backend_port_[i]; }
  const std::string& error() const { return error_; }

  /// Sum of VmHWM over the backends and the proxy, MB.
  double peak_rss_mb() const;
  /// Unlabelled samples of the proxy's /metrics exposition.
  std::map<std::string, double> proxy_metrics() const;
  /// Per-lane `admitted == completed + timed_out + failed` on every
  /// backend, via STATS. `batch_mean` gets the batch occupancy over all
  /// lanes (requests per executed batch).
  bool check_accounting(std::string* why, double* batch_mean) const;

 private:
  int spawn(const std::string& name, const std::vector<std::string>& args);
  /// Wait for `marker` in a child's log; returns the rest of its line.
  bool wait_for_line(int pid, const std::string& name,
                     const std::string& marker, std::string* rest);

  std::string cli_;
  std::string log_dir_;
  std::vector<int> pids_;
  uint16_t backend_port_[2] = {0, 0};
  uint16_t proxy_port_ = 0;
  uint16_t metrics_port_ = 0;
  std::string error_;
};

}  // namespace fqbench
