#include "fleet.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "bench.h"

namespace fqbench {

using fqbert::serve::Micros;
using fqbert::serve::net::TransportClient;

namespace {

constexpr double kStartTimeoutS = 30.0;
constexpr double kStopTimeoutS = 10.0;

/// An unused loopback port (the proxy CLI needs an explicit one).
uint16_t free_port() {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return 0;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  socklen_t len = sizeof(addr);
  uint16_t port = 0;
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0 &&
      ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) == 0)
    port = ntohs(addr.sin_port);
  ::close(fd);
  return port;
}

bool child_exited(int pid) {
  int status = 0;
  return ::waitpid(pid, &status, WNOHANG) == pid;
}

std::string join(const std::vector<std::string>& parts, const char* sep) {
  std::string out;
  for (const std::string& p : parts) out += (out.empty() ? "" : sep) + p;
  return out;
}

}  // namespace

int Fleet::spawn(const std::string& name, const std::vector<std::string>& args) {
  const std::string log = log_dir_ + "/" + name + ".log";
  std::vector<std::string> full = {cli_};
  full.insert(full.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : full) argv.push_back(a.data());
  argv.push_back(nullptr);
  // A previous incarnation's log must not be mistaken for this one's.
  ::unlink(log.c_str());
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid == 0) {
    // Only async-signal-safe calls between fork and exec. The child dies
    // with the benchmark, whatever kills it.
    ::prctl(PR_SET_PDEATHSIG, SIGKILL);
    if (::getppid() != parent) ::_exit(127);
    const int out = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    const int in = ::open("/dev/null", O_RDONLY);
    if (out < 0 || in < 0) ::_exit(127);
    ::dup2(in, 0);
    ::dup2(out, 1);
    ::dup2(out, 2);
    for (int fd = 3; fd < 1024; ++fd) ::close(fd);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  if (pid > 0) pids_.push_back(pid);
  return pid;
}

bool Fleet::wait_for_line(int pid, const std::string& name,
                          const std::string& marker, std::string* rest) {
  const std::string log = log_dir_ + "/" + name + ".log";
  const double deadline = now_s() + kStartTimeoutS;
  while (now_s() < deadline) {
    std::ifstream in(log);
    std::stringstream ss;
    ss << in.rdbuf();
    const std::string text = ss.str();
    const size_t at = text.find(marker);
    if (at != std::string::npos) {
      const size_t eol = text.find('\n', at);
      if (eol != std::string::npos) {
        *rest = text.substr(at + marker.size(), eol - at - marker.size());
        return true;
      }
    }
    if (child_exited(pid)) {
      std::erase(pids_, pid);
      error_ = name + " exited during start-up (see " + log + ")";
      return false;
    }
    ::usleep(1000);
  }
  error_ = name + " did not print '" + marker + "' in time (see " + log + ")";
  return false;
}

double Fleet::start(const FleetConfig& cfg,
                    const std::function<bool(TransportClient&)>& first_request) {
  stop();
  error_.clear();
  const double t0 = now_s();
  int backend_pid[2];
  for (int i = 0; i < 2; ++i) {
    std::vector<std::string> args = {"serve", "--listen", "0"};
    for (const std::string& m : cfg.models[i]) {
      args.push_back("--model");
      args.push_back(m);
    }
    args.insert(args.end(), cfg.serve_flags.begin(), cfg.serve_flags.end());
    backend_pid[i] = spawn("backend" + std::to_string(i), args);
    if (backend_pid[i] < 0) {
      error_ = "fork failed";
      return -1.0;
    }
  }
  for (int i = 0; i < 2; ++i) {
    std::string rest;
    if (!wait_for_line(backend_pid[i], "backend" + std::to_string(i),
                       "listening on 127.0.0.1:", &rest))
      return -1.0;
    backend_port_[i] = static_cast<uint16_t>(std::atoi(rest.c_str()));
  }

  // The proxy needs an explicit port; a port taken between probing and
  // binding makes it exit, and another is tried.
  bool proxy_up = false;
  for (int attempt = 0; attempt < 3 && !proxy_up; ++attempt) {
    proxy_port_ = free_port();
    std::vector<std::string> args = {"proxy",    "--listen",
                                     std::to_string(proxy_port_),
                                     "--policy", "hash",
                                     "--metrics", "0"};
    for (int i = 0; i < 2; ++i) {
      args.push_back("--backend");
      args.push_back(backend_address(i) + "=" + join(cfg.placement[i], ","));
    }
    const int pid = spawn("proxy", args);
    std::string rest;
    if (pid < 0 ||
        !wait_for_line(pid, "proxy", "metrics on http://127.0.0.1:", &rest))
      continue;
    metrics_port_ = static_cast<uint16_t>(std::atoi(rest.c_str()));
    proxy_up = wait_for_line(pid, "proxy", "shard proxy on ", &rest);
  }
  if (!proxy_up) return -1.0;

  TransportClient client;
  client.set_timeouts(Micros(1'000'000), Micros(10'000'000));
  const double deadline = now_s() + kStartTimeoutS;
  while (now_s() < deadline) {
    if (!client.connected() && !client.connect("127.0.0.1", proxy_port_)) {
      ::usleep(500);
      continue;
    }
    if (first_request(client)) return now_s() - t0;
  }
  error_ = "no OK response through the proxy within " +
           std::to_string(kStartTimeoutS) + " s";
  return -1.0;
}

void Fleet::stop() {
  for (const int pid : pids_) ::kill(pid, SIGTERM);
  for (const int pid : pids_) {
    const double deadline = now_s() + kStopTimeoutS;
    bool exited = false;
    while (!exited && now_s() < deadline) {
      exited = child_exited(pid);
      if (!exited) ::usleep(2000);
    }
    if (!exited) {
      ::kill(pid, SIGKILL);
      int status = 0;
      ::waitpid(pid, &status, 0);
    }
  }
  pids_.clear();
}

std::string Fleet::backend_address(int i) const {
  return "127.0.0.1:" + std::to_string(backend_port_[i]);
}

double Fleet::peak_rss_mb() const {
  double total = 0.0;
  for (const int pid : pids_) total += fqbench::peak_rss_mb(pid);
  return total;
}

std::map<std::string, double> Fleet::proxy_metrics() const {
  std::map<std::string, double> out;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return out;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(metrics_port_);
  std::string text;
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) == 0) {
    const std::string req =
        "GET /metrics HTTP/1.1\r\nHost: 127.0.0.1\r\nConnection: close\r\n\r\n";
    if (::send(fd, req.data(), req.size(), MSG_NOSIGNAL) ==
        static_cast<ssize_t>(req.size())) {
      char buf[65536];
      pollfd pfd{fd, POLLIN, 0};
      while (::poll(&pfd, 1, 5000) > 0) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n <= 0) break;
        text.append(buf, static_cast<size_t>(n));
      }
    }
  }
  ::close(fd);
  const size_t body = text.find("\r\n\r\n");
  std::istringstream lines(body == std::string::npos ? "" : text.substr(body));
  std::string line;
  while (std::getline(lines, line)) {
    if (line.empty() || line[0] == '#' || line.find('{') != std::string::npos)
      continue;
    const size_t sp = line.rfind(' ');
    if (sp == std::string::npos) continue;
    out[line.substr(0, sp)] = std::strtod(line.c_str() + sp + 1, nullptr);
  }
  return out;
}

bool Fleet::check_accounting(std::string* why, double* batch_mean) const {
  double batched = 0.0, batches = 0.0;
  for (int i = 0; i < 2; ++i) {
    TransportClient c;
    c.set_timeouts(Micros(2'000'000), Micros(10'000'000));
    const auto lanes = c.connect("127.0.0.1", backend_port_[i])
                           ? c.list_models_tiered()
                           : std::nullopt;
    if (!lanes) {
      *why = "backend " + backend_address(i) + " LIST failed: " + c.error();
      return false;
    }
    for (const auto& lane : *lanes) {
      const auto st = c.query_stats(lane.name, lane.tier);
      if (!st) {
        *why = "backend " + backend_address(i) + " STATS failed: " + c.error();
        return false;
      }
      const auto& r = st->report;
      if (!r.accounting_balances()) {
        *why = "backend " + backend_address(i) + " lane " + lane.name +
               "@int" + std::to_string(lane.tier) + ": admitted " +
               std::to_string(r.admitted) + " != completed " +
               std::to_string(r.completed) + " + timed_out " +
               std::to_string(r.timed_out) + " + failed " +
               std::to_string(r.failed);
        return false;
      }
      batched += r.mean_batch_occupancy * static_cast<double>(r.batches);
      batches += static_cast<double>(r.batches);
    }
  }
  if (batch_mean != nullptr) *batch_mean = batches > 0 ? batched / batches : 0;
  return true;
}

}  // namespace fqbench
