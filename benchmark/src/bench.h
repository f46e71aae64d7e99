// Shared vocabulary of the repository benchmark (fqbench): options,
// per-workload results, sample statistics and the span log written as
// Chrome trace-event JSON.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace fqbench {

using Clock = std::chrono::steady_clock;

/// Seconds since the steady clock's epoch (only differences are used).
double now_s();

/// Sleep until `t` (seconds on now_s()'s clock).
void sleep_until_s(double t);

struct Options {
  std::string workload;  // empty = every workload, in declaration order
  uint64_t seed = 1;
  double seconds = 15.0;  // BENCHMARK.json run_seconds
  bool trace = false;
  std::string out_dir = "benchmark/out";
};

/// Requests of one phase of a workload (warmup, measure, a ladder rung,
/// the control plane, ...).
struct Phase {
  std::string name;
  uint64_t sent = 0;
  uint64_t ok = 0;
  uint64_t failed = 0;  // non-OK status, transport error or wrong logits
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  uint64_t samples = 0;
};

struct WorkloadResult {
  explicit WorkloadResult(std::string workload = "")
      : name(std::move(workload)) {}

  std::string name;
  bool correct = true;
  std::vector<std::string> problems;  // why `correct` is false
  std::vector<Phase> phases;
  std::vector<Metric> metrics;
  std::vector<std::string> notes;  // extra report lines (tables)

  void metric(const std::string& metric_name, double value,
              const std::string& unit, uint64_t samples) {
    metrics.push_back({metric_name, value, unit, samples});
  }
  /// Mark the run incorrect (the command then exits nonzero).
  void fail(const std::string& why);
  uint64_t attempted() const;
  uint64_t failed() const;
};

/// Sample quantile by nearest rank on a copy (q in [0, 1]); 0 when empty.
double quantile(std::vector<double> v, double q);
double mean(const std::vector<double>& v);

/// One span of the trace file: a named interval with a parent. Times are
/// microseconds since the run's origin.
struct Span {
  std::string name;
  double ts_us = 0.0;
  double dur_us = 0.0;
  uint32_t tid = 0;
  uint64_t id = 0;
  uint64_t parent = 0;  // 0 = root
};

/// In-memory span store, written once at exit. Self time (duration minus
/// the children's durations) is computed at write time.
class SpanLog {
 public:
  /// Add a span; returns its id (never 0).
  uint64_t add(const std::string& name, double ts_us, double dur_us,
               uint32_t tid, uint64_t parent);
  /// Close a span opened with a placeholder duration.
  void finish(uint64_t id, double end_us);
  size_t size() const { return spans_.size(); }
  bool write_chrome_json(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Current VmHWM of a process in MB (0 when unreadable).
double peak_rss_mb(int pid);

/// Create `dir` and its parents; false on failure.
bool make_dirs(const std::string& dir);

/// Human-readable report of one workload: every metric with its unit and
/// sample count, the per-phase request counts, and any problems.
void print_report(const WorkloadResult& r);

/// The last stdout line: {"correct", "attempted", "failed", "metrics"}.
/// With several workloads the metric names are "<workload>.<metric>".
std::string summary_line(const std::vector<WorkloadResult>& results);

/// The result file: build identity, host, options and every workload's
/// phases and metrics.
bool write_result_json(const std::string& path, const Options& opts,
                       const std::vector<WorkloadResult>& results);

}  // namespace fqbench
