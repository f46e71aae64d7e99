// bench.h helpers: clocks, statistics, spans, and the printed and
// written results.
#include <sys/stat.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <sstream>
#include <thread>

#include "bench.h"
#include "serve/build_info.h"

namespace fqbench {

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

/// Every digit of a double (JSON has no NaN/inf; those print as null and
/// the workload is already marked incorrect).
std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string metric_object(const Metric& m, bool with_samples) {
  std::string out = "{\"value\": " + json_number(m.value) +
                    ", \"unit\": " + json_string(m.unit);
  if (with_samples) out += ", \"samples\": " + std::to_string(m.samples);
  return out + "}";
}

}  // namespace

double now_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch())
      .count();
}

void sleep_until_s(double t) {
  std::this_thread::sleep_until(Clock::time_point(
      std::chrono::duration_cast<Clock::duration>(
          std::chrono::duration<double>(t))));
}

void WorkloadResult::fail(const std::string& why) {
  correct = false;
  problems.push_back(why);
}

uint64_t WorkloadResult::attempted() const {
  uint64_t n = 0;
  for (const Phase& p : phases) n += p.sent;
  return n;
}

uint64_t WorkloadResult::failed() const {
  uint64_t n = 0;
  for (const Phase& p : phases) n += p.failed;
  return n;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const size_t rank = std::min(
      v.size() - 1,
      static_cast<size_t>(std::ceil(q * static_cast<double>(v.size()))) -
          (q > 0.0 ? 1 : 0));
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank),
                   v.end());
  return v[rank];
}

double mean(const std::vector<double>& v) {
  return v.empty() ? 0.0
                   : std::accumulate(v.begin(), v.end(), 0.0) /
                         static_cast<double>(v.size());
}

uint64_t SpanLog::add(const std::string& name, double ts_us, double dur_us,
                      uint32_t tid, uint64_t parent) {
  spans_.push_back({name, ts_us, dur_us, tid, spans_.size() + 1, parent});
  return spans_.size();
}

void SpanLog::finish(uint64_t id, double end_us) {
  Span& s = spans_[id - 1];
  s.dur_us = end_us - s.ts_us;
}

bool SpanLog::write_chrome_json(const std::string& path) const {
  std::vector<double> child_us(spans_.size() + 1, 0.0);
  for (const Span& s : spans_) child_us[s.parent] += s.dur_us;
  std::ofstream out(path);
  out << "{\"displayTimeUnit\": \"ns\", \"traceEvents\": [\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << (i == 0 ? "" : ",\n") << "{\"name\": " << json_string(s.name)
        << ", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.tid
        << ", \"ts\": " << json_number(s.ts_us)
        << ", \"dur\": " << json_number(s.dur_us)
        << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
        << ", \"self_us\": " << json_number(s.dur_us - child_us[s.id])
        << "}}";
  }
  out << "\n]}\n";
  return static_cast<bool>(out);
}

double peak_rss_mb(int pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line))
    if (line.rfind("VmHWM:", 0) == 0)
      return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB -> MB
  return 0.0;
}

bool make_dirs(const std::string& dir) {
  for (size_t pos = 0; pos != std::string::npos;) {
    pos = dir.find('/', pos + 1);
    const std::string part = dir.substr(0, pos);
    if (::mkdir(part.c_str(), 0755) != 0 && errno != EEXIST) return false;
  }
  return true;
}

void print_report(const WorkloadResult& r) {
  std::printf("== %s: %s\n", r.name.c_str(),
              r.correct ? "correct" : "INCORRECT");
  for (const std::string& p : r.problems)
    std::printf("   problem: %s\n", p.c_str());
  for (const std::string& note : r.notes) std::printf("%s\n", note.c_str());
  std::printf("   %-14s %10s %10s %10s\n", "phase", "sent", "ok", "failed");
  for (const Phase& p : r.phases)
    std::printf("   %-14s %10llu %10llu %10llu\n", p.name.c_str(),
                static_cast<unsigned long long>(p.sent),
                static_cast<unsigned long long>(p.ok),
                static_cast<unsigned long long>(p.failed));
  for (const Metric& m : r.metrics)
    std::printf("   %-26s %14.6g %-10s (n=%llu)\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<unsigned long long>(m.samples));
  std::fflush(stdout);
}

std::string summary_line(const std::vector<WorkloadResult>& results) {
  bool correct = !results.empty();
  uint64_t attempted = 0, failed = 0;
  std::string metrics;
  for (const WorkloadResult& r : results) {
    correct = correct && r.correct;
    attempted += r.attempted();
    failed += r.failed();
    for (const Metric& m : r.metrics) {
      const std::string name =
          results.size() > 1 ? r.name + "." + m.name : m.name;
      metrics += (metrics.empty() ? "" : ", ") + json_string(name) + ": " +
                 metric_object(m, false);
    }
  }
  return "{\"correct\": " + std::string(correct ? "true" : "false") +
         ", \"attempted\": " + std::to_string(attempted) +
         ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {" +
         metrics + "}}";
}

bool write_result_json(const std::string& path, const Options& opts,
                       const std::vector<WorkloadResult>& results) {
  std::ostringstream out;
  out << "{\n  \"schema\": \"fqbench-result/1\",\n"
      << "  \"git_sha\": " << json_string(fqbert::serve::build_git_sha())
      << ",\n  \"version\": " << json_string(fqbert::serve::build_version())
      << ",\n  \"compiler\": " << json_string(fqbert::serve::build_compiler())
      << ",\n  \"build_type\": " << json_string(FQBENCH_BUILD_TYPE)
      << ",\n  \"cxx_flags\": " << json_string(FQBENCH_CXX_FLAGS)
      << ",\n  \"nproc\": " << std::thread::hardware_concurrency()
      << ",\n  \"seed\": " << opts.seed
      << ",\n  \"seconds\": " << json_number(opts.seconds)
      << ",\n  \"trace\": " << (opts.trace ? "true" : "false")
      << ",\n  \"workloads\": {";
  for (size_t w = 0; w < results.size(); ++w) {
    const WorkloadResult& r = results[w];
    out << (w == 0 ? "\n" : ",\n") << "    " << json_string(r.name)
        << ": {\n      \"correct\": " << (r.correct ? "true" : "false")
        << ",\n      \"attempted\": " << r.attempted()
        << ",\n      \"failed\": " << r.failed() << ",\n      \"problems\": [";
    for (size_t i = 0; i < r.problems.size(); ++i)
      out << (i == 0 ? "" : ", ") << json_string(r.problems[i]);
    out << "],\n      \"phases\": [";
    for (size_t i = 0; i < r.phases.size(); ++i) {
      const Phase& p = r.phases[i];
      out << (i == 0 ? "\n" : ",\n") << "        {\"name\": "
          << json_string(p.name) << ", \"sent\": " << p.sent
          << ", \"ok\": " << p.ok << ", \"failed\": " << p.failed << "}";
    }
    out << "],\n      \"metrics\": {";
    for (size_t i = 0; i < r.metrics.size(); ++i)
      out << (i == 0 ? "\n" : ",\n") << "        "
          << json_string(r.metrics[i].name) << ": "
          << metric_object(r.metrics[i], true);
    out << "\n      }\n    }";
  }
  out << "\n  }\n}\n";
  std::ofstream f(path);
  f << out.str();
  return static_cast<bool>(f);
}

}  // namespace fqbench
