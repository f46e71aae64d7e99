// fqbench — the repository benchmark.
//
//   fqbench [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
//           [--out DIR]
//
// Runs one workload (or all four) and prints a report, then one JSON line
// {"correct", "attempted", "failed", "metrics"} as the last line of
// stdout. Untraced runs report the end-to-end metrics, traced runs the
// per-layer metrics. Every run also writes a result file under
// DIR/results. Exits nonzero when any output was wrong or any request
// failed. See benchmark/README.md.
#include <unistd.h>

#include <climits>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "bench.h"
#include "workloads.h"

namespace {

using namespace fqbench;

[[noreturn]] void usage(const std::string& error) {
  std::fprintf(stderr,
               "fqbench: %s\nusage: fqbench [--workload NAME] [--seed N] "
               "[--seconds S] [--trace [0|1]] [--out DIR]\n",
               error.c_str());
  std::exit(2);
}

std::string self_exe() {
  char buf[PATH_MAX];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  return n > 0 ? std::string(buf, static_cast<size_t>(n)) : "";
}

bool known_workload(const std::string& name) {
  for (const std::string& w : workload_names())
    if (w == name) return true;
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  Options opts;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(arg + " needs a value");
      return argv[++i];
    };
    if (arg == "--probe-engine") {
      return probe_engine(value());
    } else if (arg == "--workload") {
      opts.workload = value();
      if (!known_workload(opts.workload))
        usage("unknown workload '" + opts.workload + "'");
    } else if (arg == "--seed") {
      opts.seed = std::strtoull(value().c_str(), nullptr, 10);
    } else if (arg == "--seconds") {
      opts.seconds = std::strtod(value().c_str(), nullptr);
      if (!(opts.seconds >= 1.0 && opts.seconds <= 600.0))
        usage("--seconds must be in [1, 600]");
    } else if (arg == "--trace") {
      // "--trace" alone, or "--trace 0|1".
      opts.trace = true;
      if (i + 1 < argc && (std::string(argv[i + 1]) == "0" ||
                           std::string(argv[i + 1]) == "1"))
        opts.trace = std::string(argv[++i]) == "1";
    } else if (arg == "--out") {
      opts.out_dir = value();
    } else {
      usage("unknown option '" + arg + "'");
    }
  }

  Env env;
  env.cli = FQBENCH_CLI_PATH;
  env.self_exe = self_exe();
  env.out_dir = opts.out_dir;
  env.prep_dir = opts.out_dir + "/prep";
  env.log_dir = opts.out_dir + "/logs";
  const std::string results_dir = opts.out_dir + "/results";
  for (const std::string& d : {env.prep_dir, env.log_dir, results_dir})
    if (!make_dirs(d)) usage("cannot create " + d);

  std::vector<std::string> names =
      opts.workload.empty() ? workload_names()
                            : std::vector<std::string>{opts.workload};
  std::vector<WorkloadResult> results;
  for (const std::string& name : names) {
    std::fprintf(stderr, "fqbench: %s (seed %llu, %g s, %s)\n", name.c_str(),
                 static_cast<unsigned long long>(opts.seed), opts.seconds,
                 opts.trace ? "traced" : "untraced");
    WorkloadResult r;
    try {
      r = run_workload(name, opts, env);
    } catch (const std::exception& e) {
      r = WorkloadResult{name};
      r.fail(std::string("exception: ") + e.what());
    }
    if (r.failed() > 0 && r.correct)
      r.fail(std::to_string(r.failed()) + " operations failed");
    for (const Metric& m : r.metrics)
      if (!std::isfinite(m.value)) r.fail(m.name + " is not finite");
    print_report(r);
    results.push_back(std::move(r));
  }

  const std::string file =
      results_dir + "/" + (opts.workload.empty() ? "all" : opts.workload) +
      "-s" + std::to_string(opts.seed) + (opts.trace ? "-traced" : "") +
      ".json";
  bool ok = write_result_json(file, opts, results);
  std::printf("result: %s\n", file.c_str());
  for (const WorkloadResult& r : results) ok = ok && r.correct;
  std::printf("%s\n", summary_line(results).c_str());
  return ok ? 0 : 1;
}
