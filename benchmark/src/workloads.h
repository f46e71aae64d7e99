// The four workloads. Each stresses a different layer of the system:
//
//   encoder_b1    in-process forward(), batch 1: the integer kernels alone
//   hop_overhead  a few-µs engine behind proxy + 2 backends: the serving
//                 machinery alone
//   fleet_ladder  open-loop rate ladder through the fleet: queueing,
//                 batching, wire and compute together; capacity
//   fleet_churn   fixed-rate open loop while a model migrates between
//                 backends every second: control plane beside data plane
//
// An untraced run reports the end-to-end metrics; a traced run (--trace)
// reports the per-layer metrics and writes <out>/<workload>.trace.json.
#pragma once

#include <string>
#include <vector>

#include "bench.h"

namespace fqbench {

struct Env {
  std::string cli;       // fqbert_cli binary
  std::string self_exe;  // this binary (for the fresh-process engine probe)
  std::string out_dir;
  std::string prep_dir;  // engine files
  std::string log_dir;   // child process logs
};

const std::vector<std::string>& workload_names();

WorkloadResult run_workload(const std::string& name, const Options& opts,
                            const Env& env);

/// Child-process mode behind encoder_b1's setup_s and peak_rss_mb: load
/// the engine, time load + first forward, run one forward per length,
/// print "setup_s=<s> rss_mb=<MB>". Returns the exit code.
int probe_engine(const std::string& path);

}  // namespace fqbench
