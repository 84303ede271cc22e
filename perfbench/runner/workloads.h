// The four workloads. Each builds one single-threaded simulation, times
// its setup and its timed phase, runs the workload's output checks and
// fills `report`; see perfbench/README.md for what each one loads.

#ifndef PERFBENCH_RUNNER_WORKLOADS_H_
#define PERFBENCH_RUNNER_WORKLOADS_H_

#include "runner/harness.h"

namespace perfbench {

void RunPipeline(const Options& options, Report& report);
void RunKv(const Options& options, bool write_heavy, Report& report);
void RunFiller(const Options& options, Report& report);

}  // namespace perfbench

#endif  // PERFBENCH_RUNNER_WORKLOADS_H_
