// perfbench_runner: runs one repetition of one workload and prints its
// report as a single JSON line (see Report in harness.h).
//
//   perfbench_runner --workload <pipeline|kv_read|kv_write|filler>
//                    --seed <n> [--trace-out <spans.csv>]
//
// perfbench/run.py runs this repeatedly and aggregates the repetitions.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "runner/workloads.h"

namespace {

int Usage() {
  std::fprintf(stderr,
               "usage: perfbench_runner --workload <pipeline|kv_read|kv_write|filler>"
               " --seed <n> [--trace-out <path>]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Options options;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) {
      return Usage();
    }
    const char* value = argv[++i];
    if (arg == "--workload") {
      options.workload = value;
    } else if (arg == "--seed") {
      char* end = nullptr;
      options.seed = std::strtoull(value, &end, 10);
      if (end == value || *end != '\0') {
        return Usage();
      }
      have_seed = true;
    } else if (arg == "--trace-out") {
      options.trace_out = value;
    } else {
      return Usage();
    }
  }
  if (!have_seed) {
    return Usage();
  }

  perfbench::Report report;
  if (options.workload == "pipeline") {
    perfbench::RunPipeline(options, report);
  } else if (options.workload == "kv_read") {
    perfbench::RunKv(options, /*write_heavy=*/false, report);
  } else if (options.workload == "kv_write") {
    perfbench::RunKv(options, /*write_heavy=*/true, report);
  } else if (options.workload == "filler") {
    perfbench::RunFiller(options, report);
  } else {
    return Usage();
  }
  std::printf("%s\n", report.ToJson().c_str());
  return 0;
}
