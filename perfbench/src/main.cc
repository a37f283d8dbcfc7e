// perfbench: the end-to-end and per-layer benchmark of statcube.
//
//   perfbench --workload adhoc_rollup|dashboard_http
//             --seed N --seconds S --trace 0|1
//
// Prints progress and problems on stderr and, as the last line of stdout,
// one JSON object {"correct", "attempted", "failed", "metrics"}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
// Exits 1 when an answer is wrong (other than a listed known fault) and 2
// on a usage or set-up error.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "bench.h"
#include "workloads.h"

namespace {

int Usage(const char* msg) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "adhoc_rollup|dashboard_http --seed N --seconds S "
               "--trace 0|1\n",
               msg);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  bool have_workload = false;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* v = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = v;
      have_workload = true;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v, &end, 10);
    } else if (flag == "--seconds") {
      args.seconds = int(std::strtol(v, &end, 10));
      if (args.seconds < 1) return Usage("--seconds must be >= 1");
    } else if (flag == "--trace") {
      if (std::strcmp(v, "0") != 0 && std::strcmp(v, "1") != 0)
        return Usage("--trace takes 0 or 1");
      args.trace = v[0] == '1';
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
    if (end != nullptr && *end != '\0')
      return Usage(("bad number for " + flag).c_str());
  }
  if (!have_workload) return Usage("--workload is required");

  // Process-wide settings the library reads once: the execution pool is
  // capped at two workers (threads=2 queries; four threads at most in all),
  // and the result cache gets the benchmark's budget.
  setenv("STATCUBE_THREADS", "2", 1);
  setenv("STATCUBE_CACHE_BYTES", std::to_string(perfbench::kCacheBytes).c_str(),
         1);

  perfbench::RunResult result;
  try {
    if (args.workload == "adhoc_rollup") {
      result = perfbench::RunAdhocRollup(args);
    } else if (args.workload == "dashboard_http") {
      result = perfbench::RunDashboardHttp(args);
    } else {
      return Usage(("unknown workload " + args.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  for (const std::string& p : result.problems)
    std::fprintf(stderr, "perfbench: %s\n", p.c_str());
  perfbench::PrintResult(result);
  return result.correct ? 0 : 1;
}
