// The two workloads and the metric assembly they share.

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <vector>

#include "bench.h"
#include "statcube/cache/result_cache.h"
#include "trace.h"

namespace perfbench {

/// Ad-hoc statistical analysis: a fixed battery through QueryProfiled on
/// every engine at threads 1 and 2, cache off, over a large object.
RunResult RunAdhocRollup(const Args& args);
/// OLAP dashboard: two closed-loop loopback clients POST /query for
/// Zipf-skewed tiles with cache=derive over a small object.
RunResult RunDashboardHttp(const Args& args);

/// Result-cache budget every workload runs with (STATCUBE_CACHE_BYTES).
inline constexpr size_t kCacheBytes = size_t(2) << 20;

/// Set-ups a run makes unless a workload says otherwise; setup_s is their
/// median. The first set-up serves the run; the others are spread over the
/// measured phase (between rounds, outside every window) and thrown away,
/// so that a slow moment of the machine does not decide the figure.
inline constexpr size_t kSetups = 9;

/// True when the next spare set-up is due, `done` of `setups` having been
/// made.
inline bool SetupDue(size_t done, size_t setups, uint64_t start_ns,
                     int seconds) {
  return done < setups &&
         Seconds(start_ns, NowNs()) >= double(done) * seconds / double(setups);
}

/// One window of the measured phase: a whole round of the workload.
struct Window {
  std::vector<double> latency_ms;  ///< one per completed query
  double cpu_s = 0;                ///< CPU of the serving side
  /// CPU seconds of every timed query, in order; filled only by workloads
  /// whose rounds repeat the same queries.
  std::vector<double> step_cpu_s;

  /// Records the CPU of one timed query.
  void Step(double cpu) {
    step_cpu_s.push_back(cpu);
    cpu_s += cpu;
  }
};

/// What the measured phase of an untraced run saw. Load from outside the
/// benchmark only slows work down, so every repeated measurement is
/// reduced to its quiet quarter: when every window ran the same steps in
/// the same order, each step's CPU and latency is its lower quartile over
/// the windows and the figures are computed from those; otherwise each
/// figure is computed per window and its lower quartile over the windows
/// is reported.
struct Measured {
  std::vector<Window> windows;
  /// Percentile reported as query_tail_ms: the highest one that leaves at
  /// least ten of a window's queries beyond it.
  double tail_percentile = 99;

  Window& Open() { return windows.emplace_back(); }
};

/// Adds the end-to-end metrics (setup_s, query_tail_ms, cpu_ms_per_query,
/// peak_rss_mb); `setup_s` is the median of the set-ups.
void AddEndToEnd(RunResult& out, const std::vector<double>& setup_s,
                 const Measured& m);

/// What a traced run adds to its spans.
struct TraceTotals {
  double append_us_per_row = 0;
  /// Σ end-to-end time of traced operations: QueryProfiled in process, the
  /// round trip over HTTP.
  double e2e_ns = 0;
  /// Σ time the replayed layer calls took.
  double replay_ns = 0;
  /// Σ time of the call the replay decomposes (QueryProfiled in process,
  /// QueryFrontDoor::ServeRequest over HTTP).
  double decomposed_ns = 0;
  uint64_t ops = 0;
  /// End-to-end latency of each operation in untraced and traced rounds.
  std::vector<double> untraced_ms, traced_ms;
  statcube::cache::ResultCache::Stats cache_before, cache_after;
};

/// Adds every per-layer metric, computed from the spans and `totals`.
/// Layers a workload does not exercise read 0.
void AddPerLayer(RunResult& out, Tracer& tracer, const TraceTotals& totals);

/// Writes the spans under .bench_out/ and prints the per-layer table to
/// stderr.
void FinishTrace(const Args& args, Tracer& tracer, const RunResult& out);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
