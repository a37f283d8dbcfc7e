// Shared plumbing for the end-to-end benchmark: command-line arguments,
// clocks and resource readings, order statistics, the seeded generator the
// workloads draw their inputs from, and the one-line JSON result.

#ifndef PERFBENCH_BENCH_H_
#define PERFBENCH_BENCH_H_

#include <cstdint>
#include <initializer_list>
#include <string>
#include <vector>

namespace perfbench {

/// Parsed `--workload W --seed N --seconds S --trace 0|1`.
struct Args {
  std::string workload;
  uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
};

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// What one run reports. `correct` is false when an operation returned a
/// wrong answer that is not a listed known fault (see oracle.h); such a run
/// exits nonzero.
struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;
  /// First few problems, printed to stderr.
  std::vector<std::string> problems;

  void Add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  /// Records a wrong answer: a known fault counts as a failed operation,
  /// anything else also makes the run incorrect.
  void Wrong(const std::string& what, bool known_fault);
};

/// Monotonic clock in nanoseconds.
uint64_t NowNs();
/// Seconds between two NowNs() readings.
inline double Seconds(uint64_t from_ns, uint64_t to_ns) {
  return double(to_ns - from_ns) * 1e-9;
}
/// User + system CPU seconds of the whole process.
double ProcessCpuSeconds();
/// User + system CPU seconds of the calling thread.
double ThreadCpuSeconds();
/// Peak resident set of the process in MiB.
double PeakRssMb();
/// Restricts the calling thread (and threads it creates later) to the given
/// CPUs; does nothing when the machine has fewer than four.
void PinTo(std::initializer_list<int> cpus);

/// Median (mean of the two middle values for an even count).
double Median(std::vector<double> v);
/// Nearest-rank percentile, `p` in (0, 100].
double Percentile(std::vector<double> v, double p);
/// Arithmetic mean (0 for an empty vector).
double Mean(const std::vector<double>& v);

/// SplitMix64: a small seeded generator whose output does not depend on the
/// standard library's distribution implementations.
class Rng {
 public:
  explicit Rng(uint64_t seed) : state_(seed) {}
  uint64_t Next();
  /// Uniform in [0, n).
  uint64_t Below(uint64_t n) { return Next() % n; }

 private:
  uint64_t state_;
};

/// Prints the result as the last line of standard output.
void PrintResult(const RunResult& result);

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_H_
