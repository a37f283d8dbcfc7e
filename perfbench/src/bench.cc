#include "bench.h"

#include <pthread.h>
#include <sched.h>
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <thread>

namespace perfbench {

void RunResult::Wrong(const std::string& what, bool known_fault) {
  ++failed;
  if (!known_fault) correct = false;
  if (problems.size() < 8)
    problems.push_back((known_fault ? "known fault: " : "WRONG: ") + what);
}

uint64_t NowNs() {
  timespec ts;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return uint64_t(ts.tv_sec) * 1000000000ull + uint64_t(ts.tv_nsec);
}

double ProcessCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double ThreadCpuSeconds() {
  timespec ts;
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double PeakRssMb() {
  rusage ru;
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

void PinTo(std::initializer_list<int> cpus) {
  if (std::thread::hardware_concurrency() < 4) return;
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  pthread_setaffinity_np(pthread_self(), sizeof(set), &set);
}

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = size_t(std::ceil(p / 100.0 * double(v.size())));
  return v[std::clamp<size_t>(rank, 1, v.size()) - 1];
}

double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (double x : v) s += x;
  return s / double(v.size());
}

uint64_t Rng::Next() {
  uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  return z ^ (z >> 31);
}

void PrintResult(const RunResult& result) {
  std::string out = "{\"correct\": ";
  out += result.correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(result.attempted);
  out += ", \"failed\": " + std::to_string(result.failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < result.metrics.size(); ++i) {
    const Metric& m = result.metrics[i];
    char num[64];
    double v = std::isfinite(m.value) ? m.value : 0.0;
    snprintf(num, sizeof(num), "%.17g", v);
    if (i) out += ", ";
    out += "\"" + m.name + "\": {\"value\": " + num + ", \"unit\": \"" +
           m.unit + "\"}";
  }
  out += "}}";
  std::fflush(stderr);
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
