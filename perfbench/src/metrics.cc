// End-to-end and per-layer metric assembly shared by the workloads.

#include <sys/stat.h>

#include <cstdio>

#include "workloads.h"

namespace perfbench {

namespace {

// The lower quartile of a step's time over the windows. Load from outside
// the benchmark only ever slows a step down, so the quiet quarter of the
// samples estimates the program's own cost best.
double StepQuiet(const std::vector<Window>& windows,
                 std::vector<double> Window::*field, size_t i) {
  std::vector<double> v;
  for (const Window& w : windows) v.push_back((w.*field)[i]);
  return Percentile(v, 25);
}

bool Aligned(const std::vector<Window>& windows) {
  for (const Window& w : windows)
    if (w.step_cpu_s.empty() ||
        w.step_cpu_s.size() != windows[0].step_cpu_s.size() ||
        w.latency_ms.size() != windows[0].latency_ms.size())
      return false;
  return true;
}

double Ratio(double num, double den) { return den == 0 ? 0 : num / den; }

// Mean self time of executor spans at `threads` ("query.execute:*:tN").
double ExecuteMeanUs(const Tracer& tracer, int threads) {
  const std::string suffix = ":t" + std::to_string(threads);
  double total = 0;
  size_t n = 0;
  for (const SpanRec& s : tracer.spans()) {
    if (s.name.rfind("query.execute:", 0) != 0 ||
        s.name.size() < suffix.size() ||
        s.name.compare(s.name.size() - suffix.size(), suffix.size(),
                       suffix) != 0)
      continue;
    total += double(s.self_ns) * 1e-3;
    ++n;
  }
  return n == 0 ? 0 : total / double(n);
}

}  // namespace

void AddEndToEnd(RunResult& out, const std::vector<double>& setup_s,
                 const Measured& m) {
  std::vector<double> tail, cpu;
  if (Aligned(m.windows)) {
    const Window& first = m.windows[0];
    double cpu_s = 0;
    for (size_t i = 0; i < first.step_cpu_s.size(); ++i)
      cpu_s += StepQuiet(m.windows, &Window::step_cpu_s, i);
    std::vector<double> lat;
    for (size_t i = 0; i < first.latency_ms.size(); ++i)
      lat.push_back(StepQuiet(m.windows, &Window::latency_ms, i));
    tail = {Percentile(lat, m.tail_percentile)};
    cpu = {cpu_s * 1e3 / double(lat.size())};
  } else {
    for (const Window& w : m.windows) {
      tail.push_back(Percentile(w.latency_ms, m.tail_percentile));
      cpu.push_back(w.cpu_s * 1e3 / double(w.latency_ms.size()));
    }
  }
  // Per-window figures: the quiet (lower) quartile again.
  out.Add("setup_s", Median(setup_s), "s");
  out.Add("query_tail_ms", Percentile(tail, 25), "ms");
  out.Add("cpu_ms_per_query", Percentile(cpu, 25), "ms");
  out.Add("peak_rss_mb", PeakRssMb(), "MB");
}

void AddPerLayer(RunResult& out, Tracer& tracer, const TraceTotals& t) {
  tracer.ComputeSelfTimes();
  auto us = [&](const char* metric, const std::string& span,
                const std::string& tag = "") {
    out.Add(metric, tracer.MeanSelfUs(span, tag), "us");
  };
  us("query.parse_us", "query.parse");
  us("query.cache_key_us", "query.cache_key");
  for (const char* cls : {"plain", "level", "where", "cube"})
    out.Add(std::string("query.execute_") + cls + "_us",
            tracer.MeanSelfUs(std::string("query.execute:") + cls + ":t1"),
            "us");
  // The hierarchy roll-up: BY city minus its plain twin BY store.
  const double level = tracer.MeanSelfUs("query.execute:level:t1", "by_city");
  const double plain = tracer.MeanSelfUs("query.execute:plain:t1", "by_store");
  out.Add("query.rollup_us", level > 0 && plain > 0 ? level - plain : 0, "us");
  us("core.data_copy_us", "core.data_copy");
  out.Add("core.append_us_per_row", t.append_us_per_row, "us");
  const double t1 = ExecuteMeanUs(tracer, 1), t2 = ExecuteMeanUs(tracer, 2);
  out.Add("exec.execute_t1_us", t1, "us");
  out.Add("exec.execute_t2_us", t2, "us");
  out.Add("exec.t2_over_t1", Ratio(t2, t1), "ratio");
  us("olap.molap_build_us", "olap.build:molap");
  us("olap.rolap_build_us", "olap.build:rolap");
  us("olap.bitmap_build_us", "olap.build:rolap+bitmap");
  us("olap.backend_answer_us", "olap.backend_answer");
  us("cache.lookup_us", "cache.lookup");
  us("cache.derive_us", "cache.derive");
  us("cache.insert_us", "cache.insert");
  const double lookups = double(t.cache_after.hits - t.cache_before.hits +
                                t.cache_after.misses - t.cache_before.misses);
  out.Add("cache.lookups", lookups, "count");
  out.Add("cache.hit_ratio",
          Ratio(double(t.cache_after.hits - t.cache_before.hits), lookups),
          "ratio");
  out.Add("cache.derived_ratio",
          Ratio(double(t.cache_after.derived_hits -
                       t.cache_before.derived_hits),
                lookups),
          "ratio");
  const double queries = double(t.untraced_ms.size() + t.traced_ms.size());
  out.Add("trace.queries", queries, "count");
  out.Add("cache.evictions_per_kquery",
          Ratio(1000.0 * double(t.cache_after.evictions -
                                t.cache_before.evictions),
                queries),
          "count");
  us("relational.render_us", "relational.render");
  us("serve.json_parse_us", "serve.json_parse");
  us("serve.envelope_us", "serve.envelope");
  us("serve.request_us", "serve.request");
  us("obs.transport_us", "http.roundtrip");
  const double unattributed = t.decomposed_ns - t.replay_ns;
  out.Add("obs.profiled_overhead_us",
          Ratio(unattributed * 1e-3, double(t.ops)), "us");
  out.Add("trace.unattributed_share", Ratio(unattributed, t.e2e_ns), "ratio");
  out.Add("trace.overhead_share",
          Ratio(Mean(t.traced_ms), Mean(t.untraced_ms)) - 1.0, "ratio");
}

void FinishTrace(const Args& args, Tracer& tracer, const RunResult& out) {
  mkdir(".bench_out", 0755);
  const std::string path = ".bench_out/spans-" + args.workload + "-seed" +
                           std::to_string(args.seed) + ".jsonl";
  if (!tracer.WriteJsonl(path))
    std::fprintf(stderr, "perfbench: could not write %s\n", path.c_str());
  std::fprintf(stderr, "per-layer (%s, seed %llu, %zu spans in %s):\n",
               args.workload.c_str(), (unsigned long long)args.seed,
               tracer.spans().size(), path.c_str());
  for (const Metric& m : out.metrics)
    std::fprintf(stderr, "  %-28s %14.3f %s\n", m.name.c_str(), m.value,
                 m.unit.c_str());
}

}  // namespace perfbench
