// adhoc_rollup: one closed-loop client runs a fixed battery through
// QueryProfiled with the cache off, every query on all four engines at
// threads 1 and 2, over a large retail object (30,000 rows). Table copy, hierarchy
// roll-up, per-query backend build and the group-by kernels do the work.

#include <map>
#include <memory>
#include <optional>

#include "layers.h"
#include "oracle.h"
#include "workloads.h"

namespace perfbench {

using namespace statcube;

namespace {

const RetailShape kShape{200, 12, 40, 8, 360, 30000, 0.8};

constexpr QueryEngine kEngines[] = {QueryEngine::kRelational,
                                    QueryEngine::kMolap, QueryEngine::kRolap,
                                    QueryEngine::kRolapBitmap};
constexpr int kThreads[] = {1, 2};

// A MOLAP answer to a WHERE on a dimension it also groups by sums every
// member of that dimension instead of the selected one (olap/backend.cc
// adds the group coordinate as a second filter on the same dimension).
// The battery keeps one such query, on a literal that exists for every
// seed, so the fault fails on every run and is counted in `failed`. Only
// that exact wrong answer is tolerated: the MOLAP table must be the
// oracle's answer to the query without its WHERE, bit-identical at
// threads 1 and 2. Any other difference on that route is wrong.
constexpr char kFaultLabel[] = "store_at_store";

std::vector<QuerySpec> Battery(uint64_t seed) {
  Rng rng(seed ^ 0xad0cull);
  const std::string store = "city" + std::to_string(rng.Below(8)) + "/s#" +
                            std::to_string(rng.Below(5));
  const std::string category = "cat" + std::to_string(rng.Below(12));
  const AggRef sum_amount{"sum", "amount"}, count_amount{"count", "amount"};
  return {
      {"by_product_store", "plain", {sum_amount}, {"product", "store"}, false, {}},
      {"by_store", "plain", {sum_amount}, {"store"}, false, {}},
      {"by_city", "level", {sum_amount}, {"city"}, false, {}},
      {"by_category", "level",
       {{"sum", "qty"}, {"count", "qty"}, {"min", "amount"}, {"max", "amount"},
        {"avg", "amount"}},
       {"category"}, false, {}},
      {"by_year_month", "level", {sum_amount, count_amount}, {"year", "month"},
       false, {}},
      {"product_at_store", "where", {sum_amount}, {"product"}, false,
       {{"store", store}}},
      {"store_in_category", "where", {{"sum", "qty"}}, {"store"}, false,
       {{"category", category}}},
      {"store_at_store", "where", {sum_amount}, {"store"}, false,
       {{"store", "city0/s#0"}}},
      {"cube_city_year", "cube", {sum_amount, count_amount}, {"city", "year"},
       true, {}},
  };
}

// Checks one answer: the oracle, the CUBE property, bit-identity with the
// same engine at threads 1, and cell identity with the relational answer.
class Checker {
 public:
  Checker(const Oracle& oracle, const std::vector<QuerySpec>& battery) {
    for (const QuerySpec& s : battery) {
      expected_.emplace(s.label, oracle.Evaluate(s));
      if (s.label != kFaultLabel) continue;
      QuerySpec unfiltered = s;
      unfiltered.where.clear();
      fault_.emplace(oracle.Evaluate(unfiltered));
    }
  }

  void Check(const QuerySpec& spec, QueryEngine engine, int threads,
             const Table& got, RunResult& out) {
    const bool molap = engine == QueryEngine::kMolap;
    const std::string route = spec.label + " on " + QueryEngineName(engine) +
                              " threads=" + std::to_string(threads);
    std::string err = Oracle::Compare(expected_.at(spec.label), got, molap);
    const bool fault = !err.empty() && molap && spec.label == kFaultLabel &&
                       Oracle::Compare(*fault_, got, true).empty();
    if (fault) err.clear();
    if (err.empty() && spec.cube) err = Oracle::CheckCubeAllRows(spec, got);
    auto key = std::make_pair(spec.label, int(engine));
    if (err.empty()) {
      auto [it, fresh] = by_engine_.emplace(key, got);
      if (!fresh) err = DiffTables(it->second, got);
      if (!err.empty()) err = "differs from threads=1: " + err;
    }
    if (err.empty() && !fault) {
      auto cells = CanonicalCells(got, spec.by.size(), molap);
      auto [it, fresh] = cells_.emplace(spec.label, cells);
      if (!fresh && !SameCells(it->second, cells))
        err = "cells differ from another engine";
    }
    if (!err.empty())
      out.Wrong(route + ": " + err, false);
    else if (fault)
      out.Wrong(route + ": sums every store instead of the selected one", true);
  }

 private:
  std::map<std::string, Expected> expected_;
  std::optional<Expected> fault_;  ///< the known fault's wrong answer
  std::map<std::pair<std::string, int>, Table> by_engine_;
  std::map<std::string, std::vector<Row>> cells_;
};

}  // namespace

RunResult RunAdhocRollup(const Args& args) {
  RunResult out;
  std::unique_ptr<Tracer> tracer = args.trace ? std::make_unique<Tracer>() : nullptr;

  std::vector<double> setup_s;
  std::vector<std::vector<double>> load_chunks;
  auto set_up = [&] {
    const uint64_t t0 = NowNs();
    auto ds = std::make_unique<Dataset>(GenerateAndLoad(kShape, args.seed, setup_s.empty() ? "retail" : "spare",
                                    tracer.get()));
    setup_s.push_back(Seconds(t0, NowNs()));
    load_chunks.push_back(ds->chunk_s);
    return ds;
  };
  const std::unique_ptr<Dataset> ds = set_up();
  const StatisticalObject& obj = ds->obj;
  const std::vector<QuerySpec> battery = Battery(args.seed);
  Checker checker(Oracle(ds->data.flat), battery);

  // Whole rounds, at least three, each one window; rounds alternate
  // untraced / traced in a traced run. The clocks run only while a query is
  // in flight: the oracle checks between queries are not the program's
  // work.
  Measured m;
  m.tail_percentile = 85;  // 72 queries a round: 10.8 beyond p85
  TraceTotals totals;
  uint64_t request = 0;
  const uint64_t start = NowNs();
  for (int round = 0; round < 3 || Seconds(start, NowNs()) < args.seconds;
       ++round) {
    const bool traced = tracer && round % 2 == 1;
    Window& w = m.Open();
    for (const QuerySpec& spec : battery) {
      const std::string text = spec.Text();
      for (QueryEngine engine : kEngines) {
        for (int threads : kThreads) {
          QueryOptions qo;
          qo.engine = engine;
          qo.threads = threads;
          ++out.attempted;
          ++request;
          const double c0 = ProcessCpuSeconds();
          const uint64_t q0 = NowNs();
          Result<ProfiledQuery> pq = QueryProfiled(obj, text, qo);
          const uint64_t q1 = NowNs();
          w.Step(ProcessCpuSeconds() - c0);
          if (!pq.ok()) {
            out.Wrong(text + ": " + pq.status().ToString(), false);
            continue;
          }
          const double ms = double(q1 - q0) * 1e-6;
          w.latency_ms.push_back(ms);
          checker.Check(spec, engine, threads, pq->table, out);
          if (!tracer) continue;
          (traced ? totals.traced_ms : totals.untraced_ms).push_back(ms);
          if (!traced) continue;
          tracer->Record("e2e.query", request, 0, q0, q1, spec.label);
          LayerCall call;
          call.obj = &obj;
          call.spec = &spec;
          call.engine = engine;
          call.threads = threads;
          call.result = &pq->table;
          const uint64_t layers = tracer->Begin("layers", request, 0, spec.label);
          totals.replay_ns += double(ReplayLayers(*tracer, request, layers, call));
          tracer->End(layers);
          totals.e2e_ns += double(q1 - q0);
          totals.decomposed_ns += double(q1 - q0);
          ++totals.ops;
        }
      }
    }
    if (SetupDue(setup_s.size(), kSetups, start, args.seconds)) set_up();
  }
  while (setup_s.size() < kSetups) set_up();

  if (!tracer) {
    AddEndToEnd(out, setup_s, m);
  } else {
    totals.append_us_per_row = 1e6 / QuietLoadRate(load_chunks, kShape.rows);
    AddPerLayer(out, *tracer, totals);
    FinishTrace(args, *tracer, out);
  }
  return out;
}

}  // namespace perfbench
