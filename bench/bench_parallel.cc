// Experiments P1 and P4 (DESIGN.md §6, §12): thread-sweep scaling of the
// morsel-driven parallel kernels (statcube/exec) over the three §6
// aggregation shapes — hash group-by, the CUBE lattice, and the MOLAP
// marginals. Arg(N) is the worker count (1/2/4/8); the 1-thread row runs
// the serial operators (the kernel rule in parallel_kernels.h), and N > 1
// the radix group-by kernel, so speedup(N) = real_time(1) / real_time(N).
// On a machine with fewer cores than N the pool oversubscribes
// (EnsureThreads), which bounds but does not fake the scaling curve —
// record the core count with the numbers.
//
// Determinism of the measured WORK: the dataset seed is pinned (seed 17,
// 200k rows) so every run — and both sides of a tools/bench_diff.py
// comparison — aggregates the exact same rows; a drifting dataset would
// make cross-commit real_time deltas meaningless.
//
// Counters: threads, rows (or cells) processed per iteration.

#include <benchmark/benchmark.h>

#include "statcube/exec/parallel_kernels.h"
#include "statcube/molap/dense_array.h"
#include "statcube/workload/retail.h"

namespace statcube {
namespace {

// One big retail table shared by every group-by/CUBE case: ~200k fact rows
// over 50 products x 12 stores x 60 days, Zipf-skewed. The seed is pinned
// so baseline and candidate commits measure identical work (see the file
// comment).
const Table& BigRetailFlat() {
  static const Table* table = [] {
    RetailOptions opt;
    opt.num_rows = 200000;
    opt.seed = 17;  // pinned: never change without regenerating baselines
    return new Table(MakeRetailWorkload(opt)->flat);
  }();
  return *table;
}

exec::ExecOptions Workers(int64_t n) {
  exec::ExecOptions o;
  o.threads = int(n);
  return o;
}

void BM_ParallelGroupBy(benchmark::State& state) {
  const Table& t = BigRetailFlat();
  std::vector<AggSpec> aggs = {{AggFn::kSum, "amount", ""},
                               {AggFn::kCount, "qty", ""}};
  for (auto _ : state) {
    auto g = exec::ParallelGroupBy(t, {"product", "store"}, aggs,
                                   Workers(state.range(0)));
    benchmark::DoNotOptimize(g->num_rows());
  }
  state.counters["threads"] = double(state.range(0));
  state.counters["rows"] = double(t.num_rows());
}
BENCHMARK(BM_ParallelGroupBy)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ParallelCubeBy(benchmark::State& state) {
  const Table& t = BigRetailFlat();
  std::vector<AggSpec> aggs = {{AggFn::kSum, "amount", ""}};
  for (auto _ : state) {
    auto c = exec::ParallelCubeBy(t, {"category", "city", "month"}, aggs,
                                  Workers(state.range(0)));
    benchmark::DoNotOptimize(c->num_rows());
  }
  state.counters["threads"] = double(state.range(0));
  state.counters["rows"] = double(t.num_rows());
}
BENCHMARK(BM_ParallelCubeBy)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

void BM_ParallelMarginals(benchmark::State& state) {
  // A dense 64^3 cube (2M cells): the Figure 9 row/column totals, one slab
  // reduction per marginal entry.
  static DenseArray* array = [] {
    auto* a = new DenseArray({64, 64, 64});
    for (size_t i = 0; i < a->num_cells(); ++i)
      a->SetLinear(i, double(i % 251));
    return a;
  }();
  for (auto _ : state) {
    auto m = exec::ParallelMarginalSums(*array, 1, Workers(state.range(0)));
    benchmark::DoNotOptimize(m->size());
  }
  state.counters["threads"] = double(state.range(0));
  state.counters["cells"] = double(array->num_cells());
}
BENCHMARK(BM_ParallelMarginals)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace statcube

BENCHMARK_MAIN();
