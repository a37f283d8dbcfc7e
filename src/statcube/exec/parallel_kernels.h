// Parallel operator kernels over the morsel scheduler (task_scheduler.h):
// scan/filter, hash group-by, the CUBE/ROLLUP grouping-set lattice, and
// MOLAP dense-array reductions.
//
// Kernel rule: these entry points are the only place that decides between
// serial and parallel execution, so callers pass their thread count through
// and never branch on it. With one worker (ExecOptions::EffectiveThreads()
// == 1) ParallelSelect, ParallelGroupByStates and ParallelCubeBy run the
// serial relational operator (Select / GroupByStates / CubeBy) under a
// CancelScope for `options.stop` — the test oracle, and the fastest kernel
// at one worker. With more workers the grouping runs the radix kernel
// (vec_kernels.h); an input past its 32-bit row indexes
// (kRadixRowLimit) also goes to the serial operator.
//
// Determinism contract (tested by tests/parallel_equivalence_test.cc and
// documented in DESIGN.md §6): every kernel's output is **bit-identical to
// its serial counterpart for every measure at every thread count**,
// including non-integral doubles such as the stock close price. Morsel
// boundaries are a pure function of the input size and morsel_rows (never
// the thread count); the radix group-by replays each group's serial
// accumulation order and emits groups in the serial first-occurrence order
// (vec_kernels.h); per-morsel partials of the scans and MOLAP reductions
// combine in ascending morsel index; and the tail is the same canonical sort
// the serial operators perform.

#ifndef STATCUBE_EXEC_PARALLEL_KERNELS_H_
#define STATCUBE_EXEC_PARALLEL_KERNELS_H_

#include <string>
#include <vector>

#include "statcube/common/status.h"
#include "statcube/exec/task_scheduler.h"
#include "statcube/molap/dense_array.h"
#include "statcube/relational/aggregate.h"
#include "statcube/relational/expression.h"
#include "statcube/relational/table.h"

namespace statcube::exec {

/// Knobs shared by every parallel kernel.
struct ExecOptions {
  /// Worker cap: 0 = DefaultThreads(); 1 = run on the caller through the
  /// serial operators (see the kernel rule above); N > pool grows the pool.
  int threads = 0;
  /// Morsel size in rows (or cells / lattice units); part of the canonical
  /// decomposition of the scans and MOLAP reductions. Group-by results do
  /// not depend on it.
  size_t morsel_rows = kDefaultMorselRows;
  /// nullptr = TaskScheduler::Global().
  TaskScheduler* scheduler = nullptr;
  /// Optional query-level stop context (token + deadline). Morsel loops stop
  /// claiming work once it fires and the kernel returns kCancelled /
  /// kDeadlineExceeded instead of a partial result. nullptr = never stops.
  const CancelContext* stop = nullptr;
  /// The radix kernel's cheap phases (radix scatter, per-partition
  /// aggregation — a few ns per row) fan out to the pool only when the rows
  /// per worker amortize a dispatch+barrier: n >= this * EffectiveThreads().
  /// Below that they run inline on the caller. 0 = always fan out (tests
  /// use this to exercise the parallel phases at small row counts). Either
  /// way the result is bit-identical — the phase decomposition, not the
  /// execution layout, fixes the arithmetic.
  size_t vec_fanout_rows = 65536;

  /// The thread cap with defaults resolved.
  int EffectiveThreads() const {
    return threads <= 0 ? DefaultThreads() : threads;
  }
};

/// sigma, parallel: same rows (same order) as relational Select — morsels
/// filter independently, outputs concatenate in morsel order. One worker
/// runs Select itself.
Table ParallelSelect(const Table& input, const RowPredicate& pred,
                     const ExecOptions& options = {});

/// Accumulator states per group: GroupByStates at one worker (or past
/// kRadixRowLimit rows), the radix kernel (VectorizedGroupByStates)
/// otherwise. Either way the map equals GroupByStates', insertion order
/// included.
Result<GroupedStates> ParallelGroupByStates(
    const Table& input, const std::vector<std::string>& group_cols,
    const std::vector<AggSpec>& aggs, const ExecOptions& options = {});

/// Full group-by: identical output contract to relational GroupBy (same
/// schema, name, canonical sort).
Result<Table> ParallelGroupBy(const Table& input,
                              const std::vector<std::string>& group_cols,
                              const std::vector<AggSpec>& aggs,
                              const ExecOptions& options = {});

/// GROUP BY CUBE: the finest grouping is one parallel scan; every coarser
/// grouping rolls up through the lattice level-synchronously, one task per
/// grouping set within a level ([ZDN97]'s simultaneous aggregation,
/// parallelized). One worker runs CubeBy itself. Output contract identical
/// to CubeBy.
Result<Table> ParallelCubeBy(const Table& input,
                             const std::vector<std::string>& dims,
                             const std::vector<AggSpec>& aggs,
                             const ExecOptions& options = {});

/// GROUP BY ROLLUP: parallel finest grouping, then the (cheap) prefix chain
/// serially — the n+1 prefixes form a dependency chain, so only the base
/// scan parallelizes. Output contract identical to RollupBy.
Result<Table> ParallelRollupBy(const Table& input,
                               const std::vector<std::string>& dims,
                               const std::vector<AggSpec>& aggs,
                               const ExecOptions& options = {});

/// Parallel DenseArray::SumRange: contiguous innermost segments are the
/// morsel units; per-morsel sums combine in ascending morsel order. Block
/// charges are identical to the serial walk (BlockCounter is atomic).
Result<double> ParallelSumRange(DenseArray& array,
                                const std::vector<DimRange>& ranges,
                                const ExecOptions& options = {});

/// The MOLAP marginal along `dim`: entry i is the sum over every cell whose
/// coordinate on `dim` is i (the paper's Figure 9 row/column totals). Each
/// entry is one independent slab reduction.
Result<std::vector<double>> MarginalSums(DenseArray& array, size_t dim);

/// Parallel MarginalSums: entries are computed concurrently; each entry is
/// produced by exactly one task walking its slab in index order, so the
/// vector is bit-identical to the serial one at any thread count.
Result<std::vector<double>> ParallelMarginalSums(
    DenseArray& array, size_t dim, const ExecOptions& options = {});

}  // namespace statcube::exec

#endif  // STATCUBE_EXEC_PARALLEL_KERNELS_H_
