/// \file
/// \brief Radix-partitioned, block-at-a-time aggregation (DESIGN.md §12):
/// the group-by kernel ParallelGroupByStates runs with more than one worker.
///
/// The serial GroupByStates runs row at a time: build a key Row, hash
/// Values, probe an unordered_map, fold one AggState per row.
/// `VectorizedGroupByStates` replaces that loop with a columnar pipeline
/// over the paper's §6.1 transposed layout:
///
///   1. **Columnarize** — one parallel pass dictionary-encodes each morsel's
///      group-column *tuples* into dense local codes through an
///      open-addressing dictionary. Each tuple is encoded once into a
///      fixed-width inline key record (24 bytes per column) that is hashed
///      word-at-a-time in the same pass; probes confirm hash matches with a
///      single `memcmp` of the records (falling back to exact Value
///      comparison only for long strings, |numerics| >= 2^53, and NaN —
///      cases where the record image cannot prove Value::Compare equality).
///      The same pass copies each measure into a contiguous `double` slab
///      plus a null/numeric flag byte per row. One probe per row, no
///      allocation on the hot path.
///   2. **Partition** — local dictionaries merge in ascending morsel order,
///      so the global group id (gid) sequence follows global
///      first-occurrence order — exactly the serial scan's emplace order.
///      A per-entry histogram (the dictionary counts rows per tuple, so no
///      second row scan) + prefix-offset + scatter then radix-partitions
///      each row's gid *and measure values* by the low bits of the dense
///      gid into `kRadixPartitions` buckets. The scatter is stable: within
///      a partition, rows keep ascending global row order.
///   3. **Aggregate** — one task per partition folds its partition-ordered
///      value slabs straight into flat per-gid AggState slices (gids index
///      directly — no hash table, no Row allocation, no Value access; every
///      load is sequential). Partitions own disjoint gid sets, so there is
///      no cross-thread merge of thread-local partials at all — the radix
///      refinement of PR 3's morsel design.
///   4. **Emit** — gids are already first-occurrence-ordered, so groups
///      insert into the output GroupedStates by ascending gid; each key Row
///      is rebuilt from the group's first input row (the exact
///      representative the serial map keeps).
///
/// Determinism contract (parallel_kernels.h's): the output is
/// **bit-identical for any thread count, and bit-identical to the serial
/// GroupByStates for every measure** — including non-integral doubles. Two
/// properties make this exact rather than approximate:
///
///   * the stable scatter hands each partition its rows in global row
///     order, so every group's AggState sees the exact floating-point
///     accumulation sequence of the serial scan;
///   * groups enter the output map in global first-occurrence order with
///     the same growth pattern as the serial map, so downstream consumers
///     that iterate it (the CUBE lattice rollup's merge order) see the
///     serial iteration order.
///
/// Reassociated (SIMD) summation is used only where vec_block.h's
/// `ReorderIsExact` proves it cannot change a bit; everything else keeps
/// the ordered loops. The cheap phases (scatter, aggregate) fan out to the
/// pool only past `ExecOptions::vec_fanout_rows` rows per worker — below
/// that a pool barrier costs more than the phase itself — with identical
/// results either way. Spans `vec.columnarize` / `vec.partition` /
/// `vec.aggregate` / `vec.emit` and `statcube.exec.vec.*` counters expose
/// each phase.

#ifndef STATCUBE_EXEC_VEC_KERNELS_H_
#define STATCUBE_EXEC_VEC_KERNELS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "statcube/common/status.h"
#include "statcube/exec/parallel_kernels.h"
#include "statcube/relational/aggregate.h"
#include "statcube/relational/table.h"

namespace statcube::exec {

/// Number of radix partitions (a power of two). Partition id is the low
/// log2(kRadixPartitions) bits of the *dense* group id — gids are assigned
/// sequentially in first-occurrence order, so the low bits round-robin
/// groups across partitions regardless of key distribution; 64 partitions
/// keep per-partition state cache-resident while out-scaling kMaxThreads.
inline constexpr size_t kRadixPartitions = 64;

/// Row indexes are uint32: inputs with this many rows or more exceed the
/// kernel, and ParallelGroupByStates hands them to the serial GroupByStates.
inline constexpr size_t kRadixRowLimit = UINT32_MAX;

/// Picks the reassociated block sum when
/// `vec::ReorderIsExact(all_integral, max_abs, n)` holds and the ordered
/// loop otherwise; always bit-identical to `vec::SumBlockOrdered`. Lives in
/// exec (not common/vec_block.h with the primitives it wraps) because it
/// bumps the `statcube.exec.vec.block_sum_*` counters, and obs sits above
/// common in the layer DAG.
double SumBlockAuto(const double* v, size_t n, bool all_integral,
                    double max_abs);

/// Accumulator states per group over the radix pipeline above. Output
/// is bit-identical to the serial GroupByStates (and therefore to itself at
/// every thread count). Honors `options.stop` between phases like every
/// parallel kernel.
///
/// Returns OutOfRange for an input of kRadixRowLimit rows or more, which
/// ParallelGroupByStates never passes.
Result<GroupedStates> VectorizedGroupByStates(
    const Table& input, const std::vector<std::string>& group_cols,
    const std::vector<AggSpec>& aggs, const ExecOptions& options = {});

}  // namespace statcube::exec

#endif  // STATCUBE_EXEC_VEC_KERNELS_H_
