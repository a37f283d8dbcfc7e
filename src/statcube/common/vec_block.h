/// \file
/// \brief Block-at-a-time primitives over contiguous `double` slabs: the
/// lowest layer of the radix group-by path (DESIGN.md §12).
///
/// The paper's §6.1 transposed/columnar layout was chosen precisely so
/// aggregation can run over contiguous measure slabs; these functions are
/// the loops that exploit it. Each primitive is written so the compiler's
/// auto-vectorizer can emit SIMD for it, and the reassociating variants are
/// additionally provided as explicit AVX2 intrinsics selected once at
/// startup by runtime CPU dispatch (SimdLevelName() says which).
///
/// Determinism contract (the same one every kernel in statcube/exec obeys):
///
///  * `SumBlockOrdered` / `SumSqBlockOrdered` accumulate strictly
///    left-to-right — the exact floating-point sequence of the serial
///    operators. Always safe, never reassociated.
///  * `SumBlockFast` / `SumSqBlockFast` accumulate in four interleaved
///    lanes (lane j sums elements j, j+4, j+8, ...), which reassociates
///    the addition. Callers may use them **only when reassociation is
///    provably exact** — `ReorderIsExact` implements the rule: if every
///    value is integral and `n * max|v|` (or `n * max|v|^2` for the
///    squared sum) stays within 2^53, every partial sum in any order is an
///    exactly representable integer, so any summation order returns the
///    same bits as the ordered loop.
///  * `MinBlock` / `MaxBlock` reduce over an associative, commutative,
///    NaN-free lattice — bit-identical in any order, always vectorizable.
///  * `CountFlagBits` counts set low bits in a flag byte array — integer
///    arithmetic, any order.
///
/// Layering: these primitives live in common/ (namespace statcube::vec) and
/// depend only on the C++ standard library, so storage layers
/// (molap/dense_array) and exec can both call into them without pulling the
/// scheduler or the relational engine into their translation units. The
/// definitions live in common/vec_block.cc; the metrics-instrumented
/// SumBlockAuto wrapper lives one layer up, in exec/vec_kernels.h.

#ifndef STATCUBE_COMMON_VEC_BLOCK_H_
#define STATCUBE_COMMON_VEC_BLOCK_H_

#include <cstddef>
#include <cstdint>

namespace statcube::vec {

/// The largest integer magnitude a double represents exactly (2^53). Sums
/// whose every partial stays at or below this bound are reorderable without
/// changing a single bit.
inline constexpr double kMaxExactDouble = 9007199254740992.0;  // 2^53

/// Strict left-to-right sum — the serial reference order. n == 0 -> 0.0.
double SumBlockOrdered(const double* v, size_t n);

/// Four-lane reassociated sum (lane j accumulates elements j, j+4, ...;
/// lanes combine as (l0+l1)+(l2+l3), tail appended in order). Use only when
/// ReorderIsExact holds for the block; then the result is bit-identical to
/// SumBlockOrdered. Dispatches to AVX2 when the CPU has it. n == 0 -> 0.0.
double SumBlockFast(const double* v, size_t n);

/// Strict left-to-right sum of squares. n == 0 -> 0.0.
double SumSqBlockOrdered(const double* v, size_t n);

/// Four-lane reassociated sum of squares; same exactness caveat as
/// SumBlockFast with the bound applied to max|v|^2. n == 0 -> 0.0.
double SumSqBlockFast(const double* v, size_t n);

/// Minimum over the block; requires n >= 1 and no NaNs.
double MinBlock(const double* v, size_t n);

/// Maximum over the block; requires n >= 1 and no NaNs.
double MaxBlock(const double* v, size_t n);

/// Number of bytes in `flags[0, n)` with bit `bit` set.
size_t CountFlagBits(const uint8_t* flags, size_t n, uint8_t bit);

/// True when a reassociated sum over `n` values, each integral with
/// absolute value at most `max_abs`, is provably bit-identical to the
/// ordered sum: every partial sum is an integer of magnitude <= n * max_abs
/// <= 2^53, hence exactly representable. `all_integral` is the caller's
/// evidence (tracked incrementally by columnarization and DenseArray).
bool ReorderIsExact(bool all_integral, double max_abs, size_t n);

/// The instruction set the reassociating kernels dispatched to at startup:
/// "avx2" or "generic".
const char* SimdLevelName();

}  // namespace statcube::vec

#endif  // STATCUBE_COMMON_VEC_BLOCK_H_
