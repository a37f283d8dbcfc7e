#include "statcube/exec/vec_kernels.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <memory>
#include <utility>

#include "statcube/common/vec_block.h"
#include "statcube/obs/metrics.h"
#include "statcube/obs/query_profile.h"
#include "statcube/obs/resource.h"
#include "statcube/obs/trace.h"

namespace statcube::exec {

// ---------------------------------------------------------------------------
// Block primitives live in common/vec_block.cc (namespace statcube::vec);
// only the metrics-instrumented SumBlockAuto wrapper stays at this layer.
// ---------------------------------------------------------------------------

namespace vec = ::statcube::vec;

double SumBlockAuto(const double* v, size_t n, bool all_integral,
                    double max_abs) {
  // Resolved once: GetCounter is a by-name map lookup under the registry
  // mutex, and this function runs once per block. Registry entries are
  // never erased (Reset() only zeroes values), so the references stay
  // valid for the process lifetime.
  static obs::Counter& fast_counter = obs::MetricsRegistry::Global()
      .GetCounter("statcube.exec.vec.block_sum_fast");
  static obs::Counter& ordered_counter = obs::MetricsRegistry::Global()
      .GetCounter("statcube.exec.vec.block_sum_ordered");
  if (vec::ReorderIsExact(all_integral, max_abs, n)) {
    if (obs::Enabled()) fast_counter.Add(1);
    return vec::SumBlockFast(v, n);
  }
  if (obs::Enabled()) ordered_counter.Add(1);
  return vec::SumBlockOrdered(v, n);
}

// ---------------------------------------------------------------------------
// Vectorized radix group-by
// ---------------------------------------------------------------------------

namespace {

constexpr int kRadixBits = 6;
static_assert((size_t(1) << kRadixBits) == kRadixPartitions,
              "kRadixPartitions must be 2^kRadixBits");

// splitmix64 finalizer: spreads tuple hashes so the open-addressing probe
// start is well distributed even when Value::Hash clusters.
inline uint64_t Mix64(uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

// Group ids are dense (0..ngroups-1), so the low bits alone deal groups
// round-robin — perfectly balanced by construction, no mixing needed.
inline size_t PartitionOf(uint32_t gid) {
  return size_t(gid) & (kRadixPartitions - 1);
}

size_t NumMorsels(size_t n, size_t morsel) {
  return n == 0 ? 0 : (n + morsel - 1) / morsel;
}

ParallelForOptions LoopOptions(const char* label, const ExecOptions& options) {
  ParallelForOptions loop;
  loop.label = label;
  loop.morsel_size =
      options.morsel_rows == 0 ? kDefaultMorselRows : options.morsel_rows;
  loop.max_workers = options.EffectiveThreads();
  loop.scheduler = options.scheduler;
  loop.stop = options.stop;
  return loop;
}

StopReason StopAfter(const ExecOptions& options) {
  return options.stop == nullptr ? StopReason::kNone : options.stop->Check();
}

// Measure flags: bit0 = non-null, bit1 = numeric. Together they replicate
// AggState::Add's branch structure over the slab without touching Values.
constexpr uint8_t kFlagNonNull = 1;
constexpr uint8_t kFlagNumeric = 2;

// Open-addressing dictionary over group-column tuples. The tuple itself is
// never copied: an entry remembers the global row index of its first
// occurrence plus the cached tuple hash, and probes compare against the
// borrowed input row. `entries` insertion order is first-occurrence order
// (within a morsel for the per-morsel dictionaries; globally for the merged
// one).
// Fixed-width inline key record: one (tag, len, 16 payload bytes, padding)
// cell per group column, 24 bytes so the tuple hash can run word-at-a-time
// over the record itself. Probe hits compare records with a single memcmp
// against the entry's cached record — no representative-row fetch, no
// string walk — whenever both sides encode cleanly. Cells that cannot
// preserve Value::Compare's equality inline (strings longer than 16 bytes,
// numeric magnitudes at or beyond 2^53 whose double image is ambiguous,
// NaN — which Compare treats as equal to every number) mark the record as
// a fallback and the probe re-checks with the exact TupleEq below.
constexpr size_t kKeyCell = 24;
constexpr uint8_t kTagNull = 0, kTagAll = 1, kTagNum = 2, kTagStr = 3;

// Encodes one key column into `out` (kKeyCell bytes). Returns false when
// the cell cannot decide equality on its own (caller marks the record as
// fallback). int64 and double collapse to one canonical double image so
// cross-representation equal values compare equal; -0.0 collapses to +0.0.
inline bool EncodeKeyCell(const Value& v, uint8_t* out) {
  std::memset(out, 0, kKeyCell);
  switch (v.type()) {
    case ValueType::kNull:
      out[0] = kTagNull;
      return true;
    case ValueType::kAll:
      out[0] = kTagAll;
      return true;
    case ValueType::kInt64: {
      int64_t i = v.AsInt64();
      if (i <= -(int64_t(1) << 53) || i >= (int64_t(1) << 53)) return false;
      out[0] = kTagNum;
      double d = double(i);
      __builtin_memcpy(out + 2, &d, sizeof(d));
      return true;
    }
    case ValueType::kDouble: {
      double d = v.AsDouble();
      if (d != d) return false;  // NaN: Compare calls it equal to anything
      if (std::abs(d) >= 9007199254740992.0) return false;  // 2^53: int64
      if (d == 0.0) d = 0.0;  // collapse -0.0 to +0.0
      out[0] = kTagNum;
      __builtin_memcpy(out + 2, &d, sizeof(d));
      return true;
    }
    default: {  // string
      const std::string& s = v.AsString();
      if (s.size() > 16) return false;
      out[0] = kTagStr;
      out[1] = uint8_t(s.size());
      __builtin_memcpy(out + 2, s.data(), s.size());
      return true;
    }
  }
}

struct TupleDict {
  std::vector<int32_t> slots;    // entry index, -1 = empty; power-of-two
  std::vector<uint64_t> hashes;  // per entry: cached tuple hash
  std::vector<uint32_t> rows;    // per entry: first-occurrence row
  std::vector<uint32_t> counts;  // per entry: occurrences seen
  std::vector<uint8_t> recs;     // per entry: inline key record
  std::vector<uint8_t> rec_ok;   // per entry: record decides equality
  size_t mask = 0;

  void Init(size_t expected) {
    size_t cap = 16;
    while (cap < expected * 2) cap <<= 1;  // load factor <= 0.5
    slots.assign(cap, -1);
    mask = cap - 1;
  }
};

// Inline mirror of Value::Hash for the probe loop: the out-of-line version
// costs a call plus a type dispatch per key column per row. Only the
// *shape* must match — values that Value::Compare calls equal must hash
// equal (int64 and integral doubles collapse, strings hash by content) —
// because the dictionary is self-contained: emitted keys re-enter the
// output map through RowHash, never through this function.
inline uint64_t FastValueHash(const Value& v) {
  switch (v.type()) {
    case ValueType::kNull:
      return 0x9e3779b97f4a7c15ULL;
    case ValueType::kAll:
      return 0xa0761d6478bd642fULL;
    case ValueType::kString: {
      // Word-at-a-time multiply-xor (byte-wise FNV is a one-byte-per-cycle
      // dependency chain). Length is mixed in up front so a short string is
      // never a hash prefix of a longer one.
      const std::string& s = v.AsString();
      const char* p = s.data();
      size_t rem = s.size();
      uint64_t h = 0xcbf29ce484222325ULL ^ (uint64_t(rem) * 0x100000001b3ULL);
      while (rem >= 8) {
        uint64_t w;
        __builtin_memcpy(&w, p, 8);
        h = (h ^ w) * 0x9ddfea08eb382d69ULL;
        h ^= h >> 29;
        p += 8;
        rem -= 8;
      }
      if (rem > 0) {
        uint64_t w = 0;
        __builtin_memcpy(&w, p, rem);
        h = (h ^ w) * 0x9ddfea08eb382d69ULL;
        h ^= h >> 29;
      }
      return h;
    }
    default: {  // numeric: int64 and integral doubles hash identically
      double d = v.AsDouble();
      if (d == std::floor(d) && std::abs(d) < 9.2e18) {
        uint64_t x = uint64_t(int64_t(d)) * 0xff51afd7ed558ccdULL;
        return x ^ (x >> 33);
      }
      uint64_t bits;
      __builtin_memcpy(&bits, &d, sizeof(d));
      bits *= 0xc4ceb9fe1a85ec53ULL;
      return bits ^ (bits >> 29);
    }
  }
}

// Inline equality with Value::Compare's exact semantics: int64 and double
// compare numerically across representations, and the double comparison is
// !(x<y) && !(x>y) — NOT x==y — so NaN keys group the way the serial map's
// RowEq groups them.
inline bool FastValueEq(const Value& a, const Value& b) {
  ValueType ta = a.type(), tb = b.type();
  if (ta == tb) {
    switch (ta) {
      case ValueType::kNull:
      case ValueType::kAll:
        return true;
      case ValueType::kInt64:
        return a.AsInt64() == b.AsInt64();
      case ValueType::kDouble: {
        double x = a.AsDouble(), y = b.AsDouble();
        return !(x < y) && !(x > y);
      }
      default:
        return a.AsString() == b.AsString();
    }
  }
  if ((ta == ValueType::kInt64 && tb == ValueType::kDouble) ||
      (ta == ValueType::kDouble && tb == ValueType::kInt64)) {
    double x = a.AsDouble(), y = b.AsDouble();
    return !(x < y) && !(x > y);
  }
  return false;
}

// Encodes the key record for `row` and folds the tuple hash in the same
// pass: exact cells hash their three record words (the canonical bytes ARE
// the value identity), fallback cells hash through FastValueHash. Equal
// tuples always hash equal: exact cells are bijective with the value's
// equality class, and a value with an exact cell can never Compare-equal
// one that falls back (lengths differ for strings; the 2^53 cutoff applies
// to int64 and double alike, so an exact-cell numeric is always below it
// and a fallback numeric at or above it — NaN keeps the same
// hash-vs-Compare tension the serial map's RowHash has).
inline uint64_t EncodeAndHash(const Row& row, const std::vector<size_t>& gidx,
                              uint8_t* rec, bool* rec_ok) {
  uint64_t h = 0xcbf29ce484222325ULL;
  bool ok_all = true;
  for (size_t c = 0; c < gidx.size(); ++c) {
    const Value& v = row[gidx[c]];
    uint8_t* cell = rec + c * kKeyCell;
    if (EncodeKeyCell(v, cell)) {
      for (int k = 0; k < 3; ++k) {
        uint64_t w;
        __builtin_memcpy(&w, cell + 8 * k, 8);
        h = (h ^ w) * 0x9ddfea08eb382d69ULL;
        h ^= h >> 29;
      }
    } else {
      ok_all = false;
      h = (h ^ FastValueHash(v)) * 0x100000001b3ULL;
    }
  }
  *rec_ok = ok_all;
  return h;
}

bool TupleEq(const Row& a, const Row& b, const std::vector<size_t>& gidx) {
  for (size_t g : gidx)
    if (!FastValueEq(a[g], b[g])) return false;
  return true;
}

// Finds or inserts `row` (at global index r, with hash h and encoded key
// record `rec` of `stride` bytes, exact iff `rec_ok`) and returns its entry
// index. The caller sizes the dictionary so it never grows. A hash match
// resolves with one record memcmp when both records are exact; otherwise it
// re-checks with the exact TupleEq against the entry's borrowed first row.
uint32_t DictCode(TupleDict& d, const Table& input,
                  const std::vector<size_t>& gidx, const Row& row, size_t r,
                  uint64_t h, const uint8_t* rec, bool rec_ok,
                  size_t stride) {
  size_t idx = size_t(Mix64(h)) & d.mask;
  for (;;) {
    int32_t s = d.slots[idx];
    if (s < 0) {
      uint32_t code = uint32_t(d.rows.size());
      d.slots[idx] = int32_t(code);
      d.hashes.push_back(h);
      d.rows.push_back(uint32_t(r));
      d.counts.push_back(1);
      d.recs.insert(d.recs.end(), rec, rec + stride);
      d.rec_ok.push_back(rec_ok ? 1 : 0);
      return code;
    }
    if (d.hashes[size_t(s)] == h) {
      // No key columns (empty BY, the CUBE grand total): every row is the
      // one group, and the empty records must not reach memcmp, whose
      // pointers may then be null.
      bool equal =
          stride == 0 ||
          ((rec_ok && d.rec_ok[size_t(s)] != 0)
               ? std::memcmp(d.recs.data() + size_t(s) * stride, rec,
                             stride) == 0
               : TupleEq(input.row(d.rows[size_t(s)]), row, gidx));
      if (equal) {
        ++d.counts[size_t(s)];
        return uint32_t(s);
      }
    }
    idx = (idx + 1) & d.mask;
  }
}

}  // namespace

Result<GroupedStates> VectorizedGroupByStates(
    const Table& input, const std::vector<std::string>& group_cols,
    const std::vector<AggSpec>& aggs, const ExecOptions& options) {
  // Resolve columns up front (exactly as GroupByStates) so every error
  // surfaces before any task is spawned.
  STATCUBE_ASSIGN_OR_RETURN(std::vector<size_t> gidx,
                            input.schema().IndexesOf(group_cols));
  std::vector<int64_t> aidx(aggs.size(), -1);
  for (size_t i = 0; i < aggs.size(); ++i) {
    if (aggs[i].fn == AggFn::kCountAll && aggs[i].column.empty()) continue;
    STATCUBE_ASSIGN_OR_RETURN(size_t idx,
                              input.schema().IndexOf(aggs[i].column));
    aidx[i] = static_cast<int64_t>(idx);
  }

  const size_t n = input.num_rows();
  const size_t ncols = gidx.size();
  const size_t naggs = aggs.size();
  if (n == 0) return GroupedStates{};
  if (n >= kRadixRowLimit)
    return Status::OutOfRange(
        "input exceeds the radix kernel's 32-bit row indexes; "
        "ParallelGroupByStates routes such inputs to GroupByStates");

  if (obs::Enabled()) {
    obs::RecordBytesTouched(input.ByteSize());
    obs::MetricsRegistry& reg = obs::MetricsRegistry::Global();
    reg.GetCounter("statcube.exec.vec.groupby_calls").Add(1);
    reg.GetCounter("statcube.exec.vec.rows").Add(n);
  }

  ParallelForOptions loop = LoopOptions("vec_columnarize", options);
  const size_t morsel = loop.morsel_size;
  const size_t nmorsels = NumMorsels(n, morsel);
  // Columnarize always fans out (it dominates); the cheap phases dispatch
  // to the pool only when the rows per worker pay for the barrier.
  const bool fan_out =
      options.vec_fanout_rows == 0 ||
      n >= options.vec_fanout_rows * size_t(options.EffectiveThreads());

  // --- Phase 1: columnarize -----------------------------------------------
  // Each morsel dictionary-encodes its group-column tuples to dense local
  // codes (one open-addressing probe per row, values borrowed from the
  // table); measures copy into double slabs with a flag byte per row.
  // Per-measure integral/max_abs evidence feeds the exactness gate for
  // reassociated summation.
  // Slabs are allocated uninitialized (for_overwrite): phase 1 writes every
  // row of every slab before anything reads it, and the default-zeroing
  // constructor would memset megabytes per call for nothing.
  auto codes = std::make_unique_for_overwrite<uint32_t[]>(n);  // local code
  std::vector<std::unique_ptr<double[]>> vals(naggs);
  std::vector<std::unique_ptr<uint8_t[]>> flags(naggs);
  // Measure slots that actually read a column (kCountAll-without-column
  // never touches the slabs).
  std::vector<uint32_t> mslots;
  for (size_t i = 0; i < naggs; ++i) {
    if (aidx[i] < 0) continue;
    vals[i] = std::make_unique_for_overwrite<double[]>(n);
    flags[i] = std::make_unique_for_overwrite<uint8_t[]>(n);
    mslots.push_back(uint32_t(i));
  }
  std::vector<TupleDict> dicts(nmorsels);
  // [morsel][agg]: integral-so-far flag, max |value|, any row not
  // (non-null and numeric).
  std::vector<std::vector<uint8_t>> m_integral(
      nmorsels, std::vector<uint8_t>(naggs, 1));
  std::vector<std::vector<double>> m_max_abs(
      nmorsels, std::vector<double>(naggs, 0.0));
  std::vector<std::vector<uint8_t>> m_gap(nmorsels,
                                          std::vector<uint8_t>(naggs, 0));

  {
    obs::Span span("vec.columnarize");
    ParallelFor(
        n,
        [&](size_t m, size_t begin, size_t end) {
          TupleDict& d = dicts[m];
          d.Init(end - begin);
          uint8_t* integral = m_integral[m].data();
          double* max_abs = m_max_abs[m].data();
          uint8_t* gap = m_gap[m].data();
          const size_t stride = kKeyCell * ncols;
          std::vector<uint8_t> rec(stride);
          for (size_t r = begin; r < end; ++r) {
            const Row& row = input.row(r);
            bool rec_ok = false;
            uint64_t h = EncodeAndHash(row, gidx, rec.data(), &rec_ok);
            codes[r] = DictCode(d, input, gidx, row, r, h, rec.data(),
                                rec_ok, stride);
            for (uint32_t i : mslots) {
              const Value& v = row[size_t(aidx[i])];
              uint8_t f = 0;
              double x = 0.0;
              switch (v.type()) {
                case ValueType::kInt64: {
                  f = kFlagNonNull | kFlagNumeric;
                  x = double(v.AsInt64());  // always integral, never NaN
                  double a = x < 0 ? -x : x;
                  if (a > max_abs[i]) max_abs[i] = a;
                  break;
                }
                case ValueType::kDouble: {
                  f = kFlagNonNull | kFlagNumeric;
                  x = v.AsDouble();
                  double a = x < 0 ? -x : x;
                  if (a > max_abs[i]) max_abs[i] = a;
                  if (integral[i] != 0 && std::trunc(x) != x)
                    integral[i] = 0;
                  // NaN breaks the block min/max precondition (serial's
                  // ordered `<` comparisons skip it; a block seed would
                  // keep it), so NaN rows count as gaps too.
                  if (x != x) gap[i] = 1;
                  break;
                }
                case ValueType::kNull:
                  gap[i] = 1;
                  break;
                default:  // string / ALL: counts, never aggregates
                  f = kFlagNonNull;
                  gap[i] = 1;
                  break;
              }
              vals[i][r] = x;
              flags[i][r] = f;
            }
          }
        },
        loop);
  }
  if (StopReason r = StopAfter(options); r != StopReason::kNone)
    return StopStatus(r, "groupby");

  // Empty BY: one global group over fully contiguous slabs — the pure
  // block-kernel case. Sum/sum_sq run reassociated only under the exactness
  // gate (null rows are padded with 0.0, which is bit-transparent to a sum
  // whose running value starts at +0.0); count reduces over the flag bytes;
  // min/max fall back to a flag-checked loop when any row lacks a numeric
  // value.
  if (ncols == 0) {
    obs::Span agg_span("vec.aggregate");
    std::vector<AggState> st(naggs);
    for (size_t i = 0; i < naggs; ++i) {
      st[i].rows = int64_t(n);
      if (aidx[i] < 0) continue;  // kCountAll without a column
      bool integral = true, gap = false;
      double max_abs = 0.0;
      for (size_t m = 0; m < nmorsels; ++m) {
        integral = integral && m_integral[m][i] != 0;
        gap = gap || m_gap[m][i] != 0;
        if (m_max_abs[m][i] > max_abs) max_abs = m_max_abs[m][i];
      }
      const double* v = vals[i].get();
      st[i].sum = SumBlockAuto(v, n, integral, max_abs);
      st[i].sum_sq =
          vec::ReorderIsExact(integral, max_abs * max_abs, n)
              ? vec::SumSqBlockFast(v, n)
              : vec::SumSqBlockOrdered(v, n);
      if (!gap) {
        st[i].count = int64_t(n);
        st[i].min = vec::MinBlock(v, n);
        st[i].max = vec::MaxBlock(v, n);
      } else {
        const uint8_t* f = flags[i].get();
        st[i].count = int64_t(vec::CountFlagBits(f, n, kFlagNonNull));
        for (size_t r = 0; r < n; ++r) {
          if ((f[r] & kFlagNumeric) == 0) continue;
          if (v[r] < st[i].min) st[i].min = v[r];
          if (v[r] > st[i].max) st[i].max = v[r];
        }
      }
    }
    GroupedStates out;
    out.emplace(Row(), std::move(st));
    if (obs::Enabled())
      obs::MetricsRegistry::Global()
          .GetCounter("statcube.exec.vec.groups")
          .Add(1);
    return out;
  }

  // Merge local dictionaries in ascending morsel order (entries in
  // insertion = first-occurrence order): the global group id sequence is
  // therefore the global first-occurrence order — the serial scan's emplace
  // order. Cached hashes make the merge a probe per distinct tuple per
  // morsel, not per row.
  size_t total_entries = 0;
  for (const TupleDict& d : dicts) total_entries += d.rows.size();
  TupleDict global;
  global.Init(total_entries);
  const size_t stride = kKeyCell * ncols;
  // [morsel]: local tuple code -> global group id
  std::vector<std::vector<uint32_t>> remap(nmorsels);
  for (size_t m = 0; m < nmorsels; ++m) {
    const TupleDict& d = dicts[m];
    std::vector<uint32_t>& rm = remap[m];
    rm.resize(d.rows.size());
    for (size_t e = 0; e < d.rows.size(); ++e)
      rm[e] = DictCode(global, input, gidx, input.row(d.rows[e]), d.rows[e],
                       d.hashes[e], d.recs.data() + e * stride,
                       d.rec_ok[e] != 0, stride);
  }
  const size_t ngroups = global.rows.size();
  const std::vector<uint32_t>& first_row = global.rows;  // per gid

  // A measure with no gap anywhere (every row non-null numeric — the
  // morsel evidence already knows) needs no flag bytes downstream: the
  // per-row fold is unconditional.
  std::vector<uint8_t> no_gap(naggs, 0);
  for (uint32_t i : mslots) {
    bool gap = false;
    for (size_t m = 0; m < nmorsels; ++m) gap = gap || m_gap[m][i] != 0;
    no_gap[i] = gap ? 0 : 1;
  }

  // --- Phase 2: radix partition -------------------------------------------
  // Histogram per (morsel, partition), prefix into stable scatter offsets,
  // and scatter each row's gid and measure values partition-major — the
  // aggregation pass then touches nothing but sequential partition-ordered
  // slabs. Stability: partition-major, then morsel-major, then row order —
  // i.e. ascending global row order within a partition. The histogram needs
  // no per-row pass at all: the morsel dictionaries counted each local code
  // during phase 1, so it folds per *entry* (groups-per-morsel, a few
  // hundred — not rows).
  std::vector<std::vector<uint32_t>> hist(
      nmorsels, std::vector<uint32_t>(kRadixPartitions, 0));
  auto part_gids = std::make_unique_for_overwrite<uint32_t[]>(n);
  std::vector<std::unique_ptr<double[]>> part_vals(naggs);
  std::vector<std::unique_ptr<uint8_t[]>> part_flags(naggs);
  for (uint32_t i : mslots) {
    part_vals[i] = std::make_unique_for_overwrite<double[]>(n);
    if (no_gap[i] == 0)
      part_flags[i] = std::make_unique_for_overwrite<uint8_t[]>(n);
  }
  std::vector<size_t> part_begin(kRadixPartitions + 1, 0);
  {
    obs::Span span("vec.partition");
    ParallelForOptions ploop = LoopOptions("vec_partition", options);
    for (size_t m = 0; m < nmorsels; ++m) {
      const std::vector<uint32_t>& rm = remap[m];
      const std::vector<uint32_t>& cnt = dicts[m].counts;
      std::vector<uint32_t>& h = hist[m];
      for (size_t e = 0; e < rm.size(); ++e)
        h[PartitionOf(rm[e])] += cnt[e];
    }

    std::vector<std::vector<size_t>> offsets(
        nmorsels, std::vector<size_t>(kRadixPartitions, 0));
    size_t pos = 0;
    for (size_t p = 0; p < kRadixPartitions; ++p) {
      part_begin[p] = pos;
      for (size_t m = 0; m < nmorsels; ++m) {
        offsets[m][p] = pos;
        pos += hist[m][p];
      }
    }
    part_begin[kRadixPartitions] = pos;

    auto scatter = [&](size_t m, size_t begin, size_t end) {
      const std::vector<uint32_t>& rm = remap[m];
      std::vector<size_t>& off = offsets[m];
      for (size_t r = begin; r < end; ++r) {
        uint32_t g = rm[codes[r]];
        size_t idx = off[PartitionOf(g)]++;
        part_gids[idx] = g;
        for (uint32_t i : mslots) {
          part_vals[i][idx] = vals[i][r];
          if (no_gap[i] == 0) part_flags[i][idx] = flags[i][r];
        }
      }
    };
    if (fan_out) {
      ParallelFor(n, scatter, ploop);
    } else {
      for (size_t m = 0; m < nmorsels; ++m)
        scatter(m, m * morsel, std::min(n, (m + 1) * morsel));
    }
  }
  if (StopReason r = StopAfter(options); r != StopReason::kNone)
    return StopStatus(r, "groupby");

  // --- Phase 3: per-partition aggregation ---------------------------------
  // One task per partition; gids index the flat AggState array directly (no
  // hash table, no Row allocation, no Value hashing), and partitions own
  // disjoint gid sets, so the writes never race and there is no
  // cross-thread merge of thread-local partials. Rows arrive in ascending
  // global row order (stable scatter), so every group's AggState replays
  // the serial accumulation sequence bit for bit.
  std::vector<AggState> states(ngroups * naggs);
  {
    obs::Span span("vec.aggregate");
    ParallelForOptions aloop = LoopOptions("vec_aggregate", options);
    aloop.morsel_size = 1;
    std::vector<const double*> vp(naggs, nullptr);
    std::vector<const uint8_t*> fp(naggs, nullptr);
    for (uint32_t i : mslots) {
      vp[i] = part_vals[i].get();
      fp[i] = part_flags[i].get();
    }
    auto aggregate = [&](size_t, size_t pbegin, size_t pend) {
      for (size_t p = pbegin; p < pend; ++p) {
        for (size_t e = part_begin[p]; e < part_begin[p + 1]; ++e) {
          AggState* st = &states[size_t(part_gids[e]) * naggs];
          for (size_t i = 0; i < naggs; ++i) {
            if (aidx[i] < 0) {
              ++st[i].rows;  // kCountAll without a column
              continue;
            }
            ++st[i].rows;
            if (no_gap[i] == 0) {
              uint8_t f = fp[i][e];
              if ((f & kFlagNonNull) == 0) continue;
              ++st[i].count;
              if ((f & kFlagNumeric) == 0) continue;
            } else {
              ++st[i].count;
            }
            double d = vp[i][e];
            st[i].sum += d;
            st[i].sum_sq += d * d;
            if (d < st[i].min) st[i].min = d;
            if (d > st[i].max) st[i].max = d;
          }
        }
      }
    };
    if (fan_out) {
      ParallelFor(kRadixPartitions, aggregate, aloop);
    } else {
      aggregate(0, 0, kRadixPartitions);
    }
  }
  if (StopReason r = StopAfter(options); r != StopReason::kNone)
    return StopStatus(r, "groupby");

  // --- Phase 4: emit -------------------------------------------------------
  // Gid order IS global first-occurrence order (the merge above), so
  // inserting by ascending gid reproduces the serial scan's emplace
  // sequence — and with it the output map's growth history and iteration
  // order, which downstream lattice rollups fold in. Key Rows are rebuilt
  // from each group's first row, replicating the serial representative
  // choice (int64 2 and double 2.0 compare equal; the serial map keeps
  // whichever arrived first).
  obs::Span span("vec.emit");
  GroupedStates out;
  Row key(ncols);
  for (size_t g = 0; g < ngroups; ++g) {
    const Row& first = input.row(first_row[g]);
    for (size_t k = 0; k < ncols; ++k) key[k] = first[gidx[k]];
    std::vector<AggState> st(states.begin() + g * naggs,
                             states.begin() + (g + 1) * naggs);
    out.emplace(key, std::move(st));
  }
  if (obs::Enabled())
    obs::MetricsRegistry::Global()
        .GetCounter("statcube.exec.vec.groups")
        .Add(ngroups);
  return out;
}

}  // namespace statcube::exec
