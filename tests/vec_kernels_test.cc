// Unit tests for the block-at-a-time kernels (common/vec_block.h) and the
// radix-partitioned group-by (exec/vec_kernels.h): block primitive
// semantics, the exactness gate that licenses reassociation, the packed-key
// overflow fallback, and the null/non-numeric/NaN edges of the flag-encoded
// measure slabs.

#include "statcube/exec/vec_kernels.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "statcube/common/vec_block.h"
#include "statcube/relational/aggregate.h"

namespace statcube {
namespace {

uint64_t Bits(double d) {
  uint64_t b;
  std::memcpy(&b, &d, sizeof b);
  return b;
}

// ---------------------------------------------------------------------------
// Block primitives.

TEST(VecBlock, OrderedSumMatchesNaiveLoop) {
  std::vector<double> v;
  for (int i = 0; i < 1000; ++i) v.push_back(0.1 * double(i) + 0.003);
  double naive = 0.0;
  for (double d : v) naive += d;
  EXPECT_EQ(Bits(naive), Bits(vec::SumBlockOrdered(v.data(), v.size())));
  double naive_sq = 0.0;
  for (double d : v) naive_sq += d * d;
  EXPECT_EQ(Bits(naive_sq),
            Bits(vec::SumSqBlockOrdered(v.data(), v.size())));
}

TEST(VecBlock, FastSumIsExactOnIntegers) {
  // Integer-valued doubles below 2^53/n: every partial sum is exactly
  // representable, so the 4-lane reassociation must equal the ordered sum
  // bit-for-bit at every length (tails included).
  std::vector<double> v;
  for (int i = 0; i < 403; ++i) v.push_back(double((i * 7919) % 10007));
  for (size_t n : {size_t(0), size_t(1), size_t(3), size_t(4), size_t(7),
                   size_t(64), size_t(403)}) {
    EXPECT_EQ(Bits(vec::SumBlockOrdered(v.data(), n)),
              Bits(vec::SumBlockFast(v.data(), n)))
        << "n=" << n;
    EXPECT_EQ(Bits(vec::SumSqBlockOrdered(v.data(), n)),
              Bits(vec::SumSqBlockFast(v.data(), n)))
        << "n=" << n;
  }
}

TEST(VecBlock, MinMaxBlock) {
  std::vector<double> v = {3.5, -2.0, 9.25, 9.25, -2.0, 0.0};
  EXPECT_EQ(-2.0, vec::MinBlock(v.data(), v.size()));
  EXPECT_EQ(9.25, vec::MaxBlock(v.data(), v.size()));
  EXPECT_EQ(3.5, vec::MinBlock(v.data(), 1));
  EXPECT_EQ(3.5, vec::MaxBlock(v.data(), 1));
}

TEST(VecBlock, CountFlagBits) {
  std::vector<uint8_t> flags = {3, 1, 0, 3, 2, 1, 3};
  EXPECT_EQ(5u, vec::CountFlagBits(flags.data(), flags.size(), 1));
  EXPECT_EQ(4u, vec::CountFlagBits(flags.data(), flags.size(), 2));
  EXPECT_EQ(0u, vec::CountFlagBits(flags.data(), 0, 1));
}

TEST(VecBlock, ReorderIsExactGate) {
  const double kMax = vec::kMaxExactDouble;  // 2^53
  // Non-integral values never qualify, no matter how small.
  EXPECT_FALSE(vec::ReorderIsExact(false, 1.0, 10));
  // Integral and comfortably small: exact.
  EXPECT_TRUE(vec::ReorderIsExact(true, 1000.0, 1000));
  // n * max_abs crossing 2^53 disqualifies: a partial sum could round.
  EXPECT_TRUE(vec::ReorderIsExact(true, kMax / 4.0, 4));
  EXPECT_FALSE(vec::ReorderIsExact(true, kMax / 4.0, 5));
  // Empty blocks are trivially exact.
  EXPECT_TRUE(vec::ReorderIsExact(true, 0.0, 0));
}

TEST(VecBlock, SumBlockAutoRoutesByExactness) {
  // Inexact inputs must take the ordered path: sum in an order the fast
  // kernel would not use and check SumBlockAuto reproduces the ordered bits.
  std::vector<double> v;
  for (int i = 0; i < 100; ++i) v.push_back(0.1 * double(i));
  EXPECT_EQ(Bits(vec::SumBlockOrdered(v.data(), v.size())),
            Bits(exec::SumBlockAuto(v.data(), v.size(), false, 10.0)));
  // Exact inputs may reassociate — and the result is still the ordered sum
  // (the whole point of the gate).
  std::vector<double> w;
  for (int i = 0; i < 100; ++i) w.push_back(double(i * 13));
  EXPECT_EQ(Bits(vec::SumBlockOrdered(w.data(), w.size())),
            Bits(exec::SumBlockAuto(w.data(), w.size(), true, 99. * 13)));
}

TEST(VecBlock, SimdLevelNameIsKnown) {
  std::string level = vec::SimdLevelName();
  EXPECT_TRUE(level == "avx2" || level == "generic") << level;
}

// ---------------------------------------------------------------------------
// Radix group-by vs the serial reference, on hand-built edge tables.

// Bit-exact comparison of two GroupedStates maps (same groups, same
// accumulator bits in every field).
void ExpectStatesIdentical(const GroupedStates& a, const GroupedStates& b) {
  ASSERT_EQ(a.size(), b.size());
  for (const auto& [key, sa] : a) {
    auto it = b.find(key);
    ASSERT_TRUE(it != b.end());
    const auto& sb = it->second;
    ASSERT_EQ(sa.size(), sb.size());
    for (size_t i = 0; i < sa.size(); ++i) {
      EXPECT_EQ(sa[i].rows, sb[i].rows) << i;
      EXPECT_EQ(sa[i].count, sb[i].count) << i;
      EXPECT_EQ(Bits(sa[i].sum), Bits(sb[i].sum)) << i;
      EXPECT_EQ(Bits(sa[i].sum_sq), Bits(sb[i].sum_sq)) << i;
      EXPECT_EQ(Bits(sa[i].min), Bits(sb[i].min)) << i;
      EXPECT_EQ(Bits(sa[i].max), Bits(sb[i].max)) << i;
    }
  }
}

exec::ExecOptions Vec(int threads, size_t morsel_rows = 128) {
  exec::ExecOptions o;
  o.threads = threads;
  o.morsel_rows = morsel_rows;
  o.vec_fanout_rows = 0;  // force the parallel phases even at test sizes
  return o;
}

Schema KvSchema() {
  Schema s;
  s.AddColumn("k", ValueType::kString);
  s.AddColumn("v", ValueType::kDouble);
  return s;
}

TEST(VecGroupBy, NullsNonNumericsAndNaNs) {
  // The flag-encoded slabs must reproduce AggState::Add exactly: NULL rows
  // count toward `rows` only, a non-numeric cell toward `count` too, and a
  // NaN poisons sum/min/max exactly as the serial `<` comparisons do.
  Table t("edges", KvSchema());
  for (int i = 0; i < 600; ++i) {
    std::string key = std::string("g").append(std::to_string(i % 5));
    if (i % 11 == 0) {
      t.AppendRowUnchecked({Value(key), Value::Null()});
    } else if (i % 13 == 0) {
      t.AppendRowUnchecked({Value(key), Value("not-a-number")});
    } else if (i % 97 == 0) {
      t.AppendRowUnchecked(
          {Value(key), Value(std::numeric_limits<double>::quiet_NaN())});
    } else {
      t.AppendRowUnchecked({Value(key), Value(0.25 * double(i) - 40.0)});
    }
  }
  std::vector<AggSpec> aggs = {{AggFn::kSum, "v", ""},
                               {AggFn::kCount, "v", ""},
                               {AggFn::kMin, "v", ""},
                               {AggFn::kMax, "v", ""},
                               {AggFn::kVariance, "v", ""}};
  auto serial = GroupByStates(t, {"k"}, aggs);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  for (int threads : {1, 2, 4}) {
    auto vec = exec::VectorizedGroupByStates(t, {"k"}, aggs, Vec(threads));
    ASSERT_TRUE(vec.ok()) << vec.status().ToString();
    ExpectStatesIdentical(*serial, *vec);
  }
}

TEST(VecGroupBy, MixedIntAndDoubleKeysPickSerialRepresentative) {
  // int64 2 and double 2.0 compare equal and hash together, so they land in
  // the same group; the emitted key must be the value from the group's
  // FIRST row — exactly the representative the serial map keeps.
  Schema s;
  s.AddColumn("k", ValueType::kInt64);
  s.AddColumn("v", ValueType::kDouble);
  Table t("mixed", s);
  t.AppendRowUnchecked({Value(2.0), Value(1.0)});      // double first
  t.AppendRowUnchecked({Value(int64_t(2)), Value(2.0)});
  t.AppendRowUnchecked({Value(int64_t(3)), Value(3.0)});
  t.AppendRowUnchecked({Value(3.0), Value(4.0)});      // int64 first
  std::vector<AggSpec> aggs = {{AggFn::kSum, "v", ""}};
  auto serial = GroupByStates(t, {"k"}, aggs);
  ASSERT_TRUE(serial.ok());
  auto vec = exec::VectorizedGroupByStates(t, {"k"}, aggs, Vec(2, 1));
  ASSERT_TRUE(vec.ok()) << vec.status().ToString();
  ASSERT_EQ(serial->size(), vec->size());
  // Same representative TYPE, not just equal value.
  for (const auto& [key, st] : *serial) {
    bool found = false;
    for (const auto& [vkey, vst] : *vec) {
      if (vkey[0].type() == key[0].type() && vkey[0] == key[0]) found = true;
    }
    EXPECT_TRUE(found) << key[0].ToString();
  }
  ExpectStatesIdentical(*serial, *vec);
}

TEST(VecGroupBy, WideHighCardinalityKeys) {
  // Nine group columns with up-to-256 distinct values each: the tuple
  // dictionary never packs per-column codes, so wide keys need no fallback
  // — the kernel answers directly, bit-identical to serial, through both
  // the direct entry point and the ParallelGroupByStates router.
  Schema s;
  for (int c = 0; c < 9; ++c)
    s.AddColumn(std::string("c").append(std::to_string(c)),
                ValueType::kInt64);
  s.AddColumn("v", ValueType::kDouble);
  Table t("wide", s);
  const int64_t mult[9] = {3, 5, 7, 9, 11, 13, 15, 17, 19};  // odd: full cycle
  for (int64_t i = 0; i < 512; ++i) {
    Row row;
    for (int c = 0; c < 9; ++c) row.push_back(Value((i * mult[c]) % 256));
    row.push_back(Value(double(i)));
    t.AppendRowUnchecked(std::move(row));
  }
  std::vector<std::string> by;
  for (int c = 0; c < 9; ++c)
    by.push_back(std::string("c").append(std::to_string(c)));
  std::vector<AggSpec> aggs = {{AggFn::kSum, "v", ""}};

  auto serial = GroupByStates(t, by, aggs);
  ASSERT_TRUE(serial.ok());
  auto direct = exec::VectorizedGroupByStates(t, by, aggs, Vec(2));
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();
  ExpectStatesIdentical(*serial, *direct);
  auto routed = exec::ParallelGroupByStates(t, by, aggs, Vec(2));
  ASSERT_TRUE(routed.ok()) << routed.status().ToString();
  ExpectStatesIdentical(*serial, *routed);
}

TEST(VecGroupBy, BadColumnsAreErrors) {
  Table t("kv", KvSchema());
  t.AppendRowUnchecked({Value("a"), Value(1.0)});
  std::vector<AggSpec> aggs = {{AggFn::kSum, "v", ""}};
  EXPECT_FALSE(
      exec::VectorizedGroupByStates(t, {"missing"}, aggs, Vec(2)).ok());
  EXPECT_FALSE(exec::VectorizedGroupByStates(
                   t, {"k"}, {{AggFn::kSum, "missing", ""}}, Vec(2))
                   .ok());
}

TEST(VecGroupBy, ManyGroupsAcrossPartitions) {
  // Enough distinct keys that every radix partition is populated; group
  // count and per-group bits must match serial exactly.
  Table t("many", KvSchema());
  for (int i = 0; i < 4096; ++i)
    t.AppendRowUnchecked({Value("key" + std::to_string(i % 701)),
                          Value(0.5 * double(i % 89))});
  std::vector<AggSpec> aggs = {{AggFn::kSum, "v", ""},
                               {AggFn::kCountAll, "", ""}};
  auto serial = GroupByStates(t, {"k"}, aggs);
  ASSERT_TRUE(serial.ok());
  ASSERT_EQ(701u, serial->size());
  for (int threads : {1, 2, 4, 8}) {
    auto vec = exec::VectorizedGroupByStates(t, {"k"}, aggs, Vec(threads));
    ASSERT_TRUE(vec.ok()) << vec.status().ToString();
    ExpectStatesIdentical(*serial, *vec);
  }
}

}  // namespace
}  // namespace statcube
