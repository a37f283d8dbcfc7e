// Serial/parallel equivalence: every parallel kernel must produce output
// BIT-identical to its serial counterpart on every measure (exact sums and
// the inexact stock close price alike) at any thread count (1/2/4/8) — the
// determinism contract of statcube/exec (parallel_kernels.h, DESIGN.md §6).
// Covered across all four paper workloads (census, hmo, retail, stocks), the
// query path, the cube backends, the MOLAP reductions, and the
// materialization layer.

#include "statcube/exec/parallel_kernels.h"

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "statcube/materialize/greedy.h"
#include "statcube/materialize/lattice.h"
#include "statcube/materialize/view_store.h"
#include "statcube/molap/dense_array.h"
#include "statcube/olap/backend.h"
#include "statcube/query/parser.h"
#include "statcube/relational/cube_operator.h"
#include "statcube/relational/expression.h"
#include "statcube/relational/operators.h"
#include "statcube/workload/census.h"
#include "statcube/workload/hmo.h"
#include "statcube/workload/retail.h"
#include "statcube/workload/stocks.h"

namespace statcube {
namespace {

// Bit-exact table equality: same name, schema, row count, and per cell the
// same Value type with doubles compared by bit pattern (no epsilon).
void ExpectTablesIdentical(const Table& a, const Table& b,
                           const std::string& what) {
  EXPECT_EQ(a.name(), b.name()) << what;
  ASSERT_TRUE(a.schema() == b.schema()) << what;
  ASSERT_EQ(a.num_rows(), b.num_rows()) << what;
  for (size_t i = 0; i < a.num_rows(); ++i) {
    for (size_t c = 0; c < a.schema().num_columns(); ++c) {
      const Value& x = a.row(i)[c];
      const Value& y = b.row(i)[c];
      ASSERT_EQ(x.type(), y.type())
          << what << " row " << i << " col " << c;
      if (x.type() == ValueType::kDouble) {
        double dx = x.AsDouble(), dy = y.AsDouble();
        uint64_t bx, by;
        std::memcpy(&bx, &dx, sizeof bx);
        std::memcpy(&by, &dy, sizeof by);
        ASSERT_EQ(bx, by) << what << " row " << i << " col " << c
                          << ": " << dx << " vs " << dy;
      } else {
        ASSERT_TRUE(x == y) << what << " row " << i << " col " << c << ": "
                            << x.ToString() << " vs " << y.ToString();
      }
    }
  }
}

exec::ExecOptions Threads(int t, size_t morsel_rows = 512) {
  exec::ExecOptions o;
  o.threads = t;
  o.morsel_rows = morsel_rows;  // small: several morsels even on small data
  return o;
}

// Threads(t) with the radix kernel's cheap phases (scatter, per-partition
// aggregation) forced onto the pool even at test sizes.
exec::ExecOptions FanOut(int t, size_t morsel_rows = 512) {
  exec::ExecOptions o = Threads(t, morsel_rows);
  o.vec_fanout_rows = 0;
  return o;
}

// Both layouts of the parallel phases at `t` workers.
std::vector<exec::ExecOptions> Layouts(int t, size_t morsel_rows = 512) {
  return {Threads(t, morsel_rows), FanOut(t, morsel_rows)};
}

std::string Label(int t, const exec::ExecOptions& o) {
  return "@" + std::to_string(t) +
         (o.vec_fanout_rows == 0 ? " fan-out" : "");
}

// One shared instance of each paper workload (§3) — built once, the default
// sizes give multi-morsel tables where it matters (census 5184 rows, retail
// 8000 fact rows).
struct Workloads {
  StatisticalObject census, hmo, stocks;
  RetailData retail;

  static const Workloads& Get() {
    static Workloads* w = [] {
      auto* out = new Workloads();
      out->census = MakeCensusWorkload().ValueOrDie();
      out->hmo = MakeHmoWorkload().ValueOrDie();
      out->stocks = MakeStockWorkload().ValueOrDie();
      out->retail = MakeRetailWorkload().ValueOrDie();
      return out;
    }();
    return *w;
  }
};

// ---------------------------------------------------------------------------
// Kernel level: Select / GroupBy / CubeBy / RollupBy vs their parallel
// counterparts, on every workload's data table.

TEST(KernelEquivalence, SelectMatchesSerial) {
  const auto& w = Workloads::Get();
  struct Case {
    const Table* table;
    std::string column;
    Value value;
  } cases[] = {
      {&w.retail.flat, "city", Value("city1")},
      {&w.census.data(), "sex", Value("M")},
      {&w.hmo.data(), "hospital", Value("hosp0")},
      {&w.stocks.data(), "stock", Value("TKR3")},
  };
  for (const auto& c : cases) {
    auto pred = expr::ColumnEq(c.table->schema(), c.column, c.value);
    ASSERT_TRUE(pred.ok()) << pred.status().ToString();
    Table serial = Select(*c.table, *pred);
    for (int t : {1, 2, 4, 8}) {
      Table parallel = exec::ParallelSelect(*c.table, *pred, Threads(t));
      ExpectTablesIdentical(serial, parallel,
                            c.table->name() + " select@" + std::to_string(t));
    }
  }
}

TEST(KernelEquivalence, GroupByMatchesSerialOnEveryWorkload) {
  const auto& w = Workloads::Get();
  struct Case {
    const Table* table;
    std::vector<std::string> group_cols;
    std::vector<AggSpec> aggs;
  } cases[] = {
      {&w.retail.flat,
       {"category", "city"},
       {{AggFn::kSum, "amount", ""},
        {AggFn::kCount, "qty", ""},
        {AggFn::kMin, "amount", ""},
        {AggFn::kMax, "amount", ""}}},
      {&w.census.data(),
       {"race", "sex"},
       {{AggFn::kSum, "population", ""}, {AggFn::kAvg, "population", ""}}},
      {&w.hmo.data(),
       {"hospital"},
       {{AggFn::kSum, "cost", ""}, {AggFn::kSum, "visits", ""}}},
      // Inexact measure on purpose: close is a non-integer double, and the
      // parallel path must still match serial bit-for-bit.
      {&w.stocks.data(),
       {"stock"},
       {{AggFn::kSum, "volume", ""},
        {AggFn::kAvg, "close", ""},
        {AggFn::kCountAll, "", ""}}},
  };
  for (const auto& c : cases) {
    auto serial = GroupBy(*c.table, c.group_cols, c.aggs);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    for (int t : {1, 2, 4, 8}) {
      for (const exec::ExecOptions& o : Layouts(t)) {
        auto parallel =
            exec::ParallelGroupBy(*c.table, c.group_cols, c.aggs, o);
        ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
        ExpectTablesIdentical(*serial, *parallel,
                              c.table->name() + Label(t, o));
      }
    }
  }
}

TEST(KernelEquivalence, CubeByMatchesSerial) {
  const auto& w = Workloads::Get();
  std::vector<AggSpec> aggs = {{AggFn::kSum, "amount", ""},
                               {AggFn::kCount, "qty", ""}};
  auto serial = CubeBy(w.retail.flat, {"category", "city", "month"}, aggs);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  // The lattice roll-ups fold groups in map iteration order, so this holds
  // only because the radix kernel's base map replays the serial insertion
  // order.
  for (int t : {1, 2, 4, 8}) {
    for (const exec::ExecOptions& o : Layouts(t)) {
      auto parallel = exec::ParallelCubeBy(
          w.retail.flat, {"category", "city", "month"}, aggs, o);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      ExpectTablesIdentical(*serial, *parallel, "cube" + Label(t, o));
    }
  }
}

TEST(KernelEquivalence, RollupByMatchesSerial) {
  const auto& w = Workloads::Get();
  std::vector<AggSpec> aggs = {{AggFn::kSum, "population", ""}};
  auto serial = RollupBy(w.census.data(), {"race", "sex", "age_group"}, aggs);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  for (int t : {1, 2, 4, 8}) {
    for (const exec::ExecOptions& o : Layouts(t)) {
      auto parallel = exec::ParallelRollupBy(
          w.census.data(), {"race", "sex", "age_group"}, aggs, o);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      ExpectTablesIdentical(*serial, *parallel, "rollup" + Label(t, o));
    }
  }
}

TEST(KernelEquivalence, ThreadCountInvariantOnInexactMeasure) {
  // avg/sum/variance(close) add non-integer doubles, so the accumulation
  // order is visible in the last bits. Small morsels force many partial
  // dictionaries and a multi-morsel scatter; every group must still see the
  // serial scan's order, bit for bit, at every thread count.
  const auto& w = Workloads::Get();
  std::vector<AggSpec> aggs = {{AggFn::kAvg, "close", ""},
                               {AggFn::kSum, "close", ""},
                               {AggFn::kVariance, "close", ""}};
  auto serial = GroupBy(w.stocks.data(), {"stock"}, aggs);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  for (int t : {2, 4, 8}) {
    for (const exec::ExecOptions& o : Layouts(t, /*morsel_rows=*/64)) {
      auto parallel =
          exec::ParallelGroupBy(w.stocks.data(), {"stock"}, aggs, o);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      ExpectTablesIdentical(*serial, *parallel, "close" + Label(t, o));
    }
  }
}

TEST(KernelEquivalence, EmptyByAndEmptyInput) {
  // Empty BY list = one global group over the measure slabs (the block-sum
  // fast path); an empty input yields an empty result in both paths.
  const auto& w = Workloads::Get();
  std::vector<AggSpec> aggs = {{AggFn::kSum, "amount", ""},
                               {AggFn::kMin, "amount", ""},
                               {AggFn::kMax, "amount", ""},
                               {AggFn::kAvg, "amount", ""},
                               {AggFn::kCountAll, "", ""}};
  auto serial = GroupBy(w.retail.flat, {}, aggs);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  Table empty("empty", w.retail.flat.schema());
  auto empty_serial = GroupBy(empty, {"city"}, aggs);
  ASSERT_TRUE(empty_serial.ok());
  for (int t : {1, 2, 4, 8}) {
    auto all = exec::ParallelGroupBy(w.retail.flat, {}, aggs, FanOut(t));
    ASSERT_TRUE(all.ok()) << all.status().ToString();
    ExpectTablesIdentical(*serial, *all, "empty-by@" + std::to_string(t));
    auto none = exec::ParallelGroupBy(empty, {"city"}, aggs, FanOut(t));
    ASSERT_TRUE(none.ok()) << none.status().ToString();
    ExpectTablesIdentical(*empty_serial, *none,
                          "empty-input@" + std::to_string(t));
  }
}

TEST(KernelEquivalence, SingleKeySkew) {
  // Every row carries the same key, so one radix partition receives the
  // whole table while the other 63 stay empty — the degenerate load-balance
  // case. Inexact measure values make accumulation order observable.
  Schema schema;
  schema.AddColumn("k", ValueType::kString);
  schema.AddColumn("v", ValueType::kDouble);
  Table skew("skew", schema);
  for (int i = 0; i < 5000; ++i)
    skew.AppendRowUnchecked({Value("only"), Value(0.1 * double(i % 997))});
  std::vector<AggSpec> aggs = {{AggFn::kSum, "v", ""},
                               {AggFn::kAvg, "v", ""},
                               {AggFn::kMin, "v", ""},
                               {AggFn::kMax, "v", ""}};
  auto serial = GroupBy(skew, {"k"}, aggs);
  ASSERT_TRUE(serial.ok()) << serial.status().ToString();
  for (int t : {1, 2, 4, 8}) {
    auto parallel = exec::ParallelGroupBy(skew, {"k"}, aggs, FanOut(t, 256));
    ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
    ExpectTablesIdentical(*serial, *parallel, "skew@" + std::to_string(t));
  }
}

// ---------------------------------------------------------------------------
// Query path: ExecuteQuery at one worker (the serial operators) vs 1/2/4/8
// workers on the §5.1 language, across all four workloads.

void ExpectQueryEquivalent(const StatisticalObject& obj,
                           const std::string& text) {
  auto parsed = ParseQuery(text);
  ASSERT_TRUE(parsed.ok()) << text << ": " << parsed.status().ToString();
  auto serial = ExecuteQuery(obj, *parsed);
  ASSERT_TRUE(serial.ok()) << text << ": " << serial.status().ToString();
  for (int t : {1, 2, 4, 8}) {
    auto parallel = ExecuteQuery(obj, *parsed, t);
    ASSERT_TRUE(parallel.ok()) << text << ": " << parallel.status().ToString();
    ExpectTablesIdentical(*serial, *parallel,
                          text + " @" + std::to_string(t) + " threads");
  }
}

TEST(QueryEquivalence, Retail) {
  const auto& obj = Workloads::Get().retail.object;
  for (const char* q : {
           "SELECT sum(amount) BY city",
           "SELECT sum(qty), avg(amount) BY category",
           "SELECT sum(amount) BY month WHERE city = 'city1'",
           "SELECT sum(amount) BY CUBE(city, month)",
           "SELECT count() WHERE price_range = 'premium'",
           "SELECT sum(amount), sum(qty) BY CUBE(category, city, year)",
       })
    ExpectQueryEquivalent(obj, q);
}

// The shared read path (query/query_input.h): several levels of one
// dimension, a level in both BY and WHERE, a level beside its own grouped
// leaf, and an aggregate over a dimension column.
TEST(QueryEquivalence, ReadPathShapes) {
  const auto& obj = Workloads::Get().retail.object;
  for (const char* q : {
           "SELECT sum(amount) BY year, month",
           "SELECT sum(amount), avg(qty) BY city WHERE city = 'city1'",
           "SELECT sum(qty) BY store, city",
           "SELECT sum(amount) BY day, month WHERE year = '1996'",
           "SELECT count(product) BY category",
           "SELECT count(product), sum(amount) BY CUBE(category, city) "
           "WHERE price_range = 'premium'",
       })
    ExpectQueryEquivalent(obj, q);
}

TEST(QueryEquivalence, CensusQueries) {
  const auto& obj = Workloads::Get().census;
  for (const char* q : {
           "SELECT sum(population) BY race",
           "SELECT sum(population) BY state",
           "SELECT sum(population) BY CUBE(race, sex)",
           "SELECT sum(population) BY age_group WHERE sex = 'M'",
       })
    ExpectQueryEquivalent(obj, q);
}

TEST(QueryEquivalence, HmoQueries) {
  const auto& obj = Workloads::Get().hmo;
  for (const char* q : {
           "SELECT sum(cost), sum(visits) BY hospital",
           "SELECT sum(cost) BY CUBE(hospital, month)",
           "SELECT sum(visits) BY disease",
       })
    ExpectQueryEquivalent(obj, q);
}

TEST(QueryEquivalence, StockQueries) {
  const auto& obj = Workloads::Get().stocks;
  for (const char* q : {
           "SELECT sum(volume) BY stock",
           "SELECT avg(close) BY stock",
           "SELECT sum(volume) BY CUBE(stock, day)",
       })
    ExpectQueryEquivalent(obj, q);
}

// ---------------------------------------------------------------------------
// Backends: MOLAP and ROLAP GroupBySum with threads=1 vs 2/4/8.

TEST(BackendEquivalence, GroupBySumThreadInvariant) {
  const auto& w = Workloads::Get();
  auto molap = MakeMolapBackend(w.retail.object, "amount").ValueOrDie();
  auto rolap = MakeRolapBackend(w.retail.object, "amount").ValueOrDie();
  auto indexed = MakeRolapBackend(w.retail.object, "amount",
                                  {.build_bitmap_indexes = true})
                     .ValueOrDie();
  std::vector<CubeQuery> queries;
  {
    CubeQuery q;
    q.group_dims = {"store"};
    queries.push_back(q);
    q.group_dims = {"product", "store"};
    q.filters = {{"day", Value("1996-1-3")}};
    queries.push_back(q);
    q.group_dims = {"day"};
    q.filters = {{"product", Value("prod1")}};
    queries.push_back(q);
  }
  for (CubeBackend* backend : {molap.get(), rolap.get(), indexed.get()}) {
    for (CubeQuery q : queries) {
      q.threads = 1;
      auto serial = backend->GroupBySum(q);
      ASSERT_TRUE(serial.ok()) << serial.status().ToString();
      for (int t : {2, 4, 8}) {
        q.threads = t;
        auto parallel = backend->GroupBySum(q);
        ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
        ExpectTablesIdentical(*serial, *parallel,
                              backend->name() + "@" + std::to_string(t));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// MOLAP reductions: SumRange and the Figure 9 marginals.

DenseArray MakeArray(std::vector<size_t> shape, bool integer_cells) {
  DenseArray a(std::move(shape));
  for (size_t i = 0; i < a.num_cells(); ++i)
    a.SetLinear(i, integer_cells ? double(i % 97)
                                 : 0.1 * double(i % 97) + 0.003);
  return a;
}

TEST(MolapEquivalence, SumRangeMatchesSerial) {
  DenseArray a = MakeArray({5, 6, 7, 4}, /*integer_cells=*/true);
  std::vector<std::vector<DimRange>> cases = {
      {{0, 5}, {0, 6}, {0, 7}, {0, 4}},  // whole array
      {{1, 4}, {2, 5}, {0, 7}, {1, 3}},  // interior box
      {{2, 3}, {3, 4}, {5, 6}, {0, 4}},  // thin slab
      {{0, 5}, {0, 0}, {0, 7}, {0, 4}},  // empty range -> 0
  };
  for (const auto& ranges : cases) {
    auto serial = a.SumRange(ranges);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    for (int t : {1, 2, 4, 8}) {
      auto parallel = exec::ParallelSumRange(a, ranges, Threads(t, 8));
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      EXPECT_EQ(*serial, *parallel) << t << " threads";
    }
  }
  // Validation parity: wrong arity and out-of-bounds fail in both.
  EXPECT_FALSE(exec::ParallelSumRange(a, {{0, 5}}, Threads(4)).ok());
  EXPECT_FALSE(
      exec::ParallelSumRange(a, {{0, 5}, {0, 6}, {0, 7}, {0, 9}}, Threads(4))
          .ok());
}

TEST(MolapEquivalence, SumRangeThreadInvariantOnInexactCells) {
  DenseArray a = MakeArray({6, 6, 6}, /*integer_cells=*/false);
  std::vector<DimRange> ranges = {{0, 6}, {1, 5}, {0, 6}};
  auto baseline = exec::ParallelSumRange(a, ranges, Threads(1, 4));
  ASSERT_TRUE(baseline.ok());
  for (int t : {2, 4, 8}) {
    auto other = exec::ParallelSumRange(a, ranges, Threads(t, 4));
    ASSERT_TRUE(other.ok());
    uint64_t bx, by;
    double dx = *baseline, dy = *other;
    std::memcpy(&bx, &dx, sizeof bx);
    std::memcpy(&by, &dy, sizeof by);
    EXPECT_EQ(bx, by) << t << " threads";
  }
}

TEST(MolapEquivalence, MarginalSumsMatchSerial) {
  // Each marginal entry is one slab walked in index order by exactly one
  // task, so even inexact cells reproduce the serial vector bit-for-bit.
  DenseArray a = MakeArray({7, 5, 9}, /*integer_cells=*/false);
  for (size_t dim = 0; dim < 3; ++dim) {
    auto serial = exec::MarginalSums(a, dim);
    ASSERT_TRUE(serial.ok()) << serial.status().ToString();
    for (int t : {1, 2, 4, 8}) {
      auto parallel = exec::ParallelMarginalSums(a, dim, Threads(t, 2));
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();
      ASSERT_EQ(serial->size(), parallel->size());
      for (size_t i = 0; i < serial->size(); ++i) {
        uint64_t bx, by;
        std::memcpy(&bx, &(*serial)[i], sizeof bx);
        std::memcpy(&by, &(*parallel)[i], sizeof by);
        EXPECT_EQ(bx, by) << "dim " << dim << " entry " << i;
      }
    }
  }
  EXPECT_FALSE(exec::ParallelMarginalSums(a, 3, Threads(4)).ok());
}

// ---------------------------------------------------------------------------
// Materialization: concurrent view building and greedy selection.

TEST(MaterializeEquivalence, MaterializeAllMatchesSerialOrder) {
  const auto& w = Workloads::Get();
  std::vector<std::string> dims = {"category", "city", "month"};
  std::vector<AggSpec> aggs = {{AggFn::kSum, "amount", ""},
                               {AggFn::kCount, "qty", ""}};
  auto serial =
      MaterializedCubeStore::Create(w.retail.flat, dims, aggs).ValueOrDie();
  auto parallel =
      MaterializedCubeStore::Create(w.retail.flat, dims, aggs).ValueOrDie();

  std::vector<uint32_t> masks;
  for (uint32_t m = 0; m < 8; ++m) masks.push_back(m);
  // Serial reference: (popcount desc, mask asc) — the documented order.
  for (uint32_t m : {7u, 3u, 5u, 6u, 1u, 2u, 4u, 0u})
    ASSERT_TRUE(serial.Materialize(m).ok());
  ASSERT_TRUE(parallel.MaterializeAll(masks, /*threads=*/4).ok());

  ASSERT_EQ(serial.materialized_masks(), parallel.materialized_masks());
  EXPECT_EQ(serial.materialized_rows(), parallel.materialized_rows());
  for (uint32_t m : masks) {
    auto a = serial.Query(m);
    auto b = parallel.Query(m);
    ASSERT_TRUE(a.ok() && b.ok());
    ExpectTablesIdentical(*a, *b, "view mask " + std::to_string(m));
  }
}

TEST(MaterializeEquivalence, GreedySelectMatchesSerial) {
  // Estimated lattice over 5 dims (32 views) with deliberate cardinality
  // ties, so the lowest-index argmin tie-break is actually exercised.
  Lattice lattice = Lattice::FromCardinalities(
      {"a", "b", "c", "d", "e"}, {20, 20, 50, 5, 5}, 100000);
  for (size_t k : {size_t(1), size_t(3), size_t(6)}) {
    ViewSelection serial = GreedySelect(lattice, k);
    for (int t : {1, 2, 4, 8}) {
      ViewSelection parallel = GreedySelectParallel(lattice, k, t);
      EXPECT_EQ(serial.views, parallel.views) << "k=" << k << " t=" << t;
      EXPECT_EQ(serial.benefit, parallel.benefit);
      EXPECT_EQ(serial.total_cost, parallel.total_cost);
      EXPECT_EQ(serial.space_rows, parallel.space_rows);
    }
  }
}

}  // namespace
}  // namespace statcube
