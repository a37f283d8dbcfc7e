// Tests for the pluggable cube backends: MOLAP, ROLAP, ROLAP+bitmap must
// answer identically (the §6.6 equivalence invariant).

#include "statcube/olap/backend.h"

#include <gtest/gtest.h>

#include <map>

#include "statcube/query/parser.h"
#include "statcube/workload/retail.h"

namespace statcube {
namespace {

class BackendTest : public ::testing::Test {
 protected:
  void SetUp() override {
    RetailOptions opt;
    opt.num_products = 15;
    opt.num_stores = 6;
    opt.num_days = 20;
    opt.num_rows = 3000;
    data_ = std::make_unique<RetailData>(*MakeRetailWorkload(opt));
    molap_ = MakeMolapBackend(data_->object, "amount").ValueOrDie();
    rolap_ = MakeRolapBackend(data_->object, "amount").ValueOrDie();
    indexed_ = MakeRolapBackend(data_->object, "amount",
                                {.build_bitmap_indexes = true})
                   .ValueOrDie();
  }

  std::unique_ptr<RetailData> data_;
  std::unique_ptr<CubeBackend> molap_, rolap_, indexed_;
};

TEST_F(BackendTest, Names) {
  EXPECT_EQ(molap_->name(), "molap");
  EXPECT_EQ(rolap_->name(), "rolap");
  EXPECT_EQ(indexed_->name(), "rolap+bitmap");
}

TEST_F(BackendTest, SumsAgreeAcrossBackends) {
  std::vector<std::vector<EqFilter>> cases = {
      {},
      {{"product", Value("prod1")}},
      {{"store", Value("city0/s#0")}},
      {{"product", Value("prod2")}, {"day", Value("1996-1-3")}},
      {{"product", Value("never_sold")}},
  };
  for (const auto& filters : cases) {
    auto a = molap_->Sum(filters);
    auto b = rolap_->Sum(filters);
    auto c = indexed_->Sum(filters);
    ASSERT_TRUE(a.ok() && b.ok() && c.ok());
    EXPECT_NEAR(*a, *b, 1e-6);
    EXPECT_NEAR(*a, *c, 1e-6);
  }
}

TEST_F(BackendTest, GroupBySumsAgree) {
  CubeQuery q;
  q.group_dims = {"store"};
  auto a = molap_->GroupBySum(q);
  auto b = rolap_->GroupBySum(q);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  // ROLAP only returns non-empty groups; MOLAP enumerates every dimension
  // value. Compare on ROLAP's groups; MOLAP's extras must be zero.
  size_t bi = 0;
  for (size_t ai = 0; ai < a->num_rows(); ++ai) {
    if (bi < b->num_rows() && a->at(ai, 0) == b->at(bi, 0)) {
      EXPECT_NEAR(a->at(ai, 1).AsDouble(), b->at(bi, 1).AsDouble(), 1e-6);
      ++bi;
    } else {
      EXPECT_DOUBLE_EQ(a->at(ai, 1).AsDouble(), 0.0)
          << a->at(ai, 0).ToString();
    }
  }
  EXPECT_EQ(bi, b->num_rows());
}

TEST_F(BackendTest, GroupByWithFilter) {
  CubeQuery q;
  q.group_dims = {"product"};
  q.filters = {{"store", Value("city1/s#0")}};
  auto a = molap_->GroupBySum(q);
  auto b = rolap_->GroupBySum(q);
  ASSERT_TRUE(a.ok() && b.ok());
  double ta = 0, tb = 0;
  for (const Row& r : a->rows()) ta += r.back().AsDouble();
  for (const Row& r : b->rows()) tb += r.back().AsDouble();
  EXPECT_NEAR(ta, tb, 1e-6);
}

TEST_F(BackendTest, TwoDimensionGroupBy) {
  CubeQuery q;
  q.group_dims = {"store", "day"};
  auto a = molap_->GroupBySum(q);
  auto b = rolap_->GroupBySum(q);
  ASSERT_TRUE(a.ok() && b.ok());
  // MOLAP enumerates the full cross product; totals must agree.
  double ta = 0, tb = 0;
  for (const Row& r : a->rows()) ta += r.back().AsDouble();
  for (const Row& r : b->rows()) tb += r.back().AsDouble();
  EXPECT_NEAR(ta, tb, 1e-6);
  EXPECT_GE(a->num_rows(), b->num_rows());
  // Spot check: every ROLAP group appears in MOLAP output with equal sum.
  std::map<Row, double> molap_groups;
  for (const Row& r : a->rows()) {
    Row key(r.begin(), r.begin() + 2);
    molap_groups[key] = r.back().AsDouble();
  }
  for (const Row& r : b->rows()) {
    Row key(r.begin(), r.begin() + 2);
    auto it = molap_groups.find(key);
    ASSERT_NE(it, molap_groups.end());
    EXPECT_NEAR(it->second, r.back().AsDouble(), 1e-6);
  }
}

// A WHERE equality on a grouped dimension selects that group only: MOLAP
// must answer like the relational executor once its all-zero padding rows
// (group coordinates with no cells) are dropped — a filter that names a
// non-member leaves no group at all.
TEST_F(BackendTest, MolapFilterOnGroupedDimensionMatchesRelational) {
  for (const char* text : {
           "SELECT sum(amount) BY store WHERE store = 'city0/s#0'",
           "SELECT sum(amount) BY store, product WHERE store = 'city1/s#0'",
           "SELECT sum(amount) BY product, store WHERE store = 'city0/s#1' "
           "AND product = 'prod1'",
           "SELECT sum(amount) BY store WHERE store = 'city0/s#0' AND "
           "store = 'city1/s#0'",
           "SELECT sum(amount) BY store WHERE store = 'no/such#store'",
       }) {
    auto q = ParseQuery(text);
    ASSERT_TRUE(q.ok()) << text;
    auto relational = ExecuteQuery(data_->object, *q);
    ASSERT_TRUE(relational.ok()) << text << ": "
                                 << relational.status().ToString();
    for (int threads : {1, 2}) {
      auto molap =
          ExecuteQueryOnBackend(data_->object, *q, *molap_, threads);
      ASSERT_TRUE(molap.ok()) << text << ": " << molap.status().ToString();
      std::vector<Row> cells;
      for (const Row& r : molap->rows())
        if (r.back().AsDouble() != 0.0) cells.push_back(r);
      const std::string what = std::string(text) + " @" +
                               std::to_string(threads) + " threads";
      ASSERT_EQ(cells.size(), relational->num_rows()) << what;
      for (size_t i = 0; i < cells.size(); ++i) {
        const Row& want = relational->row(i);
        for (size_t c = 0; c + 1 < want.size(); ++c)
          EXPECT_EQ(cells[i][c], want[c]) << what << " row " << i;
        EXPECT_NEAR(cells[i].back().AsDouble(), want.back().AsDouble(), 1e-6)
            << what << " row " << i;
      }
    }
  }
  // The grouped dimension is narrowed to the filter's member, so the
  // padding that remains is only along the other grouped dimensions.
  auto q = ParseQuery("SELECT sum(amount) BY store WHERE store = 'city0/s#0'");
  ASSERT_TRUE(q.ok());
  for (int threads : {1, 2}) {
    auto molap = ExecuteQueryOnBackend(data_->object, *q, *molap_, threads);
    ASSERT_TRUE(molap.ok());
    ASSERT_EQ(molap->num_rows(), 1u);
    EXPECT_EQ(molap->at(0, 0), Value("city0/s#0"));
  }
}

TEST_F(BackendTest, EmptyGroupIsGrandTotal) {
  CubeQuery q;
  auto a = molap_->GroupBySum(q);
  ASSERT_TRUE(a.ok());
  ASSERT_EQ(a->num_rows(), 1u);
  auto total = molap_->Sum({});
  ASSERT_TRUE(total.ok());
  EXPECT_NEAR(a->at(0, 0).AsDouble(), *total, 1e-6);
}

TEST_F(BackendTest, BitmapIndexReadsFewerBytesThanScan) {
  rolap_->counter().Reset();
  indexed_->counter().Reset();
  (void)*rolap_->Sum({{"product", Value("prod1")}});
  (void)*indexed_->Sum({{"product", Value("prod1")}});
  EXPECT_LT(indexed_->counter().bytes_read(), rolap_->counter().bytes_read());
}

TEST_F(BackendTest, UnknownDimensionErrors) {
  EXPECT_FALSE(molap_->Sum({{"ghost", Value(1)}}).ok());
  EXPECT_FALSE(indexed_->Sum({{"ghost", Value(1)}}).ok());
  CubeQuery q;
  q.group_dims = {"ghost"};
  EXPECT_FALSE(molap_->GroupBySum(q).ok());
  EXPECT_FALSE(rolap_->GroupBySum(q).ok());
}

}  // namespace
}  // namespace statcube
