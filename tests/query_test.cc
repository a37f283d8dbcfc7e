// Tests for the concise query language (§5.1): parsing, execution,
// hierarchy-level inference, error reporting.

#include "statcube/query/parser.h"

#include <gtest/gtest.h>

#include "statcube/workload/retail.h"

namespace statcube {
namespace {

const StatisticalObject& Sales() {
  static StatisticalObject obj = [] {
    RetailOptions opt;
    opt.num_products = 10;
    opt.num_stores = 4;
    opt.num_cities = 2;
    opt.num_days = 10;
    opt.num_rows = 1000;
    return MakeRetailWorkload(opt)->object;
  }();
  return obj;
}

TEST(ParseTest, FullQuery) {
  auto q = ParseQuery(
      "SELECT sum(amount), avg(qty) BY city WHERE product = 'prod1' AND "
      "day = '1996-1-3'");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->aggs.size(), 2u);
  EXPECT_EQ(q->aggs[0].fn, AggFn::kSum);
  EXPECT_EQ(q->aggs[0].column, "amount");
  EXPECT_EQ(q->aggs[1].fn, AggFn::kAvg);
  EXPECT_EQ(q->by, (std::vector<std::string>{"city"}));
  ASSERT_EQ(q->where.size(), 2u);
  EXPECT_EQ(q->where[0].first, "product");
  EXPECT_EQ(q->where[0].second, Value("prod1"));
}

TEST(ParseTest, CountStarAndNumbers) {
  auto q = ParseQuery("select count() where year = 1996 and price = 19.5");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->aggs[0].fn, AggFn::kCountAll);
  EXPECT_EQ(q->where[0].second, Value(int64_t(1996)));
  EXPECT_EQ(q->where[1].second, Value(19.5));
}

TEST(ParseTest, SyntaxErrors) {
  EXPECT_FALSE(ParseQuery("").ok());
  EXPECT_FALSE(ParseQuery("sum(amount)").ok());            // no SELECT
  EXPECT_FALSE(ParseQuery("SELECT bogus(amount)").ok());   // unknown fn
  EXPECT_FALSE(ParseQuery("SELECT sum amount").ok());      // missing parens
  EXPECT_FALSE(ParseQuery("SELECT sum(amount) extra").ok());
  EXPECT_FALSE(ParseQuery("SELECT sum(amount) WHERE x").ok());
  EXPECT_FALSE(ParseQuery("SELECT sum(amount) WHERE x = 'unterminated").ok());
  EXPECT_TRUE(ParseQuery("SELECT count()").ok());  // count() is legal
}

TEST(ExecuteTest, GroupByDimension) {
  auto r = Query(Sales(), "SELECT sum(amount) BY store");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->num_rows(), 4u);
  EXPECT_TRUE(r->schema().Contains("sum_amount"));
}

TEST(ExecuteTest, GroupByHierarchyLevelRollsUp) {
  // "city" is not a dimension of the object — it is level 1 of the store
  // hierarchy; the executor rolls up automatically.
  auto r = Query(Sales(), "SELECT sum(amount) BY city");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->num_rows(), 2u);
  // Totals match the direct store-level query.
  auto by_store = Query(Sales(), "SELECT sum(amount) BY store");
  ASSERT_TRUE(by_store.ok());
  double t1 = 0, t2 = 0;
  for (const Row& row : r->rows()) t1 += row[1].AsDouble();
  for (const Row& row : by_store->rows()) t2 += row[1].AsDouble();
  EXPECT_NEAR(t1, t2, 1e-6);
}

TEST(ExecuteTest, WhereOnHierarchyLevel) {
  auto r = Query(Sales(),
                 "SELECT sum(qty) BY product WHERE category = 'cat1'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // Only products of cat1 appear.
  EXPECT_GT(r->num_rows(), 0u);
  EXPECT_LT(r->num_rows(), 10u);
}

TEST(ExecuteTest, LeafAndParentLevelTogether) {
  // Group by the leaf dimension while filtering on its parent level: the
  // derived-column strategy must keep both addressable.
  auto r = Query(Sales(), "SELECT sum(qty) BY store WHERE city = 'city1'");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_EQ(r->num_rows(), 2u);  // 4 stores over 2 cities
  for (const Row& row : r->rows())
    EXPECT_NE(row[0].AsString().find("city1"), std::string::npos);
}

TEST(ExecuteTest, GlobalAggregate) {
  auto r = Query(Sales(), "SELECT sum(qty), count()");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  ASSERT_EQ(r->num_rows(), 1u);
  EXPECT_GT(r->at(0, 0).AsDouble(), 0.0);
}

TEST(ExecuteTest, UnknownIdentifier) {
  EXPECT_FALSE(Query(Sales(), "SELECT sum(amount) BY ghost").ok());
  EXPECT_FALSE(Query(Sales(), "SELECT sum(ghost)").ok());
  EXPECT_FALSE(
      Query(Sales(), "SELECT sum(amount) WHERE ghost = 'x'").ok());
}

TEST(ExecuteTest, ByCubeProducesAllRows) {
  auto r = Query(Sales(), "SELECT sum(amount) BY CUBE(city, day)");
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  // 2 cities x 10 days fully populated: (2+1)*(10+1) = 33 rows.
  EXPECT_EQ(r->num_rows(), 33u);
  bool grand = false;
  for (const Row& row : r->rows())
    if (row[0].is_all() && row[1].is_all()) grand = true;
  EXPECT_TRUE(grand);
  // Syntax errors.
  EXPECT_FALSE(ParseQuery("SELECT sum(a) BY CUBE x").ok());
  EXPECT_FALSE(ParseQuery("SELECT sum(a) BY CUBE(x").ok());
  EXPECT_FALSE(ParseQuery("SELECT sum(a) BY CUBE()").ok());
}

TEST(ExecuteTest, MatchesManualPipeline) {
  // The text query equals the hand-built group-by.
  auto text = Query(Sales(), "SELECT sum(amount) BY day");
  auto manual = GroupBy(Sales().data(), {"day"},
                        {{AggFn::kSum, "amount", "sum_amount"}});
  ASSERT_TRUE(text.ok());
  ASSERT_TRUE(manual.ok());
  ASSERT_EQ(text->num_rows(), manual->num_rows());
  for (size_t i = 0; i < text->num_rows(); ++i) {
    EXPECT_EQ(text->at(i, 0), manual->at(i, 0));
    EXPECT_NEAR(text->at(i, 1).AsDouble(), manual->at(i, 1).AsDouble(), 1e-6);
  }
}

// ------------------------------------------------------------- read path
//
// ExecuteQuery reads the object through one input builder at every thread
// count: only the referenced columns, plus one derived column per
// referenced hierarchy level. These cases pin its answers against tables
// written out by hand, serially and at 1/2/4 threads.

// A six-cell object small enough to total by hand. Stores s1/s2 are in
// "north", s3 in "south"; days d1-d3 fall in 1996 (d1, d2 in month 1996-1),
// d4 in 1997-1. The product dimension also carries a non-strict "use"
// classification (p1 serves both home and office).
StatisticalObject Shop() {
  StatisticalObject obj("shop");
  Dimension product("product");
  ClassificationHierarchy by_cat("by_category", {"product", "category"});
  EXPECT_TRUE(by_cat.Link(0, Value("p1"), Value("c1")).ok());
  EXPECT_TRUE(by_cat.Link(0, Value("p2"), Value("c1")).ok());
  EXPECT_TRUE(by_cat.Link(0, Value("p3"), Value("c2")).ok());
  product.AddHierarchy(by_cat);
  ClassificationHierarchy by_use("by_use", {"product", "use"});
  EXPECT_TRUE(by_use.Link(0, Value("p1"), Value("home")).ok());
  EXPECT_TRUE(by_use.Link(0, Value("p1"), Value("office")).ok());
  product.AddHierarchy(by_use);
  EXPECT_TRUE(obj.AddDimension(product).ok());

  Dimension store("store");
  ClassificationHierarchy geo("by_city", {"store", "city"});
  EXPECT_TRUE(geo.Link(0, Value("s1"), Value("north")).ok());
  EXPECT_TRUE(geo.Link(0, Value("s2"), Value("north")).ok());
  EXPECT_TRUE(geo.Link(0, Value("s3"), Value("south")).ok());
  store.AddHierarchy(geo);
  EXPECT_TRUE(obj.AddDimension(store).ok());

  Dimension day("day", DimensionKind::kTemporal);
  ClassificationHierarchy cal("calendar", {"day", "month", "year"});
  EXPECT_TRUE(cal.Link(0, Value("d1"), Value("1996-1")).ok());
  EXPECT_TRUE(cal.Link(0, Value("d2"), Value("1996-1")).ok());
  EXPECT_TRUE(cal.Link(0, Value("d3"), Value("1996-2")).ok());
  EXPECT_TRUE(cal.Link(0, Value("d4"), Value("1997-1")).ok());
  EXPECT_TRUE(cal.Link(1, Value("1996-1"), Value("1996")).ok());
  EXPECT_TRUE(cal.Link(1, Value("1996-2"), Value("1996")).ok());
  EXPECT_TRUE(cal.Link(1, Value("1997-1"), Value("1997")).ok());
  day.AddHierarchy(cal);
  EXPECT_TRUE(obj.AddDimension(day).ok());

  EXPECT_TRUE(obj.AddMeasure({"qty", "", MeasureType::kFlow, AggFn::kSum, ""})
                  .ok());
  EXPECT_TRUE(
      obj.AddMeasure({"amount", "", MeasureType::kFlow, AggFn::kSum, ""})
          .ok());
  return obj;
}

StatisticalObject ShopWithCells() {
  StatisticalObject obj = Shop();
  struct Cell {
    const char *product, *store, *day;
    int64_t qty;
    double amount;
  };
  for (const Cell& c :
       {Cell{"p1", "s1", "d1", 1, 10}, Cell{"p2", "s1", "d2", 2, 20},
        Cell{"p1", "s2", "d3", 3, 30}, Cell{"p3", "s3", "d1", 4, 40},
        Cell{"p2", "s3", "d4", 5, 50}, Cell{"p3", "s2", "d4", 6, 60}})
    EXPECT_TRUE(obj.AddCell({Value(c.product), Value(c.store), Value(c.day)},
                            {Value(c.qty), Value(c.amount)})
                    .ok());
  return obj;
}

// Group columns are declared kString and aggregates kDouble, whatever the
// values they hold.
Table Expected(const std::string& name, const std::vector<std::string>& groups,
               const std::vector<std::string>& aggs, std::vector<Row> rows) {
  Schema schema;
  for (const auto& g : groups) schema.AddColumn(g, ValueType::kString);
  for (const auto& a : aggs) schema.AddColumn(a, ValueType::kDouble);
  Table t(name, schema);
  for (Row& r : rows) t.AppendRowUnchecked(std::move(r));
  return t;
}

// Exact equality: name, schema, and per cell the same type and value (the
// expected sums are small integers, exact in binary).
void ExpectSameTable(const Table& got, const Table& want,
                     const std::string& what) {
  EXPECT_EQ(got.name(), want.name()) << what;
  ASSERT_TRUE(got.schema() == want.schema()) << what;
  ASSERT_EQ(got.num_rows(), want.num_rows()) << what << "\n"
                                             << got.ToString();
  for (size_t i = 0; i < got.num_rows(); ++i)
    for (size_t c = 0; c < got.num_columns(); ++c) {
      EXPECT_EQ(got.at(i, c).type(), want.at(i, c).type())
          << what << " row " << i << " col " << c;
      EXPECT_TRUE(got.at(i, c) == want.at(i, c))
          << what << " row " << i << " col " << c << ": "
          << got.at(i, c).ToString() << " vs " << want.at(i, c).ToString();
    }
}

void ExpectReadPath(const StatisticalObject& obj, const std::string& text,
                    const Table& want) {
  auto q = ParseQuery(text);
  ASSERT_TRUE(q.ok()) << text << ": " << q.status().ToString();
  auto serial = ExecuteQuery(obj, *q);
  ASSERT_TRUE(serial.ok()) << text << ": " << serial.status().ToString();
  ExpectSameTable(*serial, want, text + " serial");
  for (int t : {1, 2, 4}) {
    auto parallel = ExecuteQuery(obj, *q, t);
    ASSERT_TRUE(parallel.ok()) << text << ": " << parallel.status().ToString();
    ExpectSameTable(*parallel, want, text + " @" + std::to_string(t));
  }
}

void ExpectReadPathError(const StatisticalObject& obj, const std::string& text,
                         StatusCode code, const std::string& message) {
  auto q = ParseQuery(text);
  ASSERT_TRUE(q.ok()) << text << ": " << q.status().ToString();
  auto serial = ExecuteQuery(obj, *q);
  ASSERT_FALSE(serial.ok()) << text;
  EXPECT_EQ(serial.status().code(), code) << serial.status().ToString();
  EXPECT_EQ(serial.status().message(), message);
  for (int t : {1, 2, 4}) {
    auto parallel = ExecuteQuery(obj, *q, t);
    ASSERT_FALSE(parallel.ok()) << text << " @" << t;
    EXPECT_EQ(parallel.status().code(), code);
    EXPECT_EQ(parallel.status().message(), message);
  }
}

TEST(ReadPathTest, TwoLevelsOfOneDimension) {
  ExpectReadPath(ShopWithCells(), "SELECT sum(amount) BY year, month",
                 Expected("shop_by_year_month", {"year", "month"},
                          {"sum_amount"},
                          {{Value("1996"), Value("1996-1"), Value(70.0)},
                           {Value("1996"), Value("1996-2"), Value(30.0)},
                           {Value("1997"), Value("1997-1"), Value(110.0)}}));
}

TEST(ReadPathTest, SameLevelInByAndWhere) {
  ExpectReadPath(ShopWithCells(),
                 "SELECT sum(amount) BY city WHERE city = 'north'",
                 Expected("shop_sel_by_city", {"city"}, {"sum_amount"},
                          {{Value("north"), Value(120.0)}}));
}

TEST(ReadPathTest, LevelOfAGroupedDimension) {
  ExpectReadPath(ShopWithCells(), "SELECT sum(qty) BY store, city",
                 Expected("shop_by_store_city", {"store", "city"}, {"sum_qty"},
                          {{Value("s1"), Value("north"), Value(3.0)},
                           {Value("s2"), Value("north"), Value(9.0)},
                           {Value("s3"), Value("south"), Value(9.0)}}));
  ExpectReadPath(ShopWithCells(),
                 "SELECT sum(amount) BY day WHERE year = '1996' AND "
                 "day = 'd1'",
                 Expected("shop_sel_by_day", {"day"}, {"sum_amount"},
                          {{Value("d1"), Value(50.0)}}));
}

TEST(ReadPathTest, AggregateOverADimensionColumn) {
  ExpectReadPath(ShopWithCells(), "SELECT count(product) BY category",
                 Expected("shop_by_category", {"category"},
                          {"count_all_product"},
                          {{Value("c1"), Value(int64_t(4))},
                           {Value("c2"), Value(int64_t(2))}}));
}

TEST(ReadPathTest, CubeOverALevel) {
  ExpectReadPath(ShopWithCells(), "SELECT sum(amount) BY CUBE(year)",
                 Expected("shop_cube", {"year"}, {"sum_amount"},
                          {{Value("1996"), Value(100.0)},
                           {Value("1997"), Value(110.0)},
                           {Value::All(), Value(210.0)}}));
}

TEST(ReadPathTest, LevelNamedOnlyInsideAnAggregateIsNotFound) {
  // Only BY and WHERE names roll up; an aggregate over a level is a
  // missing column, reported by the aggregation itself.
  ExpectReadPathError(ShopWithCells(), "SELECT sum(city)",
                      StatusCode::kNotFound, "no column named 'city'");
  ExpectReadPathError(ShopWithCells(), "SELECT sum(city) BY store",
                      StatusCode::kNotFound, "no column named 'city'");
  ExpectReadPathError(ShopWithCells(), "SELECT sum(amount) BY ghost",
                      StatusCode::kNotFound,
                      "no dimension, level or measure named 'ghost'");
}

TEST(ReadPathTest, LeafMissingFromTheHierarchyRollsUpToNull) {
  StatisticalObject obj = ShopWithCells();
  // Appended straight to the data: no hierarchy knows p9, s9 or d9.
  ASSERT_TRUE(obj.mutable_data()
                  .AppendRow({Value("p9"), Value("s9"), Value("d9"),
                              Value(int64_t(7)), Value(70.0)})
                  .ok());
  ExpectReadPath(obj, "SELECT sum(amount) BY category",
                 Expected("shop_by_category", {"category"}, {"sum_amount"},
                          {{Value::Null(), Value(70.0)},
                           {Value("c1"), Value(110.0)},
                           {Value("c2"), Value(100.0)}}));
}

TEST(ReadPathTest, NonStrictPathIsNotSummarizable) {
  const std::string message =
      "attribute 'use' reached through non-strict hierarchy 'by_use'";
  ExpectReadPathError(ShopWithCells(), "SELECT sum(amount) BY use",
                      StatusCode::kNotSummarizable, message);
  ExpectReadPathError(ShopWithCells(),
                      "SELECT sum(amount) BY city WHERE use = 'home'",
                      StatusCode::kNotSummarizable, message);
}

TEST(ReadPathTest, EmptyObject) {
  ExpectReadPath(Shop(), "SELECT sum(amount) BY city",
                 Expected("shop_by_city", {"city"}, {"sum_amount"}, {}));
  ExpectReadPath(Shop(), "SELECT sum(amount) BY month WHERE year = '1996'",
                 Expected("shop_sel_by_month", {"month"}, {"sum_amount"}, {}));
}

TEST(ReadPathTest, WhereLiteralTypes) {
  // Literals compare by Value order, as before the read path narrowed the
  // input: a string never equals a number, an integer equals its double.
  ExpectReadPath(ShopWithCells(), "SELECT sum(amount) BY city WHERE city = 1",
                 Expected("shop_sel_by_city", {"city"}, {"sum_amount"}, {}));
  ExpectReadPath(ShopWithCells(),
                 "SELECT sum(amount) BY store WHERE qty = '3'",
                 Expected("shop_sel_by_store", {"store"}, {"sum_amount"}, {}));
  ExpectReadPath(ShopWithCells(),
                 "SELECT sum(amount) BY store WHERE qty = 3.0",
                 Expected("shop_sel_by_store", {"store"}, {"sum_amount"},
                          {{Value("s2"), Value(30.0)}}));
}

}  // namespace
}  // namespace statcube
