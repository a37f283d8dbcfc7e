// The benchmark's correctness oracle. It never calls the query engine: it
// recomputes every answer with its own loops over the generator's flat
// table (RetailData.flat), using its own product -> category, store -> city
// and day -> month -> year maps, and compares the engine's table cell by
// cell. The generator's qty and amount are integers, so sums are exact and
// every comparison is an exact equality.

#ifndef PERFBENCH_ORACLE_H_
#define PERFBENCH_ORACLE_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "statcube/relational/table.h"

namespace perfbench {

/// One aggregate of a query: fn is sum, count, min, max or avg.
struct AggRef {
  std::string fn;
  std::string column;  ///< qty or amount
};

/// A benchmark query, kept structured so the oracle can evaluate it without
/// parsing the text the engine receives.
struct QuerySpec {
  std::string label;  ///< short stable name, e.g. "by_city"
  std::string cls;    ///< plain | level | where | cube (per-layer classes)
  std::vector<AggRef> aggs;
  std::vector<std::string> by;
  bool cube = false;
  std::vector<std::pair<std::string, std::string>> where;

  /// The query text sent to the engine.
  std::string Text() const;
};

/// Expected answer of one query.
class Expected {
 public:
  struct Acc {
    int64_t count = 0;
    int64_t sum = 0;
    int64_t min = 0;
    int64_t max = 0;
  };
  /// Group key (one string per BY column, kAllKey for a CUBE ALL) to one
  /// accumulator per aggregate.
  using Groups = std::map<std::vector<std::string>, std::vector<Acc>>;

  const Groups& groups() const { return groups_; }

 private:
  friend class Oracle;
  QuerySpec spec_;
  Groups groups_;
};

/// Evaluates QuerySpecs over the flat table.
class Oracle {
 public:
  /// Key used for a CUBE ALL cell.
  static const std::string kAllKey;

  /// Reads product, category, store, day, qty and amount from `flat`.
  explicit Oracle(const statcube::Table& flat);

  /// Computes the expected answer of `spec` over every cell.
  Expected Evaluate(const QuerySpec& spec) const;

  /// Compares an engine table with `expected`: exact group keys, count,
  /// sum, min and max, and avg == sum / count. `zero_padded` accepts the
  /// extra all-zero groups a MOLAP answer enumerates. Returns "" on a match,
  /// otherwise what differs.
  static std::string Compare(const Expected& expected,
                             const statcube::Table& got, bool zero_padded);

  /// BY CUBE property: every ALL cell equals the sum (count, min, max) of
  /// the cells one level finer. Returns "" when it holds.
  static std::string CheckCubeAllRows(const QuerySpec& spec,
                                      const statcube::Table& got);

 private:
  struct Rec {
    int32_t product, store, day;
    int64_t qty, amount;
  };
  int32_t Code(std::vector<std::string>& dict,
               std::map<std::string, int32_t>& index, const std::string& s);
  /// Attribute value of a record, through the oracle's own maps.
  const std::string& Attr(const Rec& r, const std::string& attr) const;
  void Accumulate(const QuerySpec& spec, const Rec& r,
                  Expected::Groups& groups) const;

  std::vector<std::string> products_, stores_, days_;
  std::map<std::string, int32_t> product_index_, store_index_, day_index_;
  std::vector<std::string> category_of_, city_of_, month_of_, year_of_;
  std::vector<Rec> recs_;
};

/// Exact equality of two tables: name, column names and types, row count
/// and every cell's type and bits. Returns "" when identical.
std::string DiffTables(const statcube::Table& a, const statcube::Table& b);

/// The cells of a table with names dropped and, when `drop_zero_rows`, the
/// rows whose aggregates are all zero removed — the form in which answers
/// of different engines must agree exactly.
std::vector<statcube::Row> CanonicalCells(const statcube::Table& t,
                                          size_t group_columns,
                                          bool drop_zero_rows);
/// Cell-by-cell exact equality of two CanonicalCells results.
bool SameCells(const std::vector<statcube::Row>& a,
               const std::vector<statcube::Row>& b);

}  // namespace perfbench

#endif  // PERFBENCH_ORACLE_H_
