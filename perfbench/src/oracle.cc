#include "oracle.h"

#include <algorithm>
#include <cstring>
#include <set>
#include <stdexcept>

namespace perfbench {

using statcube::Row;
using statcube::Table;
using statcube::Value;
using statcube::ValueType;

const std::string Oracle::kAllKey = "\x01" "ALL";

std::string QuerySpec::Text() const {
  std::string t = "SELECT ";
  for (size_t i = 0; i < aggs.size(); ++i) {
    if (i) t += ", ";
    t += aggs[i].fn + "(" + aggs[i].column + ")";
  }
  if (!by.empty()) {
    t += cube ? " BY CUBE(" : " BY ";
    for (size_t i = 0; i < by.size(); ++i) t += (i ? ", " : "") + by[i];
    if (cube) t += ")";
  }
  for (size_t i = 0; i < where.size(); ++i)
    t += (i ? " AND " : " WHERE ") + where[i].first + " = '" +
         where[i].second + "'";
  return t;
}

namespace {

std::string Prefix(const std::string& s, char sep, int nth) {
  size_t pos = 0;
  for (int i = 0; i < nth; ++i) {
    pos = s.find(sep, pos);
    if (pos == std::string::npos) return s;
    if (i + 1 < nth) ++pos;
  }
  return s.substr(0, pos);
}

size_t Col(const Table& t, const std::string& name) {
  auto idx = t.schema().IndexOf(name);
  if (!idx.ok()) throw std::runtime_error("flat table lacks " + name);
  return *idx;
}

int64_t IntegerOf(const Value& v) {
  double d = v.AsDouble();
  if (d != double(int64_t(d)))
    throw std::runtime_error("non-integer measure " + v.ToString());
  return int64_t(d);
}

// Exact equality: same type and, for doubles, the same bits.
bool SameCell(const Value& a, const Value& b) {
  if (a.type() != b.type()) return false;
  switch (a.type()) {
    case ValueType::kNull:
    case ValueType::kAll:
      return true;
    case ValueType::kInt64:
      return a.AsInt64() == b.AsInt64();
    case ValueType::kDouble: {
      double x = a.AsDouble(), y = b.AsDouble();
      return std::memcmp(&x, &y, sizeof(double)) == 0;
    }
    case ValueType::kString:
      return a.AsString() == b.AsString();
  }
  return false;
}

std::string KeyText(const std::vector<std::string>& key) {
  std::string s = "(";
  for (size_t i = 0; i < key.size(); ++i)
    s += (i ? ", " : "") + (key[i] == Oracle::kAllKey ? "ALL" : key[i]);
  return s + ")";
}

double ExpectedValue(const AggRef& agg, const Expected::Acc& a) {
  if (agg.fn == "sum") return double(a.sum);
  if (agg.fn == "count") return double(a.count);
  if (agg.fn == "min") return double(a.min);
  if (agg.fn == "max") return double(a.max);
  return double(a.sum) / double(a.count);  // avg
}

// Group-key strings of one result row; false if a key cell is not a string
// or ALL.
bool RowKey(const Row& row, size_t n, std::vector<std::string>* key) {
  key->clear();
  for (size_t i = 0; i < n; ++i) {
    if (row[i].is_all()) {
      key->push_back(Oracle::kAllKey);
    } else if (row[i].type() == ValueType::kString) {
      key->push_back(row[i].AsString());
    } else {
      return false;
    }
  }
  return true;
}

}  // namespace

int32_t Oracle::Code(std::vector<std::string>& dict,
                     std::map<std::string, int32_t>& index,
                     const std::string& s) {
  auto [it, fresh] = index.emplace(s, int32_t(dict.size()));
  if (fresh) dict.push_back(s);
  return it->second;
}

Oracle::Oracle(const Table& flat) {
  const size_t cp = Col(flat, "product"), cc = Col(flat, "category"),
               cs = Col(flat, "store"), cd = Col(flat, "day"),
               cq = Col(flat, "qty"), ca = Col(flat, "amount");
  std::map<std::string, std::string> category;
  recs_.reserve(flat.num_rows());
  for (const Row& r : flat.rows()) {
    const std::string& p = r[cp].AsString();
    auto [it, fresh] = category.emplace(p, r[cc].AsString());
    if (!fresh && it->second != r[cc].AsString())
      throw std::runtime_error("product " + p + " has two categories");
    recs_.push_back({Code(products_, product_index_, p),
                     Code(stores_, store_index_, r[cs].AsString()),
                     Code(days_, day_index_, r[cd].AsString()),
                     IntegerOf(r[cq]), IntegerOf(r[ca])});
  }
  for (const std::string& p : products_) category_of_.push_back(category[p]);
  // "city3/s#1" -> "city3"; "1996-4-17" -> "1996-4" -> "1996".
  for (const std::string& s : stores_) city_of_.push_back(Prefix(s, '/', 1));
  for (const std::string& d : days_) {
    month_of_.push_back(Prefix(d, '-', 2));
    year_of_.push_back(Prefix(d, '-', 1));
  }
}

const std::string& Oracle::Attr(const Rec& r, const std::string& attr) const {
  if (attr == "product") return products_[size_t(r.product)];
  if (attr == "category") return category_of_[size_t(r.product)];
  if (attr == "store") return stores_[size_t(r.store)];
  if (attr == "city") return city_of_[size_t(r.store)];
  if (attr == "day") return days_[size_t(r.day)];
  if (attr == "month") return month_of_[size_t(r.day)];
  if (attr == "year") return year_of_[size_t(r.day)];
  throw std::runtime_error("oracle has no attribute " + attr);
}

void Oracle::Accumulate(const QuerySpec& spec, const Rec& r,
                        Expected::Groups& groups) const {
  for (const auto& [attr, lit] : spec.where)
    if (Attr(r, attr) != lit) return;
  const size_t n = spec.by.size();
  const uint32_t masks = spec.cube ? (1u << n) : 1u;
  std::vector<std::string> key(n);
  for (uint32_t mask = 0; mask < masks; ++mask) {
    for (size_t i = 0; i < n; ++i)
      key[i] = (mask >> i) & 1u ? kAllKey : Attr(r, spec.by[i]);
    auto it =
        groups.emplace(key, std::vector<Expected::Acc>(spec.aggs.size()))
            .first;
    for (size_t a = 0; a < spec.aggs.size(); ++a) {
      int64_t v = spec.aggs[a].column == "qty" ? r.qty : r.amount;
      Expected::Acc& acc = it->second[a];
      if (acc.count == 0) {
        acc.min = acc.max = v;
      } else {
        acc.min = std::min(acc.min, v);
        acc.max = std::max(acc.max, v);
      }
      acc.count += 1;
      acc.sum += v;
    }
  }
}

Expected Oracle::Evaluate(const QuerySpec& spec) const {
  Expected e;
  e.spec_ = spec;
  for (const Rec& r : recs_) Accumulate(spec, r, e.groups_);
  return e;
}

std::string Oracle::Compare(const Expected& expected, const Table& got,
                            bool zero_padded) {
  const QuerySpec& spec = expected.spec_;
  const size_t nby = spec.by.size(), nagg = spec.aggs.size();
  if (got.num_columns() != nby + nagg)
    return "expected " + std::to_string(nby + nagg) + " columns, got " +
           std::to_string(got.num_columns());
  std::set<std::vector<std::string>> seen;
  std::vector<std::string> key;
  for (const Row& row : got.rows()) {
    if (!RowKey(row, nby, &key))
      return "group cell is neither a string nor ALL";
    for (size_t a = 0; a < nagg; ++a)
      if (!row[nby + a].is_numeric())
        return "aggregate cell is not numeric in " + KeyText(key);
    auto it = expected.groups().find(key);
    if (it == expected.groups().end()) {
      bool all_zero = true;
      for (size_t a = 0; a < nagg; ++a)
        all_zero = all_zero && row[nby + a].AsDouble() == 0.0;
      if (zero_padded && all_zero) continue;
      return "unexpected group " + KeyText(key);
    }
    if (!seen.insert(key).second) return "duplicate group " + KeyText(key);
    for (size_t a = 0; a < nagg; ++a) {
      double want = ExpectedValue(spec.aggs[a], it->second[a]);
      double have = row[nby + a].AsDouble();
      if (want != have)
        return spec.aggs[a].fn + "(" + spec.aggs[a].column + ") of " +
               KeyText(key) + ": expected " + Value(want).ToString() +
               ", got " + row[nby + a].ToString();
    }
  }
  if (seen.size() != expected.groups().size())
    return "expected " + std::to_string(expected.groups().size()) +
           " groups, got " + std::to_string(seen.size());
  return "";
}

std::string Oracle::CheckCubeAllRows(const QuerySpec& spec, const Table& got) {
  const size_t nby = spec.by.size(), nagg = spec.aggs.size();
  // For each row and each non-ALL position i, fold the row into its parent
  // (the same key with position i set to ALL).
  std::map<std::pair<size_t, std::vector<std::string>>, std::vector<double>>
      folded;
  std::vector<std::string> key;
  for (const Row& row : got.rows()) {
    if (!RowKey(row, nby, &key)) return "group cell is neither string nor ALL";
    for (size_t i = 0; i < nby; ++i) {
      if (key[i] == kAllKey) continue;
      std::vector<std::string> parent = key;
      parent[i] = kAllKey;
      auto [it, fresh] = folded.emplace(std::make_pair(i, parent),
                                        std::vector<double>(nagg));
      for (size_t a = 0; a < nagg; ++a) {
        double v = row[nby + a].AsDouble();
        double& acc = it->second[a];
        const std::string& fn = spec.aggs[a].fn;
        if (fn == "min") acc = fresh ? v : std::min(acc, v);
        else if (fn == "max") acc = fresh ? v : std::max(acc, v);
        else acc += v;  // sum and count add up; avg is skipped below
      }
    }
  }
  for (const Row& row : got.rows()) {
    RowKey(row, nby, &key);
    for (size_t i = 0; i < nby; ++i) {
      if (key[i] != kAllKey) continue;
      auto it = folded.find({i, key});
      if (it == folded.end()) return "ALL row " + KeyText(key) + " has no children";
      for (size_t a = 0; a < nagg; ++a) {
        if (spec.aggs[a].fn == "avg") continue;
        if (it->second[a] != row[nby + a].AsDouble())
          return "ALL row " + KeyText(key) + " differs from its children";
      }
    }
  }
  return "";
}

std::string DiffTables(const Table& a, const Table& b) {
  if (a.name() != b.name()) return "table name " + a.name() + " vs " + b.name();
  if (a.num_columns() != b.num_columns()) return "column count differs";
  for (size_t c = 0; c < a.num_columns(); ++c) {
    const auto& x = a.schema().column(c);
    const auto& y = b.schema().column(c);
    if (x.name != y.name || x.type != y.type)
      return "column " + x.name + " vs " + y.name;
  }
  if (a.num_rows() != b.num_rows())
    return std::to_string(a.num_rows()) + " vs " +
           std::to_string(b.num_rows()) + " rows";
  for (size_t r = 0; r < a.num_rows(); ++r)
    for (size_t c = 0; c < a.num_columns(); ++c)
      if (!SameCell(a.at(r, c), b.at(r, c)))
        return "cell (" + std::to_string(r) + ", " + std::to_string(c) +
               "): " + a.at(r, c).ToString() + " vs " + b.at(r, c).ToString();
  return "";
}

std::vector<Row> CanonicalCells(const Table& t, size_t group_columns,
                                bool drop_zero_rows) {
  std::vector<Row> rows;
  for (const Row& r : t.rows()) {
    bool zero = true;
    for (size_t c = group_columns; c < r.size(); ++c)
      zero = zero && r[c].is_numeric() && r[c].AsDouble() == 0.0;
    if (drop_zero_rows && zero) continue;
    rows.push_back(r);
  }
  std::sort(rows.begin(), rows.end(), [](const Row& x, const Row& y) {
    return std::lexicographical_compare(
        x.begin(), x.end(), y.begin(), y.end(),
        [](const Value& u, const Value& v) { return Value::Compare(u, v) < 0; });
  });
  return rows;
}

bool SameCells(const std::vector<Row>& a, const std::vector<Row>& b) {
  if (a.size() != b.size()) return false;
  for (size_t r = 0; r < a.size(); ++r) {
    if (a[r].size() != b[r].size()) return false;
    for (size_t c = 0; c < a[r].size(); ++c)
      if (!SameCell(a[r][c], b[r][c])) return false;
  }
  return true;
}

}  // namespace perfbench
