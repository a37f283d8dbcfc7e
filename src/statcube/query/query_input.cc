#include "statcube/query/query_input.h"

#include <set>
#include <string>
#include <unordered_map>
#include <vector>

#include "statcube/obs/query_profile.h"
#include "statcube/obs/trace.h"

namespace statcube::query {

namespace {

// A referenced hierarchy level, derived from the leaf column of the
// dimension whose hierarchy owns it.
struct LevelColumn {
  std::string name;
  const ClassificationHierarchy* hier;
  size_t level;
  size_t leaf_idx;  // in the source schema
};

}  // namespace

Result<Table> BuildQueryInput(const StatisticalObject& obj,
                              const ParsedQuery& query) {
  std::set<std::string> referenced;
  for (const auto& b : query.by) referenced.insert(b);
  for (const auto& [attr, v] : query.where) referenced.insert(attr);

  const Table& src = obj.data();
  const Schema& src_schema = src.schema();
  obs::Span plan_span("plan");

  // Every referenced attribute that is a *hierarchy level* rather than a
  // dimension or column becomes a derived column (leaf value -> its ancestor
  // at that level), so grouping/filtering on it is the implied roll-up of
  // Figure 13 — without collapsing the leaf dimension, which may itself be
  // referenced.
  std::vector<LevelColumn> levels;
  for (const auto& attr : referenced) {
    if (obj.DimensionNamed(attr).ok()) continue;  // plain dimension
    if (src_schema.Contains(attr)) continue;      // measure or other column
    bool resolved = false;
    for (const auto& d : obj.dimensions()) {
      auto lv = d.LevelNamed(attr);
      if (!lv.ok() || lv->second == 0) continue;
      const ClassificationHierarchy* hier = lv->first;
      size_t level = lv->second;
      // A non-strict path would assign several ancestors to one cell;
      // refuse rather than silently double-count.
      for (size_t step = 0; step < level; ++step) {
        if (!hier->IsStrictAt(step))
          return Status::NotSummarizable(
              "attribute '" + attr + "' reached through non-strict "
              "hierarchy '" + hier->name() + "'");
      }
      STATCUBE_ASSIGN_OR_RETURN(size_t leaf_idx, src_schema.IndexOf(d.name()));
      levels.push_back({attr, hier, level, leaf_idx});
      resolved = true;
      break;
    }
    if (!resolved)
      return Status::NotFound("no dimension, level or measure named '" +
                              attr + "'");
  }

  // Projection: only the source columns BY, WHERE or an aggregate reads.
  std::vector<size_t> keep;
  Schema schema;
  for (size_t c = 0; c < src_schema.num_columns(); ++c) {
    const ColumnDef& col = src_schema.column(c);
    bool read = referenced.count(col.name) > 0;
    for (const AggSpec& a : query.aggs) read = read || a.column == col.name;
    if (!read) continue;
    keep.push_back(c);
    schema.AddColumn(col.name, col.type);
  }
  for (const LevelColumn& l : levels)
    schema.AddColumn(l.name, ValueType::kString);

  Table out(src.name(), schema);
  std::vector<Row>& rows = out.mutable_rows();
  rows.reserve(src.num_rows());
  for (const Row& r : src.rows()) {
    Row& row = rows.emplace_back();
    row.reserve(schema.num_columns());
    for (size_t c : keep) row.push_back(r[c]);
  }

  // Level columns: one Ancestors walk per distinct leaf, one memo lookup
  // per row.
  for (const LevelColumn& l : levels) {
    obs::Span rollup_span("rollup:" + l.name);
    std::unordered_map<Value, Value> memo;
    for (size_t i = 0; i < rows.size(); ++i) {
      const Value& leaf = src.at(i, l.leaf_idx);
      auto it = memo.find(leaf);
      if (it == memo.end()) {
        STATCUBE_ASSIGN_OR_RETURN(std::vector<Value> anc,
                                  l.hier->Ancestors(0, leaf, l.level));
        it = memo.emplace(leaf, anc.empty() ? Value::Null() : anc.front())
                 .first;
      }
      rows[i].push_back(it->second);
    }
    obs::RecordOperator("rollup", src.num_rows(), out.num_rows());
  }
  return out;
}

}  // namespace statcube::query
