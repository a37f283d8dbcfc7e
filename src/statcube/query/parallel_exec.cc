// ExecuteQueryParallel: the relational executor routed through the
// morsel-parallel kernels (statcube/exec). Mirrors ExecuteQuery phase by
// phase — both read through query::BuildQueryInput, which stays serial (one
// narrow pass plus per-member roll-up lookups), while the WHERE filter and
// the grouping/CUBE run parallel. Lives in its own translation unit for the
// same codegen reason as profiled.cc: parser.cc's hot parse path must not
// grow.

#include "statcube/exec/parallel_kernels.h"
#include "statcube/query/parser.h"
#include "statcube/query/query_input.h"
#include "statcube/relational/expression.h"

namespace statcube {

Result<Table> ExecuteQueryParallel(const StatisticalObject& obj,
                                   const ParsedQuery& query, int threads,
                                   const CancelContext* stop,
                                   bool vectorized) {
  exec::ExecOptions exec_options;
  exec_options.threads = threads;
  exec_options.stop = stop;
  exec_options.vectorized = vectorized;

  STATCUBE_ASSIGN_OR_RETURN(Table data, query::BuildQueryInput(obj, query));
  if (!query.where.empty()) {
    obs::Span filter_span("filter");
    std::vector<RowPredicate> preds;
    for (const auto& [attr, v] : query.where) {
      STATCUBE_ASSIGN_OR_RETURN(RowPredicate p,
                                expr::ColumnEq(data.schema(), attr, v));
      preds.push_back(std::move(p));
    }
    data = exec::ParallelSelect(data, expr::And(std::move(preds)),
                                exec_options);
    // ParallelSelect returns a bare Table, so a stop that fired during the
    // filter surfaces here (monotonic: once fired, Check keeps reporting it).
    if (stop != nullptr)
      if (StopReason r = stop->Check(); r != StopReason::kNone)
        return StopStatus(r, "filter");
  }

  std::vector<AggSpec> aggs = query.aggs;
  for (auto& a : aggs)
    if (a.output_name.empty()) a.output_name = a.EffectiveName();
  obs::Span agg_span("aggregate");
  if (query.cube) return exec::ParallelCubeBy(data, query.by, aggs,
                                              exec_options);
  return exec::ParallelGroupBy(data, query.by, aggs, exec_options);
}

}  // namespace statcube
