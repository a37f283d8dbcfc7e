/// \file
/// \brief The relational executors' shared input builder: the one read path
/// from a statistical object to the table that filter and grouping scan.
///
/// Summary queries read only the category and summary attributes they name
/// (the transposed-file argument of the paper's §6.1), and a roll-up to a
/// classification level is a per-member mapping, not per-row work (§5.1-5.3,
/// Figure 13). The builder therefore emits a narrow table: the source rows
/// in source order, restricted to the columns the query reads, plus one
/// derived column per referenced hierarchy level, filled through a
/// per-query leaf -> ancestor memo.

#ifndef STATCUBE_QUERY_QUERY_INPUT_H_
#define STATCUBE_QUERY_QUERY_INPUT_H_

#include "statcube/common/status.h"
#include "statcube/core/statistical_object.h"
#include "statcube/query/parser.h"
#include "statcube/relational/table.h"

namespace statcube::query {

/// Builds the input table of ExecuteQuery.
///
/// BY and WHERE identifiers resolve (in sorted order) to a dimension, a
/// column of the object's data, or a hierarchy level above some dimension's
/// leaf; anything else is NotFound, and a level reached through a
/// non-strict step is NotSummarizable. The result has one row per source
/// row, in source order, under the source table's name. Its columns are the
/// source columns named by BY, WHERE or an aggregate (declared types kept,
/// source order), then one kString column per referenced level holding the
/// leaf's ancestor at that level (NULL for a leaf the hierarchy lacks).
/// Names that match no source column are left out, so the downstream
/// operators report them exactly as they would against the full table.
Result<Table> BuildQueryInput(const StatisticalObject& obj,
                              const ParsedQuery& query);

}  // namespace statcube::query

#endif  // STATCUBE_QUERY_QUERY_INPUT_H_
