// A small textual query language over statistical objects — the paper's
// §5.1 point that explicit statistical-object semantics "permit the use of
// very concise query languages". Grammar (case-insensitive keywords):
//
//   query   := [EXPLAIN PROFILE] SELECT aggs [BY dims] [WHERE conds]
//   aggs    := agg (',' agg)*
//   agg     := FN '(' ident ')'          FN in {SUM, COUNT, AVG, MIN, MAX}
//   dims    := ident (',' ident)*
//   conds   := cond (AND cond)*
//   cond    := ident '=' literal
//   literal := 'single-quoted string' | number
//
// Example:  SELECT sum(amount), avg(qty) BY city WHERE product = 'prod1'
//
// Identifiers name dimensions, classification levels, or measures of the
// target object. A dimension-level identifier (e.g. "city" when the object
// stores stores) triggers the automatic-aggregation machinery: the object
// is rolled up along the hierarchy owning that level before grouping — the
// Figure 13 inference, exposed through text.

#ifndef STATCUBE_QUERY_PARSER_H_
#define STATCUBE_QUERY_PARSER_H_

#include <string>
#include <vector>

#include "statcube/cache/mode.h"
#include "statcube/common/cancellation.h"
#include "statcube/common/status.h"
#include "statcube/core/statistical_object.h"
#include "statcube/obs/query_profile.h"
#include "statcube/olap/backend.h"
#include "statcube/relational/aggregate.h"

namespace statcube {

/// A parsed query, independent of any object.
struct ParsedQuery {
  std::vector<AggSpec> aggs;
  std::vector<std::string> by;
  /// BY CUBE(...) — compute all 2^n groupings with ALL rows ([GB+96]'s SQL
  /// extension, paper §5.4).
  bool cube = false;
  std::vector<std::pair<std::string, Value>> where;
  /// EXPLAIN PROFILE prefix: the caller should execute under a ProfileScope
  /// and show the profile alongside the result (olap_cli does).
  bool explain_profile = false;
};

/// Parses the query text (syntax only).
Result<ParsedQuery> ParseQuery(const std::string& text);

/// Executes a parsed query against a statistical object: resolves
/// identifiers (dimension, hierarchy level, or measure), rolls the object up
/// to any referenced hierarchy levels, applies WHERE equalities, groups and
/// aggregates. Returns the result table (group columns then aggregates).
/// The filter and the grouping/CUBE run through the exec::Parallel* kernels
/// with `threads` workers (0 = exec::DefaultThreads()); one worker runs the
/// serial relational operators. The table is bit-identical at every thread
/// count (exec/parallel_kernels.h). `stop` (optional) is the query's stop
/// context: the call returns kCancelled / kDeadlineExceeded instead of a
/// partial table once it fires.
Result<Table> ExecuteQuery(const StatisticalObject& obj,
                           const ParsedQuery& query, int threads = 1,
                           const CancelContext* stop = nullptr);

/// Parse + execute.
Result<Table> Query(const StatisticalObject& obj, const std::string& text);

/// ExecuteQuery under its earlier name, kept only because the benchmark
/// harness (perfbench/src/layers.cc) still calls it.
inline Result<Table> ExecuteQueryParallel(const StatisticalObject& obj,
                                          const ParsedQuery& query,
                                          int threads) {
  return ExecuteQuery(obj, query, threads);
}

/// Whether a cube backend can answer `query`: OK for exactly one SUM
/// aggregate, BY plain dimensions (no CUBE) and WHERE equalities on
/// dimensions; otherwise Unimplemented naming the first obstacle. Depends
/// only on the object and the query, so callers check it before paying for
/// a backend build.
Status BackendExpressible(const StatisticalObject& obj,
                          const ParsedQuery& query);

/// Executes a parsed query through a CubeBackend (§6.6: the same textual
/// query served by either physical organization). Only backend-expressible
/// queries are accepted (BackendExpressible; the SUM must be over the
/// backend's measure); anything else returns Unimplemented so callers can
/// fall back to ExecuteQuery. `threads` is the backend's worker cap
/// (CubeQuery::threads).
Result<Table> ExecuteQueryOnBackend(const StatisticalObject& obj,
                                    const ParsedQuery& query,
                                    CubeBackend& backend, int threads = 1);

/// Which execution engine QueryProfiled routes through.
enum class QueryEngine { kRelational, kMolap, kRolap, kRolapBitmap };

/// Name as accepted by EngineFromName / printed in profiles.
const char* QueryEngineName(QueryEngine engine);

/// Parses "relational" / "molap" / "rolap" / "rolap+bitmap".
Result<QueryEngine> EngineFromName(const std::string& name);

struct QueryOptions {
  QueryEngine engine = QueryEngine::kRelational;
  /// Worker cap for scans and groupings: 1 (default) runs the serial
  /// operators, N > 1 the parallel kernels with N workers, 0 means
  /// exec::DefaultThreads() (STATCUBE_THREADS or the hardware concurrency).
  /// Any value returns bit-identical tables.
  int threads = 1;
  /// Rows shown by the render phase of QueryProfiled.
  size_t render_limit = 25;
  /// Retain the completed profile in obs::FlightRecorder::Global() (and
  /// emit a slow_query log line past its threshold). Off for callers that
  /// must not perturb the recorder (A/B benchmarks, recorder tests).
  bool record = true;
  /// Result-cache mode (cache/result_cache.h): kOff never consults the
  /// cache, kOn reuses exact-key matches, kDerive additionally answers by
  /// rolling up a cached superset grouping through the lattice. Any mode
  /// returns bit-identical tables; the profile's `cache` field says which
  /// path answered ("hit" / "derived" / "miss").
  cache::Mode cache = cache::Mode::kOff;
  /// Relative execution budget in microseconds, measured from query start
  /// (0 = none). Past it the query stops at the next morsel / row-batch
  /// boundary and QueryProfiled returns kDeadlineExceeded; the profile is
  /// still recorded, with outcome "deadline_exceeded".
  uint64_t deadline_us = 0;
  /// Optional external cancellation flag. QueryProfiled copies the token
  /// (copies share the flag), so the caller — or the /queryz control plane,
  /// which registers its own copy — can cancel mid-flight from any thread;
  /// the query returns kCancelled with outcome "cancelled".
  const CancellationToken* cancel = nullptr;
  /// Tenant the query runs on behalf of (set by the serve/ front door;
  /// empty for untenanted callers like the CLI). Stamped into the profile,
  /// the /queryz registry entry, and the flight-recorder record so every
  /// observability surface can attribute the work.
  std::string tenant;
};

/// A query result with its profile (and the table already rendered, so the
/// render phase is part of the measured span tree).
struct ProfiledQuery {
  Table table;
  std::string rendered;
  obs::QueryProfile profile;
  /// Flight-recorder id of the retained profile (0 if recording was off).
  uint64_t profile_id = 0;
};

/// Parse + execute + render with full observability: enables obs for the
/// call, collects the span tree (parse → plan → rollup → execute → render),
/// per-operator row counts, and block I/O. Cube-engine options build the
/// backend per call (visible as a backend.build span) for a
/// backend-expressible query; any other query goes to the relational path
/// without a build — noted in profile.backend.
Result<ProfiledQuery> QueryProfiled(const StatisticalObject& obj,
                                    const std::string& text,
                                    const QueryOptions& options = {});

}  // namespace statcube

#endif  // STATCUBE_QUERY_PARSER_H_
