// Profiled / engine-routed query execution (EXPLAIN PROFILE and the
// QueryEngine selector). Lives in its own translation unit so the hot
// ParseQuery/ExecuteQuery path in parser.cc keeps its compact codegen:
// pulling the backend constructors into that TU measurably changed GCC's
// inlining choices for the parser (~20% on BM_ParseOnly).

#include <algorithm>
#include <cctype>
#include <chrono>

#include "statcube/cache/derive.h"
#include "statcube/query/cache_key.h"
#include "statcube/cache/result_cache.h"
#include "statcube/common/cancellation.h"
#include "statcube/obs/flight_recorder.h"
#include "statcube/obs/query_registry.h"
#include "statcube/query/parser.h"

namespace statcube {

namespace {

std::string Lower(std::string s) {
  std::transform(s.begin(), s.end(), s.begin(),
                 [](unsigned char c) { return char(std::tolower(c)); });
  return s;
}

}  // namespace

Status BackendExpressible(const StatisticalObject& obj,
                          const ParsedQuery& query) {
  if (query.cube)
    return Status::Unimplemented("BY CUBE is not backend-expressible");
  if (query.aggs.size() != 1 || query.aggs[0].fn != AggFn::kSum)
    return Status::Unimplemented(
        "cube backends answer exactly one SUM aggregate");
  for (const auto& b : query.by)
    if (!obj.DimensionNamed(b).ok())
      return Status::Unimplemented("BY '" + b + "' is not a plain dimension");
  for (const auto& [attr, v] : query.where)
    if (!obj.DimensionNamed(attr).ok())
      return Status::Unimplemented("WHERE '" + attr +
                                   "' is not a plain dimension");
  return Status::OK();
}

Result<Table> ExecuteQueryOnBackend(const StatisticalObject& obj,
                                    const ParsedQuery& query,
                                    CubeBackend& backend, int threads,
                                    bool vectorized) {
  STATCUBE_RETURN_NOT_OK(BackendExpressible(obj, query));
  CubeQuery cq;
  cq.threads = threads;
  cq.vectorized = vectorized;
  cq.group_dims = query.by;
  for (const auto& [attr, v] : query.where) cq.filters.push_back({attr, v});
  obs::Span span("execute");
  return backend.GroupBySum(cq);
}

const char* QueryEngineName(QueryEngine engine) {
  switch (engine) {
    case QueryEngine::kRelational: return "relational";
    case QueryEngine::kMolap: return "molap";
    case QueryEngine::kRolap: return "rolap";
    case QueryEngine::kRolapBitmap: return "rolap+bitmap";
  }
  return "?";
}

Result<QueryEngine> EngineFromName(const std::string& name) {
  std::string n = Lower(name);
  if (n == "relational") return QueryEngine::kRelational;
  if (n == "molap") return QueryEngine::kMolap;
  if (n == "rolap") return QueryEngine::kRolap;
  if (n == "rolap+bitmap" || n == "bitmap") return QueryEngine::kRolapBitmap;
  return Status::InvalidArgument("unknown engine '" + name +
                                 "' (relational|molap|rolap|rolap+bitmap)");
}

Result<ProfiledQuery> QueryProfiled(const StatisticalObject& obj,
                                    const std::string& text,
                                    const QueryOptions& options) {
  obs::EnabledScope enabled(true);
  obs::ProfileScope scope;

  ParsedQuery q;
  STATCUBE_ASSIGN_OR_RETURN(q, ParseQuery(text));

  // Stop configuration: a token copy shared with the caller (if any) plus
  // the absolute deadline. The CancelScope hands it to serial row loops
  // thread-locally; parallel paths get it explicitly via ExecOptions.
  CancellationToken token =
      options.cancel != nullptr ? *options.cancel : CancellationToken();
  CancelContext cctx;
  cctx.token = &token;
  cctx.deadline_us =
      options.deadline_us != 0 ? SteadyNowUs() + options.deadline_us : 0;
  CancelScope cancel_scope(&cctx);

  // Enroll in the live /queryz registry for the duration of execution. The
  // scope is declared after ProfileScope on purpose: it unregisters first,
  // so the registry's borrowed accumulator pointer never dangles.
  obs::ActiveQueryInfo active_info;
  active_info.query = text;
  active_info.engine = QueryEngineName(options.engine);
  active_info.cache_mode = cache::ModeName(options.cache);
  active_info.tenant = options.tenant;
  active_info.threads = options.threads;
  active_info.deadline_us = cctx.deadline_us;
  active_info.token = token;
  active_info.resources = &scope.resources();
  obs::ActiveQueryScope active(std::move(active_info));

  // A query stopped by cancellation or deadline still produces a profile —
  // with outcome "cancelled" / "deadline_exceeded" — so /profiles and the
  // slow-query table tell the whole story, but it is never offered to the
  // result cache (partial work must not masquerade as an answer).
  auto fail = [&](const Status& st) -> Status {
    obs::QueryProfile p = scope.Take();
    p.outcome = st.code() == StatusCode::kCancelled ? "cancelled"
                                                    : "deadline_exceeded";
    p.tenant = options.tenant;
    if (p.backend.empty()) p.backend = "relational";
    if (options.record) obs::FlightRecorder::Global().Record(p, text);
    return st;
  };
  auto is_stop = [](const Status& st) {
    return st.code() == StatusCode::kCancelled ||
           st.code() == StatusCode::kDeadlineExceeded;
  };
  // Admission check: a pre-cancelled token or an already-expired deadline
  // stops the query before it touches any data.
  if (StopReason r = cctx.Check(); r != StopReason::kNone)
    return fail(StopStatus(r, "admission"));

  Table out;
  bool executed = false;

  // Result-cache route: an exact entry is returned byte-for-byte; under
  // Mode::kDerive a cached superset grouping is rolled up instead of
  // touching base data. Either way the backends below are skipped entirely
  // (profile backend "cache"). Key building failures — e.g. a query with no
  // aggregates, which cannot parse anyway — just disable caching.
  cache::ResultCache& rc = cache::ResultCache::Global();
  Result<cache::QueryKey> key = Status::Unimplemented("cache off");
  if (options.cache != cache::Mode::kOff) {
    obs::Span lookup_span("cache.lookup");
    key = query::BuildQueryKey(obj, q, options.engine);
    if (key.ok()) {
      if (std::optional<Table> hit = rc.Lookup(*key)) {
        out = *std::move(hit);
        executed = true;
        scope.profile().cache = "hit";
      } else if (options.cache == cache::Mode::kDerive && key->derivable) {
        if (std::optional<cache::DerivedSource> src =
                rc.FindDerivationSource(*key)) {
          obs::Span derive_span("cache.derive");
          const auto derive_start = std::chrono::steady_clock::now();
          Result<Table> derived = cache::RollupDerived(
              *src, *key, options.threads, options.vectorized);
          if (derived.ok()) {
            out = *std::move(derived);
            executed = true;
            scope.profile().cache = "derived";
            rc.NoteDerivedHit();
            // Offer the derived table as an exact entry for next time;
            // admission weighs the (cheap) re-derivation cost, so tiny
            // roll-ups stay derive-on-demand.
            uint64_t derive_us =
                uint64_t(std::chrono::duration_cast<std::chrono::microseconds>(
                             std::chrono::steady_clock::now() - derive_start)
                             .count());
            // The source was shape-matched, so the derived table has the
            // request's predicted shape.
            rc.Insert(*key, out, key->backend_shaped, derive_us);
          }
        }
      }
      if (!executed) scope.profile().cache = "miss";
    }
  }
  const bool from_cache = executed;
  if (from_cache) scope.profile().backend = "cache";
  const auto exec_start = std::chrono::steady_clock::now();

  // Cube-engine route: when the query is backend-expressible, build the
  // backend for the query's measure (its cost is part of the profile, under
  // its own span) and execute there; otherwise fall back to the relational
  // executor without building — the profile's backend field says which path
  // answered.
  bool backend_answered = false;
  if (!executed && options.engine != QueryEngine::kRelational &&
      BackendExpressible(obj, q).ok()) {
    Result<std::unique_ptr<CubeBackend>> backend =
        Status::Internal("unreachable");
    {
      obs::Span build_span("backend.build");
      const std::string& measure =
          q.aggs.empty() ? std::string() : q.aggs[0].column;
      switch (options.engine) {
        case QueryEngine::kMolap:
          backend = MakeMolapBackend(obj, measure);
          break;
        case QueryEngine::kRolap:
          backend = MakeRolapBackend(obj, measure);
          break;
        case QueryEngine::kRolapBitmap:
          backend = MakeRolapBackend(obj, measure,
                                     {.build_bitmap_indexes = true});
          break;
        case QueryEngine::kRelational:
          break;
      }
    }
    if (backend.ok()) {
      Result<Table> res = ExecuteQueryOnBackend(obj, q, **backend,
                                                options.threads,
                                                options.vectorized);
      if (res.ok()) {
        out = std::move(res).value();
        executed = true;
        backend_answered = true;
      } else if (is_stop(res.status())) {
        return fail(res.status());
      } else if (res.status().code() != StatusCode::kUnimplemented) {
        return res.status();
      }
    }
    // Backend build failures (e.g. the aggregate column is not a measure)
    // also fall through to the relational executor, which reports the
    // precise error if the query is genuinely wrong.
  }
  if (!executed) {
    Result<Table> res = Status::Internal("unreachable");
    {
      obs::Span exec_span("execute");
      res = options.threads != 1
                ? ExecuteQueryParallel(obj, q, options.threads, &cctx,
                                       options.vectorized)
                : ExecuteQuery(obj, q);
    }
    if (!res.ok()) {
      if (is_stop(res.status())) return fail(res.status());
      return res.status();
    }
    out = std::move(res).value();
  }

  // Post-execution stop check, before the cache is offered anything: an
  // engine that cannot stop mid-flight (the cube backends check nothing
  // between blocks) still reports the stop here, so a cancelled or expired
  // query is *never* admitted to the result cache — and the /queryz cancel
  // smoke behaves identically across engines.
  if (StopReason r = cctx.Check(); r != StopReason::kNone)
    return fail(StopStatus(r, "post-execution"));

  // Offer a freshly computed result back to the cache; admission compares
  // the measured execution cost (backend build included — that is what a
  // recomputation would pay) against the cost floor.
  if (!from_cache && key.ok()) {
    obs::Span insert_span("cache.insert");
    uint64_t exec_us = uint64_t(std::chrono::duration_cast<
                                    std::chrono::microseconds>(
                                    std::chrono::steady_clock::now() -
                                    exec_start)
                                    .count());
    rc.Insert(*key, out, backend_answered, exec_us);
  }

  ProfiledQuery pq;
  {
    obs::Span render_span("render");
    pq.rendered = out.ToString(options.render_limit);
  }
  pq.table = std::move(out);
  pq.profile = scope.Take();
  pq.profile.result_rows = pq.table.num_rows();
  pq.profile.outcome = "ok";
  pq.profile.tenant = options.tenant;
  if (pq.profile.backend.empty()) pq.profile.backend = "relational";
  // Retain the completed profile in the flight recorder so /profiles (and
  // post-hoc debugging) can see it; queries over the slow threshold emit
  // one structured slow_query log line from inside Record.
  if (options.record)
    pq.profile_id = obs::FlightRecorder::Global().Record(pq.profile, text);
  return pq;
}

}  // namespace statcube
