#include "statcube/serve/front_door.h"

#include <algorithm>
#include <sstream>

#include "statcube/obs/json.h"
#include "statcube/obs/log.h"
#include "statcube/obs/metrics.h"
#include "statcube/serve/json_value.h"

namespace statcube::serve {

namespace {

obs::HttpResponse JsonError(int status, const std::string& message) {
  obs::HttpResponse resp;
  resp.status = status;
  resp.content_type = "application/json";
  resp.body = "{\"error\":" + obs::JsonStr(message) + "}\n";
  return resp;
}

// HTTP status for a query that was admitted but failed to execute. The
// query's own mistakes are 4xx; infrastructure limits map to their
// dedicated codes so load generators can tell the classes apart.
int StatusToHttp(const Status& st) {
  switch (st.code()) {
    case StatusCode::kInvalidArgument:
    case StatusCode::kNotFound:
    case StatusCode::kOutOfRange:
    case StatusCode::kNotSummarizable:
    case StatusCode::kUnimplemented: return 400;
    case StatusCode::kPrivacyRefused: return 403;
    case StatusCode::kCancelled: return 499;
    case StatusCode::kDeadlineExceeded: return 504;
    default: return 500;
  }
}

bool ValidTenantName(const std::string& name) {
  if (name.empty() || name.size() > 64) return false;
  for (char c : name) {
    bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
              (c >= '0' && c <= '9') || c == '_' || c == '.' || c == '-';
    if (!ok) return false;
  }
  return true;
}

void AppendValueJson(std::ostringstream& os, const Value& v) {
  switch (v.type()) {
    case ValueType::kNull: os << "null"; break;
    case ValueType::kInt64: os << v.AsInt64(); break;
    case ValueType::kDouble: os << obs::JsonNum(v.AsDouble()); break;
    case ValueType::kString: os << obs::JsonStr(v.AsString()); break;
    case ValueType::kAll: os << "\"ALL\""; break;
  }
}

}  // namespace

std::string TableToJson(const Table& table, size_t max_rows) {
  std::ostringstream os;
  os << "{\"name\":" << obs::JsonStr(table.name()) << ",\"columns\":[";
  for (size_t c = 0; c < table.num_columns(); ++c) {
    if (c) os << ",";
    os << obs::JsonStr(table.schema().column(c).name);
  }
  size_t emit = table.num_rows();
  if (max_rows > 0) emit = std::min(emit, max_rows);
  os << "],\"rows\":" << table.num_rows() << ",\"data\":[";
  for (size_t r = 0; r < emit; ++r) {
    if (r) os << ",";
    os << "[";
    for (size_t c = 0; c < table.num_columns(); ++c) {
      if (c) os << ",";
      AppendValueJson(os, table.at(r, c));
    }
    os << "]";
  }
  os << "]}";
  return os.str();
}

QueryFrontDoor::QueryFrontDoor(const StatisticalObject& obj,
                               FrontDoorOptions options)
    : obj_(obj),
      options_(options),
      tenants_(options.default_quota),
      queue_(options.queue) {
  if (options_.max_threads < 1) options_.max_threads = 1;
  if (options_.default_threads < 0) options_.default_threads = 0;
}

uint64_t QueryFrontDoor::requests() const {
  return requests_.load(std::memory_order_relaxed);
}

obs::HttpResponse QueryFrontDoor::ServeRequest(const obs::HttpRequest& req) {
  requests_.fetch_add(1, std::memory_order_relaxed);
  if (obs::Enabled())
    obs::MetricsRegistry::Global().GetCounter("statcube.serve.requests").Add();

  // ---- Parse and validate the body -------------------------------------
  auto parsed = ParseJson(req.body);
  if (!parsed.ok()) return JsonError(400, parsed.status().message());
  const JsonValue& body = *parsed;
  if (!body.is_object())
    return JsonError(400, "request body must be a JSON object");

  static const char* kKnownKeys[] = {"query",       "engine", "cache",
                                     "threads",     "deadline_ms",
                                     "tenant",      "render", "vectorized"};
  for (const auto& [key, value] : body.AsObject()) {
    bool known = false;
    for (const char* k : kKnownKeys) known = known || key == k;
    if (!known) return JsonError(400, "unknown request field \"" + key + "\"");
    (void)value;
  }

  const JsonValue* query_v = body.Find("query");
  if (query_v == nullptr || !query_v->is_string() ||
      query_v->AsString().empty())
    return JsonError(400, "\"query\" must be a non-empty string");
  const std::string& query_text = query_v->AsString();

  QueryOptions qopt;
  qopt.cache = options_.default_cache;
  qopt.threads = options_.default_threads;
  qopt.deadline_us = options_.default_deadline_ms * 1000;

  if (const JsonValue* v = body.Find("engine")) {
    if (!v->is_string()) return JsonError(400, "\"engine\" must be a string");
    auto engine = EngineFromName(v->AsString());
    if (!engine.ok()) return JsonError(400, engine.status().message());
    qopt.engine = *engine;
  }
  if (const JsonValue* v = body.Find("cache")) {
    if (!v->is_string()) return JsonError(400, "\"cache\" must be a string");
    auto mode = cache::ModeFromName(v->AsString());
    if (!mode.ok()) return JsonError(400, mode.status().message());
    qopt.cache = *mode;
  }
  if (const JsonValue* v = body.Find("threads")) {
    if (!v->is_int() || v->AsInt() < 0 ||
        v->AsInt() > int64_t(options_.max_threads))
      return JsonError(400, "\"threads\" must be an integer in [0, " +
                                std::to_string(options_.max_threads) + "]");
    qopt.threads = int(v->AsInt());
  }
  if (const JsonValue* v = body.Find("vectorized")) {
    // Accepted and ignored: the executor has one group-by kernel per thread
    // count, so clients that still send the old kernel switch keep working.
    if (!v->is_bool())
      return JsonError(400, "\"vectorized\" must be a boolean");
  }
  if (const JsonValue* v = body.Find("deadline_ms")) {
    if (!v->is_int() || v->AsInt() < 0)
      return JsonError(400, "\"deadline_ms\" must be a non-negative integer "
                            "(0 = no deadline)");
    qopt.deadline_us = uint64_t(v->AsInt()) * 1000;
  }
  bool render = false;
  if (const JsonValue* v = body.Find("render")) {
    if (!v->is_bool()) return JsonError(400, "\"render\" must be a boolean");
    render = v->AsBool();
  }
  std::string tenant = "default";
  if (const JsonValue* v = body.Find("tenant")) {
    if (!v->is_string() || !ValidTenantName(v->AsString()))
      return JsonError(400, "\"tenant\" must match [A-Za-z0-9_.-]{1,64}");
    tenant = v->AsString();
  }
  qopt.tenant = tenant;

  // ---- Per-tenant admission: the 429 path ------------------------------
  Admission admission = tenants_.Admit(tenant);
  if (!admission.ok()) {
    if (obs::Enabled())
      obs::MetricsRegistry::Global()
          .GetCounter("statcube.serve.rejected")
          .Add();
    obs::HttpResponse resp = JsonError(
        429, std::string("tenant over ") + AdmitOutcomeName(admission.outcome) +
                 " quota");
    resp.body.pop_back();  // re-open the JSON object to add fields
    resp.body.erase(resp.body.size() - 1);
    resp.body += ",\"tenant\":" + obs::JsonStr(tenant) +
                 ",\"reason\":" +
                 obs::JsonStr(AdmitOutcomeName(admission.outcome)) +
                 ",\"retry_after_ms\":" +
                 std::to_string(admission.retry_after_ms) + "}\n";
    // Retry-After is whole seconds; round up so clients never retry early.
    // The concurrency gate has no time component — suggest one second.
    uint64_t after_s = admission.retry_after_ms == 0
                           ? 1
                           : (admission.retry_after_ms + 999) / 1000;
    resp.headers.emplace_back("Retry-After", std::to_string(after_s));
    return resp;
  }

  // Admitted: from here every exit must Release the tenant, charging the
  // bytes of whatever response actually goes out.
  auto release = [&](obs::HttpResponse resp, bool ok) {
    tenants_.Release(tenant, resp.body.size(), ok);
    return resp;
  };

  // ---- Global execute-or-shed gate: the 503 path -----------------------
  EnterOutcome gate = queue_.Enter();
  if (gate != EnterOutcome::kAdmitted) {
    tenants_.NoteShed(tenant);
    obs::HttpResponse resp =
        JsonError(503, gate == EnterOutcome::kShedQueueFull
                           ? "admission queue full"
                           : "timed out waiting for an execution slot");
    resp.headers.emplace_back("Retry-After", "1");
    obs::LogEvent(obs::LogLevel::kWarn, "query_shed")
        .Str("tenant", tenant)
        .Str("reason", gate == EnterOutcome::kShedQueueFull ? "queue_full"
                                                            : "timeout")
        .Emit();
    return release(std::move(resp), /*ok=*/false);
  }

  // ---- Execute through the exact CLI path ------------------------------
  Result<ProfiledQuery> result = QueryProfiled(obj_, query_text, qopt);
  queue_.Exit();

  if (!result.ok()) {
    const Status& st = result.status();
    obs::HttpResponse resp = JsonError(StatusToHttp(st), st.message());
    resp.body.erase(resp.body.size() - 2);  // strip "}\n" to append fields
    resp.body += ",\"code\":" + obs::JsonStr(StatusCodeName(st.code())) +
                 ",\"tenant\":" + obs::JsonStr(tenant) + "}\n";
    return release(std::move(resp), /*ok=*/false);
  }

  const ProfiledQuery& pq = *result;
  std::ostringstream os;
  os << "{\"tenant\":" << obs::JsonStr(tenant)
     << ",\"engine\":" << obs::JsonStr(QueryEngineName(qopt.engine))
     << ",\"backend\":" << obs::JsonStr(pq.profile.backend)
     << ",\"cache\":"
     << obs::JsonStr(pq.profile.cache.empty() ? std::string("off")
                                              : pq.profile.cache)
     << ",\"outcome\":" << obs::JsonStr(pq.profile.outcome)
     << ",\"profile_id\":" << pq.profile_id
     << ",\"result\":" << TableToJson(pq.table, options_.max_result_rows);
  if (render) os << ",\"rendered\":" << obs::JsonStr(pq.rendered);
  os << "}\n";

  obs::HttpResponse resp;
  resp.content_type = "application/json";
  resp.body = os.str();
  if (obs::Enabled())
    obs::MetricsRegistry::Global().GetCounter("statcube.serve.ok").Add();
  return release(std::move(resp), /*ok=*/true);
}

void QueryFrontDoor::Register(obs::StatsServer& server) {
  server.HandleMethod("POST", "/query", [this](const obs::HttpRequest& req) {
    return ServeRequest(req);
  });
  server.AddStatuszSection("tenants", [this] { return StatuszSection(); });
}

std::string QueryFrontDoor::StatuszSection() const {
  std::vector<TenantStats> stats = tenants_.Snapshot();
  std::ostringstream os;
  os << "<p>queue: " << queue_.active() << " active / " << queue_.queued()
     << " queued (max_active " << queue_.options().max_active
     << ", max_queued " << queue_.options().max_queued << ", "
     << queue_.sheds() << " shed)</p>";
  if (stats.empty()) {
    os << "<p>no tenants seen yet</p>";
    return os.str();
  }
  os << "<table><tr><th>tenant</th><th>active</th><th>admitted</th>"
     << "<th>429 concurrency</th><th>429 rate</th><th>429 bytes</th>"
     << "<th>shed</th><th>ok</th><th>error</th><th>bytes_served</th>"
     << "<th>rate_tokens</th><th>byte_tokens</th></tr>";
  for (const TenantStats& s : stats) {
    os << "<tr><td><a href=\"/profiles?tenant=" << s.name << "\">" << s.name
       << "</a></td><td>" << s.active << "</td><td>" << s.admitted
       << "</td><td>" << s.rejected_concurrency << "</td><td>"
       << s.rejected_rate << "</td><td>" << s.rejected_bytes << "</td><td>"
       << s.shed << "</td><td>" << s.queries_ok << "</td><td>"
       << s.queries_error << "</td><td>" << s.bytes_served << "</td><td>"
       << obs::JsonNum(s.rate_tokens) << "</td><td>"
       << obs::JsonNum(s.byte_tokens) << "</td></tr>";
  }
  os << "</table>";
  return os.str();
}

}  // namespace statcube::serve
