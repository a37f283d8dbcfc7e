// dashboard_http: two closed-loop loopback clients POST /query to an
// in-process StatsServer with a QueryFrontDoor, cache=derive, over a small
// retail object. Tiles are drawn Zipf-skewed from a space of BY subsets,
// hierarchy levels and WHERE literals across four tenants; their distinct
// results exceed the cache budget, so exact hits, derived hits and misses
// all occur. JSON parse, admission, cache lookup / derive / eviction,
// envelope and transport dominate; execution shows only on misses.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <map>
#include <memory>
#include <stdexcept>
#include <thread>

#include "http_client.h"
#include "layers.h"
#include "oracle.h"
#include "statcube/obs/http_server.h"
#include "statcube/serve/front_door.h"
#include "workloads.h"

namespace perfbench {

using namespace statcube;

namespace {

const RetailShape kShape{60, 8, 16, 4, 120, 20000, 0.8};
constexpr size_t kRequestsPerRound = 2000;
constexpr double kTileTheta = 0.9;
constexpr int kClients = 2;
// A set-up here takes a tenth of a second, so a run affords more of them.
constexpr size_t kDashboardSetups = 25;

struct Tile {
  QuerySpec spec;
  std::string body;           ///< the POST /query JSON body
  std::string expected_json;  ///< TableToJson of the in-process answer
  Table reference;            ///< the in-process answer (traced replay)
};

std::vector<Tile> TileSpace(uint64_t seed) {
  Rng rng(seed ^ 0xda5bull);
  const std::vector<std::pair<std::string, std::vector<AggRef>>> families = {
      {"a", {{"sum", "amount"}, {"count", "amount"}}},
      {"q", {{"sum", "qty"}}},
      {"m", {{"sum", "amount"}, {"min", "amount"}, {"max", "amount"}}}};
  const std::vector<std::vector<std::string>> bys = {
      {"city"},           {"store"},          {"category"},
      {"month"},          {"product"},        {"city", "month"},
      {"category", "city"}, {"store", "month"}, {"category", "month"},
      {"product", "city"}, {"city", "category", "month"}};
  std::vector<Tile> tiles;
  for (const auto& [fam, aggs] : families) {
    const std::vector<std::vector<std::pair<std::string, std::string>>> wheres =
        {{},
         {{"city", "city" + std::to_string(rng.Below(4))}},
         {{"category", "cat" + std::to_string(rng.Below(8))}},
         {{"month", "1996-" + std::to_string(1 + rng.Below(4))}}};
    for (const auto& where : wheres) {
      std::vector<std::vector<std::string>> tile_bys = bys;
      // Results too large for any cache shard: never admitted, always miss.
      if (where.empty() && fam != "m")
        for (const char* leaf : {"store", "product"})
          tile_bys.push_back({leaf, "day"});
      for (const auto& by : tile_bys) {
        if (!where.empty() &&
            std::find(by.begin(), by.end(), where[0].first) != by.end())
          continue;
        Tile t;
        t.spec.aggs = aggs;
        t.spec.by = by;
        t.spec.where = where;
        bool level = false;
        for (const std::string& b : by)
          level = level || b == "city" || b == "category" || b == "month";
        t.spec.cls = !where.empty() ? "where" : level ? "level" : "plain";
        if (fam == "a" && where.empty() && by.size() == 1) {
          t.spec.label = "by_" + by[0];  // by_city / by_store: roll-up twins
        } else {
          t.spec.label = fam + ":";
          for (size_t i = 0; i < by.size(); ++i) t.spec.label += (i ? "+" : "") + by[i];
          if (!where.empty()) t.spec.label += "@" + where[0].first;
        }
        // The query text holds no characters JSON would escape.
        t.body = "{\"query\":\"" + t.spec.Text() +
                 "\",\"cache\":\"derive\",\"tenant\":\"team" +
                 std::to_string(rng.Below(4)) + "\"}";
        tiles.push_back(std::move(t));
      }
    }
  }
  // Zipf ranks go to one fixed permutation of the tiles, the same for every
  // seed: which tiles are hot decides the hit / derive / miss mix, and that
  // mix must not change with the data.
  Rng order(0x7113ull);
  for (size_t i = tiles.size(); i > 1; --i)
    std::swap(tiles[i - 1], tiles[order.Below(i)]);
  return tiles;
}

// Everything one set-up builds. Members are destroyed bottom-up, so the
// server stops before the front door and the object go away.
struct Service {
  std::unique_ptr<Dataset> ds;
  std::unique_ptr<serve::QueryFrontDoor> door;
  std::unique_ptr<obs::StatsServer> server;
};

// One client's share of a round.
struct ClientStats {
  uint64_t attempted = 0;
  std::vector<std::string> wrong;
  std::vector<double> latency_ms;
  std::map<std::string, uint64_t> paths;  // envelope "cache" field
  double cpu_s = 0;
  double replay_ns = 0, e2e_ns = 0;
  uint64_t ops = 0;
};

std::string Field(const std::string& body, const std::string& name) {
  const std::string pat = "\"" + name + "\":\"";
  size_t p = body.find(pat);
  if (p == std::string::npos) return "";
  p += pat.size();
  return body.substr(p, body.find('"', p) - p);
}

}  // namespace

RunResult RunDashboardHttp(const Args& args) {
  RunResult out;
  std::unique_ptr<Tracer> tracer = args.trace ? std::make_unique<Tracer>() : nullptr;
  std::atomic<uint64_t> request_ns{0};  // Σ ServeRequest time, traced rounds

  std::vector<double> setup_s;
  std::vector<std::vector<double>> load_chunks;
  auto set_up = [&] {
    const uint64_t t0 = NowNs();
    auto svc = std::make_unique<Service>();
    svc->ds = std::make_unique<Dataset>(GenerateAndLoad(kShape, args.seed, setup_s.empty() ? "retail" : "spare",
                                    tracer.get()));
    svc->door = std::make_unique<serve::QueryFrontDoor>(svc->ds->obj);
    obs::StatsServerOptions so;
    so.num_workers = 2;
    svc->server = std::make_unique<obs::StatsServer>(so);
    if (!tracer) {
      svc->door->Register(*svc->server);
    } else {
      // Same endpoint, plus a server-side span whose request id and parent
      // come from the query string of a traced request.
      serve::QueryFrontDoor* door = svc->door.get();
      Tracer* tr = tracer.get();
      svc->server->HandleMethod("POST", "/query", [door, tr, &request_ns](
                                                      const obs::HttpRequest& req) {
        unsigned long long rid = 0, parent = 0;
        std::sscanf(req.query.c_str(), "rid=%llu&parent=%llu", &rid, &parent);
        if (rid == 0) return door->ServeRequest(req);
        const uint64_t t0 = NowNs();
        obs::HttpResponse resp = door->ServeRequest(req);
        const uint64_t t1 = NowNs();
        tr->Record("serve.request", rid, parent, t0, t1);
        request_ns += t1 - t0;
        return resp;
      });
    }
    // The server's threads inherit this mask: CPUs 2 and 3 serve, the two
    // clients run on CPUs 0 and 1.
    PinTo({2, 3});
    Status st = svc->server->Start();
    PinTo({0});
    if (!st.ok()) throw std::runtime_error("server start: " + st.ToString());
    setup_s.push_back(Seconds(t0, NowNs()));
    load_chunks.push_back(svc->ds->chunk_s);
    return svc;
  };
  const std::unique_ptr<Service> svc = set_up();
  const StatisticalObject& obj = svc->ds->obj;
  const uint16_t port = svc->server->port();

  // Reference answers in process (cache off), each checked by the oracle.
  std::vector<Tile> tiles = TileSpace(args.seed);
  {
    Oracle oracle(svc->ds->data.flat);
    size_t distinct_bytes = 0;
    for (Tile& t : tiles) {
      Result<ProfiledQuery> pq = QueryProfiled(obj, t.spec.Text(), {});
      if (!pq.ok())
        throw std::runtime_error(t.spec.Text() + ": " + pq.status().ToString());
      std::string err = Oracle::Compare(oracle.Evaluate(t.spec), pq->table, false);
      if (!err.empty()) out.Wrong(t.spec.Text() + " in process: " + err, false);
      t.expected_json = serve::TableToJson(pq->table);
      t.reference = std::move(pq->table);
      distinct_bytes += t.reference.ByteSize();
    }
    std::fprintf(stderr, "dashboard_http: %zu tiles, %zu result bytes, cache budget %zu\n",
                 tiles.size(), distinct_bytes, kCacheBytes);
  }
  // A round asks each tile a fixed number of times, its Zipf share of
  // kRequestsPerRound (at least once), in a seeded order: the mix of cheap
  // and expensive tiles is then the same in every round and for every seed.
  std::vector<size_t> sequence;
  {
    double norm = 0;
    for (size_t r = 0; r < tiles.size(); ++r) norm += std::pow(double(r + 1), -kTileTheta);
    for (size_t r = 0; r < tiles.size(); ++r) {
      const double share = std::pow(double(r + 1), -kTileTheta) / norm;
      const size_t n = std::max<size_t>(1, size_t(std::lround(share * kRequestsPerRound)));
      sequence.insert(sequence.end(), n, r);
    }
    Rng rng(args.seed ^ 0x5e9ull);
    for (size_t i = sequence.size(); i > 1; --i)
      std::swap(sequence[i - 1], sequence[rng.Below(i)]);
  }
  cache::ResultCache& global = cache::ResultCache::Global();
  global.Clear();
  // The traced replay's private cache holds what the warm global cache
  // holds after the warm-up round: every tile small enough to admit.
  cache::ResultCache mirror({.byte_budget = kCacheBytes});
  if (tracer)
    for (const Tile& t : tiles) SeedMirror(mirror, obj, t.spec, t.reference);

  std::atomic<uint64_t> next_request{1};
  // Both clients take the round's next request from a shared cursor, so a
  // client held up by a miss does not leave the other idle at the round's
  // end.
  std::atomic<size_t> cursor{0};
  auto client = [&](int c, bool traced, ClientStats& cs) {
    PinTo({c});
    const double cpu0 = ThreadCpuSeconds();
    for (size_t i; (i = cursor++) < sequence.size();) {
      const Tile& t = tiles[sequence[i]];
      uint64_t rid = 0, span = 0;
      std::string target = "/query";
      if (traced) {
        rid = next_request++;
        span = tracer->Begin("http.roundtrip", rid, 0, t.spec.label);
        target += "?rid=" + std::to_string(rid) + "&parent=" + std::to_string(span);
      }
      const uint64_t q0 = NowNs();
      HttpReply r = Post(port, target, t.body);
      const uint64_t q1 = NowNs();
      if (traced) tracer->End(span);
      ++cs.attempted;
      const size_t at = r.body.find(",\"result\":");
      if (r.status != 200) {
        cs.wrong.push_back(t.spec.Text() + ": HTTP " + std::to_string(r.status) +
                           " " + r.error + r.body);
        continue;
      }
      cs.latency_ms.push_back(double(q1 - q0) * 1e-6);
      const std::string path = Field(r.body, "cache");
      ++cs.paths[path];
      if (at == std::string::npos ||
          r.body.compare(at + 10, r.body.size() - at - 12, t.expected_json) != 0)
        cs.wrong.push_back(t.spec.Text() + " (cache " + path +
                           "): /query data differs from TableToJson in process");
      if (!traced) continue;
      LayerCall call;
      call.obj = &obj;
      call.spec = &t.spec;
      call.mode = cache::Mode::kDerive;
      call.cache_path = path;
      call.result = &t.reference;
      call.http_body = &t.body;
      call.mirror = &mirror;
      const uint64_t layers = tracer->Begin("layers", rid, 0, t.spec.label);
      cs.replay_ns += double(ReplayLayers(*tracer, rid, layers, call));
      tracer->End(layers);
      cs.e2e_ns += double(q1 - q0);
      ++cs.ops;
    }
    cs.cpu_s = ThreadCpuSeconds() - cpu0;
  };

  Measured m;
  m.tail_percentile = 99;
  TraceTotals totals;
  std::map<std::string, uint64_t> paths;
  auto round = [&](bool traced, bool measured) {
    ClientStats cs[kClients];
    const double c0 = ProcessCpuSeconds();
    cursor = 0;
    {
      std::jthread other(client, 1, traced, std::ref(cs[1]));
      client(0, traced, cs[0]);
    }
    const double cpu = ProcessCpuSeconds() - c0;
    for (ClientStats& s : cs) {
      out.attempted += s.attempted;
      for (const std::string& what : s.wrong) out.Wrong(what, false);
      if (!measured) continue;
      for (const auto& [p, n] : s.paths) paths[p] += n;
      if (tracer) {
        auto& into = traced ? totals.traced_ms : totals.untraced_ms;
        into.insert(into.end(), s.latency_ms.begin(), s.latency_ms.end());
        totals.replay_ns += s.replay_ns;
        totals.e2e_ns += s.e2e_ns;
        totals.ops += s.ops;
      }
    }
    if (!measured || tracer) return;
    Window& w = m.Open();
    for (ClientStats& s : cs)
      w.latency_ms.insert(w.latency_ms.end(), s.latency_ms.begin(),
                          s.latency_ms.end());
    w.cpu_s = cpu - cs[0].cpu_s - cs[1].cpu_s;
  };

  round(false, false);  // warm-up: fills the cache, not measured
  totals.cache_before = global.stats();
  // Whole rounds, at least three, each one window of about 2000 samples
  // (p99 has 20 beyond it). Rounds alternate untraced / traced in a traced
  // run.
  const uint64_t start = NowNs();
  for (int r = 0; r < 3 || Seconds(start, NowNs()) < args.seconds; ++r) {
    round(tracer && r % 2 == 1, true);
    if (SetupDue(setup_s.size(), kDashboardSetups, start, args.seconds)) set_up();
  }
  while (setup_s.size() < kDashboardSetups) set_up();

  uint64_t total_paths = 0;
  for (const auto& [p, n] : paths) total_paths += n;
  for (const auto& [p, n] : paths)
    std::fprintf(stderr, "dashboard_http: cache %-8s %6.2f%%\n", p.c_str(),
                 100.0 * double(n) / double(total_paths));

  if (!tracer) {
    AddEndToEnd(out, setup_s, m);
  } else {
    totals.cache_after = global.stats();
    totals.decomposed_ns = double(request_ns.load());
    totals.append_us_per_row = 1e6 / QuietLoadRate(load_chunks, kShape.rows);
    AddPerLayer(out, *tracer, totals);
    FinishTrace(args, *tracer, out);
  }
  return out;
}

}  // namespace perfbench
