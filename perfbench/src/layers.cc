#include "layers.h"

#include <stdexcept>

#include "bench.h"
#include "statcube/cache/derive.h"
#include "statcube/olap/backend.h"
#include "statcube/query/cache_key.h"
#include "statcube/serve/front_door.h"
#include "statcube/serve/json_value.h"

namespace perfbench {

using namespace statcube;

Dataset GenerateAndLoad(const RetailShape& shape, uint64_t seed,
                        const std::string& name, Tracer* tracer) {
  RetailOptions o;
  o.num_products = shape.products;
  o.num_categories = shape.categories;
  o.num_stores = shape.stores;
  o.num_cities = shape.cities;
  o.num_days = shape.days;
  o.num_rows = shape.rows;
  o.zipf_theta = shape.zipf_theta;
  o.seed = seed;
  Result<RetailData> data = MakeRetailWorkload(o);
  if (!data.ok())
    throw std::runtime_error("generator: " + data.status().ToString());

  Dataset ds{std::move(*data), StatisticalObject(name), {}};
  for (const Dimension& d : ds.data.object.dimensions())
    if (Status st = ds.obj.AddDimension(d); !st.ok())
      throw std::runtime_error("load: " + st.ToString());
  for (const SummaryMeasure& m : ds.data.object.measures())
    if (Status st = ds.obj.AddMeasure(m); !st.ok())
      throw std::runtime_error("load: " + st.ToString());
  // Only the structure of the generator's own object is used; the cells
  // come from the flat table, like any load from a file.
  ds.data.object = StatisticalObject();

  const Table& flat = ds.data.flat;
  const size_t cp = *flat.schema().IndexOf("product"),
               cs = *flat.schema().IndexOf("store"),
               cd = *flat.schema().IndexOf("day"),
               cq = *flat.schema().IndexOf("qty"),
               ca = *flat.schema().IndexOf("amount");
  Row dims(3), measures(2);
  const uint64_t t0 = NowNs();
  uint64_t chunk_start = t0;
  for (size_t i = 0; i < flat.num_rows(); ++i) {
    const Row& r = flat.row(i);
    dims[0] = r[cp];
    dims[1] = r[cs];
    dims[2] = r[cd];
    measures[0] = r[cq];
    measures[1] = r[ca];
    if (Status st = ds.obj.AddCell(dims, measures); !st.ok())
      throw std::runtime_error("load: " + st.ToString());
    if ((i + 1) % kLoadChunk == 0 || i + 1 == flat.num_rows()) {
      const uint64_t now = NowNs();
      ds.chunk_s.push_back(Seconds(chunk_start, now));
      chunk_start = now;
    }
  }
  if (tracer)
    tracer->Record("core.append", 0, 0, t0, NowNs(),
                   std::to_string(flat.num_rows()));
  return ds;
}

double QuietLoadRate(const std::vector<std::vector<double>>& chunk_s,
                     size_t rows) {
  double total = 0;
  for (size_t c = 0; c < chunk_s[0].size(); ++c) {
    std::vector<double> v;
    for (const auto& load : chunk_s) v.push_back(load[c]);
    total += Percentile(v, 25);
  }
  return double(rows) / total;
}

Result<Table> RunExecutor(const StatisticalObject& obj, const ParsedQuery& q,
                          int threads) {
  return threads == 1 ? ExecuteQuery(obj, q)
                      : ExecuteQueryParallel(obj, q, threads);
}

void SeedMirror(cache::ResultCache& mirror, const StatisticalObject& obj,
                const QuerySpec& spec, const Table& result) {
  Result<ParsedQuery> q = ParseQuery(spec.Text());
  if (!q.ok()) return;
  Result<cache::QueryKey> key =
      query::BuildQueryKey(obj, *q, QueryEngine::kRelational);
  // An execution cost far above the admission floor: admitted unless the
  // result is too large for the cache, as on the end-to-end path.
  if (key.ok()) mirror.Insert(*key, result, false, 1000000);
}

uint64_t ReplayLayers(Tracer& tracer, uint64_t request, uint64_t parent,
                      const LayerCall& call) {
  uint64_t total = 0;
  auto timed = [&](const std::string& name, const std::string& tag,
                   auto&& fn) {
    const uint64_t t0 = NowNs();
    fn();
    const uint64_t t1 = NowNs();
    tracer.Record(name, request, parent, t0, t1, tag);
    total += t1 - t0;
    return t1 - t0;
  };
  const StatisticalObject& obj = *call.obj;
  const std::string text = call.spec->Text();

  if (call.http_body)
    timed("serve.json_parse", "", [&] { (void)serve::ParseJson(*call.http_body); });
  ParsedQuery q;
  timed("query.parse", "", [&] {
    Result<ParsedQuery> parsed = ParseQuery(text);
    if (parsed.ok()) q = *std::move(parsed);
  });

  const bool cached = call.mode != cache::Mode::kOff;
  Result<cache::QueryKey> key = Status::Unimplemented("cache off");
  if (cached)
    timed("query.cache_key", "",
          [&] { key = query::BuildQueryKey(obj, q, call.engine); });

  bool answered = false;
  if (cached && key.ok()) {
    timed("cache.lookup", "", [&] { (void)call.mirror->Lookup(*key); });
    if (call.cache_path == "derived") {
      uint64_t derive_ns = timed("cache.derive", call.spec->label, [&] {
        if (auto src = call.mirror->FindDerivationSource(*key))
          (void)cache::RollupDerived(*src, *key, call.threads);
      });
      timed("cache.insert", "", [&] {
        call.mirror->Insert(*key, *call.result, key->backend_shaped,
                            derive_ns / 1000);
      });
    }
    answered = call.cache_path == "hit" || call.cache_path == "derived";
  }

  if (!answered) {
    const uint64_t exec_start = NowNs();
    bool backend_answered = false;
    if (call.engine != QueryEngine::kRelational) {
      std::unique_ptr<CubeBackend> backend;
      const std::string measure = q.aggs.empty() ? "" : q.aggs[0].column;
      timed(std::string("olap.build:") + QueryEngineName(call.engine), "", [&] {
        Result<std::unique_ptr<CubeBackend>> b =
            call.engine == QueryEngine::kMolap
                ? MakeMolapBackend(obj, measure)
                : MakeRolapBackend(obj, measure,
                                   {.build_bitmap_indexes = call.engine ==
                                                            QueryEngine::kRolapBitmap});
        if (b.ok()) backend = std::move(*b);
      });
      if (backend) {
        timed("olap.backend_answer", call.spec->label, [&] {
          backend_answered =
              ExecuteQueryOnBackend(obj, q, *backend, call.threads).ok();
        });
      }
    }
    if (!backend_answered) {
      timed("query.execute:" + call.spec->cls + ":t" +
                std::to_string(call.threads),
            call.spec->label, [&] { (void)RunExecutor(obj, q, call.threads); });
      // ExecuteQuery's first step copies the object's data; measure one
      // such copy on its own (outside the replayed total).
      const uint64_t c0 = NowNs();
      { Table copy = obj.data(); }
      tracer.Record("core.data_copy", request, 0, c0, NowNs());
    }
    if (cached && key.ok()) {
      const uint64_t exec_us = (NowNs() - exec_start) / 1000;
      timed("cache.insert", "", [&] {
        call.mirror->Insert(*key, *call.result, backend_answered, exec_us);
      });
    }
  }

  timed("relational.render", "",
        [&] { (void)call.result->ToString(QueryOptions().render_limit); });
  if (call.http_body)
    timed("serve.envelope", "", [&] { (void)serve::TableToJson(*call.result); });
  return total;
}

}  // namespace perfbench
