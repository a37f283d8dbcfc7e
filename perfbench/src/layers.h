// The benchmark's calls into single layers of the program, outside the
// end-to-end entry points: data generation and object load, the one adapter
// over the two query executors, and the traced replay of the layer calls
// that one end-to-end query made.

#ifndef PERFBENCH_LAYERS_H_
#define PERFBENCH_LAYERS_H_

#include <cstdint>
#include <string>

#include "oracle.h"
#include "statcube/cache/result_cache.h"
#include "statcube/query/parser.h"
#include "statcube/workload/retail.h"
#include "trace.h"

namespace perfbench {

/// Retail generator shape (statcube::RetailOptions without the seed).
struct RetailShape {
  int products, categories, stores, cities, days, rows;
  double zipf_theta;
};

/// Generated inputs and the statistical object loaded from them.
struct Dataset {
  statcube::RetailData data;       ///< generator output; `flat` feeds the oracle
  statcube::StatisticalObject obj; ///< built cell by cell with AddCell
  /// Wall time of each kLoadChunk consecutive AddCell calls of the load.
  std::vector<double> chunk_s;
};

/// Rows per timed chunk of a load.
inline constexpr size_t kLoadChunk = 1000;

/// Load rate of repeated loads of the same rows: each chunk's time is its
/// lower quartile over the loads (outside load only slows a chunk down),
/// and the rate is the rows over the sum of those times.
double QuietLoadRate(const std::vector<std::vector<double>>& chunk_s,
                     size_t rows);

/// Generates the retail inputs for `seed` and loads them with AddCell into
/// a fresh object named `name`. Cached results are keyed by object name,
/// so a spare set-up must not reuse the name of the object being served.
/// A non-null `tracer` records the load as one "core.append" span. Throws
/// on a generator or load error.
Dataset GenerateAndLoad(const RetailShape& shape, uint64_t seed,
                        const std::string& name, Tracer* tracer);

/// The single place the benchmark calls ExecuteQuery / ExecuteQueryParallel:
/// threads == 1 is the serial executor, anything else the parallel one.
statcube::Result<statcube::Table> RunExecutor(
    const statcube::StatisticalObject& obj, const statcube::ParsedQuery& q,
    int threads);

/// What one end-to-end query did, for the traced replay.
struct LayerCall {
  const statcube::StatisticalObject* obj = nullptr;
  const QuerySpec* spec = nullptr;
  statcube::QueryEngine engine = statcube::QueryEngine::kRelational;
  int threads = 1;
  statcube::cache::Mode mode = statcube::cache::Mode::kOff;
  /// Cache path the end-to-end call reported: "hit", "derived" or "miss"
  /// (ignored when the cache is off).
  std::string cache_path;
  /// The answer, rendered and enveloped by the replay.
  const statcube::Table* result = nullptr;
  /// The POST /query body when the query came over HTTP (adds the JSON
  /// parse and envelope layers).
  const std::string* http_body = nullptr;
  /// Private cache that mirrors the global one, so the replay's lookups and
  /// inserts leave the measured cache untouched.
  statcube::cache::ResultCache* mirror = nullptr;
};

/// Offers `result` to `mirror` under the key the replay builds for `spec`
/// (relational engine), as the end-to-end path would after executing it.
void SeedMirror(statcube::cache::ResultCache& mirror,
                const statcube::StatisticalObject& obj, const QuerySpec& spec,
                const statcube::Table& result);

/// Replays, each under its own span (children of `parent`), the public
/// layer calls the end-to-end path made for `call`: JSON parse, ParseQuery,
/// BuildQueryKey, cache lookup / derive / insert, backend build and answer
/// or the executor, Table::ToString and TableToJson. Also records one copy
/// of obj.data() as a separate root span "core.data_copy" when the executor
/// ran. Returns the summed duration of the replayed calls in nanoseconds.
uint64_t ReplayLayers(Tracer& tracer, uint64_t request, uint64_t parent,
                      const LayerCall& call);

}  // namespace perfbench

#endif  // PERFBENCH_LAYERS_H_
