/// \file
/// \brief The pluggable query backend interface behind a statistical
/// object — the §6.6 ROLAP vs MOLAP debate expressed as an API.
///
/// Both backends answer the same aggregate queries over the same
/// StatisticalObject; which physical organization serves them differs:
///
///  * MolapBackend — dense linearized array (molap_cube.h): arithmetic
///    addressing, stores the whole cross product.
///  * RolapBackend — the object's cell table scanned relationally; with
///    `BuildIndexes`, dictionary-encoded bitmap indexes per dimension
///    accelerate the scans (the ROLAP proponents' claim (iv): "efficiency
///    of ROLAP can be achieved by using techniques such as encoding and
///    compression").
///
/// Equivalence across backends is a test invariant; bench_rolap_molap and
/// bench_ablation measure the trade-offs.

#ifndef STATCUBE_OLAP_BACKEND_H_
#define STATCUBE_OLAP_BACKEND_H_

#include <memory>
#include <string>
#include <vector>

#include "statcube/common/block_counter.h"
#include "statcube/common/status.h"
#include "statcube/core/statistical_object.h"
#include "statcube/storage/bitvector.h"
#include "statcube/storage/dictionary.h"
#include "statcube/storage/stores.h"

namespace statcube {

/// A dimension-subset aggregate query: SUM(measure) grouped by `group_dims`
/// with optional equality filters. Empty group = a single total.
struct CubeQuery {
  /// Dimensions to group by (order fixes the output column order).
  std::vector<std::string> group_dims;
  /// Equality filters ANDed together; empty = no filtering.
  std::vector<EqFilter> filters;
  /// Worker cap for the backend's scans and groupings, which run through
  /// the morsel kernels (statcube/exec): 1 (default) runs them on the
  /// caller, 0 = exec::DefaultThreads(). Results are identical.
  int threads = 1;
};

/// Backend-independent query interface over one (object, measure) pair.
class CubeBackend {
 public:
  virtual ~CubeBackend() = default;  ///< Backends are owned polymorphically.

  /// Descriptive name ("molap", "rolap", "rolap+bitmap").
  virtual std::string name() const = 0;

  /// SUM(measure) over cells matching all equality filters.
  virtual Result<double> Sum(const std::vector<EqFilter>& filters) = 0;

  /// GROUP BY over the named dimensions with filters; returns rows of
  /// (group values..., sum) sorted by group values.
  virtual Result<Table> GroupBySum(const CubeQuery& query) = 0;

  /// Physical footprint.
  virtual size_t ByteSize() const = 0;

  /// Logical block accounting.
  virtual BlockCounter& counter() = 0;
};

/// Builds a MOLAP backend (dense array).
Result<std::unique_ptr<CubeBackend>> MakeMolapBackend(
    const StatisticalObject& obj, const std::string& measure);

/// Options for the ROLAP backend.
struct RolapBackendOptions {
  /// Build per-dimension bitmap indexes (one bitmap per category value) so
  /// equality filters intersect bitmaps instead of scanning.
  bool build_bitmap_indexes = false;
};

/// Builds a ROLAP backend over the object's cell table.
Result<std::unique_ptr<CubeBackend>> MakeRolapBackend(
    const StatisticalObject& obj, const std::string& measure,
    const RolapBackendOptions& options = {});

}  // namespace statcube

#endif  // STATCUBE_OLAP_BACKEND_H_
