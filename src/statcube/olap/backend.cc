#include "statcube/olap/backend.h"

#include <algorithm>
#include <map>

#include "statcube/common/mutex.h"
#include "statcube/exec/parallel_kernels.h"
#include "statcube/obs/query_profile.h"
#include "statcube/olap/molap_cube.h"
#include "statcube/relational/aggregate.h"

namespace statcube {

namespace {

// Snapshots a backend's BlockCounter around an answer and reports the delta
// (plus the backend's identity) to the active profile and registry.
class BackendObsScope {
 public:
  BackendObsScope(const std::string& backend, BlockCounter& counter)
      : enabled_(obs::Enabled()),
        backend_(enabled_ ? backend : std::string()),
        counter_(counter),
        blocks0_(enabled_ ? counter.blocks_read() : 0),
        bytes0_(enabled_ ? counter.bytes_read() : 0) {}
  ~BackendObsScope() {
    if (!enabled_) return;
    obs::RecordBackend(backend_, counter_.blocks_read() - blocks0_,
                       counter_.bytes_read() - bytes0_);
  }

 private:
  bool enabled_;
  std::string backend_;
  BlockCounter& counter_;
  uint64_t blocks0_, bytes0_;
};

// ------------------------------------------------------------------ MOLAP

class MolapBackend : public CubeBackend {
 public:
  MolapBackend(MolapCube cube, std::vector<std::string> dim_names,
               std::vector<std::vector<Value>> dim_values)
      : cube_(std::move(cube)),
        dim_names_(std::move(dim_names)),
        dim_values_(std::move(dim_values)) {}

  std::string name() const override { return "molap"; }

  Result<double> Sum(const std::vector<EqFilter>& filters) override {
    obs::Span span("backend.sum:molap");
    BackendObsScope scope(name(), cube_.counter());
    return cube_.SumWhere(filters);
  }

  Result<Table> GroupBySum(const CubeQuery& query) override {
    obs::Span span("backend.groupby:molap");
    BackendObsScope scope(name(), cube_.counter());
    // Enumerate group coordinates from the dimension metadata; each group
    // is a slab sum over the array.
    std::vector<size_t> gidx;
    for (const auto& g : query.group_dims) {
      auto it = std::find(dim_names_.begin(), dim_names_.end(), g);
      if (it == dim_names_.end())
        return Status::NotFound("no dimension '" + g + "'");
      gidx.push_back(size_t(it - dim_names_.begin()));
    }
    Schema out_schema;
    for (const auto& g : query.group_dims)
      out_schema.AddColumn(g, ValueType::kString);
    out_schema.AddColumn("sum", ValueType::kDouble);
    Table out("groupby_molap", out_schema);

    // The coordinates each grouped dimension enumerates: every member, or
    // only the members its equality filters select — none when a filter
    // names a non-member, as the relational answer has no such group.
    std::vector<std::vector<const Value*>> members(gidx.size());
    for (size_t i = 0; i < gidx.size(); ++i) {
      for (const Value& v : dim_values_[gidx[i]]) {
        bool selected = true;
        for (const EqFilter& f : query.filters)
          if (f.column == dim_names_[gidx[i]] && f.value != v)
            selected = false;
        if (selected) members[i].push_back(&v);
      }
    }
    if (std::any_of(members.begin(), members.end(),
                    [](const std::vector<const Value*>& m) {
                      return m.empty();
                    }))
      return out;

    STATCUBE_RETURN_NOT_OK(SumGroups(query, gidx, members, &out));
    STATCUBE_RETURN_NOT_OK(out.SortBy(query.group_dims));
    return out;
  }

  size_t ByteSize() const override { return cube_.ByteSize(); }
  BlockCounter& counter() override { return cube_.counter(); }

 private:
  // One slab sum per group coordinate, computed concurrently. Group index g
  // decodes to the g-th pick vector of an odometer over `members` (last
  // group dimension fastest); rows land at their group index, so the
  // pre-sorted row order — and after SortBy the output — is the same at
  // every thread count.
  Status SumGroups(
      const CubeQuery& query, const std::vector<size_t>& gidx,
      const std::vector<std::vector<const Value*>>& members, Table* out) {
    size_t ngroups = 1;
    for (const auto& m : members) ngroups *= m.size();
    std::vector<Row> rows(ngroups);

    exec::ExecOptions xo;
    xo.threads = query.threads;
    exec::ParallelForOptions loop;
    loop.label = "molap_groupby";
    loop.max_workers = xo.EffectiveThreads();
    // One group is a whole slab sum. Four morsels per worker balance uneven
    // slabs without one morsel span per handful of groups, which on a
    // one-worker call would bury the profile (8000 groups -> 2000 spans).
    loop.morsel_size = std::max<size_t>(
        4, ngroups / (size_t(loop.max_workers) * 4));

    Mutex err_mu;
    Status first_error = Status::OK();
    exec::ParallelFor(
        ngroups,
        [&](size_t, size_t begin, size_t end) {
          std::vector<size_t> pick(gidx.size());
          for (size_t g = begin; g < end; ++g) {
            size_t rem = g;
            for (size_t i = gidx.size(); i-- > 0;) {
              pick[i] = rem % members[i].size();
              rem /= members[i].size();
            }
            std::vector<EqFilter> filters = query.filters;
            Row row;
            for (size_t i = 0; i < gidx.size(); ++i) {
              const Value& v = *members[i][pick[i]];
              filters.push_back({dim_names_[gidx[i]], v});
              row.push_back(v);
            }
            Result<double> s = cube_.SumWhere(filters);
            if (!s.ok()) {
              MutexLock lock(err_mu);
              if (first_error.ok()) first_error = s.status();
              return;
            }
            row.push_back(Value(s.value()));
            rows[g] = std::move(row);
          }
        },
        loop);
    if (!first_error.ok()) return first_error;
    for (Row& row : rows) out->AppendRowUnchecked(std::move(row));
    return Status::OK();
  }

  MolapCube cube_;
  std::vector<std::string> dim_names_;
  std::vector<std::vector<Value>> dim_values_;
};

// ------------------------------------------------------------------ ROLAP

class RolapBackend : public CubeBackend {
 public:
  RolapBackend(const StatisticalObject& obj, size_t measure_idx,
               RolapBackendOptions options)
      : table_(obj.data()), measure_idx_(measure_idx), options_(options) {
    for (const auto& d : obj.dimensions()) dim_names_.push_back(d.name());
    if (options_.build_bitmap_indexes) BuildIndexes();
  }

  std::string name() const override {
    return options_.build_bitmap_indexes ? "rolap+bitmap" : "rolap";
  }

  Result<double> Sum(const std::vector<EqFilter>& filters) override {
    obs::Span span(options_.build_bitmap_indexes ? "backend.sum:rolap+bitmap"
                                                 : "backend.sum:rolap");
    BackendObsScope scope(name(), counter_);
    if (options_.build_bitmap_indexes) return SumIndexed(filters);
    return SumScan(filters);
  }

  Result<Table> GroupBySum(const CubeQuery& query) override {
    obs::Span span("backend.groupby:rolap");
    BackendObsScope scope(name(), counter_);
    // Filter then relational group-by over the cell table.
    STATCUBE_ASSIGN_OR_RETURN(std::vector<size_t> fidx, FilterIdx(query.filters));
    Table filtered(table_.name(), table_.schema());
    counter_.ChargeBytes(table_.ByteSize());
    auto matches = [&](const Row& r) {
      for (size_t i = 0; i < fidx.size(); ++i)
        if (r[fidx[i]] != query.filters[i].value) return false;
      return true;
    };
    // Morsel scan; per-morsel matches concatenate in morsel order, which
    // is the row order.
    exec::ParallelForOptions loop;
    loop.label = "rolap_filter_scan";
    exec::ExecOptions xo;
    xo.threads = query.threads;
    loop.max_workers = xo.EffectiveThreads();
    std::vector<std::vector<Row>> parts(
        table_.num_rows() == 0
            ? 0
            : (table_.num_rows() + loop.morsel_size - 1) / loop.morsel_size);
    exec::ParallelFor(
        table_.num_rows(),
        [&](size_t m, size_t begin, size_t end) {
          for (size_t r = begin; r < end; ++r)
            if (matches(table_.row(r))) parts[m].push_back(table_.row(r));
        },
        loop);
    for (std::vector<Row>& part : parts)
      for (Row& r : part) filtered.AppendRowUnchecked(std::move(r));
    obs::RecordOperator("backend.filter_scan", table_.num_rows(),
                        filtered.num_rows());
    std::string measure = table_.schema().column(measure_idx_).name;
    return exec::ParallelGroupBy(filtered, query.group_dims,
                                 {{AggFn::kSum, measure, "sum"}}, xo);
  }

  size_t ByteSize() const override {
    size_t b = table_.ByteSize();
    for (const auto& dim_index : indexes_)
      for (const auto& [v, bm] : dim_index) b += bm.ByteSize();
    return b;
  }
  BlockCounter& counter() override { return counter_; }

 private:
  Result<std::vector<size_t>> FilterIdx(
      const std::vector<EqFilter>& filters) const {
    std::vector<size_t> out;
    for (const auto& f : filters) {
      STATCUBE_ASSIGN_OR_RETURN(size_t i, table_.schema().IndexOf(f.column));
      out.push_back(i);
    }
    return out;
  }

  Result<double> SumScan(const std::vector<EqFilter>& filters) {
    STATCUBE_ASSIGN_OR_RETURN(std::vector<size_t> fidx, FilterIdx(filters));
    counter_.ChargeBytes(table_.ByteSize());
    double sum = 0;
    for (const Row& r : table_.rows()) {
      bool match = true;
      for (size_t i = 0; i < fidx.size(); ++i) {
        if (r[fidx[i]] != filters[i].value) {
          match = false;
          break;
        }
      }
      if (match && r[measure_idx_].is_numeric())
        sum += r[measure_idx_].AsDouble();
    }
    return sum;
  }

  Result<double> SumIndexed(const std::vector<EqFilter>& filters) {
    BitVector match(table_.num_rows(), true);
    for (const auto& f : filters) {
      auto dit = std::find(dim_names_.begin(), dim_names_.end(), f.column);
      if (dit == dim_names_.end())
        return Status::NotFound("no dimension '" + f.column + "'");
      size_t d = size_t(dit - dim_names_.begin());
      auto vit = indexes_[d].find(f.value);
      if (vit == indexes_[d].end()) return 0.0;  // value never occurs
      counter_.ChargeBytes(vit->second.ByteSize());
      match.AndWith(vit->second);
    }
    // Read only the matching measure cells.
    double sum = 0;
    size_t matched = 0;
    for (size_t i = 0; i < table_.num_rows(); ++i) {
      if (!match.Get(i)) continue;
      ++matched;
      const Value& v = table_.at(i, measure_idx_);
      if (v.is_numeric()) sum += v.AsDouble();
    }
    counter_.ChargeBytes(matched * sizeof(double));
    return sum;
  }

  void BuildIndexes() {
    indexes_.resize(dim_names_.size());
    for (size_t d = 0; d < dim_names_.size(); ++d) {
      for (size_t i = 0; i < table_.num_rows(); ++i) {
        const Value& v = table_.at(i, d);
        auto it = indexes_[d].find(v);
        if (it == indexes_[d].end())
          it = indexes_[d].emplace(v, BitVector(table_.num_rows())).first;
        it->second.Set(i, true);
      }
    }
  }

  Table table_;
  size_t measure_idx_;
  RolapBackendOptions options_;
  std::vector<std::string> dim_names_;
  std::vector<std::map<Value, BitVector>> indexes_;  // per dim: value -> rows
  BlockCounter counter_;
};

}  // namespace

Result<std::unique_ptr<CubeBackend>> MakeMolapBackend(
    const StatisticalObject& obj, const std::string& measure) {
  STATCUBE_ASSIGN_OR_RETURN(MolapCube cube, MolapCube::Build(obj, measure));
  std::vector<std::string> names;
  std::vector<std::vector<Value>> values;
  for (const auto& d : obj.dimensions()) {
    names.push_back(d.name());
    values.push_back(d.values());
  }
  return std::unique_ptr<CubeBackend>(
      new MolapBackend(std::move(cube), std::move(names), std::move(values)));
}

Result<std::unique_ptr<CubeBackend>> MakeRolapBackend(
    const StatisticalObject& obj, const std::string& measure,
    const RolapBackendOptions& options) {
  STATCUBE_ASSIGN_OR_RETURN(size_t midx,
                            obj.data().schema().IndexOf(measure));
  return std::unique_ptr<CubeBackend>(new RolapBackend(obj, midx, options));
}

}  // namespace statcube
