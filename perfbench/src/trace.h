// The benchmark's own tracer, used only by a traced run (`--trace 1`). The
// benchmark opens a span around each call it makes into a module's public
// functions; spans are kept in memory and written out as JSON lines when the
// run ends. An untraced run never constructs a Tracer, so the end-to-end
// figures carry no tracing cost.

#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// One recorded interval.
struct SpanRec {
  uint64_t id = 0;
  uint64_t parent = 0;   ///< 0 = root
  uint64_t request = 0;  ///< operation the span belongs to
  std::string name;      ///< layer name, e.g. "query.parse"
  std::string tag;       ///< optional detail, e.g. the query label
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t self_ns = 0;  ///< filled in by Tracer::ComputeSelfTimes
};

/// Thread-safe in-memory span store. Parents are explicit ids, so a span
/// opened on a server worker can name the client span that caused it.
class Tracer {
 public:
  /// Opens a span and returns its id.
  uint64_t Begin(std::string name, uint64_t request, uint64_t parent,
                 std::string tag = "");
  /// Closes span `id`.
  void End(uint64_t id);
  /// Records an already measured interval.
  uint64_t Record(std::string name, uint64_t request, uint64_t parent,
                  uint64_t start_ns, uint64_t end_ns, std::string tag = "");

  /// Self time of every span: its duration minus the part of it that its
  /// children cover. Call once, after the last span has ended.
  void ComputeSelfTimes();
  /// All spans (after ComputeSelfTimes, with self times).
  const std::vector<SpanRec>& spans() const { return spans_; }
  /// Writes one JSON object per span to `path`; false on an I/O error.
  bool WriteJsonl(const std::string& path) const;

  /// Mean self time in microseconds of the spans named `name` (and tagged
  /// `tag` when it is not empty); 0 when there are none.
  double MeanSelfUs(const std::string& name, const std::string& tag = "") const;

 private:
  std::mutex mu_;
  uint64_t next_id_ = 1;
  std::vector<SpanRec> spans_;
  std::map<uint64_t, size_t> open_;  // id -> index in spans_
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
