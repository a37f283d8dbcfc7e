#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>

#include "bench.h"

namespace perfbench {

uint64_t Tracer::Begin(std::string name, uint64_t request, uint64_t parent,
                       std::string tag) {
  uint64_t start = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t id = next_id_++;
  open_[id] = spans_.size();
  spans_.push_back(
      {id, parent, request, std::move(name), std::move(tag), start, 0, 0});
  return id;
}

void Tracer::End(uint64_t id) {
  uint64_t end = NowNs();
  std::lock_guard<std::mutex> lock(mu_);
  auto it = open_.find(id);
  if (it == open_.end()) return;
  spans_[it->second].end_ns = end;
  open_.erase(it);
}

uint64_t Tracer::Record(std::string name, uint64_t request, uint64_t parent,
                        uint64_t start_ns, uint64_t end_ns, std::string tag) {
  std::lock_guard<std::mutex> lock(mu_);
  uint64_t id = next_id_++;
  spans_.push_back({id, parent, request, std::move(name), std::move(tag),
                    start_ns, end_ns, 0});
  return id;
}

void Tracer::ComputeSelfTimes() {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<uint64_t, std::vector<size_t>> children;
  for (size_t i = 0; i < spans_.size(); ++i)
    if (spans_[i].parent != 0) children[spans_[i].parent].push_back(i);
  for (SpanRec& s : spans_) {
    if (s.end_ns < s.start_ns) s.end_ns = s.start_ns;  // never closed
    // Union of the children's intervals, clipped to this span.
    std::vector<std::pair<uint64_t, uint64_t>> iv;
    for (size_t c : children[s.id]) {
      uint64_t b = std::max(spans_[c].start_ns, s.start_ns);
      uint64_t e = std::min(spans_[c].end_ns, s.end_ns);
      if (b < e) iv.push_back({b, e});
    }
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0, reach = s.start_ns;
    for (const auto& [b, e] : iv) {
      uint64_t from = std::max(b, reach);
      if (e > from) covered += e - from;
      reach = std::max(reach, e);
    }
    s.self_ns = (s.end_ns - s.start_ns) - covered;
  }
}

bool Tracer::WriteJsonl(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (const SpanRec& s : spans_)
    std::fprintf(f,
                 "{\"id\":%llu,\"parent\":%llu,\"request\":%llu,"
                 "\"name\":\"%s\",\"tag\":\"%s\",\"start_ns\":%llu,"
                 "\"end_ns\":%llu,\"self_ns\":%llu}\n",
                 (unsigned long long)s.id, (unsigned long long)s.parent,
                 (unsigned long long)s.request, s.name.c_str(), s.tag.c_str(),
                 (unsigned long long)s.start_ns, (unsigned long long)s.end_ns,
                 (unsigned long long)s.self_ns);
  return std::fclose(f) == 0;
}

double Tracer::MeanSelfUs(const std::string& name,
                          const std::string& tag) const {
  double total = 0;
  size_t n = 0;
  for (const SpanRec& s : spans_) {
    if (s.name != name || (!tag.empty() && s.tag != tag)) continue;
    total += double(s.self_ns) * 1e-3;
    ++n;
  }
  return n == 0 ? 0 : total / double(n);
}

}  // namespace perfbench
