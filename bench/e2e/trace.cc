#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace ccidx {
namespace e2e {

void Tracer::Record(const Span& span) {
  if (!armed()) return;
  std::lock_guard lock(mu_);
  if (spans_.size() >= capacity_) {
    dropped_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  if (spans_.empty()) spans_.reserve(capacity_);
  spans_.push_back(span);
}

size_t Tracer::size() const {
  std::lock_guard lock(mu_);
  return spans_.size();
}

std::map<std::string, Tracer::SelfTime> Tracer::SelfTimes() const {
  std::lock_guard lock(mu_);
  std::unordered_map<uint64_t, std::vector<size_t>> children;
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != 0) children[spans_[i].parent].push_back(i);
  }
  std::map<std::string, SelfTime> out;
  std::vector<std::pair<int64_t, int64_t>> cover;
  for (const Span& s : spans_) {
    const int64_t duration = s.end_ns - s.start_ns;
    int64_t covered = 0;
    if (auto it = children.find(s.id); it != children.end()) {
      // Union of the children's intervals, clipped to this span.
      cover.clear();
      for (size_t c : it->second) {
        const int64_t lo = std::max(spans_[c].start_ns, s.start_ns);
        const int64_t hi = std::min(spans_[c].end_ns, s.end_ns);
        if (lo < hi) cover.emplace_back(lo, hi);
      }
      std::sort(cover.begin(), cover.end());
      int64_t run_lo = 0, run_hi = 0;
      bool open = false;
      for (const auto& [lo, hi] : cover) {
        if (open && lo <= run_hi) {
          run_hi = std::max(run_hi, hi);
          continue;
        }
        if (open) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
        open = true;
      }
      if (open) covered += run_hi - run_lo;
    }
    SelfTime& t = out[s.name];
    // Running means: count first, then fold the new sample in.
    ++t.count;
    const double n = static_cast<double>(t.count);
    t.mean_self_ns += (static_cast<double>(duration - covered) -
                       t.mean_self_ns) / n;
    t.mean_duration_ns +=
        (static_cast<double>(duration) - t.mean_duration_ns) / n;
  }
  return out;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::lock_guard lock(mu_);
  for (const Span& s : spans_) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"id\": %llu, \"start_ns\": %lld, "
                 "\"end_ns\": %lld, \"parent\": %llu, \"req\": %llu}\n",
                 s.name, static_cast<unsigned long long>(s.id),
                 static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.req));
  }
  return std::fclose(f) == 0;
}

}  // namespace e2e
}  // namespace ccidx
