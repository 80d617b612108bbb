// In-memory span recorder for the traced run.
//
// A span covers one call the driver makes into a layer: its name, start and
// end (microseconds since the recorder was created), the span that caused
// it, and the request it belongs to. Counters measured at the same
// boundary (IoStats / EXPLAIN / MemoryTracker deltas) ride along as named
// attributes, so ratios are computed from work done where it happened.
// Each thread appends to its own vector of spans and merges it into the
// recorder when done; the whole set is written out once, at the end.
#ifndef PERFBENCH_TRACE_H_
#define PERFBENCH_TRACE_H_

#include <atomic>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "util.h"

namespace perfbench {

struct Span {
  uint64_t id = 0;
  uint64_t parent = 0;   // 0 = root
  uint64_t request = 0;  // shared by every span of one request
  const char* name = "";
  double start_us = 0;
  double end_us = 0;
  std::vector<std::pair<const char*, double>> attrs;

  double dur_us() const { return end_us - start_us; }
  void Set(const char* key, double value) { attrs.emplace_back(key, value); }
  /// Attribute value, or `fallback` when the span does not carry it.
  double Get(const char* key, double fallback = 0) const {
    for (const auto& [k, v] : attrs) {
      if (std::strcmp(k, key) == 0) return v;
    }
    return fallback;
  }
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled), epoch_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  bool enabled() const { return enabled_; }
  uint64_t NewId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  double NowUs() const { return SecondsBetween(epoch_, Clock::now()) * 1e6; }

  /// Opens a span; close it with End().
  Span Begin(const char* name, uint64_t parent, uint64_t request) {
    Span s;
    s.id = NewId();
    s.parent = parent;
    s.request = request;
    s.name = name;
    s.start_us = NowUs();
    return s;
  }
  void End(Span* s) const { s->end_us = NowUs(); }

  /// Moves one thread's finished spans into the shared set.
  void Merge(std::vector<Span>* buffer) {
    std::lock_guard<std::mutex> lock(mutex_);
    for (Span& s : *buffer) spans_.push_back(std::move(s));
    buffer->clear();
  }

  /// All merged spans; call once every recording thread has merged.
  const std::vector<Span>& spans() const { return spans_; }

  /// Writes one JSON object per span. Returns false on I/O failure.
  bool WriteJsonLines(const std::string& path) const {
    std::ofstream out(path);
    if (!out) return false;
    for (const Span& s : spans_) {
      out << "{\"id\":" << s.id << ",\"parent\":" << s.parent
          << ",\"request\":" << s.request << ",\"name\":\""
          << JsonEscape(s.name) << "\",\"start_us\":"
          << JsonNumber(s.start_us) << ",\"end_us\":" << JsonNumber(s.end_us);
      for (const auto& [k, v] : s.attrs) {
        out << ",\"" << JsonEscape(k) << "\":" << JsonNumber(v);
      }
      out << "}\n";
    }
    return static_cast<bool>(out);
  }

 private:
  const bool enabled_;
  const Clock::time_point epoch_;
  std::atomic<uint64_t> next_id_{1};
  std::mutex mutex_;
  std::vector<Span> spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_TRACE_H_
