// In-memory span and count recorder for the benchmark's traced run.
//
// The library carries no tracing of its own, so the driver records a
// span around each call it makes into a layer (name, start, end, parent)
// and a count of the work that call did.  Everything stays in memory
// until write_json(), which runs after the measurement ends.  A layer's
// self time is its spans' duration minus the part covered by their
// direct children; spans nest strictly because the driver records them
// from one thread only.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

namespace perfbench {

class SpanRecorder {
 public:
  SpanRecorder();

  /// Opens a span named `name` as a child of the innermost open span.
  /// Returns its id for close().
  int open(const std::string& name);
  /// Closes span `id`, which must be the innermost open span.
  void close(int id);

  /// Adds `delta` to the counter `name`.
  void count(const std::string& name, double delta);

  struct LayerTime {
    std::int64_t spans = 0;
    double total_ns = 0.0;
    double self_ns = 0.0;
  };
  /// Per span name: number of spans, summed duration and summed self
  /// time (duration minus the duration of direct children).
  std::map<std::string, LayerTime> layer_times() const;

  /// Writes {"spans": [...], "counts": {...}, "self_time": {...}}.
  /// Returns false when the file cannot be written.
  bool write_json(const std::string& path) const;

 private:
  struct Span {
    int name = 0;
    int parent = -1;
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
  };

  std::int64_t now_ns() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<std::string> names_;
  std::unordered_map<std::string, int> name_ids_;
  std::vector<Span> spans_;
  std::vector<int> open_;
  std::map<std::string, double> counts_;
};

/// Opens a span on construction and closes it on destruction.  A null
/// recorder makes it a no-op (no name is even built), so untraced runs
/// share the code path.
class ScopedSpan {
 public:
  ScopedSpan(SpanRecorder* recorder, std::string_view name)
      : recorder_(recorder),
        id_(recorder != nullptr ? recorder->open(std::string(name)) : -1) {}
  ~ScopedSpan() {
    if (recorder_ != nullptr) recorder_->close(id_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanRecorder* recorder_;
  int id_;
};

}  // namespace perfbench
