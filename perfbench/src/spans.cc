#include "spans.h"

#include <cstdio>
#include <cstdlib>

namespace perfbench {

SpanRecorder::SpanRecorder() : origin_(std::chrono::steady_clock::now()) {}

std::int64_t SpanRecorder::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now() - origin_)
      .count();
}

int SpanRecorder::open(const std::string& name) {
  auto [it, inserted] =
      name_ids_.try_emplace(name, static_cast<int>(names_.size()));
  if (inserted) names_.push_back(name);
  Span span;
  span.name = it->second;
  span.parent = open_.empty() ? -1 : open_.back();
  span.start_ns = now_ns();
  spans_.push_back(span);
  const int id = static_cast<int>(spans_.size()) - 1;
  open_.push_back(id);
  return id;
}

void SpanRecorder::close(int id) {
  // Called from ~ScopedSpan, so a nesting bug aborts instead of throwing.
  if (open_.empty() || open_.back() != id) {
    std::fputs("SpanRecorder: spans must close innermost first\n", stderr);
    std::abort();
  }
  spans_[static_cast<std::size_t>(id)].end_ns = now_ns();
  open_.pop_back();
}

void SpanRecorder::count(const std::string& name, double delta) {
  counts_[name] += delta;
}

std::map<std::string, SpanRecorder::LayerTime> SpanRecorder::layer_times()
    const {
  std::vector<double> child_ns(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0 && span.end_ns >= 0) {
      child_ns[static_cast<std::size_t>(span.parent)] +=
          static_cast<double>(span.end_ns - span.start_ns);
    }
  }
  std::map<std::string, LayerTime> times;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    if (span.end_ns < 0) continue;
    const double duration = static_cast<double>(span.end_ns - span.start_ns);
    LayerTime& t = times[names_[static_cast<std::size_t>(span.name)]];
    ++t.spans;
    t.total_ns += duration;
    t.self_ns += duration - child_ns[i];
  }
  return times;
}

bool SpanRecorder::write_json(const std::string& path) const {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fputs("{\"spans\":[", out);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& span = spans_[i];
    std::fprintf(out,
                 "%s\n{\"id\":%zu,\"name\":\"%s\",\"parent\":%d,"
                 "\"start_ns\":%lld,\"end_ns\":%lld}",
                 i == 0 ? "" : ",", i,
                 names_[static_cast<std::size_t>(span.name)].c_str(),
                 span.parent, static_cast<long long>(span.start_ns),
                 static_cast<long long>(span.end_ns));
  }
  std::fputs("\n],\"counts\":{", out);
  bool first = true;
  for (const auto& [name, value] : counts_) {
    std::fprintf(out, "%s\n\"%s\":%.17g", first ? "" : ",", name.c_str(),
                 value);
    first = false;
  }
  std::fputs("\n},\"self_time\":{", out);
  first = true;
  for (const auto& [name, t] : layer_times()) {
    std::fprintf(out,
                 "%s\n\"%s\":{\"spans\":%lld,\"total_ms\":%.6f,"
                 "\"self_ms\":%.6f}",
                 first ? "" : ",", name.c_str(),
                 static_cast<long long>(t.spans), t.total_ns * 1e-6,
                 t.self_ns * 1e-6);
    first = false;
  }
  std::fputs("\n}}\n", out);
  return std::fclose(out) == 0;
}

}  // namespace perfbench
