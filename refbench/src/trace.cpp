#include "trace.hpp"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <stdexcept>
#include <unordered_map>

namespace refbench {

namespace {

thread_local std::vector<std::uint64_t> t_open_spans;

unsigned thread_index() {
  static std::atomic<unsigned> next{1};
  thread_local const unsigned index = next.fetch_add(1);
  return index;
}

}  // namespace

Tracer::Scope::Scope(Tracer* tracer, const char* name, std::uint64_t op)
    : tracer_(tracer), name_(name), op_(op) {
  if (tracer_ == nullptr) return;
  id_ = tracer_->next_id_.fetch_add(1);
  parent_ = t_open_spans.empty() ? 0 : t_open_spans.back();
  t_open_spans.push_back(id_);
  start_ns_ = now_ns();
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  const std::int64_t end = now_ns();
  t_open_spans.pop_back();
  tracer_->record(Span{name_, start_ns_, end, id_, parent_, op_, thread_index()});
}

void Tracer::record(const Span& span) {
  const std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(span);
}

std::vector<Tracer::Span> Tracer::spans() const {
  const std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

void Tracer::write_chrome_json(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::int64_t origin = 0;
  if (!all.empty()) {
    origin = std::min_element(all.begin(), all.end(),
                              [](const Span& a, const Span& b) {
                                return a.start_ns < b.start_ns;
                              })->start_ns;
  }
  std::ofstream out(path, std::ios::binary);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n";
  char line[512];
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::snprintf(line, sizeof line,
                  "{\"name\": \"%s\", \"cat\": \"refbench\", \"ph\": \"X\", "
                  "\"ts\": %.3f, \"dur\": %.3f, \"pid\": 1, \"tid\": %u, "
                  "\"args\": {\"op\": %llu, \"id\": %llu, \"parent\": %llu}}%s\n",
                  s.name, static_cast<double>(s.start_ns - origin) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3, s.tid,
                  static_cast<unsigned long long>(s.op),
                  static_cast<unsigned long long>(s.id),
                  static_cast<unsigned long long>(s.parent),
                  i + 1 < all.size() ? "," : "");
    out << line;
  }
  out << "]}\n";
}

std::vector<std::int64_t> self_times_ns(
    const std::vector<Tracer::Span>& spans) {
  std::unordered_map<std::uint64_t, std::size_t> index;
  for (std::size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> children(
      spans.size());
  for (const Tracer::Span& s : spans) {
    const auto it = index.find(s.parent);
    if (it != index.end()) children[it->second].emplace_back(s.start_ns, s.end_ns);
  }
  std::vector<std::int64_t> self(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    std::int64_t covered = 0;
    std::int64_t lo = 0;
    std::int64_t hi = -1;
    for (const auto& [start, end] : kids) {
      if (start > hi) {
        covered += hi - lo;
        lo = start;
        hi = end;
      } else {
        hi = std::max(hi, end);
      }
    }
    if (!kids.empty()) covered += hi - lo;
    self[i] = (spans[i].end_ns - spans[i].start_ns) - covered;
  }
  return self;
}

Coverage root_coverage(const std::vector<Tracer::Span>& spans,
                       const std::string& root) {
  const std::vector<std::int64_t> self = self_times_ns(spans);
  Coverage coverage;
  double wall = 0.0;
  double uncovered = 0.0;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Tracer::Span& s = spans[i];
    if (s.parent != 0 || root != s.name || s.end_ns <= s.start_ns) continue;
    const auto duration = static_cast<double>(s.end_ns - s.start_ns);
    coverage.each.push_back(1.0 - static_cast<double>(self[i]) / duration);
    coverage.min = std::min(coverage.min, coverage.each.back());
    wall += duration;
    uncovered += static_cast<double>(self[i]);
  }
  if (wall > 0.0) coverage.overall = 1.0 - uncovered / wall;
  return coverage;
}

void add_per_layer(RunResult& result,
                   const std::map<std::string, double>& layer_ms,
                   const std::map<std::string, double>& values) {
  for (const LayerMetric& m : kPerLayerMetrics) {
    const std::string name = m.name;
    double value = 0.0;
    if (const auto it = values.find(name); it != values.end()) {
      value = it->second;
    } else if (name.size() > 3 && name.ends_with("_ms")) {
      if (const auto span = layer_ms.find(name.substr(0, name.size() - 3));
          span != layer_ms.end()) {
        value = span->second;
      }
    }
    result.add(name, value, m.unit);
  }
}

}  // namespace refbench
