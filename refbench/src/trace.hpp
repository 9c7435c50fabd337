// In-memory span tracer for the traced run.
//
// Spans are recorded only by the benchmark's own code, around its calls
// into each module of the library; nothing inside the program is
// instrumented. A span has a name (the layer, "model.seal"), a start and
// end on the steady clock, the span that was open on the same thread when
// it began (its parent), and the id of the op it belongs to. Spans stay in
// memory and are written once, at exit, as Chrome trace-event JSON
// (chrome://tracing and Perfetto open it as a plain file).
//
// A layer's self time is its span's duration minus the part of that
// interval its child spans cover; summing self times by name gives the
// per-layer split, and a root span's children cover 1 - self/duration of
// its wall time.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "common.hpp"

namespace refbench {

class Tracer {
 public:
  struct Span {
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = 0;
    std::uint64_t id = 0;
    std::uint64_t parent = 0;  // 0 for a root span
    std::uint64_t op = 0;
    unsigned tid = 0;
  };

  /// Opens a span on construction and records it on destruction; a null
  /// tracer makes it a no-op, so untraced runs share the traced code.
  class Scope {
   public:
    Scope(Tracer* tracer, const char* name, std::uint64_t op);
    ~Scope();
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

   private:
    Tracer* tracer_;
    const char* name_;
    std::uint64_t op_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    std::int64_t start_ns_ = 0;
  };

  std::vector<Span> spans() const;

  void write_chrome_json(const std::string& path) const;

 private:
  void record(const Span& span);

  mutable std::mutex mutex_;
  std::vector<Span> spans_;
  std::atomic<std::uint64_t> next_id_{1};
};

/// Self time of every span (duration minus the merged coverage of its
/// children), indexed like `spans`.
std::vector<std::int64_t> self_times_ns(const std::vector<Tracer::Span>& spans);

/// Self time summed by span name, in ms, over the spans `keep` accepts.
template <class Keep>
std::map<std::string, double> self_ms_by_name(
    const std::vector<Tracer::Span>& spans, Keep&& keep) {
  const std::vector<std::int64_t> self = self_times_ns(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    if (keep(spans[i])) out[spans[i].name] += static_cast<double>(self[i]) * 1e-6;
  }
  return out;
}

/// The share of root spans' wall time that their descendants cover, over
/// the root spans named `root`: each root's share in recording order, the
/// smallest, and the share of their summed wall time (1.0 when none).
struct Coverage {
  std::vector<double> each;
  double min = 1.0;
  double overall = 1.0;
};
Coverage root_coverage(const std::vector<Tracer::Span>& spans,
                       const std::string& root);

/// Every per-layer metric the traced run prints, in BENCHMARK.json order.
/// A layer that a workload does not exercise reads 0.
struct LayerMetric {
  const char* name;
  const char* unit;
};
inline constexpr LayerMetric kPerLayerMetrics[] = {
    {"graph.input_ms", "ms"},
    {"graph.truth_ms", "ms"},
    {"model.pack_ms", "ms"},
    {"model.local_ms", "ms"},
    {"model.audit_ms", "ms"},
    {"model.seal_ms", "ms"},
    {"model.inject_ms", "ms"},
    {"model.open_ms", "ms"},
    {"model.multi_round_ms", "ms"},
    {"model.wire_bytes", "bytes"},
    {"protocols.reconstruct_ms", "ms"},
    {"protocols.decide_ms", "ms"},
    {"protocols.decode_shape_4n", "ratio"},
    {"sketch.decide_ms", "ms"},
    {"support.arena_growth", "count"},
    {"campaign.plan_ms", "ms"},
    {"campaign.run_ms", "ms"},
    {"campaign.report_ms", "ms"},
    {"campaign.report_bytes", "bytes"},
    {"campaign.worker_busy_frac", "frac"},
    {"campaign.loud_frac", "frac"},
    {"service.call_ms", "ms"},
    {"service.handler_ms", "ms"},
    {"service.wait_ms", "ms"},
    {"service.batched_frac", "frac"},
    {"service.shed", "count"},
    {"service.frame_bytes", "bytes"},
    {"trace.cell_coverage", "frac"},
    {"trace.overhead_frac", "frac"},
};

/// Print every per-layer metric: span self times per op (`layer_ms`, keyed
/// by span name, already divided by the op count) become "<name>_ms";
/// `values` supplies the rest by metric name.
void add_per_layer(RunResult& result,
                   const std::map<std::string, double>& layer_ms,
                   const std::map<std::string, double>& values);

}  // namespace refbench
