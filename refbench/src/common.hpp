// Shared pieces of the refbench workloads: options, timing, statistics and
// the result every workload returns.
#pragma once

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace refbench {

class Tracer;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool smoke = false;        // tiny sizes: the benchmark's own smoke test
  std::string refereectl;    // refereectl binary, served by service-mix
  std::string work_dir;      // graph files, transcripts, socket, trace JSON
  std::size_t nproc = 1;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports. `attempted`/`failed` count ops; a failed
/// op is a silent-wrong cell, a loud outcome where the input is in class, a
/// faulted cell refused by the wrong detector, or a non-ok / mismatched
/// service response. `correct` is false on any failure.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;

  void add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back({name, value, unit});
  }
  /// Count one failed op and say why on stderr.
  void fail(const std::string& why);
};

inline std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double seconds_since(std::int64_t start_ns) {
  return static_cast<double>(now_ns() - start_ns) * 1e-9;
}

/// Median (mean of the middle pair for even counts); 0 for no samples.
double median(std::vector<double> values);

/// Nearest-rank quantile, q in (0, 1]; 0 for no samples.
double quantile(std::vector<double> values, double q);

/// Peak resident set of this process, in MiB.
double self_peak_rss_mb();

/// Set-up is repeated this many times per run and reported as the median.
inline constexpr int kSetupRepeats = 5;

/// The end-to-end metrics, identical on every workload. `op_ms` holds the
/// timed ops; `cells`, `nodes` and `requests` are the work done in
/// `wall_s` seconds of the timed phase.
struct EndToEnd {
  double setup_s = 0.0;
  std::vector<double> op_ms;
  double wall_s = 0.0;
  double cells = 0.0;
  double nodes = 0.0;
  double requests = 0.0;
  double peak_rss_mb = 0.0;
};
void add_end_to_end(RunResult& result, const EndToEnd& e2e);

RunResult run_kdeg_uniform(const Options& opts, Tracer* tracer);
RunResult run_campaign_sweep(const Options& opts, Tracer* tracer);
RunResult run_file_tree(const Options& opts, Tracer* tracer);
RunResult run_service_mix(const Options& opts, Tracer* tracer);

}  // namespace refbench
