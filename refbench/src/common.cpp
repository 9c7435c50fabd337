#include "common.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <iostream>

namespace refbench {

void RunResult::fail(const std::string& why) {
  correct = false;
  ++failed;
  std::cerr << "refbench: FAILED: " << why << "\n";
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t mid = values.size() / 2;
  return values.size() % 2 == 1 ? values[mid]
                                : 0.5 * (values[mid - 1] + values[mid]);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(values.size())));
  return values[std::clamp<std::size_t>(rank, 1, values.size()) - 1];
}

double self_peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void add_end_to_end(RunResult& result, const EndToEnd& e2e) {
  double sum_ms = 0.0;
  for (const double ms : e2e.op_ms) sum_ms += ms;
  const auto ops = static_cast<double>(e2e.op_ms.size());
  result.add("setup_s", e2e.setup_s, "s");
  result.add("op_ms_mean", sum_ms / ops, "ms");
  result.add("op_ms_p90", quantile(e2e.op_ms, 0.9), "ms");
  result.add("cells_per_s", e2e.cells / e2e.wall_s, "1/s");
  result.add("nodes_per_s", e2e.nodes / e2e.wall_s, "1/s");
  result.add("requests_per_s", e2e.requests / e2e.wall_s, "1/s");
  result.add("peak_rss_mb", e2e.peak_rss_mb, "MB");
  std::cout << "# ops " << e2e.op_ms.size() << " in " << e2e.wall_s
            << " s; op median " << median(e2e.op_ms) << " ms; p90 rests on "
            << e2e.op_ms.size() / 10 << " samples above it\n";
}

}  // namespace refbench
