// refbench: the referee benchmark driver.
//
//   refbench --workload <kdeg-uniform|campaign-sweep|file-tree|service-mix>
//            --seed N --seconds S --trace 0|1 --refereectl PATH
//            --work-dir DIR [--commit C] [--source-digest D] [--smoke]
//
// Untraced runs print the end-to-end metrics; traced runs (--trace 1)
// record spans around every call into the library and print the per-layer
// metrics instead, writing the spans to DIR/trace-<workload>-<seed>.json.
// Lines starting with '#' are for people: the machine stamp, each metric,
// failed_frac and the trace summary. The last line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// Exit codes: 0 correct, 1 a check failed (the result is still printed),
// 2 bad usage or an error, 3 skipped because the machine has too few CPUs.
#include <sched.h>
#include <unistd.h>

#include <cmath>
#include <cpuid.h>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <iostream>
#include <map>
#include <string>

#include "common.hpp"
#include "trace.hpp"

namespace refbench {
namespace {

std::size_t cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof set, &set) == 0) {
    return static_cast<std::size_t>(CPU_COUNT(&set));
  }
  return static_cast<std::size_t>(sysconf(_SC_NPROCESSORS_ONLN));
}

std::string cpu_model() {
  unsigned regs[12] = {};
  unsigned max_leaf = __get_cpuid_max(0x80000000u, nullptr);
  if (max_leaf < 0x80000004u) return "unknown";
  for (unsigned i = 0; i < 3; ++i) {
    __get_cpuid(0x80000002u + i, &regs[4 * i], &regs[4 * i + 1],
                &regs[4 * i + 2], &regs[4 * i + 3]);
  }
  char brand[49] = {};
  std::memcpy(brand, regs, 48);
  std::string model(brand);
  model.erase(0, model.find_first_not_of(' '));
  return model;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) >= 0x20) out += c;
  }
  return out + "\"";
}

std::string number(double value) {
  char text[64];
  std::snprintf(text, sizeof text, "%.17g", value);
  return text;
}

int usage(const std::string& why) {
  std::cerr << "refbench: " << why
            << "\nusage: refbench --workload W --seed N --seconds S --trace "
               "0|1 --refereectl PATH --work-dir DIR [--commit C] "
               "[--source-digest D] [--smoke]\n";
  return 2;
}

}  // namespace
}  // namespace refbench

int main(int argc, char** argv) {
  using namespace refbench;
  Options opts;
  std::string commit = "unknown";
  std::string digest = "unknown";
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (flag == "--smoke") {
        opts.smoke = true;
        continue;
      }
      if (i + 1 >= argc) return usage("missing value for " + flag);
      const std::string value = argv[++i];
      if (flag == "--workload") {
        opts.workload = value;
      } else if (flag == "--seed") {
        opts.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opts.seconds = std::stod(value);
      } else if (flag == "--trace") {
        opts.trace = value == "1";
      } else if (flag == "--refereectl") {
        opts.refereectl = value;
      } else if (flag == "--work-dir") {
        opts.work_dir = value;
      } else if (flag == "--commit") {
        commit = value;
      } else if (flag == "--source-digest") {
        digest = value;
      } else {
        return usage("unknown flag " + flag);
      }
    }
  } catch (const std::exception&) {
    return usage("malformed number");
  }
  const std::map<std::string, RunResult (*)(const Options&, Tracer*)> workloads{
      {"kdeg-uniform", run_kdeg_uniform},
      {"campaign-sweep", run_campaign_sweep},
      {"file-tree", run_file_tree},
      {"service-mix", run_service_mix},
  };
  const auto workload = workloads.find(opts.workload);
  if (workload == workloads.end()) return usage("unknown workload " + opts.workload);
  if (opts.work_dir.empty()) return usage("--work-dir is required");
  std::filesystem::create_directories(opts.work_dir);
  opts.nproc = cpu_count();

  std::cout << "# stamp {\"workload\": " << json_string(opts.workload)
            << ", \"seed\": " << opts.seed
            << ", \"trace\": " << (opts.trace ? 1 : 0)
            << ", \"num_cpus\": " << opts.nproc
            << ", \"cpu_model\": " << json_string(cpu_model())
            << ", \"llc_bytes\": " << sysconf(_SC_LEVEL3_CACHE_SIZE)
            << ", \"compiler\": " << json_string(REFBENCH_COMPILER)
            << ", \"build_type\": " << json_string(REFBENCH_BUILD_TYPE)
            << ", \"git_commit\": " << json_string(commit)
            << ", \"source_digest\": " << json_string(digest) << "}\n";

  Tracer tracer;
  RunResult result;
  try {
    result = workload->second(opts, opts.trace ? &tracer : nullptr);
  } catch (const std::exception& e) {
    const std::string what = e.what();
    std::cerr << "refbench: " << what << "\n";
    std::cout << "# " << what << "\n";
    return what.starts_with("skipped:") ? 3 : 2;
  }
  if (opts.trace) {
    const std::string path =
        (std::filesystem::path(opts.work_dir) /
         ("trace-" + opts.workload + "-" + std::to_string(opts.seed) + ".json"))
            .string();
    tracer.write_chrome_json(path);
    std::cout << "# trace spans written to " << path << "\n";
  }
  if (result.attempted == 0) result.fail("no op was attempted");

  std::string metrics;
  for (const Metric& m : result.metrics) {
    if (!std::isfinite(m.value)) result.fail(m.name + " is not a finite number");
    const double value = std::isfinite(m.value) ? m.value : 0.0;
    std::cout << "# metric " << m.name << " " << number(value) << " " << m.unit
              << "\n";
    metrics += (metrics.empty() ? "" : ", ") + json_string(m.name) +
               ": {\"value\": " + number(value) +
               ", \"unit\": " + json_string(m.unit) + "}";
  }
  std::cout << "# failed_frac "
            << number(static_cast<double>(result.failed) /
                      static_cast<double>(result.attempted))
            << "\n";
  std::cout << "{\"correct\": " << (result.correct ? "true" : "false")
            << ", \"attempted\": " << result.attempted
            << ", \"failed\": " << result.failed << ", \"metrics\": {"
            << metrics << "}}" << std::endl;
  return result.correct ? 0 : 1;
}
