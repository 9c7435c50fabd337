// The two single-cell workloads: kdeg-uniform (the paper's case, uniform
// random ids at n and 4n, one thread) and file-tree (a file-backed random
// labelled tree, decoded with the intra-cell pool). Their end-to-end path
// is run_scenario; the traced run reassembles each cell from the layer
// calls (cells.hpp) and runs run_scenario beside it for the same spec.
#include <algorithm>
#include <filesystem>
#include <iostream>
#include <map>
#include <set>

#include "campaign/scenario.hpp"
#include "cells.hpp"
#include "common.hpp"
#include "graph/generators.hpp"
#include "graph/io.hpp"
#include "support/arena.hpp"
#include "support/random.hpp"
#include "support/thread_pool.hpp"
#include "trace.hpp"

namespace refbench {

using namespace referee;

namespace {

/// Checks one untimed-path verdict: fault-free in-class cells must decode.
void check_exact(RunResult& result, const ScenarioSpec& spec,
                 const ScenarioResult& cell) {
  if (cell.outcome != "exact") {
    result.fail(spec.generator + " n=" + std::to_string(spec.n) + " seed=" +
                std::to_string(spec.seed) + " came out " + cell.outcome +
                (cell.detail.empty() ? "" : "/" + cell.detail));
  }
}

/// The benchmark's own check of one cell's decoded edges.
void check_decoded_edges(RunResult& result, const ScenarioSpec& spec,
                         const std::string& input_edges) {
  ++result.attempted;
  if (!decodes_to(spec, input_edges)) {
    result.fail("decoded edges of " + spec.generator + " n=" +
                std::to_string(spec.n) + " differ from the input");
  }
}

/// The traced run shared by both cell workloads: every cell runs traced
/// (reassembled) and untraced (run_scenario) in alternating order, the
/// verdicts must agree, and the per-layer split is taken over the cells
/// `is_op` selects.
struct TracedCells {
  Tracer* tracer;
  std::uint64_t next_op = 1;
  std::set<std::uint64_t> op_ids;
  std::map<std::uint64_t, std::size_t> size_of_op;
  double traced_s = 0.0;
  double untraced_s = 0.0;
  double wire_bytes = 0.0;

  void run(RunResult& result, const ScenarioSpec& spec, bool is_op) {
    const std::uint64_t op = next_op++;
    std::uint64_t wire = 0;
    CellVerdict traced;
    ScenarioResult direct;
    const auto time_traced = [&] {
      const std::int64_t t0 = now_ns();
      traced = traced_cell(spec, tracer, op, &wire);
      traced_s += seconds_since(t0);
    };
    const auto time_direct = [&] {
      const std::int64_t t0 = now_ns();
      direct = run_scenario(spec);
      untraced_s += seconds_since(t0);
    };
    if (op % 2 == 0) {
      time_traced();
      time_direct();
    } else {
      time_direct();
      time_traced();
    }
    ++result.attempted;
    const std::string mismatch = verdict_mismatch(traced, verdict_of(direct));
    if (!mismatch.empty() || traced.outcome != "exact") {
      result.fail("traced cell came out " + traced.outcome +
                  (mismatch.empty() ? "" : ": " + mismatch));
    }
    size_of_op[op] = spec.n;
    if (is_op) {
      op_ids.insert(op);
      wire_bytes += static_cast<double>(wire);
    }
  }

  /// Per-op self times of the selected cells plus the trace's own figures.
  void finish(RunResult& result, std::map<std::string, double> values) const {
    const std::vector<Tracer::Span> spans = tracer->spans();
    const double ops = static_cast<double>(std::max<std::size_t>(1, op_ids.size()));
    std::map<std::string, double> layer_ms = self_ms_by_name(
        spans, [&](const Tracer::Span& s) { return op_ids.count(s.op) > 0; });
    for (auto& [name, ms] : layer_ms) ms /= ops;
    values["model.wire_bytes"] = wire_bytes / ops;
    const Coverage coverage = root_coverage(spans, "cell");
    values["trace.cell_coverage"] = coverage.overall;
    values["trace.overhead_frac"] = traced_s / untraced_s - 1.0;
    std::cout << "# trace: cell coverage min " << coverage.min << " overall "
              << coverage.overall << ", overhead "
              << values["trace.overhead_frac"] << " (traced " << traced_s
              << " s vs untraced " << untraced_s << " s)\n# trace: coverage of each cell:";
    for (const double share : coverage.each) std::cout << " " << share;
    std::cout << "\n";
    add_per_layer(result, layer_ms, values);
  }
};

/// Median self time of `layer` per cell, over cells of size `n`.
double median_layer_ms(const std::vector<Tracer::Span>& spans,
                       const std::map<std::uint64_t, std::size_t>& size_of_op,
                       const std::string& layer, std::size_t n) {
  std::map<std::uint64_t, double> per_op;
  const std::vector<std::int64_t> self = self_times_ns(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const auto it = size_of_op.find(spans[i].op);
    if (layer == spans[i].name && it != size_of_op.end() && it->second == n) {
      per_op[spans[i].op] += static_cast<double>(self[i]) * 1e-6;
    }
  }
  std::vector<double> values;
  for (const auto& [op, ms] : per_op) values.push_back(ms);
  return median(values);
}

}  // namespace

RunResult run_kdeg_uniform(const Options& opts, Tracer* tracer) {
  RunResult result;
  const std::size_t n = opts.smoke ? 96 : 1000;
  // Decode cost varies from graph to graph; cycling through many graphs
  // keeps a run's median from resting on a few of them.
  constexpr int kGraphsPerSize = 16;
  std::vector<ScenarioSpec> small;
  std::vector<ScenarioSpec> large;
  for (int i = 0; i < kGraphsPerSize; ++i) {
    ScenarioSpec spec;
    spec.generator = "kdeg";
    spec.k = 3;
    spec.protocol = "degeneracy";
    spec.seed = opts.seed * 64 + static_cast<std::uint64_t>(i) + 1;
    spec.n = n;
    small.push_back(spec);
    spec.n = 4 * n;
    large.push_back(spec);
  }

  // Set-up: generate every input with the campaign's generator. It runs on
  // min(nproc, 4) threads (the cells themselves run on one) so that one
  // vCPU's slow stretch does not set the figure. Each input must be in
  // class (degeneracy <= k), which is what makes a loud outcome a failure:
  // the benchmark's own check, made once and untimed.
  std::vector<ScenarioSpec> specs = small;
  specs.insert(specs.end(), large.begin(), large.end());
  std::vector<Graph> inputs(specs.size());
  std::vector<double> setup_s;
  {
    ThreadPool pool(std::min<std::size_t>(opts.nproc, 4));
    const auto generate = [&](std::size_t i) {
      inputs[i] = make_campaign_graph(specs[i]);
    };
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
      const std::int64_t t0 = now_ns();
      pool.parallel_for(0, specs.size(), generate, 1);
      setup_s.push_back(seconds_since(t0));
    }
  }
  for (std::size_t i = 0; i < specs.size(); ++i) {
    if (!input_in_class(specs[i], inputs[i])) {
      result.fail("kdeg input above degeneracy k");
    }
  }
  inputs.clear();
  (void)run_scenario(small.front());  // warm the decode arena

  if (tracer != nullptr) {
    (void)run_scenario(large.front());
    TracedCells cells{tracer};
    const std::uint64_t growth0 = arena_growth_events(nullptr);
    const std::int64_t start = now_ns();
    for (std::size_t i = 0; seconds_since(start) < opts.seconds || i < 2; ++i) {
      cells.run(result, small[i % kGraphsPerSize], false);
      cells.run(result, large[i % kGraphsPerSize], true);
    }
    const std::vector<Tracer::Span> spans = tracer->spans();
    const double small_ms = median_layer_ms(spans, cells.size_of_op,
                                            "protocols.reconstruct", n);
    const double large_ms = median_layer_ms(spans, cells.size_of_op,
                                            "protocols.reconstruct", 4 * n);
    cells.finish(result,
                 {{"protocols.decode_shape_4n", large_ms / small_ms},
                  {"support.arena_growth",
                   static_cast<double>(arena_growth_events(nullptr) - growth0)}});
    return result;
  }

  EndToEnd e2e;
  e2e.setup_s = median(setup_s);
  std::vector<double> small_ms;
  const std::int64_t start = now_ns();
  for (std::size_t i = 0; seconds_since(start) < opts.seconds || i < 3; ++i) {
    for (const bool is_large : {false, true}) {
      const ScenarioSpec& spec = (is_large ? large : small)[i % kGraphsPerSize];
      const std::int64_t t0 = now_ns();
      const ScenarioResult cell = run_scenario(spec);
      (is_large ? e2e.op_ms : small_ms).push_back(seconds_since(t0) * 1e3);
      ++result.attempted;
      check_exact(result, spec, cell);
      e2e.cells += 1;
      e2e.nodes += static_cast<double>(spec.n);
    }
  }
  e2e.wall_s = seconds_since(start);
  e2e.requests = e2e.cells;
  e2e.peak_rss_mb = self_peak_rss_mb();
  std::cout << "# cell median at n=" << n << ": " << median(small_ms)
            << " ms, at 4n: " << median(e2e.op_ms)
            << " ms, cell_shape_4n " << median(e2e.op_ms) / median(small_ms)
            << "\n";
  for (const ScenarioSpec* spec : {&small.front(), &large.front()}) {
    check_decoded_edges(result, *spec,
                        canonical_edges(make_campaign_graph(*spec)));
  }
  add_end_to_end(result, e2e);
  return result;
}

RunResult run_file_tree(const Options& opts, Tracer* tracer) {
  RunResult result;
  const std::size_t n = opts.smoke ? std::size_t{1} << 12 : std::size_t{1} << 18;
  const std::string path =
      (std::filesystem::path(opts.work_dir) /
       ("tree-" + std::to_string(opts.seed) + ".rgb"))
          .string();

  // Set-up: draw the seeded random labelled tree and publish it as a
  // refgrph1 edge file, the input of the file: generator.
  Graph tree;
  std::vector<double> setup_s;
  for (int rep = 0; rep < kSetupRepeats; ++rep) {
    tree = Graph();
    const std::int64_t t0 = now_ns();
    Rng rng(mix64(opts.seed ^ 0x74726565ull));  // the "tree" stream
    tree = gen::random_tree(n, rng);
    write_edge_file(path, n, tree.edges());
    setup_s.push_back(seconds_since(t0));
  }
  const std::string input_edges = canonical_edges(tree);
  tree = Graph();

  ScenarioSpec spec;
  spec.generator = "file:" + path;
  spec.n = n;
  spec.k = 1;
  spec.protocol = "degeneracy";
  spec.seed = opts.seed;

  ThreadPool pool(std::min<std::size_t>(opts.nproc, 4));
  const CellPoolScope cell_pool(&pool);
  (void)run_scenario(spec);  // warm the decode arenas and the page cache

  if (tracer != nullptr) {
    TracedCells cells{tracer};
    const std::uint64_t growth0 = arena_growth_events(&pool);
    const std::int64_t start = now_ns();
    while (seconds_since(start) < opts.seconds || cells.op_ids.size() < 2) {
      cells.run(result, spec, true);
    }
    cells.finish(result, {{"support.arena_growth",
                           static_cast<double>(arena_growth_events(&pool) - growth0)}});
    return result;
  }

  EndToEnd e2e;
  e2e.setup_s = median(setup_s);
  const std::int64_t start = now_ns();
  while (seconds_since(start) < opts.seconds || e2e.op_ms.size() < 3) {
    const std::int64_t t0 = now_ns();
    const ScenarioResult cell = run_scenario(spec);
    e2e.op_ms.push_back(seconds_since(t0) * 1e3);
    ++result.attempted;
    check_exact(result, spec, cell);
  }
  e2e.wall_s = seconds_since(start);
  e2e.cells = e2e.requests = static_cast<double>(e2e.op_ms.size());
  e2e.nodes = e2e.cells * static_cast<double>(n);
  e2e.peak_rss_mb = self_peak_rss_mb();
  check_decoded_edges(result, spec, input_edges);
  add_end_to_end(result, e2e);
  return result;
}

}  // namespace refbench
