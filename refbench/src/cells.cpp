#include "cells.hpp"

#include <algorithm>
#include <memory>
#include <numeric>
#include <vector>

#include "graph/algorithms.hpp"
#include "graph/csr.hpp"
#include "graph/degeneracy.hpp"
#include "graph/io.hpp"
#include "graph/view.hpp"
#include "model/adaptive_adversary.hpp"
#include "model/envelope.hpp"
#include "model/frugality.hpp"
#include "model/local_view.hpp"
#include "model/multi_round_runner.hpp"
#include "protocols/statistics.hpp"
#include "support/arena.hpp"
#include "support/check.hpp"
#include "support/random.hpp"
#include "trace.hpp"

namespace refbench {

using namespace referee;

namespace {

// run_scenario derives a cell's fault stream as mix64(seed ^ "fault"); the
// reassembled cell must inject the identical faults. The constant is
// private to src/campaign/scenario.cpp and repeated here; if the library
// changes it, faulted traced cells fail their check against run_scenario.
constexpr std::uint64_t kFaultStream = 0x6661756c74ull;

FaultPlan cell_fault_plan(const ScenarioSpec& spec) {
  FaultPlan plan = spec.faults;
  plan.seed = mix64(spec.seed ^ kFaultStream);
  return plan;
}

std::uint64_t wire_size_bytes(const std::vector<Message>& wire) {
  std::uint64_t bits = 0;
  for (const Message& m : wire) bits += m.bit_size();
  return (bits + 7) / 8;
}

bool is_sketch_protocol(const std::string& protocol) {
  return protocol == "connectivity" || protocol == "bipartite";
}

/// Decode the opened payloads and grade them against ground truth, one
/// span per layer; throws DecodeError for loud refusals.
std::string decode_and_grade(const ScenarioSpec& spec,
                             const LocalEncoder& encoder, GraphView g,
                             std::uint32_t n, std::span<const Message> payloads,
                             DecodeArena& arena, Tracer* tracer,
                             std::uint64_t op, Graph* decoded) {
  using Scope = Tracer::Scope;
  if (const auto* rp = dynamic_cast<const ReconstructionProtocol*>(&encoder)) {
    Graph h;
    {
      const Scope span(tracer, "protocols.reconstruct", op);
      h = rp->reconstruct(n, payloads, arena);
    }
    bool exact = false;
    {
      const Scope span(tracer, "graph.truth", op);
      exact = graphs_equal(h, g);
    }
    const Scope span(tracer, "protocols.reconstruct", op);
    if (decoded != nullptr) *decoded = std::move(h);
    h = Graph();  // freeing the decoded graph is part of the decode's cost
    return exact ? "exact" : "silent-wrong";
  }
  if (spec.protocol == "stats") {
    std::uint64_t edges = 0;
    std::uint32_t max_degree = 0;
    {
      const Scope span(tracer, "protocols.decide", op);
      auto degrees_s = arena.scratch<std::uint32_t>();
      DegreeStatistics::degree_sequence_into(n, payloads, *degrees_s);
      const std::span<const std::uint32_t> degrees(degrees_s->data(), n);
      edges = DegreeStatistics::edge_count(degrees);
      max_degree = DegreeStatistics::max_degree(degrees);
    }
    const Scope span(tracer, "graph.truth", op);
    return edges == g.edge_count() && max_degree == g.max_degree()
               ? "correct"
               : "silent-wrong";
  }
  const auto* dp = dynamic_cast<const DecisionProtocol*>(&encoder);
  REFEREE_CHECK_MSG(dp != nullptr, "unclassifiable protocol " + spec.protocol);
  bool truth = false;
  {
    const Scope span(tracer, "graph.truth", op);
    if (spec.protocol == "recognize-degeneracy") {
      truth = has_degeneracy_at_most(g, spec.k, arena);
    } else if (spec.protocol == "connectivity") {
      truth = component_count(g, arena) <= 1;
    } else if (spec.protocol == "bipartite") {
      truth = is_bipartite(g, arena);
    } else {
      throw CheckError("no ground truth for protocol " + spec.protocol);
    }
  }
  const Scope span(tracer, is_sketch_protocol(spec.protocol)
                               ? "sketch.decide"
                               : "protocols.decide",
                   op);
  return dp->decide(n, payloads, arena) == truth ? "correct" : "silent-wrong";
}

std::string run_multi_round_cell(const ScenarioSpec& spec, const GraphView g,
                                 const LocalViewPack& views,
                                 std::vector<Message>& wire, DecodeArena& arena,
                                 FaultJournal& journal, Tracer* tracer,
                                 std::uint64_t op) {
  using Scope = Tracer::Scope;
  const auto protocol = make_campaign_multi_round_protocol(spec);
  const FaultPlan plan = cell_fault_plan(spec);
  std::vector<Message> donor;
  if (spec.faults.correlated.stale_replays > 0) {
    // The donor cell's round-0 wire, sealed under the donor's epoch.
    const Scope span(tracer, "model.inject", op);
    const ScenarioSpec dspec = stale_donor_spec(spec);
    const auto dproto = make_campaign_multi_round_protocol(dspec);
    const LocalViewPack dviews(make_campaign_graph(dspec));
    donor.resize(dviews.n());
    for (std::uint32_t v = 0; v < dviews.n(); ++v) {
      donor[v] = dproto->node_message(dviews.view(v), 0, {});
    }
    seal_transcript(scenario_epoch(dspec), dviews.n(), donor);
  }
  MultiRoundReport report;
  MultiRoundRunOptions options;
  options.cell_epoch = scenario_epoch(spec);
  options.faults = plan.active() ? &plan : nullptr;
  options.round0_donor = donor;
  options.report = &report;
  options.journal = &journal;
  Graph h;
  {
    const Scope span(tracer, "model.multi_round", op);
    h = MultiRoundRunner().run(views, *protocol, wire, arena, options);
  }
  bool exact = false;
  {
    const Scope span(tracer, "graph.truth", op);
    exact = graphs_equal(h, g);
  }
  const Scope span(tracer, "model.multi_round", op);
  h = Graph();
  return exact ? "exact" : "silent-wrong";
}

/// The one-round pipeline after input and pack: local phase, (stale
/// donor,) audit, seal, inject, open, decode and grade.
std::string run_one_round(const ScenarioSpec& spec, const GraphView g,
                          const LocalViewPack& views, std::vector<Message>& wire,
                          std::vector<Message>& donor, DecodeArena& arena,
                          FaultJournal& journal, Tracer* tracer,
                          std::uint64_t op, std::uint64_t* wire_bytes,
                          Graph* decoded) {
  using Scope = Tracer::Scope;
  const auto n = static_cast<std::uint32_t>(g.vertex_count());
  const auto protocol = make_campaign_protocol(spec, g);
  {
    const Scope span(tracer, "model.local", op);
    Simulator().run_local_phase(views, *protocol, wire);
  }
  if (spec.faults.correlated.stale_replays > 0) {
    // Building the stale donor is part of the injector's cost.
    const Scope span(tracer, "model.inject", op);
    // A file: donor reads the same file, so one path builds both kinds.
    const ScenarioSpec dspec = stale_donor_spec(spec);
    const Graph dg = make_campaign_graph(dspec);
    donor = Simulator().run_local_phase(dg, *make_campaign_protocol(dspec, dg));
    seal_transcript(scenario_epoch(dspec),
                    static_cast<std::uint32_t>(dg.vertex_count()), donor);
  }
  const std::uint64_t epoch = scenario_epoch(spec);
  {
    const Scope span(tracer, "model.audit", op);
    (void)audit_frugality(n, wire);
  }
  {
    const Scope span(tracer, "model.seal", op);
    seal_transcript(epoch, n, wire);
  }
  if (wire_bytes != nullptr) *wire_bytes = wire_size_bytes(wire);
  {
    const Scope span(tracer, "model.inject", op);
    journal = Simulator::inject_faults(wire, cell_fault_plan(spec), donor);
  }
  auto payloads_s = arena.scratch<Message>();
  {
    const Scope span(tracer, "model.open", op);
    open_transcript_into(epoch, n, wire, arena, *payloads_s);
  }
  return decode_and_grade(spec, *protocol, g, n,
                          std::span<const Message>(payloads_s->data(), n),
                          arena, tracer, op, decoded);
}

/// Degeneracy by repeated minimum-degree removal (bucket queue, O(n + m)).
std::size_t own_degeneracy(const Graph& g) {
  const std::size_t n = g.vertex_count();
  std::vector<std::size_t> degree(n);
  std::size_t max_degree = 0;
  for (Vertex v = 0; v < n; ++v) {
    degree[v] = g.neighbors(v).size();
    max_degree = std::max(max_degree, degree[v]);
  }
  std::vector<std::vector<Vertex>> buckets(max_degree + 1);
  for (Vertex v = 0; v < n; ++v) buckets[degree[v]].push_back(v);
  std::vector<bool> removed(n, false);
  std::size_t result = 0;
  std::size_t low = 0;
  for (std::size_t done = 0; done < n;) {
    while (buckets[low].empty()) ++low;
    const Vertex v = buckets[low].back();
    buckets[low].pop_back();
    if (removed[v] || degree[v] != low) continue;  // stale bucket entry
    removed[v] = true;
    ++done;
    result = std::max(result, low);
    for (const Vertex u : g.neighbors(v)) {
      if (removed[u]) continue;
      buckets[--degree[u]].push_back(u);
      low = std::min(low, degree[u]);
    }
  }
  return result;
}

bool own_is_forest(const Graph& g) {
  std::vector<Vertex> parent(g.vertex_count());
  std::iota(parent.begin(), parent.end(), Vertex{0});
  const auto find = [&](Vertex v) {
    while (parent[v] != v) v = parent[v] = parent[parent[v]];
    return v;
  };
  for (Vertex v = 0; v < g.vertex_count(); ++v) {
    for (const Vertex u : g.neighbors(v)) {
      if (u < v) continue;
      const Vertex a = find(u);
      const Vertex b = find(v);
      if (a == b) return false;
      parent[a] = b;
    }
  }
  return true;
}

std::string oblivious_fault_field(const FaultPlan& faults) {
  std::vector<std::string> active;
  if (faults.bit_flip_chance > 0) active.push_back("flip");
  if (faults.truncate_chance > 0) active.push_back("trunc");
  if (faults.correlated.drop_fraction > 0) active.push_back("drop");
  if (faults.correlated.duplicate_ids > 0) active.push_back("dup");
  if (faults.correlated.payload_swaps > 0) active.push_back("swap");
  if (faults.correlated.stale_replays > 0) active.push_back("stale");
  return active.size() == 1 ? active.front() : "";
}

std::string taxonomy_detector(std::string_view report_json,
                              const std::string& field) {
  const std::string key =
      "\"field\": \"" + field + "\", \"detector\": \"";
  const std::size_t at = report_json.find(key);
  if (at == std::string_view::npos) return "";
  const std::size_t begin = at + key.size();
  return std::string(report_json.substr(begin, report_json.find('"', begin) - begin));
}

}  // namespace

CellVerdict traced_cell(const ScenarioSpec& spec, Tracer* tracer,
                        std::uint64_t op, std::uint64_t* wire_bytes,
                        Graph* decoded) {
  using Scope = Tracer::Scope;
  const Scope cell(tracer, "cell", op);
  const bool file_backed = is_file_generator(spec.generator);
  Graph graph;
  CsrGraph csr;
  {
    const Scope span(tracer, "graph.input", op);
    if (file_backed) {
      const std::unique_ptr<EdgeSource> source =
          open_edge_source(file_generator_path(spec.generator));
      csr = CsrGraph(*source);
    } else {
      graph = make_campaign_graph(spec);
    }
  }
  const GraphView g = file_backed ? GraphView(csr) : GraphView(graph);
  LocalViewPack views;
  {
    const Scope span(tracer, "model.pack", op);
    views = file_backed ? LocalViewPack(csr) : LocalViewPack(graph);
  }
  DecodeArena& arena = DecodeArena::for_current_thread();
  std::vector<Message> wire;
  std::vector<Message> donor;
  FaultJournal journal;
  CellVerdict verdict;
  try {
    if (is_multi_round_protocol(spec.protocol)) {
      verdict.outcome = run_multi_round_cell(spec, g, views, wire, arena,
                                             journal, tracer, op);
    } else {
      verdict.outcome = run_one_round(spec, g, views, wire, donor, arena,
                                      journal, tracer, op, wire_bytes, decoded);
    }
  } catch (const DecodeError& e) {
    verdict.outcome = "loud";
    verdict.detail = decode_fault_name(e.fault());
  }
  verdict.faults = std::move(journal.events);
  // Free the cell's buffers inside the span of the layer that built them,
  // so the cell's teardown is covered as well.
  {
    const Scope span(tracer, "model.local", op);
    wire = {};
  }
  {
    const Scope span(tracer, "model.inject", op);
    donor = {};
  }
  {
    const Scope span(tracer, "model.pack", op);
    views = LocalViewPack();
  }
  const Scope span(tracer, "graph.input", op);
  graph = Graph();
  csr = CsrGraph();
  return verdict;
}

std::string verdict_mismatch(const CellVerdict& traced,
                             const CellVerdict& direct) {
  if (traced == direct) return "";
  const auto text = [](const CellVerdict& v) {
    return v.outcome + (v.detail.empty() ? "" : "/" + v.detail);
  };
  return "reassembled " + text(traced) + ", run_scenario " + text(direct) +
         (traced.faults == direct.faults ? "" : "; the injected faults differ");
}

bool input_in_class(const ScenarioSpec& spec) {
  return input_in_class(spec, make_campaign_graph(spec));
}

bool input_in_class(const ScenarioSpec& spec, const Graph& input) {
  if (spec.protocol == "degeneracy") return own_degeneracy(input) <= spec.k;
  if (spec.protocol == "forest") return own_is_forest(input);
  return true;
}

std::uint64_t arena_growth_events(ThreadPool* pool) {
  std::uint64_t growth = DecodeArena::for_current_thread().growth_events();
  if (pool != nullptr) {
    std::vector<std::uint64_t> per_worker(pool->size());
    pool->for_each_worker([&](std::size_t w) {
      per_worker[w] = DecodeArena::for_current_thread().growth_events();
    });
    for (const std::uint64_t g : per_worker) growth += g;
  }
  return growth;
}

std::string canonical_edges(const Graph& g) {
  std::vector<std::pair<Vertex, Vertex>> edges;
  for (Vertex v = 0; v < g.vertex_count(); ++v) {
    for (const Vertex u : g.neighbors(v)) {
      if (v < u) edges.emplace_back(v, u);
    }
  }
  std::sort(edges.begin(), edges.end());
  std::string out = std::to_string(g.vertex_count()) + "\n";
  for (const auto& [a, b] : edges) {
    out += std::to_string(a) + " " + std::to_string(b) + "\n";
  }
  return out;
}

bool decodes_to(const ScenarioSpec& spec, const std::string& expected_edges) {
  Graph decoded;
  const CellVerdict verdict = traced_cell(spec, nullptr, 0, nullptr, &decoded);
  return verdict.outcome == "exact" && canonical_edges(decoded) == expected_edges;
}

std::string faulted_cell_error(const ScenarioSpec& spec,
                               const ScenarioResult& result,
                               std::string_view report_json) {
  std::string expected;
  if (spec.faults.adaptive.active()) {
    expected = expected_envelope_fault(result.journal, result.report.n);
  } else {
    const std::string field = oblivious_fault_field(spec.faults);
    if (field.empty()) return "sweep cell without exactly one fault family";
    expected = taxonomy_detector(report_json, field);
    if (expected.empty()) return "fault_taxonomy names no detector for " + field;
  }
  if (result.outcome != "loud" || result.detail != expected) {
    return "faulted cell came out " + result.outcome + "/" + result.detail +
           ", expected loud/" + expected;
  }
  return "";
}

}  // namespace refbench
