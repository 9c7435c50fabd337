// One campaign cell, reassembled from the library's public layer calls.
//
// run_scenario runs a cell end to end as one call. The traced run needs the
// split, so traced_cell makes the same calls one layer at a time (input →
// pack → local phase → audit → seal → inject → open → decode → ground
// truth, or the MultiRoundRunner for multi-round protocols) with a span
// around each, and returns the verdict run_scenario would give. Every
// traced cell is checked against run_scenario's outcome, detail and fault
// journal.
//
// The module also holds the benchmark's own output checks: whether a
// fault-free cell's input is in its protocol's class (so a loud refusal is
// a failure), and which detector must refuse a faulted cell.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "campaign/scenario.hpp"
#include "model/fault_model.hpp"
#include "support/thread_pool.hpp"

namespace refbench {

class Tracer;

/// What a cell came to, and the faults it injected (its fault journal), so
/// a reassembled cell is checked to have drawn run_scenario's faults too.
struct CellVerdict {
  std::string outcome;
  std::string detail;
  std::vector<referee::FaultEvent> faults;
  friend bool operator==(const CellVerdict&, const CellVerdict&) = default;
};

inline CellVerdict verdict_of(const referee::ScenarioResult& result) {
  return {result.outcome, result.detail, result.journal.events};
}

/// Why a reassembled cell's verdict differs from run_scenario's, or ""
/// when they agree.
std::string verdict_mismatch(const CellVerdict& traced,
                             const CellVerdict& direct);

/// Run `spec` through the public layer calls with a span per layer (no
/// spans when `tracer` is null). `wire_bytes`, when set, receives the
/// sealed transcript size; `decoded`, when set, the reconstructed graph of
/// a one-round reconstruction cell that decoded.
CellVerdict traced_cell(const referee::ScenarioSpec& spec, Tracer* tracer,
                        std::uint64_t op, std::uint64_t* wire_bytes = nullptr,
                        referee::Graph* decoded = nullptr);

/// True when the spec's input graph satisfies its protocol's precondition,
/// so a fault-free cell must come out exact/correct rather than loud.
/// Checked with the benchmark's own degeneracy peel and cycle test.
bool input_in_class(const referee::ScenarioSpec& spec);

/// input_in_class for an input graph already generated from `spec`.
bool input_in_class(const referee::ScenarioSpec& spec,
                    const referee::Graph& input);

/// DecodeArena growth events so far on this thread plus, when `pool` is
/// set, on each of its workers (the arenas are thread_local).
std::uint64_t arena_growth_events(referee::ThreadPool* pool);

/// Undirected edge list of `g` in the benchmark's own canonical order,
/// for checks that do not trust the library's graph comparison.
std::string canonical_edges(const referee::Graph& g);

/// True when the cell, reassembled from the layer calls, decodes to exactly
/// `expected_edges` (canonical_edges of its input): the check that does not
/// trust the program's grading of itself. For fault-free one-round
/// reconstruction cells.
bool decodes_to(const referee::ScenarioSpec& spec,
                const std::string& expected_edges);

/// Why a fault-sweep cell's verdict is wrong, or "" when it is right: the
/// cell must be loud, with the detector the report's fault_taxonomy names
/// for its one oblivious fault family, or, for adaptive strikes, the
/// refusal the envelope's check order predicts from the fault journal.
std::string faulted_cell_error(const referee::ScenarioSpec& spec,
                               const referee::ScenarioResult& result,
                               std::string_view report_json);

}  // namespace refbench
