//===- Pipeline.h - One program, source text to checked verdict -*- C++ -*-===//
//
// Part of the Blazer reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// runProgram() compiles a case from source, runs analyzeFunction, and
/// checks the verdict against the case's known answer. With a Tracer it
/// also times each front-end call and then replays the verdict path layer
/// by layer (taint, most-general trail, every adopted split, every trail's
/// bound analysis and its product/interval/zone parts), checking that each
/// replayed DFA and bound equals what analyzeFunction produced.
///
//===----------------------------------------------------------------------===//

#ifndef VERDICTBENCH_PIPELINE_H
#define VERDICTBENCH_PIPELINE_H

#include "Trace.h"
#include "Workloads.h"

#include "lang/Builtins.h"

#include <cstdint>
#include <string>
#include <vector>

namespace verdictbench {

/// Deterministic work counters of one analyzeFunction run. The same program
/// must reproduce them exactly.
struct WorkCounters {
  uint64_t Trails = 0;
  uint64_t SplitStates = 0; ///< DFA states over all adopted child trails.
  uint64_t ZonePops = 0;
  uint64_t ZoneJoins = 0;
  uint64_t ZoneWidenings = 0;

  bool operator==(const WorkCounters &) const = default;
  WorkCounters &operator+=(const WorkCounters &O);
};

struct Outcome {
  double WallMs = 0; ///< Compile + analyzeFunction.
  bool Match = false;
  bool Unsound = false;
  std::string Got; ///< The verdict, rendered for messages.
  /// FNV-1a over verdict, ct verdict, treeString and every trail's bounds.
  uint64_t Digest = 0;
  WorkCounters Work;
  blazer::EngineTelemetry Telemetry;
  double SafetyMs = 0;
  double AttackMs = 0;
};

/// Layer counts accumulated by the traced replay.
struct LayerStats {
  uint64_t Programs = 0;
  uint64_t Blocks = 0;
  uint64_t Edges = 0;
  uint64_t Splits = 0;         ///< Adopted splits (parents with children).
  uint64_t NarrowingSplits = 0; ///< ...where some child's bound differs.
  uint64_t SplitChildren = 0;
  uint64_t TakesBothChildren = 0;
  uint64_t ProductNodes = 0;
  uint64_t ProductArcs = 0;
  uint64_t ZoneDim = 0; ///< Widest DBM (client variables) seen.
  uint64_t FeasibleTrails = 0;
  uint64_t UpperTrails = 0; ///< Feasible trails with an upper bound.
  double SafetyMs = 0;
  double AttackMs = 0;
  uint64_t Mismatches = 0;
  std::vector<std::string> MismatchNotes;
};

/// Runs case \p C once. With \p T non-null, records spans under program id
/// \p Id and accumulates the replay's counts and fidelity checks into
/// \p Layers.
Outcome runProgram(const Case &C, const blazer::BuiltinRegistry &Registry,
                   Tracer *T = nullptr, int Id = 0,
                   LayerStats *Layers = nullptr);

} // namespace verdictbench

#endif // VERDICTBENCH_PIPELINE_H
