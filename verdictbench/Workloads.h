//===- Workloads.h - Seeded verifier workloads with known answers -*- C++ -*-===//
//
// Part of the Blazer reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four benchmark workloads. Each is one "pass": an ordered list of
/// programs given as source text, each with the answer it has by
/// construction (or the registry's expectation for the Table-1/TableCT
/// suites). The benchmark cycles over the pass in a closed loop. The seed
/// varies constants, arm bodies and order, never the structural mix, so
/// runs with different seeds do the same amount of work.
///
//===----------------------------------------------------------------------===//

#ifndef VERDICTBENCH_WORKLOADS_H
#define VERDICTBENCH_WORKLOADS_H

#include "core/Blazer.h"

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

namespace verdictbench {

/// One program of a workload with its known answer.
struct Case {
  std::string Name;
  std::string Source;
  std::string Function;
  blazer::BlazerOptions Options;
  /// True when the program is checked in --ct mode against ExpectedCt;
  /// otherwise its verdict is checked against Expected.
  bool Ct = false;
  blazer::VerdictKind Expected = blazer::VerdictKind::Safe;
  blazer::CtVerdict ExpectedCt = blazer::CtVerdict::CtUnknown;
  /// Ground truth: the program has a timing channel. A Safe verdict (or
  /// CtSafe in ct mode) on such a program is unsound and aborts the run.
  bool Leaks = false;
};

struct Workload {
  /// BlazerOptions::Jobs of every case (at most 4).
  int Jobs = 1;
  /// A fixed program count, in passes: peak RSS is read after it, and the
  /// traced run measures RSS growth over it, so both compare across
  /// commits whatever their throughput.
  int MemoryPasses = 1;
  std::vector<Case> Cases;
};

/// The workload names, in BENCHMARK.json order.
const std::vector<std::string> &workloadNames();

/// Generates workload \p Name from \p Seed; nullopt for an unknown name.
std::optional<Workload> makeWorkload(const std::string &Name, uint64_t Seed);

} // namespace verdictbench

#endif // VERDICTBENCH_WORKLOADS_H
