//===- main.cpp - The repository benchmark: verdicts per second -----------===//
//
// Part of the Blazer reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// verdictbench --workload NAME --seed N --seconds S --trace 0|1
///              [--trace-file PATH]
///
/// Generates the workload's programs from the seed, then runs them in a
/// closed loop (one client: the next program is compiled only when the
/// previous verdict is back), in whole passes over the program list until
/// S seconds have been measured. Every verdict is checked against the
/// program's known answer; a Safe verdict on a leaking program aborts the
/// run. The last stdout line is one JSON object: the end-to-end metrics
/// with --trace 0, the per-layer metrics of the traced replay with
/// --trace 1. See README.md for what each metric means.
///
//===----------------------------------------------------------------------===//

#include "Pipeline.h"
#include "Trace.h"
#include "Workloads.h"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <charconv>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <optional>
#include <string>
#include <vector>

using namespace blazer;
using namespace verdictbench;

namespace {

using Clock = std::chrono::steady_clock;

double secondsSince(Clock::time_point T0) {
  return std::chrono::duration<double>(Clock::now() - T0).count();
}

double cpuSeconds() {
  rusage U{};
  getrusage(RUSAGE_SELF, &U);
  auto Sec = [](const timeval &T) {
    return static_cast<double>(T.tv_sec) + static_cast<double>(T.tv_usec) / 1e6;
  };
  return Sec(U.ru_utime) + Sec(U.ru_stime);
}

/// A field of /proc/self/status in kB (VmRSS, VmHWM); 0 when unavailable.
double statusKb(const char *Field) {
  std::ifstream In("/proc/self/status");
  std::string Line;
  size_t Len = std::strlen(Field);
  while (std::getline(In, Line))
    if (Line.compare(0, Len, Field) == 0 && Line.size() > Len &&
        Line[Len] == ':')
      return std::atof(Line.c_str() + Len + 1);
  return 0;
}

/// CPU time the hypervisor gave to other guests while this machine's CPUs
/// wanted to run ("steal" in /proc/stat), summed over all CPUs, in seconds;
/// 0 when unavailable.
double stealSeconds() {
  std::ifstream In("/proc/stat");
  std::string Cpu;
  uint64_t Field = 0, Steal = 0;
  In >> Cpu;
  for (int I = 0; I < 8 && In >> Field; ++I)
    Steal = Field; // user nice system idle iowait irq softirq steal
  return In ? static_cast<double>(Steal) / sysconf(_SC_CLK_TCK) : 0;
}

/// Linear-interpolation quantile of \p V (0 <= Q <= 1).
double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

double ratio(double Num, double Den) { return Den > 0 ? Num / Den : 0; }

std::string number(double V) {
  char Buf[64];
  auto Res = std::to_chars(Buf, Buf + sizeof(Buf), V);
  return std::string(Buf, Res.ptr);
}

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<Metric> &Metrics) {
  std::string Out = std::string("{\"correct\": ") +
                    (Correct ? "true" : "false") +
                    ", \"attempted\": " + std::to_string(Attempted) +
                    ", \"failed\": " + std::to_string(Failed) +
                    ", \"metrics\": {";
  for (size_t I = 0; I < Metrics.size(); ++I)
    Out += (I ? ", \"" : "\"") + Metrics[I].Name + "\": {\"value\": " +
           number(Metrics[I].Value) + ", \"unit\": \"" + Metrics[I].Unit +
           "\"}";
  Out += "}}";
  std::printf("%s\n", Out.c_str());
}

[[noreturn]] void usage(const char *Msg) {
  std::fprintf(stderr,
               "verdictbench: %s\nusage: verdictbench --workload "
               "{adversarial|subtrails|loops|table1} --seed N --seconds S "
               "--trace 0|1 [--trace-file PATH]\n",
               Msg);
  std::exit(2);
}

bool parseInt(const char *S, long long &Out) {
  const char *End = S + std::strlen(S);
  auto Res = std::from_chars(S, End, Out);
  return Res.ec == std::errc() && Res.ptr == End;
}

/// The closed loop shared by both modes: checks every outcome, counts
/// failures, and checks that each program repeats its first pass's digest
/// and work counters exactly.
class Loop {
public:
  explicit Loop(const Workload &W)
      : W(W), First(W.Cases.size()) {}

  /// Runs one pass over the workload. Exits the process on an unsound
  /// verdict.
  void pass(const BuiltinRegistry &Registry, Tracer *T = nullptr,
            LayerStats *Layers = nullptr) {
    for (size_t I = 0; I < W.Cases.size(); ++I) {
      const Case &C = W.Cases[I];
      Outcome O = runProgram(C, Registry, T, static_cast<int>(Attempted),
                             Layers);
      ++Attempted;
      Samples.push_back(O.WallMs);
      if (O.Unsound) {
        std::fprintf(stderr,
                     "verdictbench: UNSOUND: %s reported %s but leaks; "
                     "aborting the run\n",
                     C.Name.c_str(), O.Got.c_str());
        std::exit(3);
      }
      if (!O.Match) {
        ++Failed;
        std::fprintf(stderr, "verdictbench: FAILED %s: got %s\n",
                     C.Name.c_str(), O.Got.c_str());
      }
      Cache.Hits += O.Telemetry.Cache.Hits;
      Cache.Misses += O.Telemetry.Cache.Misses;
      Fix.mergeFrom(O.Telemetry.Fixpoint);
      Casc.mergeFrom(O.Telemetry.Cascade);
      if (Passes == 0) {
        First[I] = O;
        continue;
      }
      if (O.Digest != First[I].Digest || !(O.Work == First[I].Work)) {
        ++Nondeterministic;
        std::fprintf(stderr,
                     "verdictbench: NONDETERMINISTIC %s: output digest or "
                     "work counters differ between passes\n",
                     C.Name.c_str());
      }
    }
    ++Passes;
  }

  /// Digest of the first pass over every program.
  uint64_t digest() const {
    uint64_t H = 1469598103934665603ULL;
    for (const Outcome &O : First)
      H = (H ^ O.Digest) * 1099511628211ULL;
    return H;
  }

  /// Work counters summed over one pass.
  WorkCounters passWork() const {
    WorkCounters Sum;
    for (const Outcome &O : First)
      Sum += O.Work;
    return Sum;
  }

  const Workload &W;
  std::vector<Outcome> First;
  std::vector<double> Samples;
  uint64_t Attempted = 0;
  uint64_t Failed = 0;
  uint64_t Nondeterministic = 0;
  uint64_t Passes = 0;
  TrailCacheStats Cache;
  FixpointStats Fix;
  CascadeStats Casc;
};

void printSummary(const Loop &L, double WallS) {
  WorkCounters P = L.passWork();
  std::printf("programs=%llu passes=%llu wall_s=%.3f failed=%llu "
              "nondeterministic=%llu\n",
              static_cast<unsigned long long>(L.Attempted),
              static_cast<unsigned long long>(L.Passes), WallS,
              static_cast<unsigned long long>(L.Failed),
              static_cast<unsigned long long>(L.Nondeterministic));
  std::printf("digest=%016llx over %zu programs (verdicts, treeString, "
              "bounds)\n",
              static_cast<unsigned long long>(L.digest()), L.First.size());
  std::printf("counters per pass: core.trails=%llu automata.split_states=%llu "
              "absint.zone_pops=%llu absint.zone_joins=%llu "
              "absint.zone_widenings=%llu (checked in %llu passes)\n",
              static_cast<unsigned long long>(P.Trails),
              static_cast<unsigned long long>(P.SplitStates),
              static_cast<unsigned long long>(P.ZonePops),
              static_cast<unsigned long long>(P.ZoneJoins),
              static_cast<unsigned long long>(P.ZoneWidenings),
              static_cast<unsigned long long>(L.Passes));
}

} // namespace

int main(int Argc, char **Argv) {
  std::string WorkloadName, TraceFile;
  long long Seed = -1, Seconds = -1, Trace = -1;
  for (int I = 1; I < Argc; ++I) {
    std::string Arg = Argv[I];
    if (I + 1 >= Argc)
      usage(("missing value for " + Arg).c_str());
    const char *Val = Argv[++I];
    if (Arg == "--workload")
      WorkloadName = Val;
    else if (Arg == "--trace-file")
      TraceFile = Val;
    else if (Arg == "--seed" && parseInt(Val, Seed) && Seed >= 0)
      continue;
    else if (Arg == "--seconds" && parseInt(Val, Seconds) && Seconds > 0)
      continue;
    else if (Arg == "--trace" && parseInt(Val, Trace) &&
             (Trace == 0 || Trace == 1))
      continue;
    else
      usage(("bad argument " + Arg + " " + Val).c_str());
  }
  if (WorkloadName.empty() || Seed < 0 || Seconds <= 0 || Trace < 0)
    usage("--workload, --seed, --seconds and --trace are required");
  const std::vector<std::string> &Names = workloadNames();
  if (std::find(Names.begin(), Names.end(), WorkloadName) == Names.end())
    usage(("unknown workload " + WorkloadName).c_str());

  // Set-up: seeded generation, registry init, a front-end check of every
  // program, and one warm-up verdict on the workload's smallest program.
  // Repeated so setup_s is a median; the last repetition's state is used.
  constexpr int SetupRepeats = 9;
  std::vector<double> SetupS;
  std::optional<Workload> W;
  std::optional<BuiltinRegistry> Registry;
  for (int Rep = 0; Rep < SetupRepeats; ++Rep) {
    auto T0 = Clock::now();
    W = makeWorkload(WorkloadName, static_cast<uint64_t>(Seed));
    Registry = BuiltinRegistry::standard();
    const Case *Smallest = &W->Cases.front();
    for (const Case &C : W->Cases) {
      Result<CfgFunction> F =
          compileFunction(C.Source, C.Function, *Registry);
      if (!F) {
        std::fprintf(stderr, "verdictbench: %s does not compile: %s\n",
                     C.Name.c_str(), F.diag().str().c_str());
        return 1;
      }
      if (C.Source.size() < Smallest->Source.size())
        Smallest = &C;
    }
    runProgram(*Smallest, *Registry);
    SetupS.push_back(secondsSince(T0));
  }

  std::printf("verdictbench workload=%s seed=%lld jobs=%d trace=%lld "
              "programs_per_pass=%zu\nsetup_s samples:",
              WorkloadName.c_str(), Seed, W->Jobs, Trace, W->Cases.size());
  for (double S : SetupS)
    std::printf(" %.6f", S);
  std::printf("\n");
  const size_t MemoryPrograms = W->Cases.size() * W->MemoryPasses;

  if (Trace == 0) {
    // The run is cut into windows of whole passes, at least 0.5 s each.
    // Windows in which the hypervisor stole more than 3% of the CPU time
    // of the workload's Jobs threads are set aside; if more than half are,
    // the least-stolen half is kept. The metrics below are medians over the kept windows (and
    // the latency quantiles over their samples), so a neighbour's burst on
    // a shared host does not move the figures.
    struct Window {
      size_t FirstSample = 0, Samples = 0;
      double WallS = 0, CpuS = 0, StealS = 0;
    };
    constexpr double WindowS = 0.5, MaxStealShare = 0.03;
    Loop L(*W);
    double PeakKb = 0;
    std::vector<Window> Windows;
    auto T0 = Clock::now();
    while (L.Passes == 0 || secondsSince(T0) < static_cast<double>(Seconds)) {
      Window Win;
      Win.FirstSample = L.Samples.size();
      auto W0 = Clock::now();
      double Cpu0 = cpuSeconds(), Steal0 = stealSeconds();
      do {
        L.pass(*Registry);
        // Peak RSS after a fixed program count, so a faster commit that
        // runs more programs is not charged for the jobs>1 RSS growth.
        if (PeakKb == 0 && L.Attempted >= MemoryPrograms)
          PeakKb = statusKb("VmHWM");
      } while (secondsSince(W0) < WindowS);
      Win.Samples = L.Samples.size() - Win.FirstSample;
      Win.WallS = secondsSince(W0);
      Win.CpuS = cpuSeconds() - Cpu0;
      Win.StealS = stealSeconds() - Steal0;
      Windows.push_back(Win);
    }
    double WallS = secondsSince(T0);
    if (PeakKb == 0)
      PeakKb = statusKb("VmHWM");
    auto Share = [&](const Window &Win) {
      return Win.StealS / (Win.WallS * W->Jobs);
    };
    std::vector<Window> Kept;
    for (const Window &Win : Windows)
      if (Share(Win) <= MaxStealShare)
        Kept.push_back(Win);
    if (Kept.size() * 2 < Windows.size()) {
      Kept = Windows;
      std::stable_sort(Kept.begin(), Kept.end(),
                       [&](const Window &A, const Window &B) {
                         return Share(A) < Share(B);
                       });
      Kept.resize((Windows.size() + 1) / 2);
    }
    std::vector<double> Rate, CpuMs, Samples;
    for (const Window &Win : Kept) {
      Rate.push_back(static_cast<double>(Win.Samples) / Win.WallS);
      CpuMs.push_back(Win.CpuS * 1e3 / static_cast<double>(Win.Samples));
      Samples.insert(Samples.end(), L.Samples.begin() + Win.FirstSample,
                     L.Samples.begin() + Win.FirstSample + Win.Samples);
    }
    double MaxShare = 0;
    for (const Window &Win : Windows)
      MaxShare = std::max(MaxShare, Share(Win));

    printSummary(L, WallS);
    std::printf("windows=%zu kept=%zu (steal share <= %.0f%%, worst %.1f%%); "
                "verdict_ms samples=%zu (%zu beyond p90); peak_rss after "
                "%zu programs\n",
                Windows.size(), Kept.size(), MaxStealShare * 100,
                MaxShare * 100, Samples.size(), Samples.size() / 10,
                std::min<size_t>(MemoryPrograms, L.Attempted));
    double N = static_cast<double>(L.Attempted);
    printResult(L.Failed == 0 && L.Nondeterministic == 0, L.Attempted,
                L.Failed,
                {{"setup_s", quantile(SetupS, 0.5), "s"},
                 {"programs_per_s", quantile(Rate, 0.5), "1/s"},
                 {"verdict_ms_p50", quantile(Samples, 0.5), "ms"},
                 {"verdict_ms_p90", quantile(Samples, 0.9), "ms"},
                 {"cpu_ms_per_program", quantile(CpuMs, 0.5), "ms"},
                 {"peak_rss_mb", PeakKb / 1024, "MB"},
                 {"decided_ratio", (N - L.Failed) / N, "ratio"}});
    return 0;
  }

  // Traced run. Phase A: a fixed number of untraced passes, for RSS growth
  // per program, pool utilisation, and the untraced per-program times the
  // tracing overhead is measured against.
  Loop L(*W);
  auto TA = Clock::now();
  double Cpu0 = cpuSeconds();
  double Rss0 = statusKb("VmRSS");
  for (int P = 0; P < W->MemoryPasses; ++P)
    L.pass(*Registry);
  double RssGrowthKb = (statusKb("VmRSS") - Rss0) / MemoryPrograms;
  double Util = (cpuSeconds() - Cpu0) / (secondsSince(TA) * W->Jobs);
  double UntracedP50 = quantile(L.Samples, 0.5);
  size_t UntracedCount = L.Samples.size();

  // Phase B: traced passes with the layer-by-layer replay.
  Tracer T;
  LayerStats Layers;
  WorkCounters Work = L.passWork();
  do
    L.pass(*Registry, &T, &Layers);
  while (secondsSince(TA) < static_cast<double>(Seconds));
  double WallS = secondsSince(TA);
  std::vector<double> Traced(L.Samples.begin() + UntracedCount,
                             L.Samples.end());
  double Overhead = quantile(Traced, 0.5) / UntracedP50 - 1;

  printSummary(L, WallS);
  if (Layers.Mismatches) {
    std::fprintf(stderr,
                 "verdictbench: %llu replay-fidelity mismatches; refusing "
                 "to report per-layer numbers\n",
                 static_cast<unsigned long long>(Layers.Mismatches));
    for (const std::string &Note : Layers.MismatchNotes)
      std::fprintf(stderr, "  %s\n", Note.c_str());
    return 1;
  }
  if (!TraceFile.empty() && !T.writeChromeTrace(TraceFile)) {
    std::fprintf(stderr, "verdictbench: cannot write %s\n", TraceFile.c_str());
    return 1;
  }
  std::map<std::string, double> Self = T.selfMs();
  double Progs = static_cast<double>(Layers.Programs);
  auto Ms = [&](const char *Name) { return Self[Name] / Progs; };
  double Replayed = Ms("dataflow.taint") + Ms("automata.mg") +
                    Ms("automata.split") + Ms("bounds.trail");
  std::printf("traced %llu programs, 0 replay-fidelity mismatches; tracing "
              "overhead on compile+analyze: %+.1f%% (traced p50 %.3f ms vs "
              "untraced p50 %.3f ms over %zu programs); harness self time "
              "%.3f ms/program%s%s\n",
              static_cast<unsigned long long>(Layers.Programs),
              Overhead * 100, quantile(Traced, 0.5), UntracedP50,
              UntracedCount, Ms("program"),
              TraceFile.empty() ? "" : "; spans in ", TraceFile.c_str());

  printResult(
      L.Failed == 0 && L.Nondeterministic == 0, L.Attempted, L.Failed,
      {{"lang.parse_ms", Ms("lang.parse"), "ms"},
       {"lang.sema_ms", Ms("lang.sema"), "ms"},
       {"ir.lower_ms", Ms("ir.lower"), "ms"},
       {"ir.blocks", Layers.Blocks / Progs, "count"},
       {"ir.edges", Layers.Edges / Progs, "count"},
       {"dataflow.taint_ms", Ms("dataflow.taint"), "ms"},
       {"automata.mg_ms", Ms("automata.mg"), "ms"},
       {"automata.split_ms", Ms("automata.split"), "ms"},
       {"automata.splits", Layers.Splits / Progs, "count"},
       {"automata.split_states", static_cast<double>(Work.SplitStates),
        "count/pass"},
       {"automata.takes_both_share",
        ratio(Layers.TakesBothChildren, Layers.SplitChildren), "ratio"},
       {"absint.product_ms", Ms("absint.product"), "ms"},
       {"absint.product_nodes", Layers.ProductNodes / Progs, "count"},
       {"absint.product_arcs", Layers.ProductArcs / Progs, "count"},
       {"absint.interval_ms", Ms("absint.interval"), "ms"},
       {"absint.zone_ms", Ms("absint.zone"), "ms"},
       {"absint.zone_pops", static_cast<double>(Work.ZonePops), "count/pass"},
       {"absint.zone_joins", static_cast<double>(Work.ZoneJoins), "count/pass"},
       {"absint.zone_widenings", static_cast<double>(Work.ZoneWidenings),
        "count/pass"},
       {"absint.zone_dim", static_cast<double>(Layers.ZoneDim), "count"},
       {"absint.arc_hit_ratio",
        ratio(L.Fix.ArcHits, L.Fix.ArcHits + L.Fix.ArcMisses), "ratio"},
       {"absint.ctx_hit_ratio", L.Fix.ctxHitRate(), "ratio"},
       {"absint.cascade_discharge_ratio",
        ratio(L.Casc.Discharged, L.Casc.Discharged + L.Casc.Promoted),
        "ratio"},
       {"bounds.trail_ms", Ms("bounds.trail"), "ms"},
       {"bounds.extract_ms",
        Ms("bounds.trail") - Ms("absint.product") - Ms("absint.interval") -
            Ms("absint.zone"),
        "ms"},
       {"bounds.upper_ratio",
        ratio(Layers.UpperTrails, Layers.FeasibleTrails), "ratio"},
       {"core.analyze_ms", Ms("core.analyze"), "ms"},
       {"core.trails", static_cast<double>(Work.Trails), "count/pass"},
       {"core.safety_ms", Layers.SafetyMs / Progs, "ms"},
       {"core.attack_ms", Layers.AttackMs / Progs, "ms"},
       {"core.narrowing_split_ratio",
        ratio(Layers.NarrowingSplits, Layers.Splits), "ratio"},
       {"core.unattributed_ms", Ms("core.analyze") - Replayed, "ms"},
       {"support.cache_hit_ratio",
        ratio(L.Cache.Hits, L.Cache.Hits + L.Cache.Misses), "ratio"},
       {"support.parallel_util", Util, "ratio"},
       {"support.rss_growth_kb_per_program", RssGrowthKb, "kB"},
       {"trace.overhead_ratio", Overhead, "ratio"}});
  return 0;
}
