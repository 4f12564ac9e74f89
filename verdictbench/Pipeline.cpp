//===- Pipeline.cpp - One program from source text to a checked verdict ---===//
//
// Part of the Blazer reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Pipeline.h"

#include "absint/Analyzer.h"
#include "absint/ProductGraph.h"
#include "bounds/BoundAnalysis.h"
#include "dataflow/Taint.h"
#include "ir/Cfg.h"
#include "lang/Parser.h"
#include "lang/Sema.h"

#include <chrono>
#include <deque>
#include <memory>
#include <optional>

using namespace blazer;
using namespace verdictbench;

WorkCounters &WorkCounters::operator+=(const WorkCounters &O) {
  Trails += O.Trails;
  SplitStates += O.SplitStates;
  ZonePops += O.ZonePops;
  ZoneJoins += O.ZoneJoins;
  ZoneWidenings += O.ZoneWidenings;
  return *this;
}

namespace {

double msSince(std::chrono::steady_clock::time_point T0) {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now() - T0)
      .count();
}

void fnv(uint64_t &H, const std::string &S) {
  for (char C : S)
    H = (H ^ static_cast<unsigned char>(C)) * 1099511628211ULL;
  H = (H ^ 0xff) * 1099511628211ULL; // Field separator.
}

void mismatch(LayerStats &L, const Case &C, const std::string &What) {
  ++L.Mismatches;
  if (L.MismatchNotes.size() < 8)
    L.MismatchNotes.push_back(C.Name + ": " + What);
}

/// Front end, timed per call when traced. Mirrors compileFunction().
Result<CfgFunction> compile(const Case &C, const BuiltinRegistry &Registry,
                            Tracer *T, int Id) {
  if (!T)
    return compileFunction(C.Source, C.Function, Registry);
  std::optional<SpanScope> Span;
  Span.emplace(*T, "lang.parse", Id);
  Result<Program> Parsed = parseProgram(C.Source);
  Span.reset();
  if (!Parsed)
    return Parsed.diag();
  auto P = std::make_shared<Program>(Parsed.take());
  Span.emplace(*T, "lang.sema", Id);
  Result<SemaResult> Sema = analyzeProgram(*P, Registry);
  Span.reset();
  if (!Sema)
    return Sema.diag();
  if (!P->find(C.Function))
    return Result<CfgFunction>::error("no function named '" + C.Function +
                                      "'");
  SpanScope Lower(*T, "ir.lower", Id);
  return lowerFunction(P, C.Function, *Sema, Registry);
}

/// Replays the verdict path of \p R layer by layer and checks it against
/// the tree analyzeFunction produced. Uses a cache-free, pool-free
/// BoundAnalysis so every trail is analyzed in full on this thread.
void replay(const CfgFunction &F, const Case &C, const BlazerResult &R,
            Tracer &T, int Id, LayerStats &L) {
  {
    SpanScope Span(T, "dataflow.taint", Id);
    TaintInfo Taint = runTaintAnalysis(F);
  }
  BoundAnalysis BA(F, C.Options.Observer.pinnedSymbols(), nullptr, nullptr,
                   C.Options.Engine);
  const EdgeAlphabet &A = BA.alphabet();
  int N = static_cast<int>(A.size());
  {
    Dfa Mg = [&] {
      SpanScope Span(T, "automata.mg", Id);
      return BA.mostGeneralTrail().minimize();
    }();
    if (R.Tree.empty() || Mg.canonicalKey() != R.Tree[0].Auto.canonicalKey())
      mismatch(L, C, "most general trail DFA differs");
  }

  for (const Trail &Tr : R.Tree) {
    if (!Tr.Children.empty()) {
      ++L.Splits;
      bool Narrowed = false;
      for (int Child : Tr.Children)
        Narrowed |= R.Tree[Child].Bounds.str() != Tr.Bounds.str();
      L.NarrowingSplits += Narrowed;
    }
    if (Tr.Parent < 0)
      continue;
    const Dfa &Parent = R.Tree[Tr.Parent].Auto;
    const BasicBlock &B = F.block(Tr.SplitBlock);
    int SymT = A.symbol(Edge{Tr.SplitBlock, B.TrueSucc});
    int SymF = A.symbol(Edge{Tr.SplitBlock, B.FalseSucc});
    Dfa Child = [&] {
      SpanScope Span(T, "automata.split", Id);
      switch (Tr.Split) {
      case SplitKind::AvoidFalse:
        return Parent.intersect(Dfa::avoidsSymbol(N, SymF)).minimize();
      case SplitKind::AvoidTrue:
        return Parent.intersect(Dfa::avoidsSymbol(N, SymT)).minimize();
      default:
        return Parent.intersect(Dfa::containsSymbol(N, SymT))
            .intersect(Dfa::containsSymbol(N, SymF))
            .minimize();
      }
    }();
    ++L.SplitChildren;
    L.TakesBothChildren += Tr.Split == SplitKind::TakesBoth;
    if (Child.canonicalKey() != Tr.Auto.canonicalKey())
      mismatch(L, C, "trail tr" + std::to_string(Tr.Id) + " DFA differs");
  }

  AnalyzerConfig Cfg;
  Cfg.UseWto = C.Options.Engine.Fixpoint == FixpointSched::Wto;
  Cfg.ArcCache = C.Options.Engine.ArcCache;
  Cfg.PooledContext = C.Options.Engine.PooledFixpointCtx;
  IntervalAnalyzer IntAz(F, BA.env(), Cfg);
  Analyzer Az(F, BA.env(), Cfg);
  L.ZoneDim = std::max<uint64_t>(L.ZoneDim, BA.env().numVars());
  bool Cascade = C.Options.Engine.Domain == DomainMode::Cascade;

  for (const Trail &Tr : R.Tree) {
    TrailBoundResult Bounds = [&] {
      SpanScope Span(T, "bounds.trail", Id);
      return BA.analyzeTrail(Tr.Auto);
    }();
    L.FeasibleTrails += Bounds.Feasible;
    L.UpperTrails += Bounds.Feasible && Bounds.hasUpper();
    if (Bounds.str() != Tr.Bounds.str())
      mismatch(L, C,
               "trail tr" + std::to_string(Tr.Id) + " bounds " +
                   Bounds.str() + " vs " + Tr.Bounds.str());

    // The parts of analyzeTrail, replayed one by one so their time can be
    // subtracted from it (bounds.extract = trail - product - interval -
    // zone). The reachability sweep between the interval and zone runs is
    // BoundAnalysis's cascade step, repeated here to build the same mask.
    ProductGraph G = [&] {
      SpanScope Span(T, "absint.product", Id);
      return ProductGraph::build(F, Tr.Auto, A);
    }();
    L.ProductNodes += G.size();
    for (size_t Node = 0; Node < G.size(); ++Node)
      L.ProductArcs += G.successors(static_cast<int>(Node)).size();
    if (G.empty())
      continue;
    std::vector<char> Dead;
    if (Cascade) {
      IntervalAnalysisResult IR = [&] {
        SpanScope Span(T, "absint.interval", Id);
        return IntAz.analyze(G);
      }();
      std::vector<char> Fwd(G.size(), 0);
      std::deque<int> Work;
      if (IR.Feasible[G.entry()]) {
        Fwd[G.entry()] = 1;
        Work.push_back(G.entry());
      }
      while (!Work.empty()) {
        int Node = Work.front();
        Work.pop_front();
        for (const ProductGraph::Arc &Arc : G.successors(Node)) {
          if (Fwd[Arc.To] || !IR.Feasible[Arc.To] ||
              IntAz.transferEdge(IR.EntryState[Node], Arc.CfgEdge).isBottom())
            continue;
          Fwd[Arc.To] = 1;
          Work.push_back(Arc.To);
        }
      }
      bool AnyAccept = false;
      for (int Acc : G.accepts())
        AnyAccept = AnyAccept || Fwd[Acc];
      if (!AnyAccept)
        continue;
      Dead.assign(G.size(), 0);
      for (size_t I = 0; I < G.size(); ++I)
        Dead[I] = !Fwd[I];
    }
    SpanScope Span(T, "absint.zone", Id);
    Az.analyze(G, Dead.empty() ? nullptr : &Dead);
  }
}

} // namespace

Outcome verdictbench::runProgram(const Case &C, const BuiltinRegistry &Registry,
                                 Tracer *T, int Id, LayerStats *Layers) {
  Outcome O;
  auto T0 = std::chrono::steady_clock::now();
  std::optional<SpanScope> Root;
  if (T)
    Root.emplace(*T, "program", Id);
  Result<CfgFunction> F = compile(C, Registry, T, Id);
  if (!F) {
    O.WallMs = msSince(T0);
    O.Got = "compile error: " + F.diag().str();
    return O;
  }
  BlazerResult R = [&] {
    std::optional<SpanScope> Span;
    if (T)
      Span.emplace(*T, "core.analyze", Id);
    return analyzeFunction(*F, C.Options);
  }();
  O.WallMs = msSince(T0);

  if (C.Ct) {
    O.Got = ctVerdictName(R.Ct);
    O.Match = R.Ct == C.ExpectedCt &&
              (C.ExpectedCt != CtVerdict::CtUnsafe || R.CtPair.has_value());
    O.Unsound = C.Leaks && R.Ct == CtVerdict::CtSafe;
  } else {
    O.Got = verdictName(R.Verdict);
    O.Match = R.Verdict == C.Expected;
    O.Unsound = C.Leaks && R.Verdict == VerdictKind::Safe;
  }

  O.Digest = 1469598103934665603ULL;
  fnv(O.Digest, C.Name);
  fnv(O.Digest, verdictName(R.Verdict));
  fnv(O.Digest, ctVerdictName(R.Ct));
  fnv(O.Digest, R.treeString(*F));
  for (const Trail &Tr : R.Tree)
    fnv(O.Digest, Tr.Bounds.str());

  O.Work.Trails = R.Tree.size();
  for (const Trail &Tr : R.Tree)
    if (Tr.Parent >= 0)
      O.Work.SplitStates += static_cast<uint64_t>(Tr.Auto.numStates());
  O.Work.ZonePops = R.Telemetry.Fixpoint.Pops;
  O.Work.ZoneJoins = R.Telemetry.Fixpoint.Joins;
  O.Work.ZoneWidenings = R.Telemetry.Fixpoint.Widenings;
  O.Telemetry = R.Telemetry;
  O.SafetyMs = R.SafetySeconds * 1e3;
  O.AttackMs = (R.TotalSeconds - R.SafetySeconds) * 1e3;

  if (T && Layers) {
    ++Layers->Programs;
    Layers->Blocks += F->blockCount();
    Layers->Edges += F->edges().size();
    Layers->SafetyMs += O.SafetyMs;
    Layers->AttackMs += O.AttackMs;
    replay(*F, C, R, *T, Id, *Layers);
  }
  return O;
}
