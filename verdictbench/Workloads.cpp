//===- Workloads.cpp - Seeded verifier workloads with known answers -------===//
//
// Part of the Blazer reproduction. MIT license.
//
//===----------------------------------------------------------------------===//
//
// Why each workload exists (which layer it stresses, which it bypasses) is
// recorded in README.md beside this file; the generators below only build
// the programs.
//
//===----------------------------------------------------------------------===//

#include "Workloads.h"

#include "benchmarks/Benchmarks.h"

#include <algorithm>
#include <sstream>

using namespace blazer;
using namespace verdictbench;

namespace {

/// splitmix64: a fixed generator, so one seed gives the same programs on
/// every platform and standard library.
class Rng {
public:
  explicit Rng(uint64_t Seed) : State(Seed) {}
  uint64_t next() {
    uint64_t Z = (State += 0x9e3779b97f4a7c15ULL);
    Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebULL;
    return Z ^ (Z >> 31);
  }
  /// Uniform in [Lo, Hi].
  int range(int Lo, int Hi) {
    return Lo + static_cast<int>(next() % static_cast<uint64_t>(Hi - Lo + 1));
  }
  template <typename T> void shuffle(std::vector<T> &V) {
    for (size_t I = V.size(); I > 1; --I)
      std::swap(V[I - 1], V[next() % I]);
  }

private:
  uint64_t State;
};

uint64_t mixSeed(uint64_t Seed, const std::string &Workload) {
  uint64_t H = 1469598103934665603ULL;
  for (char C : Workload)
    H = (H ^ static_cast<unsigned char>(C)) * 1099511628211ULL;
  return Seed ^ H;
}

Case makeCase(std::string Name, std::string Source, BlazerOptions Opt,
              VerdictKind Expected) {
  Case C;
  C.Name = std::move(Name);
  C.Source = std::move(Source);
  C.Function = C.Source.substr(3, C.Source.find('(') - 3);
  C.Options = std::move(Opt);
  C.Expected = Expected;
  C.Leaks = Expected == VerdictKind::Attack;
  return C;
}

const char *QuadraticLoop = "i = 0; while (i < low) { j = 0; while (j < low) "
                            "{ j = j + 1; } i = i + 1; }";
const char *LinearUpLoop = "i = 0; while (i < low) { i = i + 1; }";
const char *LinearDownLoop = "i = low; while (i > 0) { i = i - 1; }";

/// A k-public-branch program in the shape of samples/adversarial.blz. Every
/// public branch is cost-irrelevant except, in the Safe variant, the last
/// one, which picks a quadratic or a linear loop on public data; refinement
/// must split all k branches (2^k leaves) before every leaf is narrow. The
/// Attack variant ends in a secret branch choosing quadratic vs linear
/// work; the Safe variant ends in a balanced secret branch. The relevant
/// branch always sits last in block order: at a random position the work
/// would vary 2^k-fold between seeds.
std::string adversarialSource(Rng &R, int K, bool Attack) {
  std::vector<int> Params(K);
  for (int I = 0; I < K; ++I)
    Params[I] = I;
  R.shuffle(Params);
  std::ostringstream OS;
  OS << "fn adversary_k" << K << "(secret high: int, public low: int";
  for (int I = 0; I < K; ++I)
    OS << ", public p" << I << ": int";
  OS << ") {\n  var i: int = 0;\n  var j: int = 0;\n  var acc: int = 0;\n";
  for (int I = 0; I < K; ++I) {
    int C = R.range(-20, 20);
    OS << "  if (p" << Params[I] << " > " << C << ") { ";
    if (!Attack && I == K - 1)
      OS << QuadraticLoop << " } else { " << LinearDownLoop << " }\n";
    else
      OS << "acc = acc + " << R.range(1, 9) << "; } else { acc = acc - "
         << R.range(1, 9) << "; }\n";
  }
  OS << "  if (high == " << R.range(-5, 5) << ") { ";
  if (Attack)
    OS << QuadraticLoop << " } else { " << LinearDownLoop << " }\n";
  else
    OS << LinearDownLoop << " } else { " << LinearUpLoop << " }\n";
  OS << "}\n";
  return OS.str();
}

Workload adversarial(Rng &R) {
  Workload W{/*Jobs=*/4, /*MemoryPasses=*/2, {}};
  BlazerOptions Opt;
  Opt.Jobs = W.Jobs;
  Opt.MaxTrails = 4096;
  Opt.MaxDepth = 64;
  // k = 8 twice: samples cluster by k, and with the middle cluster doubled
  // the median falls inside it instead of on the gap between two clusters,
  // where it would follow the clusters' tails.
  for (int K : {7, 8, 8, 9})
    for (bool Attack : {true, false})
      W.Cases.push_back(makeCase(
          "adversarial_k" + std::to_string(K) + (Attack ? "_attack" : "_safe"),
          adversarialSource(R, K, Attack), Opt,
          Attack ? VerdictKind::Attack : VerdictKind::Safe));
  return W;
}

/// The §6.2 scaling_subtrails families: k sequential branches on the public
/// input, each choosing a loop over it or a constant step, with sorted
/// random thresholds; the Attack variant appends an unbalanced secret tail.
std::string subtrailsSource(Rng &R, int K, bool Attack) {
  std::vector<int> Thresholds;
  for (int T = 0; T < 60; ++T)
    Thresholds.push_back(T);
  R.shuffle(Thresholds);
  Thresholds.resize(K);
  std::sort(Thresholds.begin(), Thresholds.end());
  std::ostringstream OS;
  OS << "fn " << (Attack ? "unsafe" : "safe") << "_k" << K
     << "(public low: int, secret high: int) {\n"
     << "  var x: int = 0;\n  var i: int = 0;\n";
  for (int T : Thresholds)
    OS << "  if (low > " << T << ") {\n    i = 0;\n"
       << "    while (i < low) { i = i + 1; }\n  } else {\n"
       << "    x = x + " << R.range(1, 9) << ";\n  }\n";
  if (Attack)
    OS << "  if (high > 0) {\n    i = 0;\n"
       << "    while (i < high) { i = i + 1; }\n  }\n";
  OS << "}\n";
  return OS.str();
}

Workload subtrails(Rng &R) {
  Workload W{/*Jobs=*/1, /*MemoryPasses=*/1, {}};
  BlazerOptions Opt;
  Opt.Jobs = W.Jobs;
  Opt.Observer = ObserverModel::concreteInstructions(/*Threshold=*/50,
                                                     /*DefaultMaxInput=*/100);
  Opt.MaxTrails = 4096;
  Opt.MaxDepth = 64;
  // The Attack family pays the whole decomposition plus the attack search
  // (k = 24 takes seconds), so it stops at k = 14 to keep a pass short.
  // Seven programs: the median and p90 fall inside one program's samples.
  for (int K : {12, 16, 20, 24})
    W.Cases.push_back(makeCase("subtrails_safe_k" + std::to_string(K),
                               subtrailsSource(R, K, false), Opt,
                               VerdictKind::Safe));
  for (int K : {12, 13, 14})
    W.Cases.push_back(makeCase("subtrails_unsafe_k" + std::to_string(K),
                               subtrailsSource(R, K, true), Opt,
                               VerdictKind::Attack));
  return W;
}

/// A nested-loop kernel over \p NumVars integer variables (so the zone DBM
/// is wider than its inline n <= 8 storage) with a public branch inside the
/// outer loop. The Attack variant ends in a secret branch choosing cubic or
/// constant work; the Safe variant's secret branch runs a cubic loop on
/// both arms, so both variants cost about the same. Which variables each
/// statement reads and writes is a fixed stride pattern; the seed sets the
/// constants. Randomly drawn variables made the fixpoint work, and so the
/// wall time, vary from seed to seed.
std::string loopsSource(Rng &R, int NumVars, bool Attack) {
  auto Var = [NumVars](int Stride, int Offset) {
    std::string Name = "v";
    return Name += std::to_string((Stride + Offset) % NumVars);
  };
  std::ostringstream OS;
  OS << "fn kernel_v" << NumVars
     << "(secret high: int, public n: int, public m: int) {\n";
  for (int V = 0; V < NumVars; ++V)
    OS << "  var v" << V << ": int = " << R.range(0, 9) << ";\n";
  OS << "  var i: int = 0;\n  var j: int = 0;\n  var t: int = 0;\n"
     << "  while (i < n) {\n";
  for (int S = 0; S < 6; ++S)
    OS << "    " << Var(7 * S, 1) << " = " << Var(5 * S, 3) << " + "
       << R.range(1, 9) << ";\n";
  std::string X = Var(NumVars / 2, 0), Y = Var(NumVars / 3, 0);
  OS << "    if (m > " << R.range(-20, 20) << ") { " << X << " = " << X
     << " + i; } else { " << Y << " = " << Y << " - i; }\n"
     << "    j = 0;\n    while (j < n) {\n";
  for (int S = 0; S < 4; ++S)
    OS << "      " << Var(3 * S, 2) << " = " << Var(11 * S, 5) << " + j;\n";
  OS << "      j = j + 1;\n    }\n    i = i + 1;\n  }\n"
     << "  if (high > " << R.range(-5, 5) << ") { ";
  const char *Cubic = "i = 0; while (i < n) { j = 0; while (j < n) { t = 0; "
                      "while (t < n) { t = t + 1; } j = j + 1; } i = i + 1; }";
  OS << Cubic << " } else { " << (Attack ? "t = 0;" : Cubic) << " }\n";
  OS << "}\n";
  return OS.str();
}

Workload loops(Rng &R) {
  Workload W{/*Jobs=*/1, /*MemoryPasses=*/10, {}};
  BlazerOptions Opt;
  Opt.Jobs = W.Jobs;
  // 36 twice, for the same reason as adversarial's k = 8.
  for (int NumVars : {24, 36, 36, 48})
    for (bool Attack : {true, false})
      W.Cases.push_back(
          makeCase("loops_v" + std::to_string(NumVars) +
                       (Attack ? "_attack" : "_safe"),
                   loopsSource(R, NumVars, Attack), Opt,
                   Attack ? VerdictKind::Attack : VerdictKind::Safe));
  return W;
}

/// The 24 Table-1 programs against the registry's Expected verdicts and the
/// six TableCT kernels in --ct mode against ExpectedCt, in a seeded order.
Workload table1(Rng &R) {
  Workload W{/*Jobs=*/4, /*MemoryPasses=*/100, {}};
  auto Add = [&W](const BenchmarkProgram &B, bool Ct) {
    Case C;
    C.Name = B.Name;
    C.Source = B.Source;
    C.Function = B.Name;
    C.Options = B.options();
    C.Options.Jobs = W.Jobs;
    C.Options.Engine.CtMode = Ct;
    C.Ct = Ct;
    C.Expected = B.Expected;
    C.ExpectedCt = B.ExpectedCt;
    // gpt14_unsafe is expected Unknown but still leaks.
    C.Leaks = B.Name.size() > 7 &&
              B.Name.compare(B.Name.size() - 7, 7, "_unsafe") == 0;
    W.Cases.push_back(std::move(C));
  };
  for (const BenchmarkProgram &B : allBenchmarks())
    Add(B, false);
  for (const BenchmarkProgram &B : tableCtBenchmarks())
    Add(B, true);
  R.shuffle(W.Cases);
  return W;
}

} // namespace

const std::vector<std::string> &verdictbench::workloadNames() {
  static const std::vector<std::string> Names = {"adversarial", "subtrails",
                                                 "loops", "table1"};
  return Names;
}

std::optional<Workload> verdictbench::makeWorkload(const std::string &Name,
                                                   uint64_t Seed) {
  Rng R(mixSeed(Seed, Name));
  if (Name == "adversarial")
    return adversarial(R);
  if (Name == "subtrails")
    return subtrails(R);
  if (Name == "loops")
    return loops(R);
  if (Name == "table1")
    return table1(R);
  return std::nullopt;
}
