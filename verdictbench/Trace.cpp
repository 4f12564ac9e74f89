//===- Trace.cpp - In-memory span recorder for the traced run -------------===//
//
// Part of the Blazer reproduction. MIT license.
//
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include <cstdio>

using namespace verdictbench;

int Tracer::begin(const char *Name, int Program) {
  int Parent = Open.empty() ? -1 : Open.back();
  Spans.push_back({Name, nowNs(), 0, Parent, Program});
  Open.push_back(static_cast<int>(Spans.size()) - 1);
  return Open.back();
}

void Tracer::end(int Index) {
  Spans[Index].EndNs = nowNs();
  Open.pop_back();
}

std::map<std::string, double> Tracer::selfMs() const {
  std::vector<int64_t> ChildNs(Spans.size(), 0);
  for (const Span &S : Spans)
    if (S.Parent >= 0)
      ChildNs[S.Parent] += S.EndNs - S.StartNs;
  std::map<std::string, double> Out;
  for (size_t I = 0; I < Spans.size(); ++I)
    Out[Spans[I].Name] +=
        static_cast<double>(Spans[I].EndNs - Spans[I].StartNs - ChildNs[I]) /
        1e6;
  return Out;
}

bool Tracer::writeChromeTrace(const std::string &Path) const {
  FILE *Out = std::fopen(Path.c_str(), "w");
  if (!Out)
    return false;
  std::fprintf(Out, "{\"traceEvents\":[");
  for (size_t I = 0; I < Spans.size(); ++I) {
    const Span &S = Spans[I];
    std::fprintf(Out,
                 "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"program\":%d,"
                 "\"parent\":%d}}",
                 I ? "," : "", S.Name, static_cast<double>(S.StartNs) / 1e3,
                 static_cast<double>(S.EndNs - S.StartNs) / 1e3, S.Program,
                 S.Parent);
  }
  std::fprintf(Out, "\n],\"displayTimeUnit\":\"ms\"}\n");
  return std::fclose(Out) == 0;
}
