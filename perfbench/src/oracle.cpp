//===- perfbench/src/oracle.cpp - Concrete-execution soundness oracle ------===//
//
// Part of the warrow project, released under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "oracle.h"

#include "lang/interp.h"
#include "lang/parser.h"
#include "support/hash.h"

#include <algorithm>
#include <unordered_map>

using namespace warrow;

namespace perfbench {

namespace {

struct PointKey {
  uint32_t Func, Node;
  Symbol Sym;
  bool operator==(const PointKey &O) const = default;
};
struct PointKeyHash {
  size_t operator()(const PointKey &K) const {
    return hashAll(K.Func, K.Node, K.Sym);
  }
};

void widenHull(std::pair<int64_t, int64_t> &H, int64_t V) {
  H.first = std::min(H.first, V);
  H.second = std::max(H.second, V);
}

} // namespace

OracleSamples observeProgram(const std::string &Source, uint64_t MaxSteps) {
  OracleSamples S;
  DiagnosticEngine Diags;
  std::unique_ptr<Program> P = parseProgram(Source, Diags);
  if (!P)
    return S;
  ProgramCfg Cfgs = buildProgramCfg(*P);

  std::unordered_map<PointKey, std::pair<int64_t, int64_t>, PointKeyHash> Pts;
  std::unordered_map<Symbol, std::pair<int64_t, int64_t>> Globs;
  InterpOptions Options;
  Options.MaxSteps = MaxSteps;
  Interpreter I(*P, Cfgs, {}, Options);
  I.setObserver([&](uint32_t Func, uint32_t Node, const ConcreteFrame &Frame,
                    const ConcreteGlobals &Globals) {
    for (const auto &[Sym, Value] : Frame.Scalars) {
      auto [It, Fresh] =
          Pts.try_emplace(PointKey{Func, Node, Sym}, Value, Value);
      if (!Fresh)
        widenHull(It->second, Value);
    }
    for (const auto &[Sym, Value] : Globals.Scalars) {
      auto [It, Fresh] = Globs.try_emplace(Sym, Value, Value);
      if (!Fresh)
        widenHull(It->second, Value);
    }
  });
  S.Steps = I.run().Steps;

  std::unordered_map<Symbol, uint32_t> NameIndex;
  auto NameOf = [&](Symbol Sym) {
    auto [It, Fresh] =
        NameIndex.try_emplace(Sym, static_cast<uint32_t>(S.Names.size()));
    if (Fresh)
      S.Names.push_back(P->Symbols.spelling(Sym));
    return It->second;
  };
  for (const auto &[K, H] : Pts)
    S.Points.push_back({K.Func, K.Node, NameOf(K.Sym), H.first, H.second});
  for (const auto &[Sym, H] : Globs)
    S.Globals.push_back({0, 0, NameOf(Sym), H.first, H.second});
  return S;
}

std::string checkOracle(const OracleSamples &S, const Program &P,
                        const AnalysisResult &R, bool Points) {
  std::vector<Symbol> Syms;
  Syms.reserve(S.Names.size());
  for (const std::string &Name : S.Names)
    Syms.push_back(P.Symbols.lookup(Name));
  auto Describe = [&](const OracleSamples::Hull &H) {
    return S.Names[H.Name] + " in [" + std::to_string(H.Lo) + "," +
           std::to_string(H.Hi) + "]";
  };

  for (const OracleSamples::Hull &H : S.Globals) {
    Symbol Sym = Syms[H.Name];
    if (Sym == 0)
      return "oracle: global " + S.Names[H.Name] + " missing";
    if (!R.Solution.inDomain(AnalysisVar::global(Sym))) {
      // Never read and never written by the analysis: only its initial
      // value can have been observed.
      auto It = std::find_if(P.Globals.begin(), P.Globals.end(),
                             [&](const GlobalDecl &G) { return G.Name == Sym; });
      if (It != P.Globals.end() && H.Lo == It->Init && H.Hi == It->Init)
        continue;
      return "oracle: global " + Describe(H) + " outside the solved domain";
    }
    Interval I = R.globalValue(Sym);
    if (!I.contains(H.Lo) || !I.contains(H.Hi))
      return "oracle: global " + Describe(H) + " not contained";
  }
  if (!Points)
    return "";
  for (const OracleSamples::Hull &H : S.Points) {
    Symbol Sym = Syms[H.Name];
    AbsValue V = R.at(H.Func, H.Node, 0);
    if (V.isBot())
      return "oracle: reached point " + std::to_string(H.Func) + ":" +
             std::to_string(H.Node) + " is bottom";
    Interval I = V.isEnv()   ? V.envValue().get(Sym)
                 : V.isRel() ? V.relValue().get(Sym)
                             : Interval::top();
    if (!I.contains(H.Lo) || !I.contains(H.Hi))
      return "oracle: at " + std::to_string(H.Func) + ":" +
             std::to_string(H.Node) + " " + Describe(H) + " not contained";
  }
  return "";
}

} // namespace perfbench
