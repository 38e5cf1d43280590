//===- perfbench/src/workloads.cpp - The benchmark's workloads -------------===//
//
// Part of the warrow project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The four workloads (README.md has the full metric map):
///
///   spec-cold     Table 1: seven SpecCpu-scale programs from source text,
///                 interval domain, {no context, context} x {⊟, ▽}.
///   spec-zones    the same programs, no context, ⊟, zones domain.
///   spec-edit     warrow-analyze --snapshot-in/--snapshot-out on edited
///                 bzip2/sphinx: 16 leaf edits (pure helpers) and 4 inner
///                 edits (f<i>) per pass, so latency p50 reads leaf-edit
///                 latency and p90 reads inner-edit latency.
///   stress-rings  one sequential SLR+ ⊟ solve of 1,048,897 unknowns,
///                 engine and combine alone.
///
/// Seed 0 reproduces the repository's programs (Table 1 profile seeds,
/// edit-mid as the first inner edit, stress seed 1234); any other seed
/// derives same-shaped inputs from it.
///
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include "analysis/env_pool.h"
#include "analysis/rel_env.h"
#include "analysis/snapshot.h"
#include "engine/strategies/slr.h"
#include "eqsys/verify.h"
#include "lang/lexer.h"
#include "lang/parser.h"
#include "lang/sema.h"
#include "oracle.h"
#include "support/rng.h"
#include "workloads/eq_generators.h"
#include "workloads/spec_generator.h"

#include <malloc.h>

#include <algorithm>
#include <optional>
#include <unordered_set>

using namespace warrow;

namespace perfbench {

namespace {

/// Interpreter steps the oracle observes per program during set-up.
constexpr uint64_t OracleSteps = 200'000;

uint64_t deriveSeed(uint64_t Base, uint64_t Seed) {
  if (Seed == 0)
    return Base;
  Rng R(Base ^ (Seed * 0x9e3779b97f4a7c15ull));
  return R.next();
}

const char *const RunSegments[3] = {"analysis.build", "analysis.solve",
                                    "analysis.result"};
const char *const ResumeSegments[3] = {"incr.prepare", "incr.solve",
                                       "incr.capture"};
const char *const StressSegments[3] = {"engine.enter", "engine.solve",
                                       "engine.result"};

struct Parsed {
  std::unique_ptr<Program> P;
  ProgramCfg Cfgs;
};

struct FrontendCounts {
  uint64_t Tokens = 0;
  uint64_t CfgNodes = 0;
};

/// lex -> parse -> sema -> CFG through each layer's public entry point.
std::string frontend(const std::string &Source, Parsed &Out, Probe *Pr,
                     int Parent, FrontendCounts &C) {
  DiagnosticEngine Diags;
  int S = spanOpen(Pr, "lang.lex", Parent);
  Lexer Lex(Source, Diags);
  std::vector<Token> Tokens = Lex.lexAll();
  spanClose(Pr, S);
  if (Diags.hasErrors())
    return "lexer: " + Diags.str();
  C.Tokens = Tokens.size();
  S = spanOpen(Pr, "lang.parse", Parent);
  Parser Par(std::move(Tokens), Diags);
  Out.P = Par.parse();
  spanClose(Pr, S);
  if (!Out.P || Diags.hasErrors())
    return "parser: " + Diags.str();
  S = spanOpen(Pr, "lang.sema", Parent);
  bool Ok = checkProgram(*Out.P, Diags);
  spanClose(Pr, S);
  if (!Ok)
    return "sema: " + Diags.str();
  S = spanOpen(Pr, "lang.cfg", Parent);
  Out.Cfgs = buildProgramCfg(*Out.P);
  spanClose(Pr, S);
  C.CfgNodes = Out.Cfgs.totalNodes();
  return "";
}

void addFrontend(Tally &T, const FrontendCounts &C) {
  T.Counts["lang.tokens"] += static_cast<double>(C.Tokens);
  T.Counts["lang.cfg_nodes"] += static_cast<double>(C.CfgNodes);
}

/// Counters of the calling thread's hash-cons pools. Every job runs on a
/// fresh thread, so they are exactly the job's own.
void addPools(Tally &T) {
  const EnvPool &E = EnvPool::local();
  T.Counts["env.intern_hits"] += static_cast<double>(E.internHits());
  T.Counts["env.intern_misses"] += static_cast<double>(E.internMisses());
  T.Counts["env.distinct"] += static_cast<double>(E.distinctEnvs());
  const RelPool &R = RelPool::local();
  T.Counts["relenv.intern_hits"] += static_cast<double>(R.internHits());
  T.Counts["relenv.intern_misses"] += static_cast<double>(R.internMisses());
  T.Counts["relenv.distinct"] += static_cast<double>(R.distinctEnvs());
}

void addEngine(Tally &T, const EngineCounts &C) {
  T.Counts["engine.dependency_records"] += static_cast<double>(C.Dependencies);
  T.Counts["engine.destabilizations"] +=
      static_cast<double>(C.Destabilizations);
  T.Counts["engine.enqueues"] += static_cast<double>(C.Enqueues);
  T.Counts["engine.side_contributions"] +=
      static_cast<double>(C.SideContributions);
  T.Counts["engine.widen_updates"] += static_cast<double>(C.WidenUpdates);
  T.Counts["engine.narrow_updates"] += static_cast<double>(C.NarrowUpdates);
  double &Depth = T.Counts["engine.max_eval_depth"];
  Depth = std::max(Depth, static_cast<double>(C.MaxEvalDepth));
}

void addAnalysis(Tally &T, const AnalysisResult &R, uint64_t FiniteBounds) {
  T.Counts["analysis.rhs_evals"] += static_cast<double>(R.Stats.RhsEvals);
  T.Counts["analysis.unknowns"] += static_cast<double>(R.NumUnknowns);
  T.Counts["analysis.updates"] += static_cast<double>(R.Stats.Updates);
  T.Counts["analysis.rhs_cache_hits"] +=
      static_cast<double>(R.Stats.RhsCacheHits);
  T.Counts["analysis.rhs_cache_misses"] +=
      static_cast<double>(R.Stats.RhsCacheMisses);
  T.Counts["analysis.finite_bounds"] += static_cast<double>(FiniteBounds);
}

/// Finite interval bounds over the globals and main's exit: speed bought
/// with precision lowers this count.
uint64_t finiteBounds(const Program &P, const AnalysisResult &R,
                      const AnalysisVar &Root) {
  uint64_t N = 0;
  auto Count = [&N](const Interval &I) {
    if (I.isBot())
      return;
    N += I.lo().isFinite() ? 1 : 0;
    N += I.hi().isFinite() ? 1 : 0;
  };
  for (const GlobalDecl &G : P.Globals)
    if (!G.isArray())
      Count(R.globalValue(G.Name));
  AbsValue Exit = R.Solution.value(Root);
  if (Exit.isBot())
    return N;
  for (Symbol S : collectFunctionVars(*P.Functions[Root.Func]).Scalars)
    Count(Exit.isEnv() ? Exit.envValue().get(S) : Exit.relValue().get(S));
  return N;
}

std::string verifyAndOracle(InterprocAnalysis &A, const AnalysisResult &R,
                            const Program &P, const OracleSamples &Oracle,
                            bool Points) {
  if (!R.Stats.Converged)
    return "did not converge (" + R.Stats.str() + ")";
  VerifyResult V = A.verifySolution(R);
  if (!V.Ok)
    return "verifySolution: " + V.str();
  return checkOracle(Oracle, P, R, Points);
}

// --- spec-cold / spec-zones ------------------------------------------------

struct SpecInput {
  std::string Name;
  std::string Source;
  OracleSamples Oracle;
};

std::vector<SpecInput> specInputs(uint64_t Seed) {
  std::vector<SpecInput> Out;
  for (SpecProfile Profile : specSuite()) {
    Profile.Seed = deriveSeed(Profile.Seed, Seed);
    SpecInput In;
    In.Name = Profile.Name;
    In.Source = generateSpecProgram(Profile);
    In.Oracle = observeProgram(In.Source, OracleSteps);
    Out.push_back(std::move(In));
  }
  return Out;
}

/// Table 1 (spec-cold) or its zones column (spec-zones). Job classes:
/// 2 * context + (▽ ? 1 : 0).
class SpecSuite final : public Workload {
public:
  explicit SpecSuite(bool Zones) : Zones(Zones) {}

  std::string setup(uint64_t Seed) override {
    Inputs = specInputs(Seed);
    for (const SpecInput &In : Inputs)
      if (In.Oracle.Steps == 0)
        return In.Name + ": generated program does not run";
    return "";
  }

  size_t jobsPerPass() const override {
    return Zones ? Inputs.size() : Inputs.size() * 4;
  }

  JobResult runJob(size_t I, Probe *Pr) override {
    const SpecInput &In = Inputs[Zones ? I : I / 4];
    AnalysisOptions Opts;
    SolverChoice Choice = SolverChoice::Warrow;
    JobResult J;
    if (Zones) {
      Opts.Domain = AnalysisDomain::Zones;
    } else {
      Opts.ContextSensitive = (I % 4) >= 2;
      Choice = I % 2 ? SolverChoice::WidenOnly : SolverChoice::Warrow;
      J.Class = static_cast<int>(I % 4);
    }
    EngineSink Sink;
    if (Pr)
      Opts.Solver.Trace = &Sink;

    Clock::time_point Start = Clock::now();
    int Root = spanOpen(Pr, "job", -1);
    Parsed X;
    FrontendCounts FC;
    J.Error = frontend(In.Source, X, Pr, Root, FC);
    if (!J.Error.empty())
      return J;
    InterprocAnalysis A(*X.P, X.Cfgs, Opts);
    Clock::time_point RunStart = Clock::now();
    AnalysisResult R = segmented(Pr, Root, "analysis.run", RunSegments, &Sink,
                                 [&] { return A.run(Choice); });
    Clock::time_point End = Clock::now();
    spanClose(Pr, Root);
    J.Ms = msBetween(Start, End);
    J.CoreMs = msBetween(RunStart, End);
    J.Evals = R.Stats.RhsEvals;

    addPools(J.T);
    addFrontend(J.T, FC);
    addAnalysis(J.T, R, finiteBounds(*X.P, R, A.root()));
    if (Pr)
      addEngine(J.T, Sink.C);
    J.Error = verifyAndOracle(A, R, *X.P, In.Oracle, !Opts.ContextSensitive);
    if (!J.Error.empty())
      J.Error = In.Name + ": " + J.Error;
    return J;
  }

  void derive(const std::vector<JobResult> &Untraced,
              std::map<std::string, double> &M) const override {
    if (Zones)
      return;
    // (⊟ wall / ▽ wall) / (⊟ evals / ▽ evals) per context mode: 1.0 means
    // ⊟ costs exactly its extra evaluations.
    double Ms[4] = {0, 0, 0, 0}, Evals[4] = {0, 0, 0, 0};
    for (const JobResult &J : Untraced) {
      Ms[J.Class] += J.CoreMs;
      Evals[J.Class] += static_cast<double>(J.Evals);
    }
    auto Ratio = [&](int W, int N) {
      return Ms[N] > 0 && Evals[W] > 0
                 ? (Ms[W] / Ms[N]) / (Evals[W] / Evals[N])
                 : 0.0;
    };
    M["combine.warrow_cost_ratio_noctx"] = Ratio(0, 1);
    M["combine.warrow_cost_ratio_ctx"] = Ratio(2, 3);
  }

private:
  bool Zones;
  std::vector<SpecInput> Inputs;
};

// --- spec-edit -------------------------------------------------------------

constexpr unsigned EditHelpers = 8;
constexpr unsigned InnerEdits = 2;
constexpr int LeafClass = 0;
constexpr int InnerClass = 1;

struct EditInput {
  size_t Base = 0;
  int Class = LeafClass;
  std::string Source;
  std::map<std::string, std::string> ColdSigma;
  uint64_t ColdEvals = 0;
  OracleSamples Oracle;
};

/// One analysis from source text with snapshot capture — the cold
/// `warrow-analyze --snapshot-out` job, used to build references.
struct ColdRun {
  std::string Error;
  std::string SnapshotText;
  std::map<std::string, std::string> Sigma;
  uint64_t Evals = 0;
  double Ms = 0;
  std::unordered_set<std::string> ReachedFuncs; ///< Some point not bottom.
};

ColdRun coldRun(const std::string &Source) {
  ColdRun C;
  Clock::time_point Start = Clock::now();
  Parsed X;
  FrontendCounts FC;
  C.Error = frontend(Source, X, nullptr, -1, FC);
  if (!C.Error.empty())
    return C;
  InterprocAnalysis A(*X.P, X.Cfgs, AnalysisOptions{});
  AnalysisSnapshot Cap;
  AnalysisResult R = A.run(SolverChoice::Warrow, &Cap);
  C.SnapshotText = serializeAnalysisSnapshot(Cap, *X.P);
  C.Ms = msBetween(Start, Clock::now());
  if (!R.Stats.Converged) {
    C.Error = "cold reference did not converge";
    return C;
  }
  C.Sigma = canonicalSigma(R.Solution, *X.P, Cap.Contexts);
  C.Evals = R.Stats.RhsEvals;
  for (const auto &[V, Value] : R.Solution.Sigma)
    if (V.isPoint() && !Value.isBot())
      C.ReachedFuncs.insert(
          X.P->Symbols.spelling(X.P->Functions[V.Func]->Name));
  return C;
}

class SpecEdit final : public Workload {
public:
  std::string setup(uint64_t Seed) override {
    for (const char *Name : {"401.bzip2", "482.sphinx"}) {
      SpecProfile Base = *findSpecProfile(Name);
      Base.Seed = deriveSeed(Base.Seed, Seed);
      Base.PureHelpers = EditHelpers;
      ColdRun BaseRun = coldRun(generateSpecProgram(Base));
      if (!BaseRun.Error.empty())
        return std::string(Name) + ": " + BaseRun.Error;
      BaseTexts.push_back(std::move(BaseRun.SnapshotText));

      std::vector<std::pair<int, int>> Edits; // (EditFunction, class)
      for (unsigned H = 0; H < EditHelpers; ++H)
        Edits.push_back({static_cast<int>(Base.NumFunctions + H), LeafClass});
      // Inner edits: reached functions f<i>, edit-mid first for seed 0.
      Rng R(deriveSeed(Base.Seed, Seed + 1));
      std::vector<int> Picks;
      for (unsigned Attempt = 0; Picks.size() < InnerEdits && Attempt < 1000;
           ++Attempt) {
        int F = Seed == 0 && Attempt == 0
                    ? static_cast<int>(Base.NumFunctions / 2)
                    : static_cast<int>(R.below(Base.NumFunctions));
        if (BaseRun.ReachedFuncs.count("f" + std::to_string(F)) &&
            std::find(Picks.begin(), Picks.end(), F) == Picks.end())
          Picks.push_back(F);
      }
      if (Picks.size() < InnerEdits)
        return std::string(Name) + ": too few reached functions to edit";
      for (int F : Picks)
        Edits.push_back({F, InnerClass});

      for (auto [F, Class] : Edits) {
        SpecProfile Edited = Base;
        Edited.EditFunction = F;
        Edited.EditDelta = 5;
        EditInput E;
        E.Base = BaseTexts.size() - 1;
        E.Class = Class;
        E.Source = generateSpecProgram(Edited);
        ColdRun Ref = coldRun(E.Source);
        if (!Ref.Error.empty())
          return std::string(Name) + ": " + Ref.Error;
        E.ColdSigma = std::move(Ref.Sigma);
        E.ColdEvals = Ref.Evals;
        ColdMs.push_back(Ref.Ms);
        E.Oracle = observeProgram(E.Source, OracleSteps);
        Inputs.push_back(std::move(E));
      }
    }
    return "";
  }

  size_t jobsPerPass() const override { return Inputs.size(); }

  JobResult runJob(size_t I, Probe *Pr) override {
    const EditInput &In = Inputs[I];
    AnalysisOptions Opts;
    EngineSink Sink;
    if (Pr)
      Opts.Solver.Trace = &Sink;
    JobResult J;
    J.Class = In.Class;

    Clock::time_point Start = Clock::now();
    int Root = spanOpen(Pr, "job", -1);
    Parsed X;
    FrontendCounts FC;
    J.Error = frontend(In.Source, X, Pr, Root, FC);
    if (!J.Error.empty())
      return J;
    int S = spanOpen(Pr, "snapshot.load", Root);
    std::optional<AnalysisSnapshot> Snap =
        parseAnalysisSnapshot(BaseTexts[In.Base], *X.P);
    spanClose(Pr, S);
    if (!Snap) {
      J.Error = "base snapshot does not load";
      return J;
    }
    if (Pr) {
      // runIncremental diffs internally; this call only times the diff.
      S = spanOpen(Pr, "snapshot.diff", Root);
      ProgramDiff Diff = diffSnapshot(*Snap, *X.P, X.Cfgs);
      spanClose(Pr, S);
      if (!Diff.anyChange())
        J.Error = "the edit changed nothing";
    }
    InterprocAnalysis A(*X.P, X.Cfgs, Opts);
    AnalysisSnapshot Cap;
    IncrementalStats Inc;
    AnalysisResult R =
        segmented(Pr, Root, "incr.resume", ResumeSegments, &Sink, [&] {
          return A.runIncremental(SolverChoice::Warrow, *Snap, *X.P, &Cap,
                                  &Inc);
        });
    S = spanOpen(Pr, "snapshot.store", Root);
    std::string Text = serializeAnalysisSnapshot(Cap, *X.P);
    spanClose(Pr, S);
    Clock::time_point End = Clock::now();
    spanClose(Pr, Root);
    J.Ms = msBetween(Start, End);

    addPools(J.T);
    addFrontend(J.T, FC);
    addAnalysis(J.T, R, finiteBounds(*X.P, R, A.root()));
    if (Pr)
      addEngine(J.T, Sink.C);
    J.T.Counts["snapshot.bytes"] += static_cast<double>(Text.size());
    J.T.Counts["incr.warm_evals"] += static_cast<double>(R.Stats.RhsEvals);
    J.T.Counts["incr.cold_evals"] += static_cast<double>(In.ColdEvals);
    J.T.Counts["incr.restarted_unknowns"] +=
        static_cast<double>(Inc.RestartedUnknowns);
    J.T.Counts["incr.snapshot_unknowns"] +=
        static_cast<double>(Inc.SnapshotUnknowns);
    J.T.Counts["incr.retracted_cells"] +=
        static_cast<double>(Inc.RetractedCells);
    J.T.Counts["incr.kept_cells"] += static_cast<double>(Inc.KeptCells);

    if (Inc.ColdFallback) {
      J.Error = "incremental solve fell back to cold";
      return J;
    }
    if (!J.Error.empty())
      return J;
    J.Error = verifyAndOracle(A, R, *X.P, In.Oracle, /*Points=*/true);
    if (J.Error.empty() &&
        canonicalSigma(R.Solution, *X.P, Cap.Contexts) != In.ColdSigma)
      J.Error = "warm sigma differs from the cold sigma of the edit";
    return J;
  }

  void derive(const std::vector<JobResult> &Untraced,
              std::map<std::string, double> &M) const override {
    std::vector<double> Leaf, Inner;
    for (const JobResult &J : Untraced)
      (J.Class == LeafClass ? Leaf : Inner).push_back(J.Ms);
    M["incr.leaf_ms_p50"] = quantile(Leaf, 0.5);
    M["incr.inner_ms_p50"] = quantile(Inner, 0.5);
    M["incr.cold_ms_p50"] = quantile(ColdMs, 0.5);
  }

private:
  std::vector<std::string> BaseTexts;
  std::vector<EditInput> Inputs;
  std::vector<double> ColdMs;
};

// --- stress-rings ----------------------------------------------------------

using StressSolution = PartialSolution<uint64_t, Interval>;

/// Order-independent digest of a solution.
uint64_t digest(const StressSolution &S) {
  uint64_t D = 0;
  for (const auto &[X, Value] : S.Sigma) {
    Rng R(X ^ (static_cast<uint64_t>(Value.hashValue()) << 1));
    D += R.next();
  }
  return D;
}

size_t heapBytes() {
  struct mallinfo2 M = mallinfo2();
  return M.uordblks + M.hblkhd;
}

/// Times WarrowCombine on operands sampled from a real solve.
double replayNsPerCall(
    const std::vector<std::pair<Interval, Interval>> &Sample) {
  if (Sample.empty())
    return 0;
  constexpr int Reps = 32;
  WarrowCombine Combine;
  Clock::time_point Start = Clock::now();
  for (int Rep = 0; Rep < Reps; ++Rep)
    for (const auto &[Old, New] : Sample) {
      Interval Out = Combine(uint64_t{0}, Old, New);
      asm volatile("" : : "g"(&Out) : "memory");
    }
  return msBetween(Start, Clock::now()) * 1e6 /
         (static_cast<double>(Reps) * static_cast<double>(Sample.size()));
}

class StressRings final : public Workload {
public:
  std::string setup(uint64_t Seed) override {
    Stress = stressSideSystem(/*NumRings=*/16384, /*RingSize=*/64,
                              /*Bound=*/32, /*CrossLinks=*/2,
                              deriveSeed(1234, Seed));
    // A reference solve: warms the allocator the way a first job would,
    // and every timed job must reproduce its solution exactly.
    SolverOptions O;
    O.MaxRhsEvals = MaxEvals;
    engine::SlrEngine<uint64_t, Interval, WarrowCombine, true> E(
        Stress.System, WarrowCombine{}, O);
    StressSolution R = E.solveFor(Stress.Root);
    if (!R.Stats.Converged || R.Sigma.size() != Stress.NumUnknowns)
      return "reference solve failed";
    Reference = digest(R);
    return "";
  }

  size_t jobsPerPass() const override { return 1; }

  JobResult runJob(size_t, Probe *Pr) override {
    JobResult J;
    SolverOptions O;
    O.MaxRhsEvals = MaxEvals;
    EngineSink Sink;
    CombineCounts CC;
    StressSolution R;
    double HeapGrowth = 0;
    Clock::time_point Start = Clock::now();
    int Root = spanOpen(Pr, "job", -1);
    if (Pr) {
      O.Trace = &Sink;
      R = solve(CountingWarrow{&CC}, O, Pr, Root, &Sink, HeapGrowth);
    } else {
      R = solve(WarrowCombine{}, O, Pr, Root, &Sink, HeapGrowth);
    }
    Clock::time_point End = Clock::now();
    spanClose(Pr, Root);
    J.Ms = msBetween(Start, End);

    J.T.Counts["engine.rhs_evals"] += static_cast<double>(R.Stats.RhsEvals);
    J.T.Counts["engine.unknowns"] += static_cast<double>(R.Sigma.size());
    if (Pr) {
      addEngine(J.T, Sink.C);
      J.T.Counts["combine.calls"] += static_cast<double>(CC.Calls);
      J.T.Counts["combine.narrow_calls"] +=
          static_cast<double>(CC.NarrowCalls);
      J.T.Times["combine.ns_per_call"] += replayNsPerCall(CC.Sample);
      J.T.Times["engine.bytes_per_unknown"] +=
          HeapGrowth / static_cast<double>(std::max<size_t>(1, R.Sigma.size()));
    }

    if (!R.Stats.Converged)
      J.Error = "did not converge (" + R.Stats.str() + ")";
    else if (R.Sigma.size() != Stress.NumUnknowns)
      J.Error = "explored " + std::to_string(R.Sigma.size()) +
                " unknowns, expected " + std::to_string(Stress.NumUnknowns);
    else if (VerifyResult V = verifySideEffectingSolution(Stress.System, R);
             !V.Ok)
      J.Error = "verifySideEffectingSolution: " + V.str();
    else if (digest(R) != Reference)
      J.Error = "solution differs from the set-up reference";
    return J;
  }

private:
  static constexpr uint64_t MaxEvals = 2'000'000'000ull;

  /// solveFor on a fresh engine; spans split it into entry, solve and
  /// result, and time the engine's teardown separately. \p HeapGrowth
  /// gets the heap bytes the engine and its result hold at return.
  template <typename C>
  StressSolution solve(C Combine, const SolverOptions &O, Probe *Pr, int Root,
                       EngineSink *Sink, double &HeapGrowth) {
    size_t Before = Pr ? heapBytes() : 0;
    auto E = std::make_unique<engine::SlrEngine<uint64_t, Interval, C, true>>(
        Stress.System, std::move(Combine), O);
    StressSolution R = segmented(Pr, Root, "engine.solve_for", StressSegments,
                                 Sink, [&] { return E->solveFor(Stress.Root); });
    if (Pr)
      HeapGrowth = static_cast<double>(heapBytes()) - static_cast<double>(Before);
    int S = spanOpen(Pr, "engine.teardown", Root);
    E.reset();
    spanClose(Pr, S);
    return R;
  }

  StressSystem Stress;
  uint64_t Reference = 0;
};

} // namespace

double quantile(std::vector<double> V, double Q) {
  if (V.empty())
    return 0;
  std::sort(V.begin(), V.end());
  double Pos = Q * static_cast<double>(V.size() - 1);
  size_t Lo = static_cast<size_t>(Pos);
  size_t Hi = std::min(Lo + 1, V.size() - 1);
  return V[Lo] + (V[Hi] - V[Lo]) * (Pos - static_cast<double>(Lo));
}

const std::vector<std::string> &workloadNames() {
  static const std::vector<std::string> Names = {"spec-cold", "spec-zones",
                                                 "spec-edit", "stress-rings"};
  return Names;
}

std::unique_ptr<Workload> makeWorkload(const std::string &Name) {
  if (Name == "spec-cold")
    return std::make_unique<SpecSuite>(/*Zones=*/false);
  if (Name == "spec-zones")
    return std::make_unique<SpecSuite>(/*Zones=*/true);
  if (Name == "spec-edit")
    return std::make_unique<SpecEdit>();
  if (Name == "stress-rings")
    return std::make_unique<StressRings>();
  return nullptr;
}

} // namespace perfbench
