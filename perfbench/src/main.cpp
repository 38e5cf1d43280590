//===- perfbench/src/main.cpp - Benchmark runner -----------------------------===//
//
// Part of the warrow project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
///     perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
///               [--spans FILE]
///
/// Load is a closed loop: this single process runs the workload's jobs
/// back to back, one pass after another, until the timed job time reaches
/// S seconds. Each job (and each of the three set-ups) runs on a fresh
/// thread that is joined before the next starts, so every job begins with
/// empty thread-local hash-cons pools, as a fresh `warrow-analyze` process
/// would, and its pool counters are its own.
///
/// --trace 0 reports the end-to-end metrics. --trace 1 alternates untraced
/// and traced passes: spans and engine counts come from the traced ones,
/// `trace.overhead_pct` compares the two kinds. The last line of standard
/// output is one JSON object: correct, attempted, failed, metrics (name ->
/// number) and meta (host and build). Any count that differs between two
/// passes of a run is reported as nondeterminism and makes the run
/// incorrect.
///
//===----------------------------------------------------------------------===//

#include "workloads.h"

#include <malloc.h>
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <limits>
#include <set>
#include <string>
#include <thread>

using namespace perfbench;

namespace {

constexpr int SetupRepeats = 3;

struct Args {
  std::string Workload;
  uint64_t Seed = 0;
  double Seconds = 10;
  bool Trace = false;
  std::string SpansPath;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I + 1 < Argc; I += 2) {
    std::string Key = Argv[I];
    const char *Value = Argv[I + 1];
    char *End = nullptr;
    if (Key == "--workload") {
      A.Workload = Value;
    } else if (Key == "--seed") {
      A.Seed = std::strtoull(Value, &End, 10);
    } else if (Key == "--seconds") {
      A.Seconds = std::strtod(Value, &End);
      if (!(A.Seconds > 0))
        return false;
    } else if (Key == "--trace") {
      if (std::strcmp(Value, "0") != 0 && std::strcmp(Value, "1") != 0)
        return false;
      A.Trace = Value[0] == '1';
    } else if (Key == "--spans") {
      A.SpansPath = Value;
    } else {
      return false;
    }
    if (End && *End != '\0')
      return false;
  }
  return Argc % 2 == 1 && !A.Workload.empty();
}

/// Runs \p Fn on a fresh thread and joins it.
template <typename F> void onFreshThread(F &&Fn) {
  std::thread T(std::forward<F>(Fn));
  T.join();
}

double median(const std::vector<double> &V) { return quantile(V, 0.5); }

struct Pass {
  bool Traced = false;
  double WallMs = 0;
  Tally Sum;
  std::vector<Span> Spans;
};

void merge(Tally &Into, const Tally &T) {
  for (const auto &[K, V] : T.Counts) {
    double &Slot = Into.Counts[K];
    Slot = K.find(".max_") != std::string::npos ? std::max(Slot, V) : Slot + V;
  }
  for (const auto &[K, V] : T.Times)
    Into.Times[K] += V;
}

/// Layer a span's self time is charged to. The solve segment between the
/// first and last engine event belongs to the engine (right-hand-side
/// evaluation included: it cannot be told apart from outside).
std::string layerOf(const std::string &Name) {
  if (Name == "analysis.solve" || Name == "incr.solve")
    return "engine";
  return Name.substr(0, Name.find('.'));
}

/// Span names whose per-pass duration sum is a per-layer metric.
const std::set<std::string> &timedSpans() {
  static const std::set<std::string> Names = {
      "lang.lex",       "lang.parse",      "lang.sema",      "lang.cfg",
      "analysis.run",   "analysis.build",  "analysis.solve", "analysis.result",
      "incr.resume",    "incr.prepare",    "incr.solve",     "incr.capture",
      "snapshot.load",  "snapshot.store",  "snapshot.diff",  "engine.solve",
      "engine.result"};
  return Names;
}

/// Counts used only to derive ratios; not metrics themselves.
bool internalCount(const std::string &Name) {
  return Name == "analysis.rhs_cache_hits" ||
         Name == "analysis.rhs_cache_misses" ||
         Name == "incr.snapshot_unknowns";
}

/// Adds the per-layer duration sums (`<span>_ms`) and self times
/// (`<layer>.self_ms`) of one traced pass to \p Out.
void spanTimes(const Pass &P, std::map<std::string, double> &Out) {
  std::vector<double> ChildMs(P.Spans.size(), 0);
  size_t JobStart = 0;
  for (size_t I = 0; I < P.Spans.size(); ++I) {
    const Span &S = P.Spans[I];
    if (S.Parent < 0)
      JobStart = I;
    else
      ChildMs[JobStart + static_cast<size_t>(S.Parent)] +=
          static_cast<double>(S.EndNs - S.StartNs) / 1e6;
  }
  for (size_t I = 0; I < P.Spans.size(); ++I) {
    const Span &S = P.Spans[I];
    double Ms = static_cast<double>(S.EndNs - S.StartNs) / 1e6;
    if (timedSpans().count(S.Name))
      Out[std::string(S.Name) + "_ms"] += Ms;
    Out[layerOf(S.Name) + ".self_ms"] += Ms - ChildMs[I];
  }
}

std::string jsonEscape(const std::string &S) {
  std::string Out;
  for (char C : S) {
    if (C == '"' || C == '\\')
      Out += '\\';
    if (static_cast<unsigned char>(C) >= 0x20)
      Out += C;
  }
  return Out;
}

std::string number(double V) {
  if (!std::isfinite(V))
    V = 0;
  char Buf[40];
  std::snprintf(Buf, sizeof(Buf), "%.10g", V);
  return Buf;
}

double peakRssMb() {
  struct rusage U;
  if (getrusage(RUSAGE_SELF, &U) != 0)
    return 0;
  return static_cast<double>(U.ru_maxrss) / 1024.0; // KiB on Linux.
}

std::string metaJson(const Args &A, const std::vector<Pass> &Passes,
                     size_t Jobs) {
  std::string S = "{\"hw_threads\": " +
                  std::to_string(std::thread::hardware_concurrency());
  S += ", \"compiler\": \"" + jsonEscape(__VERSION__) + "\"";
  S += ", \"build_type\": \"" + jsonEscape(PERFBENCH_BUILD_TYPE) + "\"";
  S += ", \"cxx_flags\": \"" + jsonEscape(PERFBENCH_CXX_FLAGS) + "\"";
  S += ", \"workload\": \"" + jsonEscape(A.Workload) + "\"";
  S += ", \"seed\": " + std::to_string(A.Seed);
  S += ", \"trace\": " + std::to_string(A.Trace ? 1 : 0);
  S += ", \"jobs_per_pass\": " + std::to_string(Jobs);
  S += ", \"pass_ms\": [";
  for (size_t I = 0; I < Passes.size(); ++I)
    S += (I ? ", " : "") + number(Passes[I].WallMs);
  S += "], \"pass_traced\": [";
  for (size_t I = 0; I < Passes.size(); ++I)
    S += std::string(I ? ", " : "") + (Passes[I].Traced ? "1" : "0");
  return S + "]}";
}

bool writeSpans(const std::string &Path, const std::vector<Pass> &Passes,
                const std::string &Meta) {
  std::ofstream Out(Path);
  Out << "{\"meta\": " << Meta << "}\n";
  for (size_t P = 0; P < Passes.size(); ++P)
    for (const Span &S : Passes[P].Spans)
      Out << "{\"pass\": " << P << ", \"job\": " << S.Job << ", \"name\": \""
          << S.Name << "\", \"layer\": \"" << layerOf(S.Name)
          << "\", \"parent\": " << S.Parent << ", \"start_ns\": " << S.StartNs
          << ", \"end_ns\": " << S.EndNs << "}\n";
  return static_cast<bool>(Out);
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  if (!parseArgs(Argc, Argv, A) || !makeWorkload(A.Workload)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME [--seed N] [--seconds S] "
                 "[--trace 0|1] [--spans FILE]\nworkloads:");
    for (const std::string &N : workloadNames())
      std::fprintf(stderr, " %s", N.c_str());
    std::fprintf(stderr, "\n");
    return 2;
  }

  // One heap that is never handed back to the kernel: after the first
  // job, jobs reuse memory the process already touched, so their times
  // carry the analyzer's work and not the host's page-zeroing, which
  // varies with other tenants. peak_rss_mb still records the footprint.
  mallopt(M_ARENA_MAX, 1);
  mallopt(M_MMAP_MAX, 0);
  mallopt(M_TRIM_THRESHOLD, std::numeric_limits<int>::max());

  // Set-up, repeated; the median is setup_s and the last one is kept.
  std::unique_ptr<Workload> W;
  std::vector<double> SetupSeconds;
  for (int Rep = 0; Rep < SetupRepeats; ++Rep) {
    W = makeWorkload(A.Workload);
    std::string Error;
    double Seconds = 0;
    onFreshThread([&] {
      Clock::time_point Start = Clock::now();
      try {
        Error = W->setup(A.Seed);
      } catch (const std::exception &E) {
        Error = E.what();
      }
      Seconds = msBetween(Start, Clock::now()) / 1e3;
    });
    if (!Error.empty()) {
      std::fprintf(stderr, "error: %s set-up failed: %s\n", A.Workload.c_str(),
                   Error.c_str());
      return 1;
    }
    SetupSeconds.push_back(Seconds);
  }

  // The closed loop.
  const Clock::time_point Origin = Clock::now();
  const size_t Jobs = W->jobsPerPass();
  std::vector<Pass> Passes;
  std::vector<JobResult> UntracedJobs;
  std::vector<std::vector<double>> JobMs(Jobs); // Untraced, per job index.
  uint64_t Attempted = 0, Failed = 0;
  uint32_t JobId = 0;
  double MeasuredMs = 0;
  bool Traced = false;
  for (;;) {
    Pass P;
    P.Traced = Traced;
    for (size_t I = 0; I < Jobs; ++I, ++JobId) {
      JobResult J;
      std::unique_ptr<Probe> Pr =
          Traced ? std::make_unique<Probe>(JobId, Origin) : nullptr;
      onFreshThread([&] {
        try {
          J = W->runJob(I, Pr.get());
        } catch (const std::exception &E) {
          J.Error = E.what();
        }
      });
      ++Attempted;
      if (!J.Error.empty()) {
        if (Failed++ < 5)
          std::fprintf(stderr, "check failed: %s job %zu: %s\n",
                       A.Workload.c_str(), I, J.Error.c_str());
      }
      P.WallMs += J.Ms;
      merge(P.Sum, J.T);
      if (Pr) {
        P.Spans.insert(P.Spans.end(), Pr->Spans.begin(), Pr->Spans.end());
      } else {
        JobMs[I].push_back(J.Ms);
        J.T = {};
        UntracedJobs.push_back(std::move(J));
      }
    }
    MeasuredMs += P.WallMs;
    Passes.push_back(std::move(P));
    // A traced run ends on a traced pass, so both kinds are balanced.
    if (MeasuredMs >= A.Seconds * 1e3 && (!A.Trace || Traced))
      break;
    if (A.Trace)
      Traced = !Traced;
  }

  // Counts must repeat exactly across passes.
  bool Deterministic = true;
  std::map<std::string, double> FirstCount;
  for (const Pass &P : Passes)
    for (const auto &[K, V] : P.Sum.Counts) {
      auto [It, Fresh] = FirstCount.try_emplace(K, V);
      if (!Fresh && It->second != V) {
        if (Deterministic)
          std::fprintf(stderr, "nondeterminism: %s is %s in one pass and %s "
                               "in another\n",
                       K.c_str(), number(It->second).c_str(),
                       number(V).c_str());
        Deterministic = false;
      }
    }

  std::vector<double> UntracedWall, TracedWall;
  for (const Pass &P : Passes)
    (P.Traced ? TracedWall : UntracedWall).push_back(P.WallMs);

  std::map<std::string, double> M;
  if (!A.Trace) {
    M["setup_s"] = median(SetupSeconds);
    // Jobs are deterministic, so each is summarized by its median time
    // over the run's passes: a burst of load in one pass does not move the
    // result, and a percentile cannot jump across the gap between two
    // jobs of different size as noise reorders their samples.
    std::vector<double> JobMedians;
    double PassMs = 0;
    for (const std::vector<double> &Times : JobMs) {
      JobMedians.push_back(median(Times));
      PassMs += JobMedians.back();
    }
    M["wall_s"] = PassMs / 1e3;
    M["latency_p50_ms"] = quantile(JobMedians, 0.5);
    M["latency_p90_ms"] = quantile(JobMedians, 0.9);
    M["peak_rss_mb"] = peakRssMb();
  } else {
    for (const auto &[K, V] : FirstCount)
      if (!internalCount(K))
        M[K] = V;
    std::map<std::string, std::vector<double>> PerPass;
    for (const Pass &P : Passes) {
      if (!P.Traced)
        continue;
      std::map<std::string, double> Sums = P.Sum.Times;
      spanTimes(P, Sums);
      for (const auto &[K, V] : Sums)
        PerPass[K].push_back(V);
    }
    for (const auto &[K, V] : PerPass)
      M[K] = median(V);
    auto Ratio = [&](const char *Name, double Num, double Den) {
      if (Den > 0)
        M[Name] = Num / Den;
    };
    auto Get = [&](const char *Name) {
      auto It = FirstCount.find(Name);
      return It != FirstCount.end() ? It->second : 0.0;
    };
    Ratio("analysis.useful_eval_ratio", Get("analysis.updates"),
          Get("analysis.rhs_evals"));
    Ratio("analysis.rhs_cache_hit_ratio", Get("analysis.rhs_cache_hits"),
          Get("analysis.rhs_cache_hits") + Get("analysis.rhs_cache_misses"));
    Ratio("env.hit_ratio", Get("env.intern_hits"),
          Get("env.intern_hits") + Get("env.intern_misses"));
    Ratio("relenv.hit_ratio", Get("relenv.intern_hits"),
          Get("relenv.intern_hits") + Get("relenv.intern_misses"));
    Ratio("incr.restart_ratio", Get("incr.restarted_unknowns"),
          Get("incr.snapshot_unknowns"));
    if (M.count("analysis.solve_ms"))
      Ratio("analysis.ns_per_eval", M["analysis.solve_ms"] * 1e6,
            Get("analysis.rhs_evals"));
    if (M.count("engine.solve_ms")) {
      Ratio("engine.ns_per_eval", M["engine.solve_ms"] * 1e6,
            Get("engine.rhs_evals"));
      M["engine.solve_s"] = M["engine.solve_ms"] / 1e3;
      M.erase("engine.solve_ms");
    }
    M["trace.overhead_pct"] =
        (median(TracedWall) / median(UntracedWall) - 1) * 100;
    W->derive(UntracedJobs, M);
  }

  const std::string Meta = metaJson(A, Passes, Jobs);
  if (A.Trace && !A.SpansPath.empty() && !writeSpans(A.SpansPath, Passes, Meta))
    std::fprintf(stderr, "warning: cannot write spans to %s\n",
                 A.SpansPath.c_str());

  std::fprintf(stderr, "%s seed=%llu trace=%d: %zu passes x %zu jobs, "
                       "setup %.3fs, pass %.1fms, %llu/%llu failed\n",
               A.Workload.c_str(), static_cast<unsigned long long>(A.Seed),
               A.Trace ? 1 : 0, Passes.size(), Jobs, median(SetupSeconds),
               median(A.Trace ? TracedWall : UntracedWall),
               static_cast<unsigned long long>(Failed),
               static_cast<unsigned long long>(Attempted));

  std::string Out = "{\"correct\": ";
  Out += Failed == 0 && Deterministic ? "true" : "false";
  Out += ", \"attempted\": " + std::to_string(Attempted);
  Out += ", \"failed\": " + std::to_string(Failed);
  Out += ", \"metrics\": {";
  bool First = true;
  for (const auto &[K, V] : M) {
    Out += (First ? "\"" : ", \"") + K + "\": " + number(V);
    First = false;
  }
  Out += "}, \"meta\": " + Meta + "}";
  std::printf("%s\n", Out.c_str());
  return 0;
}
