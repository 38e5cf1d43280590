//===- perfbench/src/probe.h - Spans, engine sink, combine counter -*- C++ -*-==//
//
// Part of the warrow project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The benchmark's tracing, all of it outside the analyzer:
///
///  - `Probe` keeps the spans of one job in memory: a name, a start, an
///    end and the index of the parent span. Spans are opened only around
///    the benchmark's own calls into each layer's public functions.
///  - `EngineSink` is attached through `SolverOptions::Trace`. It counts
///    engine events and reads the clock only at the first event and at
///    every 64th, which splits a call into entry -> first solver event ->
///    last solver event -> return (the last boundary to within 63 events).
///  - `CountingWarrow` wraps `WarrowCombine` for the engine-only workload
///    and keeps a sample of its operands, which are replayed afterwards to
///    time the operator without a clock read per call.
///
/// A null `Probe *` is the untraced path: no span, no sink, no wrapper.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_PROBE_H
#define PERFBENCH_PROBE_H

#include "lattice/combine.h"
#include "lattice/interval.h"
#include "trace/trace.h"

#include <chrono>
#include <cstdint>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double msBetween(Clock::time_point A, Clock::time_point B) {
  return std::chrono::duration<double, std::milli>(B - A).count();
}

/// One span; times are nanoseconds since the run's origin.
struct Span {
  const char *Name = "";
  uint32_t Job = 0;
  int32_t Parent = -1; ///< Index into the same job's spans; -1 = root.
  int64_t StartNs = 0;
  int64_t EndNs = 0;
};

/// In-memory span list of one traced job.
class Probe {
public:
  Probe(uint32_t Job, Clock::time_point Origin) : Job(Job), Origin(Origin) {}

  int add(const char *Name, int Parent, Clock::time_point Start,
          Clock::time_point End) {
    Spans.push_back({Name, Job, Parent, ns(Start), ns(End)});
    return static_cast<int>(Spans.size() - 1);
  }
  int open(const char *Name, int Parent) {
    Clock::time_point Now = Clock::now();
    return add(Name, Parent, Now, Now);
  }
  void close(int Index) { Spans[Index].EndNs = ns(Clock::now()); }

  std::vector<Span> Spans;

private:
  int64_t ns(Clock::time_point T) const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(T - Origin)
        .count();
  }
  uint32_t Job;
  Clock::time_point Origin;
};

/// Null-safe span helpers: the untraced path passes a null probe.
inline int spanOpen(Probe *P, const char *Name, int Parent) {
  return P ? P->open(Name, Parent) : -1;
}
inline void spanClose(Probe *P, int Index) {
  if (P)
    P->close(Index);
}

/// Engine event counts of one solve.
struct EngineCounts {
  uint64_t Events = 0;
  uint64_t Dependencies = 0;
  uint64_t Destabilizations = 0;
  uint64_t Enqueues = 0;
  uint64_t SideContributions = 0;
  uint64_t WidenUpdates = 0;
  uint64_t NarrowUpdates = 0;
  uint64_t MaxEvalDepth = 0;
};

/// Counts engine events and timestamps the first and (to within 63
/// events) the last one.
class EngineSink final : public warrow::TraceSink {
public:
  void event(warrow::TraceEvent E) override {
    if (C.Events++ == 0) {
      First = Clock::now();
      Last = First;
    } else if ((C.Events & 63) == 0) {
      Last = Clock::now();
    }
    switch (E.Kind) {
    case warrow::TraceEventKind::RhsEvalBegin:
      if (++Depth > C.MaxEvalDepth)
        C.MaxEvalDepth = Depth;
      break;
    case warrow::TraceEventKind::RhsEvalEnd:
      --Depth;
      break;
    case warrow::TraceEventKind::Update:
      if (E.UKind == warrow::UpdateKind::Widen)
        ++C.WidenUpdates;
      else if (E.UKind == warrow::UpdateKind::Narrow)
        ++C.NarrowUpdates;
      break;
    case warrow::TraceEventKind::Destabilize:
      ++C.Destabilizations;
      break;
    case warrow::TraceEventKind::Enqueue:
      ++C.Enqueues;
      break;
    case warrow::TraceEventKind::DependencyRecord:
      ++C.Dependencies;
      break;
    case warrow::TraceEventKind::SideContribution:
      ++C.SideContributions;
      break;
    default:
      break;
    }
  }

  EngineCounts C;
  uint64_t Depth = 0;
  Clock::time_point First{};
  Clock::time_point Last{};
};

/// Runs \p Call (a call into the analyzer that solves with \p Sink
/// attached) and records it as span \p Name with the three segments
/// entry -> first event, first -> last event, last event -> return.
template <typename F>
auto segmented(Probe *P, int Parent, const char *Name, const char *const Seg[3],
               EngineSink *Sink, F &&Call) {
  Clock::time_point Start = Clock::now();
  auto Result = Call();
  Clock::time_point End = Clock::now();
  if (P) {
    int Outer = P->add(Name, Parent, Start, End);
    Clock::time_point First = Sink->C.Events ? Sink->First : End;
    Clock::time_point Last = Sink->C.Events ? Sink->Last : End;
    P->add(Seg[0], Outer, Start, First);
    P->add(Seg[1], Outer, First, Last);
    P->add(Seg[2], Outer, Last, End);
  }
  return Result;
}

/// Call counts and an operand sample of the wrapped combine.
struct CombineCounts {
  uint64_t Calls = 0;
  uint64_t NarrowCalls = 0; ///< Calls that took the △ branch.
  std::vector<std::pair<warrow::Interval, warrow::Interval>> Sample;
};

/// `WarrowCombine` with call counting (traced runs only).
struct CountingWarrow {
  static constexpr size_t SampleEvery = 16;
  static constexpr size_t SampleCap = 1 << 16;

  CombineCounts *Counts;

  template <typename V>
  warrow::Interval operator()(const V &X, const warrow::Interval &Old,
                              const warrow::Interval &New) const {
    if (++Counts->Calls % SampleEvery == 0 &&
        Counts->Sample.size() < SampleCap)
      Counts->Sample.emplace_back(Old, New);
    if (!(New == Old) && New.leq(Old))
      ++Counts->NarrowCalls;
    return warrow::WarrowCombine{}(X, Old, New);
  }
};

} // namespace perfbench

#endif // PERFBENCH_PROBE_H
