//===- perfbench/src/oracle.h - Concrete-execution soundness oracle -*- C++ -*-==//
//
// Part of the warrow project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// An oracle independent of the solver: the concrete interpreter runs a
/// program once during set-up, within a step budget, and records the hull
/// of every scalar it observes, per global and per (function, CFG node,
/// variable). A sound analysis result contains every hull. A run cut by
/// the step budget still gives valid samples, because every state it
/// observed is reachable.
///
/// Intervals are convex and zones are checked through their per-variable
/// projection, so containing both ends of a hull is the whole check.
/// Samples name variables by spelling: each job re-parses the program.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_ORACLE_H
#define PERFBENCH_ORACLE_H

#include "analysis/interproc.h"

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

struct OracleSamples {
  struct Hull {
    uint32_t Func = 0;
    uint32_t Node = 0;
    uint32_t Name = 0; ///< Index into Names.
    int64_t Lo = 0;
    int64_t Hi = 0;
  };
  std::vector<std::string> Names;
  std::vector<Hull> Points;  ///< Per (function, node, local scalar).
  std::vector<Hull> Globals; ///< Per global scalar (Func, Node unused).
  uint64_t Steps = 0;
};

/// Interprets \p Source (which must parse) for at most \p MaxSteps steps.
OracleSamples observeProgram(const std::string &Source, uint64_t MaxSteps);

/// Checks \p R, an analysis result over \p P (a parse of the observed
/// source), against \p S: global hulls always, program-point hulls when
/// \p Points (context-insensitive results, context 0). Returns an empty
/// string when every hull is contained, else the first violation.
std::string checkOracle(const OracleSamples &S, const warrow::Program &P,
                        const warrow::AnalysisResult &R, bool Points);

} // namespace perfbench

#endif // PERFBENCH_ORACLE_H
