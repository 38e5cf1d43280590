//===- perfbench/src/workloads.h - The benchmark's workloads -----*- C++ -*-==//
//
// Part of the warrow project, released under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// A workload builds its inputs once per set-up and then runs *jobs*: one
/// analysis a user would run, timed from the first call into the analyzer
/// to the last, and checked afterwards. A *pass* runs every job of the
/// workload once. README.md lists the workloads, why each was chosen, and
/// which per-layer metric should move which end-to-end metric.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_WORKLOADS_H
#define PERFBENCH_WORKLOADS_H

#include "probe.h"

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

/// Per-layer numbers one job adds to its pass. Counts must repeat exactly
/// from pass to pass and run to run; times are milliseconds unless the
/// metric name says otherwise.
struct Tally {
  std::map<std::string, double> Counts;
  std::map<std::string, double> Times;
};

struct JobResult {
  double Ms = 0;      ///< Wall time of the job, checks excluded.
  double CoreMs = 0;  ///< spec-cold: the `run` call alone.
  uint64_t Evals = 0; ///< spec-cold: right-hand-side evaluations of `run`.
  int Class = 0;      ///< Workload-specific job class.
  std::string Error; ///< First failed check; empty when every check passed.
  Tally T;
};

class Workload {
public:
  virtual ~Workload() = default;

  /// Builds inputs, reference results and oracle samples from \p Seed.
  /// Returns an error message, or an empty string on success.
  virtual std::string setup(uint64_t Seed) = 0;
  virtual size_t jobsPerPass() const = 0;
  /// Runs job \p I of a pass on the calling thread, then checks it. \p P
  /// is null on untraced passes.
  virtual JobResult runJob(size_t I, Probe *P) = 0;
  /// Per-layer metrics that set-up fixes, and those derived from the
  /// untraced jobs of a traced run.
  virtual void derive(const std::vector<JobResult> &Untraced,
                      std::map<std::string, double> &Metrics) const {
    (void)Untraced;
    (void)Metrics;
  }
};

std::unique_ptr<Workload> makeWorkload(const std::string &Name);
const std::vector<std::string> &workloadNames();

/// The \p Q-quantile of \p V with linear interpolation; 0 when empty.
double quantile(std::vector<double> V, double Q);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_H
