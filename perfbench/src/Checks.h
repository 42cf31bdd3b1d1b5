//===- perfbench/src/Checks.h - Output checks -------------------*- C++ -*-===//
//
// Part of the SpecSync project (CGO 2004 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Checks of the program's outputs against facts computed apart from the
/// code path being timed: the reference engine's final memory and region
/// instruction counts, the simulator's slot-accounting identities, the
/// core-count bound on speedup, the rt replay reference and repeatability
/// across passes. Nothing is compared with a stored copy of earlier output.
/// Each check returns an empty string when it holds, else what went wrong.
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_CHECKS_H
#define PERFBENCH_CHECKS_H

#include "harness/Experiment.h"
#include "rt/RtOptions.h"
#include "sim/MachineConfig.h"
#include "workloads/Workload.h"

#include <cstdint>
#include <string>

namespace perfbench {

/// What the reference engine says about a workload's ref input.
struct RefFacts {
  uint64_t Checksum = 0;        ///< Final memory of the original program.
  unsigned UnrollFactor = 1;    ///< From a reference-engine loop profile.
  uint64_t BaseRegionInsts = 0; ///< Region instructions, base-transformed.
};

/// Runs the original and the base-transformed ref programs on the reference
/// engine (InterpEngine::Reference), independent of the session engine.
RefFacts computeRefFacts(const specsync::Workload &W);

/// busy + fail + sync <= total == cycles x issue width x cores, and
/// 0 < region speedup <= cores.
std::string checkSimAccounting(const specsync::ModeRunResult &R,
                               const specsync::MachineConfig &Config);

/// Busy slots equal \p Expected (a reference-engine instruction count or the
/// busy slots of a run over the same trace).
std::string checkBusy(const specsync::ModeRunResult &R, uint64_t Expected);

/// The run completed on threads with the reference final memory in both of
/// its runs, protocol counts equal to the replay's, and no region demoted.
std::string checkRt(const specsync::rt::RtRunResult &R, uint64_t RefChecksum);

/// Hash of every simulated quantity of a result, for repeatability checks.
/// Host wall times are left out.
uint64_t digest(const specsync::ModeRunResult &R);
uint64_t digest(const specsync::rt::RtRunResult &R);

} // namespace perfbench

#endif // PERFBENCH_CHECKS_H
