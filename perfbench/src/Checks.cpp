//===- perfbench/src/Checks.cpp ---------------------------------*- C++ -*-===//
//
// Part of the SpecSync project (CGO 2004 reproduction).
//
//===----------------------------------------------------------------------===//

#include "Checks.h"

#include "compiler/LoopSelection.h"
#include "compiler/PassManager.h"
#include "interp/Interpreter.h"
#include "profile/LoopProfiler.h"

#include <cstring>
#include <initializer_list>

using namespace specsync;

namespace perfbench {

RefFacts computeRefFacts(const Workload &W) {
  RefFacts F;
  ContextTable Contexts;
  InterpOptions Opts;
  Opts.CollectTrace = false;
  Opts.Engine = InterpEngine::Reference;
  {
    std::unique_ptr<Program> P = W.Build(InputKind::Ref);
    Interpreter I(*P, Contexts);
    LoopProfiler LP;
    InterpResult R = I.run(Opts, &LP);
    F.Checksum = R.MemoryChecksum;
    LoopSelectionResult Sel = selectLoop(LP.profile());
    F.UnrollFactor = Sel.Selected ? Sel.UnrollFactor : 1;
  }
  std::unique_ptr<Program> P = W.Build(InputKind::Ref);
  applyBaseTransforms(*P, F.UnrollFactor);
  Interpreter I(*P, Contexts);
  F.BaseRegionInsts = I.run(Opts).RegionDynInstCount;
  return F;
}

std::string checkSimAccounting(const ModeRunResult &R,
                               const MachineConfig &Config) {
  const SlotBreakdown &S = R.Sim.Slots;
  uint64_t Expected = R.Sim.Cycles * Config.IssueWidth * Config.NumCores;
  if (S.Total != Expected)
    return "slot total " + std::to_string(S.Total) + " != cycles x width x "
           "cores " + std::to_string(Expected);
  if (S.Busy + S.Fail + S.sync() > S.Total)
    return "busy+fail+sync " + std::to_string(S.Busy + S.Fail + S.sync()) +
           " > total " + std::to_string(S.Total);
  double X = R.regionSpeedup();
  if (!(X > 0.0) || X > static_cast<double>(Config.NumCores))
    return "region speedup " + std::to_string(X) + " outside (0, " +
           std::to_string(Config.NumCores) + "]";
  return {};
}

std::string checkBusy(const ModeRunResult &R, uint64_t Expected) {
  if (R.Sim.Slots.Busy != Expected)
    return "busy slots " + std::to_string(R.Sim.Slots.Busy) +
           " != expected " + std::to_string(Expected);
  return {};
}

std::string checkRt(const rt::RtRunResult &R, uint64_t RefChecksum) {
  if (!R.Completed)
    return "threaded run did not complete";
  if (R.RtChecksum != RefChecksum)
    return "threaded final memory differs from the reference engine's";
  if (R.SeqChecksum != RefChecksum)
    return "sequential final memory differs from the reference engine's";
  if (!(R.Counts == R.Replay))
    return "protocol counts differ from the replay's";
  if (R.RegionsDemoted != 0)
    return std::to_string(R.RegionsDemoted) + " region(s) demoted";
  return {};
}

namespace {
/// FNV-1a over 64-bit words.
struct Hasher {
  uint64_t H = 1469598103934665603ull;
  void add(uint64_t V) {
    for (int I = 0; I < 8; ++I) {
      H ^= (V >> (8 * I)) & 0xff;
      H *= 1099511628211ull;
    }
  }
  void add(double D) {
    uint64_t U;
    std::memcpy(&U, &D, sizeof(U));
    add(U);
  }
};
} // namespace

uint64_t digest(const ModeRunResult &R) {
  Hasher H;
  const TLSSimResult &S = R.Sim;
  for (uint64_t V :
       {S.Cycles, S.Slots.Busy, S.Slots.Fail, S.Slots.SyncScalar,
        S.Slots.SyncMem, S.Slots.Total, S.EpochsCommitted, S.Violations,
        S.SabViolations, S.PredictRestarts, S.ViolCompilerOnly, S.ViolHwOnly,
        S.ViolBoth, S.ViolNeither, S.SabMaxOccupancy, S.SabOverflows,
        S.HwTableResets, S.PredictorCorrect, S.PredictorWrong,
        S.FilteredWaits, R.SeqRegionCycles, R.DegradedRegions})
    H.add(V);
  H.add(R.ProgramSpeedup);
  H.add(R.CoveragePercent);
  return H.H;
}

uint64_t digest(const rt::RtRunResult &R) {
  Hasher H;
  const rt::ProtocolCounts &C = R.Counts;
  for (uint64_t V :
       {C.Regions, C.EpochsCommitted, C.EpochsSquashed, C.Violations,
        C.SabViolations, C.SyncStallsScalar, C.SyncStallsMem, R.RtChecksum,
        R.SeqChecksum, R.RegionsParallel, R.RegionsSequential,
        R.RegionsDemoted})
    H.add(V);
  return H.H;
}

} // namespace perfbench
