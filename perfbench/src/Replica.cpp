//===- perfbench/src/Replica.cpp --------------------------------*- C++ -*-===//
//
// Part of the SpecSync project (CGO 2004 reproduction).
//
//===----------------------------------------------------------------------===//

#include "Replica.h"

#include "compiler/LoopSelection.h"
#include "compiler/PassManager.h"
#include "compiler/SignalAudit.h"
#include "interp/Interpreter.h"
#include "profile/DepProfiler.h"
#include "profile/LoopProfiler.h"
#include "sim/SeqSimulator.h"

#include <memory>
#include <stdexcept>

using namespace specsync;

namespace perfbench {

ReplicaTotals &ReplicaTotals::operator+=(const ReplicaTotals &O) {
  TraceBytes += O.TraceBytes;
  TracedInsts += O.TracedInsts;
  DepRunNs += O.DepRunNs;
  PlainRunNs += O.PlainRunNs;
  DepAccesses += O.DepAccesses;
  URegionInsts += O.URegionInsts;
  CRegionInsts += O.CRegionInsts;
  return *this;
}

namespace {

uint64_t traceBytes(const ProgramTrace &T) {
  uint64_t B = T.SeqInsts.capacity() * sizeof(DynInst) +
               T.Regions.capacity() * sizeof(RegionTrace) +
               T.Segments.capacity() * sizeof(ProgramTrace::Segment);
  for (const RegionTrace &R : T.Regions) {
    B += R.Epochs.capacity() * sizeof(EpochTrace);
    for (const EpochTrace &E : R.Epochs)
      B += E.Insts.capacity() * sizeof(DynInst);
  }
  return B;
}

std::unique_ptr<Program> build(const Workload &W, InputKind K, SpanLog &Log) {
  ScopedSpan S(&Log, "workloads.build");
  return W.Build(K);
}

void requireCompleted(const InterpResult &R, const Workload &W) {
  if (!R.Completed)
    throw std::runtime_error(W.Name + ": replica run did not complete");
}

/// One interpreter run under a span named \p Layer; items = instructions.
InterpResult interpret(const Program &P, ContextTable &Contexts,
                       TraceArena *Arena, const InterpOptions &Opts,
                       ExecutionObserver *Obs, const char *Layer,
                       SpanLog &Log) {
  Interpreter I(P, Contexts);
  I.setTraceArena(Arena);
  ScopedSpan S(&Log, Layer);
  InterpResult R = I.run(Opts, Obs);
  S.setItems(R.DynInstCount);
  return R;
}

} // namespace

ReplicaTotals replicatePrepare(const Workload &W, const MachineConfig &Config,
                               SpanLog &Log) {
  ReplicaTotals T;
  ContextTable Contexts;
  TraceArena Arena;
  InterpOptions NoTrace;
  NoTrace.CollectTrace = false;
  InterpOptions Traced; // CollectTrace defaults to true.

  unsigned Factor = 1;
  {
    ScopedSpan Phase(&Log, "phase.loop_profile");
    std::unique_ptr<Program> P = build(W, InputKind::Ref, Log);
    LoopProfiler LP;
    requireCompleted(
        interpret(*P, Contexts, nullptr, NoTrace, &LP, "interp.observed", Log),
        W);
    ScopedSpan S(&Log, "compiler.select");
    LoopSelectionResult Sel = selectLoop(LP.profile());
    Factor = Sel.Selected ? Sel.UnrollFactor : 1;
  }

  std::unique_ptr<Program> TrainBin;
  DepProfile TrainProfile;
  {
    ScopedSpan Phase(&Log, "phase.train_profile");
    TrainBin = build(W, InputKind::Train, Log);
    {
      ScopedSpan S(&Log, "compiler.base");
      applyBaseTransforms(*TrainBin, Factor);
    }
    DepProfiler DP;
    int64_t T0 = nowNs();
    InterpResult R = interpret(*TrainBin, Contexts, nullptr, NoTrace, &DP,
                               "interp.observed", Log);
    T.DepRunNs += nowNs() - T0;
    T.DepAccesses += R.MemAccessCount;
    TrainProfile = DP.takeProfile();
  }

  DepProfile RefProfile;
  ProgramTrace UTrace;
  {
    ScopedSpan Phase(&Log, "phase.ref_profile");
    std::unique_ptr<Program> P = build(W, InputKind::Ref, Log);
    {
      ScopedSpan S(&Log, "compiler.base");
      applyBaseTransforms(*P, Factor);
    }
    DepProfiler DP;
    InterpResult R =
        interpret(*P, Contexts, &Arena, Traced, &DP, "interp.traced", Log);
    requireCompleted(R, W);
    RefProfile = DP.takeProfile();
    UTrace = std::move(R.Trace);
    T.TraceBytes += traceBytes(UTrace);
    T.TracedInsts += UTrace.numDynInsts();
    T.URegionInsts = UTrace.numRegionDynInsts();
  }

  {
    ScopedSpan Phase(&Log, "phase.seq_baseline");
    std::unique_ptr<Program> P = build(W, InputKind::Ref, Log);
    P->assignIds();
    InterpResult R =
        interpret(*P, Contexts, &Arena, Traced, nullptr, "interp.traced", Log);
    requireCompleted(R, W);
    T.TraceBytes += traceBytes(R.Trace);
    T.TracedInsts += R.Trace.numDynInsts();
    {
      ScopedSpan S(&Log, "sim.seq");
      S.setItems(R.Trace.numDynInsts());
      simulateSequential(Config, R.Trace);
    }
    Arena.recycle(std::move(R.Trace));
  }

  // build_c and build_t: memory sync from the ref and the train profile.
  auto buildSynced = [&](const DepProfile &Profile, const char *PhaseName,
                         ProgramTrace &Out) {
    ScopedSpan Phase(&Log, PhaseName);
    std::unique_ptr<Program> P = build(W, InputKind::Ref, Log);
    {
      ScopedSpan S(&Log, "compiler.base");
      applyBaseTransforms(*P, Factor);
    }
    MemSyncResult MS;
    {
      ScopedSpan S(&Log, "compiler.memsync");
      MS = applyMemSync(*P, Contexts, Profile);
    }
    {
      ScopedSpan S(&Log, "compiler.audit");
      if (!auditSignalPlacement(*P, MS.NumGroups).clean())
        throw std::runtime_error(W.Name + ": signal audit failed");
    }
    InterpResult R =
        interpret(*P, Contexts, &Arena, Traced, nullptr, "interp.traced", Log);
    requireCompleted(R, W);
    Out = std::move(R.Trace);
    T.TraceBytes += traceBytes(Out);
    T.TracedInsts += Out.numDynInsts();
    return P;
  };
  ProgramTrace CTrace, TTrace;
  std::unique_ptr<Program> CBin =
      buildSynced(RefProfile, "phase.build_c", CTrace);
  buildSynced(TrainProfile, "phase.build_t", TTrace);
  T.CRegionInsts = CTrace.numRegionDynInsts();

  {
    ScopedSpan Probe(&Log, "probe");
    int64_t T0 = nowNs();
    requireCompleted(interpret(*TrainBin, Contexts, nullptr, NoTrace, nullptr,
                               "interp.plain", Log),
                     W);
    T.PlainRunNs += nowNs() - T0;
    RegionOracle Oracle;
    InterpOptions OracleOpts = NoTrace;
    OracleOpts.RecordOracle = &Oracle;
    requireCompleted(interpret(*CBin, Contexts, nullptr, OracleOpts, nullptr,
                               "interp.oracle", Log),
                     W);
  }

  ScopedSpan S(&Log, "replica.release");
  Arena = TraceArena();
  UTrace = ProgramTrace();
  CTrace = ProgramTrace();
  TTrace = ProgramTrace();
  TrainBin.reset();
  CBin.reset();
  return T;
}

} // namespace perfbench
