//===- perfbench/src/Replica.h - prepare() phase by phase -------*- C++ -*-===//
//
// Part of the SpecSync project (CGO 2004 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// BenchmarkPipeline::prepare() is one call, so the traced run repeats its
/// phases itself, in the same order, through each layer's public function,
/// with a span around every call: Workload::Build, Interpreter::run (with a
/// LoopProfiler or DepProfiler and no trace, or collecting a trace),
/// applyBaseTransforms, applyMemSync, auditSignalPlacement and
/// simulateSequential. The phase spans carry prepare()'s own phase-timer
/// names, so the program's --stats timers cross-check them. Two probes
/// follow that prepare() does not make: a plain run of the train binary
/// (the base for the profiler's cost) and a RecordOracle run of the C
/// binary (the rt backend's sequential reference run).
///
//===----------------------------------------------------------------------===//

#ifndef PERFBENCH_REPLICA_H
#define PERFBENCH_REPLICA_H

#include "Spans.h"

#include "sim/MachineConfig.h"
#include "workloads/Workload.h"

#include <cstdint>

namespace perfbench {

/// Quantities of the replica that no single span carries.
struct ReplicaTotals {
  uint64_t TraceBytes = 0;  ///< Buffer capacity of every trace collected.
  uint64_t TracedInsts = 0; ///< Dynamic instructions of those traces.
  int64_t DepRunNs = 0;     ///< Train binary under the DepProfiler.
  int64_t PlainRunNs = 0;   ///< Same binary, no observer.
  uint64_t DepAccesses = 0; ///< Loads + stores of that binary.
  uint64_t URegionInsts = 0; ///< Region instructions of the U trace.
  uint64_t CRegionInsts = 0; ///< Region instructions of the C trace.

  ReplicaTotals &operator+=(const ReplicaTotals &O);
};

/// Runs prepare()'s phases and the two probes for \p W under \p Log.
ReplicaTotals replicatePrepare(const specsync::Workload &W,
                               const specsync::MachineConfig &Config,
                               SpanLog &Log);

} // namespace perfbench

#endif // PERFBENCH_REPLICA_H
