//===- perfbench/src/main.cpp - End-to-end benchmark driver -----*- C++ -*-===//
//
// Part of the SpecSync project (CGO 2004 reproduction).
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one workload of the end-to-end benchmark through the program's
/// public entry points and prints one JSON result line on stdout:
///
///   perfbench --workload NAME --seed N --seconds S --trace 0|1
///             [--passes N]
///   perfbench --self-test
///
/// Workloads (closed loop: one caller, each call starts when the previous
/// one returned):
///   table2_cold  per kernel: fresh BenchmarkPipeline, prepare, run(C),
///                run(B) -- what table2_speedups --jobs=1 does.
///   sim_sweep    pipelines prepared in set-up; per kernel: run() in all
///                nine modes plus runWithPerfectLoads at 25/15/5 %.
///   rt_threads   the 15 kernels plus GZIP_COMP_XL and PARSER_XL prepared
///                in set-up; per kernel: runThreads(C) with 3 workers.
///
/// A pass runs its workload's calls on every kernel, in an order drawn from
/// the seed; the seed changes nothing else. One kernel's calls in one pass
/// are one operation; an operation fails when any check of its outputs
/// fails (Checks.h).
///
/// --trace 0 reports the end-to-end metrics. --trace 1 adds traced passes
/// (a span around every call into the program) and one ledger pass, which
/// repeats prepare()'s phases layer by layer (Replica.h) and then makes the
/// harness and rt calls on a fresh pipeline per kernel; it reports the
/// per-layer metrics and writes the spans out at the end.
///
//===----------------------------------------------------------------------===//

#include "Checks.h"
#include "Replica.h"
#include "Spans.h"

#include "harness/Pipeline.h"
#include "obs/Json.h"
#include "obs/StatRegistry.h"

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

extern char **environ;

using namespace specsync;
using namespace perfbench;

namespace {

const ExecMode AllModes[] = {ExecMode::U, ExecMode::O, ExecMode::T,
                             ExecMode::C, ExecMode::E, ExecMode::L,
                             ExecMode::P, ExecMode::H, ExecMode::B};
/// The Figure 2/6 limit-study thresholds (fig06_threshold).
const double PerfectThresholds[] = {25.0, 15.0, 5.0};
/// Workers of the rt runs; the calling thread coordinates, so 4 threads.
constexpr unsigned RtWorkers = 3;
/// Set-up rounds per run; setup_s is their median.
constexpr int SetupRounds = 3;
/// Traced passes in a traced run.
constexpr int TracedPasses = 3;
/// table2_cold's warm-up kernel: the one whose prepare() takes longest, so
/// set-up time is pipeline work and not process start-up jitter.
const char *const Table2WarmupKernel = "CRAFTY";

enum class Kind { Table2Cold, SimSweep, RtThreads };

std::optional<Kind> parseKind(const std::string &S) {
  if (S == "table2_cold")
    return Kind::Table2Cold;
  if (S == "sim_sweep")
    return Kind::SimSweep;
  if (S == "rt_threads")
    return Kind::RtThreads;
  return std::nullopt;
}

struct Usage {
  double UserS = 0, SysS = 0;
  long MinFlt = 0, MaxRssKb = 0;
};

Usage usage() {
  rusage U;
  getrusage(RUSAGE_SELF, &U);
  Usage R;
  R.UserS = U.ru_utime.tv_sec + U.ru_utime.tv_usec / 1e6;
  R.SysS = U.ru_stime.tv_sec + U.ru_stime.tv_usec / 1e6;
  R.MinFlt = U.ru_minflt;
  R.MaxRssKb = U.ru_maxrss;
  return R;
}

double median(std::vector<double> V) {
  if (V.empty())
    return 0.0;
  std::sort(V.begin(), V.end());
  size_t N = V.size();
  return N % 2 ? V[N / 2] : (V[N / 2 - 1] + V[N / 2]) / 2.0;
}

/// One call's outputs: a simulated mode run or a real-threads run.
struct Step {
  std::string Label; ///< Mode name, "perfect<pct>" or "rt.C".
  bool IsRt = false;
  ModeRunResult Sim;
  rt::RtRunResult Rt;
};

/// One operation: the calls a pass made on one kernel.
struct KernelRun {
  size_t Kernel = 0;
  std::vector<Step> Steps;
  bool HasReplica = false;
  uint64_t ReplicaURegionInsts = 0;
  uint64_t ReplicaCRegionInsts = 0;
};

using PassRun = std::vector<KernelRun>;

class Bench {
public:
  Bench(Kind K, uint64_t Seed) : K(K), Seed(Seed) {
    for (const Workload &W : allWorkloads())
      Kernels.push_back(&W);
    if (K == Kind::RtThreads)
      for (const char *Name : {"GZIP_COMP_XL", "PARSER_XL"})
        Kernels.push_back(findWorkload(Name));
    RtOpts.Threads = RtWorkers;
  }

  const std::vector<const Workload *> &kernels() const { return Kernels; }
  const MachineConfig &config() const { return Config; }

  /// One round of set-up: prepare the held pipelines, then one untimed
  /// warm-up (for table2_cold: one kernel's pipeline). Call releaseHeld()
  /// first, outside the timed interval, when a round has run before.
  void setupRound() {
    if (K == Kind::Table2Cold) {
      const Workload *W = findWorkload(Table2WarmupKernel);
      KernelRun Ignored;
      table2Kernel(*W, nullptr, Ignored);
      return;
    }
    for (const Workload *W : Kernels) {
      Held.push_back(std::make_unique<BenchmarkPipeline>(*W, Config));
      Held.back()->prepare();
    }
    pass(nullptr);
  }

  /// Destroys the pipelines an earlier set-up round prepared.
  void releaseHeld() { Held.clear(); }

  /// One pass over every kernel in this pass's order.
  PassRun pass(SpanLog *Log) {
    PassRun Out;
    ScopedSpan Root(Log, "pass");
    for (size_t I : nextOrder()) {
      ScopedSpan S(Log, "kernel." + Kernels[I]->Name);
      KernelRun KR;
      KR.Kernel = I;
      switch (K) {
      case Kind::Table2Cold:
        table2Kernel(*Kernels[I], Log, KR);
        break;
      case Kind::SimSweep:
        sweepKernel(*Held[I], Log, KR);
        break;
      case Kind::RtThreads:
        runThreads(*Held[I], Log, KR);
        break;
      }
      Out.push_back(std::move(KR));
    }
    return Out;
  }

  /// The ledger pass: per kernel, prepare()'s phases layer by layer, then
  /// the harness calls of table2_cold plus runThreads(C) on a fresh
  /// pipeline, so every layer is timed on every workload.
  PassRun ledger(SpanLog &Log, ReplicaTotals &Totals) {
    PassRun Out;
    ScopedSpan Root(&Log, "ledger");
    for (size_t I : nextOrder()) {
      const Workload &W = *Kernels[I];
      ScopedSpan S(&Log, "kernel." + W.Name);
      KernelRun KR;
      KR.Kernel = I;
      {
        ScopedSpan R(&Log, "replica");
        ReplicaTotals T = replicatePrepare(W, Config, Log);
        KR.HasReplica = true;
        KR.ReplicaURegionInsts = T.URegionInsts;
        KR.ReplicaCRegionInsts = T.CRegionInsts;
        Totals += T;
      }
      table2Kernel(W, &Log, KR, /*WithThreads=*/true);
      Out.push_back(std::move(KR));
    }
    return Out;
  }

private:
  std::vector<size_t> nextOrder() {
    std::vector<size_t> Order(Kernels.size());
    for (size_t I = 0; I < Order.size(); ++I)
      Order[I] = I;
    // splitmix64 over (seed, pass number) drives a Fisher-Yates shuffle.
    uint64_t X = Seed * 0x9e3779b97f4a7c15ull + ++PassCounter;
    auto next = [&X] {
      uint64_t Z = (X += 0x9e3779b97f4a7c15ull);
      Z = (Z ^ (Z >> 30)) * 0xbf58476d1ce4e5b9ull;
      Z = (Z ^ (Z >> 27)) * 0x94d049bb133111ebull;
      return Z ^ (Z >> 31);
    };
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[next() % I]);
    return Order;
  }

  void runMode(BenchmarkPipeline &P, ExecMode M, SpanLog *Log,
               KernelRun &Out) {
    ScopedSpan S(Log, "harness.run");
    ModeRunResult R = P.run(M);
    S.setItems(R.Sim.Slots.Busy);
    Out.Steps.push_back({modeName(M), false, R, {}});
  }

  void runThreads(BenchmarkPipeline &P, SpanLog *Log, KernelRun &Out) {
    ScopedSpan S(Log, "rt.run_threads");
    rt::RtRunResult R = P.runThreads(ExecMode::C, RtOpts);
    Out.Steps.push_back({"rt.C", true, {}, R});
  }

  void table2Kernel(const Workload &W, SpanLog *Log, KernelRun &Out,
                    bool WithThreads = false) {
    std::optional<BenchmarkPipeline> P;
    {
      ScopedSpan S(Log, "harness.construct");
      P.emplace(W, Config);
    }
    {
      // run(C) would prepare lazily; the explicit call only splits the span.
      ScopedSpan S(Log, "harness.prepare");
      P->prepare();
    }
    runMode(*P, ExecMode::C, Log, Out);
    runMode(*P, ExecMode::B, Log, Out);
    if (WithThreads)
      runThreads(*P, Log, Out);
    ScopedSpan S(Log, "harness.release");
    P.reset();
  }

  void sweepKernel(BenchmarkPipeline &P, SpanLog *Log, KernelRun &Out) {
    for (ExecMode M : AllModes)
      runMode(P, M, Log, Out);
    for (double Pct : PerfectThresholds) {
      ScopedSpan S(Log, "harness.run");
      ModeRunResult R = P.runWithPerfectLoads(Pct);
      S.setItems(R.Sim.Slots.Busy);
      Out.Steps.push_back({"perfect" + std::to_string(int(Pct)), false, R, {}});
    }
  }

  Kind K;
  uint64_t Seed;
  uint64_t PassCounter = 0;
  MachineConfig Config;
  rt::RtOptions RtOpts;
  std::vector<const Workload *> Kernels;
  std::vector<std::unique_ptr<BenchmarkPipeline>> Held;
};

/// Checks operations against reference facts, slot accounting and the
/// first result seen for each (kernel, call).
class Checker {
public:
  explicit Checker(const Bench &B) : B(B) {}

  /// Returns false (and reports why on stderr) when any check fails.
  bool check(const KernelRun &KR) {
    const Workload &W = *B.kernels()[KR.Kernel];
    std::vector<std::string> Errors;
    auto note = [&](const std::string &Label, std::string E) {
      if (!E.empty())
        Errors.push_back(Label + ": " + E);
    };
    const ModeRunResult *C = nullptr, *Bm = nullptr;
    for (const Step &S : KR.Steps) {
      uint64_t D = S.IsRt ? digest(S.Rt) : digest(S.Sim);
      auto [It, Fresh] = First.try_emplace({KR.Kernel, S.Label}, D);
      if (!Fresh && It->second != D)
        note(S.Label, "result differs from this run's first one");
      if (S.IsRt) {
        note(S.Label, checkRt(S.Rt, facts(KR.Kernel).Checksum));
        continue;
      }
      note(S.Label, checkSimAccounting(S.Sim, B.config()));
      const std::string &L = S.Label;
      if (L == "U" || L == "O" || L == "P" || L == "H" ||
          L.rfind("perfect", 0) == 0)
        note(L, checkBusy(S.Sim, facts(KR.Kernel).BaseRegionInsts));
      if (L == "C")
        C = &S.Sim;
      if (L == "B")
        Bm = &S.Sim;
    }
    if (C && Bm)
      note("B", checkBusy(*Bm, C->Sim.Slots.Busy));
    if (KR.HasReplica && KR.ReplicaURegionInsts !=
                             facts(KR.Kernel).BaseRegionInsts)
      note("replica", "U-trace region instructions differ from the "
                      "reference engine's");
    // The replica's C trace must be the trace prepare() built: run(C)
    // simulates every region instruction of it as a busy slot.
    if (KR.HasReplica && C)
      note("replica C trace", checkBusy(*C, KR.ReplicaCRegionInsts));
    for (const std::string &E : Errors)
      if (Reported++ < 20)
        std::fprintf(stderr, "perfbench: check failed: %s %s\n",
                     W.Name.c_str(), E.c_str());
    return Errors.empty();
  }

  /// Order-independent hash of the first result of every (kernel, call).
  uint64_t runDigest() const {
    std::vector<std::pair<std::string, uint64_t>> Keyed;
    for (const auto &[Key, D] : First)
      Keyed.push_back({B.kernels()[Key.first]->Name + "/" + Key.second, D});
    std::sort(Keyed.begin(), Keyed.end());
    uint64_t H = 1469598103934665603ull;
    for (const auto &[Name, D] : Keyed)
      for (uint64_t V : {std::hash<std::string>{}(Name), D})
        H = (H ^ V) * 1099511628211ull;
    return H;
  }

private:
  const RefFacts &facts(size_t Kernel) {
    auto It = Facts.find(Kernel);
    if (It == Facts.end())
      It = Facts.emplace(Kernel, computeRefFacts(*B.kernels()[Kernel])).first;
    return It->second;
  }

  const Bench &B;
  std::map<size_t, RefFacts> Facts;
  std::map<std::pair<size_t, std::string>, uint64_t> First;
  unsigned Reported = 0;
};

struct Metric {
  std::string Name;
  double Value;
  std::string Unit;
};

/// Sums of span durations and items by name, over the spans under roots
/// named \p Root; leaves are the calls into the program.
struct SpanTotals {
  struct Agg {
    int64_t Ns = 0;
    uint64_t Items = 0;
  };
  std::map<std::string, Agg> ByName;
  int64_t RootNs = 0;
  int64_t LeafNs = 0;
  int Roots = 0;

  SpanTotals(const SpanLog &Log, const std::string &Root) {
    const std::vector<Span> &S = Log.spans();
    std::vector<int> RootOf(S.size(), -1);
    std::vector<bool> HasChild(S.size(), false);
    for (size_t I = 0; I < S.size(); ++I) {
      RootOf[I] = S[I].Parent < 0 ? int(I) : RootOf[S[I].Parent];
      if (S[I].Parent >= 0)
        HasChild[S[I].Parent] = true;
    }
    for (size_t I = 0; I < S.size(); ++I) {
      if (S[RootOf[I]].Name != Root)
        continue;
      if (S[I].Parent < 0) {
        RootNs += S[I].durNs();
        ++Roots;
        continue;
      }
      Agg &A = ByName[S[I].Name];
      A.Ns += S[I].durNs();
      A.Items += S[I].Items;
      if (!HasChild[I])
        LeafNs += S[I].durNs();
    }
  }
  bool has(const std::string &N) const { return ByName.count(N) != 0; }
  Agg get(const std::string &N) const {
    auto It = ByName.find(N);
    return It == ByName.end() ? Agg() : It->second;
  }
  int64_t phaseNs() const {
    int64_t Ns = 0;
    for (const auto &[Name, A] : ByName)
      if (Name.rfind("phase.", 0) == 0)
        Ns += A.Ns;
    return Ns;
  }
};

double ratio(double Num, double Den) { return Den != 0 ? Num / Den : 0.0; }

/// Per-layer metrics of a traced run; see the README's table for which
/// workload each should move.
std::vector<Metric> layerMetrics(const SpanLog &Log, const PassRun &Traced,
                                 const PassRun &Ledger,
                                 const ReplicaTotals &RT, double UntracedPass,
                                 double TracedPass, const Usage &PassUsage,
                                 int UntracedPasses, double StatsPrepareNs) {
  SpanTotals P(Log, "pass"), L(Log, "ledger");
  int NP = std::max(P.Roots, 1);
  std::vector<Metric> M;
  auto ms = [](int64_t Ns) { return static_cast<double>(Ns) / 1e6; };
  auto perInst = [](const SpanTotals::Agg &A) {
    return ratio(static_cast<double>(A.Ns), static_cast<double>(A.Items));
  };
  // A call the workload's own pass makes is read from the traced passes;
  // one it does not make is read from the ledger pass.
  auto pick = [&](const std::string &N) {
    return P.has(N) ? std::make_pair(P.get(N), NP)
                    : std::make_pair(L.get(N), 1);
  };

  M.push_back({"workloads.build_ms", ms(L.get("workloads.build").Ns),
               "ms/pass"});
  M.push_back({"interp.plain_ns_per_inst", perInst(L.get("interp.plain")),
               "ns"});
  M.push_back({"interp.observed_ns_per_inst",
               perInst(L.get("interp.observed")), "ns"});
  M.push_back({"interp.traced_ns_per_inst", perInst(L.get("interp.traced")),
               "ns"});
  M.push_back({"interp.trace_bytes_per_inst",
               ratio(double(RT.TraceBytes), double(RT.TracedInsts)), "B"});
  M.push_back({"interp.oracle_ns_per_inst", perInst(L.get("interp.oracle")),
               "ns"});
  M.push_back({"profile.dep_ns_per_access",
               ratio(double(RT.DepRunNs - RT.PlainRunNs),
                     double(RT.DepAccesses)),
               "ns"});
  for (const char *Pass : {"base", "memsync", "audit"})
    M.push_back({std::string("compiler.") + Pass + "_ms",
                 ms(L.get(std::string("compiler.") + Pass).Ns), "ms/pass"});
  M.push_back({"sim.seq_ns_per_inst", perInst(L.get("sim.seq")), "ns"});

  auto [Run, RunN] = pick("harness.run");
  M.push_back({"sim.tls_ns_per_inst", perInst(Run), "ns"});
  // Simulated cycles of one pass (modelled time): the first traced pass,
  // or the ledger when the workload's pass simulates nothing.
  const PassRun &SimSrc = P.has("harness.run") ? Traced : Ledger;
  double Cycles = 0;
  size_t PerPass = SimSrc.size() / (P.has("harness.run") ? NP : 1);
  for (size_t I = 0; I < PerPass && I < SimSrc.size(); ++I)
    for (const Step &S : SimSrc[I].Steps)
      if (!S.IsRt)
        Cycles += static_cast<double>(S.Sim.Sim.Cycles);
  M.push_back({"sim.cycles", Cycles, "count"});

  // rt: the workload's own runThreads calls, else the ledger's.
  bool OwnRt = P.has("rt.run_threads");
  const PassRun &RtSrc = OwnRt ? Traced : Ledger;
  int RtN = OwnRt ? NP : 1;
  double SeqMs = 0, RtMs = 0, Committed = 0, Squashed = 0;
  for (const KernelRun &KR : RtSrc)
    for (const Step &S : KR.Steps)
      if (S.IsRt) {
        SeqMs += S.Rt.SeqWallMs;
        RtMs += S.Rt.RtWallMs;
        Committed += double(S.Rt.Counts.EpochsCommitted);
        Squashed += double(S.Rt.Counts.EpochsSquashed);
      }
  SpanTotals::Agg RtCall = pick("rt.run_threads").first;
  M.push_back({"rt.threaded_ms", RtMs / RtN, "ms/pass"});
  M.push_back({"rt.coord_us_per_epoch",
               ratio((RtMs - SeqMs) * 1e3, Committed), "us"});
  M.push_back({"rt.validate_ms", (ms(RtCall.Ns) - SeqMs - RtMs) / RtN,
               "ms/pass"});
  M.push_back({"rt.commit_ratio", ratio(Committed, Committed + Squashed),
               "ratio"});
  M.push_back({"rt.wall_speedup", ratio(SeqMs, RtMs), "x"});

  auto [Prep, PrepN] = pick("harness.prepare");
  M.push_back({"harness.prepare_ms", ms(Prep.Ns) / PrepN, "ms/pass"});
  M.push_back({"harness.prepare_stats_ms", StatsPrepareNs / 1e6, "ms/pass"});
  M.push_back({"harness.prepare_replica_ms", ms(L.phaseNs()), "ms/pass"});
  M.push_back({"harness.run_ms", ms(Run.Ns) / RunN, "ms/pass"});
  auto [Rel, RelN] = pick("harness.release");
  M.push_back({"harness.release_ms", ms(Rel.Ns) / RelN, "ms/pass"});
  M.push_back({"harness.pass_ms", ms(P.RootNs) / NP, "ms/pass"});
  M.push_back({"harness.unattributed_ms", ms(P.RootNs - P.LeafNs) / NP,
               "ms/pass"});
  M.push_back({"harness.ledger_ms", ms(L.RootNs), "ms/pass"});
  M.push_back({"harness.ledger_unattributed_ms", ms(L.RootNs - L.LeafNs),
               "ms/pass"});

  int UN = std::max(UntracedPasses, 1);
  M.push_back({"os.minflt_per_pass", double(PassUsage.MinFlt) / UN, "count"});
  M.push_back({"os.sys_s_per_pass", PassUsage.SysS / UN, "s"});
  M.push_back({"os.user_s_per_pass", PassUsage.UserS / UN, "s"});
  M.push_back({"obs.trace_overhead_pct",
               (ratio(TracedPass, UntracedPass) - 1.0) * 100.0, "%"});
  return M;
}

void printResult(bool Correct, uint64_t Attempted, uint64_t Failed,
                 const std::vector<Metric> &Metrics) {
  std::ostringstream OS;
  obs::JsonWriter W(OS, /*Pretty=*/false);
  W.beginObject();
  W.keyValue("correct", Correct);
  W.keyValue("attempted", Attempted);
  W.keyValue("failed", Failed);
  W.key("metrics");
  W.beginObject();
  for (const Metric &M : Metrics) {
    W.key(M.Name);
    W.beginObject();
    W.keyValue("value", M.Value);
    W.keyValue("unit", M.Unit);
    W.endObject();
  }
  W.endObject();
  W.endObject();
  std::cout << OS.str() << std::endl;
}

/// Feeds the checks one clean and several corrupted outputs; every
/// corruption must be caught, or a check is vacuous.
int selfTest() {
  MachineConfig Config;
  const Workload &W = *findWorkload("IJPEG");
  BenchmarkPipeline P(W, Config);
  ModeRunResult U = P.run(ExecMode::U), C = P.run(ExecMode::C),
                B = P.run(ExecMode::B);
  rt::RtOptions O;
  O.Threads = RtWorkers;
  rt::RtRunResult R = P.runThreads(ExecMode::C, O);
  RefFacts F = computeRefFacts(W);

  int Bad = 0;
  auto expect = [&](const char *Case, bool WantError, const std::string &E) {
    bool Ok = WantError != E.empty();
    std::printf("%-34s %s%s%s\n", Case, Ok ? "ok" : "FAILED",
                E.empty() ? "" : "  -- ", E.c_str());
    Bad += !Ok;
  };
  expect("clean U accounting", false, checkSimAccounting(U, Config));
  expect("clean C accounting", false, checkSimAccounting(C, Config));
  expect("clean U busy = reference", false, checkBusy(U, F.BaseRegionInsts));
  expect("clean B busy = C busy", false, checkBusy(B, C.Sim.Slots.Busy));
  expect("clean rt", false, checkRt(R, F.Checksum));

  rt::RtRunResult R1 = R;
  R1.RtChecksum ^= 1;
  expect("corrupt threaded checksum", true, checkRt(R1, F.Checksum));
  rt::RtRunResult R2 = R;
  R2.SeqChecksum += 1;
  expect("corrupt sequential checksum", true, checkRt(R2, F.Checksum));
  rt::RtRunResult R3 = R;
  R3.Replay.EpochsSquashed += 1;
  expect("corrupt replay counts", true, checkRt(R3, F.Checksum));
  rt::RtRunResult R4 = R;
  R4.RegionsDemoted = 1;
  expect("demoted region", true, checkRt(R4, F.Checksum));

  ModeRunResult U1 = U;
  U1.Sim.Slots.Busy += 1;
  expect("corrupt U busy slots", true, checkBusy(U1, F.BaseRegionInsts));
  ModeRunResult B1 = B;
  B1.Sim.Slots.Busy -= 1;
  expect("corrupt B busy slots", true, checkBusy(B1, C.Sim.Slots.Busy));
  ModeRunResult C1 = C;
  C1.Sim.Cycles += 1;
  expect("corrupt cycle count", true, checkSimAccounting(C1, Config));
  expect("corrupt cycle count changes digest",
         true, digest(C1) == digest(C) ? "" : "digest moved");
  ModeRunResult C2 = C;
  C2.Sim.Slots.Fail = C2.Sim.Slots.Total;
  expect("slots over total", true, checkSimAccounting(C2, Config));
  ModeRunResult C3 = C;
  C3.SeqRegionCycles = C3.Sim.Cycles * (Config.NumCores + 1);
  expect("speedup above core count", true, checkSimAccounting(C3, Config));
  std::printf("%s\n", Bad ? "self-test FAILED" : "self-test passed");
  return Bad ? 1 : 0;
}

struct Args {
  std::string Workload;
  uint64_t Seed = 1;
  double Seconds = 10;
  bool Trace = false;
  int Passes = 0; ///< >0: exactly this many passes and one set-up round.
  bool SelfTest = false;
};

bool parseArgs(int argc, char **argv, Args &A) {
  for (int I = 1; I < argc; ++I) {
    std::string Arg = argv[I], Val;
    if (Arg == "--self-test") {
      A.SelfTest = true;
      continue;
    }
    size_t Eq = Arg.find('=');
    if (Eq != std::string::npos) {
      Val = Arg.substr(Eq + 1);
      Arg.resize(Eq);
    } else if (I + 1 < argc) {
      Val = argv[++I];
    } else {
      std::fprintf(stderr, "perfbench: %s needs a value\n", Arg.c_str());
      return false;
    }
    char *End = nullptr;
    if (Arg == "--workload")
      A.Workload = Val;
    else if (Arg == "--seed")
      A.Seed = std::strtoull(Val.c_str(), &End, 10);
    else if (Arg == "--seconds")
      A.Seconds = std::strtod(Val.c_str(), &End);
    else if (Arg == "--trace")
      A.Trace = std::strtol(Val.c_str(), &End, 10) != 0;
    else if (Arg == "--passes")
      A.Passes = static_cast<int>(std::strtol(Val.c_str(), &End, 10));
    else {
      std::fprintf(stderr, "perfbench: unknown argument %s\n", Arg.c_str());
      return false;
    }
    if (End && *End) {
      std::fprintf(stderr, "perfbench: bad value for %s: %s\n", Arg.c_str(),
                   Val.c_str());
      return false;
    }
  }
  return true;
}

int run(const Args &A, Kind K, int64_t StartNs) {
  Bench B(K, A.Seed);
  int Rounds = A.Passes > 0 ? 1 : SetupRounds;
  std::vector<double> SetupS;
  for (int I = 0; I < Rounds; ++I) {
    if (I > 0)
      B.releaseHeld();
    int64_t T0 = I == 0 ? StartNs : nowNs();
    B.setupRound();
    SetupS.push_back(static_cast<double>(nowNs() - T0) / 1e9);
  }

  // Timed, untraced passes: the end-to-end figures.
  std::vector<PassRun> Runs;
  std::vector<double> PassS;
  Usage U0 = usage();
  int64_t TimedStart = nowNs();
  while (A.Passes > 0 ? int(PassS.size()) < A.Passes
                      : (nowNs() - TimedStart) / 1e9 < A.Seconds) {
    int64_t T0 = nowNs();
    Runs.push_back(B.pass(nullptr));
    PassS.push_back(static_cast<double>(nowNs() - T0) / 1e9);
  }
  Usage U1 = usage();
  Usage PassUsage{U1.UserS - U0.UserS, U1.SysS - U0.SysS,
                  U1.MinFlt - U0.MinFlt, 0};

  std::vector<Metric> Metrics;
  SpanLog Log;
  if (A.Trace) {
    int NT = A.Passes > 0 ? 1 : TracedPasses;
    std::vector<double> TracedS;
    for (int I = 0; I < NT; ++I) {
      int64_t T0 = nowNs();
      Runs.push_back(B.pass(&Log));
      TracedS.push_back(static_cast<double>(nowNs() - T0) / 1e9);
    }
    PassRun Traced;
    for (size_t I = Runs.size() - NT; I < Runs.size(); ++I)
      Traced.insert(Traced.end(), Runs[I].begin(), Runs[I].end());
    // The program's own phase timers run during the ledger as a
    // cross-check of the replica's phase spans.
    obs::StatRegistry::setEnabled(true);
    ReplicaTotals RT;
    Runs.push_back(B.ledger(Log, RT));
    double StatsPrepareNs = static_cast<double>(
        obs::StatRegistry::global().counter("harness.prepare.ns")->Value);
    obs::StatRegistry::setEnabled(false);
    Metrics = layerMetrics(Log, Traced, Runs.back(), RT, median(PassS),
                           median(TracedS), PassUsage, int(PassS.size()),
                           StatsPrepareNs);
  } else {
    Usage End = usage();
    double N = static_cast<double>(PassS.size());
    Metrics = {
        {"setup_s", median(SetupS), "s"},
        {"pass_s", median(PassS), "s"},
        {"cpu_s", (PassUsage.UserS + PassUsage.SysS) / N, "s"},
        {"peak_rss_mb", static_cast<double>(End.MaxRssKb) / 1024.0, "MB"},
    };
  }

  Checker Check(B);
  uint64_t Attempted = 0, Failed = 0;
  for (const PassRun &R : Runs)
    for (const KernelRun &KR : R) {
      ++Attempted;
      Failed += !Check.check(KR);
    }
  std::fprintf(stderr, "perfbench: %s seed %llu: set-up rounds",
               A.Workload.c_str(), (unsigned long long)A.Seed);
  for (double S : SetupS)
    std::fprintf(stderr, " %.3f", S);
  std::fprintf(stderr, " s; %zu timed passes", PassS.size());
  for (double S : PassS)
    std::fprintf(stderr, " %.3f", S);
  std::fprintf(stderr, " s; results digest %016llx\n",
               (unsigned long long)Check.runDigest());
  if (A.Trace) {
    std::string Path = ".bench_out/spans-" + A.Workload + "-" +
                       std::to_string(A.Seed) + ".json";
    if (!Log.writeJson(Path))
      std::fprintf(stderr, "perfbench: could not write spans to %s\n",
                   Path.c_str());
  }
  // Every operation either passed all its checks or counts as failed, so
  // the outputs are correct exactly when no operation failed.
  printResult(/*Correct=*/Failed == 0, Attempted, Failed, Metrics);
  return 0;
}

} // namespace

int main(int argc, char **argv) {
  int64_t StartNs = nowNs();
  // The session defaults are what is measured: refuse to run with any
  // SPECSYNC_* override in the environment.
  for (char **E = environ; *E; ++E)
    if (std::strncmp(*E, "SPECSYNC_", 9) == 0) {
      std::fprintf(stderr, "perfbench: unset %s first\n", *E);
      return 2;
    }
  Args A;
  if (!parseArgs(argc, argv, A))
    return 2;
  try {
    if (A.SelfTest)
      return selfTest();
    std::optional<Kind> K = parseKind(A.Workload);
    if (!K) {
      std::fprintf(stderr,
                   "perfbench: --workload must be table2_cold, sim_sweep or "
                   "rt_threads\n");
      return 2;
    }
    return run(A, *K, StartNs);
  } catch (const std::exception &E) {
    std::fprintf(stderr, "perfbench: %s\n", E.what());
    return 1;
  }
}
