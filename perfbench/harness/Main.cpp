//===- perfbench/harness/Main.cpp - Outside-in benchmark harness ----------===//
//
// Part of the ompgpu project, reproducing "Efficient Execution of OpenMP on
// GPUs" (CGO 2022). Distributed under the Apache-2.0 license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Runs one benchmark workload against the ompgpu libraries, only through
/// their public functions, and writes a raw record that perfbench/run.py
/// turns into metrics: per-case wall times, outcomes and deterministic
/// counters, the set-up repetitions and the peak RSS. A traced run also
/// records spans around every call into a layer (Trace.h) and writes them
/// as Chrome trace-event JSON.
///
///   perfbench_harness --workload proxy-ladder|fuzz-oracle|cg-multidevice
///                     --seed N --seconds S --trace 0|1 --out record.json
///                     [--trace-out trace.json]
///
/// Cases run in passes over a fixed, seed-derived case list until the time
/// is up, so every pass holds the same mix. With --trace 1 the passes
/// alternate traced and untraced, which gives the tracing overhead.
///
//===----------------------------------------------------------------------===//

#include "Trace.h"

#include "analysis/MapInference.h"
#include "analysis/OMPLint.h"
#include "core/OpenMPOpt.h"
#include "core/Passes.h"
#include "driver/Presets.h"
#include "fuzz/FuzzRNG.h"
#include "fuzz/Oracle.h"
#include "gpusim/DeviceGroup.h"
#include "ir/Module.h"
#include "rtl/DeviceRTL.h"
#include "support/JSON.h"
#include "support/raw_ostream.h"
#include "transforms/FunctionAttrs.h"
#include "transforms/Inliner.h"
#include "transforms/Mem2Reg.h"
#include "transforms/Simplify.h"
#include "transforms/StoreToLoadForwarding.h"
#include "workloads/CGSolver.h"
#include "workloads/Harness.h"

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>

using namespace ompgpu;
using namespace perfbench;

namespace {

/// Set-up runs this many times per run; the record keeps every duration
/// and run.py reports the median.
constexpr unsigned SetupReps = 5;

/// Recipes in the fuzz-oracle pool (each runs under every fuzz preset).
constexpr unsigned FuzzRecipes = 120;

/// One measured case: a workload x preset, a recipe x preset, or a solve.
struct CaseRecord {
  std::string Key; ///< identifies the case across passes and runs
  unsigned Pass = 0;
  bool Traced = false;
  double WallMs = 0.0;
  double CompileMs = -1.0; ///< -1 when the case compiled nothing
  double LaunchMs = -1.0;  ///< host time of launchKernel (proxy-ladder)
  uint64_t Iterations = 0; ///< CG iterations (cg-multidevice)
  bool Ok = true;
  std::string Reason; ///< why the case failed
  /// Deterministic counters, formatted exactly (run.py compares them
  /// bit for bit within and across runs).
  std::vector<std::pair<std::string, std::string>> Counters;

  void count(const char *Name, uint64_t V) {
    Counters.emplace_back(Name, std::to_string(V));
  }
  void countReal(const char *Name, double V) {
    char Buf[64];
    std::snprintf(Buf, sizeof(Buf), "%.17g", V);
    Counters.emplace_back(Name, Buf);
  }
  std::string counter(const char *Name) const {
    for (const auto &[N, V] : Counters)
      if (N == Name)
        return V;
    return "";
  }
  void fail(std::string Why) {
    if (Ok)
      Reason = std::move(Why);
    Ok = false;
  }
};

double msSince(int64_t StartNs) { return (double)(nowNs() - StartNs) / 1e6; }

uint64_t countInstructions(const Module &M) {
  uint64_t N = 0;
  for (Function *F : M.functions())
    for (BasicBlock *BB : *F)
      N += BB->size();
  return N;
}

/// The src/ module implementing pipeline pass \p Name.
const char *passLayer(const std::string &Name) {
  if (Name == LinkDeviceRTLPassName)
    return "rtl";
  if (Name == OMPLintPassName || Name == MapInferencePassName)
    return "analysis";
  for (const char *Core :
       {OpenMPOptPassName, passname::Internalize, passname::HeapToStack,
        passname::HeapToShared, passname::SPMDzation,
        passname::CustomStateMachine, passname::FoldRuntimeCalls})
    if (Name == Core)
      return "core";
  for (const char *T :
       {FunctionAttrsPassName, SimplifyPassName, InlineParallelRegionsPassName,
        Mem2RegPassName, StoreToLoadForwardingPassName})
    if (Name == T)
      return "transforms";
  return "other";
}

/// Adds one packed span per executed pass of \p Passes (pre-order, with
/// nesting depth) under \p Parent. Only durations are known, so siblings
/// are laid out back to back from the parent's start; self times are exact.
void addPassSpans(Tracer &T, const std::vector<PassExecution> &Passes,
                  int32_t Parent, int32_t Case) {
  // (span, next free start) per open nesting level; level 0 is Parent.
  std::vector<std::pair<int32_t, int64_t>> Open{{Parent,
                                                 T.span(Parent).StartNs}};
  for (const PassExecution &E : Passes) {
    if (E.Skipped || E.Depth + 1 > Open.size())
      continue;
    Open.resize(E.Depth + 1);
    int64_t Start = Open.back().second;
    int64_t Dur = std::llround(E.WallMillis * 1e6);
    Open.back().second += Dur;
    int32_t Idx =
        T.add(std::string(passLayer(E.Name)) + "." + E.Name, Start,
              Start + Dur, Open.back().first, Case, /*Packed=*/true);
    Open.push_back({Idx, Start});
  }
}

/// OpenMPOpt's transformation counters: deterministic for a given module
/// and configuration.
void countOptStats(CaseRecord &R, const OpenMPOptStats &S) {
  R.count("core.spmdized_kernels", S.SPMDzedKernels);
  R.count("core.heap_to_stack", S.HeapToStack);
  R.count("core.heap_to_shared", S.HeapToShared);
  R.count("core.custom_state_machines", S.CustomStateMachines);
  R.count("core.guarded_regions", S.GuardedRegions);
  R.count("core.folded_calls", (uint64_t)S.FoldedExecMode +
                                   S.FoldedParallelLevel +
                                   S.FoldedLaunchParams);
}

/// Compiles \p M under \p P inside a driver span; with tracing on, the
/// pipeline's own pass records become child spans.
CompileResult compile(Tracer &T, Module &M, const PipelineOptions &P,
                      int32_t Case, CaseRecord &R) {
  CompileResult CR;
  int64_t Start = nowNs();
  int32_t Span;
  {
    Scope S(T, "driver.optimizeDeviceModule", Case);
    Span = S.index();
    CR = optimizeDeviceModule(M, P);
  }
  R.CompileMs = msSince(Start);
  if (Span >= 0)
    addPassSpans(T, CR.Passes, Span, Case);
  countOptStats(R, CR.Stats);
  if (!CR.Passes.empty())
    R.count("driver.pass_execs", CR.Passes.size());
  if (CR.VerifyFailed)
    R.fail("IR verification failed: " + CR.VerifyError);
  return CR;
}

/// One workload: a fixed case list built by setup() from the seed.
class Bench {
public:
  virtual ~Bench() = default;
  /// Builds inputs from \p Seed and runs one untimed warm-up case.
  /// Returns an empty string on success, else why set-up failed.
  virtual std::string setup(uint64_t Seed) = 0;
  virtual size_t numCases() const = 0;
  virtual CaseRecord runCase(size_t I, int32_t CaseId, Tracer &T,
                             bool Traced) = 0;
};

//===----------------------------------------------------------------------===//
// proxy-ladder: the four proxies x the Fig. 10/11 preset ladder
//===----------------------------------------------------------------------===//

class ProxyLadder : public Bench {
  struct Case {
    Workload *W = nullptr;
    PresetSpec Preset;
    PipelineOptions Timed; ///< Preset.Pipeline with TimePasses (traced)
    std::string Key;
  };
  std::vector<std::unique_ptr<Workload>> Workloads;
  std::vector<Case> Cases;

public:
  std::string setup(uint64_t Seed) override {
    Cases.clear();
    Workloads.clear();
    Workloads.push_back(createXSBench(ProblemSize::Small));
    Workloads.push_back(createRSBench(ProblemSize::Small));
    Workloads.push_back(createSU3Bench(ProblemSize::Small));
    Workloads.push_back(createMiniQMC(ProblemSize::Small));
    for (auto &W : Workloads) {
      for (PresetSpec &P : evaluationPresetLadder()) {
        if (P.UseCUDA) {
          IRContext Ctx;
          Module Probe(Ctx, "probe");
          if (!W->buildCUDA(Probe))
            continue; // OpenMP-only workload (miniQMC)
        }
        Case C;
        C.W = W.get();
        C.Key = W->getName() + "/" + P.Label;
        C.Timed = P.Pipeline;
        C.Timed.Instrument.TimePasses = true;
        C.Preset = std::move(P);
        Cases.push_back(std::move(C));
      }
    }
    // Warm-up on the ladder's first case, whatever the seed, so set-up
    // time does not depend on it. It is cross-checked against the
    // library's own launch path: the benchmark splits runWorkload into its
    // layer calls and must observe exactly what runWorkload does.
    Tracer Off;
    CaseRecord R = runCase(0, -1, Off, false);
    const Case &C = Cases[0];
    HarnessOptions HO;
    HO.UseCUDAKernel = C.Preset.UseCUDA;
    WorkloadRunResult Ref = runWorkload(*C.W, C.Preset.Pipeline, HO);
    if (!R.Ok || !Ref.Correct)
      return "warm-up case " + C.Key + " failed: " + R.Reason;
    if (R.counter("gpusim.total_cycles") !=
            std::to_string(Ref.Stats.totalCycles()) ||
        R.counter("gpusim.dyn_insts") !=
            std::to_string(Ref.Stats.DynamicInstructions))
      return "warm-up case " + C.Key + " disagrees with runWorkload";

    // The seed only sets the case order.
    FuzzRNG RNG(Seed);
    for (size_t I = Cases.size(); I > 1; --I)
      std::swap(Cases[I - 1], Cases[RNG.next(I)]);
    return "";
  }

  size_t numCases() const override { return Cases.size(); }

  CaseRecord runCase(size_t I, int32_t Id, Tracer &T, bool Traced) override {
    const Case &C = Cases[I];
    Workload &W = *C.W;
    const PipelineOptions &P = Traced ? C.Timed : C.Preset.Pipeline;
    CaseRecord R;
    R.Key = C.Key;
    R.Traced = Traced;
    int64_t Start = nowNs();
    {
      Scope CaseSpan(T, "bench.case", Id);
      std::unique_ptr<IRContext> Ctx;
      std::unique_ptr<Module> M;
      {
        Scope S(T, "ir.Module", Id);
        Ctx = std::make_unique<IRContext>();
        M = std::make_unique<Module>(*Ctx, W.getName());
      }
      Function *Kernel;
      {
        Scope S(T, "frontend.emitWorkloadModule", Id);
        Kernel = emitWorkloadModule(W, *M, P, C.Preset.UseCUDA);
      }
      if (!Kernel) {
        R.fail("workload has no kernel for this preset");
        R.WallMs = msSince(Start);
        return R;
      }
      std::string KernelName = Kernel->getName();
      if (Traced) {
        Scope S(T, "ir.countInstructions", Id);
        R.count("ir.insts_emitted", countInstructions(*M));
      }
      CompileResult CR = compile(T, *M, P, Id, R);
      Kernel = M->getFunction(KernelName);
      if (!Kernel)
        R.fail("kernel lost during optimization");
      if (Traced) {
        Scope S(T, "ir.countInstructions", Id);
        R.count("ir.insts_compiled", countInstructions(*M));
      }
      if (R.Ok) {
        std::unique_ptr<GPUDevice> Dev;
        {
          Scope S(T, "gpusim.GPUDevice", Id);
          Dev = std::make_unique<GPUDevice>(P.Arch.Machine);
        }
        std::vector<uint64_t> Args;
        {
          Scope S(T, "workloads.setupInputs", Id);
          Args = W.setupInputs(*Dev);
        }
        LaunchConfig LC;
        LC.GridDim = W.getGridDim();
        LC.BlockDim = W.getBlockDim();
        LC.Flavor = P.Flavor;
        // Mapped buffers as launchAndCheckWorkload models them: each
        // pointer argument naming a device allocation moves its bytes per
        // the parameter's effective map kind.
        const KernelEnvironment &Env = Kernel->getKernelEnvironment();
        for (unsigned A = 0; A != Kernel->arg_size() && A < Args.size(); ++A) {
          if (!Kernel->getArg(A)->getType()->isPointerTy())
            continue;
          if (uint64_t Bytes = Dev->allocationBytes(Args[A]))
            LC.Mappings.push_back({Kernel->getArg(A)->getName(),
                                   kernelParamMapping(Env, A).effective(),
                                   Bytes});
        }
        NativeRuntimeBinding RTL;
        {
          Scope S(T, "rtl.makeOpenMPRuntimeBinding", Id);
          RTL = makeOpenMPRuntimeBinding(P.Flavor, Dev->getMachine());
        }
        KernelStats KS;
        int64_t LaunchStart = nowNs();
        {
          Scope S(T, "gpusim.launchKernel", Id);
          KS = Dev->launchKernel(*M, Kernel, LC, Args, RTL);
        }
        R.LaunchMs = msSince(LaunchStart);
        if (!KS.ok()) {
          R.fail("trap: " + KS.Trap);
        } else {
          Scope S(T, "workloads.checkOutputs", Id);
          if (!W.checkOutputs(*Dev))
            R.fail("wrong output");
        }
        R.count("gpusim.total_cycles", KS.totalCycles());
        R.count("gpusim.cycles", KS.Cycles);
        R.count("gpusim.transfer_cycles", KS.TransferCycles);
        R.count("gpusim.heap_fallback_bytes", KS.HeapFallbackBytes);
        R.count("gpusim.dyn_insts", KS.DynamicInstructions);
        R.count("gpusim.barriers", KS.Barriers);
        R.count("gpusim.runtime_calls", KS.RuntimeCalls);
        R.count("gpusim.indirect_calls", KS.IndirectCalls);
        Scope S(T, "gpusim.~GPUDevice", Id);
        Dev.reset();
      }
      Scope S(T, "ir.~Module", Id);
      M.reset();
      Ctx.reset();
    }
    R.WallMs = msSince(Start);
    return R;
  }
};

//===----------------------------------------------------------------------===//
// fuzz-oracle: sampled recipes x the fuzz presets, the oracle's own steps
//===----------------------------------------------------------------------===//

class FuzzOracle : public Bench {
  std::vector<KernelRecipe> Recipes;
  std::vector<PipelineOptions> Presets;
  std::vector<PipelineOptions> Pipelines; ///< effectiveFuzzPipeline(Preset)

public:
  std::string setup(uint64_t Seed) override {
    Recipes.clear();
    for (uint64_t I = 0; I != FuzzRecipes; ++I)
      Recipes.push_back(KernelRecipe::sample(Seed + I));
    Presets = defaultFuzzPresets();
    Pipelines.clear();
    for (const PipelineOptions &P : Presets)
      Pipelines.push_back(effectiveFuzzPipeline(P, FuzzOracleOptions()));
    Tracer Off;
    CaseRecord R = runCase(0, -1, Off, false);
    if (!R.Ok)
      return "warm-up case " + R.Key + " failed: " + R.Reason;
    return "";
  }

  size_t numCases() const override { return Recipes.size() * Presets.size(); }

  CaseRecord runCase(size_t I, int32_t Id, Tracer &T, bool Traced) override {
    const KernelRecipe &Recipe = Recipes[I / Presets.size()];
    const PipelineOptions &Preset = Presets[I % Presets.size()];
    CaseRecord R;
    R.Key = "recipe-" + std::to_string(Recipe.Seed) + "/" + Preset.Name;
    R.Traced = Traced;
    int64_t Start = nowNs();
    {
      Scope CaseSpan(T, "bench.case", Id);
      std::unique_ptr<IRContext> Ctx;
      std::unique_ptr<Module> M;
      {
        Scope S(T, "ir.Module", Id);
        Ctx = std::make_unique<IRContext>();
        M = std::make_unique<Module>(*Ctx, "fuzz");
      }
      std::string KernelName;
      {
        Scope S(T, "frontend.emitFuzzKernel", Id);
        KernelName = emitFuzzKernel(*M, Recipe, Preset);
      }
      if (Traced) {
        Scope S(T, "ir.countInstructions", Id);
        R.count("ir.insts_emitted", countInstructions(*M));
      }
      CompileResult CR =
          compile(T, *M, Pipelines[I % Presets.size()], Id, R);
      if (Traced) {
        Scope S(T, "ir.countInstructions", Id);
        R.count("ir.insts_compiled", countInstructions(*M));
      }
      FuzzPresetOutcome Out;
      {
        Scope S(T, "fuzz.judgeCompiledPreset", Id);
        Out = judgeCompiledPreset(Recipe, Preset, *M, KernelName, CR);
      }
      R.count("fuzz.verdict_ok", Out.OK);
      if (!Out.OK)
        R.fail("verdict: " + Out.Reason);
      Scope S(T, "ir.~Module", Id);
      M.reset();
      Ctx.reset();
    }
    R.WallMs = msSince(Start);
    return R;
  }
};

//===----------------------------------------------------------------------===//
// cg-multidevice: partitioned CG on four v100s, checked against one device
//===----------------------------------------------------------------------===//

class CGMultiDevice : public Bench {
  CGOptions Opts;
  uint64_t RefHash = 0;

public:
  std::string setup(uint64_t Seed) override {
    Expected<CGOptions> Shape = cgMatrixShape("transfer");
    if (!Shape)
      return Shape.message();
    Opts = *Shape;
    Opts.Pipeline = makeDevPipeline();
    // The compile runs inside runCG, so the pipeline's own pass timer is
    // the only compile clock visible from outside.
    Opts.Pipeline.Instrument.TimePasses = true;
    Opts.Seed = Seed;
    CGOptions One = Opts;
    One.Group = homogeneousGroupSpec(Opts.Pipeline.Arch, 1);
    Opts.Group = homogeneousGroupSpec(Opts.Pipeline.Arch, 4);
    CGResult Ref = runCG(One);
    if (!Ref.Trap.empty())
      return "1-device reference solve failed: " + Ref.Trap;
    RefHash = Ref.resultHash();
    Tracer Off;
    CaseRecord R = runCase(0, -1, Off, false);
    if (!R.Ok)
      return "warm-up solve failed: " + R.Reason;
    return "";
  }

  size_t numCases() const override { return 1; }

  CaseRecord runCase(size_t, int32_t Id, Tracer &T, bool Traced) override {
    CaseRecord R;
    R.Key = "cg-transfer/v100x4/seed-" + std::to_string(Opts.Seed);
    R.Traced = Traced;
    int64_t Start = nowNs();
    {
      Scope CaseSpan(T, "bench.case", Id);
      CGResult Res;
      int32_t Span;
      {
        Scope S(T, "workloads.runCG", Id);
        Span = S.index();
        Res = runCG(Opts);
      }
      // A homogeneous group compiles one module.
      if (Res.Compiles.size() == 1) {
        const CompileResult &CR = Res.Compiles.front().Compile;
        R.CompileMs = CR.TotalPassMillis;
        countOptStats(R, CR.Stats);
        R.count("driver.pass_execs", CR.Passes.size());
        if (Span >= 0)
          addPassSpans(T, CR.Passes, Span, Id);
      } else {
        R.fail("expected one compile, got " +
               std::to_string(Res.Compiles.size()));
      }
      if (!Res.Trap.empty())
        R.fail("trap: " + Res.Trap);
      else if (Res.resultHash() != RefHash)
        R.fail("result differs from the 1-device reference");
      const DeviceGroupStats &St = Res.Stats;
      uint64_t Launches = 0;
      for (const DeviceGroupStats::PerDevice &D : St.Devices)
        Launches += D.Launches;
      R.Iterations = Res.Iterations;
      R.count("gpusim.makespan_cycles", St.MakespanCycles);
      R.count("gpusim.launches", Launches);
      R.count("gpusim.sync_points", St.SyncPoints);
      R.count("gpusim.host_link_bytes", St.HostLinkBytes);
      R.countReal("gpusim.comm_fraction", St.communicationFraction());
      R.count("workloads.cg_iterations", Res.Iterations);
      R.count("workloads.result_hash", Res.resultHash());
    }
    R.WallMs = msSince(Start);
    return R;
  }
};

//===----------------------------------------------------------------------===//
// Record output
//===----------------------------------------------------------------------===//

std::string quoted(const std::string &S) {
  std::string Out;
  raw_string_ostream OS(Out);
  json::writeEscaped(OS, S);
  return Out;
}

bool writeRecord(const std::string &Path, const std::string &Workload,
                 uint64_t Seed, bool Trace, const std::vector<double> &Setup,
                 const std::vector<std::pair<bool, double>> &Passes,
                 const std::vector<CaseRecord> &Cases) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F)
    return false;
  // VmHWM is the peak RSS of this process image; getrusage's ru_maxrss
  // would also count the parent's peak from before exec.
  long PeakKB = 0;
  if (std::FILE *S = std::fopen("/proc/self/status", "r")) {
    char Line[256];
    while (std::fgets(Line, sizeof(Line), S))
      if (std::sscanf(Line, "VmHWM: %ld kB", &PeakKB) == 1)
        break;
    std::fclose(S);
  }
  std::fprintf(F,
               "{\"workload\": %s, \"seed\": %" PRIu64
               ", \"trace\": %s, \"peak_rss_kb\": %ld,\n\"setup_s\": [",
               quoted(Workload).c_str(), Seed, Trace ? "true" : "false",
               PeakKB);
  for (size_t I = 0; I != Setup.size(); ++I)
    std::fprintf(F, "%s%.9f", I ? ", " : "", Setup[I]);
  std::fprintf(F, "],\n\"passes\": [");
  for (size_t I = 0; I != Passes.size(); ++I)
    std::fprintf(F, "%s{\"traced\": %s, \"wall_s\": %.9f}", I ? ", " : "",
                 Passes[I].first ? "true" : "false", Passes[I].second);
  std::fprintf(F, "],\n\"cases\": [\n");
  for (size_t I = 0; I != Cases.size(); ++I) {
    const CaseRecord &C = Cases[I];
    std::fprintf(F,
                 "%s{\"key\": %s, \"pass\": %u, \"traced\": %s, "
                 "\"wall_ms\": %.6f, \"compile_ms\": %.6f, \"launch_ms\": "
                 "%.6f, \"iterations\": %" PRIu64 ", \"ok\": %s, "
                 "\"reason\": %s, \"counters\": {",
                 I ? ",\n" : "", quoted(C.Key).c_str(), C.Pass,
                 C.Traced ? "true" : "false", C.WallMs, C.CompileMs,
                 C.LaunchMs, C.Iterations, C.Ok ? "true" : "false",
                 quoted(C.Reason).c_str());
    for (size_t J = 0; J != C.Counters.size(); ++J)
      std::fprintf(F, "%s%s: %s", J ? ", " : "",
                   quoted(C.Counters[J].first).c_str(),
                   C.Counters[J].second.c_str());
    std::fprintf(F, "}}");
  }
  std::fprintf(F, "\n]}\n");
  return std::fclose(F) == 0;
}

int usage(const char *Msg) {
  std::fprintf(stderr,
               "perfbench_harness: %s\nusage: perfbench_harness --workload "
               "proxy-ladder|fuzz-oracle|cg-multidevice --seed N --seconds S "
               "--trace 0|1 --out FILE [--trace-out FILE]\n",
               Msg);
  return 2;
}

} // namespace

int main(int argc, char **argv) {
  std::string Workload, Out, TraceOut;
  uint64_t Seed = 0;
  double Seconds = 0.0;
  bool Trace = false;
  for (int I = 1; I < argc; ++I) {
    std::string Flag = argv[I];
    if (I + 1 >= argc)
      return usage(("missing value for " + Flag).c_str());
    const char *V = argv[++I];
    char *End = nullptr;
    if (Flag == "--workload")
      Workload = V;
    else if (Flag == "--seed")
      Seed = std::strtoull(V, &End, 10);
    else if (Flag == "--seconds")
      Seconds = std::strtod(V, &End);
    else if (Flag == "--trace")
      Trace = std::strcmp(V, "1") == 0;
    else if (Flag == "--out")
      Out = V;
    else if (Flag == "--trace-out")
      TraceOut = V;
    else
      return usage(("unknown flag " + Flag).c_str());
    if (End && *End)
      return usage(("bad number for " + Flag).c_str());
  }
  if (Out.empty() || !(Seconds > 0.0) || (Trace && TraceOut.empty()))
    return usage("--out, a positive --seconds and, with --trace 1, "
                 "--trace-out are required");

  std::unique_ptr<Bench> B;
  if (Workload == "proxy-ladder")
    B = std::make_unique<ProxyLadder>();
  else if (Workload == "fuzz-oracle")
    B = std::make_unique<FuzzOracle>();
  else if (Workload == "cg-multidevice")
    B = std::make_unique<CGMultiDevice>();
  else
    return usage(("unknown workload '" + Workload + "'").c_str());

  std::vector<double> Setup;
  for (unsigned Rep = 0; Rep != SetupReps; ++Rep) {
    int64_t Start = nowNs();
    std::string Err = B->setup(Seed);
    if (!Err.empty()) {
      std::fprintf(stderr, "perfbench_harness: set-up: %s\n", Err.c_str());
      return 1;
    }
    Setup.push_back(msSince(Start) / 1e3);
  }

  // Whole passes until the time is up; a traced run alternates traced and
  // untraced passes and holds at least one of each.
  Tracer T;
  std::vector<std::pair<bool, double>> Passes;
  std::vector<CaseRecord> Cases;
  int32_t NextId = 0;
  int64_t Start = nowNs();
  for (unsigned P = 0;; ++P) {
    bool Traced = Trace && P % 2 == 0;
    T.setEnabled(Traced);
    int64_t PassStart = nowNs();
    for (size_t I = 0; I != B->numCases(); ++I) {
      Cases.push_back(B->runCase(I, NextId++, T, Traced));
      Cases.back().Pass = P;
    }
    T.setEnabled(false);
    Passes.push_back({Traced, msSince(PassStart) / 1e3});
    if (msSince(Start) / 1e3 >= Seconds && (!Trace || P >= 1))
      break;
  }

  if (Trace && !T.writeChromeTrace(TraceOut)) {
    std::fprintf(stderr, "perfbench_harness: cannot write %s\n",
                 TraceOut.c_str());
    return 1;
  }
  if (!writeRecord(Out, Workload, Seed, Trace, Setup, Passes, Cases)) {
    std::fprintf(stderr, "perfbench_harness: cannot write %s\n", Out.c_str());
    return 1;
  }
  return 0;
}
