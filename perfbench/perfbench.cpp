//===- perfbench/perfbench.cpp - End-to-end and per-layer benchmark -------===//
//
// Part of the squash project: a reproduction of "Profile-Guided Code
// Compression" (Debray & Evans, PLDI 2002).
//
//===----------------------------------------------------------------------===//
//
// Runs one benchmark workload (paper or thrash; README.md says why each
// exists and how it is configured) for a wall-clock budget and prints
// one JSON result object as the last line of standard output:
//
//   squash_perfbench --workload paper --seed 7 --seconds 50 --trace 0
//                    [--spans FILE] [--digest FILE]
//
// The work is organised in rounds. A round compiles the 11 programs once
// (compact -> layout -> profile -> squash, or ResquashController::create
// on paper), runs each squashed image once on its timing input, then
// serves every (program, input) pair once from three client threads.
// Every layer is timed from outside, around its public entry point;
// nothing inside the library is instrumented.
//
// --trace 0 reports the end-to-end metrics from untraced rounds. --trace 1
// alternates untraced and traced rounds in pairs, reports the per-layer
// metrics from the traced rounds, the traced/untraced overhead from the
// pairs, and the share of each traced pass no span accounts for. Spans stay
// in memory and go to --spans when the run ends.
//
// Every run is checked: exit code and output bytes against a reference run
// of the unsquashed image made in setup, simulated counts and ratios
// across rounds (and, through --digest, across the processes that run the
// same sources), and the traced pipeline's image bytes against
// squashProgram's.
//
//===----------------------------------------------------------------------===//

#include "compact/Compact.h"
#include "link/Layout.h"
#include "sim/Machine.h"
#include "squash/Adaptive.h"
#include "squash/Pipeline.h"
#include "support/Checksum.h"
#include "support/Random.h"
#include "workloads/Workloads.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

using namespace squash;
using namespace vea;

namespace {

int64_t nowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

//===-- Statistics ------------------------------------------------------===//

/// Quantile \p Q of sorted \p S by linear interpolation between ranks.
double quantileSorted(const std::vector<double> &S, double Q) {
  if (S.empty())
    return 0.0;
  const double Pos = Q * static_cast<double>(S.size() - 1);
  const size_t Lo = static_cast<size_t>(Pos);
  const size_t Hi = std::min(Lo + 1, S.size() - 1);
  return S[Lo] + (S[Hi] - S[Lo]) * (Pos - static_cast<double>(Lo));
}

struct Summary {
  double Median = 0.0, Q1 = 0.0, Q3 = 0.0;
  size_t N = 0;
};

Summary summarize(std::vector<double> V) {
  std::sort(V.begin(), V.end());
  Summary S;
  S.N = V.size();
  S.Median = quantileSorted(V, 0.5);
  S.Q1 = quantileSorted(V, 0.25);
  S.Q3 = quantileSorted(V, 0.75);
  return S;
}

double median(std::vector<double> V) { return summarize(std::move(V)).Median; }

/// Geometric mean of the positive entries (0 marks a failed program).
double geomean(const std::vector<double> &V) {
  double LogSum = 0.0;
  size_t N = 0;
  for (double X : V)
    if (X > 0.0) {
      LogSum += std::log(X);
      ++N;
    }
  return N ? std::exp(LogSum / static_cast<double>(N)) : 0.0;
}

uint64_t fnv(uint64_t H, uint64_t V) {
  for (int I = 0; I != 8; ++I) {
    H ^= (V >> (8 * I)) & 0xFF;
    H *= 0x100000001B3ull;
  }
  return H;
}

//===-- Spans -----------------------------------------------------------===//

/// The standard pipeline's passes, in order. They are listed here rather
/// than taken from standardPassNames() so the reported metrics stay fixed
/// when the pipeline changes: a pass missing from this list is timed as
/// squash.pass.other, and a listed pass the pipeline dropped reports 0.
const char *const PassNames[] = {"cold-code",
                                 "unswitch",
                                 "filter-setjmp-indirect",
                                 "filter-computed-jump",
                                 "regions",
                                 "buffer-safe",
                                 "codec-select",
                                 "layout",
                                 "rewrite"};
constexpr uint32_t NumPasses = std::size(PassNames);

/// Span names: the layer boundaries, then one per pass in PassNames.
enum SpanName : uint32_t {
  SpCompilePass,
  SpRunPass,
  SpWindow,
  SpCompact,
  SpLayout,
  SpProfile,
  SpOtherPass,
  SpCreate,
  SpAttach,
  SpRun,
  SpTrap,
  SpServe,
  SpDecodeHuffman,
  SpDecodePattern,
  SpFirstPass,
  NumSpanNames = SpFirstPass + NumPasses,
};

const std::vector<std::string> SpanNames = [] {
  std::vector<std::string> N = {"compile_pass",
                                "run_pass",
                                "serve_window",
                                "compact",
                                "link.layout",
                                "sim.profile",
                                "squash.pass.other",
                                "squash.adaptive.create",
                                "squash.runtime.attach",
                                "sim.run",
                                "squash.runtime.trap",
                                "squash.adaptive.serve",
                                "huff.decode.huffman",
                                "huff.decode.pattern"};
  for (const char *P : PassNames)
    N.push_back(std::string("squash.pass.") + P);
  return N;
}();

/// One call into a layer: which, when, and the span that made it.
struct Span {
  uint32_t Name = 0;
  int32_t Parent = -1;
  int64_t Start = 0, End = 0;
};

/// In-memory span recorder owned by one thread. Spans nest: a new span's
/// parent is the innermost open one.
class Tracer {
public:
  int32_t begin(uint32_t Name) {
    const int32_t Id = static_cast<int32_t>(Spans.size());
    Spans.push_back({Name, Open.empty() ? -1 : Open.back(), nowNs(), 0});
    Open.push_back(Id);
    return Id;
  }
  void end(int32_t Id) {
    const int64_t T = nowNs();
    // Closes anything a failed call left open inside this span too.
    while (!Open.empty()) {
      const int32_t Top = Open.back();
      Open.pop_back();
      Spans[Top].End = T;
      if (Top == Id)
        break;
    }
  }
  const std::vector<Span> &spans() const { return Spans; }

private:
  std::vector<Span> Spans;
  std::vector<int32_t> Open;
};

/// Scoped span; a null tracer makes it a no-op (untraced rounds).
class Scope {
public:
  Scope(Tracer *T, uint32_t Name) : T(T), Id(T ? T->begin(Name) : -1) {}
  ~Scope() {
    if (T)
      T->end(Id);
  }
  Scope(const Scope &) = delete;
  Scope &operator=(const Scope &) = delete;

private:
  Tracer *T;
  int32_t Id;
};

/// Total span time (ns) per span name.
std::vector<double> spanTotals(const Tracer &T) {
  std::vector<double> Ns(NumSpanNames);
  for (const Span &S : T.spans())
    Ns[S.Name] += static_cast<double>(S.End - S.Start);
  return Ns;
}

/// Delegates every trap to the runtime, timing each one as a span. Re-
/// registered over the runtime's trap range after attach, so trap spans are
/// children of the sim.run span that hit them.
class TimedTrapHandler : public TrapHandler {
public:
  TimedTrapHandler(RuntimeSystem &RT, Tracer &T) : RT(RT), T(T) {}
  bool handleTrap(Machine &M, uint32_t PC) override {
    Scope S(&T, SpTrap);
    return RT.handleTrap(M, PC);
  }

private:
  RuntimeSystem &RT;
  Tracer &T;
};

//===-- Workloads -------------------------------------------------------===//

/// The suite's input scale. 1.0 is the size the paper figures use; half of
/// it keeps a round short enough for several repetitions in one run.
constexpr double SuiteScale = 0.5;
/// Setups per run; setup_s is their median.
constexpr unsigned SetupReps = 3;
/// Closed-loop client threads in each round's serve window.
constexpr unsigned Clients = 3;
/// Untraced runs serve until at least this many requests lie beyond p90.
constexpr size_t MinTailSamples = 10;

/// Samples above the 90th percentile of \p N.
size_t beyondP90(size_t N) {
  return N - static_cast<size_t>(std::ceil(0.9 * static_cast<double>(N)));
}

struct Spec {
  std::string Name;
  Options Opts;
  /// Programs compile into ResquashControllers and are served through them.
  bool Adaptive = false;
  AdaptiveConfig Adapt;
};

bool makeSpec(const std::string &Name, Spec &S) {
  S.Name = Name;
  if (Name == "paper") {
    // The paper's configuration: Huffman, one buffer slot, program-order
    // layout, flat fetch. 1e-3 is bench::ThetaLow, this repository's
    // analog of the paper's θ = 0.00001. Each program is served through a
    // ResquashController that re-squashes on any drift, as in
    // stat_online_resquash; serial encode keeps each background re-squash
    // to one thread beside the client threads.
    S.Opts.Theta = 1e-3;
    S.Opts.SquashThreads = 1;
    S.Adaptive = true;
    S.Adapt.DriftThreshold = 0.0;
  } else if (Name == "thrash") {
    // Everything cold is compressed and fetched through stat_layout's
    // 1 KiB I-cache, so traps, fills, decode and codec-select do real work.
    // Plain pipeline and runtime, so every pass, attach and trap is timed.
    S.Opts.Theta = 1.0;
    S.Opts.Codec = "auto";
    S.Opts.ProfileLayout = true;
    S.Opts.Icache.Enabled = true;
    S.Opts.Icache.LineBytes = 32;
    S.Opts.Icache.Sets = 16;
    S.Opts.Icache.Ways = 2;
  } else {
    return false;
  }
  return true;
}

enum InputKind { Timing = 0, Profiling = 1 };

/// What the unsquashed baseline image does on one input: the oracle every
/// squashed run is checked against, and the Fig. 7 cycle base.
struct Reference {
  uint32_t ExitCode = 0;
  std::vector<uint8_t> Output;
  uint64_t Cycles = 0;
};

/// One of the suite's programs with its inputs and references.
struct Subject {
  std::string Name;
  Program Source; ///< As built, before compaction.
  std::vector<uint8_t> Input[2];
  Reference Ref[2];
  Image Baseline; ///< Compacted, unsquashed.
};

/// Builds the programs, compacts and lays each out, and runs the baseline
/// image on both inputs under the workload's fetch model. Returns an empty
/// string or the first error.
std::string setupSuite(const Spec &Sp, std::vector<Subject> &Out) {
  Out.clear();
  for (workloads::Workload &W : workloads::buildAllWorkloads(SuiteScale)) {
    Subject S;
    S.Name = W.Name;
    S.Source = W.Prog;
    S.Input[Timing] = std::move(W.TimingInput);
    S.Input[Profiling] = std::move(W.ProfilingInput);
    Expected<CompactStats> C = compactProgram(W.Prog);
    if (!C)
      return S.Name + ": compact: " + C.status().toString();
    Expected<Image> Img = layoutProgramOrError(W.Prog);
    if (!Img)
      return S.Name + ": layout: " + Img.status().toString();
    S.Baseline = std::move(Img.get());
    for (int In : {Timing, Profiling}) {
      Machine::Config MC;
      MC.Icache = Sp.Opts.Icache;
      Machine M(S.Baseline, MC);
      M.setInput(S.Input[In]);
      RunResult R = M.run();
      if (R.Status != RunStatus::Halted)
        return S.Name + ": baseline run did not halt: " + R.FaultMessage;
      S.Ref[In] = {R.ExitCode, M.output(), R.Cycles};
    }
    Out.push_back(std::move(S));
  }
  return {};
}

//===-- Rounds ----------------------------------------------------------===//

/// Simulated counts of one round; they must repeat exactly.
struct Counts {
  uint64_t Instructions = 0, Cycles = 0, IcacheMisses = 0, Regions = 0,
           Fills = 0, Hits = 0, Decoded = 0;
};

/// Everything one round measured.
struct Round {
  bool Traced = false;
  double CompileSeconds = 0.0, RunSeconds = 0.0;
  /// The serve window's request latencies (ms) and their throughput in
  /// requests per second.
  std::vector<double> RequestMs;
  double Throughput = 0.0;
  /// Per subject (index order): compile and run pass time, seconds.
  std::vector<double> CompileBy, RunBy;
  /// Per subject (index order, 0 when it failed): footprint over original
  /// code bytes, and simulated cycles over the baseline's.
  std::vector<double> CodeRatio, CycleRatio;
  Counts C;
  uint64_t Digest = 0xCBF29CE484222325ull;
  std::vector<std::vector<uint8_t>> Images; ///< Per subject (index order).
  /// Traced rounds only: spans of the compile and run passes, and of each
  /// client's requests.
  Tracer Main;
  std::vector<Tracer> ClientSpans;
  uint64_t ProfiledInstructions = 0;
  uint64_t DecodedByCodec[NumCodecKinds] = {};
  AdaptiveStats Adaptive;          ///< Summed over the round's controllers.
  std::vector<double> ResquashMs;  ///< Last re-squash of each controller.

  void reset(size_t Programs) {
    CompileBy.assign(Programs, 0.0);
    RunBy.assign(Programs, 0.0);
    CodeRatio.assign(Programs, 0.0);
    CycleRatio.assign(Programs, 0.0);
    Images.assign(Programs, {});
  }
};

/// Operation tally shared by every round (atomic: the serve window's clients
/// add to it concurrently).
struct Tally {
  std::atomic<uint64_t> Attempted{0}, Failed{0};
  std::mutex Mu;
  std::vector<std::string> Errors; ///< First few, for the report.
  void fail(const std::string &What) {
    ++Failed;
    std::lock_guard<std::mutex> L(Mu);
    if (Errors.size() < 8)
      Errors.push_back(What);
  }
};

/// Checks one squashed run against its reference; true when it matches.
bool matches(const RunResult &R, const std::vector<uint8_t> &Output,
             const Reference &Ref) {
  return R.Status == RunStatus::Halted && R.ExitCode == Ref.ExitCode &&
         Output == Ref.Output;
}

/// compact -> layout -> profile of one subject, each under its own span.
/// The layout must reproduce setup's baseline byte for byte.
std::string compileFront(const Subject &S, Tracer *T, Program &Prog,
                         Profile &Prof, uint64_t &Profiled) {
  Prog = S.Source;
  {
    Scope Sc(T, SpCompact);
    Expected<CompactStats> C = compactProgram(Prog);
    if (!C)
      return "compact: " + C.status().toString();
  }
  Expected<Image> Img = [&] {
    Scope Sc(T, SpLayout);
    return layoutProgramOrError(Prog);
  }();
  if (!Img)
    return "layout: " + Img.status().toString();
  if (Img->Bytes != S.Baseline.Bytes)
    return "layout: image differs from the setup baseline";
  Expected<Profile> P = [&] {
    Scope Sc(T, SpProfile);
    return profileImage(*Img, S.Input[Profiling]);
  }();
  if (!P)
    return "profile: " + P.status().toString();
  Prof = std::move(P.get());
  Profiled += Prof.TotalInstructions;
  return {};
}

/// squashProgram's work through a PassManager whose hooks open and close
/// one span per pass.
Expected<SquashResult> squashTraced(Program Prog, const Profile &Prof,
                                    const Options &Opts, Tracer &T) {
  if (std::string Err = Prog.verify(); !Err.empty())
    return Status::error(StatusCode::MalformedProgram,
                         "squash: input does not verify: " + Err);
  SquashResult R;
  PipelineContext Ctx(Prog, Prof, Opts, R);
  PassManager PM;
  buildStandardPipeline(PM);
  std::vector<int32_t> Open;
  PM.setPreHook([&](const Pass &P, PipelineContext &) {
    uint32_t Name = SpOtherPass;
    for (uint32_t I = 0; I != NumPasses; ++I)
      if (std::strcmp(P.name(), PassNames[I]) == 0)
        Name = SpFirstPass + I;
    Open.push_back(T.begin(Name));
    return Status::success();
  });
  PM.setPostHook([&](const Pass &, PipelineContext &) {
    T.end(Open.back());
    Open.pop_back();
    return Status::success();
  });
  Status St = PM.run(Ctx);
  if (!Open.empty())
    T.end(Open.front()); // A failing pass skips its post-hook.
  if (!St.ok())
    return St;
  return R;
}

/// compact -> layout -> profile -> squash of one program: squashProgram
/// into \p SR, or ResquashController::create into \p Ctl on paper. Leaves
/// both empty when a step fails.
void compileOne(const Spec &Sp, const Subject &S, Tracer *T, Round &Rd,
                Tally &Tl, std::unique_ptr<SquashResult> &SR,
                std::unique_ptr<ResquashController> &Ctl) {
  ++Tl.Attempted;
  Program Prog;
  Profile Prof;
  if (std::string Err = compileFront(S, T, Prog, Prof, Rd.ProfiledInstructions);
      !Err.empty()) {
    Tl.fail(S.Name + ": " + Err);
    return;
  }
  if (Sp.Adaptive) {
    Expected<std::unique_ptr<ResquashController>> C = [&] {
      Scope Sc(T, SpCreate);
      return ResquashController::create(std::move(Prog), std::move(Prof),
                                        Sp.Opts, Sp.Adapt);
    }();
    if (!C)
      Tl.fail(S.Name + ": create: " + C.status().toString());
    else
      Ctl = std::move(C.get());
    return;
  }
  Expected<SquashResult> R =
      T ? squashTraced(std::move(Prog), Prof, Sp.Opts, *T)
        : squashProgram(std::move(Prog), Prof, Sp.Opts);
  if (!R)
    Tl.fail(S.Name + ": squash: " + R.status().toString());
  else
    SR = std::make_unique<SquashResult>(std::move(R.get()));
}

uint64_t subjectDigest(const std::vector<uint8_t> &Img, uint64_t Footprint,
                       const RunResult &R, const RuntimeSystem::Stats &RS) {
  uint64_t H = 0xCBF29CE484222325ull;
  for (uint64_t V :
       {static_cast<uint64_t>(crc32(Img.data(), Img.size())),
        static_cast<uint64_t>(Img.size()), Footprint, R.Instructions,
        R.Cycles, R.IcacheMisses, RS.Decompressions, RS.BufferedHits,
        RS.DecodedInstructions})
    H = fnv(H, V);
  return H;
}

void addCounts(Counts &C, const RunResult &R, const RuntimeSystem::Stats &RS,
               size_t Regions) {
  C.Instructions += R.Instructions;
  C.Cycles += R.Cycles;
  C.IcacheMisses += R.IcacheMisses;
  C.Regions += Regions;
  C.Fills += RS.Decompressions;
  C.Hits += RS.BufferedHits;
  C.Decoded += RS.DecodedInstructions;
}

/// Decodes every Huffman and pattern region of \p SP once through
/// makeRegionCursor, one span per region, counting decoded instructions per
/// codec. No benchmark configuration selects the other codecs.
void decodeRegions(const SquashedProgram &SP, Round &Rd, Tally &Tl,
                   const std::string &Name) {
  const RuntimeLayout &L = SP.Layout;
  if (SP.Regions.empty())
    return;
  if (L.BlobBase < SP.Img.Base ||
      static_cast<uint64_t>(L.BlobBase) + L.BlobBytes > SP.Img.limit()) {
    Tl.fail(Name + ": blob outside the image");
    return;
  }
  const uint8_t *Blob = SP.Img.Bytes.data() + (L.BlobBase - SP.Img.Base);
  MInst I;
  for (size_t R = 0; R != SP.Regions.size(); ++R) {
    const CodecKind K = SP.regionCodec(R);
    if (K != CodecKind::Huffman && K != CodecKind::Pattern)
      continue;
    uint64_t N = 0;
    {
      Scope Sc(&Rd.Main, K == CodecKind::Huffman ? SpDecodeHuffman
                                                  : SpDecodePattern);
      std::unique_ptr<RegionCursor> Cur =
          SP.makeRegionCursor(R, Blob, L.BlobBytes);
      while (Cur->next(I))
        ++N;
      if (!Cur->ok()) {
        Tl.fail(Name + ": region " + std::to_string(R) + " does not decode");
        continue;
      }
    }
    Rd.DecodedByCodec[static_cast<size_t>(K)] += N;
  }
}

/// Attaches the runtime to a fresh machine and runs \p SP on \p Input, as
/// runSquashed does, with spans around attach and run and, when traced, a
/// TimedTrapHandler over the runtime's trap range.
SquashedRun runImage(const SquashedProgram &SP,
                     const std::vector<uint8_t> &Input, Tracer *T) {
  SquashedRun Out;
  Machine::Config MC;
  MC.Icache = SP.Opts.Icache;
  Machine M(SP.Img, MC);
  RuntimeSystem RT(SP);
  Status St = [&] {
    Scope Sc(T, SpAttach);
    return RT.attach(M);
  }();
  if (!St.ok()) {
    Out.Run.FaultMessage = "attach: " + St.toString();
    return Out;
  }
  std::optional<TimedTrapHandler> Timed;
  if (T) {
    Timed.emplace(RT, *T);
    M.registerTrapRange(SP.Layout.DecompBase, SP.Layout.DecompEnd, &*Timed);
  }
  M.setInput(Input);
  {
    Scope Sc(T, SpRun);
    Out.Run = M.run();
  }
  Out.Runtime = RT.stats();
  Out.Output = M.output();
  return Out;
}

/// One round: compile every program, run each image once on its timing
/// input, then serve every (program, input) pair in the serve window. On
/// paper the programs compile into ResquashControllers and every run is a
/// serve(); the run pass is each controller's first request, so it meets
/// version 0 and its counts repeat exactly.
void runRound(const Spec &Sp, const std::vector<Subject> &Suite,
              const std::vector<size_t> &Order, uint64_t Seed,
              unsigned RoundNo, Round &Rd, Tally &Tl) {
  const bool Adapt = Sp.Adaptive;
  Tracer *T = Rd.Traced ? &Rd.Main : nullptr;
  Rd.reset(Suite.size());
  std::vector<std::unique_ptr<SquashResult>> Squashed(Suite.size());
  std::vector<std::unique_ptr<ResquashController>> Ctl(Suite.size());
  auto ImageOf = [&](size_t Idx) -> const SquashedProgram * {
    if (Adapt)
      return Ctl[Idx] ? &Ctl[Idx]->versionResult(0).SP : nullptr;
    return Squashed[Idx] ? &Squashed[Idx]->SP : nullptr;
  };
  auto Serve = [&](size_t Idx, int In, Tracer *By) {
    if (!Adapt)
      return runImage(*ImageOf(Idx), Suite[Idx].Input[In], By);
    Scope Sc(By, SpServe);
    return Ctl[Idx]->serve(Suite[Idx].Input[In]);
  };

  int64_t T0 = nowNs();
  {
    Scope PassSpan(T, SpCompilePass);
    for (size_t Idx : Order) {
      const int64_t C0 = nowNs();
      compileOne(Sp, Suite[Idx], T, Rd, Tl, Squashed[Idx], Ctl[Idx]);
      Rd.CompileBy[Idx] = static_cast<double>(nowNs() - C0) * 1e-9;
    }
  }
  int64_t T1 = nowNs();
  Rd.CompileSeconds = static_cast<double>(T1 - T0) * 1e-9;

  std::vector<uint64_t> Digests(Suite.size());
  {
    Scope PassSpan(T, SpRunPass);
    for (size_t Idx : Order) {
      const SquashedProgram *SP = ImageOf(Idx);
      if (!SP)
        continue;
      const Subject &S = Suite[Idx];
      ++Tl.Attempted;
      const int64_t R0 = nowNs();
      SquashedRun Run = Serve(Idx, Timing, T);
      Rd.RunBy[Idx] = static_cast<double>(nowNs() - R0) * 1e-9;
      if (!matches(Run.Run, Run.Output, S.Ref[Timing])) {
        Tl.fail(S.Name + ": run differs from the reference: " +
                Run.Run.FaultMessage);
        continue;
      }
      const FootprintBreakdown &F = SP->Footprint;
      Rd.CodeRatio[Idx] =
          static_cast<double>(F.totalCodeBytes()) / F.OriginalCodeBytes;
      Rd.CycleRatio[Idx] = static_cast<double>(Run.Run.Cycles) /
                           static_cast<double>(S.Ref[Timing].Cycles);
      addCounts(Rd.C, Run.Run, Run.Runtime, SP->Regions.size());
      Digests[Idx] = subjectDigest(SP->Img.Bytes, F.totalCodeBytes(),
                                   Run.Run, Run.Runtime);
      Rd.Images[Idx] = SP->Img.Bytes;
    }
  }
  Rd.RunSeconds = static_cast<double>(nowNs() - T1) * 1e-9;
  for (uint64_t D : Digests)
    Rd.Digest = fnv(Rd.Digest, D);
  if (T)
    for (size_t Idx = 0; Idx != Suite.size(); ++Idx)
      if (const SquashedProgram *SP = ImageOf(Idx))
        decodeRegions(*SP, Rd, Tl, Suite[Idx].Name);

  // Serve window: every (program, input) pair once, dealt in a seeded order
  // to the clients. Each client is a closed loop: it sends its next request
  // when the last one returns.
  struct Request {
    size_t Subject;
    int Input;
  };
  std::vector<Request> Pairs;
  for (size_t Idx = 0; Idx != Suite.size(); ++Idx)
    if (ImageOf(Idx))
      for (int In : {Timing, Profiling})
        Pairs.push_back({Idx, In});
  Rng Deal(fnv(fnv(Seed, 0xADA97), RoundNo));
  for (size_t I = Pairs.size(); I > 1; --I)
    std::swap(Pairs[I - 1], Pairs[Deal.nextBelow(I)]);
  std::vector<std::vector<double>> Lat(Clients);
  std::vector<double> Busy(Clients);
  if (T)
    Rd.ClientSpans.resize(Clients);
  {
    Scope Window(T, SpWindow);
    const int64_t W0 = nowNs();
    std::vector<std::jthread> Threads; // Joined when the scope ends.
    for (unsigned C = 0; C != Clients; ++C)
      Threads.emplace_back([&, C] {
        Tracer *CT = T ? &Rd.ClientSpans[C] : nullptr;
        for (size_t I = C; I < Pairs.size(); I += Clients) {
          const Request &Q = Pairs[I];
          const Subject &S = Suite[Q.Subject];
          ++Tl.Attempted;
          const int64_t Q0 = nowNs();
          SquashedRun Run = Serve(Q.Subject, Q.Input, CT);
          const int64_t Q1 = nowNs();
          Lat[C].push_back(static_cast<double>(Q1 - Q0) * 1e-6);
          Busy[C] = static_cast<double>(Q1 - W0) * 1e-9;
          if (!matches(Run.Run, Run.Output, S.Ref[Q.Input]))
            Tl.fail(S.Name + ": concurrent request differs from the "
                             "reference: " +
                    Run.Run.FaultMessage);
        }
      });
  }
  // Throughput counts each client over its own busy time, so a client
  // left alone at the end of the window does not dilute it.
  for (unsigned C = 0; C != Clients; ++C) {
    Rd.RequestMs.insert(Rd.RequestMs.end(), Lat[C].begin(), Lat[C].end());
    if (Busy[C] > 0.0)
      Rd.Throughput += static_cast<double>(Lat[C].size()) / Busy[C];
  }

  for (size_t Idx = 0; Idx != Suite.size(); ++Idx) {
    if (!Ctl[Idx])
      continue;
    if (Status St = Ctl[Idx]->drain(60.0); !St.ok())
      Tl.fail(Suite[Idx].Name + ": drain: " + St.toString());
    const AdaptiveStats A = Ctl[Idx]->stats();
    Rd.Adaptive.Publications += A.Publications;
    Rd.Adaptive.Rollbacks += A.Rollbacks;
    Rd.Adaptive.ServedDuringResquash += A.ServedDuringResquash;
    Rd.Adaptive.SwapPauseNsTotal += A.SwapPauseNsTotal;
    if (A.Attempts)
      Rd.ResquashMs.push_back(A.LastResquashSeconds * 1e3);
  }
}

//===-- Reporting -------------------------------------------------------===//

struct Metric {
  std::string Name, Unit;
  double Value;
};

/// Per-layer metrics of one traced round, from the spans of its compile
/// and run passes and its decode probe (the serve window's spans are only
/// written out: concurrent requests would blur per-call times).
std::vector<Metric> layerMetrics(const Spec &Sp, const Round &Rd) {
  const std::vector<double> Tot = spanTotals(Rd.Main);
  auto PerInstr = [](double Ns, uint64_t N) {
    return N ? Ns / static_cast<double>(N) : 0.0;
  };
  auto Count = [](uint64_t N) { return static_cast<double>(N); };

  std::vector<double> Attach, Traps;
  for (const Span &S : Rd.Main.spans()) {
    const double D = static_cast<double>(S.End - S.Start);
    if (S.Name == SpAttach)
      Attach.push_back(D * 1e-3);
    else if (S.Name == SpTrap)
      Traps.push_back(D);
  }
  std::sort(Traps.begin(), Traps.end());

  double PassNs = Tot[SpOtherPass];
  for (uint32_t I = 0; I != NumPasses; ++I)
    PassNs += Tot[SpFirstPass + I];
  // Outside-in accounting: the share of each traced pass no span covers.
  const double CompileSpanNs = Tot[SpCompact] + Tot[SpLayout] +
                               Tot[SpProfile] + Tot[SpCreate] + PassNs;
  // serve() builds its machine internally, so on paper the serve span
  // (attach and traps included) is the finest boundary visible from outside.
  const bool Adapt = Sp.Adaptive;
  const double RunSpanNs = Adapt ? Tot[SpServe] : Tot[SpAttach] + Tot[SpRun];
  const double InterpNs = Adapt ? Tot[SpServe] : Tot[SpRun] - Tot[SpTrap];

  std::vector<Metric> M = {
      {"sim.profile_ns_per_instr", "ns",
       PerInstr(Tot[SpProfile], Rd.ProfiledInstructions)},
      {"sim.run_ns_per_instr", "ns", PerInstr(InterpNs, Rd.C.Instructions)},
      {"compact.ms", "ms", Tot[SpCompact] * 1e-6},
      {"link.layout_ms", "ms", Tot[SpLayout] * 1e-6},
  };
  for (uint32_t I = 0; I != NumPasses; ++I)
    M.push_back({SpanNames[SpFirstPass + I] + "_ms", "ms",
                 Tot[SpFirstPass + I] * 1e-6});
  M.insert(
      M.end(),
      {
          {"squash.pass.other_ms", "ms", Tot[SpOtherPass] * 1e-6},
          {"squash.adaptive.create_ms", "ms", Tot[SpCreate] * 1e-6},
          {"squash.runtime.attach_us", "us", median(Attach)},
          {"squash.runtime.trap_ns_p50", "ns", quantileSorted(Traps, 0.5)},
          {"squash.runtime.trap_ns_tail", "ns", quantileSorted(Traps, 0.99)},
          {"squash.runtime.trap_share", "ratio",
           Tot[SpTrap] * 1e-9 / Rd.RunSeconds},
          {"huff.decode_ns_per_instr.huffman", "ns",
           PerInstr(Tot[SpDecodeHuffman], Rd.DecodedByCodec[0])},
          {"huff.decode_ns_per_instr.pattern", "ns",
           PerInstr(Tot[SpDecodePattern], Rd.DecodedByCodec[1])},
          {"squash.adaptive.resquash_ms", "ms", median(Rd.ResquashMs)},
          {"squash.adaptive.swap_pause_us", "us",
           Rd.Adaptive.Publications
               ? static_cast<double>(Rd.Adaptive.SwapPauseNsTotal) * 1e-3 /
                     static_cast<double>(Rd.Adaptive.Publications)
               : 0.0},
          {"squash.adaptive.publications", "count",
           Count(Rd.Adaptive.Publications)},
          {"squash.adaptive.rollbacks", "count", Count(Rd.Adaptive.Rollbacks)},
          {"squash.adaptive.served_during_resquash", "count",
           Count(Rd.Adaptive.ServedDuringResquash)},
          {"sim.instructions", "count", Count(Rd.C.Instructions)},
          {"sim.cycles", "count", Count(Rd.C.Cycles)},
          {"sim.icache_misses", "count", Count(Rd.C.IcacheMisses)},
          {"squash.regions", "count", Count(Rd.C.Regions)},
          {"squash.runtime.fills", "count", Count(Rd.C.Fills)},
          {"squash.runtime.hit_ratio", "ratio",
           Rd.C.Fills + Rd.C.Hits ? Count(Rd.C.Hits) /
                                        Count(Rd.C.Fills + Rd.C.Hits)
                                  : 0.0},
          {"huff.decoded_instrs", "count", Count(Rd.C.Decoded)},
          {"account.compile_rest_frac", "ratio",
           1.0 - CompileSpanNs * 1e-9 / Rd.CompileSeconds},
          {"account.run_rest_frac", "ratio",
           1.0 - RunSpanNs * 1e-9 / Rd.RunSeconds},
      });
  return M;
}

/// Sum over programs of each one's fastest compile (or run) among the
/// untraced rounds.
double bestOf(const std::vector<Round> &Rounds, size_t Programs,
              bool Compile) {
  double Sum = 0.0;
  for (size_t I = 0; I != Programs; ++I) {
    double Best = 0.0;
    for (const Round &Rd : Rounds) {
      const double T = Compile ? Rd.CompileBy[I] : Rd.RunBy[I];
      if (!Rd.Traced && T > 0.0 && (Best == 0.0 || T < Best))
        Best = T;
    }
    Sum += Best;
  }
  return Sum;
}

/// Reads the digest a previous run of the same sources left, or, when
/// \p Store, stores ours. Returns false when a stored digest disagrees.
bool checkDigest(const std::string &Path, uint64_t Digest, bool Store,
                 std::string &Note) {
  if (Path.empty())
    return true;
  char Hex[32];
  std::snprintf(Hex, sizeof(Hex), "%016llx",
                static_cast<unsigned long long>(Digest));
  std::ifstream In(Path);
  std::string Prior;
  if (In >> Prior) {
    Note = Prior == Hex ? "matches the stored digest"
                        : "differs from the stored digest " + Prior;
    return Prior == Hex;
  }
  if (!Store) {
    Note = "not stored, because the run is not correct";
    return true;
  }
  const std::string Tmp = Path + ".tmp";
  bool Written = false;
  {
    std::ofstream Out(Tmp);
    Written = static_cast<bool>(Out << Hex << "\n");
  }
  Written = Written && std::rename(Tmp.c_str(), Path.c_str()) == 0;
  Note = Written ? "stored as the reference digest"
                 : "could not be stored in " + Path;
  return true;
}

void writeSpans(const std::string &Path, const std::vector<Round> &Rounds,
                int64_t Origin) {
  std::FILE *F = std::fopen(Path.c_str(), "w");
  if (!F) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", Path.c_str());
    return;
  }
  std::fprintf(F, "round\tthread\tid\tparent\tname\tstart_ns\tend_ns\n");
  for (size_t R = 0; R != Rounds.size(); ++R) {
    if (!Rounds[R].Traced)
      continue;
    std::vector<const Tracer *> Ts = {&Rounds[R].Main};
    for (const Tracer &C : Rounds[R].ClientSpans)
      Ts.push_back(&C);
    for (size_t Th = 0; Th != Ts.size(); ++Th) {
      const std::vector<Span> &Ss = Ts[Th]->spans();
      for (size_t I = 0; I != Ss.size(); ++I)
        std::fprintf(F, "%zu\t%zu\t%zu\t%d\t%s\t%lld\t%lld\n", R, Th, I,
                     Ss[I].Parent, SpanNames[Ss[I].Name].c_str(),
                     static_cast<long long>(Ss[I].Start - Origin),
                     static_cast<long long>(Ss[I].End - Origin));
    }
  }
  std::fclose(F);
}

void printSummary(const char *Name, const char *Unit,
                  const std::vector<double> &V) {
  Summary S = summarize(V);
  std::fprintf(stderr,
               "  %-10s median %.6g %s, q1 %.6g, q3 %.6g, spread %.2f%%, "
               "n=%zu\n",
               Name, S.Median, Unit, S.Q1, S.Q3,
               S.Median != 0.0 ? 100.0 * (S.Q3 - S.Q1) / S.Median : 0.0,
               S.N);
}

struct Args {
  std::string Workload, Spans, Digest;
  uint64_t Seed = 0;
  double Seconds = 0.0;
  int Trace = -1;
};

bool parseArgs(int Argc, char **Argv, Args &A) {
  for (int I = 1; I < Argc; ++I) {
    std::string K = Argv[I];
    if (I + 1 >= Argc)
      return false;
    std::string V = Argv[++I];
    char *End = nullptr;
    if (K == "--workload")
      A.Workload = V;
    else if (K == "--seed")
      A.Seed = std::strtoull(V.c_str(), &End, 10);
    else if (K == "--seconds")
      A.Seconds = std::strtod(V.c_str(), &End);
    else if (K == "--trace")
      A.Trace = static_cast<int>(std::strtol(V.c_str(), &End, 10));
    else if (K == "--spans")
      A.Spans = V;
    else if (K == "--digest")
      A.Digest = V;
    else
      return false;
    if (End && *End)
      return false;
  }
  return !A.Workload.empty() && A.Seconds > 0.0 &&
         (A.Trace == 0 || A.Trace == 1);
}

} // namespace

int main(int Argc, char **Argv) {
  Args A;
  Spec Sp;
  if (!parseArgs(Argc, Argv, A) || !makeSpec(A.Workload, Sp)) {
    std::fprintf(stderr,
                 "usage: squash_perfbench --workload paper|thrash "
                 "--seed N --seconds S --trace 0|1 [--spans FILE] "
                 "[--digest FILE]\n");
    return 2;
  }
  const int64_t Origin = nowNs();

  // Setup: built and checked several times so its median is a metric.
  std::vector<Subject> Suite;
  std::vector<double> SetupSeconds;
  for (unsigned I = 0; I != SetupReps; ++I) {
    const int64_t S0 = nowNs();
    if (std::string Err = setupSuite(Sp, Suite); !Err.empty()) {
      std::fprintf(stderr, "perfbench: setup failed: %s\n", Err.c_str());
      return 1;
    }
    SetupSeconds.push_back(static_cast<double>(nowNs() - S0) * 1e-9);
  }

  // Rounds until the budget is spent; a round starts only if one more of
  // the longest round's length still fits. Untraced runs go on past the
  // budget until the serve windows hold MinTailSamples beyond p90. With
  // tracing, rounds come in untraced/traced pairs whose order alternates.
  Tally Tl;
  std::vector<Round> Rounds;
  std::vector<std::vector<uint8_t>> RefImages;
  bool Consistent = true;
  const int64_t Deadline =
      nowNs() + static_cast<int64_t>(A.Seconds * 1e9);
  const unsigned MinRounds = A.Trace ? 2 : 1;
  int64_t Longest = 0;
  size_t Served = 0;
  for (unsigned R = 0;; ++R) {
    const bool PairDone = !A.Trace || R % 2 == 0;
    const bool TailDone =
        A.Trace || Served == 0 || beyondP90(Served) >= MinTailSamples;
    if (R >= MinRounds && PairDone && TailDone &&
        nowNs() + Longest * (A.Trace ? 2 : 1) > Deadline)
      break;
    Rounds.emplace_back();
    Round &Rd = Rounds.back();
    Rd.Traced = A.Trace && ((R / 2) % 2 == 0 ? R % 2 == 1 : R % 2 == 0);
    // Each round visits the programs in its own seeded order.
    std::vector<size_t> Order(Suite.size());
    for (size_t I = 0; I != Order.size(); ++I)
      Order[I] = I;
    Rng Shuffle(fnv(A.Seed, R));
    for (size_t I = Order.size(); I > 1; --I)
      std::swap(Order[I - 1], Order[Shuffle.nextBelow(I)]);
    const int64_t R0 = nowNs();
    runRound(Sp, Suite, Order, A.Seed, R, Rd, Tl);
    Longest = std::max(Longest, nowNs() - R0);
    if (!Rd.Traced)
      Served += Rd.RequestMs.size();
    // Images, counts and ratios must match the first round's exactly; the
    // images are dropped once checked so memory does not grow with rounds.
    const Round &Ref = Rounds.front();
    if (R == 0)
      RefImages = Rd.Images;
    if (Rd.Digest != Ref.Digest || Rd.Images != RefImages ||
        Rd.CodeRatio != Ref.CodeRatio || Rd.CycleRatio != Ref.CycleRatio) {
      if (Consistent)
        std::fprintf(stderr, "perfbench: round %u differs from round 0 in "
                             "images, counts or ratios\n", R);
      Consistent = false;
    }
    std::vector<std::vector<uint8_t>>().swap(Rd.Images);
  }

  // Correctness beyond per-run output checks: everything simulated repeats
  // exactly across rounds, traced or not, and across processes.
  bool Correct = Tl.Failed == 0 && Consistent;
  std::string DigestNote;
  if (!checkDigest(A.Digest, Rounds.front().Digest, Correct, DigestNote))
    Correct = false;

  // Best of rounds: co-tenants on a shared host only ever slow a
  // repetition down, so each operation's fastest repetition is the
  // steadiest estimate of its cost. compile_s and run_s sum the programs'
  // best times; serve_rps is the best round's throughput. The serve
  // latencies are percentiles over every untraced request, so delays from
  // contention, re-squashes and swaps stay in them.
  const Round &First = Rounds.front();
  const double BestCompile = bestOf(Rounds, Suite.size(), true);
  const double BestRun = bestOf(Rounds, Suite.size(), false);
  double BestRps = 0.0;
  std::vector<double> Compile, Run, Pooled;
  for (const Round &Rd : Rounds) {
    if (Rd.Traced)
      continue;
    Compile.push_back(Rd.CompileSeconds);
    Run.push_back(Rd.RunSeconds);
    BestRps = std::max(BestRps, Rd.Throughput);
    Pooled.insert(Pooled.end(), Rd.RequestMs.begin(), Rd.RequestMs.end());
  }
  std::sort(Pooled.begin(), Pooled.end());
  rusage RU;
  getrusage(RUSAGE_SELF, &RU);

  std::vector<Metric> Out;
  if (A.Trace == 0) {
    Out = {
        {"setup_s", "s", median(SetupSeconds)},
        {"compile_s", "s", BestCompile},
        {"run_s", "s", BestRun},
        {"code_ratio", "ratio", geomean(First.CodeRatio)},
        {"cycles_ratio", "ratio", geomean(First.CycleRatio)},
        {"serve_rps", "req/s", BestRps},
        {"serve_p50_ms", "ms", quantileSorted(Pooled, 0.5)},
        {"serve_p90_ms", "ms", quantileSorted(Pooled, 0.9)},
        {"peak_rss_mb", "MB", static_cast<double>(RU.ru_maxrss) / 1024.0},
    };
  } else {
    std::vector<Metric> Layers;
    std::map<std::string, std::vector<double>> Values;
    std::vector<double> CompilePairs, RunPairs;
    for (size_t R = 0; R + 1 < Rounds.size(); R += 2) {
      const Round &U = Rounds[R].Traced ? Rounds[R + 1] : Rounds[R];
      const Round &Tr = Rounds[R].Traced ? Rounds[R] : Rounds[R + 1];
      CompilePairs.push_back(Tr.CompileSeconds / U.CompileSeconds);
      RunPairs.push_back(Tr.RunSeconds / U.RunSeconds);
      for (const Metric &L : layerMetrics(Sp, Tr)) {
        if (!Values.count(L.Name))
          Layers.push_back(L);
        Values[L.Name].push_back(L.Value);
      }
    }
    for (Metric &L : Layers) {
      L.Value = median(Values[L.Name]);
      Out.push_back(L);
    }
    // Tracing overhead: median and spread of traced / untraced over the
    // pairs.
    Summary CP = summarize(CompilePairs), RP = summarize(RunPairs);
    Out.insert(Out.end(),
               {{"trace.overhead.compile_pairs_median", "ratio", CP.Median},
                {"trace.overhead.compile_pairs_iqr", "ratio", CP.Q3 - CP.Q1},
                {"trace.overhead.run_pairs_median", "ratio", RP.Median},
                {"trace.overhead.run_pairs_iqr", "ratio", RP.Q3 - RP.Q1}});
  }

  // Human-readable report on stderr; callers parse only the JSON line.
  std::fprintf(stderr, "perfbench %s seed=%llu trace=%d: %zu round(s), "
                       "%llu attempted, %llu failed\n",
               Sp.Name.c_str(), static_cast<unsigned long long>(A.Seed),
               A.Trace, Rounds.size(),
               static_cast<unsigned long long>(Tl.Attempted.load()),
               static_cast<unsigned long long>(Tl.Failed.load()));
  // fail_frac is an end-to-end figure too, but it is 0 when all is well, so
  // it is reported here rather than among the JSON metrics.
  std::fprintf(stderr, "  %-28s %.6g ratio\n", "fail_frac",
               Tl.Attempted ? static_cast<double>(Tl.Failed) /
                                  static_cast<double>(Tl.Attempted)
                            : 0.0);
  if (!A.Trace)
    for (const Metric &M : Out)
      std::fprintf(stderr, "  %-28s %.6g %s\n", M.Name.c_str(), M.Value,
                   M.Unit.c_str());
  for (const std::string &E : Tl.Errors)
    std::fprintf(stderr, "  failure: %s\n", E.c_str());
  if (!A.Digest.empty())
    std::fprintf(stderr, "  digest %016llx %s\n",
                 static_cast<unsigned long long>(First.Digest),
                 DigestNote.c_str());
  for (size_t R = 0; R != Rounds.size(); ++R)
    std::fprintf(stderr,
                 "  round %zu%s: compile %.4f s, run %.4f s, serve %.4f "
                 "req/s\n",
                 R, Rounds[R].Traced ? " (traced)" : "",
                 Rounds[R].CompileSeconds, Rounds[R].RunSeconds,
                 Rounds[R].Throughput);
  printSummary("setup_s", "s", SetupSeconds);
  printSummary("compile", "s", Compile); // Per round, whole pass.
  printSummary("run", "s", Run);
  if (!Pooled.empty())
    std::fprintf(stderr,
                 "  serve latency: p50 %.6g ms, p90 %.6g ms over %zu "
                 "requests (%zu beyond p90)\n",
                 quantileSorted(Pooled, 0.5), quantileSorted(Pooled, 0.9),
                 Pooled.size(), beyondP90(Pooled.size()));

  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              Correct ? "true" : "false",
              static_cast<unsigned long long>(Tl.Attempted.load()),
              static_cast<unsigned long long>(Tl.Failed.load()));
  for (size_t I = 0; I != Out.size(); ++I)
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                I ? ", " : "", Out[I].Name.c_str(), Out[I].Value,
                Out[I].Unit.c_str());
  std::printf("}}\n");

  if (A.Trace && !A.Spans.empty())
    writeSpans(A.Spans, Rounds, Origin);
  return 0;
}
