//===- tests/MinCoverTests.cpp - minimum-coverage plan unit tests -----------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// Unit tests for profile/MinCover.h on hand-built degenerate flow graphs —
/// the CFG shapes where spanning-tree construction is easiest to get wrong:
/// a single-block function, a self-loop (never a tree arc), unreachable
/// blocks (no arcs at all), and the merged arc for a cond_br whose targets
/// coincide. Each shape is also executed under both instrumentation modes
/// and the inferred counts are checked against full measurement, so the
/// structural claims are tied to the Kirchhoff solve they exist to serve.
///
//===----------------------------------------------------------------------===//

#include "profile/MinCover.h"

#include "analysis/LoopInfo.h"

#include "ir/IrVerifier.h"
#include "suite/Suite.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace impact;
using test::compileOk;

namespace {

size_t countArcKind(const MinCoverFuncPlan &Plan, MinCoverArc::Kind K) {
  return static_cast<size_t>(
      std::count_if(Plan.Arcs.begin(), Plan.Arcs.end(),
                    [K](const MinCoverArc &A) { return A.K == K; }));
}

size_t countProbedArcs(const MinCoverFuncPlan &Plan) {
  return static_cast<size_t>(
      std::count_if(Plan.Arcs.begin(), Plan.Arcs.end(),
                    [](const MinCoverArc &A) { return A.Probe >= 0; }));
}

/// Runs \p M fully instrumented and in minimum-coverage mode (same input /
/// limits), infers, and checks every ProfileData-visible field matches.
void expectInferredMatchesFull(const Module &M, const MinCoverPlan &Plan,
                               RunOptions Opts = RunOptions()) {
  Opts.MinCover = nullptr;
  ExecResult Full = runProgram(M, Opts);
  Opts.MinCover = &Plan;
  ExecResult Mc = runProgram(M, Opts);
  ASSERT_EQ(Full.St, Mc.St);
  EXPECT_EQ(Full.Output, Mc.Output);
  EXPECT_EQ(Full.ExitCode, Mc.ExitCode);

  ExecStats Inferred = inferCounts(M, Plan, Mc.Stats);
  EXPECT_EQ(Inferred.InstrCount, Full.Stats.InstrCount);
  EXPECT_EQ(Inferred.ControlTransfers, Full.Stats.ControlTransfers);
  EXPECT_EQ(Inferred.DynamicCalls, Full.Stats.DynamicCalls);
  EXPECT_EQ(Inferred.ExternalCalls, Full.Stats.ExternalCalls);
  EXPECT_EQ(Inferred.PointerCalls, Full.Stats.PointerCalls);
  EXPECT_EQ(Inferred.Returns, Full.Stats.Returns);
  EXPECT_EQ(Inferred.SiteCounts, Full.Stats.SiteCounts);
  EXPECT_EQ(Inferred.FuncEntryCounts, Full.Stats.FuncEntryCounts);
  EXPECT_EQ(Inferred.PeakStackWords, Full.Stats.PeakStackWords);
}

//===----------------------------------------------------------------------===//
// Degenerate flow graphs
//===----------------------------------------------------------------------===//

TEST(MinCoverPlan, SingleBlockFunction) {
  // main: one block, straight to ret. Augmented graph: Omega -> b0 -> Omega,
  // two arcs over two nodes; the spanning tree takes one, so exactly one
  // probe remains — on whichever arc lost the weight tie.
  Module M;
  FuncId Id = M.addFunction("main", 0, false, false);
  Function &F = M.getFunction(Id);
  BlockId B = F.addBlock();
  Reg R = F.addReg();
  F.getBlock(B).Instrs.push_back(Instr::makeLdImm(R, 7));
  F.getBlock(B).Instrs.push_back(Instr::makeRet(R));
  M.MainId = Id;
  ASSERT_EQ(verifyModuleText(M), "");

  MinCoverPlan Plan = buildMinCoverPlan(M);
  ASSERT_EQ(Plan.Funcs.size(), 1u);
  const MinCoverFuncPlan &FP = Plan.Funcs[0];
  ASSERT_TRUE(FP.Instrumented);
  EXPECT_EQ(FP.Arcs.size(), 2u);
  EXPECT_EQ(countArcKind(FP, MinCoverArc::Kind::Entry), 1u);
  EXPECT_EQ(countArcKind(FP, MinCoverArc::Kind::Ret), 1u);
  EXPECT_EQ(Plan.NumProbes, 1u);
  EXPECT_EQ(Plan.TotalArcs, 2u);
  // Exactly one of the two arcs carries the probe.
  EXPECT_EQ((FP.EntryProbe >= 0) + (FP.RetProbes[B] >= 0), 1);

  expectInferredMatchesFull(M, Plan);
}

TEST(MinCoverPlan, SelfLoopIsAlwaysCoTree) {
  // b0: r0 = 3; r1 = 1; jump b1
  // b1: r0 = r0 - r1; cond_br r0 ? b1 : b2   <- taken edge is a self-loop
  // b2: ret r0
  // A self-loop can never join a spanning tree (it connects a node to
  // itself), so its arc must always carry a probe — even though the
  // loop-depth prior makes it the heaviest arc in the function.
  Module M;
  FuncId Id = M.addFunction("main", 0, false, false);
  Function &F = M.getFunction(Id);
  BlockId B0 = F.addBlock(), B1 = F.addBlock(), B2 = F.addBlock();
  Reg R0 = F.addReg(), R1 = F.addReg();
  F.getBlock(B0).Instrs.push_back(Instr::makeLdImm(R0, 3));
  F.getBlock(B0).Instrs.push_back(Instr::makeLdImm(R1, 1));
  F.getBlock(B0).Instrs.push_back(Instr::makeJump(B1));
  F.getBlock(B1).Instrs.push_back(Instr::makeBinary(Opcode::Sub, R0, R0, R1));
  F.getBlock(B1).Instrs.push_back(Instr::makeCondBr(R0, B1, B2));
  F.getBlock(B2).Instrs.push_back(Instr::makeRet(R0));
  M.MainId = Id;
  ASSERT_EQ(verifyModuleText(M), "");

  MinCoverPlan Plan = buildMinCoverPlan(M);
  const MinCoverFuncPlan &FP = Plan.Funcs[0];
  ASSERT_TRUE(FP.Instrumented);
  // Entry, b0->b1 jump, b1->b1 taken, b1->b2 not-taken, b2->Omega ret.
  EXPECT_EQ(FP.Arcs.size(), 5u);
  // Four nodes (Omega, b0, b1, b2) -> three tree arcs -> two probes.
  EXPECT_EQ(Plan.NumProbes, 2u);
  EXPECT_GE(FP.TakenProbes[B1], 0) << "self-loop arc must be instrumented";

  expectInferredMatchesFull(M, Plan);
}

TEST(MinCoverPlan, UnreachableBlockContributesNoArcs) {
  // b1 jumps back to b0 but nothing reaches b1: its count is zero by
  // definition, so it gets no arcs and no probes — the conservation system
  // simply omits it.
  Module M;
  FuncId Id = M.addFunction("main", 0, false, false);
  Function &F = M.getFunction(Id);
  BlockId B0 = F.addBlock(), B1 = F.addBlock();
  Reg R = F.addReg();
  F.getBlock(B0).Instrs.push_back(Instr::makeLdImm(R, 0));
  F.getBlock(B0).Instrs.push_back(Instr::makeRet(R));
  F.getBlock(B1).Instrs.push_back(Instr::makeJump(B0));
  M.MainId = Id;
  ASSERT_EQ(verifyModuleText(M), "");

  MinCoverPlan Plan = buildMinCoverPlan(M);
  const MinCoverFuncPlan &FP = Plan.Funcs[0];
  ASSERT_TRUE(FP.Instrumented);
  for (const MinCoverArc &A : FP.Arcs)
    EXPECT_NE(A.From, B1) << "unreachable block contributed an arc";
  EXPECT_EQ(FP.JumpProbes[B1], -1);
  // Same shape as the single-block function: two arcs, one probe.
  EXPECT_EQ(FP.Arcs.size(), 2u);
  EXPECT_EQ(Plan.NumProbes, 1u);

  expectInferredMatchesFull(M, Plan);
}

TEST(MinCoverPlan, EqualTargetCondBrMerges) {
  // cond_br with Target == Target2 is one arc executed once per transfer,
  // mirroring the CFG's successor dedup — two parallel arcs would let the
  // tree take one and "infer" the other, double-counting the edge.
  Module M;
  FuncId Id = M.addFunction("main", 0, false, false);
  Function &F = M.getFunction(Id);
  BlockId B0 = F.addBlock(), B1 = F.addBlock();
  Reg R = F.addReg();
  F.getBlock(B0).Instrs.push_back(Instr::makeLdImm(R, 5));
  F.getBlock(B0).Instrs.push_back(Instr::makeCondBr(R, B1, B1));
  F.getBlock(B1).Instrs.push_back(Instr::makeRet(R));
  M.MainId = Id;
  // The verifier rejects this shape ("must be a jump"), but raw IrGen/IL
  // input can carry it before jump optimization runs, and both engines
  // execute it with successor dedup — the plan must stay in lockstep.

  MinCoverPlan Plan = buildMinCoverPlan(M);
  const MinCoverFuncPlan &FP = Plan.Funcs[0];
  ASSERT_TRUE(FP.Instrumented);
  EXPECT_EQ(countArcKind(FP, MinCoverArc::Kind::BrMerged), 1u);
  EXPECT_EQ(countArcKind(FP, MinCoverArc::Kind::BrTaken), 0u);
  EXPECT_EQ(countArcKind(FP, MinCoverArc::Kind::BrNotTaken), 0u);
  EXPECT_EQ(FP.NotTakenProbes[B0], -1)
      << "merged arc must use the taken-probe slot only";
  // Entry, merged branch, ret: three arcs over three nodes -> one probe.
  EXPECT_EQ(FP.Arcs.size(), 3u);
  EXPECT_EQ(Plan.NumProbes, 1u);

  expectInferredMatchesFull(M, Plan);
}

TEST(MinCoverPlan, ExternalFunctionsAreNotPlanned) {
  Module M = compileOk(test::kPointerCallProgram);
  MinCoverPlan Plan = buildMinCoverPlan(M);
  ASSERT_EQ(Plan.Funcs.size(), M.Funcs.size());
  for (const Function &F : M.Funcs)
    if (F.IsExternal) {
      EXPECT_FALSE(Plan.Funcs[F.Id].Instrumented) << F.Name;
      EXPECT_TRUE(Plan.Funcs[F.Id].Arcs.empty()) << F.Name;
    }
}

//===----------------------------------------------------------------------===//
// Plan invariants on real programs
//===----------------------------------------------------------------------===//

TEST(MinCoverPlan, DeterministicAcrossRebuilds) {
  // Two builds of the same module must agree on every probe assignment.
  Module M = compileOk(test::kCallHeavyProgram);
  MinCoverPlan A = buildMinCoverPlan(M);
  MinCoverPlan B = buildMinCoverPlan(M);
  EXPECT_EQ(A.NumProbes, B.NumProbes);
  EXPECT_EQ(A.TotalArcs, B.TotalArcs);
  ASSERT_EQ(A.Funcs.size(), B.Funcs.size());
  for (size_t I = 0; I != A.Funcs.size(); ++I) {
    EXPECT_EQ(A.Funcs[I].Instrumented, B.Funcs[I].Instrumented);
    EXPECT_EQ(A.Funcs[I].EntryProbe, B.Funcs[I].EntryProbe);
    EXPECT_EQ(A.Funcs[I].JumpProbes, B.Funcs[I].JumpProbes);
    EXPECT_EQ(A.Funcs[I].TakenProbes, B.Funcs[I].TakenProbes);
    EXPECT_EQ(A.Funcs[I].NotTakenProbes, B.Funcs[I].NotTakenProbes);
    EXPECT_EQ(A.Funcs[I].RetProbes, B.Funcs[I].RetProbes);
  }
}

TEST(MinCoverPlan, ProbeCountsAreConsistent) {
  // NumProbes == probed arcs; every probe index distinct and < NumProbes.
  for (const BenchmarkSpec &Spec : getBenchmarkSuite()) {
    SCOPED_TRACE(Spec.Name);
    Module M = compileOk(Spec.Source);
    MinCoverPlan Plan = buildMinCoverPlan(M);
    std::vector<bool> Seen(Plan.NumProbes, false);
    size_t Probed = 0, Arcs = 0;
    for (const MinCoverFuncPlan &FP : Plan.Funcs) {
      Arcs += FP.Arcs.size();
      Probed += countProbedArcs(FP);
      for (const MinCoverArc &A : FP.Arcs)
        if (A.Probe >= 0) {
          ASSERT_LT(static_cast<uint32_t>(A.Probe), Plan.NumProbes);
          EXPECT_FALSE(Seen[A.Probe]) << "probe reused: " << A.Probe;
          Seen[A.Probe] = true;
        }
    }
    EXPECT_EQ(Probed, Plan.NumProbes);
    EXPECT_EQ(Arcs, Plan.TotalArcs);
  }
}

TEST(MinCoverPlan, SuiteProbeRatioStaysUnderSixtyPercent) {
  // The whole point of the mode: suite-wide, at most 60% of arcs carry
  // counters (measured ~33%; the bound leaves room for suite growth
  // without letting a tree-construction regression slip through).
  uint64_t Probes = 0, Arcs = 0;
  for (const BenchmarkSpec &Spec : getBenchmarkSuite()) {
    Module M = compileOk(Spec.Source);
    MinCoverPlan Plan = buildMinCoverPlan(M);
    Probes += Plan.NumProbes;
    Arcs += Plan.TotalArcs;
  }
  ASSERT_GT(Arcs, 0u);
  EXPECT_LE(static_cast<double>(Probes) / static_cast<double>(Arcs), 0.60)
      << Probes << " probes over " << Arcs << " arcs";
}

//===----------------------------------------------------------------------===//
// Inference under abnormal halts
//===----------------------------------------------------------------------===//

TEST(MinCoverInfer, StepLimitHaltsRecoverExactly) {
  // Runs cut off mid-flight leave activations whose entry was counted but
  // whose return never happened; the halt records supply that pending term.
  // Every truncation point must still infer exactly.
  Module M = compileOk(test::kCallHeavyProgram);
  MinCoverPlan Plan = buildMinCoverPlan(M);
  for (uint64_t Limit : {0ull, 1ull, 7ull, 50ull, 333ull, 5000ull}) {
    SCOPED_TRACE("limit " + std::to_string(Limit));
    RunOptions Opts;
    Opts.Input = "abcdefgh";
    Opts.StepLimit = Limit;
    expectInferredMatchesFull(M, Plan, Opts);
  }
}

TEST(MinCoverInfer, RecursionRecoversExactly) {
  Module M = compileOk(test::kRecursiveProgram);
  MinCoverPlan Plan = buildMinCoverPlan(M);
  RunOptions Opts;
  Opts.Input = "abcd";
  expectInferredMatchesFull(M, Plan, Opts);
}

//===----------------------------------------------------------------------===//
// Loop-depth weights (regression: the cap-4 / MaxLoopDepth divergence)
//===----------------------------------------------------------------------===//

TEST(MinCoverPlan, DepthFiveBackArcStaysOnTheSpanningTree) {
  // MinCover.cpp once capped loop depth at 4 while the static estimator
  // used Options.MaxLoopDepth; both now read analysis/LoopInfo.h and
  // MinCover weights by true depth (saturating only at 10^18). This
  // fixture is built so the two weightings place probes differently:
  //
  // A four-deep for-nest (headers H1..H4 = blocks 1..4, latches L4..L1 =
  // blocks 6..9) encloses a fifth, two-block loop {P2=11, P=12}. Block
  // P2's cond_br puts its loop-EXIT arc (P2 -> M, depth-4 weight, taken,
  // constructed first) AHEAD of its depth-5 back arc (P2 -> P, nottaken)
  // in construction order. Uncapped, the back arc's 10^5 weight wins the
  // Kruskal sort outright, so it joins the tree and the exit arc takes
  // the probe. Capped at 4 the two arcs tie at 10^4 and the stable sort's
  // construction-index tie-break hands the tree slot to the exit arc
  // instead — flipping both probe placements below. The probe must sit on
  // the arc that runs ~10x less often; with the cap, every trip around
  // the innermost loop bumps a counter that flow conservation could have
  // inferred.
  Module M;
  FuncId Id = M.addFunction("main", 0, false, false);
  Function &F = M.getFunction(Id);
  for (int I = 0; I != 13; ++I)
    F.addBlock();
  Reg C = F.addReg();
  auto B = [&F](BlockId Bl) -> std::vector<Instr> & {
    return F.getBlock(Bl).Instrs;
  };
  B(0).push_back(Instr::makeLdImm(C, 1));
  B(0).push_back(Instr::makeJump(1));        // entry
  B(1).push_back(Instr::makeCondBr(C, 2, 10)); // H1: depth 1
  B(2).push_back(Instr::makeCondBr(C, 3, 9));  // H2: depth 2
  B(3).push_back(Instr::makeCondBr(C, 4, 8));  // H3: depth 3
  B(4).push_back(Instr::makeCondBr(C, 12, 7)); // H4: depth 4, enters P
  B(5).push_back(Instr::makeJump(6));          // M:  depth 4
  B(6).push_back(Instr::makeJump(4));          // L4: latch of H4
  B(7).push_back(Instr::makeJump(3));          // L3: latch of H3
  B(8).push_back(Instr::makeJump(2));          // L2: latch of H2
  B(9).push_back(Instr::makeJump(1));          // L1: latch of H1
  B(10).push_back(Instr::makeRet(C));          // exit
  B(11).push_back(Instr::makeCondBr(C, 5, 12)); // P2: depth 5
  B(12).push_back(Instr::makeCondBr(C, 11, 5)); // P:  depth 5
  M.MainId = Id;
  ASSERT_EQ(verifyModuleText(M), "");

  // The fixture depends on the shared analysis seeing all five levels.
  std::vector<unsigned> Depth = computeLoopDepths(F);
  EXPECT_EQ(*std::max_element(Depth.begin(), Depth.end()), 5u);
  EXPECT_EQ(Depth[11], 5u);
  EXPECT_EQ(Depth[12], 5u);
  EXPECT_EQ(Depth[5], 4u);

  MinCoverPlan Plan = buildMinCoverPlan(M);
  ASSERT_EQ(Plan.Funcs.size(), 1u);
  const MinCoverFuncPlan &FP = Plan.Funcs[0];
  ASSERT_TRUE(FP.Instrumented);
  EXPECT_EQ(FP.NotTakenProbes[11], -1)
      << "the depth-5 back arc P2 -> P must be a tree arc";
  EXPECT_GE(FP.TakenProbes[11], 0)
      << "the depth-4 exit arc P2 -> M must carry the probe";
}

} // namespace
