//===- tests/AnalysisTests.cpp - dataflow framework and impact-lint tests -----===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// The analysis tier: the CFG and the three dataflow analyses on
/// hand-built IL, the rule-spec parser and report rendering, one
/// seeded-defect fixture plus one clean fixture per impact-lint rule, and
/// the pipeline integration (error findings quarantine the unit; survivors
/// are bit-identical with the analyzer on or off).
///
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"

#include "suite/Suite.h"

#include "core/InlinePass.h"
#include "core/WeightRedistribution.h"
#include "driver/Pipeline.h"
#include "ir/IrPrinter.h"
#include "ir/IrVerifier.h"

#include "TestUtil.h"

#include <gtest/gtest.h>

#include <algorithm>

using namespace impact;

namespace {

/// A module with one function under test ("f", \p NumParams parameters,
/// \p NumRegs registers) plus a main calling it with constant arguments.
/// Tests fill f's blocks and should verify the module before analyzing.
Module makeHarness(uint32_t NumParams, uint32_t NumRegs) {
  Module M;
  FuncId FId = M.addFunction("f", NumParams, false, false);
  M.getFunction(FId).NumRegs = NumRegs;
  FuncId MainId = M.addFunction("main", 0, false, false);
  Function &Main = M.getFunction(MainId);
  BlockId B = Main.addBlock();
  std::vector<Reg> Args;
  for (uint32_t I = 0; I != NumParams; ++I) {
    Reg R = Main.addReg();
    Main.getBlock(B).Instrs.push_back(Instr::makeLdImm(R, 1));
    Args.push_back(R);
  }
  Reg Ret = Main.addReg();
  Main.getBlock(B).Instrs.push_back(
      Instr::makeCall(Ret, FId, Args, M.allocateSiteId()));
  Main.getBlock(B).Instrs.push_back(Instr::makeRet(Ret));
  M.MainId = MainId;
  return M;
}

/// f(p0): bb0: cond_br p0 bb1 bb2; bb1: r1=1; jump bb3;
///        bb2: r1=2; jump bb3; bb3: ret r1.
Module makeDiamond() {
  Module M = makeHarness(1, 2);
  Function &F = M.getFunction(0);
  BlockId B0 = F.addBlock(), B1 = F.addBlock(), B2 = F.addBlock(),
          B3 = F.addBlock();
  F.getBlock(B0).Instrs.push_back(Instr::makeCondBr(0, B1, B2));
  F.getBlock(B1).Instrs.push_back(Instr::makeLdImm(1, 1));
  F.getBlock(B1).Instrs.push_back(Instr::makeJump(B3));
  F.getBlock(B2).Instrs.push_back(Instr::makeLdImm(1, 2));
  F.getBlock(B2).Instrs.push_back(Instr::makeJump(B3));
  F.getBlock(B3).Instrs.push_back(Instr::makeRet(1));
  return M;
}

std::vector<Finding> findingsForRule(const AnalysisReport &R,
                                     std::string_view Rule) {
  std::vector<Finding> Out;
  for (const Finding &F : R.Findings)
    if (F.Rule == Rule)
      Out.push_back(F);
  return Out;
}

AnalysisOptions onlyRules(const char *Spec) {
  AnalysisOptions O;
  std::string Error;
  EXPECT_TRUE(parseAnalysisRules(Spec, O, &Error)) << Error;
  return O;
}

//===----------------------------------------------------------------------===//
// CFG
//===----------------------------------------------------------------------===//

TEST(Cfg, DiamondEdgesAndReachability) {
  Module M = makeDiamond();
  ASSERT_EQ(verifyModuleText(M), "");
  Cfg G(M.getFunction(0));
  ASSERT_EQ(G.getNumBlocks(), 4u);
  EXPECT_EQ(G.getSuccessors(0), (std::vector<BlockId>{1, 2}));
  EXPECT_EQ(G.getSuccessors(3), std::vector<BlockId>{});
  EXPECT_EQ(G.getPredecessors(3), (std::vector<BlockId>{1, 2}));
  EXPECT_EQ(G.getPredecessors(0), std::vector<BlockId>{});
  for (BlockId B = 0; B != 4; ++B)
    EXPECT_TRUE(G.isReachable(B)) << B;
  const std::vector<BlockId> &Rpo = G.getReversePostOrder();
  ASSERT_EQ(Rpo.size(), 4u);
  EXPECT_EQ(Rpo.front(), 0);
  EXPECT_EQ(Rpo.back(), 3);
}

TEST(Cfg, UnreachableBlockExcludedFromRpo) {
  Module M = makeHarness(0, 1);
  Function &F = M.getFunction(0);
  BlockId B0 = F.addBlock(), B1 = F.addBlock();
  F.getBlock(B0).Instrs.push_back(Instr::makeLdImm(0, 0));
  F.getBlock(B0).Instrs.push_back(Instr::makeRet(0));
  F.getBlock(B1).Instrs.push_back(Instr::makeRet(0));
  ASSERT_EQ(verifyModuleText(M), "");
  Cfg G(F);
  EXPECT_TRUE(G.isReachable(0));
  EXPECT_FALSE(G.isReachable(1));
  EXPECT_EQ(G.getReversePostOrder(), std::vector<BlockId>{0});
}

TEST(Cfg, DegenerateCondBrEdgeDeduplicated) {
  // The verifier now rejects equal-target cond_br, but the CFG must still
  // be sane on such input (the analyzer sees pre-verifier fuzz shapes in
  // unit tests); the duplicate edge collapses to one so confluence never
  // double-counts a predecessor.
  Module M = makeHarness(0, 1);
  Function &F = M.getFunction(0);
  BlockId B0 = F.addBlock(), B1 = F.addBlock();
  F.getBlock(B0).Instrs.push_back(Instr::makeLdImm(0, 1));
  F.getBlock(B0).Instrs.push_back(Instr::makeCondBr(0, B1, B1));
  F.getBlock(B1).Instrs.push_back(Instr::makeRet(0));
  Cfg G(F);
  EXPECT_EQ(G.getSuccessors(0), std::vector<BlockId>{1});
  EXPECT_EQ(G.getPredecessors(1), std::vector<BlockId>{0});
}

//===----------------------------------------------------------------------===//
// Dataflow analyses
//===----------------------------------------------------------------------===//

TEST(Dataflow, DominatorsOnDiamond) {
  Module M = makeDiamond();
  Cfg G(M.getFunction(0));
  DominatorAnalysis D = computeDominators(M.getFunction(0), G);
  EXPECT_TRUE(D.dominates(0, 0));
  EXPECT_TRUE(D.dominates(0, 1));
  EXPECT_TRUE(D.dominates(0, 2));
  EXPECT_TRUE(D.dominates(0, 3));
  EXPECT_FALSE(D.dominates(1, 3)); // bb2 bypasses bb1
  EXPECT_FALSE(D.dominates(2, 3));
  EXPECT_TRUE(D.dominates(3, 3));
  EXPECT_FALSE(D.dominates(3, 0));
}

TEST(Dataflow, DominatorsOnLoop) {
  // bb0 -> bb1 (header) -> bb2 (body) -> bb1; bb1 -> bb3 (exit).
  Module M = makeHarness(1, 2);
  Function &F = M.getFunction(0);
  BlockId B0 = F.addBlock(), B1 = F.addBlock(), B2 = F.addBlock(),
          B3 = F.addBlock();
  F.getBlock(B0).Instrs.push_back(Instr::makeJump(B1));
  F.getBlock(B1).Instrs.push_back(Instr::makeCondBr(0, B2, B3));
  F.getBlock(B2).Instrs.push_back(Instr::makeLdImm(1, 1));
  F.getBlock(B2).Instrs.push_back(Instr::makeJump(B1));
  F.getBlock(B3).Instrs.push_back(Instr::makeLdImm(1, 0));
  F.getBlock(B3).Instrs.push_back(Instr::makeRet(1));
  ASSERT_EQ(verifyModuleText(M), "");
  Cfg G(F);
  DominatorAnalysis D = computeDominators(F, G);
  EXPECT_TRUE(D.dominates(B1, B2));
  EXPECT_TRUE(D.dominates(B1, B3));
  EXPECT_FALSE(D.dominates(B2, B1)); // back edge does not dominate
  EXPECT_FALSE(D.dominates(B2, B3));
}

TEST(Dataflow, LivenessOnDiamond) {
  Module M = makeDiamond();
  Function &F = M.getFunction(0);
  Cfg G(F);
  LivenessAnalysis L = computeLiveness(F, G);
  // The parameter (r0) is consumed by bb0's branch and never again.
  EXPECT_TRUE(L.LiveIn[0].test(0));
  EXPECT_FALSE(L.LiveOut[0].test(0));
  // r1 is defined in bb1/bb2 and read in bb3.
  EXPECT_TRUE(L.LiveOut[1].test(1));
  EXPECT_TRUE(L.LiveOut[2].test(1));
  EXPECT_TRUE(L.LiveIn[3].test(1));
  EXPECT_FALSE(L.LiveIn[1].test(1)); // defined before any use on this path
  EXPECT_FALSE(L.LiveOut[3].test(1));
}

TEST(Dataflow, ReachingDefsOnDiamond) {
  Module M = makeDiamond();
  Function &F = M.getFunction(0);
  Cfg G(F);
  ReachingDefsAnalysis R = computeReachingDefs(F, G);
  // The parameter pseudo-definition comes first and reaches the entry.
  ASSERT_FALSE(R.Defs.empty());
  EXPECT_EQ(R.Defs[0].Block, -1);
  EXPECT_EQ(R.Defs[0].Def, 0);
  EXPECT_TRUE(R.anyDefReaches(R.ReachIn[0], 0));
  // Both branch definitions of r1 reach the merge block.
  uint32_t FromB1 = 0, FromB2 = 0;
  bool SawB1 = false, SawB2 = false;
  for (uint32_t I = 0; I != R.Defs.size(); ++I) {
    if (R.Defs[I].Def != 1)
      continue;
    if (R.Defs[I].Block == 1) {
      FromB1 = I;
      SawB1 = true;
    }
    if (R.Defs[I].Block == 2) {
      FromB2 = I;
      SawB2 = true;
    }
  }
  ASSERT_TRUE(SawB1 && SawB2);
  EXPECT_TRUE(R.ReachIn[3].test(FromB1));
  EXPECT_TRUE(R.ReachIn[3].test(FromB2));
  // Neither definition flows backwards into the entry.
  EXPECT_FALSE(R.anyDefReaches(R.ReachIn[0], 1));
}

TEST(Dataflow, RedefinitionKillsPriorDef) {
  // bb0: r0=1; r0=2; ret r0 — only the second definition leaves the block.
  Module M = makeHarness(0, 1);
  Function &F = M.getFunction(0);
  BlockId B0 = F.addBlock();
  F.getBlock(B0).Instrs.push_back(Instr::makeLdImm(0, 1));
  F.getBlock(B0).Instrs.push_back(Instr::makeLdImm(0, 2));
  F.getBlock(B0).Instrs.push_back(Instr::makeRet(0));
  Cfg G(F);
  ReachingDefsAnalysis R = computeReachingDefs(F, G);
  for (uint32_t I = 0; I != R.Defs.size(); ++I) {
    if (R.Defs[I].Def != 0)
      continue;
    bool IsSecond = R.Defs[I].Instr == 1;
    EXPECT_EQ(R.ReachOut[0].test(I), IsSecond) << "def index " << I;
  }
}

TEST(Dataflow, UsesAndDefs) {
  std::vector<Reg> Uses;
  collectUses(Instr::makeStore(3, 4), Uses);
  EXPECT_EQ(Uses, (std::vector<Reg>{3, 4}));
  EXPECT_EQ(instrDef(Instr::makeStore(3, 4)), kNoReg);

  Uses.clear();
  collectUses(Instr::makeCall(7, 0, {1, 2}, 5), Uses);
  EXPECT_EQ(Uses, (std::vector<Reg>{1, 2}));
  EXPECT_EQ(instrDef(Instr::makeCall(7, 0, {1, 2}, 5)), 7);

  Uses.clear();
  collectUses(Instr::makeCallPtr(7, 6, {1}, 5), Uses);
  EXPECT_EQ(Uses, (std::vector<Reg>{6, 1}));

  Uses.clear();
  collectUses(Instr::makeRet(kNoReg), Uses);
  EXPECT_TRUE(Uses.empty());
  EXPECT_EQ(instrDef(Instr::makeRet(2)), kNoReg);

  Uses.clear();
  collectUses(Instr::makeLdImm(1, 42), Uses);
  EXPECT_TRUE(Uses.empty());
  EXPECT_EQ(instrDef(Instr::makeLdImm(1, 42)), 1);

  Uses.clear();
  collectUses(Instr::makeBinary(Opcode::Add, 2, 0, 1), Uses);
  EXPECT_EQ(Uses, (std::vector<Reg>{0, 1}));
}

//===----------------------------------------------------------------------===//
// Rule-spec parsing and report rendering
//===----------------------------------------------------------------------===//

TEST(AnalysisRules, EmptyAndAllEnableEverything) {
  for (const char *Spec : {"", "all", "1", "on"}) {
    AnalysisOptions O;
    O.DeadStore = false; // must be restored by the spec
    std::string Error;
    ASSERT_TRUE(parseAnalysisRules(Spec, O, &Error)) << Spec << ": " << Error;
    EXPECT_TRUE(O.UninitRead && O.UnreachableBlock && O.DeadStore &&
                O.AuditSafeExpansion && O.AuditCallGraph &&
                O.AuditWeightConservation && O.AuditLinearization)
        << Spec;
  }
}

TEST(AnalysisRules, BareNameSelectsExactlyThatRule) {
  AnalysisOptions O = onlyRules("dead-store");
  EXPECT_TRUE(O.DeadStore);
  EXPECT_FALSE(O.UninitRead || O.UnreachableBlock || O.AuditSafeExpansion ||
               O.AuditCallGraph || O.AuditWeightConservation ||
               O.AuditLinearization);
}

TEST(AnalysisRules, AllMinusDisablesOne) {
  AnalysisOptions O = onlyRules("all,-dead-store");
  EXPECT_FALSE(O.DeadStore);
  EXPECT_TRUE(O.UninitRead && O.UnreachableBlock && O.AuditSafeExpansion &&
              O.AuditCallGraph && O.AuditWeightConservation &&
              O.AuditLinearization);
}

TEST(AnalysisRules, PureNegationStartsFromAll) {
  AnalysisOptions O = onlyRules("-uninit-read");
  EXPECT_FALSE(O.UninitRead);
  EXPECT_TRUE(O.DeadStore && O.UnreachableBlock);
}

TEST(AnalysisRules, UnknownRuleRejectedWithValidList) {
  AnalysisOptions O;
  std::string Error;
  EXPECT_FALSE(parseAnalysisRules("dead-stroe", O, &Error));
  EXPECT_NE(Error.find("unknown analysis rule 'dead-stroe'"),
            std::string::npos);
  EXPECT_NE(Error.find(kRuleDeadStore), std::string::npos);
  EXPECT_NE(Error.find(kRuleAuditWeightConservation), std::string::npos);
}

TEST(AnalysisRules, UnknownRuleGetsDidYouMeanSuggestion) {
  AnalysisOptions O;
  std::string Error;
  EXPECT_FALSE(parseAnalysisRules("dead-stroe", O, &Error));
  EXPECT_NE(Error.find("did you mean 'dead-store'?"), std::string::npos)
      << Error;
  Error.clear();
  EXPECT_FALSE(parseAnalysisRules("guaranteed-trep", O, &Error));
  EXPECT_NE(Error.find("did you mean 'guaranteed-trap'?"), std::string::npos)
      << Error;
  // Nothing remotely close: the valid list, no suggestion.
  Error.clear();
  EXPECT_FALSE(parseAnalysisRules("zzzzzzzzzzzz", O, &Error));
  EXPECT_EQ(Error.find("did you mean"), std::string::npos) << Error;
  EXPECT_NE(Error.find("valid: all"), std::string::npos) << Error;
}

TEST(AnalysisRules, HelpTableListsEveryRuleWithSeverity) {
  std::string Table = renderAnalysisRuleTable();
  for (const char *Rule :
       {kRuleUninitRead, kRuleUnreachableBlock, kRuleDeadStore,
        kRuleAuditSafeExpansion, kRuleAuditCallGraph,
        kRuleAuditWeightConservation, kRuleAuditLinearization,
        kRuleGuaranteedTrap, kRuleRangeContradiction})
    EXPECT_NE(Table.find(Rule), std::string::npos) << Rule;
  EXPECT_NE(Table.find("warn"), std::string::npos);
  EXPECT_NE(Table.find("error"), std::string::npos);
  ASSERT_FALSE(Table.empty());
  EXPECT_EQ(Table.back(), '\n');
}

TEST(AnalysisRules, RangeRulesSelectable) {
  AnalysisOptions O = onlyRules("guaranteed-trap");
  EXPECT_TRUE(O.GuaranteedTrap);
  EXPECT_FALSE(O.RangeContradiction || O.DeadStore || O.UninitRead);
  AnalysisOptions All = onlyRules("all,-range-contradiction");
  EXPECT_TRUE(All.GuaranteedTrap);
  EXPECT_FALSE(All.RangeContradiction);
}

TEST(AnalysisReportTest, FindingRenderForms) {
  Finding F;
  F.Function = "main";
  F.Block = 2;
  F.Instr = 3;
  F.Sev = Severity::Warn;
  F.Rule = kRuleDeadStore;
  F.Message = "value written to register r1 is never read (dead store)";
  EXPECT_EQ(F.render(), "warn[dead-store] main bb2#3: value written to "
                        "register r1 is never read (dead store)");

  Finding ModuleLevel;
  ModuleLevel.Sev = Severity::Error;
  ModuleLevel.Rule = kRuleAuditCallGraph;
  ModuleLevel.Message = "boom";
  EXPECT_EQ(ModuleLevel.render(), "error[audit-callgraph] <module>: boom");
}

TEST(AnalysisReportTest, JsonlEscapesAndTagsProgram) {
  AnalysisReport R;
  Finding F;
  F.Function = "f";
  F.Block = 0;
  F.Instr = 1;
  F.Sev = Severity::Warn;
  F.Rule = kRuleUninitRead;
  F.Message = "register r1 ('a\"b') is suspicious";
  R.Findings.push_back(F);
  std::string Jsonl = R.renderJsonl("unit-1");
  EXPECT_NE(Jsonl.find("\"program\":\"unit-1\""), std::string::npos);
  EXPECT_NE(Jsonl.find("\"severity\":\"warn\""), std::string::npos);
  EXPECT_NE(Jsonl.find("\"rule\":\"uninit-read\""), std::string::npos);
  EXPECT_NE(Jsonl.find("\"block\":0"), std::string::npos);
  EXPECT_NE(Jsonl.find("('a\\\"b')"), std::string::npos);
  EXPECT_EQ(Jsonl.back(), '\n');
}

TEST(AnalysisReportTest, SortIsDeterministic) {
  AnalysisReport R;
  Finding A;
  A.Function = "b";
  A.Block = 0;
  A.Rule = kRuleDeadStore;
  Finding B;
  B.Function = "a";
  B.Block = 5;
  B.Rule = kRuleUninitRead;
  Finding C;
  C.Function = "a";
  C.Block = 2;
  C.Rule = kRuleUninitRead;
  R.Findings = {A, B, C};
  R.sortFindings();
  EXPECT_EQ(R.Findings[0].Function, "a");
  EXPECT_EQ(R.Findings[0].Block, 2);
  EXPECT_EQ(R.Findings[1].Block, 5);
  EXPECT_EQ(R.Findings[2].Function, "b");
}

//===----------------------------------------------------------------------===//
// Intraprocedural rules: one seeded-defect fixture and one clean fixture
// per rule.
//===----------------------------------------------------------------------===//

TEST(AnalyzeModule, UninitReadFlagged) {
  Module M = makeHarness(0, 2);
  Function &F = M.getFunction(0);
  BlockId B0 = F.addBlock();
  F.getBlock(B0).Instrs.push_back(Instr::makeMov(0, 1)); // r1 never defined
  F.getBlock(B0).Instrs.push_back(Instr::makeRet(0));
  ASSERT_EQ(verifyModuleText(M), "");
  AnalysisReport R = analyzeModule(M, AnalysisOptions());
  std::vector<Finding> Hits = findingsForRule(R, kRuleUninitRead);
  ASSERT_EQ(Hits.size(), 1u);
  EXPECT_EQ(Hits[0].Function, "f");
  EXPECT_EQ(Hits[0].Block, 0);
  EXPECT_EQ(Hits[0].Instr, 0);
  EXPECT_EQ(Hits[0].Sev, Severity::Warn);
  EXPECT_NE(Hits[0].Message.find("no definition reaches"), std::string::npos);
}

TEST(AnalyzeModule, UninitReadCleanWhenDefined) {
  Module M = makeHarness(0, 2);
  Function &F = M.getFunction(0);
  BlockId B0 = F.addBlock();
  F.getBlock(B0).Instrs.push_back(Instr::makeLdImm(1, 7));
  F.getBlock(B0).Instrs.push_back(Instr::makeMov(0, 1));
  F.getBlock(B0).Instrs.push_back(Instr::makeRet(0));
  ASSERT_EQ(verifyModuleText(M), "");
  AnalysisReport R = analyzeModule(M, AnalysisOptions());
  EXPECT_TRUE(findingsForRule(R, kRuleUninitRead).empty());
}

TEST(AnalyzeModule, ParametersCountAsDefined) {
  Module M = makeHarness(1, 2);
  Function &F = M.getFunction(0);
  BlockId B0 = F.addBlock();
  F.getBlock(B0).Instrs.push_back(Instr::makeMov(1, 0)); // reads the param
  F.getBlock(B0).Instrs.push_back(Instr::makeRet(1));
  ASSERT_EQ(verifyModuleText(M), "");
  AnalysisReport R = analyzeModule(M, AnalysisOptions());
  EXPECT_TRUE(findingsForRule(R, kRuleUninitRead).empty());
}

TEST(AnalyzeModule, OnePathDefinitionNotFlagged) {
  // The rule flags must-uninitialized reads only: a definition on one of
  // two paths suppresses the finding (may-analysis would over-report the
  // interpreter's defined zero-fill semantics).
  Module M = makeHarness(1, 2);
  Function &F = M.getFunction(0);
  BlockId B0 = F.addBlock(), B1 = F.addBlock(), B2 = F.addBlock(),
          B3 = F.addBlock();
  F.getBlock(B0).Instrs.push_back(Instr::makeCondBr(0, B1, B2));
  F.getBlock(B1).Instrs.push_back(Instr::makeLdImm(1, 1));
  F.getBlock(B1).Instrs.push_back(Instr::makeJump(B3));
  F.getBlock(B2).Instrs.push_back(Instr::makeJump(B3));
  F.getBlock(B3).Instrs.push_back(Instr::makeRet(1));
  ASSERT_EQ(verifyModuleText(M), "");
  AnalysisReport R = analyzeModule(M, AnalysisOptions());
  EXPECT_TRUE(findingsForRule(R, kRuleUninitRead).empty());
}

TEST(AnalyzeModule, UnreachableBlockFlagged) {
  Module M = makeHarness(0, 1);
  Function &F = M.getFunction(0);
  BlockId B0 = F.addBlock(), B1 = F.addBlock();
  F.getBlock(B0).Instrs.push_back(Instr::makeLdImm(0, 0));
  F.getBlock(B0).Instrs.push_back(Instr::makeRet(0));
  F.getBlock(B1).Instrs.push_back(Instr::makeRet(0));
  ASSERT_EQ(verifyModuleText(M), "");
  AnalysisReport R = analyzeModule(M, AnalysisOptions());
  std::vector<Finding> Hits = findingsForRule(R, kRuleUnreachableBlock);
  ASSERT_EQ(Hits.size(), 1u);
  EXPECT_EQ(Hits[0].Function, "f");
  EXPECT_EQ(Hits[0].Block, 1);
  EXPECT_EQ(Hits[0].Instr, -1);
  EXPECT_EQ(Hits[0].Sev, Severity::Warn);
}

TEST(AnalyzeModule, AllReachableIsClean) {
  Module M = makeDiamond();
  AnalysisReport R = analyzeModule(M, AnalysisOptions());
  EXPECT_TRUE(findingsForRule(R, kRuleUnreachableBlock).empty());
}

TEST(AnalyzeModule, DeadStoreFlagged) {
  Module M = makeHarness(0, 1);
  Function &F = M.getFunction(0);
  BlockId B0 = F.addBlock();
  F.getBlock(B0).Instrs.push_back(Instr::makeLdImm(0, 5)); // overwritten
  F.getBlock(B0).Instrs.push_back(Instr::makeLdImm(0, 6));
  F.getBlock(B0).Instrs.push_back(Instr::makeRet(0));
  ASSERT_EQ(verifyModuleText(M), "");
  AnalysisReport R = analyzeModule(M, AnalysisOptions());
  std::vector<Finding> Hits = findingsForRule(R, kRuleDeadStore);
  ASSERT_EQ(Hits.size(), 1u);
  EXPECT_EQ(Hits[0].Block, 0);
  EXPECT_EQ(Hits[0].Instr, 0);
  EXPECT_EQ(Hits[0].Sev, Severity::Warn);
  EXPECT_NE(Hits[0].Message.find("never read"), std::string::npos);
}

TEST(AnalyzeModule, LiveAcrossBranchIsClean) {
  Module M = makeDiamond();
  AnalysisReport R = analyzeModule(M, AnalysisOptions());
  EXPECT_TRUE(findingsForRule(R, kRuleDeadStore).empty());
}

TEST(AnalyzeModule, EffectfulInstructionsNeverDeadStores) {
  // An unused call result and an unused load result are not dead stores:
  // the call runs regardless, and the load's address check can trap.
  Module M = makeHarness(0, 3);
  M.addGlobal("g", 1);
  Function &F = M.getFunction(0);
  BlockId B0 = F.addBlock();
  F.getBlock(B0).Instrs.push_back(Instr::makeGlobalAddr(0, 0));
  F.getBlock(B0).Instrs.push_back(Instr::makeLoad(1, 0)); // r1 unused
  F.getBlock(B0).Instrs.push_back(Instr::makeLdImm(2, 0));
  F.getBlock(B0).Instrs.push_back(Instr::makeRet(2));
  Function &Main = M.getFunction(M.MainId);
  // main's call result feeds ret in the harness; rewrite so it is unused.
  Reg Zero = Main.addReg();
  Main.Blocks[0].Instrs.back() = Instr::makeLdImm(Zero, 0);
  Main.Blocks[0].Instrs.push_back(Instr::makeRet(Zero));
  ASSERT_EQ(verifyModuleText(M), "");
  AnalysisReport R = analyzeModule(M, AnalysisOptions());
  EXPECT_TRUE(findingsForRule(R, kRuleDeadStore).empty());
}

TEST(AnalyzeModule, RuleSelectionHonored) {
  Module M = makeHarness(0, 1);
  Function &F = M.getFunction(0);
  BlockId B0 = F.addBlock(), B1 = F.addBlock();
  F.getBlock(B0).Instrs.push_back(Instr::makeLdImm(0, 5));
  F.getBlock(B0).Instrs.push_back(Instr::makeLdImm(0, 6));
  F.getBlock(B0).Instrs.push_back(Instr::makeRet(0));
  F.getBlock(B1).Instrs.push_back(Instr::makeRet(0));
  AnalysisReport R = analyzeModule(M, onlyRules("unreachable-block"));
  EXPECT_FALSE(findingsForRule(R, kRuleUnreachableBlock).empty());
  EXPECT_TRUE(findingsForRule(R, kRuleDeadStore).empty());
}

//===----------------------------------------------------------------------===//
// Range-backed rules (guaranteed-trap, range-contradiction)
//===----------------------------------------------------------------------===//

TEST(GuaranteedTrap, DefiniteZeroDivisorIsAnError) {
  Module M = test::compileOk(R"MC(
int main() {
  int x;
  x = 0;
  return 5 / x;
}
)MC");
  ASSERT_EQ(verifyModuleText(M), "");
  AnalysisReport R = analyzeModule(M, onlyRules("guaranteed-trap"));
  std::vector<Finding> F = findingsForRule(R, kRuleGuaranteedTrap);
  ASSERT_EQ(F.size(), 1u) << R.renderText();
  EXPECT_EQ(F[0].Sev, Severity::Error);
  EXPECT_EQ(F[0].Function, "main");
  EXPECT_NE(F[0].Message.find("provably zero"), std::string::npos);
}

TEST(GuaranteedTrap, ProvablyNonzeroDivisorIsClean) {
  Module M = test::compileOk(R"MC(
extern int getchar();
int main() {
  int d;
  d = (getchar() & 7) + 1;
  return 100 / d;
}
)MC");
  ASSERT_EQ(verifyModuleText(M), "");
  AnalysisReport R = analyzeModule(M, onlyRules("guaranteed-trap"));
  EXPECT_TRUE(findingsForRule(R, kRuleGuaranteedTrap).empty())
      << R.renderText();
}

TEST(GuaranteedTrap, TrapInRangeUnreachableBlockNotReported) {
  // The division by zero sits behind a condition range propagation
  // proves false, so it never executes — the trap rule must stay quiet
  // (that block is range-contradiction's finding instead).
  Module M = test::compileOk(R"MC(
int main() {
  int x;
  int z;
  x = 3;
  z = 0;
  if (x > 5) {
    return 1 / z;
  }
  return 0;
}
)MC");
  ASSERT_EQ(verifyModuleText(M), "");
  AnalysisReport R = analyzeModule(M, onlyRules("guaranteed-trap"));
  EXPECT_TRUE(findingsForRule(R, kRuleGuaranteedTrap).empty())
      << R.renderText();
}

TEST(RangeContradiction, ContradictoryBranchIsAWarning) {
  Module M = test::compileOk(R"MC(
int main() {
  int x;
  x = 3;
  if (x > 5) {
    return 1;
  }
  return 0;
}
)MC");
  ASSERT_EQ(verifyModuleText(M), "");
  AnalysisReport R = analyzeModule(M, onlyRules("range-contradiction"));
  std::vector<Finding> F = findingsForRule(R, kRuleRangeContradiction);
  ASSERT_FALSE(F.empty()) << R.renderText();
  EXPECT_EQ(F[0].Sev, Severity::Warn);
  EXPECT_EQ(F[0].Function, "main");
}

TEST(RangeContradiction, DataDependentBranchIsClean) {
  Module M = test::compileOk(R"MC(
extern int getchar();
int main() {
  if (getchar() > 5) {
    return 1;
  }
  return 0;
}
)MC");
  ASSERT_EQ(verifyModuleText(M), "");
  AnalysisReport R = analyzeModule(M, onlyRules("range-contradiction"));
  EXPECT_TRUE(findingsForRule(R, kRuleRangeContradiction).empty())
      << R.renderText();
}

TEST(RangeContradiction, NeverCalledFunctionReportedOnceAtEntry) {
  Module M = test::compileOk(R"MC(
int orphan(int x) {
  if (x > 0) {
    return 1;
  }
  return 2;
}
int main() {
  return 0;
}
)MC");
  ASSERT_EQ(verifyModuleText(M), "");
  AnalysisReport R = analyzeModule(M, onlyRules("range-contradiction"));
  std::vector<Finding> F = findingsForRule(R, kRuleRangeContradiction);
  ASSERT_EQ(F.size(), 1u) << R.renderText();
  EXPECT_EQ(F[0].Function, "orphan");
  EXPECT_EQ(F[0].Block, 0);
  EXPECT_NE(F[0].Message.find("never entered"), std::string::npos);
}

//===----------------------------------------------------------------------===//
// Inliner-invariant audits. Clean fixtures use the real inline pass on a
// call-heavy program; defect fixtures corrupt its result in exactly one
// way.
//===----------------------------------------------------------------------===//

struct InlinedProgram {
  Module M;
  ProfileData Profile;
  InlineResult Inline;
};

InlinedProgram makeInlinedCallHeavy() {
  InlinedProgram P;
  P.M = test::compileOk(test::kCallHeavyProgram);
  ProfileResult PR = test::profileInputs(P.M, {std::string(50, 'x')});
  P.Profile = PR.Data;
  P.Inline = runInlineExpansion(P.M, P.Profile);
  return P;
}

AnalysisReport runAudits(const InlinedProgram &P, const AnalysisOptions &O) {
  AnalysisReport R;
  analyzeInlineInvariants(P.M, P.Inline, P.Profile, O, R);
  return R;
}

TEST(AnalysisAudit, RealInlineResultIsClean) {
  InlinedProgram P = makeInlinedCallHeavy();
  ASSERT_FALSE(P.Inline.Expansions.empty());
  AnalysisReport R = runAudits(P, AnalysisOptions());
  EXPECT_EQ(R.countSeverity(Severity::Error), 0u) << R.renderText();
}

TEST(AnalysisAudit, SafeExpansionFlagsMisclassifiedSite) {
  InlinedProgram P = makeInlinedCallHeavy();
  ASSERT_FALSE(P.Inline.Expansions.empty());
  uint32_t Site = P.Inline.Expansions.front().SiteId;
  bool Corrupted = false;
  for (SiteInfo &S : P.Inline.Classes.Sites)
    if (S.SiteId == Site) {
      S.Class = SiteClass::Unsafe;
      Corrupted = true;
    }
  ASSERT_TRUE(Corrupted);
  AnalysisReport R = runAudits(P, onlyRules("audit-safe-expansion"));
  std::vector<Finding> Hits = findingsForRule(R, kRuleAuditSafeExpansion);
  ASSERT_FALSE(Hits.empty());
  EXPECT_EQ(Hits[0].Sev, Severity::Error);
  EXPECT_NE(Hits[0].Message.find("not safe"), std::string::npos);
}

TEST(AnalysisAudit, SafeExpansionFlagsUnclassifiedSite) {
  InlinedProgram P = makeInlinedCallHeavy();
  ASSERT_FALSE(P.Inline.Expansions.empty());
  uint32_t Site = P.Inline.Expansions.front().SiteId;
  std::erase_if(P.Inline.Classes.Sites,
                [Site](const SiteInfo &S) { return S.SiteId == Site; });
  AnalysisReport R = runAudits(P, onlyRules("audit-safe-expansion"));
  std::vector<Finding> Hits = findingsForRule(R, kRuleAuditSafeExpansion);
  ASSERT_FALSE(Hits.empty());
  EXPECT_NE(Hits[0].Message.find("call-site classification"),
            std::string::npos);
}

/// The first remaining call instruction of \p M, or null.
Instr *findAnyCall(Module &M) {
  for (Function &F : M.Funcs)
    for (BasicBlock &B : F.Blocks)
      for (Instr &I : B.Instrs)
        if (I.isCall())
          return &I;
  return nullptr;
}

TEST(AnalysisAudit, CallGraphFlagsDanglingSiteId) {
  InlinedProgram P = makeInlinedCallHeavy();
  Instr *Call = findAnyCall(P.M);
  ASSERT_NE(Call, nullptr);
  Call->SiteId = P.M.NextSiteId + 7;
  AnalysisReport R = runAudits(P, onlyRules("audit-callgraph"));
  std::vector<Finding> Hits = findingsForRule(R, kRuleAuditCallGraph);
  ASSERT_FALSE(Hits.empty());
  EXPECT_NE(Hits[0].Message.find("dangling site id"), std::string::npos);
}

TEST(AnalysisAudit, CallGraphFlagsArityMismatch) {
  InlinedProgram P = makeInlinedCallHeavy();
  Instr *Call = findAnyCall(P.M);
  ASSERT_NE(Call, nullptr);
  Call->Args.push_back(0);
  AnalysisReport R = runAudits(P, onlyRules("audit-callgraph"));
  bool Found = false;
  for (const Finding &F : findingsForRule(R, kRuleAuditCallGraph))
    Found |= F.Message.find("arity mismatch") != std::string::npos;
  EXPECT_TRUE(Found) << R.renderText();
}

TEST(AnalysisAudit, CallGraphFlagsPhantomExpansion) {
  // The plan claims a still-present site was expanded; both halves of the
  // inconsistency must surface (call present + no expansion record).
  InlinedProgram P = makeInlinedCallHeavy();
  Instr *Call = findAnyCall(P.M);
  ASSERT_NE(Call, nullptr);
  PlannedSite Phantom;
  Phantom.SiteId = Call->SiteId;
  Phantom.Caller = 0;
  Phantom.Status = ArcStatus::Expanded;
  // Replace any real ruling on this site so findSite sees the phantom.
  std::erase_if(P.Inline.Plan.Sites, [&](const PlannedSite &S) {
    return S.SiteId == Phantom.SiteId;
  });
  P.Inline.Plan.Sites.push_back(Phantom);
  AnalysisReport R = runAudits(P, onlyRules("audit-callgraph"));
  bool StillPresent = false, NoRecord = false;
  for (const Finding &F : findingsForRule(R, kRuleAuditCallGraph)) {
    StillPresent |=
        F.Message.find("call is still present") != std::string::npos;
    NoRecord |= F.Message.find("no expansion record") != std::string::npos;
  }
  EXPECT_TRUE(StillPresent) << R.renderText();
  EXPECT_TRUE(NoRecord) << R.renderText();
}

TEST(AnalysisAudit, WeightConservationCleanOnRealResult) {
  InlinedProgram P = makeInlinedCallHeavy();
  AnalysisReport R = runAudits(P, onlyRules("audit-weight-conservation"));
  EXPECT_EQ(R.countSeverity(Severity::Error), 0u) << R.renderText();
}

TEST(AnalysisAudit, WeightConservationCatchesBrokenRedistribution) {
  // The historical bug class this audit exists for: redistribution that
  // zeroes the expanded arc but forgets to shrink the callee's node
  // weight. The test-only switch reintroduces it.
  InlinedProgram P = makeInlinedCallHeavy();
  ASSERT_FALSE(P.Inline.Expansions.empty());
  setWeightRedistributionBugForTest(true);
  AnalysisReport Broken = runAudits(P, onlyRules("audit-weight-conservation"));
  setWeightRedistributionBugForTest(false);
  std::vector<Finding> Hits =
      findingsForRule(Broken, kRuleAuditWeightConservation);
  ASSERT_FALSE(Hits.empty());
  EXPECT_EQ(Hits[0].Sev, Severity::Error);
  EXPECT_NE(Hits[0].Message.find("does not match incoming arc weight"),
            std::string::npos);
  // And the same program audits clean once the defect is gone again.
  AnalysisReport Clean = runAudits(P, onlyRules("audit-weight-conservation"));
  EXPECT_EQ(Clean.countSeverity(Severity::Error), 0u) << Clean.renderText();
}

TEST(AnalysisAudit, LinearizationCleanOnRealResult) {
  InlinedProgram P = makeInlinedCallHeavy();
  AnalysisReport R = runAudits(P, onlyRules("audit-linearization"));
  EXPECT_EQ(R.countSeverity(Severity::Error), 0u) << R.renderText();
}

TEST(AnalysisAudit, LinearizationFlagsOrderViolation) {
  InlinedProgram P = makeInlinedCallHeavy();
  ASSERT_FALSE(P.Inline.Expansions.empty());
  const ExpansionRecord &Rec = P.Inline.Expansions.front();
  std::swap(P.Inline.Linear.Position[static_cast<size_t>(Rec.Caller)],
            P.Inline.Linear.Position[static_cast<size_t>(Rec.Callee)]);
  AnalysisReport R = runAudits(P, onlyRules("audit-linearization"));
  std::vector<Finding> Hits = findingsForRule(R, kRuleAuditLinearization);
  ASSERT_FALSE(Hits.empty());
  EXPECT_EQ(Hits[0].Sev, Severity::Error);
}

TEST(AnalysisAudit, LinearizationFlagsRecordOutsideSequence) {
  InlinedProgram P = makeInlinedCallHeavy();
  ExpansionRecord Bogus;
  Bogus.SiteId = 1;
  Bogus.Caller = 9999;
  Bogus.Callee = 0;
  P.Inline.Expansions.push_back(Bogus);
  AnalysisReport R = runAudits(P, onlyRules("audit-linearization"));
  bool Found = false;
  for (const Finding &F : findingsForRule(R, kRuleAuditLinearization))
    Found |= F.Message.find("outside the linear sequence") !=
             std::string::npos;
  EXPECT_TRUE(Found) << R.renderText();
}

//===----------------------------------------------------------------------===//
// Pipeline integration
//===----------------------------------------------------------------------===//

std::vector<RunInput> pipelineInputs() {
  return {RunInput{std::string(50, 'x'), ""}};
}

TEST(AnalyzePipeline, CleanProgramSurvivesWithAnalyzeOn) {
  PipelineOptions Options;
  Options.Analyze = true;
  PipelineResult R = runPipeline(test::kCallHeavyProgram, "callheavy",
                                 pipelineInputs(), Options);
  ASSERT_TRUE(R.Ok) << R.Error;
  EXPECT_EQ(R.Analysis.countSeverity(Severity::Error), 0u)
      << R.Analysis.renderText();
  EXPECT_TRUE(R.outputsMatch());
}

TEST(AnalyzePipeline, ErrorFindingsQuarantineTheUnit) {
  PipelineOptions Options;
  Options.Analyze = true;
  setWeightRedistributionBugForTest(true);
  PipelineResult R = runPipeline(test::kCallHeavyProgram, "callheavy",
                                 pipelineInputs(), Options);
  setWeightRedistributionBugForTest(false);
  ASSERT_FALSE(R.Ok);
  EXPECT_EQ(R.Failure.Stage, "analyze");
  EXPECT_EQ(R.Failure.Reason, "finding");
  EXPECT_EQ(R.Failure.Unit, "callheavy");
  EXPECT_EQ(R.Stats.UnitsFailed, 1u);
  EXPECT_NE(R.Error.find(kRuleAuditWeightConservation), std::string::npos);
  // The full report survives quarantine for rendering.
  EXPECT_GT(R.Analysis.countSeverity(Severity::Error), 0u);
}

TEST(AnalyzePipeline, SurvivorsBitIdenticalWithAnalyzeOnOrOff) {
  PipelineOptions Off;
  PipelineOptions On;
  On.Analyze = true;
  PipelineResult A = runPipeline(test::kCallHeavyProgram, "callheavy",
                                 pipelineInputs(), Off);
  PipelineResult B = runPipeline(test::kCallHeavyProgram, "callheavy",
                                 pipelineInputs(), On);
  ASSERT_TRUE(A.Ok && B.Ok);
  EXPECT_EQ(printModule(A.FinalModule), printModule(B.FinalModule));
  EXPECT_EQ(A.OutputsAfter, B.OutputsAfter);
  EXPECT_TRUE(A.Before == B.Before);
  EXPECT_TRUE(A.After == B.After);
  EXPECT_TRUE(A.Inline.Plan == B.Inline.Plan);
  // Analysis-off runs never spend analyze time or produce findings.
  EXPECT_EQ(A.Stats.AnalyzeSeconds, 0.0);
  EXPECT_TRUE(A.Analysis.Findings.empty());
}

TEST(AnalyzePipeline, RuleSelectionReachesTheStage) {
  PipelineOptions Options;
  Options.Analyze = true;
  std::string Error;
  ASSERT_TRUE(parseAnalysisRules("audit-safe-expansion,audit-callgraph",
                                 Options.Analysis, &Error))
      << Error;
  PipelineResult R = runPipeline(test::kCallHeavyProgram, "callheavy",
                                 pipelineInputs(), Options);
  ASSERT_TRUE(R.Ok) << R.Error;
  for (const Finding &F : R.Analysis.Findings)
    EXPECT_TRUE(F.Rule == kRuleAuditSafeExpansion ||
                F.Rule == kRuleAuditCallGraph)
        << F.render();
}

//===----------------------------------------------------------------------===//
// Dead-store findings under the widened optimizer
//===----------------------------------------------------------------------===//

size_t deadStoresAfter(std::string_view Source, const OptOptions &Passes) {
  Module M = test::compileOk(Source);
  runOptimizationPipeline(M, Passes);
  EXPECT_EQ(verifyModuleText(M), "");
  AnalysisReport R = analyzeModule(M, onlyRules("dead-store"));
  return findingsForRule(R, kRuleDeadStore).size();
}

TEST(AnalyzePipeline, DeadStoresNeverIncreaseUnderWidenedPipeline) {
  // Pipeline-level form of the dead-store audit: suite-wide, turning on
  // the post-inline cleanup (licm) on top of the quartet must
  // never mint new dead stores. LICM in particular moves stores-to-
  // registers across blocks and DCE follows it — any liveness regression
  // in that dance shows up here as a rising count.
  OptOptions Baseline;
  OptOptions Widened;
  std::string Error;
  ASSERT_TRUE(parseOptPasses("all,-tre", Widened, &Error)) << Error;
  for (const BenchmarkSpec &Spec : getBenchmarkSuite()) {
    SCOPED_TRACE(Spec.Name);
    EXPECT_LE(deadStoresAfter(Spec.Source, Widened),
              deadStoresAfter(Spec.Source, Baseline));
  }
}

} // namespace
