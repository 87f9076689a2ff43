//===- analysis/Analyzer.cpp ---------------------------------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "analysis/Analyzer.h"

#include "analysis/RangeAnalysis.h"
#include "core/WeightRedistribution.h"
#include "support/CommandLine.h"
#include "support/StringUtils.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <tuple>

using namespace impact;

const char *impact::getSeverityName(Severity S) {
  return S == Severity::Warn ? "warn" : "error";
}

std::string Finding::render() const {
  std::string Out = getSeverityName(Sev);
  Out += "[";
  Out += Rule;
  Out += "] ";
  Out += Function.empty() ? "<module>" : Function;
  if (Block >= 0) {
    Out += " bb" + std::to_string(Block);
    if (Instr >= 0)
      Out += "#" + std::to_string(Instr);
  }
  Out += ": ";
  Out += Message;
  return Out;
}

namespace {

/// The one rule table: spec names, option flags, severities, and the
/// one-line descriptions the help listing prints. parseAnalysisRules and
/// renderAnalysisRuleTable must never disagree, so both read this.
struct RuleDesc {
  const char *Name;
  bool AnalysisOptions::*Flag;
  Severity Sev;
  const char *Desc;
};

constexpr RuleDesc kRuleTable[] = {
    {kRuleUninitRead, &AnalysisOptions::UninitRead, Severity::Warn,
     "register read that no definition reaches (the engines see 0)"},
    {kRuleUnreachableBlock, &AnalysisOptions::UnreachableBlock, Severity::Warn,
     "basic block unreachable from the function entry"},
    {kRuleDeadStore, &AnalysisOptions::DeadStore, Severity::Warn,
     "pure value written to a register that is never read"},
    {kRuleAuditSafeExpansion, &AnalysisOptions::AuditSafeExpansion,
     Severity::Error,
     "an expanded site was not classified safe / planned for expansion"},
    {kRuleAuditCallGraph, &AnalysisOptions::AuditCallGraph, Severity::Error,
     "post-expansion call-graph inconsistency (dangling site ids, arity)"},
    {kRuleAuditWeightConservation, &AnalysisOptions::AuditWeightConservation,
     Severity::Error,
     "redistributed profile weights do not conserve call volume"},
    {kRuleAuditLinearization, &AnalysisOptions::AuditLinearization,
     Severity::Error, "expansion sequence violated the linear order"},
    {kRuleGuaranteedTrap, &AnalysisOptions::GuaranteedTrap, Severity::Error,
     "instruction in a range-reachable block traps on every execution"},
    {kRuleRangeContradiction, &AnalysisOptions::RangeContradiction,
     Severity::Warn,
     "CFG-reachable block that range propagation proves never executes"},
};

} // namespace

std::string impact::renderAnalysisRuleTable() {
  std::string Out =
      "analysis rules (--analyze=<spec>; a spec is a comma list of rule "
      "names,\n\"all\", or \"-name\" to disable; \"help\" prints this "
      "table):\n";
  size_t Width = 0;
  for (const RuleDesc &R : kRuleTable)
    Width = std::max(Width, std::string_view(R.Name).size());
  for (const RuleDesc &R : kRuleTable) {
    std::string_view Name = R.Name;
    Out += "  ";
    Out += Name;
    Out.append(Width - Name.size() + 2, ' ');
    std::string_view Sev = getSeverityName(R.Sev);
    Out += Sev;
    Out.append(6 - Sev.size() + 2, ' ');
    Out += R.Desc;
    Out += '\n';
  }
  return Out;
}

bool impact::parseAnalysisRules(std::string_view Spec, AnalysisOptions &Out,
                                std::string *Error) {
  std::vector<std::string_view> Names;
  for (const RuleDesc &R : kRuleTable)
    Names.push_back(R.Name);
  std::vector<bool> Selected;
  std::string_view Unknown;
  if (!cli::parseSelection(Spec, Names, Selected, Unknown)) {
    if (Error) {
      *Error = "unknown analysis rule '" + std::string(Unknown) + "'";
      if (std::string_view Best = findClosestMatch(Unknown, Names);
          !Best.empty())
        *Error += "; did you mean '" + std::string(Best) + "'?";
      *Error += " valid: all";
      for (std::string_view Name : Names)
        *Error += ", " + std::string(Name);
      *Error += ", help";
    }
    return false;
  }
  for (size_t I = 0; I != Names.size(); ++I)
    Out.*(kRuleTable[I].Flag) = Selected[I];
  return true;
}

size_t AnalysisReport::countSeverity(Severity S) const {
  size_t N = 0;
  for (const Finding &F : Findings)
    N += F.Sev == S;
  return N;
}

std::vector<std::pair<std::string, size_t>> AnalysisReport::countByRule()
    const {
  std::map<std::string, size_t> Counts;
  for (const Finding &F : Findings)
    ++Counts[F.Rule];
  return {Counts.begin(), Counts.end()};
}

void AnalysisReport::sortFindings() {
  std::stable_sort(Findings.begin(), Findings.end(),
                   [](const Finding &A, const Finding &B) {
                     return std::tie(A.Function, A.Block, A.Instr, A.Rule,
                                     A.Message) <
                            std::tie(B.Function, B.Block, B.Instr, B.Rule,
                                     B.Message);
                   });
}

std::string AnalysisReport::renderText() const {
  std::string Out;
  for (const Finding &F : Findings) {
    Out += F.render();
    Out += '\n';
  }
  return Out;
}

std::string AnalysisReport::renderJsonl(std::string_view Program) const {
  std::string Out;
  for (const Finding &F : Findings) {
    Out += "{";
    if (!Program.empty())
      Out += "\"program\":\"" + jsonEscape(Program) + "\",";
    Out += "\"severity\":\"" + std::string(getSeverityName(F.Sev)) + "\"";
    Out += ",\"rule\":\"" + jsonEscape(F.Rule) + "\"";
    Out += ",\"function\":\"" + jsonEscape(F.Function) + "\"";
    Out += ",\"block\":" + std::to_string(F.Block);
    Out += ",\"instr\":" + std::to_string(F.Instr);
    Out += ",\"message\":\"" + jsonEscape(F.Message) + "\"}\n";
  }
  return Out;
}

namespace {

/// "register r3" or "register r3 ('sum')" when the function names it.
std::string describeReg(const Function &F, Reg R) {
  std::string Out = "register r" + std::to_string(R);
  size_t Index = static_cast<size_t>(R);
  if (Index < F.RegNames.size() && !F.RegNames[Index].empty())
    Out += " ('" + F.RegNames[Index] + "')";
  return Out;
}

void addFinding(AnalysisReport &Report, std::string Function, BlockId Block,
                int Instr, Severity Sev, const char *Rule,
                std::string Message) {
  Finding F;
  F.Function = std::move(Function);
  F.Block = Block;
  F.Instr = Instr;
  F.Sev = Sev;
  F.Rule = Rule;
  F.Message = std::move(Message);
  Report.Findings.push_back(std::move(F));
}

void checkUninitReads(const Function &F, const Cfg &G,
                      const ReachingDefsAnalysis &Reach,
                      AnalysisReport &Report) {
  std::vector<Reg> Uses;
  std::vector<bool> Defined(F.NumRegs);
  for (size_t B = 0; B != F.Blocks.size(); ++B) {
    // Facts in unreachable blocks have no boundary feeding them; the
    // unreachable-block rule reports those blocks instead.
    if (!G.isReachable(static_cast<BlockId>(B)))
      continue;
    for (uint32_t R = 0; R != F.NumRegs; ++R)
      Defined[R] = Reach.anyDefReaches(Reach.ReachIn[B], static_cast<Reg>(R));
    const BasicBlock &Block = F.Blocks[B];
    for (size_t Idx = 0; Idx != Block.Instrs.size(); ++Idx) {
      const Instr &I = Block.Instrs[Idx];
      Uses.clear();
      collectUses(I, Uses);
      for (Reg U : Uses) {
        if (static_cast<uint32_t>(U) >= F.NumRegs)
          continue; // out-of-range registers are the verifier's finding
        if (!Defined[static_cast<size_t>(U)])
          addFinding(Report, F.Name, static_cast<BlockId>(B),
                     static_cast<int>(Idx), Severity::Warn, kRuleUninitRead,
                     describeReg(F, U) +
                         " is read but no definition reaches this use "
                         "(the interpreter will see 0)");
      }
      Reg D = instrDef(I);
      if (D != kNoReg && static_cast<uint32_t>(D) < F.NumRegs)
        Defined[static_cast<size_t>(D)] = true;
    }
  }
}

void checkUnreachableBlocks(const Function &F, const Cfg &G,
                            AnalysisReport &Report) {
  for (size_t B = 1; B < F.Blocks.size(); ++B)
    if (!G.isReachable(static_cast<BlockId>(B)))
      addFinding(Report, F.Name, static_cast<BlockId>(B), -1, Severity::Warn,
                 kRuleUnreachableBlock,
                 "block is unreachable from the entry (" +
                     std::to_string(F.Blocks[B].size()) + " instruction(s))");
}

void checkDeadStores(const Function &F, const Cfg &G,
                     const LivenessAnalysis &Live, AnalysisReport &Report) {
  std::vector<Reg> Uses;
  for (size_t B = 0; B != F.Blocks.size(); ++B) {
    if (!G.isReachable(static_cast<BlockId>(B)))
      continue;
    BitVector LiveNow = Live.LiveOut[B];
    const BasicBlock &Block = F.Blocks[B];
    for (size_t Idx = Block.Instrs.size(); Idx-- != 0;) {
      const Instr &I = Block.Instrs[Idx];
      Reg D = instrDef(I);
      if (D != kNoReg && static_cast<uint32_t>(D) < F.NumRegs) {
        // Only a pure instruction is wholly dead with its destination: a
        // call still happens, and a load or div/rem can still trap.
        if (!LiveNow.test(static_cast<size_t>(D)) && isPure(I.Op))
          addFinding(Report, F.Name, static_cast<BlockId>(B),
                     static_cast<int>(Idx), Severity::Warn, kRuleDeadStore,
                     "value written to " + describeReg(F, D) +
                         " is never read (dead store)");
        LiveNow.reset(static_cast<size_t>(D));
      }
      Uses.clear();
      collectUses(I, Uses);
      for (Reg U : Uses)
        if (static_cast<uint32_t>(U) < F.NumRegs)
          LiveNow.set(static_cast<size_t>(U));
    }
  }
}

/// An instruction whose operand intervals prove it traps on every
/// execution of a range-reachable block: a divisor exactly zero, the one
/// INT64_MIN / -1 overflow, or an address provably outside every mapped
/// segment. The engines make all three observable as traps, so an error
/// here means the program cannot execute this instruction and survive.
void checkGuaranteedTraps(const Function &F, const RangeAnalysis &RA,
                          int64_t GlobalLo, int64_t GlobalHi,
                          AnalysisReport &Report) {
  RangeAnalysis::Env E;
  for (size_t B = 0; B != F.Blocks.size(); ++B) {
    BlockId Id = static_cast<BlockId>(B);
    if (!RA.isReachable(Id))
      continue;
    E = RA.blockIn(Id);
    const BasicBlock &Block = F.Blocks[B];
    for (size_t Idx = 0; Idx != Block.Instrs.size(); ++Idx) {
      const Instr &I = Block.Instrs[Idx];
      switch (I.Op) {
      case Opcode::Div:
      case Opcode::Rem: {
        // Against one divisor the trapping dividends form an interval
        // (all of them, or none, or exactly INT64_MIN), so the operation
        // traps on every execution iff it traps at both dividend ends.
        Interval Dividend = RangeAnalysis::get(E, I.Src1);
        Interval Divisor = RangeAnalysis::get(E, I.Src2);
        if (!Divisor.isConstant() ||
            evalBinary(I.Op, Dividend.Lo, Divisor.Lo) ||
            evalBinary(I.Op, Dividend.Hi, Divisor.Lo))
          break;
        const char *What = I.Op == Opcode::Div ? "division" : "remainder";
        addFinding(Report, F.Name, Id, static_cast<int>(Idx), Severity::Error,
                   kRuleGuaranteedTrap,
                   Divisor.Lo == 0
                       ? std::string(What) + " by " + describeReg(F, I.Src2) +
                             " which is provably zero; this instruction "
                             "traps on every execution"
                       : std::string(What) +
                             " provably overflows (INT64_MIN / -1); this "
                             "instruction traps on every execution");
        break;
      }
      case Opcode::Load:
      case Opcode::Store: {
        Interval Addr = RangeAnalysis::get(E, I.Src1);
        bool BelowGlobals = !Addr.isBottom() && Addr.Hi < GlobalLo;
        bool InHole = !Addr.isBottom() && Addr.Lo >= GlobalHi &&
                      Addr.Hi < kStackBase;
        if (BelowGlobals || InHole)
          addFinding(Report, F.Name, Id, static_cast<int>(Idx),
                     Severity::Error, kRuleGuaranteedTrap,
                     std::string(I.Op == Opcode::Load ? "load" : "store") +
                         " address " + renderInterval(Addr) +
                         " is provably outside every mapped segment; this "
                         "instruction traps on every execution");
        break;
      }
      default:
        break;
      }
      RA.step(I, E);
    }
  }
}

/// Blocks the CFG can reach but range propagation proves never execute.
/// One finding per contradicted block — except a never-entered function,
/// which gets a single finding at its entry instead of one per block.
void checkRangeContradictions(const Function &F, const Cfg &G,
                              const RangeAnalysis &RA,
                              AnalysisReport &Report) {
  if (!F.Blocks.empty() && !RA.isReachable(0)) {
    addFinding(Report, F.Name, 0, -1, Severity::Warn, kRuleRangeContradiction,
               "function is never entered (its interprocedural formal "
               "summary is empty); the whole body is dynamically dead");
    return;
  }
  for (size_t B = 1; B < F.Blocks.size(); ++B) {
    BlockId Id = static_cast<BlockId>(B);
    if (G.isReachable(Id) && !RA.isReachable(Id))
      addFinding(Report, F.Name, Id, -1, Severity::Warn,
                 kRuleRangeContradiction,
                 "block is CFG-reachable but range propagation proves it "
                 "never executes (contradictory branch conditions)");
  }
}

} // namespace

AnalysisReport impact::analyzeModule(const Module &M,
                                     const AnalysisOptions &Options) {
  AnalysisReport Report;
  if (Options.GuaranteedTrap || Options.RangeContradiction) {
    // The range rules read the fact pass's own final per-function solves
    // instead of solving every function again.
    const int64_t GlobalLo = kGlobalBase;
    const int64_t GlobalHi = kGlobalBase + M.getGlobalSegmentSize();
    (void)computeModuleRangeFacts(
        M, [&](const Function &F, const Cfg &G, const RangeAnalysis &RA) {
          if (Options.GuaranteedTrap)
            checkGuaranteedTraps(F, RA, GlobalLo, GlobalHi, Report);
          if (Options.RangeContradiction)
            checkRangeContradictions(F, G, RA, Report);
        });
  }
  for (const Function &F : M.Funcs) {
    if (F.IsExternal || F.Eliminated || F.Blocks.empty())
      continue;
    Cfg G(F);
    if (Options.UnreachableBlock)
      checkUnreachableBlocks(F, G, Report);
    if (Options.UninitRead) {
      ReachingDefsAnalysis Reach = computeReachingDefs(F, G);
      checkUninitReads(F, G, Reach, Report);
    }
    if (Options.DeadStore) {
      LivenessAnalysis Live = computeLiveness(F, G);
      checkDeadStores(F, G, Live, Report);
    }
  }
  Report.sortFindings();
  return Report;
}

namespace {

std::string auditFuncName(const Module &M, FuncId Id) {
  if (Id < 0 || static_cast<size_t>(Id) >= M.Funcs.size())
    return "<func#" + std::to_string(Id) + ">";
  return M.Funcs[static_cast<size_t>(Id)].Name;
}

/// (a) Every physically expanded site must have been classified safe and
/// planned ToBeExpanded (marked Expanded by the expander).
void auditSafeExpansion(const Module &M, const InlineResult &Inline,
                        AnalysisReport &Report) {
  for (const ExpansionRecord &Rec : Inline.Expansions) {
    std::string Caller = auditFuncName(M, Rec.Caller);
    const SiteInfo *Info = Inline.Classes.findSite(Rec.SiteId);
    if (!Info) {
      addFinding(Report, Caller, -1, -1, Severity::Error,
                 kRuleAuditSafeExpansion,
                 "expanded site " + std::to_string(Rec.SiteId) +
                     " does not appear in the call-site classification");
    } else if (Info->Class != SiteClass::Safe) {
      addFinding(Report, Caller, -1, -1, Severity::Error,
                 kRuleAuditSafeExpansion,
                 "expanded site " + std::to_string(Rec.SiteId) + " ('" +
                     Caller + "' -> '" + auditFuncName(M, Rec.Callee) +
                     "') was classified " +
                     getSiteClassName(Info->Class) + ", not safe");
    }
    const PlannedSite *P = Inline.Plan.findSite(Rec.SiteId);
    if (!P) {
      addFinding(Report, Caller, -1, -1, Severity::Error,
                 kRuleAuditSafeExpansion,
                 "expanded site " + std::to_string(Rec.SiteId) +
                     " does not appear in the inline plan");
    } else if (P->Status != ArcStatus::Expanded) {
      addFinding(Report, Caller, -1, -1, Severity::Error,
                 kRuleAuditSafeExpansion,
                 "expanded site " + std::to_string(Rec.SiteId) +
                     " has plan status " + getArcStatusName(P->Status) +
                     ", expected expanded");
    }
  }
}

/// (b) Post-expansion call-graph arc consistency: remaining sites carry
/// valid, unique, in-range ids; direct arcs point at live functions with
/// matching arity; expanded arcs are gone; every planned expansion has a
/// record.
void auditCallGraph(const Module &M, const InlineResult &Inline,
                    AnalysisReport &Report) {
  std::vector<bool> Seen(M.NextSiteId, false);
  for (const Function &F : M.Funcs) {
    for (size_t B = 0; B != F.Blocks.size(); ++B) {
      const BasicBlock &Block = F.Blocks[B];
      for (size_t Idx = 0; Idx != Block.Instrs.size(); ++Idx) {
        const Instr &I = Block.Instrs[Idx];
        if (!I.isCall())
          continue;
        BlockId Bl = static_cast<BlockId>(B);
        int In = static_cast<int>(Idx);
        if (I.SiteId == 0 || I.SiteId >= M.NextSiteId) {
          addFinding(Report, F.Name, Bl, In, Severity::Error,
                     kRuleAuditCallGraph,
                     "call carries dangling site id " +
                         std::to_string(I.SiteId) + " (module NextSiteId " +
                         std::to_string(M.NextSiteId) + ")");
          continue;
        }
        if (Seen[I.SiteId])
          addFinding(Report, F.Name, Bl, In, Severity::Error,
                     kRuleAuditCallGraph,
                     "site id " + std::to_string(I.SiteId) +
                         " appears on more than one call");
        Seen[I.SiteId] = true;
        if (const PlannedSite *P = Inline.Plan.findSite(I.SiteId);
            P && P->Status == ArcStatus::Expanded)
          addFinding(Report, F.Name, Bl, In, Severity::Error,
                     kRuleAuditCallGraph,
                     "site " + std::to_string(I.SiteId) +
                         " is marked expanded but the call is still present");
        if (I.Op != Opcode::Call)
          continue;
        if (I.Callee < 0 || static_cast<size_t>(I.Callee) >= M.Funcs.size()) {
          addFinding(Report, F.Name, Bl, In, Severity::Error,
                     kRuleAuditCallGraph,
                     "direct call at site " + std::to_string(I.SiteId) +
                         " names nonexistent function #" +
                         std::to_string(I.Callee));
          continue;
        }
        const Function &Callee = M.Funcs[static_cast<size_t>(I.Callee)];
        if (Callee.Eliminated)
          addFinding(Report, F.Name, Bl, In, Severity::Error,
                     kRuleAuditCallGraph,
                     "direct call at site " + std::to_string(I.SiteId) +
                         " targets eliminated function '" + Callee.Name +
                         "'");
        if (I.Args.size() != Callee.NumParams)
          addFinding(Report, F.Name, Bl, In, Severity::Error,
                     kRuleAuditCallGraph,
                     "arity mismatch at site " + std::to_string(I.SiteId) +
                         ": passes " + std::to_string(I.Args.size()) +
                         " argument(s) to '" + Callee.Name +
                         "' which takes " +
                         std::to_string(Callee.NumParams));
      }
    }
  }
  // Every planned expansion must have actually happened.
  std::vector<bool> Recorded(M.NextSiteId, false);
  for (const ExpansionRecord &Rec : Inline.Expansions)
    if (Rec.SiteId < Recorded.size())
      Recorded[Rec.SiteId] = true;
  for (const PlannedSite &P : Inline.Plan.Sites)
    if (P.Status == ArcStatus::Expanded &&
        (P.SiteId >= Recorded.size() || !Recorded[P.SiteId]))
      addFinding(Report, auditFuncName(M, P.Caller), -1, -1, Severity::Error,
                 kRuleAuditCallGraph,
                 "site " + std::to_string(P.SiteId) +
                     " is marked expanded but has no expansion record");
}

/// (c) Weight conservation. Entries to a function come only from its
/// incoming arcs (main's initial activation, address-taken targets, and
/// externals aside), and redistribution moves arc weight around without
/// creating or destroying call volume: for every auditable function H,
///
///   NodeWeight(H)  ==  sum of ArcWeight over all sites whose callee is H
///
/// must survive redistribution — the expanded arc's weight leaves both
/// sides, and the re-entry credit of a self-recursive clone enters both
/// sides. The site->callee map is taken from the classification and
/// extended through the records' clone pairs, so the audit is immune to
/// post-inline cleanup deleting specialized (constant-folded) clones.
void auditWeightConservation(const Module &M, const InlineResult &Inline,
                             const ProfileData &PreProfile, double Tolerance,
                             AnalysisReport &Report) {
  RedistributedWeights R =
      redistributeWeights(M, PreProfile, Inline.Expansions);

  for (size_t F = 0; F != R.NodeWeight.size(); ++F)
    if (R.NodeWeight[F] < -Tolerance)
      addFinding(Report, auditFuncName(M, static_cast<FuncId>(F)), -1, -1,
                 Severity::Error, kRuleAuditWeightConservation,
                 "redistributed node weight is negative (" +
                     formatDouble(R.NodeWeight[F], 6) + ")");
  for (size_t S = 0; S != R.ArcWeight.size(); ++S)
    if (R.ArcWeight[S] < -Tolerance)
      addFinding(Report, "", -1, -1, Severity::Error,
                 kRuleAuditWeightConservation,
                 "redistributed arc weight of site " + std::to_string(S) +
                     " is negative (" + formatDouble(R.ArcWeight[S], 6) +
                     ")");

  std::vector<FuncId> SiteCallee(R.ArcWeight.size(), kNoFunc);
  for (const SiteInfo &S : Inline.Classes.Sites)
    if (S.SiteId < SiteCallee.size())
      SiteCallee[S.SiteId] = S.Callee;
  for (const ExpansionRecord &Rec : Inline.Expansions)
    for (const auto &[Orig, Fresh] : Rec.ClonedSites)
      if (Fresh < SiteCallee.size() && Orig < SiteCallee.size())
        SiteCallee[Fresh] = SiteCallee[Orig];

  std::vector<double> Incoming(M.Funcs.size(), 0.0);
  for (size_t S = 0; S != SiteCallee.size(); ++S)
    if (SiteCallee[S] != kNoFunc &&
        static_cast<size_t>(SiteCallee[S]) < Incoming.size())
      Incoming[static_cast<size_t>(SiteCallee[S])] += R.ArcWeight[S];

  for (const Function &F : M.Funcs) {
    // Main is entered once without an arc; address-taken functions can be
    // entered through pointer arcs whose targets the profile cannot
    // attribute; externals have no audited body.
    if (F.Id == M.MainId || F.IsExternal || F.AddressTaken)
      continue;
    double Node = R.NodeWeight[static_cast<size_t>(F.Id)];
    double In = Incoming[static_cast<size_t>(F.Id)];
    double Bound = Tolerance * std::max({1.0, Node, In});
    if (std::abs(Node - In) > Bound)
      addFinding(Report, F.Name, -1, -1, Severity::Error,
                 kRuleAuditWeightConservation,
                 "node weight " + formatDouble(Node, 6) +
                     " does not match incoming arc weight " +
                     formatDouble(In, 6) +
                     " after redistribution (difference " +
                     formatDouble(Node - In, 6) + " entries/run)");
  }
}

/// (d) The expansion sequence must respect the linear order: each
/// expanded callee precedes its caller, and callers are visited in
/// non-decreasing sequence position (callees fully expanded before any
/// of their callers).
void auditLinearization(const Module &M, const InlineResult &Inline,
                        AnalysisReport &Report) {
  const Linearization &L = Inline.Linear;
  size_t LastPos = 0;
  bool First = true;
  for (const ExpansionRecord &Rec : Inline.Expansions) {
    if (Rec.Caller < 0 ||
        static_cast<size_t>(Rec.Caller) >= L.Position.size() ||
        Rec.Callee < 0 ||
        static_cast<size_t>(Rec.Callee) >= L.Position.size()) {
      addFinding(Report, auditFuncName(M, Rec.Caller), -1, -1,
                 Severity::Error, kRuleAuditLinearization,
                 "expansion record for site " + std::to_string(Rec.SiteId) +
                     " names a function outside the linear sequence");
      continue;
    }
    if (!L.precedes(Rec.Callee, Rec.Caller))
      addFinding(Report, auditFuncName(M, Rec.Caller), -1, -1,
                 Severity::Error, kRuleAuditLinearization,
                 "expansion of site " + std::to_string(Rec.SiteId) +
                     ": callee '" + auditFuncName(M, Rec.Callee) +
                     "' (position " +
                     std::to_string(L.Position[static_cast<size_t>(
                         Rec.Callee)]) +
                     ") does not precede caller '" +
                     auditFuncName(M, Rec.Caller) + "' (position " +
                     std::to_string(
                         L.Position[static_cast<size_t>(Rec.Caller)]) +
                     ")");
    size_t Pos = L.Position[static_cast<size_t>(Rec.Caller)];
    if (!First && Pos < LastPos)
      addFinding(Report, auditFuncName(M, Rec.Caller), -1, -1,
                 Severity::Error, kRuleAuditLinearization,
                 "expansion order regressed: caller '" +
                     auditFuncName(M, Rec.Caller) + "' (position " +
                     std::to_string(Pos) +
                     ") was expanded into after a caller at position " +
                     std::to_string(LastPos));
    LastPos = std::max(LastPos, Pos);
    First = false;
  }
}

} // namespace

void impact::analyzeInlineInvariants(const Module &M,
                                     const InlineResult &Inline,
                                     const ProfileData &PreProfile,
                                     const AnalysisOptions &Options,
                                     AnalysisReport &Report) {
  if (Options.AuditSafeExpansion)
    auditSafeExpansion(M, Inline, Report);
  if (Options.AuditCallGraph)
    auditCallGraph(M, Inline, Report);
  if (Options.AuditWeightConservation)
    auditWeightConservation(M, Inline, PreProfile, Options.WeightTolerance,
                            Report);
  if (Options.AuditLinearization)
    auditLinearization(M, Inline, Report);
  Report.sortFindings();
}
