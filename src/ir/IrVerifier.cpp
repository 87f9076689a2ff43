//===- ir/IrVerifier.cpp ------------------------------------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/IrVerifier.h"

#include "ir/IrPrinter.h"

#include <sstream>
#include <unordered_set>

using namespace impact;

namespace {

class Verifier {
public:
  explicit Verifier(const Module &M) : M(M) {}

  std::vector<std::string> run() {
    checkMain();
    for (size_t Index = 0; Index != M.Funcs.size(); ++Index) {
      const Function &F = M.Funcs[Index];
      if (F.Id != static_cast<FuncId>(Index))
        report(F, nullptr,
               "function id " + std::to_string(F.Id) +
                   " does not match its module index " +
                   std::to_string(Index));
      checkFunction(F);
    }
    return std::move(Violations);
  }

private:
  void report(const Function &F, const Instr *I, const std::string &Message) {
    std::ostringstream OS;
    OS << "in function '" << F.Name << "'";
    if (I)
      OS << " at '" << printInstr(*I, &F) << "'";
    OS << ": " << Message;
    Violations.push_back(OS.str());
  }

  void checkMain() {
    if (M.MainId == kNoFunc)
      return;
    if (M.MainId < 0 || static_cast<size_t>(M.MainId) >= M.Funcs.size()) {
      Violations.push_back("MainId is out of range");
      return;
    }
    const Function &Main = M.getFunction(M.MainId);
    if (Main.IsExternal)
      Violations.push_back("main function is external");
    if (Main.NumParams != 0)
      Violations.push_back("main function takes parameters");
  }

  void checkReg(const Function &F, const Instr &I, Reg R, const char *Role,
                bool Required) {
    if (R == kNoReg) {
      if (Required)
        report(F, &I, std::string("missing required ") + Role + " register");
      return;
    }
    if (R < 0 || static_cast<uint32_t>(R) >= F.NumRegs)
      report(F, &I,
             std::string(Role) + " register r" + std::to_string(R) +
                 " out of range (function has " + std::to_string(F.NumRegs) +
                 " registers)");
  }

  void checkTarget(const Function &F, const Instr &I, BlockId Target) {
    if (Target < 0 || static_cast<size_t>(Target) >= F.Blocks.size())
      report(F, &I, "branch target bb" + std::to_string(Target) +
                        " out of range");
  }

  void checkCall(const Function &F, const Instr &I) {
    if (I.SiteId == 0)
      report(F, &I, "call site id is unassigned");
    else if (!SeenSiteIds.insert(I.SiteId).second)
      report(F, &I, "duplicate call site id " + std::to_string(I.SiteId));
    if (I.SiteId >= M.NextSiteId)
      report(F, &I, "call site id was not allocated from the module counter");
    for (Reg Arg : I.Args)
      checkReg(F, I, Arg, "argument", /*Required=*/true);
    if (I.Op == Opcode::Call) {
      if (I.Callee < 0 || static_cast<size_t>(I.Callee) >= M.Funcs.size()) {
        report(F, &I, "direct call to invalid function id");
        return;
      }
      const Function &Callee = M.getFunction(I.Callee);
      if (Callee.Eliminated)
        report(F, &I, "direct call to eliminated function '" + Callee.Name +
                          "'");
      if (I.Args.size() != Callee.NumParams)
        report(F, &I, "call passes " + std::to_string(I.Args.size()) +
                          " arguments but '" + Callee.Name + "' takes " +
                          std::to_string(Callee.NumParams));
      if (Callee.ReturnsVoid && I.Dst != kNoReg)
        report(F, &I, "void call must not define a register");
    } else {
      checkReg(F, I, I.Src1, "callee address", /*Required=*/true);
    }
    checkReg(F, I, I.Dst, "destination", /*Required=*/false);
  }

  void checkInstr(const Function &F, const Instr &I, bool IsLast) {
    if (I.isTerminator() != IsLast) {
      report(F, &I, IsLast ? "block does not end in a terminator"
                           : "terminator in the middle of a block");
      return;
    }
    if (isUnaryOp(I.Op)) {
      checkReg(F, I, I.Dst, "destination", true);
      checkReg(F, I, I.Src1, "source", true);
      return;
    }
    if (isBinaryOp(I.Op)) {
      checkReg(F, I, I.Dst, "destination", true);
      checkReg(F, I, I.Src1, "lhs", true);
      checkReg(F, I, I.Src2, "rhs", true);
      return;
    }
    switch (I.Op) {
    case Opcode::LdImm:
      checkReg(F, I, I.Dst, "destination", true);
      break;
    case Opcode::Load:
      checkReg(F, I, I.Dst, "destination", true);
      checkReg(F, I, I.Src1, "address", true);
      break;
    case Opcode::Store:
      checkReg(F, I, I.Src1, "address", true);
      checkReg(F, I, I.Src2, "value", true);
      break;
    case Opcode::FrameAddr:
      checkReg(F, I, I.Dst, "destination", true);
      if (I.Imm < 0 || I.Imm >= F.FrameSize)
        report(F, &I, "frame offset " + std::to_string(I.Imm) +
                          " outside frame of " + std::to_string(F.FrameSize) +
                          " words");
      break;
    case Opcode::GlobalAddr:
      checkReg(F, I, I.Dst, "destination", true);
      if (I.Imm < 0 || static_cast<size_t>(I.Imm) >= M.Globals.size())
        report(F, &I, "global index out of range");
      break;
    case Opcode::FuncAddr:
      checkReg(F, I, I.Dst, "destination", true);
      if (I.Callee < 0 || static_cast<size_t>(I.Callee) >= M.Funcs.size())
        report(F, &I, "func_addr of invalid function id");
      break;
    case Opcode::Call:
    case Opcode::CallPtr:
      checkCall(F, I);
      break;
    case Opcode::Jump:
      checkTarget(F, I, I.Target);
      break;
    case Opcode::CondBr:
      checkReg(F, I, I.Src1, "condition", true);
      checkTarget(F, I, I.Target);
      checkTarget(F, I, I.Target2);
      // No producer emits this shape: IrGen always branches to distinct
      // blocks and jump optimization rewrites a degenerate cond_br into a
      // jump, so equal targets only appear in corrupted or fuzzed IL.
      if (I.Target == I.Target2)
        report(F, &I, "cond_br with identical targets (must be a jump)");
      break;
    case Opcode::Ret:
      if (F.ReturnsVoid && I.Src1 != kNoReg)
        report(F, &I, "void function returns a value");
      if (!F.ReturnsVoid && I.Src1 == kNoReg)
        report(F, &I, "non-void function returns no value");
      checkReg(F, I, I.Src1, "return value", /*Required=*/false);
      break;
    default: // unary and binary operators, checked above
      break;
    }
  }

  void checkFunction(const Function &F) {
    if (F.IsExternal && F.Eliminated)
      report(F, nullptr, "function is both external and eliminated");
    if (F.IsExternal || F.Eliminated) {
      if (!F.Blocks.empty())
        report(F, nullptr, F.IsExternal ? "external function has a body"
                                        : "eliminated function has a body");
      // Declarations carry no body state: addFunction and dead-function
      // elimination both pin these to the parameter signature.
      if (F.FrameSize != 0)
        report(F, nullptr,
               (F.IsExternal ? std::string("external")
                             : std::string("eliminated")) +
                   " function declares a frame of " +
                   std::to_string(F.FrameSize) + " words");
      if (F.NumRegs != F.NumParams)
        report(F, nullptr,
               (F.IsExternal ? std::string("external")
                             : std::string("eliminated")) +
                   " function declares " + std::to_string(F.NumRegs) +
                   " registers for " + std::to_string(F.NumParams) +
                   " parameters");
      return;
    }
    if (F.Blocks.empty()) {
      report(F, nullptr, "non-external function has no blocks");
      return;
    }
    if (F.NumParams > F.NumRegs)
      report(F, nullptr, "parameter count exceeds register count");
    if (F.FrameSize < 0)
      report(F, nullptr, "negative frame size");
    for (const BasicBlock &B : F.Blocks) {
      if (B.empty()) {
        report(F, nullptr, "empty basic block");
        continue;
      }
      for (size_t Idx = 0; Idx != B.Instrs.size(); ++Idx)
        checkInstr(F, B.Instrs[Idx], Idx + 1 == B.Instrs.size());
    }
  }

  const Module &M;
  std::vector<std::string> Violations;
  std::unordered_set<uint32_t> SeenSiteIds;
};

} // namespace

std::vector<std::string> impact::verifyModule(const Module &M) {
  return Verifier(M).run();
}

std::string impact::verifyModuleText(const Module &M) {
  std::string Text;
  for (const std::string &V : verifyModule(M)) {
    Text += V;
    Text += '\n';
  }
  return Text;
}
