//===- ir/IrPrinter.cpp -------------------------------------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/IrPrinter.h"

#include <sstream>

using namespace impact;

namespace {

/// "r7" or "r7(name)" when the function carries a debug name.
std::string regName(Reg R, const Function *F) {
  if (R == kNoReg)
    return "<none>";
  std::string Text = "r" + std::to_string(R);
  if (F && static_cast<size_t>(R) < F->RegNames.size() &&
      !F->RegNames[R].empty())
    Text += "(" + F->RegNames[R] + ")";
  return Text;
}

} // namespace

std::string impact::printInstr(const Instr &I, const Function *F) {
  std::ostringstream OS;
  if (isUnaryOp(I.Op) || isBinaryOp(I.Op)) {
    OS << regName(I.Dst, F) << " = " << getOpcodeName(I.Op) << ' '
       << regName(I.Src1, F);
    if (isBinaryOp(I.Op))
      OS << ", " << regName(I.Src2, F);
    return OS.str();
  }
  switch (I.Op) {
  case Opcode::LdImm:
    OS << regName(I.Dst, F) << " = ld_imm " << I.Imm;
    break;
  case Opcode::Load:
    OS << regName(I.Dst, F) << " = load [" << regName(I.Src1, F) << ']';
    break;
  case Opcode::Store:
    OS << "store [" << regName(I.Src1, F) << "], " << regName(I.Src2, F);
    break;
  case Opcode::FrameAddr:
    OS << regName(I.Dst, F) << " = frame_addr fp+" << I.Imm;
    break;
  case Opcode::GlobalAddr:
    OS << regName(I.Dst, F) << " = global_addr @" << I.Imm;
    break;
  case Opcode::FuncAddr:
    OS << regName(I.Dst, F) << " = func_addr f" << I.Callee;
    break;
  case Opcode::Call:
  case Opcode::CallPtr: {
    if (I.Dst != kNoReg)
      OS << regName(I.Dst, F) << " = ";
    if (I.Op == Opcode::Call)
      OS << "call f" << I.Callee << '(';
    else
      OS << "call_ptr [" << regName(I.Src1, F) << "](";
    for (size_t Idx = 0; Idx != I.Args.size(); ++Idx) {
      if (Idx)
        OS << ", ";
      OS << regName(I.Args[Idx], F);
    }
    OS << ") site#" << I.SiteId;
    break;
  }
  case Opcode::Jump:
    OS << "jump bb" << I.Target;
    break;
  case Opcode::CondBr:
    OS << "cond_br " << regName(I.Src1, F) << ", bb" << I.Target << ", bb"
       << I.Target2;
    break;
  case Opcode::Ret:
    OS << "ret";
    if (I.Src1 != kNoReg)
      OS << ' ' << regName(I.Src1, F);
    break;
  default: // unary and binary operators, printed above
    break;
  }
  return OS.str();
}

std::string impact::printFunction(const Function &F) {
  std::ostringstream OS;
  OS << (F.ReturnsVoid ? "void " : "int ") << F.Name << "(params="
     << F.NumParams << ", regs=" << F.NumRegs << ", frame=" << F.FrameSize
     << ")";
  if (F.IsExternal) {
    OS << " external\n";
    return OS.str();
  }
  if (F.Eliminated) {
    OS << " eliminated\n";
    return OS.str();
  }
  if (F.AddressTaken)
    OS << " address_taken";
  OS << " {\n";
  for (size_t B = 0; B != F.Blocks.size(); ++B) {
    OS << "bb" << B << ":\n";
    for (const Instr &I : F.Blocks[B].Instrs)
      OS << "  " << printInstr(I, &F) << '\n';
  }
  OS << "}\n";
  return OS.str();
}

std::string impact::printModule(const Module &M) {
  std::ostringstream OS;
  OS << "module " << M.Name << '\n';
  for (size_t G = 0; G != M.Globals.size(); ++G) {
    OS << "global @" << G << ' ' << M.Globals[G].Name << '['
       << M.Globals[G].Size << ']';
    if (!M.Globals[G].Init.empty()) {
      OS << " = {";
      for (size_t I = 0; I != M.Globals[G].Init.size(); ++I) {
        if (I)
          OS << ", ";
        OS << M.Globals[G].Init[I];
      }
      OS << '}';
    }
    OS << '\n';
  }
  for (const Function &F : M.Funcs)
    OS << printFunction(F);
  return OS.str();
}
