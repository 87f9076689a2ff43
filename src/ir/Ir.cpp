//===- ir/Ir.cpp ------------------------------------------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/Ir.h"

using namespace impact;

//===----------------------------------------------------------------------===//
// Instr factories
//===----------------------------------------------------------------------===//

Instr Instr::makeMov(Reg Dst, Reg Src) {
  Instr I;
  I.Op = Opcode::Mov;
  I.Dst = Dst;
  I.Src1 = Src;
  return I;
}

Instr Instr::makeLdImm(Reg Dst, int64_t Value) {
  Instr I;
  I.Op = Opcode::LdImm;
  I.Dst = Dst;
  I.Imm = Value;
  return I;
}

Instr Instr::makeBinary(Opcode Op, Reg Dst, Reg Lhs, Reg Rhs) {
  Instr I;
  I.Op = Op;
  I.Dst = Dst;
  I.Src1 = Lhs;
  I.Src2 = Rhs;
  return I;
}

Instr Instr::makeUnary(Opcode Op, Reg Dst, Reg Src) {
  Instr I;
  I.Op = Op;
  I.Dst = Dst;
  I.Src1 = Src;
  return I;
}

Instr Instr::makeLoad(Reg Dst, Reg Addr) {
  Instr I;
  I.Op = Opcode::Load;
  I.Dst = Dst;
  I.Src1 = Addr;
  return I;
}

Instr Instr::makeStore(Reg Addr, Reg Value) {
  Instr I;
  I.Op = Opcode::Store;
  I.Src1 = Addr;
  I.Src2 = Value;
  return I;
}

Instr Instr::makeFrameAddr(Reg Dst, int64_t Offset) {
  Instr I;
  I.Op = Opcode::FrameAddr;
  I.Dst = Dst;
  I.Imm = Offset;
  return I;
}

Instr Instr::makeGlobalAddr(Reg Dst, int64_t GlobalIndex) {
  Instr I;
  I.Op = Opcode::GlobalAddr;
  I.Dst = Dst;
  I.Imm = GlobalIndex;
  return I;
}

Instr Instr::makeFuncAddr(Reg Dst, FuncId Callee) {
  Instr I;
  I.Op = Opcode::FuncAddr;
  I.Dst = Dst;
  I.Callee = Callee;
  return I;
}

Instr Instr::makeCall(Reg Dst, FuncId Callee, std::vector<Reg> Args,
                      uint32_t SiteId) {
  Instr I;
  I.Op = Opcode::Call;
  I.Dst = Dst;
  I.Callee = Callee;
  I.Args = std::move(Args);
  I.SiteId = SiteId;
  return I;
}

Instr Instr::makeCallPtr(Reg Dst, Reg CalleeAddr, std::vector<Reg> Args,
                         uint32_t SiteId) {
  Instr I;
  I.Op = Opcode::CallPtr;
  I.Dst = Dst;
  I.Src1 = CalleeAddr;
  I.Args = std::move(Args);
  I.SiteId = SiteId;
  return I;
}

Instr Instr::makeJump(BlockId Target) {
  Instr I;
  I.Op = Opcode::Jump;
  I.Target = Target;
  return I;
}

Instr Instr::makeCondBr(Reg Cond, BlockId TrueTarget, BlockId FalseTarget) {
  Instr I;
  I.Op = Opcode::CondBr;
  I.Src1 = Cond;
  I.Target = TrueTarget;
  I.Target2 = FalseTarget;
  return I;
}

Instr Instr::makeRet(Reg Value) {
  Instr I;
  I.Op = Opcode::Ret;
  I.Src1 = Value;
  return I;
}

//===----------------------------------------------------------------------===//
// Function
//===----------------------------------------------------------------------===//

Reg Function::addReg(std::string Name) {
  Reg R = static_cast<Reg>(NumRegs++);
  if (!RegNames.empty() || !Name.empty()) {
    RegNames.resize(NumRegs);
    RegNames[R] = std::move(Name);
  }
  return R;
}

BlockId Function::addBlock() {
  Blocks.emplace_back();
  return static_cast<BlockId>(Blocks.size() - 1);
}

//===----------------------------------------------------------------------===//
// Module
//===----------------------------------------------------------------------===//

FuncId Module::findFunction(const std::string &Name) const {
  for (const Function &F : Funcs)
    if (F.Name == Name)
      return F.Id;
  return kNoFunc;
}

FuncId Module::addFunction(std::string Name, uint32_t NumParams,
                           bool ReturnsVoid, bool IsExternal) {
  Function F;
  F.Name = std::move(Name);
  F.Id = static_cast<FuncId>(Funcs.size());
  F.NumParams = NumParams;
  F.NumRegs = NumParams;
  F.ReturnsVoid = ReturnsVoid;
  F.IsExternal = IsExternal;
  Funcs.push_back(std::move(F));
  return Funcs.back().Id;
}

int64_t Module::addGlobal(std::string Name, int64_t Size,
                          std::vector<int64_t> Init) {
  assert(Size >= 1 && "global must occupy at least one word");
  assert(static_cast<int64_t>(Init.size()) <= Size &&
         "initializer longer than the global");
  Global G;
  G.Name = std::move(Name);
  G.Size = Size;
  G.Init = std::move(Init);
  Globals.push_back(std::move(G));
  return static_cast<int64_t>(Globals.size() - 1);
}

size_t Module::size() const {
  size_t N = 0;
  for (const Function &F : Funcs)
    if (!F.IsExternal)
      N += F.size();
  return N;
}

int64_t Module::getGlobalAddress(int64_t Index) const {
  assert(Index >= 0 && static_cast<size_t>(Index) < Globals.size() &&
         "global index out of range");
  int64_t Addr = kGlobalBase;
  for (int64_t I = 0; I < Index; ++I)
    Addr += Globals[I].Size;
  return Addr;
}

int64_t Module::getGlobalSegmentSize() const {
  int64_t Total = 0;
  for (const Global &G : Globals)
    Total += G.Size;
  return Total;
}
