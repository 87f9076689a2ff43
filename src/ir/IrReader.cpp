//===- ir/IrReader.cpp -------------------------------------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "ir/IrReader.h"

#include "support/StringUtils.h"

#include <cctype>
#include <optional>

using namespace impact;

namespace {

/// Cursor over one line of text with primitive-consuming helpers. All
/// consume* methods return false (and leave a message in Error) on
/// mismatch.
class LineCursor {
public:
  LineCursor(std::string_view Line) : Text(Line) {}

  void skipSpace() {
    while (Pos < Text.size() && Text[Pos] == ' ')
      ++Pos;
  }

  bool atEnd() {
    skipSpace();
    return Pos >= Text.size();
  }

  bool consumeLiteral(std::string_view Lit) {
    skipSpace();
    if (Text.substr(Pos, Lit.size()) != Lit) {
      Error = "expected '" + std::string(Lit) + "'";
      return false;
    }
    Pos += Lit.size();
    return true;
  }

  bool peekLiteral(std::string_view Lit) {
    skipSpace();
    return Text.substr(Pos, Lit.size()) == Lit;
  }

  bool consumeInt(int64_t &Value) {
    skipSpace();
    size_t Start = Pos;
    if (Pos < Text.size() && (Text[Pos] == '-' || Text[Pos] == '+'))
      ++Pos;
    size_t DigitsStart = Pos;
    while (Pos < Text.size() &&
           std::isdigit(static_cast<unsigned char>(Text[Pos])))
      ++Pos;
    if (Pos == DigitsStart) {
      Error = "expected integer";
      Pos = Start;
      return false;
    }
    Value = std::stoll(std::string(Text.substr(Start, Pos - Start)));
    return true;
  }

  /// "rN" or "rN(name)"; records the name into \p Name when present.
  bool consumeReg(Reg &R, std::string *Name = nullptr) {
    if (!consumeLiteral("r"))
      return false;
    int64_t Value;
    if (!consumeInt(Value))
      return false;
    R = static_cast<Reg>(Value);
    if (Pos < Text.size() && Text[Pos] == '(') {
      size_t Close = Text.find(')', Pos);
      if (Close == std::string_view::npos) {
        Error = "unterminated register name";
        return false;
      }
      if (Name)
        *Name = std::string(Text.substr(Pos + 1, Close - Pos - 1));
      Pos = Close + 1;
    }
    return true;
  }

  /// An identifier-ish word (function/global names, mnemonics).
  bool consumeWord(std::string &Word) {
    skipSpace();
    size_t Start = Pos;
    while (Pos < Text.size() && Text[Pos] != ' ' && Text[Pos] != '(' &&
           Text[Pos] != ',' && Text[Pos] != '[' && Text[Pos] != ']' &&
           Text[Pos] != ')')
      ++Pos;
    if (Pos == Start) {
      Error = "expected word";
      return false;
    }
    Word = std::string(Text.substr(Start, Pos - Start));
    return true;
  }

  std::string Error;

private:
  std::string_view Text;
  size_t Pos = 0;
};

/// The unary or binary operator spelled \p Mnemonic, if any.
std::optional<Opcode> findOperator(std::string_view Mnemonic) {
  for (size_t Idx = 0; Idx != kNumOpcodes; ++Idx) {
    Opcode Op = static_cast<Opcode>(Idx);
    if ((isUnaryOp(Op) || isBinaryOp(Op)) && Mnemonic == getOpcodeName(Op))
      return Op;
  }
  return std::nullopt;
}

class ModuleParser {
public:
  explicit ModuleParser(std::string_view Text) : Text(Text) {}

  IrReadResult run() {
    IrReadResult Result;
    if (!parse()) {
      Result.Error = "line " + std::to_string(LineNo) + ": " + Error;
      return Result;
    }
    // Reconstruct derived module fields.
    uint32_t MaxSite = 0;
    for (const Function &F : M.Funcs)
      for (const BasicBlock &B : F.Blocks)
        for (const Instr &I : B.Instrs)
          if (I.isCall() && I.SiteId > MaxSite)
            MaxSite = I.SiteId;
    M.NextSiteId = MaxSite + 1;
    M.MainId = M.findFunction("main");
    Result.Ok = true;
    Result.M = std::move(M);
    return Result;
  }

private:
  bool fail(std::string Message) {
    if (Error.empty())
      Error = std::move(Message);
    return false;
  }

  /// Fetches the next line; returns false at end of input.
  bool nextLine(std::string_view &Line) {
    if (Cursor >= Text.size())
      return false;
    size_t End = Text.find('\n', Cursor);
    if (End == std::string_view::npos)
      End = Text.size();
    Line = Text.substr(Cursor, End - Cursor);
    Cursor = End + 1;
    ++LineNo;
    return true;
  }

  bool parse() {
    std::string_view Line;
    if (!nextLine(Line) || !startsWith(Line, "module "))
      return fail("expected 'module <name>' header");
    M.Name = std::string(trimString(Line.substr(7)));

    while (nextLine(Line)) {
      std::string_view Trimmed = trimString(Line);
      if (Trimmed.empty())
        continue;
      if (startsWith(Trimmed, "global @")) {
        if (!parseGlobal(Trimmed))
          return false;
      } else if (startsWith(Trimmed, "int ") ||
                 startsWith(Trimmed, "void ")) {
        if (!parseFunction(Trimmed))
          return false;
      } else {
        return fail("unexpected top-level line");
      }
    }
    return true;
  }

  bool parseGlobal(std::string_view Line) {
    LineCursor C(Line);
    int64_t Index, Size;
    std::string Name;
    if (!C.consumeLiteral("global @") || !C.consumeInt(Index) ||
        !C.consumeWord(Name) || !C.consumeLiteral("[") ||
        !C.consumeInt(Size) || !C.consumeLiteral("]"))
      return fail(C.Error);
    std::vector<int64_t> Init;
    if (C.peekLiteral("=")) {
      if (!C.consumeLiteral("=") || !C.consumeLiteral("{"))
        return fail(C.Error);
      while (!C.peekLiteral("}")) {
        int64_t V;
        if (!C.consumeInt(V))
          return fail(C.Error);
        Init.push_back(V);
        if (C.peekLiteral(","))
          C.consumeLiteral(",");
      }
    }
    if (static_cast<size_t>(Index) != M.Globals.size())
      return fail("global indices must be dense and in order");
    M.addGlobal(std::move(Name), Size, std::move(Init));
    return true;
  }

  bool parseFunction(std::string_view Header) {
    LineCursor C(Header);
    bool ReturnsVoid = C.peekLiteral("void");
    if (!C.consumeLiteral(ReturnsVoid ? "void" : "int"))
      return fail(C.Error);
    std::string Name;
    int64_t Params, Regs, Frame;
    if (!C.consumeWord(Name) || !C.consumeLiteral("(params=") ||
        !C.consumeInt(Params) || !C.consumeLiteral(", regs=") ||
        !C.consumeInt(Regs) || !C.consumeLiteral(", frame=") ||
        !C.consumeInt(Frame) || !C.consumeLiteral(")"))
      return fail(C.Error);

    bool External = C.peekLiteral("external");
    bool Eliminated = !External && C.peekLiteral("eliminated");
    FuncId Id = M.addFunction(std::move(Name),
                              static_cast<uint32_t>(Params), ReturnsVoid,
                              External);
    Function &F = M.getFunction(Id);
    F.Eliminated = Eliminated;
    if (External || Eliminated)
      return true;

    F.AddressTaken = C.peekLiteral("address_taken");
    F.NumRegs = static_cast<uint32_t>(Regs);
    F.FrameSize = Frame;

    // Body: "bbN:" labels and instruction lines until "}".
    std::string_view Line;
    BlockId Current = -1;
    while (true) {
      if (!nextLine(Line))
        return fail("unterminated function body");
      std::string_view Trimmed = trimString(Line);
      if (Trimmed == "}")
        break;
      if (Trimmed.empty())
        continue;
      if (startsWith(Trimmed, "bb") && Trimmed.back() == ':') {
        Current = F.addBlock();
        continue;
      }
      if (Current < 0)
        return fail("instruction before the first block label");
      Instr I;
      if (!parseInstr(Trimmed, F, I))
        return false;
      F.getBlock(Current).Instrs.push_back(std::move(I));
    }
    return true;
  }

  /// Records a parsed register name into the function's name table.
  void noteRegName(Function &F, Reg R, const std::string &Name) {
    if (Name.empty() || R == kNoReg)
      return;
    if (F.RegNames.size() < F.NumRegs)
      F.RegNames.resize(F.NumRegs);
    if (static_cast<size_t>(R) < F.RegNames.size())
      F.RegNames[static_cast<size_t>(R)] = Name;
  }

  bool parseCallTail(LineCursor &C, Function &F, Instr &I) {
    // "(" args ")" " site#N"
    if (!C.consumeLiteral("("))
      return fail(C.Error);
    while (!C.peekLiteral(")")) {
      Reg A;
      std::string AName;
      if (!C.consumeReg(A, &AName))
        return fail(C.Error);
      noteRegName(F, A, AName);
      I.Args.push_back(A);
      if (C.peekLiteral(","))
        C.consumeLiteral(",");
    }
    int64_t Site;
    if (!C.consumeLiteral(") site#") || !C.consumeInt(Site))
      return fail(C.Error);
    I.SiteId = static_cast<uint32_t>(Site);
    return true;
  }

  bool parseInstr(std::string_view Line, Function &F, Instr &I) {
    LineCursor C(Line);

    // Terminators and store first: they do not start with a register def.
    if (C.peekLiteral("jump bb")) {
      int64_t T;
      if (!C.consumeLiteral("jump bb") || !C.consumeInt(T))
        return fail(C.Error);
      I = Instr::makeJump(static_cast<BlockId>(T));
      return true;
    }
    if (C.peekLiteral("cond_br ")) {
      Reg Cond;
      std::string Name;
      int64_t T1, T2;
      if (!C.consumeLiteral("cond_br") || !C.consumeReg(Cond, &Name) ||
          !C.consumeLiteral(", bb") || !C.consumeInt(T1) ||
          !C.consumeLiteral(", bb") || !C.consumeInt(T2))
        return fail(C.Error);
      noteRegName(F, Cond, Name);
      I = Instr::makeCondBr(Cond, static_cast<BlockId>(T1),
                            static_cast<BlockId>(T2));
      return true;
    }
    if (C.peekLiteral("ret")) {
      C.consumeLiteral("ret");
      if (C.atEnd()) {
        I = Instr::makeRet(kNoReg);
        return true;
      }
      Reg V;
      std::string Name;
      if (!C.consumeReg(V, &Name))
        return fail(C.Error);
      noteRegName(F, V, Name);
      I = Instr::makeRet(V);
      return true;
    }
    if (C.peekLiteral("store [")) {
      Reg Addr, Value;
      std::string AName, VName;
      if (!C.consumeLiteral("store [") || !C.consumeReg(Addr, &AName) ||
          !C.consumeLiteral("],") || !C.consumeReg(Value, &VName))
        return fail(C.Error);
      noteRegName(F, Addr, AName);
      noteRegName(F, Value, VName);
      I = Instr::makeStore(Addr, Value);
      return true;
    }
    if (C.peekLiteral("call_ptr [") || C.peekLiteral("call f")) {
      // Void calls: no destination register.
      return parseCallLike(C, F, I, kNoReg);
    }

    // "rD = ..." forms.
    Reg Dst;
    std::string DstName;
    if (!C.consumeReg(Dst, &DstName))
      return fail(C.Error);
    noteRegName(F, Dst, DstName);
    if (!C.consumeLiteral("="))
      return fail(C.Error);

    if (C.peekLiteral("call f") || C.peekLiteral("call_ptr ["))
      return parseCallLike(C, F, I, Dst);

    std::string Op;
    if (!C.consumeWord(Op))
      return fail(C.Error);

    if (Op == "ld_imm") {
      int64_t V;
      if (!C.consumeInt(V))
        return fail(C.Error);
      I = Instr::makeLdImm(Dst, V);
      return true;
    }
    if (Op == "load") {
      Reg Addr;
      std::string Name;
      if (!C.consumeLiteral("[") || !C.consumeReg(Addr, &Name) ||
          !C.consumeLiteral("]"))
        return fail(C.Error);
      noteRegName(F, Addr, Name);
      I = Instr::makeLoad(Dst, Addr);
      return true;
    }
    if (Op == "frame_addr") {
      int64_t Offset;
      if (!C.consumeLiteral("fp+") || !C.consumeInt(Offset))
        return fail(C.Error);
      I = Instr::makeFrameAddr(Dst, Offset);
      return true;
    }
    if (Op == "global_addr") {
      int64_t Index;
      if (!C.consumeLiteral("@") || !C.consumeInt(Index))
        return fail(C.Error);
      I = Instr::makeGlobalAddr(Dst, Index);
      return true;
    }
    if (Op == "func_addr") {
      int64_t Callee;
      if (!C.consumeLiteral("f") || !C.consumeInt(Callee))
        return fail(C.Error);
      I = Instr::makeFuncAddr(Dst, static_cast<FuncId>(Callee));
      return true;
    }

    std::optional<Opcode> Operator = findOperator(Op);
    if (!Operator)
      return fail("unknown mnemonic '" + Op + "'");
    Reg Lhs;
    std::string LName;
    if (!C.consumeReg(Lhs, &LName))
      return fail(C.Error);
    noteRegName(F, Lhs, LName);
    if (isBinaryOp(*Operator)) {
      Reg Rhs;
      std::string RName;
      if (!C.consumeLiteral(",") || !C.consumeReg(Rhs, &RName))
        return fail(C.Error);
      noteRegName(F, Rhs, RName);
      I = Instr::makeBinary(*Operator, Dst, Lhs, Rhs);
    } else {
      I = Instr::makeUnary(*Operator, Dst, Lhs);
    }
    return true;
  }

  bool parseCallLike(LineCursor &C, Function &F, Instr &I, Reg Dst) {
    if (C.peekLiteral("call f")) {
      int64_t Callee;
      if (!C.consumeLiteral("call f") || !C.consumeInt(Callee))
        return fail(C.Error);
      I = Instr::makeCall(Dst, static_cast<FuncId>(Callee), {}, 0);
      return parseCallTail(C, F, I);
    }
    Reg Addr;
    std::string Name;
    if (!C.consumeLiteral("call_ptr [") || !C.consumeReg(Addr, &Name) ||
        !C.consumeLiteral("]"))
      return fail(C.Error);
    noteRegName(F, Addr, Name);
    I = Instr::makeCallPtr(Dst, Addr, {}, 0);
    return parseCallTail(C, F, I);
  }

  std::string_view Text;
  size_t Cursor = 0;
  unsigned LineNo = 0;
  std::string Error;
  Module M;
};

} // namespace

IrReadResult impact::parseModuleText(std::string_view Text) {
  return ModuleParser(Text).run();
}
