//===- frontend/Ast.h - MiniC abstract syntax tree -------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//
///
/// \file
/// AST node classes for MiniC. The hierarchy uses LLVM-style Kind tags with
/// classof() so isa<>/dyn_cast<> work without RTTI. Nodes are owned by their
/// parents through unique_ptr; the TranslationUnit owns all top-level
/// declarations.
///
//===----------------------------------------------------------------------===//

#ifndef IMPACT_FRONTEND_AST_H
#define IMPACT_FRONTEND_AST_H

#include "frontend/Type.h"
#include "support/Casting.h"
#include "support/SourceLocation.h"

#include <algorithm>
#include <cstdint>
#include <initializer_list>
#include <memory>
#include <string>
#include <vector>

namespace impact {

class Decl;
class FunctionDecl;

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

class Expr {
public:
  enum class ExprKind {
    IntLiteral,
    StringLiteral,
    DeclRef,
    Unary,
    Binary,
    Assign,
    Conditional,
    Call,
    Index,
  };

  virtual ~Expr() = default;

  ExprKind getKind() const { return Kind; }
  SourceLoc getLoc() const { return Loc; }

  /// The type computed by Sema; meaningless before semantic analysis.
  Type getType() const { return Ty; }
  void setType(Type T) { Ty = T; }

  /// Levels in this expression's tree (1 for a leaf). The parser rejects
  /// trees taller than its nesting budget (frontend/Parser.h).
  unsigned getHeight() const { return Height; }

protected:
  Expr(ExprKind Kind, SourceLoc Loc, unsigned Height = 1)
      : Kind(Kind), Loc(Loc), Height(Height) {}

  /// One level above the tallest of \p Children.
  static unsigned above(std::initializer_list<const Expr *> Children) {
    unsigned H = 0;
    for (const Expr *C : Children)
      H = std::max(H, C->Height);
    return H + 1;
  }

private:
  ExprKind Kind;
  SourceLoc Loc;
  unsigned Height;
  Type Ty = Type::makeInt();
};

using ExprPtr = std::unique_ptr<Expr>;

/// 123, 0x7f, 'a'.
class IntLiteralExpr : public Expr {
public:
  IntLiteralExpr(SourceLoc Loc, int64_t Value)
      : Expr(ExprKind::IntLiteral, Loc), Value(Value) {}

  int64_t getValue() const { return Value; }

  static bool classof(const Expr *E) {
    return E->getKind() == ExprKind::IntLiteral;
  }

private:
  int64_t Value;
};

/// "text"; evaluates to the address of an interned NUL-terminated global
/// word array.
class StringLiteralExpr : public Expr {
public:
  StringLiteralExpr(SourceLoc Loc, std::string Value)
      : Expr(ExprKind::StringLiteral, Loc), Value(std::move(Value)) {}

  const std::string &getValue() const { return Value; }

  static bool classof(const Expr *E) {
    return E->getKind() == ExprKind::StringLiteral;
  }

private:
  std::string Value;
};

/// A name use; Sema resolves it to a Decl.
class DeclRefExpr : public Expr {
public:
  DeclRefExpr(SourceLoc Loc, std::string Name)
      : Expr(ExprKind::DeclRef, Loc), Name(std::move(Name)) {}

  const std::string &getName() const { return Name; }
  Decl *getDecl() const { return Resolved; }
  void setDecl(Decl *D) { Resolved = D; }

  static bool classof(const Expr *E) {
    return E->getKind() == ExprKind::DeclRef;
  }

private:
  std::string Name;
  Decl *Resolved = nullptr;
};

enum class UnaryOpKind {
  Neg,        // -x
  BitNot,     // ~x
  LogicalNot, // !x
  Deref,      // *p
  AddrOf,     // &x
  PreInc,     // ++x
  PreDec,     // --x
  PostInc,    // x++
  PostDec,    // x--
};

class UnaryExpr : public Expr {
public:
  UnaryExpr(SourceLoc Loc, UnaryOpKind Op, ExprPtr Operand)
      : Expr(ExprKind::Unary, Loc, above({Operand.get()})), Op(Op),
        Operand(std::move(Operand)) {}

  UnaryOpKind getOp() const { return Op; }
  Expr *getOperand() const { return Operand.get(); }

  static bool classof(const Expr *E) { return E->getKind() == ExprKind::Unary; }

private:
  UnaryOpKind Op;
  ExprPtr Operand;
};

enum class BinaryOpKind {
  Add,
  Sub,
  Mul,
  Div,
  Rem,
  Shl,
  Shr,
  BitAnd,
  BitOr,
  BitXor,
  Lt,
  Le,
  Gt,
  Ge,
  Eq,
  Ne,
  LogicalAnd, // short-circuit
  LogicalOr,  // short-circuit
};

class BinaryExpr : public Expr {
public:
  BinaryExpr(SourceLoc Loc, BinaryOpKind Op, ExprPtr Lhs, ExprPtr Rhs)
      : Expr(ExprKind::Binary, Loc, above({Lhs.get(), Rhs.get()})), Op(Op),
        Lhs(std::move(Lhs)), Rhs(std::move(Rhs)) {}

  BinaryOpKind getOp() const { return Op; }
  Expr *getLhs() const { return Lhs.get(); }
  Expr *getRhs() const { return Rhs.get(); }

  static bool classof(const Expr *E) {
    return E->getKind() == ExprKind::Binary;
  }

private:
  BinaryOpKind Op;
  ExprPtr Lhs, Rhs;
};

enum class AssignOpKind { Assign, AddAssign, SubAssign, MulAssign, DivAssign,
                          RemAssign };

/// lhs = rhs and the compound forms; the value of the expression is the
/// stored value, as in C.
class AssignExpr : public Expr {
public:
  AssignExpr(SourceLoc Loc, AssignOpKind Op, ExprPtr Lhs, ExprPtr Rhs)
      : Expr(ExprKind::Assign, Loc, above({Lhs.get(), Rhs.get()})), Op(Op),
        Lhs(std::move(Lhs)), Rhs(std::move(Rhs)) {}

  AssignOpKind getOp() const { return Op; }
  Expr *getLhs() const { return Lhs.get(); }
  Expr *getRhs() const { return Rhs.get(); }

  static bool classof(const Expr *E) {
    return E->getKind() == ExprKind::Assign;
  }

private:
  AssignOpKind Op;
  ExprPtr Lhs, Rhs;
};

/// cond ? then : else, with lazy arm evaluation.
class ConditionalExpr : public Expr {
public:
  ConditionalExpr(SourceLoc Loc, ExprPtr Cond, ExprPtr Then, ExprPtr Else)
      : Expr(ExprKind::Conditional, Loc,
             above({Cond.get(), Then.get(), Else.get()})),
        Cond(std::move(Cond)), Then(std::move(Then)), Else(std::move(Else)) {}

  Expr *getCond() const { return Cond.get(); }
  Expr *getThen() const { return Then.get(); }
  Expr *getElse() const { return Else.get(); }

  static bool classof(const Expr *E) {
    return E->getKind() == ExprKind::Conditional;
  }

private:
  ExprPtr Cond, Then, Else;
};

/// f(a, b) or fp(a, b). Direct when the callee is a DeclRef that resolves
/// to a FunctionDecl; otherwise it is a call through pointer.
class CallExpr : public Expr {
public:
  CallExpr(SourceLoc Loc, ExprPtr Callee, std::vector<ExprPtr> Args)
      : Expr(ExprKind::Call, Loc, heightOf(*Callee, Args)),
        Callee(std::move(Callee)), Args(std::move(Args)) {}

  Expr *getCallee() const { return Callee.get(); }
  const std::vector<ExprPtr> &getArgs() const { return Args; }

  /// The statically known callee, or null for a call through pointer.
  /// Populated by Sema.
  FunctionDecl *getDirectCallee() const { return DirectCallee; }
  void setDirectCallee(FunctionDecl *F) { DirectCallee = F; }

  static bool classof(const Expr *E) { return E->getKind() == ExprKind::Call; }

private:
  static unsigned heightOf(const Expr &Callee,
                           const std::vector<ExprPtr> &Args) {
    unsigned H = Callee.getHeight();
    for (const ExprPtr &A : Args)
      H = std::max(H, A->getHeight());
    return H + 1;
  }

  ExprPtr Callee;
  std::vector<ExprPtr> Args;
  FunctionDecl *DirectCallee = nullptr;
};

/// base[index]; base may be an array variable or any pointer value.
class IndexExpr : public Expr {
public:
  IndexExpr(SourceLoc Loc, ExprPtr Base, ExprPtr Index)
      : Expr(ExprKind::Index, Loc, above({Base.get(), Index.get()})),
        Base(std::move(Base)), Index(std::move(Index)) {}

  Expr *getBase() const { return Base.get(); }
  Expr *getIndex() const { return Index.get(); }

  static bool classof(const Expr *E) { return E->getKind() == ExprKind::Index; }

private:
  ExprPtr Base, Index;
};

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

class Decl {
public:
  enum class DeclKind { Var, Param, Function };

  virtual ~Decl() = default;

  DeclKind getKind() const { return Kind; }
  SourceLoc getLoc() const { return Loc; }
  const std::string &getName() const { return Name; }

protected:
  Decl(DeclKind Kind, SourceLoc Loc, std::string Name)
      : Kind(Kind), Loc(Loc), Name(std::move(Name)) {}

private:
  DeclKind Kind;
  SourceLoc Loc;
  std::string Name;
};

using DeclPtr = std::unique_ptr<Decl>;

/// A global or local variable, optionally an array.
class VarDecl : public Decl {
public:
  VarDecl(SourceLoc Loc, std::string Name, Type Ty, int64_t ArraySize,
          ExprPtr Init, bool Global)
      : Decl(DeclKind::Var, Loc, std::move(Name)), Ty(Ty),
        ArraySize(ArraySize), Init(std::move(Init)), Global(Global) {}

  Type getType() const { return Ty; }
  bool isArray() const { return ArraySize >= 0; }
  /// Number of elements, or -1 for scalars.
  int64_t getArraySize() const { return ArraySize; }
  Expr *getInit() const { return Init.get(); }
  bool isGlobal() const { return Global; }

  bool isAddressTaken() const { return AddressTaken; }
  void setAddressTaken() { AddressTaken = true; }

  static bool classof(const Decl *D) { return D->getKind() == DeclKind::Var; }

private:
  Type Ty;
  int64_t ArraySize;
  ExprPtr Init;
  bool Global;
  bool AddressTaken = false;
};

/// A function parameter.
class ParamDecl : public Decl {
public:
  ParamDecl(SourceLoc Loc, std::string Name, Type Ty)
      : Decl(DeclKind::Param, Loc, std::move(Name)), Ty(Ty) {}

  Type getType() const { return Ty; }

  bool isAddressTaken() const { return AddressTaken; }
  void setAddressTaken() { AddressTaken = true; }

  static bool classof(const Decl *D) { return D->getKind() == DeclKind::Param; }

private:
  Type Ty;
  bool AddressTaken = false;
};

class Stmt;
using StmtPtr = std::unique_ptr<Stmt>;

/// A function definition, or an extern declaration when the body is null.
/// Extern functions are the paper's "external functions": their bodies are
/// unavailable to inline expansion and their call sites map to the $$$
/// pseudo node of the call graph.
class FunctionDecl : public Decl {
public:
  FunctionDecl(SourceLoc Loc, std::string Name, Type RetTy,
               std::vector<std::unique_ptr<ParamDecl>> Params, StmtPtr Body,
               bool Extern);
  ~FunctionDecl() override;

  Type getReturnType() const { return RetTy; }
  const std::vector<std::unique_ptr<ParamDecl>> &getParams() const {
    return Params;
  }
  unsigned getNumParams() const {
    return static_cast<unsigned>(Params.size());
  }
  /// The body compound statement; null for extern functions.
  Stmt *getBody() const { return Body.get(); }
  bool isExtern() const { return Extern; }

  /// True if the function's address is ever used in a computation; such
  /// functions can be reached through the ### pseudo node.
  bool isAddressTaken() const { return AddressTaken; }
  void setAddressTaken() { AddressTaken = true; }

  static bool classof(const Decl *D) {
    return D->getKind() == DeclKind::Function;
  }

private:
  Type RetTy;
  std::vector<std::unique_ptr<ParamDecl>> Params;
  StmtPtr Body;
  bool Extern;
  bool AddressTaken = false;
};

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

class Stmt {
public:
  enum class StmtKind {
    Compound,
    DeclStmt,
    ExprStmt,
    If,
    While,
    For,
    Return,
    Break,
    Continue,
  };

  virtual ~Stmt() = default;

  StmtKind getKind() const { return Kind; }
  SourceLoc getLoc() const { return Loc; }

protected:
  Stmt(StmtKind Kind, SourceLoc Loc) : Kind(Kind), Loc(Loc) {}

private:
  StmtKind Kind;
  SourceLoc Loc;
};

class CompoundStmt : public Stmt {
public:
  CompoundStmt(SourceLoc Loc, std::vector<StmtPtr> Body)
      : Stmt(StmtKind::Compound, Loc), Body(std::move(Body)) {}

  const std::vector<StmtPtr> &getBody() const { return Body; }

  static bool classof(const Stmt *S) {
    return S->getKind() == StmtKind::Compound;
  }

private:
  std::vector<StmtPtr> Body;
};

/// A local variable declaration appearing in statement position.
class DeclStmt : public Stmt {
public:
  DeclStmt(SourceLoc Loc, std::unique_ptr<VarDecl> Var)
      : Stmt(StmtKind::DeclStmt, Loc), Var(std::move(Var)) {}

  VarDecl *getVar() const { return Var.get(); }

  static bool classof(const Stmt *S) {
    return S->getKind() == StmtKind::DeclStmt;
  }

private:
  std::unique_ptr<VarDecl> Var;
};

class ExprStmt : public Stmt {
public:
  ExprStmt(SourceLoc Loc, ExprPtr E)
      : Stmt(StmtKind::ExprStmt, Loc), E(std::move(E)) {}

  Expr *getExpr() const { return E.get(); }

  static bool classof(const Stmt *S) {
    return S->getKind() == StmtKind::ExprStmt;
  }

private:
  ExprPtr E;
};

class IfStmt : public Stmt {
public:
  IfStmt(SourceLoc Loc, ExprPtr Cond, StmtPtr Then, StmtPtr Else)
      : Stmt(StmtKind::If, Loc), Cond(std::move(Cond)), Then(std::move(Then)),
        Else(std::move(Else)) {}

  Expr *getCond() const { return Cond.get(); }
  Stmt *getThen() const { return Then.get(); }
  Stmt *getElse() const { return Else.get(); }

  static bool classof(const Stmt *S) { return S->getKind() == StmtKind::If; }

private:
  ExprPtr Cond;
  StmtPtr Then, Else;
};

class WhileStmt : public Stmt {
public:
  WhileStmt(SourceLoc Loc, ExprPtr Cond, StmtPtr Body)
      : Stmt(StmtKind::While, Loc), Cond(std::move(Cond)),
        Body(std::move(Body)) {}

  Expr *getCond() const { return Cond.get(); }
  Stmt *getBody() const { return Body.get(); }

  static bool classof(const Stmt *S) { return S->getKind() == StmtKind::While; }

private:
  ExprPtr Cond;
  StmtPtr Body;
};

/// for (init; cond; step) body. Init may be a declaration, an expression
/// statement, or absent; cond and step may be absent.
class ForStmt : public Stmt {
public:
  ForStmt(SourceLoc Loc, StmtPtr Init, ExprPtr Cond, ExprPtr Step,
          StmtPtr Body)
      : Stmt(StmtKind::For, Loc), Init(std::move(Init)), Cond(std::move(Cond)),
        Step(std::move(Step)), Body(std::move(Body)) {}

  Stmt *getInit() const { return Init.get(); }
  Expr *getCond() const { return Cond.get(); }
  Expr *getStep() const { return Step.get(); }
  Stmt *getBody() const { return Body.get(); }

  static bool classof(const Stmt *S) { return S->getKind() == StmtKind::For; }

private:
  StmtPtr Init;
  ExprPtr Cond, Step;
  StmtPtr Body;
};

class ReturnStmt : public Stmt {
public:
  ReturnStmt(SourceLoc Loc, ExprPtr Value)
      : Stmt(StmtKind::Return, Loc), Value(std::move(Value)) {}

  Expr *getValue() const { return Value.get(); }

  static bool classof(const Stmt *S) {
    return S->getKind() == StmtKind::Return;
  }

private:
  ExprPtr Value;
};

class BreakStmt : public Stmt {
public:
  explicit BreakStmt(SourceLoc Loc) : Stmt(StmtKind::Break, Loc) {}

  static bool classof(const Stmt *S) { return S->getKind() == StmtKind::Break; }
};

class ContinueStmt : public Stmt {
public:
  explicit ContinueStmt(SourceLoc Loc) : Stmt(StmtKind::Continue, Loc) {}

  static bool classof(const Stmt *S) {
    return S->getKind() == StmtKind::Continue;
  }
};

//===----------------------------------------------------------------------===//
// Translation unit
//===----------------------------------------------------------------------===//

/// The root of the AST: every top-level declaration of one MiniC file.
class TranslationUnit {
public:
  std::vector<DeclPtr> Decls;

  /// Returns the function named \p Name, or null.
  FunctionDecl *findFunction(const std::string &Name) const;

  /// Renders the whole AST as an indented tree; used by tests and debugging.
  std::string dump() const;
};

/// Renders a single expression subtree (tests).
std::string dumpExpr(const Expr &E);

/// Renders a single statement subtree (tests).
std::string dumpStmt(const Stmt &S);

} // namespace impact

#endif // IMPACT_FRONTEND_AST_H
