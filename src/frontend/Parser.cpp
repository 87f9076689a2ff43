//===- frontend/Parser.cpp --------------------------------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "frontend/Parser.h"

#include <cassert>
#include <string>

using namespace impact;

Parser::Parser(std::string_view Text, DiagnosticEngine &Diags)
    : Lex(Text, Diags), Diags(Diags) {
  Tok = Lex.lex();
}

Token Parser::consume() {
  Token Current = Tok;
  Tok = Lex.lex();
  return Current;
}

bool Parser::accept(TokenKind Kind) {
  if (!check(Kind))
    return false;
  consume();
  return true;
}

bool Parser::expect(TokenKind Kind, const char *Context) {
  if (accept(Kind))
    return true;
  if (TooDeep)
    return false; // the input was abandoned; one diagnostic is enough
  Diags.error(Tok.Loc, std::string("expected ") + getTokenKindName(Kind) +
                           " " + Context + ", found " +
                           getTokenKindName(Tok.Kind));
  return false;
}

void Parser::synchronizeToDeclBoundary() {
  // Skip to the token after the next ';' or past a top-level '}'.
  unsigned BraceDepth = 0;
  while (!check(TokenKind::Eof)) {
    if (check(TokenKind::LBrace))
      ++BraceDepth;
    if (check(TokenKind::RBrace)) {
      if (BraceDepth <= 1) {
        consume();
        return;
      }
      --BraceDepth;
    }
    if (check(TokenKind::Semicolon) && BraceDepth == 0) {
      consume();
      return;
    }
    consume();
  }
}

void Parser::synchronizeToStmtBoundary() {
  while (!check(TokenKind::Eof) && !check(TokenKind::Semicolon) &&
         !check(TokenKind::RBrace))
    consume();
  accept(TokenKind::Semicolon);
}

//===----------------------------------------------------------------------===//
// Nesting budget
//===----------------------------------------------------------------------===//

Parser::NestingScope::NestingScope(Parser &P) : P(P), Entered(false) {
  if (P.TooDeep)
    return;
  if (P.Depth == kMaxNestingDepth) {
    P.reportTooDeep();
    return;
  }
  ++P.Depth;
  Entered = true;
}

Parser::NestingScope::~NestingScope() {
  if (Entered)
    --P.Depth;
}

ExprPtr Parser::checkHeight(ExprPtr E) {
  if (E->getHeight() <= kMaxNestingDepth)
    return E;
  reportTooDeep();
  return nullptr;
}

void Parser::reportTooDeep() {
  if (!TooDeep)
    Diags.error(Tok.Loc, "nesting budget exceeded: more than " +
                             std::to_string(kMaxNestingDepth) + " levels");
  TooDeep = true;
  while (!check(TokenKind::Eof))
    consume();
}

//===----------------------------------------------------------------------===//
// Types and declarators
//===----------------------------------------------------------------------===//

bool Parser::isTypeStart() const {
  return check(TokenKind::KwInt) || check(TokenKind::KwVoid);
}

Type Parser::parseTypePrefix() {
  if (accept(TokenKind::KwVoid))
    return Type::makeVoid();
  expect(TokenKind::KwInt, "in type");
  unsigned Depth = 0;
  while (accept(TokenKind::Star))
    ++Depth;
  return Depth == 0 ? Type::makeInt() : Type::makePtr(Depth);
}

Type Parser::parseFuncPtrDeclarator(Type RetTy, std::string &Name) {
  // Caller consumed "int" ["*"*] and "("; we stand on '*'.
  expect(TokenKind::Star, "in function pointer declarator");
  Token NameTok = consume();
  if (!NameTok.is(TokenKind::Identifier))
    Diags.error(NameTok.Loc, "expected function pointer name");
  Name = NameTok.Text;
  expect(TokenKind::RParen, "after function pointer name");
  expect(TokenKind::LParen, "to begin function pointer parameter types");
  unsigned NumParams = 0;
  if (!check(TokenKind::RParen)) {
    if (!accept(TokenKind::KwVoid)) {
      do {
        parseTypePrefix();
        ++NumParams;
      } while (accept(TokenKind::Comma));
    }
  }
  expect(TokenKind::RParen, "to end function pointer parameter types");
  return Type::makeFuncPtr(NumParams, RetTy.isVoid());
}

//===----------------------------------------------------------------------===//
// Declarations
//===----------------------------------------------------------------------===//

std::unique_ptr<TranslationUnit> Parser::parseTranslationUnit() {
  auto TU = std::make_unique<TranslationUnit>();
  while (!check(TokenKind::Eof)) {
    unsigned ErrorsBefore = Diags.getNumErrors();
    DeclPtr D = parseTopLevelDecl();
    if (D)
      TU->Decls.push_back(std::move(D));
    else if (Diags.getNumErrors() != ErrorsBefore)
      synchronizeToDeclBoundary();
    else
      break; // No progress and no new error: avoid an infinite loop.
  }
  return TU;
}

DeclPtr Parser::parseTopLevelDecl() {
  bool IsExtern = accept(TokenKind::KwExtern);
  if (!isTypeStart()) {
    Diags.error(Tok.Loc, std::string("expected declaration, found ") +
                             getTokenKindName(Tok.Kind));
    return nullptr;
  }
  SourceLoc Loc = Tok.Loc;
  Type Ty = parseTypePrefix();

  // Function pointer global: int (*name)(params...);
  if (check(TokenKind::LParen)) {
    consume();
    std::string Name;
    Type FpTy = parseFuncPtrDeclarator(Ty, Name);
    if (IsExtern)
      Diags.error(Loc, "'extern' is only supported on functions");
    ExprPtr Init;
    if (accept(TokenKind::Equal))
      Init = parseExpr();
    expect(TokenKind::Semicolon, "after global declaration");
    return std::make_unique<VarDecl>(Loc, std::move(Name), FpTy,
                                     /*ArraySize=*/-1, std::move(Init),
                                     /*Global=*/true);
  }

  Token NameTok = consume();
  if (!NameTok.is(TokenKind::Identifier)) {
    Diags.error(NameTok.Loc, std::string("expected name, found ") +
                                 getTokenKindName(NameTok.Kind));
    return nullptr;
  }

  if (check(TokenKind::LParen))
    return parseFunctionRest(Ty, NameTok, IsExtern);

  if (IsExtern)
    Diags.error(NameTok.Loc, "'extern' is only supported on functions");
  if (Ty.isVoid()) {
    Diags.error(NameTok.Loc, "variable cannot have void type");
    return nullptr;
  }
  return parseVarRest(Ty, NameTok, /*Global=*/true);
}

DeclPtr Parser::parseFunctionRest(Type RetTy, Token NameTok, bool IsExtern) {
  expect(TokenKind::LParen, "after function name");
  std::vector<std::unique_ptr<ParamDecl>> Params = parseParamList();
  expect(TokenKind::RParen, "after parameter list");

  if (accept(TokenKind::Semicolon)) {
    // Body-less declaration. Non-extern forward declarations are not
    // supported in MiniC; treat them as extern so simple headers still work.
    return std::make_unique<FunctionDecl>(NameTok.Loc, NameTok.Text, RetTy,
                                          std::move(Params), nullptr,
                                          /*Extern=*/true);
  }
  if (IsExtern) {
    Diags.error(Tok.Loc, "extern function cannot have a body");
    return nullptr;
  }
  if (!check(TokenKind::LBrace)) {
    Diags.error(Tok.Loc, "expected '{' to begin function body");
    return nullptr;
  }
  StmtPtr Body = parseCompound();
  return std::make_unique<FunctionDecl>(NameTok.Loc, NameTok.Text, RetTy,
                                        std::move(Params), std::move(Body),
                                        /*Extern=*/false);
}

std::vector<std::unique_ptr<ParamDecl>> Parser::parseParamList() {
  std::vector<std::unique_ptr<ParamDecl>> Params;
  if (check(TokenKind::RParen))
    return Params;
  if (check(TokenKind::KwVoid)) {
    consume();
    return Params;
  }
  do {
    SourceLoc Loc = Tok.Loc;
    if (!check(TokenKind::KwInt)) {
      Diags.error(Loc, "expected parameter type");
      return Params;
    }
    Type Ty = parseTypePrefix();
    if (check(TokenKind::LParen)) {
      consume();
      std::string Name;
      Type FpTy = parseFuncPtrDeclarator(Ty, Name);
      Params.push_back(std::make_unique<ParamDecl>(Loc, std::move(Name), FpTy));
      continue;
    }
    Token NameTok = consume();
    if (!NameTok.is(TokenKind::Identifier)) {
      Diags.error(NameTok.Loc, "expected parameter name");
      return Params;
    }
    Params.push_back(
        std::make_unique<ParamDecl>(NameTok.Loc, NameTok.Text, Ty));
  } while (accept(TokenKind::Comma));
  return Params;
}

std::unique_ptr<VarDecl> Parser::parseVarRest(Type Ty, Token NameTok,
                                              bool Global) {
  int64_t ArraySize = -1;
  if (accept(TokenKind::LBracket)) {
    Token SizeTok = consume();
    if (!SizeTok.is(TokenKind::IntLiteral) || SizeTok.IntValue <= 0)
      Diags.error(SizeTok.Loc, "array size must be a positive integer literal");
    else
      ArraySize = SizeTok.IntValue;
    expect(TokenKind::RBracket, "after array size");
  }
  ExprPtr Init;
  if (accept(TokenKind::Equal)) {
    if (ArraySize >= 0)
      Diags.error(Tok.Loc, "array initializers are not supported");
    Init = parseExpr();
  }
  expect(TokenKind::Semicolon, "after variable declaration");
  return std::make_unique<VarDecl>(NameTok.Loc, NameTok.Text, Ty, ArraySize,
                                   std::move(Init), Global);
}

std::unique_ptr<VarDecl> Parser::parseLocalDecl() {
  SourceLoc Loc = Tok.Loc;
  Type Ty = parseTypePrefix();
  if (Ty.isVoid()) {
    Diags.error(Loc, "variable cannot have void type");
    synchronizeToStmtBoundary();
    return nullptr;
  }
  if (check(TokenKind::LParen)) {
    consume();
    std::string Name;
    Type FpTy = parseFuncPtrDeclarator(Ty, Name);
    ExprPtr Init;
    if (accept(TokenKind::Equal))
      Init = parseExpr();
    expect(TokenKind::Semicolon, "after variable declaration");
    return std::make_unique<VarDecl>(Loc, std::move(Name), FpTy,
                                     /*ArraySize=*/-1, std::move(Init),
                                     /*Global=*/false);
  }
  Token NameTok = consume();
  if (!NameTok.is(TokenKind::Identifier)) {
    Diags.error(NameTok.Loc, "expected variable name");
    synchronizeToStmtBoundary();
    return nullptr;
  }
  return parseVarRest(Ty, NameTok, /*Global=*/false);
}

//===----------------------------------------------------------------------===//
// Statements
//===----------------------------------------------------------------------===//

StmtPtr Parser::parseStmt() {
  NestingScope Nest(*this);
  if (!Nest)
    return nullptr;
  switch (Tok.Kind) {
  case TokenKind::LBrace:
    return parseCompound();
  case TokenKind::KwIf:
    return parseIf();
  case TokenKind::KwWhile:
    return parseWhile();
  case TokenKind::KwFor:
    return parseFor();
  case TokenKind::KwReturn:
    return parseReturn();
  case TokenKind::KwBreak: {
    Token T = consume();
    expect(TokenKind::Semicolon, "after 'break'");
    return std::make_unique<BreakStmt>(T.Loc);
  }
  case TokenKind::KwContinue: {
    Token T = consume();
    expect(TokenKind::Semicolon, "after 'continue'");
    return std::make_unique<ContinueStmt>(T.Loc);
  }
  case TokenKind::KwInt:
  case TokenKind::KwVoid: {
    SourceLoc Loc = Tok.Loc;
    std::unique_ptr<VarDecl> Var = parseLocalDecl();
    if (!Var)
      return nullptr;
    return std::make_unique<DeclStmt>(Loc, std::move(Var));
  }
  case TokenKind::Semicolon: {
    // Empty statement; represent it as an empty compound.
    Token T = consume();
    return std::make_unique<CompoundStmt>(T.Loc, std::vector<StmtPtr>());
  }
  default: {
    SourceLoc Loc = Tok.Loc;
    ExprPtr E = parseExpr();
    if (!E) {
      synchronizeToStmtBoundary();
      return nullptr;
    }
    expect(TokenKind::Semicolon, "after expression statement");
    return std::make_unique<ExprStmt>(Loc, std::move(E));
  }
  }
}

StmtPtr Parser::parseCompound() {
  SourceLoc Loc = Tok.Loc;
  expect(TokenKind::LBrace, "to begin block");
  std::vector<StmtPtr> Body;
  while (!check(TokenKind::RBrace) && !check(TokenKind::Eof)) {
    unsigned ErrorsBefore = Diags.getNumErrors();
    StmtPtr S = parseStmt();
    if (S)
      Body.push_back(std::move(S));
    else if (Diags.getNumErrors() == ErrorsBefore)
      break;
  }
  expect(TokenKind::RBrace, "to end block");
  return std::make_unique<CompoundStmt>(Loc, std::move(Body));
}

StmtPtr Parser::parseIf() {
  Token T = consume();
  expect(TokenKind::LParen, "after 'if'");
  ExprPtr Cond = parseExpr();
  expect(TokenKind::RParen, "after if condition");
  StmtPtr Then = parseStmt();
  StmtPtr Else;
  if (accept(TokenKind::KwElse))
    Else = parseStmt();
  if (!Cond || !Then)
    return nullptr;
  return std::make_unique<IfStmt>(T.Loc, std::move(Cond), std::move(Then),
                                  std::move(Else));
}

StmtPtr Parser::parseWhile() {
  Token T = consume();
  expect(TokenKind::LParen, "after 'while'");
  ExprPtr Cond = parseExpr();
  expect(TokenKind::RParen, "after while condition");
  StmtPtr Body = parseStmt();
  if (!Cond || !Body)
    return nullptr;
  return std::make_unique<WhileStmt>(T.Loc, std::move(Cond), std::move(Body));
}

StmtPtr Parser::parseFor() {
  Token T = consume();
  expect(TokenKind::LParen, "after 'for'");

  StmtPtr Init;
  if (check(TokenKind::Semicolon)) {
    consume();
  } else if (isTypeStart()) {
    SourceLoc Loc = Tok.Loc;
    std::unique_ptr<VarDecl> Var = parseLocalDecl();
    if (Var)
      Init = std::make_unique<DeclStmt>(Loc, std::move(Var));
  } else {
    SourceLoc Loc = Tok.Loc;
    ExprPtr E = parseExpr();
    expect(TokenKind::Semicolon, "after for-init expression");
    if (E)
      Init = std::make_unique<ExprStmt>(Loc, std::move(E));
  }

  ExprPtr Cond;
  if (!check(TokenKind::Semicolon))
    Cond = parseExpr();
  expect(TokenKind::Semicolon, "after for condition");

  ExprPtr Step;
  if (!check(TokenKind::RParen))
    Step = parseExpr();
  expect(TokenKind::RParen, "after for clauses");

  StmtPtr Body = parseStmt();
  if (!Body)
    return nullptr;
  return std::make_unique<ForStmt>(T.Loc, std::move(Init), std::move(Cond),
                                   std::move(Step), std::move(Body));
}

StmtPtr Parser::parseReturn() {
  Token T = consume();
  ExprPtr Value;
  if (!check(TokenKind::Semicolon))
    Value = parseExpr();
  expect(TokenKind::Semicolon, "after return statement");
  return std::make_unique<ReturnStmt>(T.Loc, std::move(Value));
}

//===----------------------------------------------------------------------===//
// Expressions
//===----------------------------------------------------------------------===//

ExprPtr Parser::parseExpr() { return parseAssignment(); }

ExprPtr Parser::parseAssignment() {
  NestingScope Nest(*this);
  if (!Nest)
    return nullptr;
  ExprPtr Lhs = parseConditional();
  if (!Lhs)
    return nullptr;

  AssignOpKind Op;
  switch (Tok.Kind) {
  case TokenKind::Equal:
    Op = AssignOpKind::Assign;
    break;
  case TokenKind::PlusEqual:
    Op = AssignOpKind::AddAssign;
    break;
  case TokenKind::MinusEqual:
    Op = AssignOpKind::SubAssign;
    break;
  case TokenKind::StarEqual:
    Op = AssignOpKind::MulAssign;
    break;
  case TokenKind::SlashEqual:
    Op = AssignOpKind::DivAssign;
    break;
  case TokenKind::PercentEqual:
    Op = AssignOpKind::RemAssign;
    break;
  default:
    return Lhs;
  }
  Token OpTok = consume();
  ExprPtr Rhs = parseAssignment(); // right-associative
  if (!Rhs)
    return nullptr;
  return checkHeight(std::make_unique<AssignExpr>(OpTok.Loc, Op,
                                                  std::move(Lhs),
                                                  std::move(Rhs)));
}

ExprPtr Parser::parseConditional() {
  ExprPtr Cond = parseBinary(/*MinPrec=*/1);
  if (!Cond || !check(TokenKind::Question))
    return Cond;
  Token QTok = consume();
  ExprPtr Then = parseAssignment();
  expect(TokenKind::Colon, "in conditional expression");
  NestingScope Nest(*this);
  if (!Nest)
    return nullptr;
  ExprPtr Else = parseConditional();
  if (!Then || !Else)
    return nullptr;
  return checkHeight(std::make_unique<ConditionalExpr>(
      QTok.Loc, std::move(Cond), std::move(Then), std::move(Else)));
}

namespace {
/// Binary operator precedence table; higher binds tighter. Returns 0 for
/// non-binary-operator tokens.
int getBinaryPrecedence(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::PipePipe:
    return 1;
  case TokenKind::AmpAmp:
    return 2;
  case TokenKind::Pipe:
    return 3;
  case TokenKind::Caret:
    return 4;
  case TokenKind::Amp:
    return 5;
  case TokenKind::EqualEqual:
  case TokenKind::BangEqual:
    return 6;
  case TokenKind::Less:
  case TokenKind::LessEqual:
  case TokenKind::Greater:
  case TokenKind::GreaterEqual:
    return 7;
  case TokenKind::LessLess:
  case TokenKind::GreaterGreater:
    return 8;
  case TokenKind::Plus:
  case TokenKind::Minus:
    return 9;
  case TokenKind::Star:
  case TokenKind::Slash:
  case TokenKind::Percent:
    return 10;
  default:
    return 0;
  }
}

BinaryOpKind getBinaryOpKind(TokenKind Kind) {
  switch (Kind) {
  case TokenKind::PipePipe:
    return BinaryOpKind::LogicalOr;
  case TokenKind::AmpAmp:
    return BinaryOpKind::LogicalAnd;
  case TokenKind::Pipe:
    return BinaryOpKind::BitOr;
  case TokenKind::Caret:
    return BinaryOpKind::BitXor;
  case TokenKind::Amp:
    return BinaryOpKind::BitAnd;
  case TokenKind::EqualEqual:
    return BinaryOpKind::Eq;
  case TokenKind::BangEqual:
    return BinaryOpKind::Ne;
  case TokenKind::Less:
    return BinaryOpKind::Lt;
  case TokenKind::LessEqual:
    return BinaryOpKind::Le;
  case TokenKind::Greater:
    return BinaryOpKind::Gt;
  case TokenKind::GreaterEqual:
    return BinaryOpKind::Ge;
  case TokenKind::LessLess:
    return BinaryOpKind::Shl;
  case TokenKind::GreaterGreater:
    return BinaryOpKind::Shr;
  case TokenKind::Plus:
    return BinaryOpKind::Add;
  case TokenKind::Minus:
    return BinaryOpKind::Sub;
  case TokenKind::Star:
    return BinaryOpKind::Mul;
  case TokenKind::Slash:
    return BinaryOpKind::Div;
  case TokenKind::Percent:
    return BinaryOpKind::Rem;
  default:
    assert(false && "not a binary operator token");
    return BinaryOpKind::Add;
  }
}
} // namespace

ExprPtr Parser::parseBinary(int MinPrec) {
  ExprPtr Lhs = parseUnary();
  if (!Lhs)
    return nullptr;
  while (true) {
    int Prec = getBinaryPrecedence(Tok.Kind);
    if (Prec < MinPrec || Prec == 0)
      return Lhs;
    Token OpTok = consume();
    ExprPtr Rhs = parseBinary(Prec + 1); // all binary ops are left-assoc
    if (!Rhs)
      return nullptr;
    Lhs = checkHeight(std::make_unique<BinaryExpr>(
        OpTok.Loc, getBinaryOpKind(OpTok.Kind), std::move(Lhs),
        std::move(Rhs)));
    if (!Lhs)
      return nullptr;
  }
}

ExprPtr Parser::parseUnary() {
  UnaryOpKind Op;
  switch (Tok.Kind) {
  case TokenKind::Minus:
    Op = UnaryOpKind::Neg;
    break;
  case TokenKind::Tilde:
    Op = UnaryOpKind::BitNot;
    break;
  case TokenKind::Bang:
    Op = UnaryOpKind::LogicalNot;
    break;
  case TokenKind::Star:
    Op = UnaryOpKind::Deref;
    break;
  case TokenKind::Amp:
    Op = UnaryOpKind::AddrOf;
    break;
  case TokenKind::PlusPlus:
    Op = UnaryOpKind::PreInc;
    break;
  case TokenKind::MinusMinus:
    Op = UnaryOpKind::PreDec;
    break;
  default:
    return parsePostfix();
  }
  Token OpTok = consume();
  NestingScope Nest(*this);
  if (!Nest)
    return nullptr;
  ExprPtr Operand = parseUnary();
  if (!Operand)
    return nullptr;
  return checkHeight(
      std::make_unique<UnaryExpr>(OpTok.Loc, Op, std::move(Operand)));
}

ExprPtr Parser::parsePostfix() {
  ExprPtr E = parsePrimary();
  if (!E)
    return nullptr;
  while (true) {
    if (check(TokenKind::LParen)) {
      Token LTok = consume();
      std::vector<ExprPtr> Args;
      if (!check(TokenKind::RParen)) {
        do {
          ExprPtr Arg = parseAssignment();
          if (!Arg)
            return nullptr;
          Args.push_back(std::move(Arg));
        } while (accept(TokenKind::Comma));
      }
      expect(TokenKind::RParen, "after call arguments");
      E = checkHeight(
          std::make_unique<CallExpr>(LTok.Loc, std::move(E), std::move(Args)));
      if (!E)
        return nullptr;
      continue;
    }
    if (check(TokenKind::LBracket)) {
      Token LTok = consume();
      ExprPtr Index = parseExpr();
      expect(TokenKind::RBracket, "after array index");
      if (!Index)
        return nullptr;
      E = checkHeight(std::make_unique<IndexExpr>(LTok.Loc, std::move(E),
                                                  std::move(Index)));
      if (!E)
        return nullptr;
      continue;
    }
    if (check(TokenKind::PlusPlus)) {
      Token T = consume();
      E = checkHeight(std::make_unique<UnaryExpr>(T.Loc, UnaryOpKind::PostInc,
                                                  std::move(E)));
      if (!E)
        return nullptr;
      continue;
    }
    if (check(TokenKind::MinusMinus)) {
      Token T = consume();
      E = checkHeight(std::make_unique<UnaryExpr>(T.Loc, UnaryOpKind::PostDec,
                                                  std::move(E)));
      if (!E)
        return nullptr;
      continue;
    }
    return E;
  }
}

ExprPtr Parser::parsePrimary() {
  switch (Tok.Kind) {
  case TokenKind::IntLiteral: {
    Token T = consume();
    return std::make_unique<IntLiteralExpr>(T.Loc, T.IntValue);
  }
  case TokenKind::StringLiteral: {
    Token T = consume();
    return std::make_unique<StringLiteralExpr>(T.Loc, T.Text);
  }
  case TokenKind::Identifier: {
    Token T = consume();
    return std::make_unique<DeclRefExpr>(T.Loc, T.Text);
  }
  case TokenKind::LParen: {
    consume();
    ExprPtr E = parseExpr();
    expect(TokenKind::RParen, "after parenthesized expression");
    return E;
  }
  default:
    Diags.error(Tok.Loc, std::string("expected expression, found ") +
                             getTokenKindName(Tok.Kind));
    return nullptr;
  }
}
