//===- frontend/Parser.h - MiniC recursive-descent parser ------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#ifndef IMPACT_FRONTEND_PARSER_H
#define IMPACT_FRONTEND_PARSER_H

#include "frontend/Ast.h"
#include "frontend/Lexer.h"

#include <memory>

namespace impact {

/// The parser's nesting budget, one constant for two bounds. Recursion:
/// each nested statement, full expression (parenthesis, call argument,
/// index, assignment right-hand side, conditional arm) and unary operand
/// costs one level. Height: no expression tree may be taller, which
/// bounds the left-deep trees that loops build for operator and postfix
/// chains without recursing. Deeper input is one error diagnostic, so
/// Sema, IrGen and AST destruction only ever walk bounded trees.
inline constexpr unsigned kMaxNestingDepth = 256;

/// Recursive-descent parser producing a TranslationUnit. On syntax errors
/// it reports a diagnostic and synchronizes to the next statement/decl
/// boundary, so one pass can surface several errors. Callers must check
/// DiagnosticEngine::hasErrors() before using the AST.
class Parser {
public:
  Parser(std::string_view Text, DiagnosticEngine &Diags);

  /// Parses the whole buffer.
  std::unique_ptr<TranslationUnit> parseTranslationUnit();

private:
  // Token plumbing.
  const Token &peek() const { return Tok; }
  Token consume();
  bool check(TokenKind Kind) const { return Tok.is(Kind); }
  bool accept(TokenKind Kind);
  /// Consumes a token of kind \p Kind or reports an error; returns success.
  bool expect(TokenKind Kind, const char *Context);
  void synchronizeToDeclBoundary();
  void synchronizeToStmtBoundary();

  // Nesting budget (kMaxNestingDepth).
  /// Holds one nesting level while alive; converts to false, entering
  /// nothing, once the budget is spent.
  class NestingScope {
  public:
    explicit NestingScope(Parser &P);
    ~NestingScope();
    explicit operator bool() const { return Entered; }

  private:
    Parser &P;
    bool Entered;
  };
  /// Returns \p E, or null after reporting when it is taller than the
  /// budget.
  ExprPtr checkHeight(ExprPtr E);
  /// Reports the overrun once and skips the rest of the input, so no
  /// enclosing construct can keep building.
  void reportTooDeep();

  // Types and declarators.
  bool isTypeStart() const;
  Type parseTypePrefix();             // 'int' '*'* | 'void'
  /// Parses a function-pointer declarator suffix after "int ("; returns the
  /// declared name through \p Name.
  Type parseFuncPtrDeclarator(Type RetTy, std::string &Name);

  // Declarations.
  DeclPtr parseTopLevelDecl();
  DeclPtr parseFunctionRest(Type RetTy, Token NameTok, bool IsExtern);
  std::unique_ptr<VarDecl> parseVarRest(Type Ty, Token NameTok, bool Global);
  std::unique_ptr<VarDecl> parseLocalDecl();
  std::vector<std::unique_ptr<ParamDecl>> parseParamList();

  // Statements.
  StmtPtr parseStmt();
  StmtPtr parseCompound();
  StmtPtr parseIf();
  StmtPtr parseWhile();
  StmtPtr parseFor();
  StmtPtr parseReturn();

  // Expressions (precedence climbing).
  ExprPtr parseExpr();        // assignment level
  ExprPtr parseAssignment();
  ExprPtr parseConditional();
  ExprPtr parseBinary(int MinPrec);
  ExprPtr parseUnary();
  ExprPtr parsePostfix();
  ExprPtr parsePrimary();

  Lexer Lex;
  DiagnosticEngine &Diags;
  Token Tok;
  unsigned Depth = 0;
  bool TooDeep = false;
};

} // namespace impact

#endif // IMPACT_FRONTEND_PARSER_H
