//===- tests/TestUtil.cpp --------------------------------------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "TestUtil.h"

#include "support/CommandLine.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>

using namespace impact;

unsigned test::getFuzzSeedCount(unsigned Floor) {
  unsigned Count = 64;
  const char *Env = std::getenv("IMPACT_FUZZ_SEEDS");
  std::string Error;
  if (Env && *Env && (!cli::parseNonNegative(Env, Count, Error) || Count == 0))
    ADD_FAILURE() << "IMPACT_FUZZ_SEEDS must be a positive integer, got '"
                  << Env << "'";
  return std::max(Count, Floor);
}

std::string test::renderHash(const Hash128 &H) {
  char Buf[33];
  std::snprintf(Buf, sizeof(Buf), "%016llx%016llx",
                static_cast<unsigned long long>(H.Hi),
                static_cast<unsigned long long>(H.Lo));
  return Buf;
}

Module test::compileOk(std::string_view Source, bool RequireMain) {
  CompilationResult C = compileMiniC(Source, "test", RequireMain);
  if (!C.Ok)
    ADD_FAILURE() << "compilation failed:\n" << C.Errors;
  return std::move(C.M);
}

std::string test::compileErrors(std::string_view Source, bool RequireMain) {
  CompilationResult C = compileMiniC(Source, "test", RequireMain);
  if (C.Ok)
    ADD_FAILURE() << "compilation unexpectedly succeeded";
  return C.Errors;
}

std::string test::runSource(std::string_view Source, std::string Input,
                            std::string Input2) {
  Module M = compileOk(Source);
  if (M.Funcs.empty())
    return std::string();
  ExecResult R = runOk(M, std::move(Input), std::move(Input2));
  return R.Output;
}

ExecResult test::runOk(const Module &M, std::string Input,
                       std::string Input2) {
  RunOptions Opts;
  Opts.Input = std::move(Input);
  Opts.Input2 = std::move(Input2);
  ExecResult R = runProgram(M, Opts);
  EXPECT_TRUE(R.ok()) << "execution failed: " << R.TrapMessage;
  return R;
}

ProfileResult test::profileInputs(const Module &M,
                                  const std::vector<std::string> &Inputs) {
  std::vector<RunInput> Runs;
  for (const std::string &In : Inputs)
    Runs.push_back(RunInput{In, ""});
  return profileProgram(M, Runs);
}

const char *const test::kCallHeavyProgram = R"MC(
extern int getchar();
extern int print_int(int v);
extern int putchar(int c);

int square(int x) { return x * x; }

int cube(int x) { return x * square(x); }

int accumulate(int n) {
  int total;
  int i;
  total = 0;
  for (i = 0; i < n; i++) {
    total = total + cube(i) - square(i);
  }
  return total;
}

int main() {
  int c;
  int n;
  n = 0;
  c = getchar();
  while (c != -1) {
    n = n + 1;
    c = getchar();
  }
  print_int(accumulate(n));
  putchar('\n');
  return 0;
}
)MC";

const char *const test::kRecursiveProgram = R"MC(
extern int getchar();
extern int print_int(int v);
extern int putchar(int c);

int bigframe(int x) {
  int buf[5000];
  buf[0] = x;
  buf[4999] = x + 1;
  return buf[0] + buf[4999];
}

int fib(int n) {
  if (n < 2) return n;
  return fib(n - 1) + fib(n - 2) + bigframe(n) * 0;
}

int main() {
  int c;
  int n;
  n = 0;
  c = getchar();
  while (c != -1) {
    n = n + 1;
    c = getchar();
  }
  print_int(fib(n % 12));
  putchar('\n');
  return 0;
}
)MC";

const char *const test::kPointerCallProgram = R"MC(
extern int getchar();
extern int print_int(int v);
extern int putchar(int c);

int add_one(int x) { return x + 1; }

int add_two(int x) { return x + 2; }

int table[2];

int init() {
  table[0] = add_one;
  table[1] = add_two;
  return 0;
}

int apply(int which, int x) {
  int (*f)(int);
  f = table[which];
  return f(x);
}

int main() {
  int c;
  int total;
  init();
  total = 0;
  c = getchar();
  while (c != -1) {
    total = apply(c % 2, total);
    c = getchar();
  }
  print_int(total);
  putchar('\n');
  return 0;
}
)MC";

std::string test::makeServerScript() {
  std::string Script;
  Script += "# a server session: two programs, one edit, one targeted\n";
  Script += "# recompile, then a suite benchmark's unit and inputs\n";
  Script += std::string("unit one <<END\n") + test::kCallHeavyProgram +
            "\nEND\n";
  Script += "program one = one\n";
  Script += "input one abcd\n";
  Script += "input one\n";
  Script += std::string("unit two <<END\n") + test::kRecursiveProgram +
            "\nEND\n";
  Script += "program two = two\n";
  Script += "input two ab\n";
  Script += "recompile\n";
  Script += std::string("replace one <<END\n") + test::kPointerCallProgram +
            "\nEND\n";
  Script += "recompile one\n";
  Script += "recompile\n";
  Script += "suite-unit three wc\n";
  Script += "program three = three\n";
  Script += "suite-inputs three wc 2\n";
  return Script;
}

const char *const test::kDuplicateUnitScript =
    "unit u <<E\nint f() { return 1; }\nE\n"
    "unit u <<E\nint f() { return 2; }\nE\n";
