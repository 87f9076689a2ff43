//===- tests/CommandLineTests.cpp - flag table unit tests --------------------===//
//
// Part of the impact-inline project, distributed under the MIT license.
//
//===----------------------------------------------------------------------===//

#include "driver/Pipeline.h"
#include "support/CommandLine.h"
#include "support/FaultInjection.h"
#include "support/StringUtils.h"

#include <gtest/gtest.h>

using namespace impact;
using cli::ParseResult;

namespace {

/// A small tool: one valued flag with an alias, one switch, one flag
/// with an optional value, one path.
struct Tool {
  std::string Engine = "walk";
  bool Trace = false;
  std::string Analyze = "<unset>";
  std::string Out;
  std::vector<cli::Flag> Flags;

  Tool() {
    cli::Flag EngineFlag{"engine", "E", "engine",
                         [this](const std::string &V, std::string &Error) {
                           if (V != "walk" && V != "vm") {
                             Error = "invalid engine '" + V + "'";
                             return false;
                           }
                           Engine = V;
                           return true;
                         }};
    EngineFlag.Short = 'e';
    cli::Flag AnalyzeFlag{"analyze", "RULES", "analyze",
                          [this](const std::string &V, std::string &) {
                            Analyze = V;
                            return true;
                          }};
    AnalyzeFlag.OptionalValue = true;
    Flags = {EngineFlag, cli::switchFlag("trace", "trace", Trace),
             AnalyzeFlag, cli::textFlag("out", "FILE", "output", Out)};
  }

  ParseResult parse(std::vector<std::string> Args, size_t Positionals = 0) {
    return cli::parseArgs(Args, Flags, Positionals);
  }
};

TEST(CommandLine, BothValueFormsApply) {
  Tool A;
  EXPECT_EQ(A.parse({"--engine=vm"}).Error, "");
  EXPECT_EQ(A.Engine, "vm");
  Tool B;
  EXPECT_EQ(B.parse({"--engine", "vm", "--out", "f.txt"}).Error, "");
  EXPECT_EQ(B.Engine, "vm");
  EXPECT_EQ(B.Out, "f.txt");
  Tool C;
  EXPECT_EQ(C.parse({"-e", "vm"}).Error, "");
  EXPECT_EQ(C.Engine, "vm");
}

TEST(CommandLine, SwitchTakesNoValue) {
  Tool A;
  EXPECT_EQ(A.parse({"--trace"}).Error, "");
  EXPECT_TRUE(A.Trace);
  Tool B;
  ParseResult R = B.parse({"--trace=1"});
  EXPECT_EQ(R.Error, "--trace takes no value");
}

TEST(CommandLine, OptionalValueNeverTakesTheNextWord) {
  Tool A;
  ParseResult R = A.parse({"--analyze", "compress"}, 1);
  EXPECT_EQ(R.Error, "");
  EXPECT_EQ(A.Analyze, "");
  EXPECT_EQ(R.Positionals, std::vector<std::string>{"compress"});
  Tool B;
  EXPECT_EQ(B.parse({"--analyze=dead-store"}).Error, "");
  EXPECT_EQ(B.Analyze, "dead-store");
}

TEST(CommandLine, MissingValueIsAnError) {
  for (std::vector<std::string> Args :
       {std::vector<std::string>{"--engine"}, {"--engine="},
        {"--engine", "--trace"}, {"-e"}}) {
    Tool T;
    ParseResult R = T.parse(Args);
    EXPECT_NE(R.Error.find("needs a value (E)"), std::string::npos)
        << R.Error;
    EXPECT_FALSE(T.Trace);
  }
}

TEST(CommandLine, UnknownFlagIsAnError) {
  Tool T;
  ParseResult R = T.parse({"--bogus=1"});
  EXPECT_EQ(R.Error, "unknown flag '--bogus' (see --help)");
  EXPECT_EQ(T.parse({"-x"}).Error, "unknown flag '-x' (see --help)");
}

TEST(CommandLine, TypoGetsASuggestion) {
  Tool T;
  ParseResult R = T.parse({"--engnie=vm"});
  EXPECT_EQ(R.Error,
            "unknown flag '--engnie'; did you mean '--engine'? (see --help)");
  EXPECT_EQ(T.Engine, "walk");
}

TEST(CommandLine, RepeatedFlagLastWins) {
  Tool T;
  ParseResult R =
      T.parse({"--engine=vm", "--engine", "walk", "--out=a", "--out=b"});
  EXPECT_EQ(R.Error, "");
  EXPECT_EQ(T.Engine, "walk");
  EXPECT_EQ(T.Out, "b");
}

TEST(CommandLine, ApplyErrorNamesTheFlag) {
  Tool T;
  ParseResult R = T.parse({"--trace", "--engine=jit", "--out=x"});
  EXPECT_EQ(R.Error, "--engine: invalid engine 'jit'");
  // Parsing stops at the first error.
  EXPECT_TRUE(T.Trace);
  EXPECT_EQ(T.Out, "");
}

TEST(CommandLine, PositionalsAreCounted) {
  Tool T;
  ParseResult R = T.parse({"a", "-5", "--trace"}, 2);
  EXPECT_EQ(R.Error, "");
  EXPECT_EQ(R.Positionals, (std::vector<std::string>{"a", "-5"}));
  ParseResult Extra = T.parse({"a", "b"}, 1);
  EXPECT_EQ(Extra.Error, "unexpected argument 'b' (see --help)");
}

TEST(CommandLine, HelpStopsParsing) {
  Tool T;
  EXPECT_TRUE(T.parse({"--trace", "--help", "--bogus"}).Help);
  EXPECT_TRUE(T.parse({"-h"}).Help);
  ParseResult R = T.parse({"--bogus", "--help"});
  EXPECT_FALSE(R.Help);
  EXPECT_NE(R.Error, "");
}

TEST(CommandLine, HelpListsEveryRow) {
  Tool T;
  std::string Help = cli::renderHelp("tool [file]", T.Flags);
  EXPECT_EQ(Help.rfind("usage: tool [file] [flags]\n", 0), 0u) << Help;
  for (const char *Row : {"--engine=E, -e E", "--trace ", "--analyze[=RULES]",
                          "--out=FILE", "--help, -h"})
    EXPECT_NE(Help.find(Row), std::string::npos) << Row << "\n" << Help;
}

TEST(CommandLine, PipelineRowsWriteIntoOptions) {
  PipelineOptions Options;
  FaultPlan Faults;
  std::vector<cli::Flag> Flags = getPipelineFlags(Options, Faults);
  std::vector<std::string> Names;
  for (const cli::Flag &F : Flags)
    Names.push_back(F.Name);
  EXPECT_EQ(Names, (std::vector<std::string>{"engine", "instrument", "passes",
                                             "analyze", "faults",
                                             "retries"}));
  ParseResult R = cli::parseArgs(
      {"--engine", "vm", "--instrument=mincover", "--passes=fold",
       "--analyze=dead-store", "--faults=wc/profile:steplimit@1",
       "--retries", "2"},
      Flags);
  ASSERT_EQ(R.Error, "") << R.Error;
  EXPECT_EQ(Options.Engine, ExecEngine::Vm);
  EXPECT_EQ(Options.Instrument, InstrumentMode::MinCover);
  EXPECT_EQ(renderOptPasses(Options.PreOpt), "fold");
  EXPECT_TRUE(Options.Analyze);
  EXPECT_TRUE(Options.Analysis.DeadStore);
  EXPECT_FALSE(Options.Analysis.UninitRead);
  EXPECT_EQ(Options.Faults, &Faults);
  EXPECT_EQ(renderFaultPlan(Faults), "wc/profile:steplimit@1");
  EXPECT_EQ(Options.RetryAttempts, 2u);

  EXPECT_EQ(cli::parseArgs({"--analyze=off", "--faults="}, Flags).Error,
            "--faults needs a value (SPEC)");
  EXPECT_EQ(cli::parseArgs({"--analyze=off"}, Flags).Error, "");
  EXPECT_FALSE(Options.Analyze);
  EXPECT_EQ(cli::parseArgs({"--retries=-1"}, Flags).Error,
            "--retries: expected a non-negative integer, got '-1'");
}

TEST(CommandLine, AnalyzeHelpIsAHelpRequest) {
  PipelineOptions Options;
  FaultPlan Faults;
  std::vector<cli::Flag> Flags = getPipelineFlags(Options, Faults);
  ParseResult R = cli::parseArgs({"--analyze=help", "--bogus"}, Flags);
  EXPECT_TRUE(R.Help);
  EXPECT_EQ(R.Error, "");
  EXPECT_EQ(R.HelpText, renderAnalysisRuleTable());
  EXPECT_FALSE(Options.Analyze);
  EXPECT_EQ(cli::parseArgs({"--help"}, Flags).HelpText, "");
  // A row without ValueHelp treats "help" as an ordinary value.
  EXPECT_EQ(cli::parseArgs({"--passes=help"}, Flags).Help, false);
}

TEST(CommandLine, PipelineRowsCanBeSelected) {
  PipelineOptions Options;
  FaultPlan Faults;
  std::vector<cli::Flag> Flags =
      getPipelineFlags(Options, Faults, {"faults"});
  ASSERT_EQ(Flags.size(), 1u);
  EXPECT_EQ(Flags[0].Name, "faults");
  EXPECT_EQ(cli::parseArgs({"--engine=vm"}, Flags).Error,
            "unknown flag '--engine' (see --help)");
}

TEST(CommandLine, NonNegativeNumbersAreStrict) {
  std::string Error;
  double D = 0;
  EXPECT_TRUE(cli::parseNonNegative("1.25", D, Error));
  EXPECT_EQ(D, 1.25);
  for (const char *Bad : {"abc", "-5", "", "1.5x", "inf", "nan", " 2"}) {
    double Untouched = 7;
    EXPECT_FALSE(cli::parseNonNegative(Bad, Untouched, Error)) << Bad;
    EXPECT_EQ(Untouched, 7);
    EXPECT_EQ(Error, std::string("expected a non-negative number, got '") +
                         Bad + "'");
  }
  int64_t I = 0;
  EXPECT_TRUE(cli::parseNonNegative("2048", I, Error));
  EXPECT_EQ(I, 2048);
  EXPECT_FALSE(cli::parseNonNegative("-5", I, Error));
  EXPECT_FALSE(cli::parseNonNegative("1.5", I, Error));
  unsigned U = 0;
  EXPECT_TRUE(cli::parseNonNegative("3", U, Error));
  EXPECT_EQ(U, 3u);
  EXPECT_FALSE(cli::parseNonNegative("-1", U, Error));
  EXPECT_FALSE(cli::parseNonNegative("99999999999", U, Error));
}

TEST(CommandLine, SelectionGrammar) {
  std::vector<std::string_view> Names = {"fold", "jump", "licm"};
  auto Select = [&](std::string_view Spec) {
    std::vector<bool> Selected;
    std::string_view Unknown;
    EXPECT_TRUE(cli::parseSelection(Spec, Names, Selected, Unknown)) << Spec;
    return Selected;
  };
  using V = std::vector<bool>;
  for (const char *All : {"", "all", "1", "on", " all "})
    EXPECT_EQ(Select(All), (V{true, true, true})) << All;
  EXPECT_EQ(Select("licm"), (V{false, false, true}));
  EXPECT_EQ(Select("fold, licm"), (V{true, false, true}));
  EXPECT_EQ(Select("-jump"), (V{true, false, true}));
  EXPECT_EQ(Select("all,-jump"), (V{true, false, true}));
  EXPECT_EQ(Select("fold,-fold"), (V{false, false, false}));
  EXPECT_EQ(Select("licm,all"), (V{true, true, true}));

  std::vector<bool> Selected;
  std::string_view Unknown;
  EXPECT_FALSE(cli::parseSelection("fold,-lcm", Names, Selected, Unknown));
  EXPECT_EQ(Unknown, "lcm");
  EXPECT_FALSE(cli::parseSelection("fold,1", Names, Selected, Unknown));
  EXPECT_EQ(Unknown, "1");
}

TEST(StringUtils, FindClosestMatch) {
  std::vector<std::string_view> Names = {"engine", "instrument", "passes"};
  EXPECT_EQ(findClosestMatch("engnie", Names), "engine");
  EXPECT_EQ(findClosestMatch("pases", Names), "passes");
  EXPECT_EQ(findClosestMatch("zzzzzzzz", Names), "");
  EXPECT_EQ(findClosestMatch("x", {}), "");
}

} // namespace
