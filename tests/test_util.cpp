#include <gtest/gtest.h>

#include <filesystem>

#include "util/cli.h"
#include "util/csv.h"
#include "util/spec.h"
#include "util/table.h"

namespace sc::util {
namespace {

TEST(Cli, ParsesAllFlagForms) {
  // Note: a bare flag followed by a non-flag token ("--verbose" at the
  // end here) stays boolean; "--name value" consumes the next token.
  const char* argv[] = {"prog",       "--alpha=0.5", "--runs", "10",
                        "positional", "--name",      "x y",    "--verbose"};
  const Cli cli(8, argv);
  EXPECT_EQ(cli.program(), "prog");
  EXPECT_DOUBLE_EQ(cli.get_or("alpha", 0.0), 0.5);
  EXPECT_EQ(cli.get_or("runs", 0LL), 10);
  EXPECT_TRUE(cli.get_or("verbose", false));
  EXPECT_EQ(cli.get_or("name", std::string()), "x y");
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "positional");
}

TEST(Cli, DefaultsWhenAbsent) {
  const char* argv[] = {"prog"};
  const Cli cli(1, argv);
  EXPECT_FALSE(cli.has("missing"));
  EXPECT_EQ(cli.get("missing"), std::nullopt);
  EXPECT_DOUBLE_EQ(cli.get_or("missing", 1.5), 1.5);
  EXPECT_EQ(cli.get_or("missing", std::string("d")), "d");
  EXPECT_FALSE(cli.get_or("missing", false));
}

TEST(Cli, BooleanValueParsing) {
  const char* argv[] = {"prog", "--a=1", "--b=true", "--c=no", "--d=off"};
  const Cli cli(5, argv);
  EXPECT_TRUE(cli.get_or("a", false));
  EXPECT_TRUE(cli.get_or("b", false));
  EXPECT_FALSE(cli.get_or("c", true));
  EXPECT_FALSE(cli.get_or("d", true));
}

TEST(Cli, MalformedNumericFlagsNameTheFlag) {
  // Regression: the numeric getters used to call std::stod/std::stoll
  // directly, so "--threads=abc" aborted with a raw std::invalid_argument
  // naming no flag (and "1.5x" silently dropped its trailing junk).
  const char* argv[] = {"prog", "--alpha=abc", "--runs=12x",
                        "--rate=1.5x", "--huge=99999999999999999999"};
  const Cli cli(5, argv);
  try {
    (void)cli.get_or("alpha", 0.0);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("--alpha"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("abc"), std::string::npos);
  }
  EXPECT_THROW((void)cli.get_or("rate", 0.0), SpecError);
  try {
    (void)cli.get_or("runs", 0LL);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("--runs"), std::string::npos)
        << e.what();
  }
  // Out-of-range integers get their own message, still naming the flag.
  try {
    (void)cli.get_or("huge", 0LL);
    FAIL() << "expected SpecError";
  } catch (const SpecError& e) {
    EXPECT_NE(std::string(e.what()).find("--huge"), std::string::npos)
        << e.what();
    EXPECT_NE(std::string(e.what()).find("out of range"), std::string::npos);
  }
}

TEST(Cli, WellFormedNumericFlagsStillParse) {
  const char* argv[] = {"prog", "--alpha=0.75", "--runs=-3", "--sci=1e3"};
  const Cli cli(4, argv);
  EXPECT_DOUBLE_EQ(cli.get_or("alpha", 0.0), 0.75);
  EXPECT_EQ(cli.get_or("runs", 0LL), -3);
  EXPECT_DOUBLE_EQ(cli.get_or("sci", 0.0), 1000.0);
}

TEST(Cli, DoubleDashStopsFlagParsing) {
  const char* argv[] = {"prog", "--", "--not-a-flag"};
  const Cli cli(3, argv);
  EXPECT_FALSE(cli.has("not-a-flag"));
  ASSERT_EQ(cli.positional().size(), 1u);
  EXPECT_EQ(cli.positional()[0], "--not-a-flag");
}

TEST(Cli, FlagNamesEnumerated) {
  const char* argv[] = {"prog", "--b=1", "--a=2"};
  const Cli cli(3, argv);
  const auto names = cli.flag_names();
  EXPECT_EQ(names, (std::vector<std::string>{"a", "b"}));
}

TEST(Cli, RepeatedFlagLastWinsAcrossForms) {
  // Deterministic last-wins, regardless of which form each occurrence
  // uses: --name=value then --name value, and the reverse.
  const char* argv[] = {"prog", "--runs=3", "--runs", "5", "--e", "1",
                        "--e=2"};
  const Cli cli(7, argv);
  EXPECT_EQ(cli.get_or("runs", 0LL), 5);
  EXPECT_EQ(cli.get_or("e", 0LL), 2);
}

TEST(Cli, UnknownFlagSuggestsClosest) {
  const char* argv[] = {"prog", "--polciy=pb"};
  const Cli cli(2, argv);
  try {
    cli.check_unknown({"policy", "estimator", "scenario"});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& ex) {
    const std::string message = ex.what();
    EXPECT_NE(message.find("--polciy"), std::string::npos);
    EXPECT_NE(message.find("did you mean --policy"), std::string::npos);
  }
}

TEST(Cli, UnknownFlagWithoutCloseMatchListsKnown) {
  const char* argv[] = {"prog", "--zzzzz=1"};
  const Cli cli(2, argv);
  try {
    cli.check_unknown({"policy", "runs"});
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& ex) {
    const std::string message = ex.what();
    EXPECT_NE(message.find("--policy"), std::string::npos);
    EXPECT_NE(message.find("--runs"), std::string::npos);
  }
}

TEST(Cli, KnownFlagsPassCheck) {
  const char* argv[] = {"prog", "--policy=pb", "--runs=3"};
  const Cli cli(3, argv);
  EXPECT_NO_THROW(cli.check_unknown({"policy", "runs", "seed"}));
}

TEST(ParseCount, PlainDigitsAndSuffixes) {
  EXPECT_EQ(parse_count("0"), 0u);
  EXPECT_EQ(parse_count("50000"), 50000u);
  EXPECT_EQ(parse_count("250k"), 250000u);
  EXPECT_EQ(parse_count("250K"), 250000u);
  EXPECT_EQ(parse_count("100M"), 100000000u);
  EXPECT_EQ(parse_count("100m"), 100000000u);
  EXPECT_EQ(parse_count("2G"), 2000000000u);
  EXPECT_EQ(parse_count("1B"), 1000000000u);
  EXPECT_EQ(parse_count("2.5M"), 2500000u);
  EXPECT_EQ(parse_count("1.5k"), 1500u);
}

TEST(ParseCount, ScientificNotation) {
  EXPECT_EQ(parse_count("1e8"), 100000000u);
  EXPECT_EQ(parse_count("2.5e7"), 25000000u);
  EXPECT_EQ(parse_count("1E3"), 1000u);
}

TEST(ParseCount, RejectsNonCounts) {
  for (const char* bad : {"", "abc", "12x", "k", "--", "1.5", "0.5",
                          "2.0001k", "-5", "-1k", "1e500", "1ee8",
                          "12 34"}) {
    EXPECT_THROW((void)parse_count(bad), std::invalid_argument) << bad;
  }
}

TEST(ParseCount, ErrorNamesTheOffendingText) {
  try {
    (void)parse_count("12x");
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& ex) {
    const std::string message = ex.what();
    EXPECT_NE(message.find("12x"), std::string::npos);
    EXPECT_NE(message.find("250k"), std::string::npos);  // examples shown
  }
}

TEST(Cli, GetCountParsesHumanizedFormsAndPrefixesErrors) {
  const char* argv[] = {"prog", "--requests=100M", "--objects=1e4"};
  const Cli cli(3, argv);
  EXPECT_EQ(cli.get_count("requests", 0), 100000000u);
  EXPECT_EQ(cli.get_count("objects", 0), 10000u);
  EXPECT_EQ(cli.get_count("runs", 7), 7u);  // absent -> fallback
  const char* bad_argv[] = {"prog", "--requests=lots"};
  const Cli bad(2, bad_argv);
  try {
    (void)bad.get_count("requests", 0);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& ex) {
    EXPECT_EQ(std::string(ex.what()).rfind("--requests: ", 0), 0u);
  }
}

TEST(Csv, EscapingRules) {
  EXPECT_EQ(csv_escape("plain"), "plain");
  EXPECT_EQ(csv_escape("a,b"), "\"a,b\"");
  EXPECT_EQ(csv_escape("say \"hi\""), "\"say \"\"hi\"\"\"");
  EXPECT_EQ(csv_escape("line\nbreak"), "\"line\nbreak\"");
}

TEST(Csv, WriteReadRoundTrip) {
  const auto path = std::filesystem::temp_directory_path() / "sc_test.csv";
  {
    CsvWriter w(path);
    w.header({"name", "value", "note"});
    w.field("alpha").field(0.73).field("plain").endrow();
    w.field("tricky, field").field(42LL).field("q\"q").endrow();
  }
  const auto table = read_csv(path);
  std::filesystem::remove(path);
  ASSERT_EQ(table.header,
            (std::vector<std::string>{"name", "value", "note"}));
  ASSERT_EQ(table.rows.size(), 2u);
  EXPECT_EQ(table.rows[0][0], "alpha");
  EXPECT_EQ(table.rows[0][1], "0.73");
  EXPECT_EQ(table.rows[1][0], "tricky, field");
  EXPECT_EQ(table.rows[1][1], "42");
  EXPECT_EQ(table.rows[1][2], "q\"q");
}

TEST(Csv, RowApiAndErrors) {
  const auto path = std::filesystem::temp_directory_path() / "sc_test2.csv";
  {
    CsvWriter w(path);
    w.row({"a", "b"});
    w.row({"1", "2"});
  }
  const auto t = read_csv(path);
  std::filesystem::remove(path);
  EXPECT_EQ(t.rows.size(), 1u);
  EXPECT_THROW(read_csv("/nonexistent/dir/x.csv"), std::runtime_error);
  EXPECT_THROW(CsvWriter("/nonexistent/dir/x.csv"), std::runtime_error);
}

TEST(Table, AlignsColumnsAndFormatsNumbers) {
  Table t({"col", "value"});
  t.add_row({"x", Table::num(1.23456, 2)});
  const auto s = t.str();
  EXPECT_NE(s.find("col"), std::string::npos);
  EXPECT_NE(s.find("1.23"), std::string::npos);
  EXPECT_NE(s.find("----"), std::string::npos);
  EXPECT_EQ(Table::num(2.5, 0), "2");  // even-rounding via printf
  EXPECT_THROW(Table({}), std::invalid_argument);
  EXPECT_THROW(t.add_row({"only-one"}), std::invalid_argument);
}

TEST(AsciiChart, RendersSeriesAndLegend) {
  Series s1{"up", {0, 1, 2, 3}, {0, 1, 2, 3}};
  Series s2{"down", {0, 1, 2, 3}, {3, 2, 1, 0}};
  const auto chart = ascii_chart({s1, s2}, 40, 10, "title", "x", "y");
  EXPECT_NE(chart.find("title"), std::string::npos);
  EXPECT_NE(chart.find("*=up"), std::string::npos);
  EXPECT_NE(chart.find("+=down"), std::string::npos);
  EXPECT_NE(chart.find('*'), std::string::npos);
}

TEST(AsciiChart, DegenerateInputs) {
  EXPECT_TRUE(ascii_chart({}).empty());
  Series flat{"flat", {1.0, 1.0}, {5.0, 5.0}};  // zero x/y range
  EXPECT_FALSE(ascii_chart({flat}).empty());
  Series empty{"empty", {}, {}};
  EXPECT_TRUE(ascii_chart({empty}).empty());
}

}  // namespace
}  // namespace sc::util
