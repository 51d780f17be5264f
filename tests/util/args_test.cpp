#include "util/args.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <string>

#include "util/error.h"

namespace lcrb {
namespace {

TEST(Args, ParsesSpaceSeparatedValues) {
  Args a({"--runs", "100", "--alpha", "0.8"});
  EXPECT_TRUE(a.has("runs"));
  EXPECT_EQ(a.get_int("runs", 0), 100);
  EXPECT_DOUBLE_EQ(a.get_double("alpha", 0), 0.8);
}

TEST(Args, ParsesEqualsForm) {
  Args a({"--seed=42", "--name=hep"});
  EXPECT_EQ(a.get_int("seed", 0), 42);
  EXPECT_EQ(a.get_string("name", ""), "hep");
}

TEST(Args, BareFlagIsTrue) {
  Args a({"--verbose"});
  EXPECT_TRUE(a.get_bool("verbose"));
  EXPECT_FALSE(a.get_bool("quiet"));
}

TEST(Args, BoolFalseValues) {
  Args a({"--x=false", "--y=0", "--z=true"});
  EXPECT_FALSE(a.get_bool("x", true));
  EXPECT_FALSE(a.get_bool("y", true));
  EXPECT_TRUE(a.get_bool("z", false));
}

TEST(Args, DefaultsWhenAbsent) {
  Args a({});
  EXPECT_EQ(a.get_int("missing", 7), 7);
  EXPECT_DOUBLE_EQ(a.get_double("missing", 1.5), 1.5);
  EXPECT_EQ(a.get_string("missing", "d"), "d");
}

TEST(Args, PositionalArguments) {
  Args a({"input.txt", "--flag", "output.txt"});
  // "--flag output.txt" consumes output.txt as flag value.
  ASSERT_EQ(a.positional().size(), 1u);
  EXPECT_EQ(a.positional()[0], "input.txt");
  EXPECT_EQ(a.get_string("flag", ""), "output.txt");
}

TEST(Args, ConsecutiveFlagsAreBooleans) {
  Args a({"--a", "--b", "val"});
  EXPECT_TRUE(a.get_bool("a"));
  EXPECT_EQ(a.get_string("b", ""), "val");
}

TEST(Args, MalformedNumberThrows) {
  Args a({"--n", "abc"});
  EXPECT_THROW(a.get_int("n", 0), Error);
  EXPECT_THROW(a.get_double("n", 0), Error);
}

TEST(Args, TrailingGarbageThrowsNamingTheFlag) {
  // std::stoll("5abc") is 5: the whole token must parse.
  Args a({"--samples", "5abc", "--alpha", "0.8x", "--hops=-1"});
  for (auto get : {+[](const Args& x) { (void)x.get_int("samples", 0); },
                   +[](const Args& x) { (void)x.get_double("alpha", 0); }}) {
    try {
      get(a);
      ADD_FAILURE() << "trailing garbage was accepted";
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("flag --"), std::string::npos)
          << e.what();
    }
  }
  EXPECT_THROW(a.get_int_env("samples", "LCRB_TEST_UNSET_ENV", 0), Error);
  EXPECT_THROW(a.get_double_env("alpha", "LCRB_TEST_UNSET_ENV", 0), Error);
  EXPECT_EQ(a.get_int("hops", 0), -1);  // well-formed, so it parses
}

TEST(Args, GetCountRangeChecksTheValue) {
  Args a({"--hops=-1", "--runs", "4294967296", "--trials", "7"});
  EXPECT_THROW(a.get_count<std::uint32_t>("hops", 31), Error);
  EXPECT_THROW(a.get_count<std::uint32_t>("runs", 1), Error);
  EXPECT_EQ(a.get_count<std::size_t>("runs", 1), 4294967296u);
  EXPECT_EQ(a.get_count<std::size_t>("trials", 1), 7u);
  EXPECT_EQ(a.get_count<std::uint32_t>("absent", 31), 31u);
}

TEST(Args, EnvTrailingGarbageThrowsNamingTheVariable) {
  setenv("LCRB_TEST_GARBAGE", "12abc", 1);
  Args a({});
  try {
    (void)a.get_int_env("runs", "LCRB_TEST_GARBAGE", 1);
    ADD_FAILURE() << "trailing garbage was accepted";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("LCRB_TEST_GARBAGE"),
              std::string::npos)
        << e.what();
  }
  EXPECT_THROW(a.get_double_env("scale", "LCRB_TEST_GARBAGE", 1.0), Error);
  unsetenv("LCRB_TEST_GARBAGE");
}

TEST(Args, ArgcArgvConstructor) {
  const char* argv[] = {"prog", "--k", "3"};
  Args a(3, argv);
  EXPECT_EQ(a.get_int("k", 0), 3);
}

TEST(Args, EnvFallbackUsedWhenFlagAbsent) {
  setenv("LCRB_TEST_SCALE", "0.25", 1);
  Args a({});
  EXPECT_DOUBLE_EQ(a.get_double_env("scale", "LCRB_TEST_SCALE", 1.0), 0.25);
  unsetenv("LCRB_TEST_SCALE");
  EXPECT_DOUBLE_EQ(a.get_double_env("scale", "LCRB_TEST_SCALE", 1.0), 1.0);
}

TEST(Args, CliBeatsEnv) {
  setenv("LCRB_TEST_RUNS", "5", 1);
  Args a({"--runs", "9"});
  EXPECT_EQ(a.get_int_env("runs", "LCRB_TEST_RUNS", 1), 9);
  unsetenv("LCRB_TEST_RUNS");
}

TEST(Args, BadEnvValueThrows) {
  setenv("LCRB_TEST_BAD", "xyz", 1);
  Args a({});
  EXPECT_THROW(a.get_double_env("scale", "LCRB_TEST_BAD", 1.0), Error);
  unsetenv("LCRB_TEST_BAD");
}

}  // namespace
}  // namespace lcrb
