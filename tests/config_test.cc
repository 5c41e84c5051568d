#include "exp/config.h"

#include <gtest/gtest.h>

#include <stdlib.h>

#include <stdexcept>
#include <string>

#include "exp/experiment.h"

namespace softres::exp {
namespace {

TEST(HardwareConfigTest, ParsesPaperNotation) {
  const HardwareConfig hw = HardwareConfig::parse("1/2/1/2");
  EXPECT_EQ(hw.web, 1);
  EXPECT_EQ(hw.app, 2);
  EXPECT_EQ(hw.middleware, 1);
  EXPECT_EQ(hw.db, 2);
  EXPECT_EQ(hw.to_string(), "1/2/1/2");
}

TEST(HardwareConfigTest, RoundTrips) {
  for (const char* text : {"1/2/1/2", "1/4/1/4", "2/8/2/8", "1/1/1/1"}) {
    EXPECT_EQ(HardwareConfig::parse(text).to_string(), text);
  }
}

TEST(HardwareConfigTest, RejectsMalformed) {
  EXPECT_THROW(HardwareConfig::parse(""), std::invalid_argument);
  EXPECT_THROW(HardwareConfig::parse("1/2/1"), std::invalid_argument);
  EXPECT_THROW(HardwareConfig::parse("1/2/1/2/3"), std::invalid_argument);
  EXPECT_THROW(HardwareConfig::parse("1/a/1/2"), std::invalid_argument);
  EXPECT_THROW(HardwareConfig::parse("1//1/2"), std::invalid_argument);
  EXPECT_THROW(HardwareConfig::parse("1/-2/1/2"), std::invalid_argument);
  EXPECT_THROW(HardwareConfig::parse("0/2/1/2"), std::invalid_argument);
  // Fields above INT_MAX must not wrap into a small valid count.
  EXPECT_THROW(HardwareConfig::parse("1/4294967300/1/1"),
               std::invalid_argument);
  EXPECT_THROW(HardwareConfig::parse("4294967297/1/1/1"),
               std::invalid_argument);
}

TEST(SoftConfigTest, ParsesPaperNotation) {
  const SoftConfig s = SoftConfig::parse("400-15-6");
  EXPECT_EQ(s.apache_threads, 400u);
  EXPECT_EQ(s.tomcat_threads, 15u);
  EXPECT_EQ(s.db_connections, 6u);
  EXPECT_EQ(s.to_string(), "400-15-6");
}

TEST(SoftConfigTest, RejectsMalformed) {
  EXPECT_THROW(SoftConfig::parse("400-15"), std::invalid_argument);
  EXPECT_THROW(SoftConfig::parse("400-15-6-1"), std::invalid_argument);
  EXPECT_THROW(SoftConfig::parse("x-15-6"), std::invalid_argument);
  EXPECT_THROW(SoftConfig::parse("0-15-6"), std::invalid_argument);
  EXPECT_THROW(SoftConfig::parse(""), std::invalid_argument);
}

TEST(SoftConfigTest, Equality) {
  EXPECT_EQ(SoftConfig::parse("400-15-6"), (SoftConfig{400, 15, 6}));
  EXPECT_NE(SoftConfig::parse("400-15-6"), (SoftConfig{400, 15, 7}));
}

TEST(TestbedConfigTest, DefaultsAreSane) {
  const TestbedConfig cfg = TestbedConfig::defaults();
  EXPECT_EQ(cfg.node.cores, 1u);
  EXPECT_GT(cfg.tomcat_jvm.young_gen_mb, 0.0);
  EXPECT_GT(cfg.cjdbc_jvm.young_gen_mb, 0.0);
  EXPECT_GT(cfg.link_bandwidth_Bps, 1e8);
  EXPECT_GT(cfg.tomcat_alloc_per_request_mb, 0.0);
  EXPECT_GT(cfg.cjdbc_alloc_per_query_mb, 0.0);
}

// Sets one environment variable for the scope of a test case.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) {
    ::setenv(name, value, 1);
  }
  ~ScopedEnv() { ::unsetenv(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
};

// The message must name the variable, so a user sees which switch is wrong.
void expect_rejected(const char* name, const char* value) {
  const ScopedEnv env(name, value);
  try {
    (void)ExperimentOptions::from_env();
    ADD_FAILURE() << name << "=\"" << value << "\" was accepted";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find(name), std::string::npos) << e.what();
  }
}

TEST(EnvSwitchTest, ParsesWellFormedValues) {
  {
    const ScopedEnv seed("SOFTRES_SEED", "18446744073709551615");
    const ScopedEnv rate("SOFTRES_TRACE_RATE", "5e-2");
    const ScopedEnv full("SOFTRES_FULL", "1");
    const ScopedEnv profile("SOFTRES_PROFILE", "0");
    const ExperimentOptions opts = ExperimentOptions::from_env();
    EXPECT_EQ(opts.client.seed, 18446744073709551615ull);
    EXPECT_DOUBLE_EQ(opts.client.trace_sample_rate, 0.05);
    EXPECT_DOUBLE_EQ(opts.client.runtime_s, 720.0);
    EXPECT_FALSE(opts.profile);
  }
  {
    const ScopedEnv rate("SOFTRES_TRACE_RATE", "1");
    const ScopedEnv profile("SOFTRES_PROFILE", "1");
    const ExperimentOptions opts = ExperimentOptions::from_env();
    EXPECT_DOUBLE_EQ(opts.client.trace_sample_rate, 1.0);
    EXPECT_TRUE(opts.profile);
  }
  EXPECT_FALSE(env_flag("SOFTRES_FULL"));
  EXPECT_FALSE(env_uint("SOFTRES_SEED").has_value());
  EXPECT_FALSE(env_fraction("SOFTRES_TRACE_RATE").has_value());
}

TEST(EnvSwitchTest, RejectsMalformedSeed) {
  for (const char* v : {"-1", "42abc", "", " 42", "+42", "0x2a", "4.2",
                        "18446744073709551616"}) {
    expect_rejected("SOFTRES_SEED", v);
  }
}

TEST(EnvSwitchTest, RejectsMalformedOrOutOfRangeTraceRate) {
  for (const char* v : {"abc", "", "0.5x", "1.5", "-0.1", "nan", "inf",
                        " 0.1"}) {
    expect_rejected("SOFTRES_TRACE_RATE", v);
  }
}

TEST(EnvSwitchTest, RejectsFlagsOtherThanZeroOrOne) {
  for (const char* v : {"10", "1abc", "yes", "", "2", " 1"}) {
    expect_rejected("SOFTRES_FULL", v);
    expect_rejected("SOFTRES_PROFILE", v);
  }
}

}  // namespace
}  // namespace softres::exp
