#include "exp/config.h"

#include <charconv>
#include <cstdlib>
#include <limits>
#include <stdexcept>
#include <string_view>
#include <vector>

namespace softres::exp {
namespace {

std::vector<long> parse_numbers(const std::string& text, char sep,
                                std::size_t expected, const char* what) {
  std::vector<long> out;
  std::size_t pos = 0;
  while (pos <= text.size()) {
    const std::size_t next = text.find(sep, pos);
    const std::string_view token(text.data() + pos,
                                 (next == std::string::npos ? text.size()
                                                            : next) -
                                     pos);
    long value = 0;
    const auto [ptr, ec] =
        std::from_chars(token.data(), token.data() + token.size(), value);
    if (ec != std::errc() || ptr != token.data() + token.size() || value < 0) {
      throw std::invalid_argument(std::string("malformed ") + what + ": '" +
                                  text + "'");
    }
    out.push_back(value);
    if (next == std::string::npos) break;
    pos = next + 1;
  }
  if (out.size() != expected) {
    throw std::invalid_argument(std::string("expected ") +
                                std::to_string(expected) + " fields in " +
                                what + ": '" + text + "'");
  }
  return out;
}

}  // namespace

HardwareConfig HardwareConfig::parse(const std::string& text) {
  const auto v = parse_numbers(text, '/', 4, "hardware config");
  for (const long n : v) {
    if (n > std::numeric_limits<int>::max()) {
      throw std::invalid_argument(
          "hardware config node count overflows int: '" + text + "'");
    }
  }
  HardwareConfig hw;
  hw.web = static_cast<int>(v[0]);
  hw.app = static_cast<int>(v[1]);
  hw.middleware = static_cast<int>(v[2]);
  hw.db = static_cast<int>(v[3]);
  if (hw.web < 1 || hw.app < 1 || hw.middleware < 1 || hw.db < 1) {
    throw std::invalid_argument("hardware config needs >=1 node per tier: '" +
                                text + "'");
  }
  return hw;
}

std::string HardwareConfig::to_string() const {
  return std::to_string(web) + "/" + std::to_string(app) + "/" +
         std::to_string(middleware) + "/" + std::to_string(db);
}

SoftConfig SoftConfig::parse(const std::string& text) {
  const auto v = parse_numbers(text, '-', 3, "soft config");
  SoftConfig s;
  s.apache_threads = static_cast<std::size_t>(v[0]);
  s.tomcat_threads = static_cast<std::size_t>(v[1]);
  s.db_connections = static_cast<std::size_t>(v[2]);
  if (s.apache_threads == 0 || s.tomcat_threads == 0 ||
      s.db_connections == 0) {
    throw std::invalid_argument("soft config needs >=1 unit per pool: '" +
                                text + "'");
  }
  return s;
}

std::string SoftConfig::to_string() const {
  return std::to_string(apache_threads) + "-" +
         std::to_string(tomcat_threads) + "-" +
         std::to_string(db_connections);
}

TestbedConfig TestbedConfig::defaults() {
  TestbedConfig cfg;
  cfg.node.cores = 1;  // one 3 GHz Xeon per PC3000 node
  // Tomcat JVMs see far less allocation pressure than the C-JDBC JVM, which
  // funnels every query of every application server.
  cfg.tomcat_jvm.young_gen_mb = 64.0;
  cfg.cjdbc_jvm.young_gen_mb = 48.0;
  // Calibrated so 800 middleware threads (4 x 200 connections) cost ~10 % of
  // the C-JDBC CPU in GC at full load, against ~1 % for 4 x 10 connections,
  // matching the paper's Fig 5(c) ratio.
  cfg.cjdbc_jvm.pause_per_thread_s = 1.2e-5;
  return cfg;
}

namespace {

[[noreturn]] void reject_env(const char* name, std::string_view value,
                             const std::string& expected) {
  throw std::invalid_argument(std::string(name) + " must be " + expected +
                              ", got \"" + std::string(value) + "\"");
}

}  // namespace

bool env_flag(const char* name) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return false;
  const std::string_view value(raw);
  if (value != "0" && value != "1") reject_env(name, value, "0 or 1");
  return value == "1";
}

std::optional<std::uint64_t> env_uint(const char* name, std::uint64_t min) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return std::nullopt;
  const std::string_view value(raw);
  std::uint64_t out = 0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec != std::errc() || ptr != value.data() + value.size() || out < min) {
    reject_env(name, value,
               "a decimal integer from " + std::to_string(min) +
                   " below 2^64");
  }
  return out;
}

std::optional<double> env_fraction(const char* name) {
  const char* raw = std::getenv(name);
  if (raw == nullptr) return std::nullopt;
  const std::string_view value(raw);
  double out = 0.0;
  const auto [ptr, ec] =
      std::from_chars(value.data(), value.data() + value.size(), out);
  if (ec != std::errc() || ptr != value.data() + value.size() ||
      !(out >= 0.0 && out <= 1.0)) {
    reject_env(name, value, "a number in [0, 1]");
  }
  return out;
}

}  // namespace softres::exp
