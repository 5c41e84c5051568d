#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string>

#include "hw/node.h"
#include "jvm/jvm.h"
#include "net/tcp.h"
#include "workload/rubbos.h"

namespace softres::exp {

/// Hardware provisioning in the paper's #W/#A/#C/#D notation: web servers,
/// application servers, clustering-middleware servers, database servers.
struct HardwareConfig {
  int web = 1;
  int app = 2;
  int middleware = 1;
  int db = 2;

  /// Parse "1/2/1/2"; throws std::invalid_argument on malformed input.
  static HardwareConfig parse(const std::string& text);
  std::string to_string() const;

  bool operator==(const HardwareConfig&) const = default;
};

/// Soft resource allocation in the paper's #Wt-#At-#Ac notation: Apache
/// thread pool size, per-Tomcat thread pool size, per-Tomcat DB connection
/// pool size. (The paper's figure labels compress trailing zeros; we always
/// spell the full values, e.g. the practitioners' choice "4-15-6" is
/// 400-150-60 here.)
struct SoftConfig {
  std::size_t apache_threads = 400;
  std::size_t tomcat_threads = 150;
  std::size_t db_connections = 60;

  /// Parse "400-150-60"; throws std::invalid_argument on malformed input.
  static SoftConfig parse(const std::string& text);
  std::string to_string() const;

  bool operator==(const SoftConfig&) const = default;
};

/// Everything needed to instantiate the simulated testbed apart from the
/// workload intensity: hardware plan, node spec, per-process JVM configs,
/// client TCP behaviour and RUBBoS demand calibration.
struct TestbedConfig {
  HardwareConfig hw;
  SoftConfig soft;

  hw::NodeSpec node;  // every tier runs the same PC3000-class node
  jvm::JvmConfig tomcat_jvm;
  jvm::JvmConfig cjdbc_jvm;
  net::TcpConfig tcp;
  workload::Mix mix = workload::Mix::kBrowseOnly;
  workload::DemandProfile demands;

  /// Heap churn: MB allocated per servlet request (Tomcat) / per SQL query
  /// (C-JDBC). Together with JvmConfig::young_gen_mb this sets GC frequency.
  double tomcat_alloc_per_request_mb = 0.06;
  double cjdbc_alloc_per_query_mb = 0.04;

  double link_latency_s = 0.0001;
  double link_bandwidth_Bps = 125.0e6;  // 1 Gbps

  /// Returns the paper's default testbed (1 core per node, calibrated JVMs).
  static TestbedConfig defaults();
};

/// SOFTRES_* environment switches, each value parsed in full. All return
/// "not set" for an unset variable and throw std::invalid_argument naming the
/// variable for a malformed or out-of-range value — including the empty
/// string, leading signs, whitespace and trailing characters.
///
/// env_flag: "1" is on, "0" (or unset) is off.
bool env_flag(const char* name);
/// env_uint: a decimal integer in [min, 2^64).
std::optional<std::uint64_t> env_uint(const char* name, std::uint64_t min = 0);
/// env_fraction: a number in [0, 1] (decimal or scientific notation).
std::optional<double> env_fraction(const char* name);

}  // namespace softres::exp
