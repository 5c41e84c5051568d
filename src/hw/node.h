#pragma once

#include <memory>
#include <string>

#include "hw/cpu.h"
#include "hw/disk.h"
#include "sim/rng.h"
#include "sim/simulator.h"

namespace softres::hw {

/// Hardware description of one physical node (the paper's Emulab PC3000:
/// 3 GHz 64-bit Xeon, 2 GB RAM, 10k-rpm disks, 1 Gbps NIC).
struct NodeSpec {
  unsigned cores = 1;
  /// Run-queue context-switch penalty coefficient (see hw::Cpu::submit).
  double context_switch_coeff = 0.004;
};

/// A dedicated physical machine hosting exactly one server process, matching
/// the paper's one-server-per-node deployment.
class Node {
 public:
  Node(sim::Simulator& sim, std::string name, const NodeSpec& spec,
       sim::Rng rng);

  const std::string& name() const { return name_; }
  Cpu& cpu() { return cpu_; }
  const Cpu& cpu() const { return cpu_; }
  Disk& disk() { return *disk_; }
  const Disk& disk() const { return *disk_; }

 private:
  std::string name_;
  Cpu cpu_;
  std::unique_ptr<Disk> disk_;
};

}  // namespace softres::hw
