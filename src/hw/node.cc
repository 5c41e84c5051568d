#include "hw/node.h"

namespace softres::hw {

// 10k-rpm drive: ~4 ms median service time with a mild tail.
constexpr double kDiskMedianS = 0.004;
constexpr double kDiskSigma = 0.4;

Node::Node(sim::Simulator& sim, std::string name, const NodeSpec& spec,
           sim::Rng rng)
    : name_(std::move(name)),
      cpu_(sim, name_ + ".cpu", spec.cores, spec.context_switch_coeff),
      disk_(std::make_unique<Disk>(sim, name_ + ".disk", kDiskMedianS,
                                   kDiskSigma, rng)) {}

}  // namespace softres::hw
