// Guest-VM kernel model for connection handling.
//
// With Nezha the vSwitch stops being the CPS bottleneck and the VM kernel
// takes over (§6.2.2, Fig 10): kernel locks and connection-management limits
// make CPS grow sublinearly with vCPU count. We model the kernel as a queue
// server whose capacity follows a contention-discounted linear scaling law,
// and whose accept backlog bounds burst absorption.
#pragma once

#include <cstdint>

#include "src/common/time.h"

namespace nezha::workload {

struct VmKernelConfig {
  int vcpus = 16;
  /// Connections per second one uncontended core can complete.
  double cps_per_core = 30000.0;
  /// Lock-contention discount: capacity = cps_per_core * vcpus /
  /// (1 + contention * (vcpus - 1)). Higher values flatten Fig 10 earlier.
  double contention = 0.045;
  /// Longest tolerated accept backlog before connections are refused.
  common::Duration max_backlog = common::milliseconds(20);
};

class VmKernel {
 public:
  explicit VmKernel(VmKernelConfig config = {});

  /// Sustainable connections/second given the contention law.
  double max_cps() const { return max_cps_; }

  struct Outcome {
    bool accepted = false;
    common::TimePoint done = 0;  // when the kernel finishes this connection
  };

  /// Admits one connection at `now`; rejects when the backlog exceeds the
  /// limit (SYN queue overflow).
  Outcome admit(common::TimePoint now);

  std::uint64_t rejected() const { return rejected_; }

 private:
  VmKernelConfig config_;
  double max_cps_;
  common::Duration per_conn_;  // service time per connection
  common::TimePoint busy_until_ = 0;
  std::uint64_t rejected_ = 0;
};

}  // namespace nezha::workload
