// VM live-migration cost model (Appendix A Fig A1, §7.2).
//
// The paper's production data show both migration completion time and
// downtime growing with the VM's purchased resources: state snapshotting,
// memory copy rounds and the final stop-and-copy all scale with memory,
// with vCPU count adding dirtying pressure. Nezha's alternative — updating
// the BE location config on the FEs — is O(1ms) regardless of VM size.
#pragma once

#include <cstdint>

#include "src/common/rng.h"
#include "src/common/time.h"

namespace nezha::workload {

class MigrationModel {
 public:
  /// Service downtime during live migration of a VM.
  common::Duration downtime(int vcpus, double mem_gb, common::Rng& rng) const;

  /// End-to-end migration completion time.
  common::Duration completion_time(double mem_gb, common::Rng& rng) const;
};

}  // namespace nezha::workload
