#include "src/workload/migration_model.h"

#include <cmath>

namespace nezha::workload {

namespace {

/// Base downtime for a tiny VM (final stop-and-copy floor).
constexpr common::Duration kBaseDowntime = common::milliseconds(80);
/// Downtime grows ~ mem^alpha (dirty-page resend tail).
constexpr double kMemAlpha = 0.55;
/// vCPU dirtying pressure multiplier per 64 vCPUs.
constexpr double kVcpuFactor = 0.35;
/// Completion time ≈ copy passes over memory at this effective rate.
constexpr double kCopyGbps = 6.0;
constexpr double kCopyPasses = 2.2;
/// Multiplicative lognormal jitter sigma.
constexpr double kJitterSigma = 0.25;

}  // namespace

common::Duration MigrationModel::downtime(int vcpus, double mem_gb,
                                          common::Rng& rng) const {
  const double mem_scale = std::pow(std::max(mem_gb, 1.0), kMemAlpha);
  const double vcpu_scale =
      1.0 + kVcpuFactor * static_cast<double>(vcpus) / 64.0;
  const double jitter = rng.lognormal(0.0, kJitterSigma);
  return static_cast<common::Duration>(static_cast<double>(kBaseDowntime) *
                                       mem_scale * vcpu_scale * jitter);
}

common::Duration MigrationModel::completion_time(double mem_gb,
                                                 common::Rng& rng) const {
  const double seconds = mem_gb * 8.0 * kCopyPasses / kCopyGbps;
  const double jitter = rng.lognormal(0.0, kJitterSigma);
  return common::from_seconds(seconds * jitter);
}

}  // namespace nezha::workload
