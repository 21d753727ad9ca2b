#include "src/workload/vm_model.h"

namespace nezha::workload {

namespace {

/// Per-connection kernel/app latency before the reply is issued.
constexpr common::Duration kServiceLatency = common::microseconds(30);

}  // namespace

VmKernel::VmKernel(VmKernelConfig config) : config_(config) {
  const double n = static_cast<double>(config_.vcpus);
  max_cps_ = config_.cps_per_core * n / (1.0 + config_.contention * (n - 1.0));
  per_conn_ = static_cast<common::Duration>(
      static_cast<double>(common::kSecond) / max_cps_);
}

VmKernel::Outcome VmKernel::admit(common::TimePoint now) {
  Outcome out;
  if (busy_until_ < now) busy_until_ = now;
  if (busy_until_ - now > config_.max_backlog) {
    ++rejected_;
    return out;
  }
  busy_until_ += per_conn_;
  out.accepted = true;
  out.done = busy_until_ + kServiceLatency;
  return out;
}

}  // namespace nezha::workload
