// SmartNIC vSwitch resource models: CPU (a cycle-budget queue server) and
// memory pools. These are the two resources whose exhaustion the paper
// analyzes (§2.2.2): CPU limits CPS via slow-path lookups, memory limits
// #concurrent flows (fast path) and #vNICs (slow path).
#pragma once

#include <cstddef>
#include <cstdint>

#include "src/common/time.h"

namespace nezha::vswitch {

struct CpuConfig {
  int cores = 8;
  double hz_per_core = 2.5e9;
  /// Packets whose queueing delay would exceed this are dropped — the
  /// overloaded-vSwitch behaviour behind Fig 12's latency cliff and the
  /// paper's note that excess packets "would otherwise be completely
  /// discarded" (§6.3.4).
  common::Duration max_queue_delay = common::milliseconds(2);
};

/// Single-queue CPU model. Work arrives as cycle costs; the CPU serves it
/// FIFO at cores*hz cycles per second. consume() reports whether the packet
/// was accepted and when its processing completes.
class CpuModel {
 public:
  explicit CpuModel(CpuConfig config = {});

  double cycles_per_second() const { return rate_; }

  struct Outcome {
    bool accepted = false;
    common::TimePoint done = 0;        // completion time when accepted
    common::Duration queue_delay = 0;  // time spent waiting before service
  };

  /// Requests `cycles` of processing starting at `now` (now must be
  /// monotonically non-decreasing across calls, which the event loop
  /// guarantees).
  Outcome consume(double cycles, common::TimePoint now);

  /// Total busy time accumulated up to virtual time `now` (now must be the
  /// current simulation time). Utilization over an interval is computed by
  /// a UtilizationSampler from snapshots of this integral.
  common::Duration busy_integral(common::TimePoint now) const;

  std::uint64_t accepted() const { return accepted_; }
  std::uint64_t rejected() const { return rejected_; }

 private:
  CpuConfig config_;
  double rate_;  // cycles per second (all cores)
  common::TimePoint busy_until_ = 0;
  common::Duration cumulative_busy_ = 0;  // closed busy runs
  common::TimePoint frontier_ = 0;        // start of the current busy run
  std::uint64_t accepted_ = 0;
  std::uint64_t rejected_ = 0;
};

/// Computes exact utilization over successive sampling intervals by
/// snapshotting the CPU busy integral at each boundary.
class UtilizationSampler {
 public:
  /// Utilization of [last sample time, now); advances the checkpoint.
  double sample(const CpuModel& cpu, common::TimePoint now);

 private:
  common::TimePoint last_t_ = 0;
  common::Duration last_busy_ = 0;
};

/// A byte-budget memory pool with explicit reserve/release.
class MemoryPool {
 public:
  explicit MemoryPool(std::size_t capacity_bytes)
      : capacity_(capacity_bytes) {}

  std::size_t capacity() const { return capacity_; }
  std::size_t used() const { return used_; }
  double utilization() const {
    return capacity_ == 0 ? 0.0
                          : static_cast<double>(used_) /
                                static_cast<double>(capacity_);
  }

  bool reserve(std::size_t bytes) {
    if (used_ + bytes > capacity_) {
      ++failures_;
      return false;
    }
    used_ += bytes;
    return true;
  }

  void release(std::size_t bytes) { used_ -= bytes > used_ ? used_ : bytes; }

  std::uint64_t failures() const { return failures_; }

 private:
  std::size_t capacity_;
  std::size_t used_ = 0;
  std::uint64_t failures_ = 0;
};

}  // namespace nezha::vswitch
