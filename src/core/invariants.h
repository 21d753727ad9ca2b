// Invariant harness (DESIGN.md §8): a deterministic watchdog tests attach
// to a Testbed. Each check pass asserts the safety properties the design
// depends on — single-copy session state, BE/FE rule-table consistency,
// exact packet conservation, monotone control-plane state machines.
//
// Violations are collected, never thrown. On the first one the checker has
// a replay report ready (report()): the experiment seed, the violation
// list, and a ring of record()ed stimuli with sim-timestamps. Because the
// simulation is a pure function of (config, seed), the seed plus the
// stimulus trace IS the replay.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "src/common/time.h"

namespace nezha::core {

class Testbed;

struct InvariantCheckerConfig {
  /// Experiment seed, echoed into the replay report.
  std::uint64_t seed = 0;
};

class InvariantChecker {
 public:
  explicit InvariantChecker(Testbed& bed, InvariantCheckerConfig config = {});

  /// Hooks a periodic check() into the testbed's (shard 0) event loop.
  /// Sharded beds: attach() is for threads == 1 runs — a check pass reads
  /// every shard's counters, so on multi-threaded runs call check()
  /// between run_for() calls (all shards quiescent) instead.
  void attach(common::Duration period);

  /// Runs one full check pass now.
  void check();

  /// Records an experiment stimulus ("trigger_offload vnic=3",
  /// "crash node=7", ...) into the replay ring, stamped with sim-time.
  void record(std::string stimulus);

  bool ok() const { return violations_.empty(); }
  const std::vector<std::string>& violations() const { return violations_; }
  std::uint64_t checks_run() const { return checks_run_; }

  /// Replay report: seed, violations, and the recorded stimulus ring.
  std::string report() const;

 private:
  struct Stimulus {
    common::TimePoint at = 0;
    std::string text;
  };

  void violation(const std::string& what);

  void check_conservation();
  void check_vnic_placement();
  void check_monotone_counters();

  Testbed& bed_;
  InvariantCheckerConfig config_;

  std::vector<std::string> violations_;
  std::vector<Stimulus> stimuli_;  // ring of capacity kMaxStimuli
  std::size_t stimuli_next_ = 0;
  std::uint64_t checks_run_ = 0;

  // Monotonicity baselines (previous check pass).
  std::uint64_t prev_sent_ = 0;
  std::uint64_t prev_delivered_ = 0;
  std::uint64_t prev_dropped_ = 0;
  std::uint64_t prev_offloads_ = 0;
  std::uint64_t prev_fallbacks_ = 0;
  std::uint64_t prev_scale_outs_ = 0;
  std::uint64_t prev_scale_ins_ = 0;
  std::uint64_t prev_failovers_ = 0;
  std::uint64_t prev_displacements_ = 0;
};

}  // namespace nezha::core
