// Sharded-engine scaling: a 10K-vswitch Clos fleet advanced in parallel,
// with the control plane live (fenced) inside the threaded window.
//
// The scenario is the FleetScenario heavy-hitter mix (servers strided
// across the leaf tier, most server vNICs offloaded onto cross-rack FE
// pools) plus the full churn script: a mid-window offload push for the
// held-back servers, a monitor-detected FE crash and failover, and a
// fleet-wide hash reseed — all fired through the epoch-fence protocol, so
// the whole run (setup, churn and traffic) executes under worker threads.
// Recorded per sweep point:
//   * wall-clock speedup vs the unsharded reference and vs the 1-thread
//     sharded run (the same epochs, rings, fences and merges, minus
//     parallelism);
//   * determinism: every thread count must produce the same fingerprint —
//     a hard exit-code gate, not a report line;
//   * completed connections; every run places the same endpoints, so no
//     pair may stall (attempt but never complete) on any row — a gate;
//   * fence/fast-forward counters (fenced sections run, epochs skipped) —
//     both must be non-zero or the bench is not exercising the protocol it
//     claims to measure (also a gate, host-independent);
//   * the per-shard busy-time balance, whose sum/max bounds the speedup any
//     machine can extract from this partition (on hosts with fewer cores
//     than shards, that bound is the honest headline);
//   * the phase profile: wall-clock attribution of each worker's time to
//     {snapshot, advance, barrier-wait, fast-forward, fence} plus the
//     deterministic event counts behind it (epochs, fence barriers,
//     fast-forward jumps). The event counts must be identical at every
//     thread count — a gate; the wall-clock fields are report-only and
//     excluded from every determinism comparison.
// A sweep row with more threads than the host has hardware threads is
// oversubscribed: it still runs (its fingerprint and counts feed the
// determinism gates) but is written with "valid": 0, without speedups,
// and is left out of the best-wall speedup figures.
// An ablation row at threads=1 turns fast-forward off: it must reproduce
// the fast-forward-on fingerprint bit-for-bit (gate).
//
// Output: stdout tables + BENCH_shard.json (schema nezha-bench-shard-v3,
// README.md) in the CWD, diffable with tools/nezha_report (wall-clock
// profile fields classify as informational there, never regressions).
//
// `--smoke` (CI): a small fleet, threads {1, 2}, churn enabled; exits
// non-zero unless the 2-thread fingerprint equals the 1-thread one, traffic
// crossed shards, conservation closed, the failover fired, no pair stalled,
// and the skipped-epoch and fenced-section counters are non-zero. No JSON.
//
// Flags: --vswitches N (10240) --shards K (8) --pairs P (64)
//        --window-ms W (1000) --max-threads T (8)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "src/core/invariants.h"
#include "src/core/testbed.h"
#include "src/workload/fleet_model.h"
#include "support/scenarios.h"

using namespace nezha;

namespace {

double wall_seconds(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       start)
      .count();
}

struct RunOpts {
  std::size_t vswitches = 10240;
  std::size_t shards = 8;
  int threads = 1;
  std::size_t pairs = 64;
  int window_ms = 1000;
  std::uint64_t seed = 7;
  bool churn = true;
  bool fast_forward = true;
};

struct RunResult {
  std::uint64_t fingerprint = 0;
  core::Testbed::NetTotals totals{};
  std::uint64_t attempted = 0;
  std::uint64_t ctl_events = 0;  // offload+fallback+scale+failover
  double wall_sec = 0;  // traffic window only (setup/drain excluded)
  std::uint64_t delivered = 0;
  std::uint64_t completed = 0;
  std::uint64_t exported = 0;
  std::uint64_t imported = 0;
  std::uint64_t pending = 0;
  std::uint64_t late = 0;
  std::uint64_t epochs = 0;
  std::uint64_t epochs_skipped = 0;
  std::uint64_t fenced_sections = 0;
  std::uint64_t failovers = 0;
  std::size_t stalled_pairs = 0;
  double busy_balance = 0;   // mean/max of per-shard busy time (1.0 = even)
  double ideal_speedup = 0;  // sum/max of per-shard busy time
  // Phase profile, summed across shards. The *_wall_ns fields are
  // wall-clock (report-only); prof_epochs / fence_barriers / ff_jumps are
  // deterministic event counts gated for thread-invariance.
  std::uint64_t prof_epochs = 0;
  std::uint64_t fence_barriers = 0;
  std::uint64_t ff_jumps = 0;
  std::uint64_t snapshot_wall_ns = 0;
  std::uint64_t advance_wall_ns = 0;
  std::uint64_t barrier_wait_wall_ns = 0;
  std::uint64_t fast_forward_wall_ns = 0;
  std::uint64_t fence_wall_ns = 0;
  std::size_t violations = 0;
  std::string report;
};

/// One full scenario run, threaded end-to-end (deploy, offload, churn and
/// the timed traffic window all execute under o.threads workers; the fence
/// protocol keeps the outcome thread-count invariant). shards == 1 builds
/// the engine-less reference bed.
RunResult run_one(const RunOpts& o) {
  core::TestbedConfig cfg = core::make_clos_testbed_config(o.vswitches);
  cfg.controller.auto_offload = false;
  cfg.controller.auto_scale = false;
  cfg.monitor.probe_interval = common::milliseconds(100);
  cfg.monitor.probe_timeout = common::milliseconds(50);
  cfg.monitor.miss_threshold = 2;
  cfg.shards = o.shards;
  cfg.threads = o.threads;
  cfg.shard_fast_forward = o.fast_forward;
  core::Testbed bed(cfg);

  workload::FleetScenarioConfig sc;
  sc.num_pairs = o.pairs;
  sc.base_attempts_per_sec = 400.0;
  sc.seed = o.seed;
  workload::FleetScenario scenario(bed, sc);
  core::InvariantChecker checker(bed,
                                 core::InvariantCheckerConfig{.seed = o.seed});

  scenario.deploy();
  scenario.offload_all(o.churn ? o.pairs / 4 : 0);
  bed.run_for(common::seconds(1));  // offload workflows settle
  checker.check();

  scenario.start_traffic();
  if (o.churn) {
    // Offload push / FE crash / hash reseed inside the timed window,
    // scaled so detection + failover complete before the window closes.
    scenario.schedule_churn(common::milliseconds(o.window_ms / 10),
                            common::milliseconds(o.window_ms / 4),
                            common::milliseconds(o.window_ms * 3 / 5));
  }
  const std::uint64_t delivered_before = bed.net_totals().delivered;
  const auto t0 = std::chrono::steady_clock::now();
  bed.run_for(common::milliseconds(o.window_ms));
  const double wall = wall_seconds(t0);
  scenario.stop_traffic();
  bed.run_for(common::milliseconds(250));
  checker.check();

  RunResult r;
  r.fingerprint = scenario.fingerprint();
  r.wall_sec = wall;
  r.delivered = bed.net_totals().delivered - delivered_before;
  for (const auto& wl : scenario.workloads()) {
    r.completed += wl->completed();
    r.attempted += wl->attempted();
  }
  r.ctl_events = bed.controller().offload_events() +
                 bed.controller().fallback_events() +
                 bed.controller().scale_out_events() +
                 bed.controller().scale_in_events() +
                 bed.controller().failover_events() +
                 bed.controller().fes_provisioned_total();
  r.failovers = bed.controller().failover_events();
  r.stalled_pairs = support::stalled_pairs(scenario);
  const core::Testbed::NetTotals t = bed.net_totals();
  r.totals = t;
  r.exported = t.exported;
  r.imported = t.imported;
  if (bed.engine() != nullptr) {
    r.pending = bed.engine()->tokens_pending();
    r.late = bed.engine()->late_tokens();
    r.epochs = bed.engine()->epochs_run();
    r.epochs_skipped = bed.engine()->epochs_skipped();
    r.fenced_sections = bed.engine()->fenced_sections_run();
    std::uint64_t sum = 0, mx = 0;
    for (std::uint32_t s = 0; s < bed.shard_count(); ++s) {
      const std::uint64_t b = bed.engine()->shard_busy_ns(s);
      sum += b;
      mx = std::max(mx, b);
    }
    if (mx > 0) {
      r.busy_balance = static_cast<double>(sum) /
                       (static_cast<double>(mx) *
                        static_cast<double>(bed.shard_count()));
      r.ideal_speedup = static_cast<double>(sum) / static_cast<double>(mx);
    }
    for (std::uint32_t s = 0; s < bed.shard_count(); ++s) {
      const auto p = bed.engine()->phase_profile(s);
      r.prof_epochs += p.epochs;
      r.snapshot_wall_ns += p.snapshot_ns;
      r.advance_wall_ns += p.advance_ns;
      r.barrier_wait_wall_ns += p.barrier_wait_ns;
      r.fast_forward_wall_ns += p.fast_forward_ns;
    }
    const auto ep = bed.engine()->engine_profile();
    r.fence_wall_ns = ep.fence_wall_ns;
    r.fence_barriers = ep.fence_barriers;
    r.ff_jumps = ep.ff_jumps;
  }
  r.violations = checker.violations().size();
  r.report = checker.ok() ? "" : checker.report();
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  const bool smoke = benchutil::has_flag(argc, argv, "--smoke");
  RunOpts base;
  base.vswitches = static_cast<std::size_t>(std::max(
      64L, benchutil::int_flag(argc, argv, "--vswitches", smoke ? 128 : 10240)));
  base.shards = static_cast<std::size_t>(
      std::max(1L, benchutil::int_flag(argc, argv, "--shards", 8)));
  base.pairs = static_cast<std::size_t>(std::max(
      4L, benchutil::int_flag(argc, argv, "--pairs", smoke ? 8 : 64)));
  base.window_ms = static_cast<int>(std::max(
      200L, benchutil::int_flag(argc, argv, "--window-ms", smoke ? 600 : 1000)));
  const int max_threads = static_cast<int>(
      std::max(1L, benchutil::int_flag(argc, argv, "--max-threads", 8)));
  const unsigned hw = std::thread::hardware_concurrency();

  benchutil::banner(
      "Sharded engine scaling — threaded control plane under churn",
      smoke ? "smoke mode: N-thread fingerprint == 1-thread + conservation "
              "+ failover under fences"
            : "epoch fences let churn (offload push, FE crash, reseed) run "
              "under worker threads without changing a single outcome");
  std::printf("  %zu vswitches, %zu shards, %zu pairs, %dms window, churn "
              "on, host has %u core(s)\n",
              base.vswitches, base.shards, base.pairs, base.window_ms, hw);

  if (smoke) {
    RunOpts o1 = base;
    o1.threads = 1;
    RunOpts o2 = base;
    o2.threads = 2;
    const RunResult t1 = run_one(o1);
    const RunResult t2 = run_one(o2);
    const bool deterministic = t1.fingerprint == t2.fingerprint;
    const bool crossed = t1.exported > 0;
    const bool conserved = t1.violations == 0 && t2.violations == 0 &&
                           t2.exported == t2.imported + t2.pending &&
                           t2.late == 0;
    const bool churned = t1.failovers > 0 && t2.failovers == t1.failovers;
    const bool protocol = t1.epochs_skipped > 0 && t1.fenced_sections > 0 &&
                          t2.fenced_sections > 0;
    const bool profile_inv = t1.prof_epochs == t2.prof_epochs &&
                             t1.fence_barriers == t2.fence_barriers &&
                             t1.ff_jumps == t2.ff_jumps;
    const bool no_stall = t1.stalled_pairs == 0 && t2.stalled_pairs == 0;
    benchutil::verdict(deterministic,
                       "2-thread fingerprint == 1-thread fingerprint "
                       "(churn included)");
    benchutil::verdict(crossed, "offload traffic crossed shard boundaries");
    benchutil::verdict(conserved,
                       "cross-shard conservation + conservative lookahead");
    benchutil::verdict(churned, "FE crash detected and failed over at every "
                                "thread count");
    benchutil::verdict(protocol, "fenced sections ran and sparse epochs "
                                 "were skipped");
    benchutil::verdict(profile_inv,
                       "profile event counts (epochs, fence barriers, "
                       "ff jumps) match across thread counts");
    benchutil::verdict(no_stall, "every pair completed connections");
    if (!t1.report.empty()) std::printf("%s\n", t1.report.c_str());
    if (!t2.report.empty()) std::printf("%s\n", t2.report.c_str());
    return deterministic && crossed && conserved && churned && protocol &&
                   profile_inv && no_stall
               ? 0
               : 1;
  }

  // Reference: the classic engine-less testbed (what every run before the
  // sharded engine measured), same churn script via plain loop events.
  std::printf("\n  [unsharded reference]\n");
  RunOpts oref = base;
  oref.shards = 1;
  oref.threads = 1;
  const RunResult ref = run_one(oref);
  std::printf("    %.2fs wall for the %dms window, %llu packets\n",
              ref.wall_sec, base.window_ms,
              static_cast<unsigned long long>(ref.delivered));

  std::vector<int> sweep;
  for (int t = 1; t <= max_threads; t *= 2) sweep.push_back(t);
  // Rows with more workers than hardware threads measure oversubscription,
  // not scaling (hardware_concurrency 0 = unknown: every row counts).
  std::vector<bool> valid;
  for (const int t : sweep) {
    valid.push_back(hw == 0 || t <= static_cast<int>(hw));
  }
  std::vector<RunResult> results;
  for (const int t : sweep) {
    std::printf("  [%d thread(s)] running...\n", t);
    std::fflush(stdout);
    RunOpts o = base;
    o.threads = t;
    results.push_back(run_one(o));
  }

  benchutil::Table tab({"threads", "wall (s)", "vs unsharded", "vs 1-thread",
                        "pkts/wall-sec", "busy balance", "skipped",
                        "fences"});
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const RunResult& r = results[i];
    tab.add_row({std::to_string(sweep[i]), benchutil::fmt(r.wall_sec, 2),
                 valid[i] ? benchutil::fmt(ref.wall_sec / r.wall_sec, 2) + "x"
                          : "invalid",
                 valid[i] ? benchutil::fmt(results[0].wall_sec / r.wall_sec,
                                           2) + "x"
                          : "invalid",
                 benchutil::fmt_si(static_cast<double>(r.delivered) /
                                   r.wall_sec),
                 benchutil::fmt_pct(r.busy_balance),
                 std::to_string(r.epochs_skipped),
                 std::to_string(r.fenced_sections)});
  }
  tab.print();
  if (std::find(valid.begin(), valid.end(), false) != valid.end()) {
    std::printf("  rows with more than %u thread(s) oversubscribe this host: "
                "marked invalid, left out of the speedup figures\n",
                hw);
  }

  // Where the wall-clock went, per thread count (wall-clock columns are
  // host-dependent; the three count columns must not move with threads).
  std::printf("\n  [phase profile — worker wall-clock attribution]\n");
  benchutil::Table ptab({"threads", "advance (ms)", "snapshot (ms)",
                         "barrier (ms)", "fast-fwd (ms)", "fence (ms)",
                         "epochs", "fence-barriers", "ff-jumps"});
  const auto ms = [](std::uint64_t ns) {
    return benchutil::fmt(static_cast<double>(ns) / 1e6, 1);
  };
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const RunResult& r = results[i];
    ptab.add_row({std::to_string(sweep[i]), ms(r.advance_wall_ns),
                  ms(r.snapshot_wall_ns), ms(r.barrier_wait_wall_ns),
                  ms(r.fast_forward_wall_ns), ms(r.fence_wall_ns),
                  std::to_string(r.prof_epochs),
                  std::to_string(r.fence_barriers),
                  std::to_string(r.ff_jumps)});
  }
  ptab.print();

  // Ablation at threads=1: fast-forward off must reproduce the sweep
  // fingerprint.
  std::printf("\n  [ablation, threads=1] fast_forward=0 running...\n");
  std::fflush(stdout);
  RunOpts off = base;
  off.threads = 1;
  off.fast_forward = false;
  const RunResult ff_off = run_one(off);
  benchutil::Table atab(
      {"fast-fwd", "wall (s)", "epochs", "skipped", "sections"});
  atab.add_row({"off", benchutil::fmt(ff_off.wall_sec, 2),
                std::to_string(ff_off.epochs),
                std::to_string(ff_off.epochs_skipped),
                std::to_string(ff_off.fenced_sections)});
  atab.print();

  bool deterministic = true;
  for (const RunResult& r : results) {
    deterministic = deterministic && r.fingerprint == results[0].fingerprint;
  }
  bool conserved = ref.violations == 0;
  bool no_stall = ref.stalled_pairs == 0;
  for (const RunResult& r : results) {
    conserved = conserved && r.violations == 0 &&
                r.exported == r.imported + r.pending && r.late == 0;
    no_stall = no_stall && r.stalled_pairs == 0;
  }
  const RunResult& last = results.back();
  double best_wall = results[0].wall_sec;
  for (std::size_t i = 0; i < results.size(); ++i) {
    if (valid[i]) best_wall = std::min(best_wall, results[i].wall_sec);
  }
  const double best_vs_unsharded = ref.wall_sec / best_wall;
  const double best_vs_1thread = results[0].wall_sec / best_wall;
  const bool protocol_live =
      results[0].epochs_skipped > 0 && results[0].fenced_sections > 0;
  const bool ff_invariant = ff_off.fingerprint == results[0].fingerprint &&
                            ff_off.epochs_skipped == 0;
  bool churned = ref.failovers > 0;
  for (const RunResult& r : results) {
    churned = churned && r.failovers == results[0].failovers &&
              r.failovers > 0;
  }
  bool profile_inv = true;
  for (const RunResult& r : results) {
    profile_inv = profile_inv && r.prof_epochs == results[0].prof_epochs &&
                  r.fence_barriers == results[0].fence_barriers &&
                  r.ff_jumps == results[0].ff_jumps;
  }

  benchutil::verdict(deterministic,
                     "every thread count produced the same fingerprint "
                     "(churn included)");
  benchutil::verdict(conserved,
                     "cross-shard conservation + 0 late tokens at every "
                     "thread count");
  benchutil::verdict(churned,
                     "FE crash detected and failed over identically at "
                     "every thread count");
  benchutil::verdict(protocol_live,
                     "fenced sections ran and sparse epochs were skipped");
  benchutil::verdict(ff_invariant,
                     "fast-forward off reproduces the fast-forward-on "
                     "fingerprint");
  benchutil::verdict(profile_inv,
                     "profile event counts (epochs, fence barriers, ff "
                     "jumps) identical at every thread count");
  benchutil::verdict(no_stall,
                     "every pair completed connections, unsharded and at "
                     "every thread count");
  benchutil::verdict(last.ideal_speedup >= 4.0,
                     "shard busy-time balance supports >= 4x (sum/max of "
                     "per-shard busy time)");
  if (hw >= 8) {
    benchutil::verdict(best_vs_1thread >= 3.0,
                       ">= 3x wall-clock vs the 1-thread sharded churn run");
    benchutil::verdict(best_vs_unsharded >= 4.0,
                       ">= 4x wall-clock vs the unsharded single thread");
  } else {
    std::printf("  [SKIP] wall-clock gates (>=3x vs 1-thread, >=4x vs "
                "unsharded) need >= 8 cores; this host has %u — measured "
                "%.2fx / %.2fx, balance-bound %.2fx\n",
                hw, best_vs_1thread, best_vs_unsharded, last.ideal_speedup);
  }
  if (!deterministic) {
    for (std::size_t i = 0; i < results.size(); ++i) {
      const RunResult& r = results[i];
      std::printf(
          "    threads=%d fp=%016llx att=%llu comp=%llu sent=%llu del=%llu "
          "drop=%llu infl=%llu bytes=%llu exp=%llu imp=%llu ctl=%llu\n",
          sweep[i], static_cast<unsigned long long>(r.fingerprint),
          static_cast<unsigned long long>(r.attempted),
          static_cast<unsigned long long>(r.completed),
          static_cast<unsigned long long>(r.totals.sent),
          static_cast<unsigned long long>(r.totals.delivered),
          static_cast<unsigned long long>(r.totals.dropped),
          static_cast<unsigned long long>(r.totals.in_flight),
          static_cast<unsigned long long>(r.totals.total_bytes),
          static_cast<unsigned long long>(r.totals.exported),
          static_cast<unsigned long long>(r.totals.imported),
          static_cast<unsigned long long>(r.ctl_events));
    }
  }

  std::FILE* json = std::fopen("BENCH_shard.json", "w");
  if (json == nullptr) {
    std::fprintf(stderr, "cannot write BENCH_shard.json\n");
    return 1;
  }
  std::fprintf(json,
               "{\n"
               "  \"schema\": \"nezha-bench-shard-v3\",\n"
               "  \"config\": {\"num_vswitches\": %zu, \"shards\": %zu, "
               "\"pairs\": %zu, \"window_ms\": %d, \"seed\": %llu, "
               "\"hardware_concurrency\": %u, \"fast_forward\": 1, "
               "\"churn\": 1},\n"
               "  \"unsharded_reference\": {\"wall_seconds\": %.3f, "
               "\"pkts_per_wall_sec\": %.0f, \"delivered_packets\": %llu, "
               "\"completed_connections\": %llu, \"failovers\": %llu},\n"
               "  \"sweep\": [\n",
               base.vswitches, base.shards, base.pairs, base.window_ms,
               static_cast<unsigned long long>(base.seed), hw, ref.wall_sec,
               static_cast<double>(ref.delivered) / ref.wall_sec,
               static_cast<unsigned long long>(ref.delivered),
               static_cast<unsigned long long>(ref.completed),
               static_cast<unsigned long long>(ref.failovers));
  for (std::size_t i = 0; i < sweep.size(); ++i) {
    const RunResult& r = results[i];
    char speedups[96] = "";
    if (valid[i]) {
      std::snprintf(speedups, sizeof(speedups),
                    "\"speedup_vs_unsharded\": %.3f, "
                    "\"speedup_vs_1thread\": %.3f, ",
                    ref.wall_sec / r.wall_sec,
                    results[0].wall_sec / r.wall_sec);
    }
    std::fprintf(
        json,
        "    {\"threads\": %d, \"valid\": %d, \"wall_seconds\": %.3f, %s"
        "\"pkts_per_wall_sec\": %.0f, \"busy_balance\": %.4f, "
        "\"ideal_speedup_from_balance\": %.3f, \"exported_tokens\": %llu, "
        "\"epochs\": %llu, \"epochs_skipped\": %llu, "
        "\"fenced_sections\": %llu, \"failovers\": %llu, "
        "\"completed_connections\": %llu,\n"
        "     \"profile\": {\"epochs\": %llu, \"fence_barriers\": %llu, "
        "\"ff_jumps\": %llu, \"snapshot_wall_ns\": %llu, "
        "\"advance_wall_ns\": %llu, \"barrier_wait_wall_ns\": %llu, "
        "\"fast_forward_wall_ns\": %llu, \"fence_wall_ns\": %llu}}%s\n",
        sweep[i], valid[i] ? 1 : 0, r.wall_sec, speedups,
        static_cast<double>(r.delivered) / r.wall_sec, r.busy_balance,
        r.ideal_speedup, static_cast<unsigned long long>(r.exported),
        static_cast<unsigned long long>(r.epochs),
        static_cast<unsigned long long>(r.epochs_skipped),
        static_cast<unsigned long long>(r.fenced_sections),
        static_cast<unsigned long long>(r.failovers),
        static_cast<unsigned long long>(r.completed),
        static_cast<unsigned long long>(r.prof_epochs),
        static_cast<unsigned long long>(r.fence_barriers),
        static_cast<unsigned long long>(r.ff_jumps),
        static_cast<unsigned long long>(r.snapshot_wall_ns),
        static_cast<unsigned long long>(r.advance_wall_ns),
        static_cast<unsigned long long>(r.barrier_wait_wall_ns),
        static_cast<unsigned long long>(r.fast_forward_wall_ns),
        static_cast<unsigned long long>(r.fence_wall_ns),
        i + 1 < sweep.size() ? "," : "");
  }
  std::fprintf(json,
               "  ],\n  \"ablation\": [\n"
               "    {\"fast_forward\": 0, \"threads\": 1, "
               "\"wall_seconds\": %.3f, \"fingerprint_hex\": \"%016llx\", "
               "\"epochs\": %llu, \"epochs_skipped\": %llu, "
               "\"fenced_sections\": %llu}\n"
               "  ],\n"
               "  \"determinism\": {\"fingerprints_equal_across_threads\": "
               "%d, \"fast_forward_invariant\": %d, "
               "\"profile_counts_thread_invariant\": %d, "
               "\"fingerprint_hex\": \"%016llx\"}\n"
               "}\n",
               ff_off.wall_sec,
               static_cast<unsigned long long>(ff_off.fingerprint),
               static_cast<unsigned long long>(ff_off.epochs),
               static_cast<unsigned long long>(ff_off.epochs_skipped),
               static_cast<unsigned long long>(ff_off.fenced_sections),
               deterministic ? 1 : 0, ff_invariant ? 1 : 0,
               profile_inv ? 1 : 0,
               static_cast<unsigned long long>(results[0].fingerprint));
  std::fclose(json);
  std::printf("\n  Wrote BENCH_shard.json\n");

  // Wall-clock gates only apply on hosts with enough cores; determinism,
  // conservation, churn, protocol-liveness and balance gates always do.
  const bool gates_ok =
      deterministic && conserved && churned && protocol_live &&
      ff_invariant && profile_inv && no_stall && last.ideal_speedup >= 4.0 &&
      (hw < 8 || (best_vs_1thread >= 3.0 && best_vs_unsharded >= 4.0));
  return gates_ok ? 0 : 1;
}
