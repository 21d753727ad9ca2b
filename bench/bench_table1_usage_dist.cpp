// Table 1: normalized distribution of per-VM CPS, #concurrent-flows and
// #vNICs usage (each normalized to the P9999 user).
// Paper: P50 users create ~0.5% of the P9999 user's load — service usage is
// dominated by a handful of heavy users.
#include "bench/bench_util.h"
#include "src/common/stats.h"
#include "src/workload/fleet_model.h"

using namespace nezha;

int main() {
  benchutil::banner("Table 1 — normalized usage distribution",
                    "P50 ≈ 0.5–0.8% of P9999; heavy users dominate");

  workload::FleetModel model(workload::FleetModelConfig{.seed = 11});
  const std::size_t n = 200000;

  struct Row {
    const char* name;
    double q;
    double paper[3];  // CPS, #flows, #vNICs
  };
  const Row rows[] = {
      {"P50", 50, {0.53, 0.78, 0.65}},
      {"P90", 90, {1.41, 2.36, 1.0}},
      {"P99", 99, {6.41, 6.39, 6.0}},
      {"P999", 99.9, {18.38, 29.17, 55.0}},
      {"P9999", 99.99, {100.0, 100.0, 100.0}},
  };

  common::Percentiles dist[3];
  for (int k = 0; k < 3; ++k) {
    for (double v :
         model.sample_usage(static_cast<workload::HotspotCause>(k), n)) {
      dist[k].add(v * 100);
    }
  }

  benchutil::Table t({"quantile", "CPS paper", "CPS meas", "#flows paper",
                      "#flows meas", "#vNICs paper", "#vNICs meas"});
  bool ok = true;
  for (const auto& r : rows) {
    std::vector<std::string> cells{r.name};
    for (int k = 0; k < 3; ++k) {
      const double measured = dist[k].percentile(r.q);
      cells.push_back(benchutil::fmt(r.paper[k]) + "%");
      cells.push_back(benchutil::fmt(measured) + "%");
      if (r.paper[k] >= 1.0) {
        ok = ok && measured > r.paper[k] * 0.5 && measured < r.paper[k] * 2.0;
      }
    }
    // reorder: quantile, cps paper, cps meas, flows paper, flows meas, ...
    t.add_row({cells[0], cells[1], cells[2], cells[3], cells[4], cells[5],
               cells[6]});
  }
  t.print();
  benchutil::verdict(ok, "median users are ~1% of the P9999 heavy user");
  return benchutil::exit_status();
}
