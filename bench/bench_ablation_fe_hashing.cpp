// Ablation: session-consistent vs per-direction FE hashing (§3.2.3).
//
// Nezha's state/table decoupling makes BOTH legal: because the session
// state lives only at the BE, the two directions of a flow may hash to
// different FEs with no correctness impact. This ablation quantifies the
// cost of exercising that freedom: splitting directions runs the rule
// chain once per direction (double slow-path work) and stores the cached
// flow twice (double FE cache memory), exactly the "cache friendliness"
// concern the paper raises for packet-level balancing.
#include "bench/bench_util.h"
#include "support/scenarios.h"

using namespace nezha;

namespace {

struct Result {
  double cps = 0;
  std::uint64_t fe_chain_runs = 0;
  std::uint64_t completed = 0;
  std::size_t fe_cache_entries = 0;
  double chains_per_conn() const {
    return completed == 0 ? 0.0
                          : static_cast<double>(fe_chain_runs) /
                                static_cast<double>(completed);
  }
};

Result run(bool session_consistent) {
  core::TestbedConfig cfg = support::hot_server_config(/*clos=*/false);
  cfg.vswitch.session_consistent_fe_hash = session_consistent;
  support::CpsBed s = support::hot_server_bed(
      cfg, {.server_vcpus = 16, .concurrency = 160, .seed_base = 400});
  core::Testbed& bed = *s.bed;

  Result r;
  r.cps = support::run_hot_server(s, 4, common::milliseconds(500),
                                  common::seconds(2));
  r.completed = s.completed();
  for (sim::NodeId n : bed.controller().fe_nodes_of(support::kServer)) {
    r.fe_chain_runs += bed.vswitch(n).slow_path_lookups();
    if (auto* fe = bed.vswitch(n).frontend(support::kServer)) {
      r.fe_cache_entries += fe->flow_cache.size();
    }
  }
  return r;
}

}  // namespace

int main() {
  benchutil::banner("Ablation — FE hashing: session-consistent vs "
                    "per-direction (§3.2.3)",
                    "splitting directions across FEs is legal under Nezha "
                    "but doubles rule lookups and cached-flow memory");

  const Result consistent = run(true);
  const Result split = run(false);

  benchutil::Table t({"FE hash", "CPS (4 FEs)", "chains/conn",
                      "FE cache entries"});
  t.add_row({"session-consistent", benchutil::fmt_si(consistent.cps),
             benchutil::fmt(consistent.chains_per_conn(), 2),
             std::to_string(consistent.fe_cache_entries)});
  t.add_row({"per-direction", benchutil::fmt_si(split.cps),
             benchutil::fmt(split.chains_per_conn(), 2),
             std::to_string(split.fe_cache_entries)});
  t.print();

  const double chain_ratio =
      split.chains_per_conn() / consistent.chains_per_conn();
  std::printf("\n  Chains per connection (split / consistent): %.2f"
              " (expected ≈2: one chain per direction)\n", chain_ratio);
  benchutil::verdict(chain_ratio > 1.6,
                     "per-direction hashing roughly doubles slow-path work");
  benchutil::verdict(consistent.cps >= split.cps * 0.95,
                     "session-consistent hashing never loses throughput");
  return benchutil::exit_status();
}
