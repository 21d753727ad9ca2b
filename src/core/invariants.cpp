#include "src/core/invariants.h"

#include <sstream>
#include <unordered_map>

#include "src/core/testbed.h"

namespace nezha::core {

namespace {

/// Stimulus ring capacity (oldest entries overwritten).
constexpr std::size_t kMaxStimuli = 256;
/// Stop collecting after this many violations (the first is the one that
/// matters for replay; the cap keeps a broken run's report readable).
constexpr std::size_t kMaxViolations = 64;

}  // namespace

InvariantChecker::InvariantChecker(Testbed& bed, InvariantCheckerConfig config)
    : bed_(bed), config_(config) {
  stimuli_.reserve(kMaxStimuli);
}

void InvariantChecker::attach(common::Duration period) {
  bed_.loop().schedule_periodic(period, [this]() { check(); });
}

void InvariantChecker::record(std::string stimulus) {
  Stimulus s{bed_.loop().now(), std::move(stimulus)};
  if (stimuli_.size() < kMaxStimuli) {
    stimuli_.push_back(std::move(s));
  } else {
    stimuli_[stimuli_next_ % kMaxStimuli] = std::move(s);
  }
  ++stimuli_next_;
}

void InvariantChecker::violation(const std::string& what) {
  if (violations_.size() >= kMaxViolations) return;
  std::ostringstream os;
  os << "[t=" << bed_.loop().now() << "ns] " << what;
  violations_.push_back(os.str());
}

void InvariantChecker::check() {
  ++checks_run_;
  check_conservation();
  check_vnic_placement();
  check_monotone_counters();
}

void InvariantChecker::check_conservation() {
  // Per-shard identity (reduces to the classic sent == delivered + dropped
  // + in_flight when exported/imported are 0, i.e. every unsharded bed).
  for (std::uint32_t s = 0; s < bed_.shard_count(); ++s) {
    const sim::Network& net = bed_.network_of_shard(s);
    const std::uint64_t in = net.sent() + net.imported();
    const std::uint64_t out = net.delivered() + net.dropped_total() +
                              net.in_flight() + net.exported();
    if (in != out) {
      std::ostringstream os;
      os << "packet conservation broken on shard " << s
         << ": sent=" << net.sent() << " + imported=" << net.imported()
         << " != delivered=" << net.delivered()
         << " + dropped=" << net.dropped_total()
         << " + in_flight=" << net.in_flight()
         << " + exported=" << net.exported();
      violation(os.str());
    }
  }
  // Cross-shard: every exported packet is either already imported by its
  // destination shard or still sitting in a shard outbox. Quiescent reads
  // only (the harness runs between run_for() calls on threaded beds).
  const Testbed::NetTotals t = bed_.net_totals();
  if (bed_.engine() != nullptr) {
    const std::uint64_t pending = bed_.engine()->tokens_pending();
    if (t.exported != t.imported + pending) {
      std::ostringstream os;
      os << "cross-shard conservation broken: exported=" << t.exported
         << " != imported=" << t.imported << " + tokens_pending=" << pending;
      violation(os.str());
    }
    if (bed_.engine()->late_tokens() != 0) {
      violation("conservative lookahead violated: " +
                std::to_string(bed_.engine()->late_tokens()) +
                " tokens injected past their due time");
    }
  }
  if (t.sent < prev_sent_ || t.delivered < prev_delivered_ ||
      t.dropped < prev_dropped_) {
    violation("network counters regressed");
  }
  prev_sent_ = t.sent;
  prev_delivered_ = t.delivered;
  prev_dropped_ = t.dropped;
}

void InvariantChecker::check_vnic_placement() {
  Controller& ctrl = bed_.controller();
  const std::vector<tables::VnicId> ids = ctrl.vnic_ids();
  // One pass over the fleet builds both tables the per-vNIC checks read:
  // how many vSwitches host each vNIC, and which vSwitch owns each underlay
  // address (the lowest index wins, as a linear scan would find it).
  std::unordered_map<tables::VnicId, std::size_t> instances;
  std::unordered_map<std::uint32_t, vswitch::VSwitch*> by_ip;
  instances.reserve(ids.size());
  by_ip.reserve(bed_.size());
  for (std::size_t i = 0; i < bed_.size(); ++i) {
    vswitch::VSwitch& vs = bed_.vswitch(i);
    vs.for_each_vnic([&](const vswitch::Vnic& v) { ++instances[v.id()]; });
    by_ip.emplace(vs.underlay_ip().value(), &vs);
  }

  for (tables::VnicId id : ids) {
    vswitch::VSwitch* home = ctrl.home_of(id);
    if (home == nullptr) {
      violation("vnic " + std::to_string(id) + " has no home vSwitch");
      continue;
    }
    // Single-copy session state: the vNIC instance exists on exactly one
    // vSwitch — its home (§3.2.1).
    const auto found = instances.find(id);
    const std::size_t copies = found == instances.end() ? 0 : found->second;
    if (copies != 1) {
      violation("vnic " + std::to_string(id) + " exists on " +
                std::to_string(copies) + " vSwitches (want exactly 1)");
    }
    vswitch::Vnic* v = home->vnic(id);
    if (v == nullptr) {
      violation("vnic " + std::to_string(id) + " missing at its home");
      continue;
    }

    // Memory pools never over-release.
    if (home->rule_memory().used() > home->rule_memory().capacity() ||
        home->session_memory().used() > home->session_memory().capacity()) {
      violation("memory pool over-committed on node " +
                std::to_string(home->id()));
    }

    // Transition windows intentionally dual-run tables; skip the strict
    // shape checks while one is in flight.
    if (ctrl.transition_pending(id)) continue;

    // BE/FE rule-table consistency: local tables exist iff the vNIC is not
    // in the offloaded final stage.
    switch (v->mode()) {
      case vswitch::VnicMode::kLocal:
        if (!v->has_local_tables()) {
          violation("local vnic " + std::to_string(id) +
                    " lost its rule tables");
        }
        break;
      case vswitch::VnicMode::kOffloaded:
        if (v->has_local_tables()) {
          violation("offloaded vnic " + std::to_string(id) +
                    " still holds local rule tables");
        }
        if (v->fe_locations().empty()) {
          violation("offloaded vnic " + std::to_string(id) +
                    " has no FE locations configured at the BE");
        }
        break;
      case vswitch::VnicMode::kOffloadDualRunning:
      case vswitch::VnicMode::kFallbackDualRunning:
        // Dual-running stages keep local tables by design.
        if (!v->has_local_tables()) {
          violation("dual-running vnic " + std::to_string(id) +
                    " lost its rule tables");
        }
        break;
    }

    // Gateway consistency: the published placement resolves, and when the
    // vNIC is offloaded every published FE location resolves to a live
    // FrontendInstance on that vSwitch (the scale-out publish filter).
    const auto* entry = bed_.gateway().lookup(v->addr());
    if (entry == nullptr || entry->placement.locations.empty()) {
      violation("vnic " + std::to_string(id) +
                " has no gateway placement published");
      continue;
    }
    if (ctrl.is_offloaded(id) && v->mode() == vswitch::VnicMode::kOffloaded) {
      for (const tables::Location& loc : entry->placement.locations) {
        const auto owner = by_ip.find(loc.ip.value());
        if (owner == by_ip.end()) {
          violation("vnic " + std::to_string(id) +
                    " placement names an unknown underlay address");
          continue;
        }
        vswitch::VSwitch* host = owner->second;
        vswitch::FrontendInstance* fe = host->frontend(id);
        if (fe == nullptr) {
          violation("vnic " + std::to_string(id) +
                    " placement names node " + std::to_string(host->id()) +
                    " which hosts no FrontendInstance (not-yet-installed "
                    "FE published)");
          continue;
        }
        // Single-copy session state, FE side: flow caches are stateless by
        // construction — state lives only in the BE's unified store.
        if (fe->flow_cache.config().store_state) {
          violation("FE flow cache for vnic " + std::to_string(id) +
                    " on node " + std::to_string(host->id()) +
                    " is configured to store session state");
        }
      }
    }
  }
}

void InvariantChecker::check_monotone_counters() {
  const Controller& ctrl = bed_.controller();
  if (ctrl.offload_events() < prev_offloads_ ||
      ctrl.fallback_events() < prev_fallbacks_ ||
      ctrl.scale_out_events() < prev_scale_outs_ ||
      ctrl.scale_in_events() < prev_scale_ins_ ||
      ctrl.failover_events() < prev_failovers_ ||
      ctrl.displacement_events() < prev_displacements_) {
    violation("controller event counters regressed");
  }
  prev_offloads_ = ctrl.offload_events();
  prev_fallbacks_ = ctrl.fallback_events();
  prev_scale_outs_ = ctrl.scale_out_events();
  prev_scale_ins_ = ctrl.scale_in_events();
  prev_failovers_ = ctrl.failover_events();
  prev_displacements_ = ctrl.displacement_events();
}

std::string InvariantChecker::report() const {
  std::ostringstream os;
  os << "InvariantChecker replay report\n"
     << "  seed: " << config_.seed << "\n"
     << "  checks run: " << checks_run_ << "\n"
     << "  violations (" << violations_.size() << "):\n";
  for (const std::string& v : violations_) os << "    " << v << "\n";
  os << "  stimulus trace (" << std::min(stimuli_next_, stimuli_.size())
     << " of " << stimuli_next_ << " recorded):\n";
  // Ring order: oldest first.
  const std::size_t n = stimuli_.size();
  const std::size_t start = stimuli_next_ > n ? stimuli_next_ % n : 0;
  for (std::size_t i = 0; i < n; ++i) {
    const Stimulus& s = stimuli_[(start + i) % n];
    os << "    [t=" << s.at << "ns] " << s.text << "\n";
  }
  os << "  replay: rerun with this seed; the stimulus trace reproduces the "
        "event sequence.\n";
  return os.str();
}

}  // namespace nezha::core
