#include "src/core/controller.h"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "src/sim/shard.h"
#include "src/telemetry/hub.h"

namespace nezha::core {

namespace {

/// Offload trigger: vSwitch resource utilization above this (Fig 8).
constexpr double kOffloadThreshold = 0.70;
/// Fallback requires projected local utilization below this safe level.
constexpr double kFallbackSafeLevel = 0.40;
/// Initial #FEs of an offload (App B.2: init 4).
constexpr std::size_t kInitialFes = 4;
/// FEs added per scale-out step (Fig 11 doubles 4 → 8).
constexpr std::size_t kScaleOutStep = 4;
/// Minimum spacing between scale decisions for one vNIC's pool —
/// prevents every alerting FE host from independently growing the same
/// pool in a single monitoring round.
constexpr common::Duration kScaleCooldown = common::seconds(2);
constexpr common::Duration kRttAllowance = common::milliseconds(1);
/// Lognormal parameters of each config-push latency (seconds scale is via
/// mean_ms); calibrated so Table 4's activation distribution lands near
/// avg 1s / P99 2s.
constexpr double kConfigLatencyMeanMs = 260.0;
constexpr double kConfigLatencySigma = 0.45;
/// Minimum spacing between fleet-wide FE weight-book publications
/// (kLoadAwareWeighted only; recomputed from monitor samples).
constexpr common::Duration kWeightUpdatePeriod = common::seconds(1);

}  // namespace

Controller::Controller(sim::EventLoop& loop, sim::ShardedEngine& engine,
                       tables::VnicServerMap& gateway, ControllerConfig config)
    : loop_(loop), engine_(engine), gateway_(gateway), config_(config),
      rng_(config.seed),
      policy_(&policy::policy_for(config.fe_policy)),
      weight_book_(policy::empty_weight_book()) {}

void Controller::add_vswitch(vswitch::VSwitch* vs) {
  if (vs->id() != fleet_.size()) {
    throw std::invalid_argument("vSwitches join the fleet in NodeId order");
  }
  fleet_.push_back(SwitchState{vs, &vs->network(), {}});
  loads_.push_back(0.0);
  vs->set_fe_policy(policy_);
}

void Controller::register_vnic(vswitch::VSwitch* home,
                               const vswitch::VnicConfig& vnic_config,
                               bool stateful_decap) {
  VnicRecord rec;
  rec.config = vnic_config;
  rec.stateful_decap = stateful_decap;
  rec.home = home;
  vnics_[vnic_config.id] = rec;
  gateway_.set_placement(vnic_config.addr, vnic_config.id,
                         {home->location()});
}

void Controller::record_ctrl(telemetry::EventKind kind, std::uint32_t node,
                             std::uint64_t a, std::uint64_t b) {
  if (telemetry_ == nullptr) return;
  telemetry::TraceEvent e;
  e.at = loop_.now();
  e.node = node;
  e.kind = kind;
  e.a = a;
  e.b = b;
  telemetry_->record(e);
}

void Controller::schedule_monitor_tick(common::TimePoint at) {
  engine_.schedule_fenced(at, [this, at]() {
    monitor_tick();
    schedule_monitor_tick(at + config_.monitor_period);
  });
}

common::Duration Controller::sample_config_latency() {
  // Lognormal with mean kConfigLatencyMeanMs: mu = ln(mean) - sigma^2/2.
  const double sigma = kConfigLatencySigma;
  const double mu = std::log(kConfigLatencyMeanMs) - sigma * sigma / 2.0;
  const double ms = rng_.lognormal(mu, sigma);
  return static_cast<common::Duration>(ms * common::kMillisecond);
}

std::vector<tables::Location> Controller::fe_locations(
    const std::vector<sim::NodeId>& nodes, tables::VnicId id,
    bool installed) const {
  std::vector<tables::Location> locations;
  for (sim::NodeId n : nodes) {
    vswitch::VSwitch* vs = switch_of(n);
    if (vs == nullptr || (installed && vs->frontend(id) == nullptr)) continue;
    locations.push_back(vs->location());
  }
  return locations;
}

void Controller::apply_fe_locations(vswitch::VSwitch* home, tables::VnicId id) {
  auto rit = vnics_.find(id);
  if (rit == vnics_.end()) return;
  home->update_fe_locations(id, fe_locations(rit->second.fe_nodes, id, false));
  publish_placement(rit->second);
}

void Controller::publish_placement(const VnicRecord& rec) {
  std::vector<tables::Location> locations;
  if (rec.offloaded) {
    // Publish only FEs whose instance install has completed. fe_nodes may
    // list FEs still being configured (a crash can force a republish in
    // the middle of a scale-out); advertising those would blackhole the
    // share of traffic hashed to them. The scale-out's own apply event
    // republishes the full list once the installs land.
    locations = fe_locations(rec.fe_nodes, rec.config.id, true);
  }
  if (locations.empty()) locations.push_back(rec.home->location());
  gateway_.set_placement(rec.config.addr, rec.config.id,
                         std::move(locations));
}

std::vector<vswitch::VSwitch*> Controller::select_frontends(
    const vswitch::VSwitch& home, std::size_t count,
    const std::vector<sim::NodeId>& exclude) const {
  // Each hop tier is at most two node ranges: the home rack, the rest of
  // its aggregation block, the rest of the fleet. The index offers a host,
  // or a whole subtree through its least-loaded host, only while that
  // host's least possible key would still enter the shortlist. A sample
  // lies in [0, 1], where load_key(cpu, 0) is the CPU itself, so that
  // bound follows the index order; a backlog only adds to it.
  const sim::NodeId home_id = home.id();
  const sim::Topology& topo = home.network().topology();
  const std::uint64_t n = loads_.size();
  const auto clip = [n](std::uint64_t id) {
    return static_cast<sim::NodeId>(std::min(id, n));
  };
  const sim::Topology::Span rack = topo.rack_span(home_id);
  const sim::Topology::Span block = topo.block_span(home_id);
  const sim::NodeId rack_first = clip(rack.first), rack_last = clip(rack.last);
  const sim::NodeId block_first = clip(block.first);
  const sim::NodeId block_last = clip(block.last);
  struct Range {
    int tier;
    sim::NodeId first, last;
  };
  const Range ranges[] = {{1, rack_first, rack_last},
                          {2, block_first, rack_first},
                          {2, rack_last, block_last},
                          {3, 0, block_first},
                          {3, block_last, clip(n)}};
  const policy::LoadKey load_key = policy_->load_key();
  policy::Shortlist best(std::min<std::uint64_t>(count, n));
  for (const Range& range : ranges) {
    loads_.search(
        range.first, range.last,
        [&](double cpu, sim::NodeId node) {
          // Idle enough to take load without becoming a bottleneck (App
          // B.1), and not yet beaten by `count` better hosts.
          return cpu < config_.scale_threshold &&
                 best.admits(policy::PlacementKey{range.tier, node,
                                                  load_key(cpu, 0.0)});
        },
        [&](sim::NodeId node, double cpu) {
          const double queue =
              load_key.backlog
                  ? static_cast<double>(
                        fleet_[node].net->port_queued_bytes(node))
                  : 0.0;
          const policy::PlacementKey key{range.tier, node,
                                         load_key(cpu, queue)};
          if (!best.admits(key) || node == home_id ||
              fleet_[node].net->crashed(node) ||
              std::find(exclude.begin(), exclude.end(), node) !=
                  exclude.end()) {
            return;
          }
          best.take(key);
        });
  }
  std::vector<vswitch::VSwitch*> out;
  out.reserve(best.best().size());
  for (const policy::PlacementKey& key : best.best()) {
    out.push_back(fleet_[key.node].vs);
  }
  return out;
}

std::vector<vswitch::VSwitch*> Controller::displace_frontends(
    tables::VnicId requester, const vswitch::VSwitch& home, std::size_t count,
    std::vector<sim::NodeId>& exclude) {
  // PAM-style push-aside: every idle host is already taken (or none
  // exists), so look at busy neighbors that host FEs for *other* vNICs,
  // least-loaded first — pushing the lightest neighbor aside costs the
  // displaced pool the least. A donor pool must stay >= min_fes after the
  // eviction, which also rules out two pools endlessly displacing each
  // other's last spare FE.
  std::vector<sim::NodeId> victims;
  for (sim::NodeId node = 0; node < fleet_.size(); ++node) {
    if (node == home.id()) continue;
    if (fleet_[node].net->crashed(node)) continue;
    if (std::find(exclude.begin(), exclude.end(), node) != exclude.end()) {
      continue;
    }
    if (loads_.load(node) < config_.scale_threshold) continue;  // idle →
    if (fleet_[node].vs->frontend_count() == 0) continue;  // select_frontends
    victims.push_back(node);
  }
  std::sort(victims.begin(), victims.end(),
            [this](sim::NodeId a, sim::NodeId b) {
              if (loads_.load(a) != loads_.load(b)) {
                return loads_.load(a) < loads_.load(b);
              }
              return a < b;
            });

  // Deterministic donor choice: iterate vNIC ids sorted (vnics_ is
  // unordered). Evictions below never add or remove a vNIC record, so one
  // sorted copy serves every victim.
  const std::vector<tables::VnicId> ids = vnic_ids();
  std::vector<vswitch::VSwitch*> out;
  for (sim::NodeId victim : victims) {
    if (out.size() >= count) break;
    vswitch::VSwitch* host = fleet_[victim].vs;
    // The donor on this host: the vNIC with the largest pool that can spare
    // an FE (ties → smallest vNIC id).
    tables::VnicId donor = 0;
    std::size_t donor_pool = 0;
    for (tables::VnicId vid : ids) {
      if (vid == requester) continue;
      const VnicRecord& rec = vnics_.at(vid);
      if (rec.transition_pending) continue;
      if (std::find(rec.fe_nodes.begin(), rec.fe_nodes.end(), host->id()) ==
          rec.fe_nodes.end()) {
        continue;
      }
      if (rec.fe_nodes.size() <= config_.min_fes) continue;
      if (rec.fe_nodes.size() > donor_pool) {
        donor = vid;
        donor_pool = rec.fe_nodes.size();
      }
    }
    if (donor_pool == 0) continue;
    evict_frontend(donor, host->id());
    ++displacement_events_;
    record_ctrl(telemetry::EventKind::kCtrlDisplace, host->id(), requester,
                donor);
    out.push_back(host);
    exclude.push_back(host->id());
  }
  return out;
}

void Controller::evict_frontend(tables::VnicId id, sim::NodeId node) {
  auto it = vnics_.find(id);
  if (it == vnics_.end()) return;
  VnicRecord& rec = it->second;
  auto pos = std::find(rec.fe_nodes.begin(), rec.fe_nodes.end(), node);
  if (pos == rec.fe_nodes.end()) return;
  rec.fe_nodes.erase(pos);

  // Update BE config + gateway after one config push; retain the FE's
  // tables until stale senders drain (learning interval + RTT, §4.3).
  vswitch::VSwitch* home = rec.home;
  const common::TimePoint apply_at = loop_.now() + sample_config_latency();
  // The apply touches the home vSwitch (possibly another shard's) and the
  // gateway senders read fleet-wide → fenced.
  engine_.schedule_fenced(
      apply_at, [this, home, id]() { apply_fe_locations(home, id); });
  const common::TimePoint remove_at =
      apply_at + config_.learning_interval + kRttAllowance;
  if (vswitch::VSwitch* fe = switch_of(node)) {
    // Long drain tail → the table drop runs on the FE's own loop.
    fe->loop().schedule_at(remove_at, [fe, id]() { fe->remove_frontend(id); });
  }
}

std::vector<vswitch::VSwitch*> Controller::pick_frontends(
    tables::VnicId id, const vswitch::VSwitch& home, std::size_t count,
    std::vector<sim::NodeId> exclude) {
  auto fes = select_frontends(home, count, exclude);
  if (fes.size() < count && policy_->displaces()) {
    for (vswitch::VSwitch* fe : fes) exclude.push_back(fe->id());
    auto pushed = displace_frontends(id, home, count - fes.size(), exclude);
    fes.insert(fes.end(), pushed.begin(), pushed.end());
  }
  return fes;
}

common::TimePoint Controller::install_frontends(
    VnicRecord& rec, const std::vector<vswitch::VSwitch*>& fes,
    const tables::RuleTableSet& rules) {
  const common::TimePoint t0 = loop_.now();
  common::TimePoint fe_ready = t0;
  for (vswitch::VSwitch* fe : fes) {
    const common::TimePoint at = t0 + sample_config_latency();
    fe_ready = std::max(fe_ready, at);
    // Copy the rules now (controller snapshot) and install at the config
    // arrival time — on the FE's own loop, so the install is serialized
    // with that vSwitch's packet processing on a sharded engine.
    fe->loop().schedule_at(at, [fe, cfg = rec.config, rules,
                                stateful = rec.stateful_decap,
                                be = rec.home->location()]() {
      (void)fe->install_frontend(cfg, rules, be, stateful);
    });
    rec.fe_nodes.push_back(fe->id());
  }
  fes_provisioned_ += fes.size();
  return fe_ready;
}

void Controller::drop_from_pool(tables::VnicId id, VnicRecord& rec,
                                std::vector<sim::NodeId>::iterator pos) {
  const sim::NodeId node = *pos;
  rec.fe_nodes.erase(pos);
  // Failover (§4.4): delete the faulty FE from the BE's config and the
  // gateway immediately (one config push); add a replacement only when
  // the pool would drop below the minimum.
  // Same filter as publish_placement: an FE from an in-flight scale-out
  // has no instance yet and must not receive sprayed traffic.
  rec.home->update_fe_locations(id, fe_locations(rec.fe_nodes, id, true));
  publish_placement(rec);
  if (rec.fe_nodes.size() < config_.min_fes) {
    (void)scale_out(id, config_.min_fes - rec.fe_nodes.size(), {node});
  }
}

common::Status Controller::trigger_offload(tables::VnicId id,
                                           std::size_t num_fes) {
  auto it = vnics_.find(id);
  if (it == vnics_.end()) return common::make_error("unknown vnic");
  VnicRecord& rec = it->second;
  if (rec.offloaded || rec.transition_pending) {
    return common::make_error("offload already active/in flight");
  }
  vswitch::Vnic* v = rec.home->vnic(id);
  if (v == nullptr || v->mode() != vswitch::VnicMode::kLocal) {
    return common::make_error("vnic not in local mode");
  }
  if (num_fes == 0) num_fes = kInitialFes;

  const auto fes = pick_frontends(id, *rec.home, num_fes, {});
  if (fes.size() < num_fes) {
    return common::make_error("not enough idle vSwitches for FE pool");
  }

  const common::TimePoint t0 = loop_.now();
  rec.transition_pending = true;
  record_ctrl(telemetry::EventKind::kCtrlOffloadBegin, rec.home->id(), id,
              fes.size());

  // Dual-running stage (Fig 7):
  //  (1) configure rule tables in every selected FE,
  //  (2) configure BE/FE locations on both sides,
  //  (3) update the gateway's vNIC-server table.
  // Each push carries a sampled config latency; the stage completes when the
  // slowest sender has re-learned the placement.
  const common::TimePoint fe_ready = install_frontends(rec, fes, *v->rules());
  std::vector<tables::Location> fe_locations;
  for (vswitch::VSwitch* fe : fes) fe_locations.push_back(fe->location());

  // (2) BE configuration lands after the FEs are live. The vSwitch
  // mutation goes on the home's loop; the controller's own record flips on
  // its loop at the same instant (the two touch disjoint state).
  const common::TimePoint be_ready = fe_ready + sample_config_latency();
  vswitch::VSwitch* home = rec.home;
  home->loop().schedule_at(be_ready, [home, id, fe_locations]() {
    (void)home->begin_offload(id, fe_locations);
  });
  loop_.schedule_at(be_ready, [this, id]() {
    auto rit = vnics_.find(id);
    if (rit != vnics_.end()) rit->second.offloaded = true;
  });

  // (3) Gateway update, then the learning interval bounds sender staleness.
  // Senders on every shard read the gateway → fenced.
  const common::TimePoint gw_done = be_ready + sample_config_latency();
  engine_.schedule_fenced(gw_done, [this, id]() {
    auto rit = vnics_.find(id);
    if (rit != vnics_.end()) publish_placement(rit->second);
  });

  const common::TimePoint complete = gw_done + config_.learning_interval;
  offload_completion_.add(common::to_millis(complete - t0));

  // Final stage: drop the retained local tables once in-flight stale
  // packets have drained (learning interval + RTT, §4.2.1). This tail
  // outlives any reasonable control window, so it routinely fires while
  // the engine is multi-threaded — the table drop MUST run on the home's
  // loop (freeing rule tables under a concurrent lookup was the one data
  // race TSan found in the whole sharded engine).
  const common::TimePoint drop_at = complete + kRttAllowance;
  home->loop().schedule_at(drop_at,
                           [home, id]() { home->finalize_offload(id); });
  loop_.schedule_at(drop_at, [this, home, id]() {
    auto rit = vnics_.find(id);
    if (rit != vnics_.end()) rit->second.transition_pending = false;
    record_ctrl(telemetry::EventKind::kCtrlOffloadDone, home->id(), id,
                rit != vnics_.end() ? rit->second.fe_nodes.size() : 0);
  });

  ++offload_events_;
  return common::Status::ok_status();
}

common::Status Controller::trigger_fallback(tables::VnicId id) {
  auto it = vnics_.find(id);
  if (it == vnics_.end()) return common::make_error("unknown vnic");
  VnicRecord& rec = it->second;
  if (!rec.offloaded || rec.transition_pending) {
    return common::make_error("vnic not offloaded / transition in flight");
  }
  // Estimate: fallback only if the home vSwitch can absorb the load (§4.2.2).
  if (switch_of(rec.home->id()) != nullptr &&
      loads_.load(rec.home->id()) >= kFallbackSafeLevel) {
    return common::make_error("home vSwitch too loaded for fallback");
  }

  const common::TimePoint t0 = loop_.now();
  rec.transition_pending = true;
  vswitch::VSwitch* home = rec.home;
  record_ctrl(telemetry::EventKind::kCtrlFallbackBegin, home->id(), id);

  // Dual-running: restore local tables, then point the gateway back at the
  // BE; FEs keep serving stale senders until learning completes. The
  // local-table restore mutates the home vSwitch → home's loop.
  const common::TimePoint local_ready = t0 + sample_config_latency();
  home->loop().schedule_at(local_ready, [home, id]() {
    (void)home->begin_fallback(id);
  });
  const common::TimePoint gw_done = local_ready + sample_config_latency();
  engine_.schedule_fenced(gw_done, [this, id]() {
    auto rit = vnics_.find(id);
    if (rit == vnics_.end()) return;
    rit->second.offloaded = false;  // placement reverts to the BE
    publish_placement(rit->second);
  });

  // Drain tail: like offload finalize, this fires long after the control
  // window closes, so every vSwitch mutation is scheduled on its owner's
  // loop (fleet membership is fixed after setup, so resolving the FE
  // pointers now is equivalent to resolving them at fire time).
  const common::TimePoint complete =
      gw_done + config_.learning_interval + kRttAllowance;
  home->loop().schedule_at(complete,
                           [home, id]() { home->finalize_fallback(id); });
  for (sim::NodeId n : rec.fe_nodes) {
    vswitch::VSwitch* fe = switch_of(n);
    if (fe == nullptr) continue;
    fe->loop().schedule_at(complete, [fe, id]() { fe->remove_frontend(id); });
  }
  loop_.schedule_at(complete, [this, home, id]() {
    auto rit = vnics_.find(id);
    if (rit != vnics_.end()) {
      rit->second.fe_nodes.clear();
      rit->second.transition_pending = false;
    }
    record_ctrl(telemetry::EventKind::kCtrlFallbackDone, home->id(), id);
  });

  ++fallback_events_;
  return common::Status::ok_status();
}

common::Status Controller::scale_out(
    tables::VnicId id, std::size_t additional,
    const std::vector<sim::NodeId>& extra_exclude) {
  auto it = vnics_.find(id);
  if (it == vnics_.end()) return common::make_error("unknown vnic");
  VnicRecord& rec = it->second;
  if (!rec.offloaded) return common::make_error("vnic not offloaded");

  std::vector<sim::NodeId> exclude = rec.fe_nodes;
  exclude.insert(exclude.end(), extra_exclude.begin(), extra_exclude.end());
  const auto extra =
      pick_frontends(id, *rec.home, additional, std::move(exclude));
  if (extra.empty()) return common::make_error("no idle vSwitches available");

  vswitch::Vnic* v = rec.home->vnic(id);
  // The BE no longer holds the rule tables; clone from an existing FE.
  const tables::RuleTableSet* source = nullptr;
  for (sim::NodeId n : rec.fe_nodes) {
    vswitch::VSwitch* vs = switch_of(n);
    if (vs == nullptr) continue;
    if (auto* fe = vs->frontend(id)) {
      source = &fe->rules;
      break;
    }
  }
  if (source == nullptr && v != nullptr && v->rules() != nullptr) {
    source = v->rules();
  }
  if (source == nullptr) return common::make_error("no rule source for clone");

  const common::TimePoint fe_ready = install_frontends(rec, extra, *source);

  // Insert the new locations into the BE's FE-location config and the
  // gateway's vNIC-server table (§4.3).
  const common::TimePoint apply_at = fe_ready + sample_config_latency();
  vswitch::VSwitch* home = rec.home;
  engine_.schedule_fenced(
      apply_at, [this, home, id]() { apply_fe_locations(home, id); });

  ++scale_out_events_;
  record_ctrl(telemetry::EventKind::kCtrlScaleOut, rec.home->id(), id,
              extra.size());
  return common::Status::ok_status();
}

void Controller::scale_in_vswitch(sim::NodeId node) {
  std::uint64_t removed = 0;
  for (auto& [id, rec] : vnics_) {
    if (std::find(rec.fe_nodes.begin(), rec.fe_nodes.end(), node) ==
        rec.fe_nodes.end()) {
      continue;
    }
    ++removed;
    evict_frontend(id, node);
    // Scale-in may trigger scale-out elsewhere if the pool is now too small;
    // the vSwitch that just prioritized local traffic is not re-selected.
    if (rec.fe_nodes.size() < config_.min_fes) {
      (void)scale_out(id, config_.min_fes - rec.fe_nodes.size(), {node});
    }
  }
  if (removed > 0) {
    ++scale_in_events_;
    record_ctrl(telemetry::EventKind::kCtrlScaleIn, node, removed);
  }
}

void Controller::handle_fe_crash(sim::NodeId node) {
  bool any = false;
  for (auto& [id, rec] : vnics_) {
    auto pos = std::find(rec.fe_nodes.begin(), rec.fe_nodes.end(), node);
    if (pos == rec.fe_nodes.end()) continue;
    any = true;
    drop_from_pool(id, rec, pos);
  }
  if (any) {
    ++failover_events_;
    record_ctrl(telemetry::EventKind::kCtrlFeCrash, node, node);
  }
}

void Controller::handle_link_failure(tables::VnicId id, sim::NodeId fe_node) {
  auto it = vnics_.find(id);
  if (it == vnics_.end()) return;
  VnicRecord& rec = it->second;
  auto pos = std::find(rec.fe_nodes.begin(), rec.fe_nodes.end(), fe_node);
  if (pos == rec.fe_nodes.end()) return;
  // The FE instance itself stays configured on the (healthy but
  // unreachable) host; the controller retires it like a scale-in.
  const common::TimePoint remove_at =
      loop_.now() + config_.learning_interval + kRttAllowance;
  if (vswitch::VSwitch* fe = switch_of(fe_node)) {
    fe->loop().schedule_at(remove_at,
                           [fe, id]() { fe->remove_frontend(id); });
  }
  drop_from_pool(id, rec, pos);
  ++failover_events_;
  record_ctrl(telemetry::EventKind::kCtrlLinkFailover, fe_node, id, fe_node);
}

void Controller::reseed_fe_hash(std::uint64_t seed) {
  for (auto& state : fleet_) state.vs->set_fe_hash_seed(seed);
}

void Controller::refresh_fleet_sample() {
  const common::TimePoint now = loop_.now();
  for (sim::NodeId node = 0; node < fleet_.size(); ++node) {
    SwitchState& state = fleet_[node];
    if (state.net->crashed(node)) continue;
    loads_.set(node, state.sampler.sample(state.vs->cpu(), now));
  }
}

void Controller::publish_fe_weights() {
  auto book = std::make_shared<policy::FeWeightBook>();
  book->version = weight_book_->version + 1;
  book->weight_by_ip.reserve(fleet_.size());
  for (sim::NodeId node = 0; node < fleet_.size(); ++node) {
    const SwitchState& state = fleet_[node];
    // Fold CPU with the egress-port backlog so either saturated resource
    // downweights the host. The backlog is read on the owning shard; on a
    // sharded bed this runs in a fence or between runs, with every shard
    // quiescent. Quantize to [1, kMaxWeight]: never 0, so an FE still
    // serving stale senders keeps draining.
    const double queue = std::min(
        1.0, state.net->port_queued_bytes(node) / policy::kQueueNormBytes);
    const double load = std::min(1.0, std::max(loads_.load(node), queue));
    const auto weight = static_cast<std::uint16_t>(
        1 + std::lround((policy::FeWeightBook::kMaxWeight - 1) * (1.0 - load)));
    book->set(state.vs->location().ip, weight);
  }
  // Replaced whole, with every shard quiescent: the fleet shares one book.
  weight_book_ = std::move(book);
  for (auto& state : fleet_) state.vs->set_fe_weights(weight_book_);
}

common::Status Controller::migrate_backend(tables::VnicId id,
                                           vswitch::VSwitch* new_home) {
  auto it = vnics_.find(id);
  if (it == vnics_.end()) return common::make_error("unknown vnic");
  VnicRecord& rec = it->second;
  if (!rec.offloaded) {
    return common::make_error("BE migration requires an offloaded vnic");
  }
  vswitch::VSwitch* old_home = rec.home;
  vswitch::Vnic* v = old_home->vnic(id);
  if (v == nullptr) return common::make_error("vnic missing at home");

  // Create the vNIC at the new home in offloaded (BE) shape.
  (void)new_home->add_vnic(rec.config, rec.stateful_decap);
  (void)new_home->begin_offload(id, fe_locations(rec.fe_nodes, id, false));
  new_home->finalize_offload(id);

  // §7.2: only the BE-location config on the FEs changes; this takes effect
  // in <1ms, independent of VM size.
  for (sim::NodeId n : rec.fe_nodes) {
    vswitch::VSwitch* vs = switch_of(n);
    if (vs == nullptr) continue;
    if (auto* fe = vs->frontend(id)) {
      fe->be_location = new_home->location();
    }
  }
  old_home->remove_vnic(id);
  rec.home = new_home;
  return common::Status::ok_status();
}

bool Controller::is_offloaded(tables::VnicId id) const {
  auto it = vnics_.find(id);
  return it != vnics_.end() && it->second.offloaded;
}

std::vector<sim::NodeId> Controller::fe_nodes_of(tables::VnicId id) const {
  auto it = vnics_.find(id);
  return it == vnics_.end() ? std::vector<sim::NodeId>{} : it->second.fe_nodes;
}

vswitch::VSwitch* Controller::home_of(tables::VnicId id) const {
  auto it = vnics_.find(id);
  return it == vnics_.end() ? nullptr : it->second.home;
}

std::vector<tables::VnicId> Controller::vnic_ids() const {
  std::vector<tables::VnicId> ids;
  ids.reserve(vnics_.size());
  for (const auto& [id, rec] : vnics_) ids.push_back(id);
  std::sort(ids.begin(), ids.end());
  return ids;
}

bool Controller::transition_pending(tables::VnicId id) const {
  auto it = vnics_.find(id);
  return it != vnics_.end() && it->second.transition_pending;
}

void Controller::start() {
  if (started_) return;
  started_ = true;
  // Monitoring reads every shard's vSwitch CPU and can launch any
  // workflow → the tick itself is a fenced section, self-rescheduling at
  // nominal multiples of the period (the barrier quantizes actual
  // execution to epoch boundaries, identically for every thread count).
  schedule_monitor_tick(loop_.now() + config_.monitor_period);
}

void Controller::monitor_tick() {
  const common::TimePoint now = loop_.now();
  for (sim::NodeId node = 0; node < fleet_.size(); ++node) {
    SwitchState& state = fleet_[node];
    vswitch::VSwitch* vs = state.vs;
    if (state.net->crashed(node)) continue;
    const double cpu_util = state.sampler.sample(vs->cpu(), now);
    loads_.set(node, cpu_util);
    const double mem_util = std::max(vs->rule_memory().utilization(),
                                     vs->session_memory().utilization());
    const double util = std::max(cpu_util, mem_util);

    const double fe_share = vs->fe_cycles();
    const double local_share = vs->local_cycles();
    vs->reset_cycle_attribution();

    if (util > kOffloadThreshold && config_.auto_offload) {
      // Offload the heaviest local vNICs until utilization is projected to
      // fall to a safe level (§4.2.1). Heaviness here: rule memory (the
      // measurable slow-path footprint) — the CPS share follows the vNIC
      // under test in all our workloads.
      struct Cand { tables::VnicId id; std::size_t weight; };
      std::vector<Cand> cands;
      for (auto& [id, rec] : vnics_) {
        if (rec.home != vs || rec.offloaded || rec.transition_pending) continue;
        vswitch::Vnic* v = vs->vnic(id);
        if (v == nullptr || v->rules() == nullptr) continue;
        cands.push_back(Cand{id, v->rules()->memory_bytes()});
      }
      std::sort(cands.begin(), cands.end(),
                [](const Cand& a, const Cand& b) { return a.weight > b.weight; });
      if (!cands.empty()) (void)trigger_offload(cands.front().id);
    } else if (util > config_.scale_threshold && config_.auto_scale &&
               vs->frontend_count() > 0) {
      // Fig 8: between the scale and offload thresholds on an FE-hosting
      // vSwitch, the source of pressure decides the action.
      if (fe_share > local_share) {
        // Remote offloading dominates → add FEs for the vNICs served here.
        // The per-vNIC cooldown keeps one alert round from growing the same
        // pool once per alerting host.
        for (auto& [id, rec] : vnics_) {
          if (std::find(rec.fe_nodes.begin(), rec.fe_nodes.end(), vs->id()) ==
              rec.fe_nodes.end()) {
            continue;
          }
          auto lit = last_scale_at_.find(id);
          if (lit != last_scale_at_.end() &&
              now - lit->second < kScaleCooldown) {
            continue;
          }
          if (scale_out(id, kScaleOutStep).ok()) {
            last_scale_at_[id] = now;
          }
        }
      } else {
        // Local traffic dominates → evict all FEs to prioritize local vNICs.
        scale_in_vswitch(vs->id());
      }
    }
  }

  if (policy_->kind() == policy::PolicyKind::kLoadAwareWeighted &&
      now - last_weight_push_ >= kWeightUpdatePeriod) {
    publish_fe_weights();
    last_weight_push_ = now;
  }
}

}  // namespace nezha::core
