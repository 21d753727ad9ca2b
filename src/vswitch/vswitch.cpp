#include "src/vswitch/vswitch.h"

#include <utility>

#include "src/net/bytes.h"
#include "src/nf/stateful.h"
#include "src/telemetry/hub.h"

namespace nezha::vswitch {
namespace {

/// Average §7.1 variable-length state allocation: most sessions use 5–8B.
constexpr std::size_t kVariableStateAvgBytes = 8;

// Per-session-entry bytes: key + state allocation (fixed, or the §7.1
// variable-length average when enabled).
std::size_t state_entry_bytes(const VSwitchConfig& config) {
  const std::size_t state = config.variable_length_states
                                ? kVariableStateAvgBytes
                                : flow::kStateAllocBytes;
  return flow::kSessionKeyBytes + state;
}
/// Extra bytes reserved when a state-bearing entry caches pre-actions.
constexpr std::size_t kPreActionCacheBytes = flow::kPreActionsBytes;
/// FE flow-cache entry bytes (key + pre-actions, no state): the entry's
/// pre-actions are paid for at creation, never again on caching.
constexpr std::size_t kFeCacheEntryBytes =
    flow::kSessionKeyBytes + flow::kPreActionsBytes;

constexpr std::size_t kVnicIdWireSize = 8;

/// Encodes the vNIC id TLV directly into the carrier's inline arena.
void add_vnic_id_tlv(net::CarrierHeader& c, tables::VnicId id) {
  net::FixedWriter w(
      c.add_uninit(net::CarrierTlvType::kVnicId, kVnicIdWireSize));
  w.u64(id);
}

tables::VnicId decode_vnic_id(std::span<const std::uint8_t> bytes) {
  net::ByteReader r(bytes);
  return r.u64();
}

/// Session tables keep SessionTableConfig's default TTLs; capacity is
/// enforced by the vSwitch memory pools, not the table.
flow::SessionTableConfig table_shape(bool pre_actions, bool state) {
  flow::SessionTableConfig c;
  c.store_pre_actions = pre_actions;
  c.store_state = state;
  return c;
}

}  // namespace

VSwitch::VSwitch(sim::NodeId id, net::Ipv4Addr underlay_ip,
                 sim::EventLoop& loop, sim::Network& network,
                 const tables::VnicServerMap& gateway_map,
                 VSwitchConfig config)
    : Node(id, underlay_ip, net::MacAddr(0x020000000000ULL | id)),
      config_(config),
      loop_(loop),
      network_(network),
      cpu_(config.cpu),
      rule_pool_(config.rule_memory_bytes),
      session_pool_(config.session_memory_bytes),
      learned_map_(gateway_map, config.learning_interval),
      sessions_(table_shape(true, true)) {
  counters_.register_ids(kCounterNames);
}

// ---------------------------------------------------------------- vNICs

common::Status VSwitch::add_vnic(const VnicConfig& vnic_config,
                                 bool stateful_decap) {
  if (vnics_.contains(vnic_config.id)) {
    return common::make_error("vnic already exists");
  }
  Vnic v(vnic_config);
  v.set_stateful_decap(stateful_decap);
  const std::size_t bytes = v.rules()->memory_bytes();
  if (!rule_pool_.reserve(bytes)) {
    return common::make_error("rule memory exhausted (#vNICs limit)");
  }
  auto [it, inserted] = vnics_.emplace(vnic_config.id, std::move(v));
  dispatch_by_addr_[vnic_config.addr].vnic = &it->second;
  it->second.set_adapter(
      &adapters_[vnic_config.parent.value_or(vnic_config.id)]);
  return common::Status::ok_status();
}

void VSwitch::remove_vnic(tables::VnicId id) {
  auto it = vnics_.find(id);
  if (it == vnics_.end()) return;
  // Dual-running modes hold the local tables and the BE metadata at once.
  if (it->second.has_local_tables()) {
    rule_pool_.release(it->second.rules()->memory_bytes());
  }
  if (it->second.mode() != VnicMode::kLocal) {
    rule_pool_.release(kBackendMetadataBytes);
  }
  if (!it->second.config().parent) it->second.adapter()->sink = nullptr;
  if (auto dit = dispatch_by_addr_.find(it->second.addr());
      dit != dispatch_by_addr_.end()) {
    dit->second.vnic = nullptr;
    if (dit->second.fe == nullptr) dispatch_by_addr_.erase(dit);
  }
  vnics_.erase(it);
}

Vnic* VSwitch::vnic(tables::VnicId id) {
  auto it = vnics_.find(id);
  return it == vnics_.end() ? nullptr : &it->second;
}

const Vnic* VSwitch::find_vnic(tables::VnicId id) const {
  auto it = vnics_.find(id);
  return it == vnics_.end() ? nullptr : &it->second;
}

// ------------------------------------------------------------ frontends

common::Status VSwitch::install_frontend(const VnicConfig& vnic_config,
                                         const tables::RuleTableSet& rules,
                                         tables::Location be_location,
                                         bool stateful_decap) {
  if (frontends_.contains(vnic_config.id)) {
    // Re-installation refreshes config (e.g. new BE location after a VM
    // live migration, §7.2).
    frontends_.at(vnic_config.id).be_location = be_location;
    return common::Status::ok_status();
  }
  const std::size_t bytes = rules.memory_bytes();
  if (!rule_pool_.reserve(bytes)) {
    return common::make_error("FE rule memory exhausted");
  }
  FrontendInstance fe{vnic_config.id,
                      vnic_config.addr,
                      rules,  // full copy: every FE holds the whole table set
                      flow::SessionTable(table_shape(true, false)),
                      be_location,
                      stateful_decap};
  auto [it, inserted] = frontends_.emplace(vnic_config.id, std::move(fe));
  dispatch_by_addr_[vnic_config.addr].fe = &it->second;
  return common::Status::ok_status();
}

void VSwitch::remove_frontend(tables::VnicId id) {
  auto it = frontends_.find(id);
  if (it == frontends_.end()) return;
  rule_pool_.release(it->second.rules.memory_bytes());
  session_pool_.release(it->second.flow_cache.size() * kFeCacheEntryBytes);
  if (auto dit = dispatch_by_addr_.find(it->second.addr);
      dit != dispatch_by_addr_.end()) {
    dit->second.fe = nullptr;
    if (dit->second.vnic == nullptr) dispatch_by_addr_.erase(dit);
  }
  frontends_.erase(it);
}

FrontendInstance* VSwitch::frontend(tables::VnicId id) {
  auto it = frontends_.find(id);
  return it == frontends_.end() ? nullptr : &it->second;
}

// ------------------------------------------------------- BE transitions

common::Status VSwitch::begin_offload(tables::VnicId id,
                                      std::vector<tables::Location> fes) {
  Vnic* v = vnic(id);
  if (v == nullptr) return common::make_error("unknown vnic");
  if (v->mode() != VnicMode::kLocal) {
    return common::make_error("vnic not in local mode");
  }
  // BE metadata (FE locations + essential config) is pinned for the whole
  // offloaded lifetime (§6.2.1: ~2KB).
  if (!rule_pool_.reserve(kBackendMetadataBytes)) {
    return common::make_error("no memory for BE metadata");
  }
  v->set_fe_locations(std::move(fes));
  v->set_mode(VnicMode::kOffloadDualRunning);
  record_mode(id, VnicMode::kLocal, VnicMode::kOffloadDualRunning);
  return common::Status::ok_status();
}

void VSwitch::finalize_offload(tables::VnicId id) {
  Vnic* v = vnic(id);
  if (v == nullptr || v->mode() != VnicMode::kOffloadDualRunning) return;
  // Final stage (§4.2.1): delete the local rule tables and cached flows.
  rule_pool_.release(v->release_local_tables());
  invalidate_cached_flows(id);
  v->set_mode(VnicMode::kOffloaded);
  record_mode(id, VnicMode::kOffloadDualRunning, VnicMode::kOffloaded);
}

common::Status VSwitch::begin_fallback(tables::VnicId id) {
  Vnic* v = vnic(id);
  if (v == nullptr) return common::make_error("unknown vnic");
  if (v->mode() != VnicMode::kOffloaded) {
    return common::make_error("vnic not offloaded");
  }
  // Restore local tables first so the vSwitch can process packets that
  // arrive directly once senders re-learn the BE address.
  Vnic probe(v->config());
  const std::size_t bytes = probe.rules()->memory_bytes();
  if (!rule_pool_.reserve(bytes)) {
    return common::make_error("fallback would exceed local rule memory");
  }
  v->restore_local_tables();
  v->set_mode(VnicMode::kFallbackDualRunning);
  record_mode(id, VnicMode::kOffloaded, VnicMode::kFallbackDualRunning);
  return common::Status::ok_status();
}

void VSwitch::finalize_fallback(tables::VnicId id) {
  Vnic* v = vnic(id);
  if (v == nullptr || v->mode() != VnicMode::kFallbackDualRunning) return;
  v->set_fe_locations({});
  rule_pool_.release(kBackendMetadataBytes);
  v->set_mode(VnicMode::kLocal);
  record_mode(id, VnicMode::kFallbackDualRunning, VnicMode::kLocal);
}

void VSwitch::update_fe_locations(tables::VnicId id,
                                  std::vector<tables::Location> fes) {
  Vnic* v = vnic(id);
  if (v == nullptr) return;
  v->set_fe_locations(std::move(fes));
}

void VSwitch::pin_flow(tables::VnicId id, const net::FiveTuple& ft,
                       tables::Location fe) {
  const Vnic* v = vnic(id);
  if (v == nullptr) return;
  pinned_flows_[flow::SessionKey::from_packet(v->addr().vpc_id, ft)] = fe;
}

void VSwitch::unpin_flow(tables::VnicId id, const net::FiveTuple& ft) {
  const Vnic* v = vnic(id);
  if (v == nullptr) return;
  pinned_flows_.erase(flow::SessionKey::from_packet(v->addr().vpc_id, ft));
}

void VSwitch::invalidate_cached_flows(tables::VnicId id) {
  const Vnic* v = vnic(id);
  if (v == nullptr) return;
  const tables::OverlayAddr addr = v->addr();
  sessions_.for_each([&](const flow::SessionKey& key,
                         flow::SessionEntry& entry) {
    if (key.vpc_id != addr.vpc_id) return;
    if (key.canonical_ft.src_ip != addr.ip && key.canonical_ft.dst_ip != addr.ip) {
      return;
    }
    if (sessions_.pre_actions(entry) != nullptr) {
      sessions_.clear_pre_actions(entry);
      session_pool_.release(kPreActionCacheBytes);
    }
  });
}

// ------------------------------------------------------------- helpers

void VSwitch::set_telemetry(telemetry::Hub* hub) {
  telemetry_ = hub;
  if (hub != nullptr) {
    // Shared per-hop-class latency histograms (µs from packet creation to
    // VM delivery); idempotent across vSwitches — one fleet-wide series.
    lat_local_rx_us_ =
        hub->metrics().histogram("latency.local_rx_us", 0.0, 2000.0, 200);
    lat_be_rx_us_ =
        hub->metrics().histogram("latency.be_rx_us", 0.0, 2000.0, 200);
  }
}

void VSwitch::record_cpu(telemetry::EventKind kind, telemetry::Stage stage,
                         const net::Packet* pkt, double cycles,
                         common::TimePoint done) {
  if (telemetry_ == nullptr) return;
  telemetry::TraceEvent e;
  e.at = loop_.now();
  e.node = id();
  e.kind = kind;
  e.detail = static_cast<std::uint8_t>(stage);
  e.a = static_cast<std::uint64_t>(cycles);
  e.b = static_cast<std::uint64_t>(done);
  if (pkt != nullptr) {
    e.packet_id = pkt->id;
    e.flow = net::flow_hash(pkt->inner.ft.canonical(), 0);
  }
  telemetry_->record(e);
}

void VSwitch::record_mode(tables::VnicId vnic, VnicMode from, VnicMode to) {
  if (telemetry_ == nullptr) return;
  telemetry::TraceEvent e;
  e.at = loop_.now();
  e.node = id();
  e.kind = telemetry::EventKind::kVnicMode;
  e.detail = telemetry::pack_mode_transition(static_cast<std::uint8_t>(from),
                                             static_cast<std::uint8_t>(to));
  e.a = vnic;
  telemetry_->record(e);
}

bool VSwitch::charge(double cycles, telemetry::Stage stage,
                     const net::Packet* pkt, common::TimePoint* done) {
  if (stage == telemetry::Stage::kFeTx || stage == telemetry::Stage::kFeRx) {
    fe_cycles_ += cycles;
  } else if (stage != telemetry::Stage::kProbe) {
    local_cycles_ += cycles;
  }
  const CpuModel::Outcome out = cpu_.consume(cycles, loop_.now());
  if (!out.accepted) {
    inc(Ctr::kDropCpuOverload);
    record_cpu(telemetry::EventKind::kCpuReject, stage, pkt, cycles, 0);
    return false;
  }
  record_cpu(telemetry::EventKind::kCpuOpStart, stage, pkt, cycles, out.done);
  *done = out.done;
  return true;
}

void VSwitch::charge_noop(double cycles, telemetry::Stage stage) {
  common::TimePoint done = 0;
  if (charge(cycles, stage, nullptr, &done)) {
    loop_.schedule_raw_at(done, [](void*, std::uint64_t) {}, nullptr);
  }
}

void VSwitch::charge_op(double cycles, telemetry::Stage stage, net::Packet pkt,
                        const tables::Location& dst, VmAdapter* adapter,
                        tables::VnicId vid) {
  common::TimePoint done = 0;
  if (!charge(cycles, stage, &pkt, &done)) return;
  const std::uint32_t slot = alloc_op_slot();
  PendingOp& rec = op_slab_[slot];
  rec.pkt = std::move(pkt);
  rec.dst = dst;
  rec.adapter = adapter;
  rec.vid = vid;
  rec.stage = static_cast<std::uint8_t>(stage);
  schedule_op(slot, done);
}

void VSwitch::opq_push(std::uint32_t slot) {
  if (opq_count_ == op_queue_.size()) {
    // Grow and linearize (head back to index 0); capacity stays a power of
    // two so the index math below is a mask.
    std::vector<std::uint32_t> bigger(op_queue_.empty() ? 64
                                                        : op_queue_.size() * 2);
    for (std::size_t i = 0; i < opq_count_; ++i) {
      bigger[i] = op_queue_[(opq_head_ + i) & (op_queue_.size() - 1)];
    }
    op_queue_ = std::move(bigger);
    opq_head_ = 0;
  }
  op_queue_[(opq_head_ + opq_count_) & (op_queue_.size() - 1)] = slot;
  ++opq_count_;
}

void VSwitch::schedule_op(std::uint32_t slot, common::TimePoint done) {
  const common::Duration w = config_.cpu_burst_window;
  if (w == 0) {
    loop_.schedule_raw_at(done, &VSwitch::run_op_thunk, this, slot);
    return;
  }
  op_slab_[slot].done = done;
  opq_push(slot);
  if (!opq_drain_scheduled_) {
    opq_drain_scheduled_ = true;
    loop_.schedule_raw_at((done + w - 1) / w * w, &VSwitch::op_drain_thunk,
                          this, 0);
  }
}

void VSwitch::op_drain() {
  // opq_drain_scheduled_ stays true throughout: ops queued by re-entrant
  // datapath work (run_op → VM delivery → from_vm) join this queue and are
  // covered either by this loop or by the reschedule below, so exactly one
  // drain event is outstanding whenever the queue is non-empty.
  const common::TimePoint now = loop_.now();
  std::size_t budget = kCpuBurst;
  while (opq_count_ > 0 && budget > 0 && op_slab_[opq_front()].done <= now) {
    const std::uint32_t slot = opq_front();
    opq_head_ = (opq_head_ + 1) & (op_queue_.size() - 1);
    --opq_count_;
    --budget;
    run_op(slot);
  }
  if (opq_count_ == 0) {
    opq_drain_scheduled_ = false;
    return;
  }
  const common::Duration w = config_.cpu_burst_window;
  const common::TimePoint front_done = op_slab_[opq_front()].done;
  // Budget exhausted at this timestamp → continue now (later event seq);
  // otherwise sleep until the front op's window boundary.
  const common::TimePoint next =
      front_done <= now ? now : (front_done + w - 1) / w * w;
  loop_.schedule_raw_at(next, &VSwitch::op_drain_thunk, this, 0);
}

std::uint32_t VSwitch::alloc_op_slot() {
  if (op_free_.empty()) {
    op_slab_.emplace_back();
    // The free list never outgrows the slab, so matching its capacity makes
    // the completion-side push_back allocation-free.
    op_free_.reserve(op_slab_.capacity());
    return static_cast<std::uint32_t>(op_slab_.size() - 1);
  }
  const std::uint32_t slot = op_free_.back();
  op_free_.pop_back();
  return slot;
}

void VSwitch::run_op(std::uint32_t slot) {
  PendingOp& rec = op_slab_[slot];
  net::Packet pkt = std::move(rec.pkt);
  const tables::Location dst = rec.dst;
  VmAdapter* adapter = rec.adapter;
  const tables::VnicId vid = rec.vid;
  const auto stage = static_cast<telemetry::Stage>(rec.stage);
  // Free before acting: send_encapped / the VM sink may re-enter and
  // reuse this slot.
  op_free_.push_back(slot);
  record_cpu(telemetry::EventKind::kCpuOpFinish, stage, &pkt, 0, 0);
  if (adapter == nullptr) {
    send_encapped(std::move(pkt), dst);
    return;
  }
  ++vm_deliveries_;
  ++adapter->deliveries;
  if (telemetry_ != nullptr) {
    telemetry::TraceEvent e;
    e.at = loop_.now();
    e.node = id();
    e.kind = telemetry::EventKind::kVmDeliver;
    e.packet_id = pkt.id;
    e.flow = net::flow_hash(pkt.inner.ft.canonical(), 0);
    e.a = vid;
    telemetry_->record(e);
    // Per-hop-class latency: creation to VM delivery (workloads that stamp
    // created_at only; probes and synthetic packets carry 0).
    if (pkt.created_at > 0) {
      const double us = common::to_micros(loop_.now() - pkt.created_at);
      if (stage == telemetry::Stage::kLocalRx) {
        telemetry_->metrics().observe(lat_local_rx_us_, us);
      } else if (stage == telemetry::Stage::kBeRx) {
        telemetry_->metrics().observe(lat_be_rx_us_, us);
      }
    }
  }
  if (adapter->sink) adapter->sink(vid, pkt);
  else inc(Ctr::kDropNoVmSink);
}

flow::SessionEntry* VSwitch::get_or_create_session(
    const flow::SessionKey& key) {
  // Single index probe: the pool reservation runs as the creation gate
  // instead of between a separate find and a re-probing create.
  return sessions_.find_or_create_gated(
      key, loop_.now(),
      [](void* ctx) {
        auto* self = static_cast<VSwitch*>(ctx);
        if (!self->session_pool_.reserve(state_entry_bytes(self->config_))) {
          self->inc(Ctr::kDropSessionFull);
          return false;
        }
        return true;
      },
      this);
}

flow::SessionEntry* VSwitch::get_or_create_cache_entry(
    FrontendInstance& fe, const flow::SessionKey& key) {
  struct Ctx {
    VSwitch* self;
    FrontendInstance* fe;
  } ctx{this, &fe};
  return fe.flow_cache.find_or_create_gated(
      key, loop_.now(),
      [](void* c) {
        auto* self = static_cast<Ctx*>(c)->self;
        if (!self->session_pool_.reserve(kFeCacheEntryBytes)) {
          self->inc(Ctr::kDropFeCacheFull);
          return false;
        }
        return true;
      },
      &ctx);
}

const flow::PreActions& VSwitch::ensure_pre_actions(
    flow::SessionTable& table, flow::SessionEntry& entry,
    const tables::RuleTableSet& rules, const net::FiveTuple& tx_ft,
    double* cycles, flow::PreActions& fallback) {
  const flow::PreActions* cached = table.pre_actions(entry);
  if (cached != nullptr && cached->rule_version == rules.version()) {
    ++fast_hits_;
    *cycles += config_.cost.session_lookup_cycles;
    return *cached;
  }
  // Miss (first packet) or stale (rule tables updated): run the chain.
  ++slow_lookups_;
  if (telemetry_ != nullptr) {
    telemetry::TraceEvent e;
    e.at = loop_.now();
    e.node = id();
    e.kind = telemetry::EventKind::kTableMiss;
    e.flow = net::flow_hash(tx_ft.canonical(), 0);
    e.a = slow_lookups_;
    telemetry_->record(e);
  }
  *cycles += rules.lookup_cycles(config_.cost) +
             config_.cost.session_insert_cycles;
  // Flow-setup cache: identical PreActions to lookup(), one masked-key
  // probe in wall-clock terms. The full chain's simulated cycles are still
  // charged above — the cache models no hardware, it just makes the
  // simulator's connection-setup path cheap to execute.
  fallback = rules.lookup_cached(tx_ft);
  // A stale cache re-uses its reservation, and an FE-cache entry's charge
  // already covers its pre-actions.
  if (cached != nullptr || !table.config().store_state ||
      session_pool_.reserve(kPreActionCacheBytes)) {
    return table.set_pre_actions(entry, fallback);
  }
  inc(Ctr::kCacheInsertFail);
  return fallback;
}

std::optional<tables::Location> VSwitch::resolve_dst(
    const tables::OverlayAddr& addr, const net::FiveTuple& ft) {
  const tables::VnicServerMap::Entry* entry =
      learned_map_.resolve(addr, loop_.now());
  if (entry == nullptr || entry->placement.locations.empty()) {
    return std::nullopt;
  }
  const auto& locs = entry->placement.locations;
  if (locs.size() == 1) return locs[0];
  // Offloaded destination: the FE-selection policy picks across its FEs
  // (§3.2.3 5-tuple hashing under the default StaticHashPolicy).
  const net::FiveTuple hash_ft =
      config_.session_consistent_fe_hash ? ft.canonical() : ft;
  return policy::pick_location(*fe_policy_, hash_ft, locs, fe_hash_seed_,
                               *fe_weights_);
}

void VSwitch::send_encapped(net::Packet pkt, const tables::Location& dst) {
  pkt.encap(underlay_ip(), mac(), dst.ip, dst.mac);
  network_.send(id(), dst.ip, std::move(pkt));
}

void VSwitch::mirror_copy(const net::Packet& pkt,
                          const flow::DirPreAction& pre) {
  if (!pre.mirror || !pre.mirror_target.valid()) return;
  net::Packet copy = pkt;
  copy.overlay.reset();
  copy.carrier.reset();
  ++mirrored_;
  send_encapped(std::move(copy), tables::Location{pre.mirror_target.ip,
                                                  pre.mirror_target.mac});
}

void VSwitch::release_session_entry(const flow::SessionEntry& entry) {
  session_pool_.release(state_entry_bytes(config_));
  if (sessions_.pre_actions(entry) != nullptr) {
    session_pool_.release(kPreActionCacheBytes);
  }
}

void VSwitch::start_aging() {
  if (aging_started_) return;
  aging_started_ = true;
  loop_.schedule_periodic(config_.aging_period, [this]() {
    sessions_.age_out(loop_.now(),
                      [this](const flow::SessionKey&,
                             const flow::SessionEntry& e) {
                        release_session_entry(e);
                      });
    for (auto& [id, fe] : frontends_) {
      fe.flow_cache.age_out(loop_.now(),
                            [this](const flow::SessionKey&,
                                   const flow::SessionEntry&) {
                              session_pool_.release(kFeCacheEntryBytes);
                            });
    }
  });
}

// ------------------------------------------------------------- TX entry

void VSwitch::from_vm(tables::VnicId vnic_id, net::Packet pkt) {
  Vnic* v = vnic(vnic_id);
  if (v == nullptr) {
    inc(Ctr::kDropNoVnic);
    return;
  }
  // Stamp at the VM edge so the id covers every hop of the packet's life.
  if (telemetry_ != nullptr) telemetry_->stamp(pkt);
  pkt.vpc_id = v->addr().vpc_id;
  switch (v->mode()) {
    case VnicMode::kLocal:
    case VnicMode::kOffloadDualRunning:
    case VnicMode::kFallbackDualRunning:
      // Tables are local in all dual-running shapes: process locally.
      local_tx(*v, std::move(pkt));
      break;
    case VnicMode::kOffloaded:
      be_tx(*v, std::move(pkt));
      break;
  }
}

void VSwitch::local_tx(Vnic& v, net::Packet pkt) {
  // Key first: the index-cell prefetch overlaps the cost-model arithmetic
  // below (the TX-side analogue of the RX burst's two-step prefetch).
  const flow::SessionKey key =
      flow::SessionKey::from_packet(pkt.vpc_id, pkt.inner.ft);
  sessions_.prefetch_index(key);
  double cycles = config_.cost.parse_cycles +
                  config_.cost.per_byte_cycles *
                      static_cast<double>(pkt.inner.wire_size());
  flow::SessionEntry* entry = get_or_create_session(key);
  if (entry == nullptr) return;

  flow::PreActions scratch;
  const flow::PreActions& pre =
      ensure_pre_actions(sessions_, *entry, *v.rules(), pkt.inner.ft, &cycles,
                         scratch);

  sessions_.observe(*entry, flow::Direction::kTx, pkt.inner.tcp_flags,
                    pkt.inner.ft.proto == net::IpProto::kTcp,
                    pkt.inner.wire_size(), loop_.now());
  finish_tx(std::move(pkt), pre, entry->state, sessions_, entry, cycles,
            telemetry::Stage::kLocalTx);
}

void VSwitch::finish_tx(net::Packet&& pkt, const flow::PreActions& pre,
                        const flow::SessionState& state,
                        flow::SessionTable& table, flow::SessionEntry* entry,
                        double cycles, telemetry::Stage stage) {
  if (nf::finalize_action(flow::Direction::kTx, pre, state) ==
      flow::Verdict::kDrop) {
    inc(Ctr::kDropAcl);
    charge_noop(cycles, stage);
    return;
  }

  // QoS pre-action: VM/flow-level rate limiting enforced at the single
  // node that sees every packet of the flow (no distributed rate-limiting
  // coordination needed, §2.3.3).
  if (entry != nullptr &&
      !table.qos_admit(*entry, pre.tx.rate_limit_kbps, pkt.wire_size() * 8,
                       loop_.now())) {
    inc(Ctr::kDropQos);
    charge_noop(cycles, stage);
    return;
  }

  // Traffic mirroring: duplicate toward the collector before any rewrite.
  if (pre.tx.mirror) {
    cycles += config_.cost.mirror_cycles;
    mirror_copy(pkt, pre.tx);
  }

  // NAT rewrite recipe from the pre-actions.
  if (pre.tx.nat_enabled) {
    pkt.inner.ft.src_ip = pre.tx.nat_ip;
    pkt.inner.ft.src_port = pre.tx.nat_port;
  }

  cycles += config_.cost.encap_cycles;
  // Stateful decap (§5.2): responses return to the recorded LB address.
  std::optional<tables::Location> dst;
  if (state.decap_src_ip.value() != 0) {
    dst = tables::Location{state.decap_src_ip, net::MacAddr(0)};
  } else if (pre.tx.next_hop.valid()) {
    dst = tables::Location{pre.tx.next_hop.ip, pre.tx.next_hop.mac};
  } else {
    dst = resolve_dst(tables::OverlayAddr{pkt.vpc_id, pkt.inner.ft.dst_ip},
                      pkt.inner.ft);
  }
  if (!dst) {
    inc(Ctr::kDropNoRoute);
    charge_noop(cycles, stage);
    return;
  }
  pkt.decap();  // at an FE, strip the BE's overlay + carrier before re-encap
  charge_op(cycles, stage, std::move(pkt), *dst);
}

void VSwitch::be_tx(Vnic& v, net::Packet pkt) {
  if (v.fe_locations().empty()) {
    inc(Ctr::kDropNoFrontend);
    return;
  }
  double cycles = (config_.cost.parse_cycles +
                   config_.cost.state_update_cycles +
                   config_.cost.carrier_codec_cycles +
                   config_.cost.encap_cycles +
                   config_.cost.per_byte_cycles *
                       static_cast<double>(pkt.inner.wire_size())) *
                  config_.cost.be_hw_accel_factor;  // §7.3 BE acceleration
  const flow::SessionKey key =
      flow::SessionKey::from_packet(pkt.vpc_id, pkt.inner.ft);
  flow::SessionEntry* entry = get_or_create_session(key);
  if (entry == nullptr) return;

  // §5.1 TX workflow: query/initialize the state, then ship a snapshot of
  // it to the FE inside the packet.
  sessions_.observe(*entry, flow::Direction::kTx, pkt.inner.tcp_flags,
                    pkt.inner.ft.proto == net::IpProto::kTcp,
                    pkt.inner.wire_size(), loop_.now());

  net::CarrierHeader& carrier = pkt.carrier.emplace();
  add_vnic_id_tlv(carrier, v.id());
  entry->state.serialize_snapshot_into(
      carrier.add_uninit(net::CarrierTlvType::kStateSnapshot,
                         flow::SessionState::kSnapshotWireSize));

  // Flow-level (not packet-level) load balancing across FEs (§3.2.3),
  // unless the flow was pinned to a dedicated FE (§7.5 elephant isolation).
  const auto& fes = v.fe_locations();
  const net::FiveTuple hash_ft = config_.session_consistent_fe_hash
                                     ? pkt.inner.ft.canonical()
                                     : pkt.inner.ft;
  tables::Location fe = policy::pick_location(*fe_policy_, hash_ft, fes,
                                              fe_hash_seed_, *fe_weights_);
  if (auto pit = pinned_flows_.find(key); pit != pinned_flows_.end()) {
    fe = pit->second;
  }
  if (telemetry_ != nullptr) {
    telemetry::TraceEvent e;
    e.at = loop_.now();
    e.node = id();
    e.kind = telemetry::EventKind::kBeFeRedirect;
    e.packet_id = pkt.id;
    e.flow = net::flow_hash(pkt.inner.ft.canonical(), 0);
    e.a = fe.ip.value();
    telemetry_->record(e);
  }
  charge_op(cycles, telemetry::Stage::kBeTx, std::move(pkt), fe);
}

// ------------------------------------------------------------ RX entry

void VSwitch::receive(net::Packet pkt) {
  if (!pkt.overlay) {
    if (pkt.inner.ft.dst_port == kHealthProbePort) {
      health_probe_reply(pkt);
    } else if (pkt.inner.ft.dst_port == kLinkProbeReplyPort &&
               link_probe_reply_) {
      link_probe_reply_(pkt);
    } else {
      inc(Ctr::kDropUnroutable);
    }
    return;
  }
  if (pkt.overlay->dst_ip != underlay_ip()) {
    inc(Ctr::kDropMisdelivered);
    return;
  }

  if (pkt.carrier) {
    const auto vid = pkt.carrier->find(net::CarrierTlvType::kVnicId);
    if (!vid) {
      inc(Ctr::kDropBadCarrier);
      return;
    }
    const tables::VnicId vnic_id = decode_vnic_id(*vid);
    if (pkt.carrier->flags.is_notify) {
      if (vnic(vnic_id) != nullptr) be_notify(pkt);
      else inc(Ctr::kDropNoVnic);
      return;
    }
    if (pkt.carrier->has(net::CarrierTlvType::kStateSnapshot)) {
      if (FrontendInstance* fe = frontend(vnic_id)) fe_tx(*fe, std::move(pkt));
      else inc(Ctr::kDropNoFrontend);
      return;
    }
    if (pkt.carrier->has(net::CarrierTlvType::kPreActions)) {
      if (Vnic* v = vnic(vnic_id)) be_rx(*v, std::move(pkt));
      else inc(Ctr::kDropNoVnic);
      return;
    }
    inc(Ctr::kDropBadCarrier);
    return;
  }

  // Plain overlay data packet: one lookup resolves FE-vs-hosted-vNIC.
  const tables::OverlayAddr dst{pkt.vpc_id, pkt.inner.ft.dst_ip};
  const auto it = dispatch_by_addr_.find(dst);
  if (it == dispatch_by_addr_.end()) {
    inc(Ctr::kDropNoVnic);
    return;
  }
  if (it->second.fe != nullptr) {
    fe_rx(*it->second.fe, std::move(pkt));
    return;
  }
  if (Vnic* v = it->second.vnic; v != nullptr) {
    if (v->has_local_tables()) {
      // Local mode or a dual-running stage: retained tables serve senders
      // that have not learned the new placement yet (gray flow, Fig 7).
      local_rx(*v, std::move(pkt));
    } else {
      // Final offloaded stage: this packet followed a stale route; it can
      // no longer be processed here (§4.1) — rely on retransmission.
      inc(Ctr::kDropStaleRoute);
    }
    return;
  }
  inc(Ctr::kDropNoVnic);
}

void VSwitch::receive_burst(net::Packet* pkts, std::size_t n) {
  // Two-step software prefetch of the session-table probe path across the
  // burst: index cells first, then the keyed slots each cell points at,
  // then process. Wall-clock only — every packet still goes through the
  // same receive() in arrival order, so results are identical to per-packet
  // delivery. (FE-destined packets probe a per-frontend flow cache instead;
  // warming the unified store for them is merely a wasted prefetch.)
  std::uint64_t hashes[sim::Network::kRxBurst];
  const std::size_t m = n < sim::Network::kRxBurst ? n : sim::Network::kRxBurst;
  for (std::size_t i = 0; i < m; ++i) {
    hashes[i] = sessions_.prefetch_index(
        flow::SessionKey::from_packet(pkts[i].vpc_id, pkts[i].inner.ft));
  }
  for (std::size_t i = 0; i < m; ++i) sessions_.prefetch_entry(hashes[i]);
  for (std::size_t i = 0; i < n; ++i) receive(std::move(pkts[i]));
}

void VSwitch::local_rx(Vnic& v, net::Packet pkt) {
  double cycles = config_.cost.parse_cycles + config_.cost.decap_cycles +
                  config_.cost.per_byte_cycles *
                      static_cast<double>(pkt.inner.wire_size());
  const net::Ipv4Addr overlay_src = pkt.overlay->src_ip;
  pkt.decap();

  const flow::SessionKey key =
      flow::SessionKey::from_packet(pkt.vpc_id, pkt.inner.ft);
  flow::SessionEntry* entry = get_or_create_session(key);
  if (entry == nullptr) return;

  flow::PreActions scratch;
  // RX packets are oriented responder→initiator from the vNIC's viewpoint;
  // the rule chain is keyed by the TX-oriented tuple.
  const flow::PreActions& pre =
      ensure_pre_actions(sessions_, *entry, *v.rules(), pkt.inner.ft.reversed(),
                         &cycles, scratch);
  finish_rx(v, std::move(pkt), *entry, pre, overlay_src, cycles,
            telemetry::Stage::kLocalRx);
}

void VSwitch::finish_rx(Vnic& v, net::Packet&& pkt,
                        flow::SessionEntry& entry, const flow::PreActions& pre,
                        net::Ipv4Addr lb_src, double cycles,
                        telemetry::Stage stage) {
  sessions_.observe(entry, flow::Direction::kRx, pkt.inner.tcp_flags,
                    pkt.inner.ft.proto == net::IpProto::kTcp,
                    pkt.inner.wire_size(), loop_.now());
  entry.state.stats_mode = pre.rx.stats_mode;
  if (v.stateful_decap() && entry.state.decap_src_ip.value() == 0) {
    entry.state.decap_src_ip = lb_src;
  }

  if (nf::finalize_action(flow::Direction::kRx, pre, entry.state) ==
      flow::Verdict::kDrop) {
    inc(Ctr::kDropAcl);
    charge_noop(cycles, stage);
    return;
  }
  // Traffic mirroring for the RX direction, at the pre-action evaluation
  // point (locally here; at the FE when offloaded).
  if (stage == telemetry::Stage::kLocalRx && pre.rx.mirror) {
    cycles += config_.cost.mirror_cycles;
    mirror_copy(pkt, pre.rx);
  }
  charge_op(cycles, stage, std::move(pkt), {}, v.adapter(), v.id());
}

void VSwitch::be_rx(Vnic& v, net::Packet pkt) {
  double cycles = (config_.cost.parse_cycles + config_.cost.decap_cycles +
                   config_.cost.carrier_codec_cycles +
                   config_.cost.state_update_cycles +
                   config_.cost.per_byte_cycles *
                       static_cast<double>(pkt.inner.wire_size())) *
                  config_.cost.be_hw_accel_factor;  // §7.3 BE acceleration

  const auto pre_tlv = pkt.carrier->find(net::CarrierTlvType::kPreActions);
  auto pre = flow::PreActions::parse(*pre_tlv);
  if (!pre.ok()) {
    inc(Ctr::kDropBadCarrier);
    return;
  }
  net::Ipv4Addr lb_src;
  if (const auto tlv = pkt.carrier->find(net::CarrierTlvType::kDecapInfo)) {
    lb_src = net::Ipv4Addr(net::ByteReader(*tlv).u32());
  }
  pkt.decap();

  const flow::SessionKey key =
      flow::SessionKey::from_packet(pkt.vpc_id, pkt.inner.ft);
  flow::SessionEntry* entry = get_or_create_session(key);
  if (entry == nullptr) return;

  // §5.1 RX workflow: initialize/refresh state, adopt the rule-table-derived
  // state carried in the packet (§3.2.2: the FE does not verify, it informs).
  finish_rx(v, std::move(pkt), *entry, pre.value(), lb_src, cycles,
            telemetry::Stage::kBeRx);
}

void VSwitch::be_notify(const net::Packet& pkt) {
  double cycles = config_.cost.parse_cycles +
                  config_.cost.carrier_codec_cycles +
                  config_.cost.state_update_cycles;
  const auto notify = pkt.carrier->find(net::CarrierTlvType::kNotify);
  if (!notify || notify->empty()) {
    inc(Ctr::kDropBadCarrier);
    return;
  }
  const flow::SessionKey key =
      flow::SessionKey::from_packet(pkt.vpc_id, pkt.inner.ft);
  if (flow::SessionEntry* entry = sessions_.find(key)) {
    entry->state.stats_mode = static_cast<flow::StatsMode>(notify->front());
  }
  inc(Ctr::kNotifyReceived);
  charge_noop(cycles, telemetry::Stage::kBeNotify);
}

VSwitch::FeLookup VSwitch::fe_lookup(FrontendInstance& fe,
                                     const net::Packet& pkt,
                                     const net::FiveTuple& tx_ft,
                                     double* cycles,
                                     flow::PreActions& scratch) {
  flow::SessionEntry* entry = get_or_create_cache_entry(
      fe, flow::SessionKey::from_packet(pkt.vpc_id, pkt.inner.ft));
  if (entry == nullptr) {
    // Cache full: the chain runs for this packet alone.
    scratch = fe.rules.lookup_cached(tx_ft);
    *cycles += fe.rules.lookup_cycles(config_.cost);
    return {nullptr, scratch, true};
  }
  const std::uint64_t lookups_before = slow_lookups_;
  const flow::PreActions& pre = ensure_pre_actions(
      fe.flow_cache, *entry, fe.rules, tx_ft, cycles, scratch);
  const bool chain_ran = slow_lookups_ != lookups_before;
  if (!chain_ran) *cycles *= config_.cost.fe_cache_hit_accel_factor;
  return {entry, pre, chain_ran};
}

void VSwitch::fe_tx(FrontendInstance& fe, net::Packet pkt) {
  double cycles = config_.cost.parse_cycles + config_.cost.decap_cycles +
                  config_.cost.carrier_codec_cycles +
                  config_.cost.per_byte_cycles *
                      static_cast<double>(pkt.inner.wire_size());

  const auto snap_tlv = pkt.carrier->find(net::CarrierTlvType::kStateSnapshot);
  auto snapshot = flow::SessionState::parse_snapshot(*snap_tlv);
  if (!snapshot.ok()) {
    inc(Ctr::kDropBadCarrier);
    return;
  }
  flow::PreActions scratch;
  const FeLookup found = fe_lookup(fe, pkt, pkt.inner.ft, &cycles, scratch);

  // Notify the BE when the rule-table-derived state differs from what the
  // packet carried (§3.2.2) — only on chain executions, which are rare. The
  // notify is an op of its own, charged once.
  if (found.chain_ran &&
      found.pre.tx.stats_mode != snapshot.value().stats_mode) {
    net::Packet notify_pkt = pkt;  // same inner flow identity
    notify_pkt.inner.payload_len = 0;
    net::CarrierHeader& carrier = notify_pkt.carrier.emplace();
    carrier.flags.is_notify = true;
    add_vnic_id_tlv(carrier, fe.vnic);
    carrier.add(net::CarrierTlvType::kNotify,
                {static_cast<std::uint8_t>(found.pre.tx.stats_mode)});
    notify_pkt.overlay.reset();
    ++notify_sent_;
    charge_op(config_.cost.carrier_codec_cycles, telemetry::Stage::kFeTx,
              std::move(notify_pkt), fe.be_location);
  }

  // The FE executes the same finalization code as before Nezha, with the
  // state arriving in the packet instead of a local table (Fig 5).
  finish_tx(std::move(pkt), found.pre, snapshot.value(), fe.flow_cache,
            found.entry, cycles, telemetry::Stage::kFeTx);
}

void VSwitch::fe_rx(FrontendInstance& fe, net::Packet pkt) {
  double cycles = config_.cost.parse_cycles + config_.cost.decap_cycles +
                  config_.cost.carrier_codec_cycles +
                  config_.cost.encap_cycles +
                  config_.cost.per_byte_cycles *
                      static_cast<double>(pkt.inner.wire_size());

  // Capture information the BE will lose once we rewrite the outer header
  // (§3.2.2 "rule table not involved"): the overlay source IP.
  const net::Ipv4Addr overlay_src = pkt.overlay->src_ip;

  flow::PreActions scratch;
  const FeLookup found =
      fe_lookup(fe, pkt, pkt.inner.ft.reversed(), &cycles, scratch);

  // Traffic mirroring for the RX direction happens where the pre-actions
  // are evaluated: at the FE.
  if (found.pre.rx.mirror) {
    cycles += config_.cost.mirror_cycles;
    mirror_copy(pkt, found.pre.rx);
  }

  // Annotate the packet with the pre-actions and forward to the BE, which
  // holds the state needed for the final decision (blue flow, Fig 5).
  pkt.decap();
  net::CarrierHeader& carrier = pkt.carrier.emplace();
  carrier.flags.from_frontend = true;
  add_vnic_id_tlv(carrier, fe.vnic);
  found.pre.serialize_into(carrier.add_uninit(
      net::CarrierTlvType::kPreActions, flow::PreActions::kWireSize));
  if (fe.stateful_decap) {
    net::FixedWriter w(
        carrier.add_uninit(net::CarrierTlvType::kDecapInfo, 4));
    w.u32(overlay_src.value());
  }
  charge_op(cycles, telemetry::Stage::kFeRx, std::move(pkt), fe.be_location);
}

void VSwitch::health_probe_reply(const net::Packet& pkt) {
  // Flow-direct rule: probes bypass the normal pipeline (§4.4).
  constexpr double kCycles = 100.0;
  net::Packet reply = net::make_udp_packet(pkt.inner.ft.reversed(), 0, 0);
  reply.id = pkt.id;  // echo the probe id so the monitor can match it
  inc(Ctr::kProbeReplied);
  common::TimePoint done = 0;
  if (!charge(kCycles, telemetry::Stage::kProbe, nullptr, &done)) return;
  // The reply waits in an op slot and leaves at completion, outside the
  // burst-mode op queue (probe replies were never batched).
  const std::uint32_t slot = alloc_op_slot();
  op_slab_[slot].pkt = std::move(reply);
  loop_.schedule_raw_at(done, &VSwitch::send_probe_reply_thunk, this, slot);
}

void VSwitch::send_probe_reply(std::uint32_t slot) {
  net::Packet reply = std::move(op_slab_[slot].pkt);
  op_free_.push_back(slot);
  network_.send(id(), reply.inner.ft.dst_ip, std::move(reply));
}

}  // namespace nezha::vswitch
