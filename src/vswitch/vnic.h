// vNIC: a tenant network interface hosted by a vSwitch, with its own rule
// tables for isolation (§2.1). Under Nezha a vNIC progresses through offload
// modes: local → dual-running → offloaded (BE), and back via fallback.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "src/common/time.h"
#include "src/tables/rule_set.h"
#include "src/tables/vnic_server_map.h"

namespace nezha::vswitch {

struct VmAdapter;  // vswitch.h

/// Offload lifecycle of a vNIC on its home (BE) vSwitch.
enum class VnicMode : std::uint8_t {
  /// All processing local; rule tables and cached flows on this vSwitch.
  kLocal = 0,
  /// Offload dual-running stage (§4.2.1): FEs are live, but local tables
  /// are retained until every sender has learned the new placement.
  kOffloadDualRunning = 1,
  /// Final stage: stateless tables live only on the FEs; this vSwitch keeps
  /// just the states and the FE location config (it is a pure BE).
  kOffloaded = 2,
  /// Fallback dual-running stage (§4.2.2): local tables restored, FEs still
  /// serve until senders learn the BE address again.
  kFallbackDualRunning = 3,
};

std::string to_string(VnicMode mode);

/// Fixed per-vNIC BE metadata retained locally after offload: FE locations
/// plus essential config (§6.2.1 measures this at ~2KB, the denominator of
/// the theoretical 1000x #vNIC gain).
inline constexpr std::size_t kBackendMetadataBytes = 2 * 1024;

struct VnicConfig {
  tables::VnicId id = 0;
  tables::OverlayAddr addr;                 // tenant-facing identity
  tables::RuleSetProfile profile;           // slow-path shape
  /// Child vNIC support (§7.4): children share the parent's I/O adapter and
  /// are demultiplexed by tag; they still own full rule tables.
  std::optional<tables::VnicId> parent;
  std::uint16_t vlan_tag = 0;
};

class Vnic {
 public:
  explicit Vnic(VnicConfig config)
      : config_(config),
        rules_(std::make_unique<tables::RuleTableSet>(config.profile)) {}

  tables::VnicId id() const { return config_.id; }
  const tables::OverlayAddr& addr() const { return config_.addr; }
  const VnicConfig& config() const { return config_; }

  VnicMode mode() const { return mode_; }
  void set_mode(VnicMode mode) { mode_ = mode; }
  bool has_local_tables() const { return rules_ != nullptr; }

  /// Stateful decap (§5.2): record the overlay source of the first RX
  /// packet so TX responses return to the LB. Kept here (not in a vSwitch
  /// side map) so the datapath reads it with the vNIC it already holds.
  bool stateful_decap() const { return stateful_decap_; }
  void set_stateful_decap(bool on) { stateful_decap_ = on; }

  /// Rule tables; null once the vNIC reaches the offloaded final stage.
  tables::RuleTableSet* rules() { return rules_.get(); }

  /// Drops the local tables (offload final stage); returns bytes released.
  std::size_t release_local_tables() {
    const std::size_t bytes = rules_ ? rules_->memory_bytes() : 0;
    rules_.reset();
    return bytes;
  }

  /// Restores local tables (fallback); returns bytes now consumed.
  std::size_t restore_local_tables() {
    if (!rules_) rules_ = std::make_unique<tables::RuleTableSet>(config_.profile);
    return rules_->memory_bytes();
  }

  // --- Nezha BE configuration ---
  const std::vector<tables::Location>& fe_locations() const {
    return fe_locations_;
  }
  void set_fe_locations(std::vector<tables::Location> locations) {
    fe_locations_ = std::move(locations);
  }

  /// This vNIC's VM adapter (its parent's for a §7.4 child), resolved once
  /// by the hosting vSwitch (the adapter map's nodes are stable) so the
  /// per-packet delivery path does not hash the adapter id.
  VmAdapter* adapter() const { return adapter_; }
  void set_adapter(VmAdapter* adapter) { adapter_ = adapter; }

 private:
  VnicConfig config_;
  VnicMode mode_ = VnicMode::kLocal;
  bool stateful_decap_ = false;
  std::unique_ptr<tables::RuleTableSet> rules_;
  std::vector<tables::Location> fe_locations_;
  VmAdapter* adapter_ = nullptr;
};

}  // namespace nezha::vswitch
