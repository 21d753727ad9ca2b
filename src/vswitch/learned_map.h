// On-demand learned view of the gateway's vNIC-server table (§4.2.1).
//
// The global table is too large to push everywhere, so each vSwitch learns
// entries on demand and refreshes them at the learning interval (200ms in
// the paper). A sender can therefore use a stale placement for up to one
// interval after an offload/fallback/migration re-points a vNIC — the
// window Nezha's dual-running stage covers.
#pragma once

#include <cstdint>
#include <unordered_map>

#include "src/common/time.h"
#include "src/tables/vnic_server_map.h"

namespace nezha::vswitch {

class LearnedVnicMap {
 public:
  LearnedVnicMap(const tables::VnicServerMap& gateway,
                 common::Duration learning_interval)
      : gateway_(gateway), interval_(learning_interval) {}

  /// Resolves a vNIC placement. Returns the cached entry while it is fresh
  /// (< learning interval old) even if the gateway has newer data — that is
  /// the point: staleness is bounded, not zero. Returns nullptr when the
  /// gateway itself has no entry.
  const tables::VnicServerMap::Entry* resolve(const tables::OverlayAddr& addr,
                                              common::TimePoint now);

  /// Drops the cached entry so the next resolve re-learns immediately.
  void invalidate(const tables::OverlayAddr& addr);

 private:
  struct Learned {
    tables::VnicServerMap::Entry entry;
    common::TimePoint learned_at = 0;
  };

  const tables::VnicServerMap& gateway_;
  common::Duration interval_;
  std::unordered_map<tables::OverlayAddr, Learned, tables::OverlayAddrHash>
      cache_;
};

}  // namespace nezha::vswitch
