// Interned datapath counter ids. The vSwitch registers kCounterNames with
// its common::Counter once at construction; datapath increments are then a
// plain array increment (no string hashing or comparison per packet).
// By-name reads (counters().get("drop.acl")) resolve against this table.
#pragma once

#include <array>
#include <cstddef>
#include <string_view>

namespace nezha::vswitch {

enum class Ctr : std::size_t {
  kDropCpuOverload = 0,
  kDropSessionFull,
  kDropFeCacheFull,
  kCacheInsertFail,
  kDropNoVnic,
  kDropAcl,
  kDropQos,
  kDropNoRoute,
  kDropNoFrontend,
  kDropUnroutable,
  kDropMisdelivered,
  kDropBadCarrier,
  kDropStaleRoute,
  kDropNoVmSink,
  kNotifyReceived,
  kProbeReplied,
  kCount,
};

inline constexpr std::array<std::string_view,
                            static_cast<std::size_t>(Ctr::kCount)>
    kCounterNames = {
        "drop.cpu_overload", "drop.session_full", "drop.fe_cache_full",
        "cache_insert_fail", "drop.no_vnic",      "drop.acl",
        "drop.qos",          "drop.no_route",     "drop.no_frontend",
        "drop.unroutable",   "drop.misdelivered", "drop.bad_carrier",
        "drop.stale_route",  "drop.no_vm_sink",   "notify_received",
        "probe_replied",
};

}  // namespace nezha::vswitch
