// The remaining slow-path tables: QoS/metering, NAT, flow-statistics policy
// and policy-based routing. Each is a prefix-match table with a default,
// producing one field of the DirPreAction.
#pragma once

#include <cstdint>
#include <optional>

#include "src/flow/pre_actions.h"
#include "src/net/five_tuple.h"
#include "src/tables/lpm.h"
#include "src/tables/prefix.h"

namespace nezha::tables {

/// QoS / metering policy: committed rate per destination prefix.
class QosTable {
 public:
  void set_default_rate_kbps(std::uint32_t kbps) {
    default_kbps_ = kbps;
    ++mutations_;
  }
  void add_rate(Prefix dst, std::uint32_t kbps) {
    rates_.insert(dst, kbps);
    ++mutations_;
  }
  void clear() {
    rates_.clear();
    ++mutations_;
  }
  std::uint64_t mutations() const { return mutations_; }

  std::uint32_t lookup(net::Ipv4Addr dst) const {
    const std::uint32_t* v = rates_.lookup(dst);
    return v != nullptr ? *v : default_kbps_;
  }

  std::size_t memory_bytes() const { return rates_.memory_bytes(); }

 private:
  LpmTable<std::uint32_t> rates_;
  std::uint32_t default_kbps_ = 0;  // 0 = unlimited
  std::uint64_t mutations_ = 0;
};

/// NAT policy: flows to a matching destination prefix get source-NATed to a
/// deterministic address/port drawn from the pool.
class NatTable {
 public:
  struct Pool {
    net::Ipv4Addr base_ip;
    std::uint16_t base_port = 1024;
    std::uint32_t ip_count = 1;
    std::uint16_t ports_per_ip = 60000;
  };

  void add_pool(Prefix dst, Pool pool) {
    pools_.insert(dst, pool);
    ++mutations_;
  }
  std::uint64_t mutations() const { return mutations_; }

  struct NatResult {
    net::Ipv4Addr ip;
    std::uint16_t port;
  };

  /// Deterministic allocation from the pool keyed by the flow hash, so the
  /// same flow always maps to the same external endpoint.
  std::optional<NatResult> lookup(const net::FiveTuple& ft) const;

  std::size_t memory_bytes() const { return pools_.memory_bytes(); }

 private:
  LpmTable<Pool> pools_;
  std::uint64_t mutations_ = 0;
};

/// Flow-statistics policy (what to count per flow). This is the canonical
/// "rule-table-involved state" of §3.2.2: the result must reach the BE's
/// session state, via notify packets on the TX path.
class StatsPolicyTable {
 public:
  void add_policy(Prefix dst, flow::StatsMode mode) {
    policies_.insert(dst, mode);
    ++version_;
  }
  void clear() {
    policies_.clear();
    ++version_;
  }

  flow::StatsMode lookup(net::Ipv4Addr dst) const {
    const flow::StatsMode* v = policies_.lookup(dst);
    return v != nullptr ? *v : flow::StatsMode::kNone;
  }

  /// Bumped on every policy change so notify logic can detect divergence.
  std::uint32_t version() const { return version_; }

  std::size_t memory_bytes() const { return policies_.memory_bytes(); }

 private:
  LpmTable<flow::StatsMode> policies_;
  std::uint32_t version_ = 0;
};

/// Traffic-mirroring policy: flows to a matching destination prefix have
/// copies of their packets sent to a collector (an advanced feature that
/// lengthens the lookup chain, §2.2.2).
class MirrorTable {
 public:
  void add_mirror(Prefix dst, flow::NextHop collector) {
    collectors_.insert(dst, collector);
    ++mutations_;
  }
  std::uint64_t mutations() const { return mutations_; }

  std::optional<flow::NextHop> lookup(net::Ipv4Addr dst) const {
    const flow::NextHop* v = collectors_.lookup(dst);
    return v != nullptr ? std::optional(*v) : std::nullopt;
  }

  std::size_t memory_bytes() const { return collectors_.memory_bytes(); }

 private:
  LpmTable<flow::NextHop> collectors_;
  std::uint64_t mutations_ = 0;
};

/// Policy-based routing: destination-prefix overrides of the next hop.
class PolicyRouteTable {
 public:
  void add_override(Prefix dst, flow::NextHop hop) {
    hops_.insert(dst, hop);
    ++mutations_;
  }
  std::uint64_t mutations() const { return mutations_; }

  std::optional<flow::NextHop> lookup(net::Ipv4Addr dst) const {
    const flow::NextHop* v = hops_.lookup(dst);
    return v != nullptr ? std::optional(*v) : std::nullopt;
  }

  std::size_t memory_bytes() const { return hops_.memory_bytes(); }

 private:
  LpmTable<flow::NextHop> hops_;
  std::uint64_t mutations_ = 0;
};

}  // namespace nezha::tables
