// ACL rule table: priority-ordered 5-tuple rules with prefix and port-range
// matching — the most expensive lookup in the slow-path chain (§2.2.2).
//
// Lookup is served from a tuple-space index: rules are partitioned by
// (protocol, direction) into eight candidate classes, with wildcard-proto /
// wildcard-direction rules replicated into every class they can match.
// Each class is pre-merged in (priority, insertion order) at build time, so
// a lookup scans one short, priority-sorted candidate list and exits on the
// first hit — no cross-bucket merge at query time. Candidates are compiled
// to packed (network, mask, port-bound) rows; the proto/direction tests are
// already paid for by class selection. The index rebuilds lazily on the
// first lookup after a mutation (rule churn is control-plane-rare, lookups
// are per-packet).
//
// Equal-priority ties resolve in insertion order (first added wins).
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "src/flow/direction.h"
#include "src/flow/pre_actions.h"
#include "src/net/five_tuple.h"
#include "src/tables/prefix.h"

namespace nezha::tables {

struct AclRule {
  std::uint32_t priority = 0;  // lower value wins
  Prefix src = Prefix::any();
  Prefix dst = Prefix::any();
  PortRange src_ports = PortRange::any();
  PortRange dst_ports = PortRange::any();
  std::optional<net::IpProto> proto;  // nullopt = any
  std::optional<flow::Direction> direction;  // nullopt = both directions
  flow::Verdict verdict = flow::Verdict::kAccept;
};

/// Which tuple fields a lookup actually consulted before its outcome was
/// decided (ports only — IPs, proto and direction are always considered
/// consulted). The setup cache uses this to derive the narrowest sound
/// cache key for a flow, OVS-megaflow style: a port test that was never
/// reached (an earlier prefix test already rejected the rule) or that is
/// universal ({0, 65535}) cannot influence the verdict of any tuple that
/// agrees on the consulted fields.
struct AclLookupProbe {
  bool src_port = false;
  bool dst_port = false;
};

class AclTable {
 public:
  /// Default verdict when no rule matches.
  explicit AclTable(flow::Verdict default_verdict = flow::Verdict::kAccept)
      : default_verdict_(default_verdict) {}

  void add_rule(AclRule rule);
  void clear();
  std::size_t rule_count() const { return rules_.size(); }

  /// Highest-priority matching verdict for a packet in `dir`.
  flow::Verdict lookup(const net::FiveTuple& ft, flow::Direction dir) const;

  /// Same verdict as lookup(), additionally accumulating into `probe` which
  /// port fields the scan consulted (see AclLookupProbe).
  flow::Verdict lookup_probed(const net::FiveTuple& ft, flow::Direction dir,
                              AclLookupProbe& probe) const;

  void set_default_verdict(flow::Verdict v) {
    default_verdict_ = v;
    ++mutations_;
  }

  /// Monotone count of mutating calls; any change invalidates derived
  /// caches (RuleTableSet's flow-setup cache) even without commit_update().
  std::uint64_t mutations() const { return mutations_; }

  /// Per-rule memory footprint (prefixes, ranges, metadata), for the
  /// slow-path memory model (#vNICs bottleneck, §2.2.2).
  static constexpr std::size_t kRuleBytes = 40;
  std::size_t memory_bytes() const { return rules_.size() * kRuleBytes; }

 private:
  /// A rule compiled for one candidate class: proto/direction are implied
  /// by the class, prefixes are pre-expanded to network+mask.
  struct Compiled {
    std::uint32_t src_net;
    std::uint32_t src_mask;
    std::uint32_t dst_net;
    std::uint32_t dst_mask;
    std::uint16_t sp_lo, sp_hi;
    std::uint16_t dp_lo, dp_hi;
    flow::Verdict verdict;
  };

  static constexpr std::size_t kNumClasses = 8;  // 4 proto bins × 2 dirs
  static std::size_t proto_bin(net::IpProto proto);
  static std::size_t class_of(net::IpProto proto, flow::Direction dir);

  void rebuild() const;

  std::vector<AclRule> rules_;  // insertion order; index built lazily
  flow::Verdict default_verdict_;
  std::uint64_t mutations_ = 0;
  mutable std::array<std::vector<Compiled>, kNumClasses> classes_;
  mutable bool dirty_ = false;
};

}  // namespace nezha::tables
