#include "src/tables/rule_set.h"

namespace nezha::tables {

namespace {
constexpr std::uint64_t kSetupCacheSeed = 0x6e657a68612d6663ull;  // "nezha-fc"
}  // namespace

flow::PreActions RuleTableSet::lookup(const net::FiveTuple& tx_ft) const {
  std::uint8_t mask = 0;
  return chain_with_mask(tx_ft, mask);
}

flow::PreActions RuleTableSet::chain_with_mask(const net::FiveTuple& tx_ft,
                                               std::uint8_t& mask) const {
  flow::PreActions pre;
  pre.rule_version = version_;
  mask = 0;

  const net::FiveTuple rx_ft = tx_ft.reversed();

  // ACL: evaluated per direction (the classic stateful-ACL setup evaluates
  // "deny all inbound" only on RX).
  if (profile_.acl_enabled) {
    AclLookupProbe tx_probe, rx_probe;
    pre.tx.acl_verdict =
        acl_.lookup_probed(tx_ft, flow::Direction::kTx, tx_probe);
    pre.rx.acl_verdict =
        acl_.lookup_probed(rx_ft, flow::Direction::kRx, rx_probe);
    // Consulted ports, mapped onto the TX tuple's field space: the RX
    // tuple's src_port is the TX tuple's dst_port and vice versa.
    if (tx_probe.src_port || rx_probe.dst_port) mask |= kMaskSrcPort;
    if (tx_probe.dst_port || rx_probe.src_port) mask |= kMaskDstPort;
  }

  // QoS keyed by the remote peer (the TX destination).
  pre.tx.rate_limit_kbps = qos_.lookup(tx_ft.dst_ip);
  pre.rx.rate_limit_kbps = qos_.lookup(tx_ft.dst_ip);

  // Statistics policy applies to the session as a whole.
  const flow::StatsMode stats = stats_policy_.lookup(tx_ft.dst_ip);
  pre.tx.stats_mode = stats;
  pre.rx.stats_mode = stats;

  // NAT rewrites the TX direction (source NAT toward the destination).
  if (auto nat = nat_.lookup(tx_ft)) {
    pre.tx.nat_enabled = true;
    pre.tx.nat_ip = nat->ip;
    pre.tx.nat_port = nat->port;
    // The NAT endpoint is allocated from a hash of the full tuple; flows
    // differing only in ports get different endpoints, so a NAT hit pins
    // both ports into the key.
    mask |= kMaskSrcPort | kMaskDstPort;
  }

  // Policy routing can pre-pin the TX next hop; otherwise the vSwitch
  // resolves it via the learned vNIC-server map.
  if (auto hop = policy_routes_.lookup(tx_ft.dst_ip)) {
    pre.tx.next_hop = *hop;
  }

  // Traffic mirroring: copies of this flow's packets go to the collector.
  if (auto collector = mirrors_.lookup(tx_ft.dst_ip)) {
    pre.tx.mirror = pre.rx.mirror = true;
    pre.tx.mirror_target = pre.rx.mirror_target = *collector;
  }

  return pre;
}

flow::PreActions RuleTableSet::lookup_cached(
    const net::FiveTuple& tx_ft) const {
  const std::uint64_t epoch = setup_epoch();
  if (epoch != cache_epoch_) {
    // Some table mutated since the last lookup: drop every derived entry.
    cache_epoch_ = epoch;
    cache_masks_ = 0;
    cache_.clear();
    cache_index_.clear();
  }
  // Probe each key shape seen so far (4 at most; typically 1).
  for (std::uint8_t mask = 0; mask < 4; ++mask) {
    if ((cache_masks_ & (1u << mask)) == 0) continue;
    const net::FiveTuple key = masked_tuple(tx_ft, mask);
    const auto tag = static_cast<std::uint32_t>(
        net::flow_hash(key, kSetupCacheSeed ^ mask));
    if (const CacheCell* cell = cache_index_.find(tag, [&](const CacheCell& c) {
          return c.hash_tag == tag && cache_[c.entry].mask == mask &&
                 cache_[c.entry].key == key;
        })) {
      ++cache_hits_;
      return cache_[cell->entry].pre;
    }
  }
  ++cache_misses_;
  std::uint8_t mask = 0;
  const flow::PreActions pre = chain_with_mask(tx_ft, mask);
  const net::FiveTuple key = masked_tuple(tx_ft, mask);
  cache_index_.insert(CacheCell{
      static_cast<std::uint32_t>(net::flow_hash(key, kSetupCacheSeed ^ mask)),
      static_cast<std::uint32_t>(cache_.size())});
  cache_.push_back(CacheEntry{key, mask, pre});
  cache_masks_ |= static_cast<std::uint8_t>(1u << mask);
  return pre;
}

}  // namespace nezha::tables
