#include "src/tables/rule_set.h"

#include <algorithm>

namespace nezha::tables {

namespace {
constexpr std::size_t kSetupCacheInitial = 4;  // power of two
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

const RuleTableSet::CacheEntry* RuleTableSet::cache_find(
    const net::FiveTuple& masked, std::uint8_t mask, std::uint64_t h) const {
  const std::size_t m = cache_.size() - 1;
  for (std::size_t i = h & m;; i = (i + 1) & m) {
    const CacheEntry& e = cache_[i];
    if (!e.used) return nullptr;
    if (e.hash == h && e.mask == mask && e.key == masked) return &e;
  }
}

void RuleTableSet::cache_insert(const net::FiveTuple& masked,
                                std::uint8_t mask, std::uint64_t h,
                                const flow::PreActions& pre) const {
  // Grow at 1/2 load so probe chains stay short.
  if (cache_.empty()) {
    cache_.assign(kSetupCacheInitial, CacheEntry{});
  } else if ((cache_used_ + 1) * 2 > cache_.size()) {
    std::vector<CacheEntry> old;
    old.swap(cache_);
    cache_.assign(old.size() * 2, CacheEntry{});
    const std::size_t m = cache_.size() - 1;
    for (CacheEntry& e : old) {
      if (!e.used) continue;
      std::size_t i = e.hash & m;
      while (cache_[i].used) i = (i + 1) & m;
      cache_[i] = std::move(e);
    }
  }
  const std::size_t m = cache_.size() - 1;
  std::size_t i = h & m;
  while (cache_[i].used) i = (i + 1) & m;
  CacheEntry& e = cache_[i];
  e.key = masked;
  e.pre = pre;
  e.hash = h;
  e.mask = mask;
  e.used = true;
  ++cache_used_;
  cache_masks_ |= static_cast<std::uint8_t>(1u << mask);
}

flow::PreActions RuleTableSet::lookup_cached(
    const net::FiveTuple& tx_ft) const {
  const std::uint64_t epoch = setup_epoch();
  if (epoch != cache_epoch_) {
    // Some table mutated since the last lookup: drop every derived entry.
    cache_epoch_ = epoch;
    cache_masks_ = 0;
    cache_used_ = 0;
    if (!cache_.empty()) {
      std::fill(cache_.begin(), cache_.end(), CacheEntry{});
    }
  }
  // Probe each key shape seen so far (4 at most; typically 1).
  for (std::uint8_t mask = 0; mask < 4; ++mask) {
    if ((cache_masks_ & (1u << mask)) == 0) continue;
    const net::FiveTuple key = masked_tuple(tx_ft, mask);
    const std::uint64_t h = net::flow_hash(key, kSetupCacheSeed ^ mask);
    if (const CacheEntry* e = cache_find(key, mask, h)) {
      ++cache_hits_;
      return e->pre;
    }
  }
  ++cache_misses_;
  std::uint8_t mask = 0;
  const flow::PreActions pre = chain_with_mask(tx_ft, mask);
  const net::FiveTuple key = masked_tuple(tx_ft, mask);
  cache_insert(key, mask, net::flow_hash(key, kSetupCacheSeed ^ mask), pre);
  return pre;
}

}  // namespace nezha::tables
