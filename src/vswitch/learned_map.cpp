#include "src/vswitch/learned_map.h"

namespace nezha::vswitch {

const tables::VnicServerMap::Entry* LearnedVnicMap::resolve(
    const tables::OverlayAddr& addr, common::TimePoint now) {
  auto it = cache_.find(addr);
  if (it != cache_.end() && now - it->second.learned_at < interval_) {
    return &it->second.entry;
  }
  const tables::VnicServerMap::Entry* fresh = gateway_.lookup(addr);
  if (fresh == nullptr) {
    cache_.erase(addr);
    return nullptr;
  }
  auto& learned = cache_[addr];
  learned.entry = *fresh;
  learned.learned_at = now;
  return &learned.entry;
}

void LearnedVnicMap::invalidate(const tables::OverlayAddr& addr) {
  cache_.erase(addr);
}

}  // namespace nezha::vswitch
