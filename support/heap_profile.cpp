// Heap profiler: replacements for the global allocation functions that
// attribute every live block to the call stack that allocated it.
//
// Each block carries a 16-B header with its size and a call-site id. A site
// is the hash of the return addresses backtrace() finds above operator new;
// the site table is static, so recording a block never allocates. Each time
// the total of live bytes passes the last snapshot by 1 MB, the live bytes
// and block counts of every site are copied into a snapshot, so the last
// snapshot lies within 1 MB of the process's peak. At exit every site that
// held bytes in the snapshot is written, largest first, as
//
//   peak_live_bytes N
//   site BYTES BLOCKS ADDR ADDR ...
//
// to the file named by NEZHA_HEAP_PROFILE (stderr when unset);
// tools/heap_profile.sh symbolizes the addresses. Link this object
// into one binary built for profiling and into nothing else.
#include <execinfo.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <new>

namespace {

constexpr int kDepth = 24;          // return addresses kept per site
constexpr int kSkip = 2;            // profiled_alloc and operator new
constexpr std::size_t kSites = 1 << 14;  // power of two
constexpr std::int64_t kSnapshotStep = 1 << 20;
constexpr std::size_t kHeader = 16;

struct Header {
  std::uint64_t size;
  std::uint32_t site;
  std::uint32_t offset;  // from the malloc'd base to the user pointer
};
static_assert(sizeof(Header) == kHeader);

struct Site {
  std::uint64_t hash;
  int depth;
  void* frames[kDepth];
  std::int64_t live_bytes;
  std::int64_t live_blocks;
  std::int64_t snap_bytes;
  std::int64_t snap_blocks;
};

// Site 0 collects blocks allocated while the hook itself was running
// (backtrace() may allocate on first use) and sites past a full table.
Site g_sites[kSites];
std::uint32_t g_used[kSites];  // indices of sites in use, in first-use order
std::size_t g_used_count = 0;
std::int64_t g_live = 0;
std::int64_t g_snap_live = 0;
std::mutex g_mu;  // guards everything above
thread_local bool t_in_hook = false;

std::uint32_t site_of(void* const* frames, int depth) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (int i = 0; i < depth; ++i) {
    h = (h ^ reinterpret_cast<std::uintptr_t>(frames[i])) * 0x100000001b3ull;
  }
  if (h == 0) h = 1;
  for (std::size_t i = h & (kSites - 1), probes = 0; probes < kSites;
       i = (i + 1) & (kSites - 1), ++probes) {
    if (i == 0) continue;
    Site& s = g_sites[i];
    if (s.hash == h) return static_cast<std::uint32_t>(i);
    if (s.hash == 0) {
      s.hash = h;
      s.depth = depth;
      std::copy(frames, frames + depth, s.frames);
      g_used[g_used_count++] = static_cast<std::uint32_t>(i);
      return static_cast<std::uint32_t>(i);
    }
  }
  return 0;
}

void snapshot() {
  for (std::size_t u = 0; u < g_used_count; ++u) {
    Site& s = g_sites[g_used[u]];
    s.snap_bytes = s.live_bytes;
    s.snap_blocks = s.live_blocks;
  }
  g_sites[0].snap_bytes = g_sites[0].live_bytes;
  g_sites[0].snap_blocks = g_sites[0].live_blocks;
  g_snap_live = g_live;
}

[[gnu::noinline]] void* profiled_alloc(std::size_t size, std::size_t align) {
  const std::size_t offset = align > kHeader ? align : kHeader;
  void* base = align > kHeader
                   ? std::aligned_alloc(align, (offset + size + align - 1) /
                                                   align * align)
                   : std::malloc(offset + size);
  if (base == nullptr) return nullptr;
  void* frames[kDepth + kSkip];
  int depth = 0;
  const bool reentered = t_in_hook;
  if (!reentered) {
    t_in_hook = true;
    depth = backtrace(frames, kDepth + kSkip);
    t_in_hook = false;
  }
  const int skip = depth > kSkip ? kSkip : depth;
  std::uint32_t site = 0;
  {
    std::lock_guard<std::mutex> lock(g_mu);
    if (!reentered) site = site_of(frames + skip, depth - skip);
    g_sites[site].live_bytes += static_cast<std::int64_t>(size);
    ++g_sites[site].live_blocks;
    g_live += static_cast<std::int64_t>(size);
    if (g_live >= g_snap_live + kSnapshotStep) snapshot();
  }
  auto* user = static_cast<unsigned char*>(base) + offset;
  auto* h = reinterpret_cast<Header*>(user - kHeader);
  h->size = size;
  h->site = site;
  h->offset = static_cast<std::uint32_t>(offset);
  return user;
}

void profiled_free(void* p) {
  if (p == nullptr) return;
  auto* user = static_cast<unsigned char*>(p);
  const Header* h = reinterpret_cast<const Header*>(user - kHeader);
  {
    std::lock_guard<std::mutex> lock(g_mu);
    g_sites[h->site].live_bytes -= static_cast<std::int64_t>(h->size);
    --g_sites[h->site].live_blocks;
    g_live -= static_cast<std::int64_t>(h->size);
  }
  std::free(user - h->offset);
}

void* checked(void* p) {
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

// Writes the report when the process exits normally.
struct Reporter {
  Reporter() = default;
  Reporter(const Reporter&) = delete;
  Reporter& operator=(const Reporter&) = delete;
  ~Reporter() {
    std::lock_guard<std::mutex> lock(g_mu);
    const char* path = std::getenv("NEZHA_HEAP_PROFILE");
    std::FILE* out = path != nullptr ? std::fopen(path, "w") : stderr;
    if (out == nullptr) return;
    std::uint32_t order[kSites];
    std::size_t n = 0;
    order[n++] = 0;
    for (std::size_t u = 0; u < g_used_count; ++u) order[n++] = g_used[u];
    std::sort(order, order + n, [](std::uint32_t a, std::uint32_t b) {
      return g_sites[a].snap_bytes > g_sites[b].snap_bytes;
    });
    std::fprintf(out, "peak_live_bytes %lld\n",
                 static_cast<long long>(g_snap_live));
    for (std::size_t i = 0; i < n; ++i) {
      const Site& s = g_sites[order[i]];
      if (s.snap_bytes <= 0) break;
      std::fprintf(out, "site %lld %lld", static_cast<long long>(s.snap_bytes),
                   static_cast<long long>(s.snap_blocks));
      for (int f = 0; f < s.depth; ++f) std::fprintf(out, " %p", s.frames[f]);
      std::fprintf(out, "\n");
    }
    if (out != stderr) std::fclose(out);
  }
};
Reporter g_reporter;

}  // namespace

void* operator new(std::size_t size) { return checked(profiled_alloc(size, 0)); }
void* operator new[](std::size_t size) {
  return checked(profiled_alloc(size, 0));
}
void* operator new(std::size_t size, std::align_val_t align) {
  return checked(profiled_alloc(size, static_cast<std::size_t>(align)));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return checked(profiled_alloc(size, static_cast<std::size_t>(align)));
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return profiled_alloc(size, 0);
}
void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return profiled_alloc(size, 0);
}
void operator delete(void* p) noexcept { profiled_free(p); }
void operator delete[](void* p) noexcept { profiled_free(p); }
void operator delete(void* p, std::size_t) noexcept { profiled_free(p); }
void operator delete[](void* p, std::size_t) noexcept { profiled_free(p); }
void operator delete(void* p, std::align_val_t) noexcept { profiled_free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { profiled_free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  profiled_free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  profiled_free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept {
  profiled_free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  profiled_free(p);
}
