#!/usr/bin/env bash
# Heap profile of one perfbench repetition: which call sites hold the live
# heap when it peaks.
#
# Usage: tools/heap_profile.sh BUILD_DIR WORKLOAD SEED
#
# Builds perfbench/perfbench.cpp, unchanged, in its own CMake project under
# BUILD_DIR with support/heap_profile.cpp linked in (RelWithDebInfo,
# -fno-omit-frame-pointer, -no-pie, so return addresses symbolize against
# the executable, and -fno-ipa-icf, so no two template instantiations share
# one body and one name). Runs one repetition of WORKLOAD at SEED on one thread
# and prints, as Markdown tables, the 15 call sites holding the most live
# bytes at the heap's peak (bytes, blocks, bytes per block and the first
# nezha:: frames, from addr2line -f -C -i), then the peak's live bytes by
# structure: the session tables' slab (nodes and side storage), index,
# aging wheel and pre-action pool, and everything else. The last line
# gives the peak live heap next to the repetition's peak_rss_mb, which
# includes the profiler's 16-B header on every block.
set -euo pipefail

if [ $# -ne 3 ]; then
  echo "usage: $0 BUILD_DIR WORKLOAD SEED" >&2
  exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
out=$(mkdir -p "$1" && cd "$1" && pwd)
workload=$2
seed=$3
jobs=$(nproc 2>/dev/null || echo 2)

mkdir -p "$out/project"
cat >"$out/project/CMakeLists.txt" <<CMAKE
cmake_minimum_required(VERSION 3.16)
project(nezha_heap_profile CXX)
set(CMAKE_CXX_STANDARD 20)
set(CMAKE_CXX_STANDARD_REQUIRED ON)
set(CMAKE_CXX_EXTENSIONS OFF)
add_subdirectory($root/src nezha_src)
add_executable(nezha_perfbench_heap $root/perfbench/perfbench.cpp
               $root/support/heap_profile.cpp)
target_link_libraries(nezha_perfbench_heap PRIVATE nezha)
target_compile_definitions(nezha_perfbench_heap PRIVATE PERFBENCH_TRACED=0)
CMAKE
if ! {
  cmake -S "$out/project" -B "$out/build" -DCMAKE_BUILD_TYPE=RelWithDebInfo \
    -DCMAKE_CXX_FLAGS="-fno-omit-frame-pointer -fno-pie -fno-ipa-icf" \
    -DCMAKE_EXE_LINKER_FLAGS=-no-pie &&
    cmake --build "$out/build" -j "$jobs"
} >"$out/build.log" 2>&1; then
  cat "$out/build.log" >&2
  exit 2
fi

bin="$out/build/nezha_perfbench_heap"
profile="$out/profile_${workload}_${seed}.txt"
NEZHA_HEAP_PROFILE="$profile" "$bin" --workload "$workload" --seed "$seed" \
  --threads 1 >"$out/rep_${workload}_${seed}.json"

echo "### Heap at its peak: $workload, seed $seed"
echo
echo "| live MB | blocks | bytes each | first nezha:: frames |"
echo "|---:|---:|---:|---|"
grep '^site ' "$profile" | head -n 15 | while read -r _ bytes blocks addrs; do
  # A return address points past its call; step back into the call.
  pcs=$(for a in $addrs; do printf '0x%x ' $((a - 1)); done)
  # shellcheck disable=SC2086
  frames=$(addr2line -f -C -i -e "$bin" $pcs | paste - - | cut -f1 |
    grep '^nezha::' | sed -E 's/\(anonymous namespace\)/(anon)/g; s/\(.*//' |
    awk '!seen[$0]++' | head -n 3 | paste -sd';' | sed 's/;/ ← /g')
  awk -v b="$bytes" -v n="$blocks" -v f="${frames:-(no nezha:: frame)}" \
    'BEGIN { printf "| %.1f | %d | %.0f | `%s` |\n", b / 1048576, n, b / n, f }'
done
echo

# By structure: every site's frames, symbolized in one addr2line pass
# (-a starts each address's group, and groups come back in input order).
# A site's structure comes from its frames from operator new's caller
# outward, up to the first nezha:: frame outside flow::SessionTable and
# the common::FlatTable it indexes with: the element types of the
# containers they grow and the table members they run in.
grep '^site ' "$profile" >"$out/sites_${workload}_${seed}.txt"
awk '{ for (i = 4; i <= NF; ++i) print $i }' "$out/sites_${workload}_${seed}.txt" |
  while read -r a; do printf '0x%x\n' $((a - 1)); done |
  addr2line -a -f -C -i -e "$bin" >"$out/frames_${workload}_${seed}.txt"
echo "### Live heap at its peak by structure: $workload, seed $seed"
echo
echo "| structure | live MB | blocks |"
echo "|---|---:|---:|"
awk '
  FNR == NR {
    if ($0 ~ /^0x[0-9a-f]+$/) { ++g; k = 0; next }
    if (k++ % 2 == 0) fn[g, ++nf[g]] = $0
    next
  }
  {
    text = ""
    for (i = 4; i <= NF; ++i) {
      ++a
      stop = 0
      for (j = 1; j <= nf[a]; ++j) {
        f = fn[a, j]
        if (f ~ /^nezha::/ &&
            f !~ /^nezha::(flow::SessionTable::|common::FlatTable<)/) {
          stop = 1
          break
        }
        text = text " " f
      }
      if (stop) { a += NF - i; break }
    }
    if (text ~ /SessionTable::(intern|clear_pre_actions|PooledPreActions)/) s = "pre-action pool"
    else if (text ~ /SessionTable::(Node|Extras|take_slot|extras_at)/) s = "session slab"
    else if (text ~ /SessionTable::(Ref|WheelList|wheel|age_out|drain_cell)/) s = "aging wheel"
    else if (text ~ /SessionTable::/) s = "session index"
    else s = "other"
    bytes[s] += $2
    blocks[s] += $3
  }
  END {
    n = split("session slab,session index,aging wheel,pre-action pool,other", order, ",")
    for (i = 1; i <= n; ++i) {
      printf "| %s | %.1f | %d |\n", order[i], bytes[order[i]] / 1048576, blocks[order[i]]
    }
  }' "$out/frames_${workload}_${seed}.txt" "$out/sites_${workload}_${seed}.txt"
echo
peak=$(awk '$1 == "peak_live_bytes" { print $2 }' "$profile")
rss=$(grep -o '"peak_rss_mb": *[0-9.]*' "$out/rep_${workload}_${seed}.json" |
  head -n 1 | sed 's/.*: *//')
awk -v p="$peak" -v r="${rss:-?}" 'BEGIN {
  printf "peak live heap %.1f MB; peak_rss_mb %s (with 16-B block headers)\n",
    p / 1048576, r }'
