#!/usr/bin/env bash
# Heap profile of one perfbench repetition: which call sites hold the live
# heap when it peaks.
#
# Usage: tools/heap_profile.sh BUILD_DIR WORKLOAD SEED
#
# Builds perfbench/perfbench.cpp, unchanged, in its own CMake project under
# BUILD_DIR with support/heap_profile.cpp linked in (RelWithDebInfo,
# -fno-omit-frame-pointer, -no-pie, so return addresses symbolize against
# the executable). Runs one repetition of WORKLOAD at SEED on one thread
# and prints, as a Markdown table, the 15 call sites holding the most live
# bytes at the heap's peak: bytes, blocks, bytes per block and the first
# nezha:: frames (addr2line -f -C -i). The last line gives the peak live
# heap next to the repetition's peak_rss_mb, which includes the
# profiler's 16-B header on every block.
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
    -DCMAKE_CXX_FLAGS="-fno-omit-frame-pointer -fno-pie" \
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
peak=$(awk '$1 == "peak_live_bytes" { print $2 }' "$profile")
rss=$(grep -o '"peak_rss_mb": *[0-9.]*' "$out/rep_${workload}_${seed}.json" |
  head -n 1 | sed 's/.*: *//')
awk -v p="$peak" -v r="${rss:-?}" 'BEGIN {
  printf "peak live heap %.1f MB; peak_rss_mb %s (with 16-B block headers)\n",
    p / 1048576, r }'
