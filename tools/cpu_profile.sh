#!/usr/bin/env bash
# CPU profile of perfbench repetitions: where the process's CPU time goes,
# by function, in set-up and in the measured window.
#
# Usage: tools/cpu_profile.sh BUILD_DIR WORKLOAD SEED [REPS]
#
# Builds perfbench/perfbench.cpp, unchanged, in its own CMake project under
# BUILD_DIR with support/cpu_profile.cpp linked in (Release, -g,
# -fno-omit-frame-pointer, -no-pie, so return addresses symbolize against
# the executable). Runs one unprofiled repetition of WORKLOAD at SEED on one
# thread, then REPS (default 3) profiled ones, and fails unless every
# profiled digest equals the unprofiled one. The profiler samples the
# process's own CPU time (setitimer(ITIMER_PROF), at the kernel's timer
# rate) with frame-pointer stacks, so REPS multiplies the samples.
#
# Prints, as Markdown tables for set-up and for the window, the share of
# samples in which each function was running (self) and in which it was
# anywhere on the stack (inclusive), from addr2line -f -C -i, so inlined
# functions count as functions. Time in a shared library is named by the
# library and counts as self time only. A sample is set-up when it was
# taken within the repetition's setup_s of the profiler's start, which
# precedes the repetition's own start by the process's start-up.
set -euo pipefail

if [ $# -lt 3 ] || [ $# -gt 4 ]; then
  echo "usage: $0 BUILD_DIR WORKLOAD SEED [REPS]" >&2
  exit 2
fi
root=$(cd "$(dirname "$0")/.." && pwd)
out=$(mkdir -p "$1" && cd "$1" && pwd)
workload=$2
seed=$3
reps=${4:-3}
jobs=$(nproc 2>/dev/null || echo 2)

mkdir -p "$out/project"
cat >"$out/project/CMakeLists.txt" <<CMAKE
cmake_minimum_required(VERSION 3.16)
project(nezha_cpu_profile CXX)
set(CMAKE_CXX_STANDARD 20)
set(CMAKE_CXX_STANDARD_REQUIRED ON)
set(CMAKE_CXX_EXTENSIONS OFF)
add_subdirectory($root/src nezha_src)
add_executable(nezha_perfbench_cpu $root/perfbench/perfbench.cpp
               $root/support/cpu_profile.cpp)
target_link_libraries(nezha_perfbench_cpu PRIVATE nezha)
target_compile_definitions(nezha_perfbench_cpu PRIVATE PERFBENCH_TRACED=0)
CMAKE
if ! {
  cmake -S "$out/project" -B "$out/build" -DCMAKE_BUILD_TYPE=Release \
    -DCMAKE_CXX_FLAGS="-g -fno-omit-frame-pointer -fno-pie" \
    -DCMAKE_EXE_LINKER_FLAGS=-no-pie &&
    cmake --build "$out/build" -j "$jobs"
} >"$out/build.log" 2>&1; then
  cat "$out/build.log" >&2
  exit 2
fi

bin="$out/build/nezha_perfbench_cpu"
run="$out/run_${workload}_${seed}"
mkdir -p "$run"
"$bin" --workload "$workload" --seed "$seed" --threads 1 >"$run/plain.json"
for r in $(seq 1 "$reps"); do
  NEZHA_CPU_PROFILE="$run/profile_$r.txt" "$bin" --workload "$workload" \
    --seed "$seed" --threads 1 >"$run/rep_$r.json"
done

python3 - "$bin" "$run" "$workload" "$seed" "$reps" <<'PY'
import collections, json, os, re, subprocess, sys

binary, run, workload, seed, reps = sys.argv[1:6]
reps = int(reps)

def rep_json(name):
    with open(os.path.join(run, name)) as f:
        return json.loads(f.read().strip().splitlines()[-1])

plain = rep_json("plain.json")["digest"]
# (phase, [address, ...]); a return address steps back into its call.
samples = []
maps = []  # (lo, hi, library) of each executable mapping
for r in range(1, reps + 1):
    rep = rep_json("rep_%d.json" % r)
    if rep["digest"] != plain:
        sys.exit("profiled rep %d digest %s != unprofiled %s" % (r, rep["digest"], plain))
    setup_ns = rep["setup_s"] * 1e9
    with open(os.path.join(run, "profile_%d.txt" % r)) as f:
        for line in f:
            parts = line.split()
            if parts[0] == "map":
                maps.append((int(parts[1], 16), int(parts[2], 16),
                             os.path.basename(parts[3])))
            if parts[0] != "sample":
                continue
            frames = [int(a, 16) for a in parts[2:]]
            frames = frames[:1] + [a - 1 for a in frames[1:]]
            samples.append(("set-up" if int(parts[1]) < setup_ns else "window", frames))

addrs = sorted({a for _, frames in samples for a in frames})
names = {}
text = subprocess.run(["addr2line", "-a", "-f", "-C", "-i", "-e", binary],
                      input="\n".join("0x%x" % a for a in addrs), capture_output=True,
                      text=True, check=True).stdout.splitlines()
# Each address is followed by (function, file:line) pairs, innermost
# inlined function first.
current, is_function = None, True
for line in text:
    if re.fullmatch(r"0x[0-9a-f]+", line):
        current, is_function = int(line, 16), True
        names[current] = []
        continue
    if is_function:
        name = re.sub(r"\(anonymous namespace\)", "(anon)", line)
        names[current].append(re.sub(r"\(.*", "", name) or line)
    is_function = not is_function

# An address addr2line cannot name lies in a shared library (the
# executable is not position-independent, so library mappings do not move
# its addresses): name it by its library. It counts for self time only,
# since libc's start-up frame is on every stack.
for a, chain in names.items():
    if chain == ["??"]:
        lib = next((name for lo, hi, name in maps if lo <= a < hi), "unknown")
        names[a] = ["(%s)" % lib]

print("### CPU profile: %s, seed %s, %d profiled reps (digest %s in every rep)"
      % (workload, seed, reps, plain))
for phase in ("set-up", "window"):
    chosen = [frames for p, frames in samples if p == phase]
    self_count = collections.Counter()
    incl_count = collections.Counter()
    for frames in chosen:
        self_count[names[frames[0]][0]] += 1
        incl_count.update({n for a in frames for n in names[a]
                           if not n.startswith("(")})
    total = max(len(chosen), 1)
    print()
    print("#### %s: %d samples" % (phase, len(chosen)))
    for title, counter in (("self", self_count), ("inclusive", incl_count)):
        print()
        print("| self %% | inclusive %% | function (top 20 by %s) |" % title)
        print("|---:|---:|---|")
        for name, _ in counter.most_common(20):
            print("| %.1f | %.1f | `%s` |" % (100.0 * self_count[name] / total,
                                            100.0 * incl_count[name] / total, name))
PY
