#!/usr/bin/env bash
# Runs the 19 paper-figure benches and the four --clos variants, and checks
# each one's stdout against the digest pinned in tools/paper_bench_digests.txt
# (the first 16 hex digits of its SHA-256). Table A1 runs but is not pinned:
# three of its rows are wall-clock lookup rates.
#
#   tools/paper_benches.sh BENCH_DIR [OUT_DIR]
#
# BENCH_DIR holds the bench_* binaries (BUILD/bench). With OUT_DIR, each
# bench's stdout is kept there as <name>.txt, where <name> is the bench
# without its bench_ prefix, plus "--clos" for a Clos variant; without it,
# the outputs go to a temporary directory that is removed at exit. The
# script prints one "<name> <digest>" line per pinned bench, the digest
# file's format, and reports problems on stderr. It exits 1 when a bench
# exits nonzero (it printed a [CHECK] verdict, or crashed) or when a digest
# differs from the pinned one. A change that moves a bench's stdout on
# purpose updates the digest file and says why in CHANGES.md.
set -u

if [ $# -lt 1 ] || [ $# -gt 2 ]; then
  echo "usage: $0 BENCH_DIR [OUT_DIR]" >&2
  exit 2
fi
bench_dir=$(cd "$1" && pwd)
pinned=$(cd "$(dirname "$0")" && pwd)/paper_bench_digests.txt
if [ $# -eq 2 ]; then
  out=$2
  mkdir -p "$out"
else
  out=$(mktemp -d)
  trap 'rm -rf "$out"' EXIT
fi

status=0
# check NAME BENCH [ARGS...]: runs bench_BENCH ARGS, keeps its stdout as
# OUT_DIR/NAME.txt and compares its digest with NAME's pinned one.
check() {
  local name=$1 bench=$2
  shift 2
  if ! (cd "$out" && "$bench_dir/bench_$bench" "$@") > "$out/$name.txt"; then
    echo "$name: exited nonzero" >&2
    status=1
  fi
  [ "$bench" = tablea1_lookup_tput ] && return
  local got want
  got=$(sha256sum < "$out/$name.txt" | cut -c1-16)
  want=$(awk -v n="$name" '$1 == n { print $2 }' "$pinned")
  echo "$name $got"
  if [ "$got" != "$want" ]; then
    echo "$name: stdout digest $got, pinned ${want:-none}" >&2
    status=1
  fi
}

for b in ablation_fe_hashing ablation_vs_sirius appb2_scaling_stats \
         fig10_cps_vs_vcpu fig11_offload_timeline fig12_latency \
         fig13_overloads fig14_failover fig15_state_size \
         fig2_highcps_cpu fig3_hotspots fig4_util_cdf \
         fig9_gain_vs_fes figa1_migration table1_usage_dist \
         table3_middleboxes table4_activation_time \
         table5_deploy_cost tablea1_lookup_tput; do
  check "$b" "$b"
done
for b in fig9_gain_vs_fes fig11_offload_timeline fig12_latency \
         fig14_failover; do
  check "$b--clos" "$b" --clos
done
exit $status
