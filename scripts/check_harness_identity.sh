#!/bin/sh
# Thread-count identity gate for the sweep harnesses (ctest label
# `sweep`).
#
# Usage:
#   scripts/check_harness_identity.sh [bench-bin-dir] [examples-bin-dir]
#
# Runs fig3_mf_sweep, fig4_dcache_reduction, table5_6_mf_bas_pd and
# design_space_explorer at --jobs 1 and --jobs 3 with a small
# BSIM_ACCESSES and compares their stdout byte for byte, after dropping
# the timing-only "sweep engine" table. runSweep shares one stream
# between same-workload cells and splits those groups by thread count,
# so this pins the split rule: results must never depend on how the
# work was divided.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
bench_dir=${1:-$repo_root/build/bench}
examples_dir=${2:-$repo_root/build/examples}

tmp=$(mktemp -d "${TMPDIR:-/tmp}/harness_identity.XXXXXX")
trap 'rm -rf "$tmp"' EXIT INT TERM

BSIM_ACCESSES=${BSIM_ACCESSES:-20000}
export BSIM_ACCESSES
unset BSIM_JOBS BSIM_SAMPLE

# Drop the "== sweep engine ==" table (through its trailing blank line
# or EOF); everything else must match.
strip_timing() {
    awk '/^== sweep engine ==$/ { skip = 1; next }
         skip && /^$/           { skip = 0; next }
         !skip                  { print }'
}

fail=0
for bin in "$bench_dir/fig3_mf_sweep" "$bench_dir/fig4_dcache_reduction" \
           "$bench_dir/table5_6_mf_bas_pd" \
           "$examples_dir/design_space_explorer"; do
    name=$(basename "$bin")
    if [ ! -x "$bin" ]; then
        echo "check_harness_identity: missing $bin" >&2
        fail=1
        continue
    fi
    for jobs in 1 3; do
        if ! "$bin" --jobs "$jobs" > "$tmp/raw"; then
            echo "check_harness_identity: $name --jobs $jobs failed" >&2
            fail=1
        fi
        strip_timing < "$tmp/raw" > "$tmp/$name.$jobs"
    done
    if [ ! -s "$tmp/$name.1" ]; then
        echo "check_harness_identity: $name printed nothing" >&2
        fail=1
    elif cmp -s "$tmp/$name.1" "$tmp/$name.3"; then
        echo "ok: $name identical at --jobs 1 and 3"
    else
        echo "FAIL: $name differs between --jobs 1 and 3:" >&2
        diff "$tmp/$name.1" "$tmp/$name.3" >&2 || true
        fail=1
    fi
done
exit "$fail"
