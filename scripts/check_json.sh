#!/bin/sh
# Schema lint for bsim's JSON documents: bsim-stats-v1 (`bsim
# --stats-json`) and bsim-rpc-v1 response envelopes (docs/SERVE.md).
# Each document names its own schema by its version key.
#
# Usage:
#   scripts/check_json.sh FILE...        # lint specific documents
#   scripts/check_json.sh --selftest     # run the built-in cases
#                                        # (--selftest stats|rpc: one
#                                        # schema's cases)
#   scripts/check_json.sh                # end-to-end: replay the
#                                        # checked-in sample trace with
#                                        # --stats-json and lint the
#                                        # result
#
# Thin wrapper around the json_lint tool (bench/json_lint.cc); builds
# it (and bsim, for the no-argument end-to-end mode) first if the
# default build tree doesn't have them yet. The same validator runs in
# ctest as `check_stats_json` (labels: golden, observe) and
# `check_rpc_json` (label: serve), and the
# end-to-end pipeline as the `bsim_stats_json*_smoke` tests.
set -eu

repo_root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
lint="$repo_root/build/bench/json_lint"
bsim="$repo_root/build/bench/bsim"

build_tool() {
    echo "check_json: building $1..." >&2
    cmake -S "$repo_root" -B "$repo_root/build" >/dev/null
    cmake --build "$repo_root/build" --target "$1" -j >/dev/null
}

[ -x "$lint" ] || build_tool json_lint

if [ "$#" -gt 0 ]; then
    exec "$lint" "$@"
fi

# No arguments: run the acceptance pipeline — sample trace through the
# driver, document through the lint; once fully replayed and observed,
# once through the sampled estimator (--sample U:P:W emits a "sample"
# object in place of "balance").
[ -x "$bsim" ] || build_tool bsim
doc=$(mktemp)
sampled_doc=$(mktemp)
trap 'rm -f "$doc" "$sampled_doc"' EXIT
"$bsim" --cache bcache:16kB,mf=8,bas=8 \
    --trace "$repo_root/examples/traces/conflict_dm.bst" \
    --interval 64 --stats-json "$doc" >/dev/null
"$bsim" --cache bcache:16kB,mf=8,bas=8 \
    --trace "$repo_root/examples/traces/conflict_dm.bst" \
    --sample 50:200:50 --stats-json "$sampled_doc" >/dev/null
exec "$lint" "$doc" "$sampled_doc"
