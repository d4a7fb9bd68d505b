#!/usr/bin/env bash
# The full local verification gate, in the order CI runs it.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo run -p vcheck -- --json vcheck-report.json   (lints + ratchet + determinism gate + invariant gate)"
cargo run -p vcheck -- --json vcheck-report.json

echo "==> cargo test -q"
cargo test -q

echo "==> fault-plane seed matrix (two distinct seeds)"
VSIM_FAULT_SEED=0x1984 cargo test -q -p vsim --test fault_plane
VSIM_FAULT_SEED=271828 cargo test -q -p vsim --test fault_plane

echo "==> partition-plane seed matrix (two distinct seeds)"
VSIM_FAULT_SEED=0x1984 cargo test -q -p vsim --test partition_plane
VSIM_FAULT_SEED=271828 cargo test -q -p vsim --test partition_plane

echo "==> anti-entropy seed matrix (two distinct seeds)"
VSIM_FAULT_SEED=0x1984 cargo test -q -p vsim --test anti_entropy_plane
VSIM_FAULT_SEED=271828 cargo test -q -p vsim --test anti_entropy_plane

echo "==> gossip / tombstone-GC seed matrix (two distinct seeds)"
VSIM_FAULT_SEED=0x1984 cargo test -q -p vsim --test gossip_plane
VSIM_FAULT_SEED=271828 cargo test -q -p vsim --test gossip_plane

echo "==> merkle-walk seed matrix (two distinct seeds)"
VSIM_FAULT_SEED=0x1984 cargo test -q -p vsim --test merkle_plane
VSIM_FAULT_SEED=271828 cargo test -q -p vsim --test merkle_plane

# `cargo test -q` above already ran these, but an explicit invocation keeps
# the pinned schedules in proptest-regressions/ visibly load-bearing: every
# property replays each `cc` seed before generating novel cases.
echo "==> anti-entropy proptests (pinned regression seeds + novel cases)"
cargo test -q -p vservers --test anti_entropy_props

# perfbench/ is a workspace of its own, so nothing above compiles it. Build
# it against this tree and run its self-test: every answer checked against
# ground truth, and traced and untraced runs folding to the same checksum.
echo "==> perfbench self-test (open_read, seed 1, 2 s, traced)"
bench_out="$(cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
    --workload open_read --seed 1 --seconds 2 --trace 1)"
if ! tail -n 1 <<<"$bench_out" | grep -q '"correct": true'; then
    echo "$bench_out"
    echo "perfbench self-test did not report \"correct\": true" >&2
    exit 1
fi

echo "==> all checks passed"
