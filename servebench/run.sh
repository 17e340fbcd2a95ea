#!/usr/bin/env bash
# Builds the `skydiver` server binary and the benchmark driver from
# source, then runs one benchmark invocation. Run from the repository
# root:
#
#   bash servebench/run.sh --workload warm_select --seed 1 --seconds 10 --trace 0
#
# Cargo's output goes to stderr; the last line of stdout is the result.
set -euo pipefail
[ -f Cargo.toml ] && [ -d crates ] || { echo "run from the repository root" >&2; exit 2; }
target="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet --bin skydiver >&2
cargo build --release --quiet --manifest-path servebench/Cargo.toml >&2
bench_target="${CARGO_TARGET_DIR:-servebench/target}"
exec "$bench_target/release/skydiver-servebench" --server-bin "$target/release/skydiver" "$@"
