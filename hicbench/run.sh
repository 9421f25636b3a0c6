#!/usr/bin/env bash
# Build `hic` and the benchmark driver from this checkout, then run one
# workload: run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
set -euo pipefail
cd "$(dirname "$0")/.."
[ -f Cargo.toml ] && [ -d crates/cli ] || { echo "run.sh: not a HIC checkout" >&2; exit 2; }
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p hic-cli --bin hic >&2
cargo build --release --offline --quiet --manifest-path hicbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/hicbench" --hic "$CARGO_TARGET_DIR/release/hic" "$@"
