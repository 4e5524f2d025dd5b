#!/usr/bin/env bash
# Build the release `facile` binary and the benchmark from this checkout,
# then run one workload:
#   bash perfbench/run.sh --workload <batch-cold|sweep-9u|serve|diff> \
#       --seed <n> --seconds <s> --trace <0|1>
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default `target`).
set -euo pipefail
if [[ ! -f Cargo.toml || ! -d crates/cli || ! -f perfbench/Cargo.toml ]]; then
    echo "error: run from the root of a facile checkout" >&2
    exit 1
fi
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --quiet -p facile-cli --bin facile >&2
cargo build --release --quiet --manifest-path perfbench/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/facile-perfbench" "$@"
