#!/usr/bin/env bash
# Build the benchmark package (both binaries) and hand the arguments to it.
#
#   bash benchmark/run.sh --workload get_scar --seed 1 --seconds 20 --trace 0
#   bash benchmark/run.sh run --seed 1 --out benchmark/out/run.json
#
# `cargo run` would build only the binary it runs; the traced pass needs
# `cmbench-traced` (the counting-allocator build) beside `cmbench`.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/target}"
# Cargo's own output goes to stderr: stdout belongs to the result.
cargo build --release --offline --quiet --manifest-path "$here/Cargo.toml" --bins >&2
exec "$target/release/cmbench" "$@"
