#!/usr/bin/env bash
# Builds the broker (`apcm`) and the benchmark program from source, then runs
# it with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload match-direct --seed 1 --seconds 10 --trace 0
#   bash perfbench/run.sh --selftest
#
# Build output goes to $CARGO_TARGET_DIR (default `.bench_build` at the
# repository root); cargo's messages go to stderr so the last line of
# stdout stays the benchmark's JSON result.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet --manifest-path Cargo.toml --bin apcm >&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml >&2
PERFBENCH_COMMIT="$(git rev-parse --short HEAD 2>/dev/null || echo unknown)"
export PERFBENCH_COMMIT
exec "$CARGO_TARGET_DIR/release/perfbench" "$@"
