#!/usr/bin/env bash
# Local CI gate: formatting, lints, and the full test suite.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> cargo fmt --check"
cargo fmt --check

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo test --workspace -q (every package: unit, integration, doc tests)"
cargo test --workspace -q

echo "==> cargo bench --workspace --no-run (benches stay compilable)"
cargo bench --workspace --no-run

# Harness smoke runs write this run's records under target/ — never into
# the committed BENCH_pr*.json files — and the gates below read them back.
smoke=target/bench-smoke
mkdir -p "$smoke"

echo "==> harness smoke run (e2)"
cargo run --release -q -p apcm-bench --bin harness -- \
    --experiment e2 --scale 0.002 --budget-ms 50 --seed 42 \
    --json "$smoke/e2.json"

echo "==> cluster harness smoke run (e13)"
cargo run --release -q -p apcm-bench --bin harness -- \
    --experiment e13 --scale 0.002 --budget-ms 50 --seed 42 \
    --json "$smoke/e13.json"

echo "==> summary pruning engages on skewed placement (pruned_fanout_ratio < 1.0)"
python3 - <<'EOF'
import json
records = json.load(open("target/bench-smoke/e13.json"))
ratios = [
    r["value"]
    for r in records
    if r["experiment"] == "e13"
    and r["algorithm"] == "routed-skewed"
    and r["metric"] == "pruned_fanout_ratio"
]
assert ratios, "no pruned_fanout_ratio records in the e13 smoke run"
latest = ratios[-1]
assert latest < 1.0, f"summary pruning never skipped a backend: ratio {latest}"
print(f"    pruned_fanout_ratio {latest} < 1.0")
EOF

echo "==> replication harness smoke run (e14)"
cargo run --release -q -p apcm-bench --bin harness -- \
    --experiment e14 --scale 0.002 --budget-ms 50 --seed 42 \
    --json "$smoke/e14.json"

echo "==> snapshot-format harness smoke run (e15)"
cargo run --release -q -p apcm-bench --bin harness -- \
    --experiment e15 --scale 0.002 --budget-ms 50 --seed 42 \
    --json "$smoke/e15.json"

echo "==> resharding harness smoke run (e16)"
cargo run --release -q -p apcm-bench --bin harness -- \
    --experiment e16 --scale 0.002 --budget-ms 50 --seed 42 \
    --json "$smoke/e16.json"

echo "==> event-loop harness smoke run (e17)"
# e17 raises RLIMIT_NOFILE to the hard limit itself (best-effort); ulimit
# here widens the starting soft limit where the shell is allowed to.
ulimit -n "$(ulimit -Hn)" 2>/dev/null || true
cargo run --release -q -p apcm-bench --bin harness -- \
    --experiment e17 --scale 0.1 --budget-ms 50 --seed 42 \
    --json "$smoke/e17.json"

echo "==> replication-chain harness smoke run (e18)"
cargo run --release -q -p apcm-bench --bin harness -- \
    --experiment e18 --scale 0.002 --budget-ms 50 --seed 42 \
    --json "$smoke/e18.json"

echo "==> follower reads engage (reads_follower_served > 0 with followers present)"
python3 - <<'EOF'
import json
records = json.load(open("target/bench-smoke/e18.json"))
served = [
    r["value"]
    for r in records
    if r["experiment"] == "e18"
    and r["param"] in ("followers=1", "followers=2")
    and r["metric"] == "reads_follower_served"
]
assert served, "no reads_follower_served records in the e18 smoke run"
latest = served[-1]
assert latest > 0, "the router never served a routed window from a follower"
print(f"    reads_follower_served {latest:.0f} > 0")
EOF

echo "==> ci.sh: all green"
