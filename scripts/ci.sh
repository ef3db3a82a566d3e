#!/usr/bin/env sh
# Tier-1 gate for mmdb (see ROADMAP.md "Tier-1 verify").
#
# Run from the repository root:
#   scripts/ci.sh
#
# Everything must pass before a PR lands: a warning-free release build,
# the full test suite (unit + integration + property + doc tests), and
# clippy with warnings promoted to errors.
set -eu

cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release

echo "==> cargo test -q"
cargo test -q

echo "==> cargo test -q --workspace (every crate's unit, integration and property tests)"
# The root manifest has no default-members, so the plain `cargo test`
# above runs only the root `mmdb` package.
cargo test -q --workspace

echo "==> cargo clippy --workspace --all-targets -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> mmdb-lint (workspace invariant rules; see DESIGN.md 'Static analysis')"
# JSON report archived for attribution; the per-rule summary table goes
# to stderr. The binary exits nonzero on any error-severity finding.
mkdir -p target
cargo run -q --release -p mmdb-lint -- --format json > target/lint-report.json

echo "==> crash-recovery torture suite (--features failpoints)"
cargo test -q --features failpoints --test crash_recovery

echo "==> request-lifecycle torture suite (--features failpoints)"
cargo test -q --features failpoints --test lifecycle_torture

echo "==> replication failover torture suite (--features failpoints)"
cargo test -q --features failpoints --test replication

echo "==> group-commit torture & property suite (--features failpoints)"
cargo test -q --features failpoints --test group_commit

echo "==> checkpoint torture suite (--features failpoints)"
cargo test -q --features failpoints --test checkpoint

echo "==> wire suites in release mode (buffered reads, in-place execution, coalesced writes)"
# `cargo test -q` above ran these in debug. Buffered frame reads and the
# reader's own writes make their outcome timing-sensitive, so they run
# again optimized, where the server's real stack sizes and timings hold.
cargo test -q --release --test pipeline --test server_failures --test server_roundtrip \
  --test wire_reader

echo "==> failpoints stay a no-op when the feature is off"
cargo test -q -p mmdb-fault
# Deadline checks ride the same feature: a default build must run the
# query cancellation scaffolding as free no-ops.
cargo test -q -p mmdb-query cancel
# The ckpt.* sites ride it too: a default build must checkpoint with the
# failpoint scaffolding compiled out.
cargo test -q -p mmdb-core checkpoint
cargo test -q -p mmdb-storage snapshot

echo "==> cargo clippy --features failpoints (lints the torture suite)"
cargo clippy -p mmdb --all-targets --features failpoints -- -D warnings

echo "==> unibench smoke run (tiny scale factor)"
# Not a performance gate — just proves the bench binary builds, generates
# data, and completes every workload end to end.
cargo run -q --release -p mmdb-bench --bin unibench -- --scale 0.05 --workload all --seed 21

echo "==> perfbench tests (the benchmark is its own workspace; builds it against this engine)"
# The root workspace never compiles perfbench/, so an engine API change
# that breaks the benchmark would otherwise surface only when the
# benchmark runs. This builds it and runs its unit and smoke tests.
cargo test --release --offline --manifest-path perfbench/Cargo.toml

echo "==> workload C multi-writer smoke (group commit, 1 vs 8 writers)"
# Also not a performance gate — proves the concurrent write path drives
# the group-commit sequencer end to end and emits its BENCH lines.
cargo run -q --release -p mmdb-bench --bin unibench -- --scale 0.05 --workload c --writers 1,8 --seed 21

echo "==> workload P pipelining smoke (reduced: 200 idle, 8 hot)"
# Also not a performance gate — proves the pipelined server end to end:
# idle connections parked by the re-exec'd holder child, hot connections
# at depth 1 vs 32, and the BENCH rows. The full run (10k idle, 100 hot)
# is `unibench --workload p`; EXPERIMENTS.md records its numbers.
cargo run -q --release -p mmdb-bench --bin unibench -- --scale 0.05 --workload p \
  --idle-conns 200 --hot-conns 8 --pipeline-ops 200 --seed 21

echo "==> tier-1 gate passed"
