#!/usr/bin/env bash
# Builds the system under test from source and runs the benchmark.
#
#   bash perfbench/run.sh --workload <repro_paper|serve_hot|serve_cold> \
#       --seed <n> --seconds <s> --trace <0|1>
#   bash perfbench/run.sh --smoke
#
# Run from the repository root. Build output goes to $CARGO_TARGET_DIR
# (default .bench_build); build logs go to stderr, so the last line of
# stdout is the benchmark's JSON result.
set -euo pipefail

export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-.bench_build}"
cargo build --release --offline --quiet -p ntc-bench --bin repro 1>&2
cargo build --release --offline --quiet --manifest-path perfbench/Cargo.toml 1>&2

# Fixed engine thread count for the in-process passes and the server child.
export NTC_THREADS=2

# Identify the code under test: the git commit when there is one, and a
# digest of the sources either way.
commit=none
if [ -e .git ]; then commit="$(git rev-parse HEAD 2>/dev/null || echo none)"; fi
digest="$(find crates Cargo.toml Cargo.lock -type f \( -name '*.rs' -o -name '*.toml' -o -name '*.lock' \) \
    | LC_ALL=C sort | xargs cat | sha256sum | cut -c1-16)"

exec "$CARGO_TARGET_DIR/release/perfbench" \
    --repro "$CARGO_TARGET_DIR/release/repro" --commit "$commit" --source-digest "$digest" "$@"
