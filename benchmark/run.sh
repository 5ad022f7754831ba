#!/usr/bin/env bash
# Builds qmcbench from source and runs it from the repo root.
#
#   benchmark/run.sh --workload W --seed S --seconds T --trace 0|1   one run; the last
#                                                                    stdout line is the result
#   benchmark/run.sh [--seed S] [--rounds R] [--seconds T] [--aa]    the whole ladder
#
# See benchmark/README.md.
set -euo pipefail
cd "$(dirname "$0")/.."
# Relative to the repo root: the root workspace's own target/ unless the caller chose.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/qmcbench" "$@"
