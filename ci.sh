#!/usr/bin/env bash
# Full local CI gate: formatting, lints, release build, workspace tests,
# the release-mode timing tests and a smoke pass over every Criterion
# bench. Every gate is a test or a tool's exit code. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "== fmt =="
cargo fmt --all -- --check

echo "== clippy (pedantic + the project invariants) =="
# Besides pedantic style, this holds the invariants DESIGN §5c lists: in
# physics crates no lock, cell, hash map, wall clock, thread spawn or RNG
# draw outside the sites `clippy.toml` and an `#[expect]` name, every cast
# carries a reason, kernel modules do not panic, `unsafe` only where
# allowed by name, and every `allow` / `expect` says why.
cargo clippy --workspace --all-targets -- -D warnings

echo "== build (release) =="
# --workspace matters: the repo root is itself a package, so a bare
# `cargo build` would build only it and later stages would run stale
# `target/release` binaries (miniqmc, json_check, ...).
cargo build --release --workspace

echo "== tests =="
cargo test -q --workspace

echo "== benchmark adapter gate (benchmark/ builds and passes against this driver API) =="
# benchmark/ is a workspace of its own whose adapter (src/layers.rs) calls
# the driver crates by name; a driver-API change that breaks it must fail
# here, not in the benchmark run. Same target directory as
# benchmark/run.sh uses, so the crates are not built a second time.
# --locked: a manifest edit that would rewrite benchmark/Cargo.lock fails
# here instead of leaving the tree dirty.
CARGO_TARGET_DIR=target cargo build --release --locked --offline --manifest-path benchmark/Cargo.toml
CARGO_TARGET_DIR=target cargo test -q --locked --offline --manifest-path benchmark/Cargo.toml

echo "== sanitizer tests (checked feature) =="
cargo test -q -p qmc-drivers --features checked

echo "== determinant speedup gate (blocked vs serial-chain oracle, release) =="
# The determinant path is FMA-latency-bound unless several independent
# accumulators run side by side: the blocked Sherman-Morrison update must
# stay >= 1.5x and the row-wise LU inverse >= 2x ahead of the scalar code
# kept in crates/linalg/tests/oracle.rs, or a refactor re-serialised them;
# the determinant's row-axpy update on A^-1 must stay >= 1.5x ahead of the
# row-blocked one, whose n^2 FMAs are scalar.
cargo test -q --release -p qmc-linalg --test oracle -- --ignored

echo "== spline table gates (lane fill vs serial-chain oracle, huge-page backing, release) =="
# MultiBspline3D::random draws one xorshift64* stream as eight jump-ahead
# lanes: on an already-faulted 64 MiB table the fill must stay >= 1.8x
# ahead of the single chain kept in crates/bspline/tests/table.rs, or a
# refactor re-serialised the stream. AlignedVec::zeros advises huge pages
# on a fresh buffer: where the host's THP mode is always or madvise, a
# fresh 64 MiB table (32 pages of 2 MiB, less the partial ones at its two
# ends) must sit >= 90 % on huge pages (per /proc/self/smaps), and where it
# is never, on none.
cargo test -q --release -p qmc-bspline --test table -- --ignored

echo "== kernel timing gates (simd vs reference, vgh prefetch on a 375 MiB table, release) =="
# The wide-SIMD tiling has to pay for itself: simd must stay >= 1.25x
# ahead of reference on B-spline v, vgh and mw-vgl. Out of cache the simd
# vgh kernel is latency-bound unless it asks for the next lane block's 64
# cache lines while it computes the current one: it must stay >= 1.5x
# ahead of the un-hinted loop kept in crates/kernels/tests/backend_matrix.rs,
# bit for bit equal to it.
cargo test -q --release -p qmc-kernels --test backend_matrix -- --ignored

echo "== bench smoke (every Criterion bench, one pass per case) =="
cargo bench -p qmc-bench --bench '*' -- --test

echo "== run-report smoke (miniqmc --profile json) =="
# json_check also gates attribution: kernel seconds finite, >= 0, and
# summing to <= seconds x threads. Kernel times are sampled (1 call in
# 16), so the run is sized to ~0.94M kernel calls (~0.75 s). There the
# sum's sampling error, sqrt(sum over kernels of 15 s_k^2 / calls_k), is
# 0.6 % of wall time, and the busy share measured 0.955-0.959 over six
# runs on a 2-vCPU x86-64 host: 7 sigma of headroom. At the old
# 2-walker, 4-step size the error was ~8 % and the gate failed.
./target/release/miniqmc --benchmark graphite --threads 1 --walkers 8 \
    --steps 96 --warmup 1 --profile json | ./target/release/json_check

echo "== run-report smoke (checked build: sanitizer live) =="
# Rebuild with the runtime invariant sanitizer compiled in; json_check
# exits nonzero if the report carries any sanitizer violations. Same
# size and the same attribution gate: this build's busy share measured
# 0.946-0.954 over six runs (sampling error 0.6 %, 8 sigma of headroom).
cargo build --release -q -p miniqmc --features checked
./target/release/miniqmc --benchmark graphite --threads 1 --walkers 8 \
    --steps 96 --warmup 1 --profile json | ./target/release/json_check

echo "CI OK"
