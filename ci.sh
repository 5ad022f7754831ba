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

echo "== evaluation smoke (ladder: 15 DMC rungs, six figure/table sections) =="
# The smallest run of every rung the figure/table sections read; a rung a
# section asks for but the ladder did not run, or a section that cannot
# render its rungs, exits non-zero. At this size a rare kernel can read
# zero sampled seconds on one side of a ratio: the cell must say `not
# measured`, so an `infx` or `NaNx` in the output fails here.
ladder_out=$(mktemp)
./target/release/ladder --steps 2 --walkers 2 --reps 1 --threads 1 > "$ladder_out"
if grep -nE '(inf|NaN)x' "$ladder_out"; then
    echo "ladder printed a ratio over a side that measured nothing" >&2
    exit 1
fi
rm "$ladder_out"

echo "== Fig. 1 smoke (fig1_strong_scaling: simulated ranks 1/2/4/8, Ref and Current) =="
# The smallest run of every rank count Fig. 1 prints, two reps so the
# min-max column renders; each renders its RunReport. A rank count
# whose run measured no sample would print an
# `inf` or `NaN` time, overhead or efficiency, which fails here.
fig1_out=$(mktemp)
./target/release/fig1_strong_scaling --steps 2 --walkers 2 --reps 2 --threads 1 > "$fig1_out"
if grep -nE '(inf|NaN)' "$fig1_out"; then
    echo "fig1_strong_scaling printed a time or ratio over no samples" >&2
    exit 1
fi
rm "$fig1_out"

echo "== run-report smoke (miniqmc --profile json) =="
# json_check also gates the runtime sanitizer (some checks made, no
# violation) and attribution: kernel seconds finite, >= 0, and summing to
# <= seconds x threads. Kernel times are sampled (1 call in 16), so the
# run is sized to ~0.94M kernel calls (~0.75 s). There the sum's
# sampling error, sqrt(sum over kernels of 15 s_k^2 / calls_k), is
# 0.6 % of wall time, and the busy share measured 0.955-0.959 over six
# runs on a 2-vCPU x86-64 host: 7 sigma of headroom. At the old
# 2-walker, 4-step size the error was ~8 % and the gate failed.
./target/release/miniqmc --benchmark graphite --threads 1 --walkers 8 \
    --steps 96 --warmup 1 --profile json | ./target/release/json_check
# The VMC driver renders the same report, so it passes the same gates. Its
# 128 sweeps (32 blocks of 4) of 8 walkers make ~1.05M kernel calls
# (~0.42 s): the sum's sampling error is 0.5-0.7 % of wall time. Its
# busy share read 0.86-1.28 over eight runs on a 2-vCPU x86-64 VM whose
# DMC leg above read 0.74-1.05 in the same eight rounds (the previous
# commit's binary spread as widely). That host stalled the process for
# up to ~0.5 ms at a time: a stall inside a sampled call counts 16 times,
# one outside it only lengthens the wall time, so either leg can fail
# the gate there (the DMC leg's 0.955-0.959 was read on a quieter host).
./target/release/miniqmc --benchmark graphite --driver vmc --threads 1 \
    --walkers 8 --steps 128 --profile json | ./target/release/json_check
# The trace leg: a 2-thread crowd run with both span sinks. The Chrome
# trace must be valid JSON and the stream must carry the spans too.
trace_dir=$(mktemp -d)
./target/release/miniqmc --benchmark graphite --threads 2 --crowd 2 \
    --walkers 8 --steps 24 --stream "$trace_dir/run.ndjson" \
    --profile "trace:$trace_dir/trace.json" > /dev/null
./target/release/json_check < "$trace_dir/trace.json"
grep -q '"event":"trace"' "$trace_dir/run.ndjson"
rm -r "$trace_dir"

echo "CI OK"
