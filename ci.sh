#!/usr/bin/env bash
# Full local CI gate: formatting, lints, release build, workspace tests
# and a smoke pass over the crowd kernel bench. Run from the repo root.
set -euo pipefail
cd "$(dirname "$0")"

echo "== fmt =="
cargo fmt --all -- --check

echo "== clippy =="
cargo clippy --workspace --all-targets -- -D warnings

echo "== qmclint (lexical invariants) =="
# qmclint exits nonzero on any finding; json_check then validates the
# report itself: schema qmclint/6 and every by_rule count at zero.
cargo run --release -q -p qmclint -- --root . --json > QMCLINT.json
cargo run --release -q -p miniqmc --bin json_check < QMCLINT.json
rm -f QMCLINT.json

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
CARGO_TARGET_DIR=target cargo build --release --offline --manifest-path benchmark/Cargo.toml
CARGO_TARGET_DIR=target cargo test -q --offline --manifest-path benchmark/Cargo.toml

echo "== sanitizer tests (checked feature) =="
cargo test -q -p qmc-drivers --features checked

echo "== kernel backend verification (all backends, no silent skips) =="
# kernel_verify prints one `status=ok` line per backend it actually ran,
# carrying the full family list; a backend that is silently skipped
# (e.g. simd unavailable) or a family that quietly dropped out of the
# sweep (the f32 ladder, the mw-v fast path) fails the gate.
FAMILIES="bspline,bspline-mw-v,bspline-f32,distance,distance-f32,jastrow"
cargo run --release -q -p qmc-kernels --bin kernel_verify | tee KERNEL_VERIFY.log
for backend in reference soa simd; do
    grep -q "kernel-verify: backend=${backend} families=${FAMILIES} .*status=ok" KERNEL_VERIFY.log || {
        echo "ci: backend '${backend}' missing from kernel_verify output (silent skip?)" >&2
        exit 1
    }
done
rm -f KERNEL_VERIFY.log

echo "== kernel speedup gate (simd vs reference, B-spline family) =="
# The wide-SIMD tiling has to actually pay for itself: the in-binary
# micro-bench must show the Simd backend at >= 1.25x over Reference on
# all three B-spline entry points, or the tiling regressed.
cargo run --release -q -p qmc-kernels --bin kernel_verify -- --bench | tee KERNEL_BENCH.log
python3 - <<'EOF'
import re
line = next(l for l in open("KERNEL_BENCH.log")
            if l.startswith("kernel-bench:") and "speedup" in l)
nums = dict(re.findall(r"(\w+)=([0-9.]+)x", line))
for k in ("v", "vgh", "mw_vgl"):
    s = float(nums[k])
    assert s >= 1.25, f"simd speedup on {k} is {s:.2f}x < 1.25x"
    print(f"ci: simd-vs-reference {k} = {s:.2f}x (>= 1.25x)")
EOF
rm -f KERNEL_BENCH.log

echo "== determinant speedup gate (blocked vs serial-chain oracle, release) =="
# The determinant path is FMA-latency-bound unless several independent
# accumulators run side by side: the blocked Sherman-Morrison update must
# stay >= 1.5x and the row-wise LU inverse >= 2x ahead of the scalar code
# kept in crates/linalg/tests/oracle.rs, or a refactor re-serialised them;
# the determinant's row-axpy update on A^-1 must stay >= 1.5x ahead of the
# row-blocked one, whose n^2 FMAs are scalar.
cargo test -q --release -p qmc-linalg --test oracle -- --ignored

echo "== vgh prefetch gate (hinted vs un-hinted loop on a 419 MiB table, release) =="
# Out of cache the simd vgh kernel is latency-bound unless it asks for the
# next lane block's 64 cache lines while it computes the current one: it
# must stay >= 1.5x ahead of the un-hinted loop kept in
# crates/kernels/tests/backend_matrix.rs, bit for bit equal to it.
cargo test -q --release -p qmc-kernels --test backend_matrix -- --ignored

echo "== checkpoint/resume parity smoke (kill at step 3, resume to 6) =="
# A run checkpointed at an interior generation and restarted from the
# file must end with the same per-walker FNV-1a population hash as the
# run that was never killed — for per-walker AND crowd batching, DMC and
# VMC (whose 24 sweeps are six blocks of four, so its steps count x4).
# The stream file must be valid NDJSON while we're at it.
CK_DIR=$(mktemp -d)
trap 'rm -rf "$CK_DIR"' EXIT
for batch_args in "" "--crowd 2" "--driver vmc" "--driver vmc --crowd 2"; do
    case "$batch_args" in
        *vmc*) cut=12; total=24 ;;
        *) cut=3; total=6 ;;
    esac
    # shellcheck disable=SC2086  # batch_args is deliberately word-split
    straight=$(./target/release/miniqmc --benchmark graphite --threads 2 \
        --walkers 4 --steps $total --warmup 1 --seed 11 $batch_args \
        | grep '^walker-hash')
    # shellcheck disable=SC2086
    ./target/release/miniqmc --benchmark graphite --threads 2 \
        --walkers 4 --steps $cut --warmup 1 --seed 11 $batch_args \
        --checkpoint "$CK_DIR/ck.qmc:3" --stream "$CK_DIR/run.ndjson" > /dev/null
    # shellcheck disable=SC2086
    resumed=$(./target/release/miniqmc --benchmark graphite --threads 2 \
        --walkers 4 --steps $total --warmup 1 --seed 11 $batch_args \
        --resume "$CK_DIR/ck.qmc" --stream "$CK_DIR/run.ndjson" \
        | grep '^walker-hash')
    if [ "$straight" != "$resumed" ]; then
        echo "ci: checkpoint/resume hash mismatch (${batch_args:-per-walker}):" >&2
        echo "ci:   straight: $straight" >&2
        echo "ci:   resumed:  $resumed" >&2
        exit 1
    fi
    echo "ci: ${batch_args:-per-walker} resume bitwise ($straight)"
    # Every stream line parses as JSON, and the resumed segment announced
    # where it picked up.
    python3 - "$CK_DIR/run.ndjson" <<'EOF'
import json, sys
lines = [json.loads(l) for l in open(sys.argv[1])]
assert any(r.get("event") == "checkpoint" for r in lines), "no checkpoint record"
assert any(r.get("resumed_from_step") == 3 for r in lines), "no resumed start record"
EOF
    rm -f "$CK_DIR/ck.qmc" "$CK_DIR/run.ndjson"
done
# A corrupt resume file must fail with a diagnostic, not a panic.
echo "garbage" > "$CK_DIR/bad.qmc"
if ./target/release/miniqmc --benchmark graphite --walkers 2 --steps 2 --warmup 1 \
    --resume "$CK_DIR/bad.qmc" 2> "$CK_DIR/err.log"; then
    echo "ci: corrupt resume file was accepted" >&2
    exit 1
fi
grep -q "cannot resume" "$CK_DIR/err.log"
! grep -q "panicked" "$CK_DIR/err.log"

echo "== bench smoke (crowd kernels) =="
cargo bench -p qmc-bench --bench bench_crowd -- --test

echo "== bench smoke (backend kernel benches) =="
cargo bench -p qmc-bench --bench bench_kernels -- --test

echo "== bench smoke (Sherman-Morrison in both storage orders, column read, save transpose, LU inverse) =="
cargo bench -p qmc-bench --bench bench_determinant -- --test

echo "== bench smoke (sweep + measurement, NLPP shell, J2 functor rows) =="
cargo bench -p qmc-bench --bench bench_sweep -- --test

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
