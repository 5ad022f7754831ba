//! The hot path does not allocate, checked on the code that runs.
//!
//! A counting global allocator wraps `System` and counts, per thread,
//! every `alloc`, `alloc_zeroed` and `realloc`. Each test builds one
//! scaled workload under all four code versions (f64 and f32, AoS and
//! SoA), warms every engine up the way a DMC generation does, and then
//! asserts zero allocations for what runs once per walker per
//! generation: four sweeps after a from-scratch refresh, `store_walker`,
//! `load_walker`, one NLPP shell per electron (`calc_ratios_v`) and
//! `measure` apart from the NLPP term's own bookkeeping. The counter
//! sees what runs, through trait objects and generics.
//!
//! The allocations that remain are printed, not asserted: the from-scratch
//! refresh (LU staging per determinant) and `NonLocalPP::evaluate`'s
//! bookkeeping. DESIGN.md §5c records them and who owns them.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use qmc::containers::{Pos, Real, TinyVector};
use qmc::drivers::{QmcEngine, Walker};
use qmc::workloads::{Benchmark, CodeVersion, RunConfig, Size, Workload};
use rand::rngs::StdRng;
use rand::SeedableRng;

thread_local! {
    /// Allocations made by this thread. `const`-initialised and without a
    /// destructor, so the allocator can touch it without allocating, and
    /// libtest's other threads cannot move it.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// `System`, counting every allocation on the calling thread.
struct Counting;

fn count() {
    ALLOCATIONS.with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; counting touches only a
// thread-local `Cell` and never re-enters the allocator.
#[allow(unsafe_code, reason = "a global allocator is an `unsafe impl`")]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count();
        // SAFETY: forwarded unchanged; `ptr` came from this allocator,
        // which is `System`.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: forwarded unchanged; `ptr` came from `System`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static COUNTING: Counting = Counting;

/// Runs `f`, returning its result and the allocations it made.
fn allocations<R>(f: impl FnOnce() -> R) -> (R, u64) {
    let before = ALLOCATIONS.with(Cell::get);
    let r = f();
    (r, ALLOCATIONS.with(Cell::get) - before)
}

/// The 12 points of a radius-0.6 shell around each electron's position.
fn shell_points<T: Real>(e: &QmcEngine<T>) -> Vec<Vec<Pos<T>>> {
    let grid = qmc::hamiltonian::nlpp::icosahedron_grid();
    (0..e.pset.len())
        .map(|iat| {
            let centre: Pos<f64> = e.pset.pos(iat).cast();
            grid.iter()
                .map(|q| (centre + TinyVector([q[0], q[1], q[2]]) * 0.6).cast())
                .collect()
        })
        .collect()
}

/// One NLPP shell per electron, through the batched value-only path.
fn shell_pass<T: Real>(e: &mut QmcEngine<T>, shells: &[Vec<Pos<T>>], ratios: &mut [f64]) {
    for (iat, pts) in shells.iter().enumerate() {
        e.psi.calc_ratios_v(&mut e.pset, iat, pts, ratios);
    }
}

/// Warms `e` up on a walker, then asserts the per-generation work is
/// allocation-free.
fn check<T: Real>(label: &str, w: &Workload, mut e: QmcEngine<T>) {
    let tau = RunConfig::default().tau;
    let mut walker = Walker::new(w.initial_positions().to_vec(), 7);
    let mut rng = StdRng::seed_from_u64(11);
    let shells = shell_points(&e);
    let mut ratios = vec![0.0; shells[0].len()];

    // Warm-up: every scratch buffer reaches its steady size.
    e.init_walker(&mut walker);
    for _ in 0..3 {
        e.load_walker(&mut walker);
        e.refresh_from_scratch();
        e.sweep(tau, &mut rng);
        e.measure(&mut rng);
        e.store_walker(&mut walker);
    }
    shell_pass(&mut e, &shells, &mut ratios);

    e.load_walker(&mut walker);
    let ((), refresh) = allocations(|| e.refresh_from_scratch());
    // The first in-sweep recompute comes 8 (SP) or 64 (DP) sweeps of
    // accepted moves after a refresh.
    let (accepted, n) = allocations(|| {
        (0..4)
            .map(|_| e.sweep(tau, &mut rng).accepted)
            .sum::<usize>()
    });
    assert!(accepted > 0, "{label}: no move accepted in 4 sweeps");
    assert_eq!(n, 0, "{label}: 4 sweeps after a refresh allocated");

    let ((), n) = allocations(|| e.store_walker(&mut walker));
    assert_eq!(n, 0, "{label}: store_walker allocated");
    let ((), n) = allocations(|| e.load_walker(&mut walker));
    assert_eq!(n, 0, "{label}: load_walker allocated");

    let ((), n) = allocations(|| shell_pass(&mut e, &shells, &mut ratios));
    assert_eq!(n, 0, "{label}: an NLPP shell (calc_ratios_v) allocated");

    // `measure` minus what the NLPP term allocates: the term is replayed
    // on the same configuration and RNG state, bit for bit.
    let mut replay = rng.clone();
    let (el, in_measure) = allocations(|| e.measure(&mut rng));
    let (nlpp, in_nlpp) = match &e.ham.nlpp {
        Some(pp) => allocations(|| pp.evaluate(&mut e.pset, &mut e.psi, &mut replay)),
        None => (0.0, 0),
    };
    assert_eq!(nlpp.to_bits(), el.nlpp.to_bits(), "{label}: replay differs");
    assert_eq!(
        in_measure - in_nlpp,
        0,
        "{label}: measure allocated outside the NLPP term \
         (kinetic, Coulomb or update_gl)"
    );

    // `put_f64` pushes into retained capacity: a fresh walker's first
    // save allocates, later saves do not.
    let mut fresh = Walker::new(w.initial_positions().to_vec(), 8);
    let ((), first) = allocations(|| e.store_walker(&mut fresh));
    assert!(
        first > 0,
        "{label}: a fresh walker's first save did not allocate"
    );
    let ((), n) = allocations(|| e.store_walker(&mut fresh));
    assert_eq!(n, 0, "{label}: a second save allocated");

    eprintln!(
        "{label}: not asserted: refresh_from_scratch {refresh}, \
         NonLocalPP::evaluate {in_nlpp} allocations"
    );
}

/// Every code version of the ladder on one scaled workload.
fn check_ladder(b: Benchmark) {
    let w = Workload::new(b, Size::Scaled, 5);
    for code in [CodeVersion::Ref, CodeVersion::SoaDouble] {
        check(
            &format!("{b:?} {}", code.label()),
            &w,
            w.build_engine_f64(code),
        );
    }
    for code in [CodeVersion::RefMp, CodeVersion::Current] {
        check(
            &format!("{b:?} {}", code.label()),
            &w,
            w.build_engine_f32(code),
        );
    }
}

#[test]
fn graphite_hot_path_is_allocation_free() {
    check_ladder(Benchmark::Graphite);
}

#[test]
fn be64_hot_path_is_allocation_free() {
    check_ladder(Benchmark::Be64);
}

#[test]
fn nio32_hot_path_is_allocation_free() {
    check_ladder(Benchmark::NiO32);
}
