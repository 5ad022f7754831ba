//! The paper's §8 evaluation from one set of runs. Every figure and table
//! of it compares the code ladder Ref → Ref+MP → Current on the Table 1
//! workloads, so this binary runs each distinct (workload, code, batching)
//! rung once — the best of `--reps` — and renders Fig. 2, Fig. 7, Fig. 8,
//! Fig. 9, Table 2 and the §7 ablation from that one table of
//! `RunReport`s: two sections that read a rung read the same run.
//!
//! The rungs are the four benchmarks under Ref, Current and Current in
//! lock-step crowds of `walkers.clamp(1, 4)`, plus Ref+MP on NiO-32 and
//! NiO-64 (Fig. 8) and SoA(dp) on NiO-32 (the ablation): 15 runs. Each
//! workload is built once and dropped before the next one is built.

use qmc_bench::{mib, run_report, HarnessConfig};
use qmc_instrument::{current_rss_bytes, probe_machine, Kernel, RunReport, ALL_KERNELS};
use qmc_workloads::{Batching, Benchmark, CodeVersion};

use Benchmark::{NiO32, NiO64};
use CodeVersion::{Current, Ref, RefMp, SoaDouble};

fn main() {
    let ladder = Ladder::measure(HarnessConfig::from_env());
    fig2(&ladder);
    fig7(&ladder);
    fig8(&ladder);
    fig9(&ladder);
    table2(&ladder);
    ablation(&ladder);
}

/// The runs of every rung, in the order they ran.
struct Ladder {
    cfg: HarnessConfig,
    /// Walkers per crowd of the crowd rungs.
    crowd: usize,
    runs: Vec<(Benchmark, CodeVersion, Batching, RunReport)>,
}

impl Ladder {
    fn measure(cfg: HarnessConfig) -> Self {
        let crowd = cfg.walkers.clamp(1, 4);
        let mut runs = Vec::new();
        for b in Benchmark::all() {
            let w = cfg.workload(b);
            // Ref+MP runs on the NiO pair (Fig. 8), SoA(dp) on NiO-32 (the
            // ablation), the other rungs everywhere.
            let wanted = [true, matches!(b, NiO32 | NiO64), b == NiO32, true];
            let rungs = [Ref, RefMp, SoaDouble, Current]
                .into_iter()
                .zip(wanted)
                .filter_map(|(code, want)| want.then_some((code, Batching::PerWalker)))
                .chain([(Current, Batching::Crowd(crowd))]);
            for (code, batching) in rungs {
                eprintln!("ladder: {} {} {batching:?}", w.spec.name, code.label());
                runs.push((b, code, batching, run_report(&w, code, &cfg, batching)));
            }
        }
        Self { cfg, crowd, runs }
    }

    fn find(&self, b: Benchmark, code: CodeVersion, batching: Batching) -> &RunReport {
        let key = (b, code, batching);
        let run = self.runs.iter().find(|r| (r.0, r.1, r.2) == key);
        &run.expect("every section reads a rung the ladder ran").3
    }

    /// The per-walker run of `code` on `b`.
    fn get(&self, b: Benchmark, code: CodeVersion) -> &RunReport {
        self.find(b, code, Batching::PerWalker)
    }

    /// The crowd-batched Current run on `b`.
    fn crowd_run(&self, b: Benchmark) -> &RunReport {
        self.find(b, Current, Batching::Crowd(self.crowd))
    }
}

/// Figure 2: normalized hot-spot profiles of the NiO benchmarks, Ref vs
/// Current.
///
/// As in the paper, the Current profile is plotted on the Ref time axis
/// ("Current version profiles accommodate the speedup wrt. Ref"): each
/// Current kernel share is scaled by `T_current / T_ref`, so shrinking
/// bars show where the time went.
fn fig2(ladder: &Ladder) {
    for b in [NiO32, NiO64] {
        let (r, c) = (ladder.get(b, Ref), ladder.get(b, Current));
        println!(
            "\n== Fig 2: hot-spot profile, {} ({} electrons) ==",
            r.benchmark, r.electrons
        );
        let (t_ref, t_cur) = (r.profile.total_seconds(), c.profile.total_seconds());
        let speed = r.seconds / c.seconds;
        println!(
            "wall: Ref {:.3}s, Current {:.3}s  ->  speedup {speed:.2}x",
            r.seconds, c.seconds
        );
        println!(
            "{:<14} {:>12} {:>18} {:>12}",
            "kernel", "Ref share", "Current (Ref axis)", "kernel speedup"
        );
        for &k in &ALL_KERNELS {
            let (sr, sc) = (r.profile.get(k).seconds(), c.profile.get(k).seconds());
            if sr < 1e-6 && sc < 1e-6 {
                continue;
            }
            let share_ref = sr / t_ref * 100.0;
            // Scale Current shares onto the Ref axis.
            let share_cur = sc / t_cur * (t_cur / t_ref) * 100.0;
            let kspeed = if sc > 0.0 { sr / sc } else { f64::INFINITY };
            let label = k.label();
            println!("{label:<14} {share_ref:>11.1}% {share_cur:>17.1}% {kspeed:>11.2}x");
        }

        // Crowd-batched Current: the lock-step path routes SPO work through
        // the fused multi-walker kernel, so `Bspline-mw-vgl` is live here
        // (it is structurally zero in the per-walker profiles above).
        let crowd_out = ladder.crowd_run(b);
        let t_crowd = crowd_out.profile.total_seconds();
        println!(
            "\nCurrent, crowd({}) batching — batched-kernel shares:",
            ladder.crowd
        );
        for &k in &ALL_KERNELS {
            let s = crowd_out.profile.get(k).seconds();
            if s >= 1e-6 {
                println!("{:<14} {:>11.1}%", k.label(), s / t_crowd * 100.0);
            }
        }
    }
    println!(
        "\n(expected shape per the paper: DistTable+J2 dominate Ref and shrink\n\
         the most; DetUpdate's share grows in Current, motivating §8.4.)"
    );
}

const ROOFLINE_KERNELS: [Kernel; 6] = [
    Kernel::DistTableAA,
    Kernel::J1,
    Kernel::J2,
    Kernel::BsplineV,
    Kernel::BsplineVGH,
    Kernel::SpoVGL,
];

/// Figure 7: hot-spot profile and roofline analysis of NiO-32, Ref vs
/// Current.
///
/// The roofline (Williams et al.) locates each kernel at its arithmetic
/// intensity (model-counted FLOPs / bytes) and achieved GFLOP/s, against
/// machine ceilings measured by a microbenchmark probe (substitute for
/// Intel Advisor; see DESIGN.md). The paper's observation: the SoA +
/// mixed-precision transformation moves DistTable, J2, Bspline-vgh and
/// SPO-vgl up and to the right.
fn fig7(ladder: &Ladder) {
    let (r, c) = (ladder.get(NiO32, Ref), ladder.get(NiO32, Current));
    println!(
        "\n== Fig 7: roofline + hot spots, {} ({} electrons) ==",
        r.benchmark, r.electrons
    );
    println!("probing machine ceilings (single thread)...");
    let machine = probe_machine();
    println!(
        "peak (scalar-FMA probe): {:.2} SP GFLOP/s, {:.2} DP GFLOP/s; stream {:.1} GB/s",
        machine.peak_sp_gflops, machine.peak_dp_gflops, machine.bandwidth_gbs
    );
    let (sp, dp) = (machine.ridge(true), machine.ridge(false));
    println!("ridge points: SP {sp:.3} F/B, DP {dp:.3} F/B\n");

    println!(
        "{:<14} {:>10} {:>10} {:>10} {:>10} {:>10} {:>10}",
        "kernel", "Ref AI", "Ref GF/s", "Cur AI", "Cur GF/s", "AI gain", "GF gain"
    );
    // Arithmetic intensity and GFLOP/s of kernel `k` in `run`, 0 if unmeasured.
    let point = |run: &RunReport, k| {
        let s = run.profile.get(k);
        (
            s.arithmetic_intensity().unwrap_or(0.0),
            s.gflops().unwrap_or(0.0),
        )
    };
    let gain = |cur: f64, base: f64| if base > 0.0 { cur / base } else { 0.0 };
    for &k in &ROOFLINE_KERNELS {
        let ((rai, rgf), (cai, cgf)) = (point(r, k), point(c, k));
        let (ai_gain, gf_gain) = (gain(cai, rai), gain(cgf, rgf));
        println!(
            "{:<14} {rai:>10.2} {rgf:>10.2} {cai:>10.2} {cgf:>10.2} {ai_gain:>9.2}x {gf_gain:>9.2}x",
            k.label()
        );
    }

    println!("\nattainable GFLOP/s at each kernel's AI (Current, SP ceiling):");
    for &k in &ROOFLINE_KERNELS {
        let s = c.profile.get(k);
        if let (Some(ai), Some(gf)) = (s.arithmetic_intensity(), s.gflops()) {
            let att = machine.attainable(ai, true);
            let roof = gf / att * 100.0;
            println!(
                "  {:<14} AI {ai:>6.2}  achieved {gf:>7.2}  attainable {att:>7.2}  ({roof:>4.0}% of roof)",
                k.label()
            );
        }
    }

    println!(
        "\nkernel speedups Ref -> Current (paper: DistTable 5x, J2 8x, vgh 1.7x, v 1.3x on BDW):"
    );
    for &k in &ROOFLINE_KERNELS {
        let (sr, sc) = (r.profile.get(k).seconds(), c.profile.get(k).seconds());
        if sr > 1e-6 && sc > 1e-6 {
            println!("  {:<14} {:>6.2}x", k.label(), sr / sc);
        }
    }
}

/// Figure 8: "Speedup and memory-usage reduction of NiO benchmarks" —
/// throughput (normalized to Ref) and memory usage for NiO-32 and NiO-64
/// across the paper's three code versions (Ref, Ref+MP, Current).
///
/// The memory model is the paper's: shared read-only spline table +
/// per-thread engine state + per-walker buffers
/// (`gamma (N_th + N_w) N^2` + table).
fn fig8(ladder: &Ladder) {
    let cfg = &ladder.cfg;
    for b in [NiO32, NiO64] {
        let base = ladder.get(b, Ref);
        println!(
            "\n== Fig 8: {} ({} electrons), {} threads, {} walkers ==",
            base.benchmark, base.electrons, cfg.threads, cfg.walkers
        );
        println!(
            "{:<10} {:>14} {:>10} {:>12} {:>12} {:>12} {:>12}",
            "version", "samp/s", "speedup", "table MiB", "engine MiB", "walker MiB", "total MiB"
        );
        for out in CodeVersion::paper_ladder().map(|code| ladder.get(b, code)) {
            let thr = out.throughput();
            println!(
                "{:<10} {:>14.1} {:>9.2}x {:>12.1} {:>12.2} {:>12.2} {:>12.1}",
                out.code,
                thr,
                thr / base.throughput(),
                mib(out.table_bytes),
                mib(out.engine_bytes),
                mib(out.walker_bytes),
                mib(out.total_bytes())
            );
        }
    }
    println!(
        "\n(expected shape per the paper: Ref+MP gains more on the larger,\n\
         bandwidth-bound NiO-64; Current more than doubles Ref+MP; memory\n\
         decreases monotonically down the ladder.)"
    );
}

/// Figure 9: memory usage of all four benchmarks, Ref vs Current.
///
/// The paper shows O(N^2) memory savings up to 3.8x (36 GB for NiO-64),
/// letting every benchmark fit KNL's 16 GB MCDRAM. We report the same
/// node-memory model (table + N_th engines + N_w walker buffers) for both
/// versions, plus the measured process RSS as a cross-check.
fn fig9(ladder: &Ladder) {
    let (threads, walkers) = (ladder.cfg.threads, ladder.cfg.walkers);
    println!(
        "\n== Fig 9: memory usage (model: table + {threads} engines + {walkers} walkers) ==\n"
    );
    println!(
        "{:<10} {:>6} {:>14} {:>14} {:>10}",
        "workload", "N", "Ref MiB", "Current MiB", "reduction"
    );
    for b in Benchmark::all() {
        let r = ladder.get(b, Ref);
        let (mr, mc) = (r.total_bytes(), ladder.get(b, Current).total_bytes());
        let reduction = mr as f64 / mc as f64;
        let (name, n, mr, mc) = (&r.benchmark, r.electrons, mib(mr), mib(mc));
        println!("{name:<10} {n:>6} {mr:>14.1} {mc:>14.1} {reduction:>9.2}x");
    }
    if let Some(rss) = current_rss_bytes() {
        println!("\nprocess RSS after all runs: {:.1} MiB", mib(rss));
    }
    println!(
        "\n(expected shape per the paper: up to ~3.8x reduction, growing with\n\
         N; NiO-64's Current footprint fits the 16 GB MCDRAM budget.)"
    );
}

/// Table 2: "Speedup of Current over Ref" for all four benchmarks.
///
/// The paper reports three platforms (BG/Q, BDW, KNL); this reproduction
/// has one host, reported as a single row. The expected shape: speedups in
/// the 1.3-5x band, largest for the biggest problem (NiO-64), smallest for
/// the all-electron Be-64 / small problems.
fn table2(ladder: &Ladder) {
    println!("\n== Table 2: speedup of Current over Ref ==\n");
    println!("paper values for reference:");
    println!(
        "{:<8} {:>10} {:>8} {:>8} {:>8}",
        "", "Graphite", "Be-64", "NiO-32", "NiO-64"
    );
    println!("{:<8} {:>10} {:>8} {:>8} {:>8}", "BG/Q", 1.6, 1.3, 1.3, 2.4);
    println!("{:<8} {:>10} {:>8} {:>8} {:>8}", "BDW", 2.9, 3.4, 2.6, 5.2);
    println!("{:<8} {:>10} {:>8} {:>8} {:>8}", "KNL", 2.2, 2.9, 2.4, 2.4);
    println!();

    // Crowd batching drives the fused multi-walker SPO kernel
    // (`Bspline-mw-vgl`), so the table also reports the batched path.
    let vs_ref = |b, run: &RunReport| run.throughput() / ladder.get(b, Ref).throughput();
    let host = Benchmark::all().map(|b| vs_ref(b, ladder.get(b, Current)));
    let crowd = Benchmark::all().map(|b| vs_ref(b, ladder.crowd_run(b)));
    for (row, values) in [("host", host), ("+crowd", crowd)] {
        print!("{row:<8}");
        for s in values {
            print!("{s:>9.1}x");
        }
        println!();
    }
    println!("\nmeasured (this host, {:?} size):", ladder.cfg.size());
    for (b, s) in Benchmark::all().into_iter().zip(host) {
        println!("  {:<10} {s:.2}x", ladder.get(b, Ref).benchmark);
    }
    let all_above_one = host.iter().all(|&s| s >= 1.0);
    let verdict = if all_above_one {
        "yes"
    } else {
        "NO (investigate)"
    };
    println!("\nall speedups >= 1: {verdict}");
}

/// Ablation of the paper's optimization ladder (§7 steps) on NiO-32:
///
///   Ref  ->  Ref+MP  ->  SoA(double)  ->  Current  ->  Current+crowd
///
/// isolating the contribution of (i) expanded single precision, (ii) the
/// SoA/forward-update/compute-on-the-fly transformation, (iii) their
/// combination, and (iv) lock-step crowd scheduling of Current. The paper
/// only reports Ref / Ref+MP / Current ("other intermediate steps ... can
/// be measured using different build options and miniapps" — this section
/// is that measurement).
fn ablation(ladder: &Ladder) {
    let base = ladder.get(NiO32, Ref);
    println!(
        "\n== Ablation ladder, {} ({} electrons), {} threads ==\n",
        base.benchmark, base.electrons, ladder.cfg.threads
    );
    println!(
        "{:<18} {:>12} {:>9} {:>9} {:>12} {:>10}",
        "version", "samp/s", "vs Ref", "vs prev", "walker MiB", "energy"
    );
    // The last rung is the same Current code driven in lock-step crowds
    // (the batched mw_* kernel path) instead of walker-at-a-time.
    // Statistics are bitwise identical to the Current row; only scheduling
    // changes.
    let per_walker = [Ref, RefMp, SoaDouble, Current].map(|code| (ladder.get(NiO32, code), ""));
    let crowd = format!("+crowd({})", ladder.crowd);
    let mut prev = base.throughput();
    for (out, suffix) in per_walker
        .into_iter()
        .chain([(ladder.crowd_run(NiO32), &*crowd)])
    {
        let (thr, version) = (out.throughput(), format!("{}{suffix}", out.code));
        let (vs_ref, vs_prev) = (thr / base.throughput(), thr / prev);
        let (walker, energy) = (mib(out.walker_bytes), out.energy_mean);
        println!(
            "{version:<18} {thr:>12.1} {vs_ref:>8.2}x {vs_prev:>8.2}x {walker:>12.2} {energy:>10.2}"
        );
        prev = thr;
    }
    println!(
        "\n(each rung should be >= the previous, with the biggest jumps from\n\
         the SoA transformation and its combination with single precision.)"
    );
}
