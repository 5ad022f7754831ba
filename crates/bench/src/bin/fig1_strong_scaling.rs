//! Figure 1: strong scaling of the NiO-64 benchmark, Ref vs Current.
//!
//! The paper runs 32-1024 KNL nodes / BDW sockets with a fixed total DMC
//! population, finding near-ideal parallel efficiency (90% KNL / 98% BDW)
//! and a uniform 2-4.5x Current/Ref gap at every scale — because the
//! optimizations are on-node and leave communication untouched.
//!
//! This host exposes limited hardware parallelism, so ranks are *time-
//! shared* (oversubscribed threads running the full rank protocol: one
//! fork-join per generation, then the allreduce and the exchange of
//! serialized walkers on the coordinator). With the total population fixed,
//! the serialized compute is constant across rank counts, so any wall-time
//! growth is synchronization/communication overhead — precisely the
//! quantity whose smallness the paper's near-ideal slopes demonstrate.
//! Engine construction and walker initialisation are outside the timed
//! generation loop. We
//! report that overhead, the implied parallel efficiency
//! `T_1 / T_R` on an R-core machine, and the Ref/Current speedup per rank
//! count.

use qmc_bench::{multi_rank_throughput, HarnessConfig};
use qmc_workloads::{Benchmark, CodeVersion};

fn main() {
    let cfg = HarnessConfig::from_env();
    let workload = cfg.workload(Benchmark::NiO64);
    let ranks_list = [1usize, 2, 4, 8];
    let total_pop = 16; // fixed total population across all rank counts
    let steps = cfg.steps;

    println!(
        "== Fig 1: strong scaling (simulated ranks), NiO-64 ({} electrons), fixed population {} ==",
        workload.num_electrons(),
        total_pop
    );
    println!(
        "{:>6} {:>13} {:>13} {:>11} {:>11} {:>9} {:>10}",
        "ranks", "Ref ms/samp", "Cur ms/samp", "Ref ovh%", "Cur ovh%", "speedup", "impl.eff%"
    );

    // Populations drift per rank count, so the scale-invariant quantity is
    // the serialized time per Monte Carlo sample.
    let (mut t1_ref, mut t1_cur) = (0.0f64, 0.0f64);
    let mut msg_sizes = (0u64, 0u64, 0u64, 0u64); // (ref bytes, ref count, cur bytes, cur count)
    for &ranks in &ranks_list {
        let rr = multi_rank_throughput(
            &workload,
            CodeVersion::Ref,
            ranks,
            total_pop,
            steps,
            cfg.seed,
        );
        let rc2 = multi_rank_throughput(
            &workload,
            CodeVersion::Current,
            ranks,
            total_pop,
            steps,
            cfg.seed,
        );
        let (sec_ref, samp_ref) = (rr.seconds, rr.samples);
        let (sec_cur, samp_cur) = (rc2.seconds, rc2.samples);
        msg_sizes.0 += rr.bytes_exchanged;
        msg_sizes.1 += rr.exchanged;
        msg_sizes.2 += rc2.bytes_exchanged;
        msg_sizes.3 += rc2.exchanged;
        let per_ref = sec_ref / samp_ref.max(1) as f64 * 1e3;
        let per_cur = sec_cur / samp_cur.max(1) as f64 * 1e3;
        if ranks == 1 {
            t1_ref = per_ref;
            t1_cur = per_cur;
        }
        let ovh_ref = (per_ref / t1_ref - 1.0) * 100.0;
        let ovh_cur = (per_cur / t1_cur - 1.0) * 100.0;
        // With constant serialized per-sample work, an R-core machine would
        // take per_R / R per sample; efficiency vs ideal per_1 / R is
        // per_1 / per_R.
        let eff = t1_cur / per_cur * 100.0;
        println!(
            "{:>6} {:>13.2} {:>13.2} {:>10.1}% {:>10.1}% {:>8.2}x {:>9.1}%",
            ranks,
            per_ref,
            per_cur,
            ovh_ref,
            ovh_cur,
            per_ref / per_cur,
            eff
        );
    }
    if msg_sizes.1 > 0 && msg_sizes.3 > 0 {
        let ref_mb = msg_sizes.0 as f64 / msg_sizes.1 as f64 / 1e6;
        let cur_mb = msg_sizes.2 as f64 / msg_sizes.3 as f64 / 1e6;
        println!(
            "\nserialized walker message: Ref {ref_mb:.2} MB, Current {cur_mb:.2} MB \
             ({:.2} MB smaller; paper: 22.5 MB smaller for full NiO-64)",
            ref_mb - cur_mb
        );
    }
    println!(
        "\n(shape per the paper: overheads stay within a few percent of the\n\
         single-rank time -> near-ideal implied efficiency at every scale;\n\
         the Current/Ref speedup is uniform across rank counts because the\n\
         optimizations never touch the communication pattern.)"
    );
}
