//! From driver callbacks to end-to-end metrics. A *round* is one fixed-size
//! run of a workload; a benchmark run repeats same-seed rounds until its
//! time is up. Everything here is computed from timestamps taken outside
//! the program, at the drivers' `on_block` callback.

use crate::stats::{fast_quartile, median, min_max, steps_per_thread};

/// What the `on_block` callback saw after one generation (VMC: block).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct BlockSample {
    /// Seconds since the round's clock started, taken inside the callback.
    pub t_s: f64,
    /// Walkers alive after this generation's branching.
    pub population: usize,
    /// Cumulative post-warm-up samples the driver reports.
    pub samples: u64,
    /// This generation's energy estimate.
    pub e_block: f64,
}

/// One same-seed repetition of a workload, as measured and as reported by
/// the program itself.
#[derive(Clone, Debug)]
pub struct Round {
    /// One entry per completed generation, in order.
    pub blocks: Vec<BlockSample>,
    /// Digest of the final walker population.
    pub walker_hash: u64,
    /// Move acceptance ratio.
    pub acceptance: f64,
    /// `(mean, standard error)` of the energy estimator.
    pub energy: (f64, f64),
    /// Bytes of one walker.
    pub walker_bytes: usize,
    /// Share of one CPU's time the hypervisor took away during the round.
    pub stolen_share: f64,
}

/// How a workload's rounds are shaped and judged.
#[derive(Clone, Copy, Debug)]
pub struct RoundRules {
    /// Worker threads.
    pub threads: usize,
    /// Target population.
    pub walkers: usize,
    /// Generations excluded from every timing (at least 1: the first
    /// generation has no callback before it to time it from).
    pub warmup: usize,
    /// Sweeps one walker makes per generation (DMC: 1; VMC: sweeps per
    /// block).
    pub sweeps_per_block: usize,
    /// Inclusive acceptance band of a correct round.
    pub acceptance: (f64, f64),
}

/// Timings of one round's post-warm-up generations.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct RoundTimings {
    /// Post-warm-up samples per second of driver-loop wall.
    pub samples_per_s: f64,
    /// One value per generation: wall / (sweeps x ceil(population /
    /// threads)), in milliseconds.
    pub walker_step_ms: Vec<f64>,
}

/// Timings of the generations after warm-up. Generation `g` runs from
/// callback `g - 1` to callback `g` and advances the population callback
/// `g - 1` reported.
pub fn round_timings(blocks: &[BlockSample], rules: &RoundRules) -> RoundTimings {
    let first = rules.warmup.max(1);
    if blocks.len() <= first {
        return RoundTimings::default();
    }
    let walker_step_ms = (first..blocks.len())
        .map(|g| {
            let steps =
                steps_per_thread(blocks[g - 1].population, rules.threads) * rules.sweeps_per_block;
            (blocks[g].t_s - blocks[g - 1].t_s) * 1e3 / steps as f64
        })
        .collect();
    let (start, end) = (blocks[first - 1], blocks[blocks.len() - 1]);
    RoundTimings {
        samples_per_s: (end.samples - start.samples) as f64 / (end.t_s - start.t_s),
        walker_step_ms,
    }
}

/// Generations of a round that fail their own output check: a non-finite
/// block energy, an empty population, or one above four times the target.
pub fn failed_generations(blocks: &[BlockSample], rules: &RoundRules) -> usize {
    blocks
        .iter()
        .filter(|b| !b.e_block.is_finite() || b.population == 0 || b.population > 4 * rules.walkers)
        .count()
}

/// Recorded energy of a workload at one seed, for the reference check.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct EnergyRef {
    /// Workload seed the reference was recorded at.
    pub seed: u64,
    /// Mean energy.
    pub mean: f64,
    /// Standard error of that mean.
    pub sem: f64,
}

/// Why a whole round is wrong, if it is: its population digest differs
/// from the first same-seed round, its acceptance left the band, or its
/// energy is farther than 6 combined standard errors from the reference.
pub fn round_failure(
    round: &Round,
    first: &Round,
    rules: &RoundRules,
    reference: Option<&EnergyRef>,
) -> Option<String> {
    if round.walker_hash != first.walker_hash {
        return Some(format!(
            "walker_hash {:016x} differs from the first round's {:016x}",
            round.walker_hash, first.walker_hash
        ));
    }
    let (lo, hi) = rules.acceptance;
    if !(lo..=hi).contains(&round.acceptance) {
        return Some(format!(
            "acceptance {:.4} outside [{lo}, {hi}]",
            round.acceptance
        ));
    }
    if let Some(r) = reference {
        let (mean, sem) = round.energy;
        // A run too short for the blocking estimate reports a NaN error;
        // the recorded one then stands for both.
        let sem = if sem.is_finite() { sem } else { r.sem };
        let combined = (sem * sem + r.sem * r.sem).sqrt();
        if !mean.is_finite() || (mean - r.mean).abs() > 6.0 * combined {
            return Some(format!(
                "energy {mean} is more than 6 SEM ({combined:.3e}) from the reference {}",
                r.mean
            ));
        }
    }
    None
}

/// A reported value with its smallest and largest per-round values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spread {
    /// The reported value: the fast-side quartile over rounds.
    pub value: f64,
    /// Smallest per-round value.
    pub min: f64,
    /// Largest per-round value.
    pub max: f64,
}

/// Largest [`Round::stolen_share`] of a round whose timings count.
pub const MAX_STOLEN_SHARE: f64 = 0.03;

/// Fewest rounds under [`MAX_STOLEN_SHARE`] for the others to be left out
/// of the timings; with fewer, every round counts.
pub const MIN_QUIET_ROUNDS: usize = 3;

/// The timing metrics of a run and its operation counts. Every value is
/// the fast-side quartile over rounds of a per-round statistic
/// ([`crate::stats::fast_quartile`]): a round is short against the slow
/// periods of a shared host, so it is either disturbed or not, and the
/// quartile reads the undisturbed ones while they are at least a quarter.
/// Rounds the hypervisor visibly took CPU time from are left out first
/// (output checks still cover them).
#[derive(Clone, Debug)]
pub struct RunSummary {
    /// Per-round throughput.
    pub samples_per_s: Spread,
    /// Per-round median generation.
    pub walker_step_ms_p50: Spread,
    /// Generations timed, over all rounds.
    pub step_samples: usize,
    /// Rounds run.
    pub rounds: usize,
    /// Rounds whose timings count.
    pub timed_rounds: usize,
    /// Generations run, warm-up included.
    pub attempted: usize,
    /// Generations that failed, every generation of a failed round
    /// included.
    pub failed: usize,
    /// One line per failure cause, for the log.
    pub failures: Vec<String>,
}

/// Folds the rounds of one run into its summary.
pub fn summarize(
    rounds: &[Round],
    rules: &RoundRules,
    reference: Option<&EnergyRef>,
) -> RunSummary {
    let mut throughput = Vec::new();
    let mut p50 = Vec::new();
    let (mut step_samples, mut attempted, mut failed) = (0, 0, 0);
    let mut failures = Vec::new();
    let quiet = |r: &Round| r.stolen_share <= MAX_STOLEN_SHARE;
    let all_count = rounds.iter().filter(|r| quiet(r)).count() < MIN_QUIET_ROUNDS;
    for (i, round) in rounds.iter().enumerate() {
        attempted += round.blocks.len();
        let timings = round_timings(&round.blocks, rules);
        if let Some(why) = round_failure(round, &rounds[0], rules, reference) {
            failed += round.blocks.len();
            failures.push(format!("round {i}: {why}"));
        } else {
            let bad = failed_generations(&round.blocks, rules);
            if bad > 0 {
                failures.push(format!(
                    "round {i}: {bad} generation(s) with a bad energy or population"
                ));
            }
            failed += bad;
        }
        if all_count || quiet(round) {
            throughput.push(timings.samples_per_s);
            p50.push(median(&timings.walker_step_ms));
            step_samples += timings.walker_step_ms.len();
        }
    }
    let spread = |per_round: &[f64], higher_is_better: bool| {
        let (min, max) = min_max(per_round);
        Spread {
            value: fast_quartile(per_round, higher_is_better),
            min,
            max,
        }
    };
    RunSummary {
        samples_per_s: spread(&throughput, true),
        walker_step_ms_p50: spread(&p50, false),
        step_samples,
        rounds: rounds.len(),
        timed_rounds: throughput.len(),
        attempted,
        failed,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const RULES: RoundRules = RoundRules {
        threads: 2,
        walkers: 4,
        warmup: 1,
        sweeps_per_block: 1,
        acceptance: (0.9, 1.0),
    };

    fn block(t_s: f64, population: usize, samples: u64) -> BlockSample {
        BlockSample {
            t_s,
            population,
            samples,
            e_block: -1.0,
        }
    }

    fn round(blocks: Vec<BlockSample>) -> Round {
        Round {
            blocks,
            walker_hash: 7,
            acceptance: 0.95,
            energy: (-1.0, 0.1),
            walker_bytes: 1024,
            stolen_share: 0.0,
        }
    }

    #[test]
    fn generation_time_is_normalised_by_the_largest_chunk() {
        // Generation 1 advances the 4 walkers callback 0 reported (2 per
        // thread), generation 2 the 5 walkers callback 1 reported (3).
        let blocks = [block(1.0, 4, 0), block(1.2, 5, 4), block(1.5, 4, 9)];
        let t = round_timings(&blocks, &RULES);
        assert_eq!(t.walker_step_ms.len(), 2);
        assert!((t.walker_step_ms[0] - 100.0).abs() < 1e-9);
        assert!((t.walker_step_ms[1] - 100.0).abs() < 1e-9);
        assert!((t.samples_per_s - 18.0).abs() < 1e-9);
    }

    #[test]
    fn vmc_blocks_divide_by_sweeps_too() {
        let rules = RoundRules {
            threads: 1,
            walkers: 8,
            sweeps_per_block: 10,
            ..RULES
        };
        let blocks = [block(0.5, 8, 80), block(0.9, 8, 160)];
        let t = round_timings(&blocks, &rules);
        assert!((t.walker_step_ms[0] - 5.0).abs() < 1e-9);
        assert!((t.samples_per_s - 200.0).abs() < 1e-9);
    }

    #[test]
    fn warmup_only_round_has_no_timings() {
        let t = round_timings(&[block(1.0, 4, 0)], &RULES);
        assert!(t.walker_step_ms.is_empty());
    }

    #[test]
    fn bad_generations_are_counted() {
        let mut blocks = vec![block(1.0, 4, 0), block(2.0, 17, 4), block(3.0, 0, 4)];
        blocks[0].e_block = f64::NAN;
        assert_eq!(failed_generations(&blocks, &RULES), 3);
        assert_eq!(failed_generations(&[block(1.0, 16, 0)], &RULES), 0);
    }

    #[test]
    fn a_failed_round_fails_all_its_generations() {
        let good = round(vec![block(1.0, 4, 0), block(1.2, 4, 4), block(1.4, 4, 8)]);
        let mut other_hash = good.clone();
        other_hash.walker_hash = 8;
        let mut off_band = good.clone();
        off_band.acceptance = 0.5;
        let s = summarize(
            &[good.clone(), other_hash, off_band, good.clone()],
            &RULES,
            None,
        );
        assert_eq!((s.attempted, s.failed, s.rounds), (12, 6, 4));
        assert_eq!(s.failures.len(), 2);
        assert_eq!(s.step_samples, 8);
        assert!((s.walker_step_ms_p50.value - 100.0).abs() < 1e-9);
        assert!((s.samples_per_s.value - 20.0).abs() < 1e-9);
    }

    #[test]
    fn rounds_the_hypervisor_stole_from_are_left_out_of_the_timings() {
        let mk = |dt: f64, stolen_share: f64| Round {
            stolen_share,
            ..round(vec![block(1.0, 4, 0), block(1.0 + dt, 4, 4)])
        };
        let quiet = [mk(0.2, 0.0), mk(0.2, 0.01), mk(0.2, 0.02)];
        let mut rounds = quiet.to_vec();
        rounds.extend([mk(0.1, 0.5), mk(0.1, 0.2), mk(0.1, 0.04), mk(0.1, 0.3)]);
        let s = summarize(&rounds, &RULES, None);
        assert_eq!((s.rounds, s.timed_rounds, s.attempted), (7, 3, 14));
        assert!((s.samples_per_s.value - 20.0).abs() < 1e-9);
        assert!((s.samples_per_s.max - 20.0).abs() < 1e-9);
        // Too few quiet rounds to stand alone: every round counts.
        let s = summarize(&rounds[1..], &RULES, None);
        assert_eq!((s.rounds, s.timed_rounds), (6, 6));
        assert!((s.samples_per_s.max - 40.0).abs() < 1e-9);
    }

    #[test]
    fn energy_reference_uses_six_combined_sem() {
        let r = round(vec![block(1.0, 4, 0), block(1.2, 4, 4)]);
        let near = EnergyRef {
            seed: 42,
            mean: -1.5,
            sem: 0.1,
        };
        let far = EnergyRef { mean: -2.0, ..near };
        assert!(round_failure(&r, &r, &RULES, Some(&near)).is_none());
        assert!(round_failure(&r, &r, &RULES, Some(&far)).is_some());
        let mut short = r.clone();
        short.energy.1 = f64::NAN;
        assert!(round_failure(&short, &short, &RULES, Some(&near)).is_none());
    }

    #[test]
    fn reported_value_is_the_fast_quartile_with_round_extremes() {
        let mk = |dt: f64| round(vec![block(1.0, 4, 0), block(1.0 + dt, 4, 4)]);
        // Throughputs 20, 10, 40, 20, 20 and generation times 100, 200, 50,
        // 100, 100 ms: one round disturbed, one lucky.
        let s = summarize(&[mk(0.2), mk(0.4), mk(0.1), mk(0.2), mk(0.2)], &RULES, None);
        assert!((s.samples_per_s.value - 20.0).abs() < 1e-9);
        assert!((s.samples_per_s.min - 10.0).abs() < 1e-9);
        assert!((s.samples_per_s.max - 40.0).abs() < 1e-9);
        assert!((s.walker_step_ms_p50.value - 100.0).abs() < 1e-9);
        assert_eq!((s.failed, s.step_samples), (0, 5));
    }
}
