//! What the benchmark reads from the operating system about itself: peak
//! memory, and how much CPU time the hypervisor took away.

/// `VmHWM` of this process in MiB (NaN where `/proc` has none).
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// `(steal, all)` ticks summed over CPUs, from the first line of
/// `/proc/stat`: `cpu user nice system idle iowait irq softirq steal ...`.
fn cpu_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    parse_cpu_line(stat.lines().next()?)
}

fn parse_cpu_line(line: &str) -> Option<(u64, u64)> {
    let mut fields = line.split_ascii_whitespace();
    if fields.next()? != "cpu" {
        return None;
    }
    // Guest time (fields 9 and 10) is already inside user and nice.
    let ticks: Vec<u64> = fields.take(8).map_while(|f| f.parse().ok()).collect();
    (ticks.len() == 8).then(|| (ticks[7], ticks.iter().sum()))
}

/// Measures the share of one CPU's time that was stolen by the hypervisor
/// over an interval. A stolen tick is one in which a runnable virtual CPU
/// was not run; the idle second CPU accrues none, so the steal of the
/// interval is the busy worker's.
pub struct StealClock(Option<(u64, u64)>);

impl StealClock {
    /// Starts the interval.
    pub fn start() -> Self {
        Self(cpu_ticks())
    }

    /// Stolen share of one CPU since [`Self::start`]; 0 where the kernel
    /// reports no steal time.
    pub fn stolen_share(&self) -> f64 {
        let cpus = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);
        match (self.0, cpu_ticks()) {
            (Some((s0, t0)), Some((s1, t1))) if t1 > t0 => {
                (s1 - s0) as f64 * cpus as f64 / (t1 - t0) as f64
            }
            _ => 0.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_line_yields_steal_and_total() {
        let line = "cpu  308148 0 18930 513140 1209 0 2080 18483 0 0";
        let total = 308_148 + 18_930 + 513_140 + 1_209 + 2_080 + 18_483;
        assert_eq!(parse_cpu_line(line), Some((18_483, total)));
        assert_eq!(parse_cpu_line("cpu0 1 2 3 4 5 6 7 8"), None);
        assert_eq!(parse_cpu_line("cpu 1 2 3"), None);
    }

    #[test]
    fn an_interval_with_no_ticks_reads_zero() {
        let clock = StealClock::start();
        assert_eq!(clock.stolen_share(), 0.0);
        assert!(StealClock(None).stolen_share() == 0.0);
    }
}
