//! Table 3: CPU throttling percentages under temperature control
//! (Section 6.2) and the resulting throughput gain.
//!
//! Setup: SMT on (36 tasks), per-CPU thermal calibration with
//! heterogeneous cooling, an artificial 38 degC limit to force
//! throttling, and `hlt` enforcement. The paper reports per-logical
//! throttle percentages dropping on every affected CPU when energy
//! balancing is on (average 15.2 % -> 10.2 %) and a 4.7 % throughput
//! increase (4.9 % with short tasks, where initial placement matters
//! most).

use crate::experiments::short_task;
use crate::fmt::{pct, Table};
use crate::testbed_cooling_factors;
use ebs_sim::{run_seeds, MaxPowerSpec, SimConfig, SimReport};
use ebs_units::{Celsius, SimDuration};
use ebs_workloads::section61_mix;

/// The Table 3 result.
#[derive(Clone, Debug)]
pub struct Table3 {
    /// Per-logical-CPU throttle fraction, energy balancing disabled.
    pub throttled_disabled: Vec<f64>,
    /// Per-logical-CPU throttle fraction, energy balancing enabled.
    pub throttled_enabled: Vec<f64>,
    /// Averages over all CPUs (disabled, enabled).
    pub avg: (f64, f64),
    /// Throughput gain of enabled over disabled (long-running tasks).
    pub throughput_gain: f64,
    /// Throughput gain with the short-task workload (completions).
    pub short_task_gain: f64,
}

fn base_config() -> SimConfig {
    SimConfig::xseries445()
        .smt(true)
        .throttling(true)
        .cooling_factors(testbed_cooling_factors())
        .max_power(MaxPowerSpec::FromThermalLimit(Celsius(38.0)))
}

fn averaged(reports: &[SimReport]) -> (Vec<f64>, f64, f64) {
    let topo = base_config().topology_builder().build();
    let n_cpus = topo.n_cpus();
    let per_report: Vec<Vec<f64>> = reports
        .iter()
        .map(|r| r.cpu_throttled_fractions(&topo).collect())
        .collect();
    let per_cpu: Vec<f64> = (0..n_cpus)
        .map(|c| per_report.iter().map(|f| f[c]).sum::<f64>() / reports.len() as f64)
        .collect();
    let avg = per_cpu.iter().sum::<f64>() / n_cpus as f64;
    let ips = reports.iter().map(|r| r.throughput_ips).sum::<f64>() / reports.len() as f64;
    (per_cpu, avg, ips)
}

/// Runs the Table 3 experiment.
pub fn run(quick: bool) -> Table3 {
    let duration = SimDuration::from_secs(if quick { 300 } else { 900 });
    let seeds: &[u64] = if quick {
        &crate::SEEDS[..2]
    } else {
        &crate::SEEDS[..3]
    };
    let mix = section61_mix();

    let runs = |on: bool| {
        run_seeds(&base_config().energy_aware(on), seeds, duration, |sim| {
            sim.spawn_mix(&mix, 6)
        })
    };
    let off = runs(false);
    let on = runs(true);
    let (throttled_disabled, avg_off, ips_off) = averaged(&off);
    let (throttled_enabled, avg_on, ips_on) = averaged(&on);

    // Short-task variant: completions per second is the throughput.
    let short_mix: Vec<_> = section61_mix().iter().map(short_task).collect();
    let short_duration = SimDuration::from_secs(if quick { 200 } else { 600 });
    let short_runs = |on: bool| {
        run_seeds(
            &base_config().energy_aware(on),
            seeds,
            short_duration,
            |sim| sim.spawn_mix(&short_mix, 6),
        )
    };
    let s_off = short_runs(false);
    let s_on = short_runs(true);
    let completions =
        |rs: &[SimReport]| rs.iter().map(|r| r.completions as f64).sum::<f64>() / rs.len() as f64;
    let short_task_gain = completions(&s_on) / completions(&s_off) - 1.0;

    Table3 {
        throttled_disabled,
        throttled_enabled,
        avg: (avg_off, avg_on),
        throughput_gain: ips_on / ips_off - 1.0,
        short_task_gain,
    }
}

impl Table3 {
    /// Indices of CPUs that throttled in either run (the rows the
    /// paper prints; the others "had to be throttled in neither run").
    pub fn interesting_cpus(&self) -> Vec<usize> {
        (0..self.throttled_disabled.len())
            .filter(|&c| self.throttled_disabled[c] > 0.005 || self.throttled_enabled[c] > 0.005)
            .collect()
    }
}

impl core::fmt::Display for Table3 {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        writeln!(
            f,
            "Table 3: CPU throttling percentage (38 degC limit, SMT on)"
        )?;
        let mut t = Table::new(vec!["logical CPU", "EB disabled", "EB enabled"]);
        for c in self.interesting_cpus() {
            t.row(vec![
                c.to_string(),
                pct(self.throttled_disabled[c]),
                pct(self.throttled_enabled[c]),
            ]);
        }
        t.row(vec![
            "average".to_string(),
            pct(self.avg.0),
            pct(self.avg.1),
        ]);
        write!(f, "{t}")?;
        writeln!(
            f,
            "throughput gain: {} (paper: 4.7%); short tasks: {} (paper: 4.9%)",
            pct(self.throughput_gain),
            pct(self.short_task_gain)
        )?;
        writeln!(f, "(paper average: 15.2% disabled, 10.2% enabled)")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn energy_balancing_reduces_throttling_and_raises_throughput() {
        let t = run(true);
        // Some CPUs throttle, some never do (heterogeneous cooling).
        assert!(!t.interesting_cpus().is_empty(), "nothing throttled");
        assert!(
            t.interesting_cpus().len() < t.throttled_disabled.len(),
            "every CPU throttled — cooling heterogeneity missing"
        );
        // The average throttle percentage drops with balancing.
        assert!(
            t.avg.1 < t.avg.0,
            "throttling did not drop: {} -> {}",
            t.avg.0,
            t.avg.1
        );
        // And throughput improves by low single-digit percent.
        assert!(
            t.throughput_gain > 0.005,
            "throughput gain {}",
            t.throughput_gain
        );
        assert!(
            t.short_task_gain > 0.0,
            "short-task gain {}",
            t.short_task_gain
        );
    }

    #[test]
    fn sibling_pairs_throttle_together() {
        // Throttling is a package-level decision: hardware threads c
        // and c+8 report identical fractions.
        let t = run(true);
        for c in 0..8 {
            assert!(
                (t.throttled_disabled[c] - t.throttled_disabled[c + 8]).abs() < 1e-9,
                "cpu{c} vs cpu{}",
                c + 8
            );
        }
    }
}
