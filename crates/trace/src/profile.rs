//! Host wall-time accounting per engine phase.
//!
//! The profiler answers "where does a simulated second go?" — the
//! baseline a performance change must beat. Assertions about
//! profiling should stay counter-based (call counts, not wall time):
//! wall times are for human eyes and vary with the host.

use core::fmt;
use std::time::Duration;

/// Per-phase totals of host wall time.
#[derive(Clone, Debug)]
pub struct PhaseProfiler {
    names: Vec<&'static str>,
    totals: Vec<Duration>,
    calls: Vec<u64>,
}

/// One row of the profile table.
#[derive(Clone, Copy, Debug)]
pub struct PhaseRow {
    /// Phase name.
    pub name: &'static str,
    /// Times the phase ran.
    pub calls: u64,
    /// Total host wall time spent in the phase, seconds.
    pub total_s: f64,
    /// Mean host wall time per call, nanoseconds.
    pub mean_ns: f64,
    /// Fraction of the profiled total spent in this phase.
    pub share: f64,
}

impl PhaseProfiler {
    /// A profiler over the given phases (indices are positional).
    pub fn new(names: &[&'static str]) -> Self {
        PhaseProfiler {
            names: names.to_vec(),
            totals: vec![Duration::ZERO; names.len()],
            calls: vec![0; names.len()],
        }
    }

    /// Adds one timed call to phase `phase`.
    pub fn record(&mut self, phase: usize, elapsed: Duration) {
        self.totals[phase] += elapsed;
        self.calls[phase] += 1;
    }

    /// Total calls recorded into phase `phase`.
    pub fn calls(&self, phase: usize) -> u64 {
        self.calls[phase]
    }

    /// The profile as rows, in phase order.
    pub fn rows(&self) -> Vec<PhaseRow> {
        let grand: f64 = self.totals.iter().map(|d| d.as_secs_f64()).sum();
        self.names
            .iter()
            .zip(self.totals.iter().zip(&self.calls))
            .map(|(&name, (total, &calls))| PhaseRow {
                name,
                calls,
                total_s: total.as_secs_f64(),
                mean_ns: if calls == 0 {
                    0.0
                } else {
                    total.as_secs_f64() * 1e9 / calls as f64
                },
                share: if grand == 0.0 {
                    0.0
                } else {
                    total.as_secs_f64() / grand
                },
            })
            .collect()
    }
}

impl fmt::Display for PhaseProfiler {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<12} {:>12} {:>12} {:>10} {:>7}",
            "phase", "calls", "total_ms", "mean_ns", "share"
        )?;
        for row in self.rows() {
            writeln!(
                f,
                "{:<12} {:>12} {:>12.3} {:>10.0} {:>6.1}%",
                row.name,
                row.calls,
                row.total_s * 1e3,
                row.mean_ns,
                row.share * 100.0
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rows_share_and_means_add_up() {
        let mut p = PhaseProfiler::new(&["physics", "sched"]);
        p.record(0, Duration::from_micros(30));
        p.record(0, Duration::from_micros(30));
        p.record(1, Duration::from_micros(40));
        let rows = p.rows();
        assert_eq!(rows[0].calls, 2);
        assert_eq!(rows[1].calls, 1);
        assert!((rows[0].mean_ns - 30_000.0).abs() < 1.0);
        let total_share: f64 = rows.iter().map(|r| r.share).sum();
        assert!((total_share - 1.0).abs() < 1e-12);
        assert!((rows[0].share - 0.6).abs() < 1e-9);
        // The table renders one line per phase plus a header.
        assert_eq!(format!("{p}").lines().count(), 3);
    }

    #[test]
    fn empty_profiler_renders_zeros() {
        let p = PhaseProfiler::new(&["only"]);
        let rows = p.rows();
        assert_eq!(rows[0].calls, 0);
        assert_eq!(rows[0].mean_ns, 0.0);
        assert_eq!(rows[0].share, 0.0);
    }
}
