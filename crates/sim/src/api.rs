//! The engine API around [`Simulation`]: the checkpoint family and the
//! counters a per-epoch roll-up reads.
//!
//! Driving a machine — building it, feeding it work (closed spawns or
//! routed open-workload arrivals), running it and summarising it — is
//! inherent on [`Simulation`]. [`SimEngine`] adds the operations that
//! are layered on its [`ebs_store::Snapshot`] impl: snapshot, state
//! hash, restore and fork.

use crate::config::SimConfig;
use crate::engine::Simulation;
use ebs_units::Joules;

/// The cumulative counters a per-epoch roll-up reads, bit-identical to
/// the same fields of [`Simulation::report`] but without building the
/// report (which sorts the whole sojourn history).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunTotals {
    /// Instructions retired so far.
    pub instructions_retired: u64,
    /// Task completions so far.
    pub completions: u64,
    /// True (physical) energy consumed so far.
    pub true_energy: Joules,
    /// Sojourn samples recorded so far: the length of
    /// [`Simulation::sojourn_samples`].
    pub sojourn_samples: usize,
}

/// Checkpointing over an engine's [`ebs_store::Snapshot`] impl: the
/// engine supplies [`SimEngine::build`], and snapshot, hash, restore
/// and fork are provided on top of it.
pub trait SimEngine: ebs_store::Snapshot {
    /// Builds the engine from a configuration.
    fn build(cfg: SimConfig) -> Self
    where
        Self: Sized;

    /// Serializes the complete evolving state into a sealed, hashed,
    /// versioned image.
    fn snapshot(&self) -> ebs_store::StateImage {
        let mut w = ebs_store::StateWriter::new();
        self.save(&mut w);
        w.finish()
    }

    /// Content hash of the current state — equal states (same bytes
    /// under [`SimEngine::snapshot`]) hash equally across processes.
    fn state_hash(&self) -> u64 {
        self.snapshot().hash()
    }

    /// Overwrites this engine's state from a snapshot image. The
    /// engine must have been freshly built from a config of the same
    /// topology and workload shape; see [`ebs_store::Snapshot`] on the
    /// concrete engine for the shape-matching rules on policy sections.
    ///
    /// Opens with [`ebs_store::StateImage::open_migrating`], so images
    /// from any still-supported format version restore: the
    /// version-conditional sections (`TaskRuntime::last_class` for
    /// v1→v2) upgrade in place and the engine re-snapshots as the
    /// current version.
    fn restore_snapshot(
        &mut self,
        image: &ebs_store::StateImage,
    ) -> Result<(), ebs_store::StoreError> {
        let mut r = image.open_migrating()?;
        self.restore(&mut r)?;
        if r.remaining() != 0 {
            return Err(ebs_store::StoreError::Invalid(format!(
                "{} trailing bytes after the engine state",
                r.remaining()
            )));
        }
        Ok(())
    }

    /// Builds an engine from `cfg` and restores `image` into it — the
    /// fork operation: one warm-up snapshot, many differently
    /// configured continuations.
    fn from_snapshot(
        cfg: SimConfig,
        image: &ebs_store::StateImage,
    ) -> Result<Self, ebs_store::StoreError>
    where
        Self: Sized,
    {
        let mut sim = Self::build(cfg);
        sim.restore_snapshot(image)?;
        Ok(sim)
    }
}

impl SimEngine for Simulation {
    fn build(cfg: SimConfig) -> Self {
        Simulation::new(cfg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::RoutedArrival;
    use ebs_units::{SimDuration, SimTime};
    use ebs_workloads::catalog;

    fn cfg() -> SimConfig {
        SimConfig::xseries445().smt(false).seed(5)
    }

    /// A fork restored through the trait reproduces the source's hash
    /// and, run on, the same report as a fork built by `from_snapshot`.
    #[test]
    fn snapshot_family_round_trips() {
        let mut sim = Simulation::new(cfg());
        sim.spawn_mix(&[catalog::memrw()], 2);
        sim.run_for(SimDuration::from_millis(200));
        let image = sim.snapshot();
        let h = sim.state_hash();
        let mut fork = Simulation::new(cfg());
        fork.restore_snapshot(&image)
            .expect("restore into a same-shape engine");
        assert_eq!(fork.state_hash(), h);
        fork.run_for(SimDuration::from_millis(200));
        let mut built = Simulation::from_snapshot(cfg(), &image).expect("fork");
        built.run_for(SimDuration::from_millis(200));
        assert!(fork.report().bit_eq(&built.report()));
    }

    /// `run_totals` reads the report's counters bit for bit on the
    /// fixed-tick and strided cores, and its tail is `sojourn_samples`
    /// from the given index.
    #[test]
    fn run_totals_match_the_report_on_both_cores() {
        for cfg in [cfg(), cfg().strided()] {
            let mut sim = Simulation::new(cfg);
            for k in 0..12u64 {
                sim.queue_arrival(RoutedArrival {
                    due: SimTime::from_millis(5 + 15 * k),
                    program: catalog::aluadd().with_total_work(2_000_000 + 500_000 * k),
                    seed: k,
                    phase: "steady",
                });
            }
            sim.run_for(SimDuration::from_secs(1));
            let report = sim.report();
            let samples: Vec<f64> = sim.sojourn_samples().iter().map(|&(_, s)| s).collect();
            assert!(samples.len() > 2, "too few completions to test the tail");
            for from in [0, 1, samples.len() / 2, samples.len()] {
                let mut tail = Vec::new();
                let totals = sim.run_totals(from, &mut tail);
                assert_eq!(totals.instructions_retired, report.instructions_retired);
                assert_eq!(totals.completions, report.completions);
                assert_eq!(
                    totals.true_energy.0.to_bits(),
                    report.true_energy.0.to_bits()
                );
                assert_eq!(totals.sojourn_samples, samples.len());
                assert_eq!(tail, samples[from..]);
            }
        }
    }

    /// Routed arrivals spawn at their due instants on the fixed-tick
    /// and strided cores.
    #[test]
    fn queue_arrival_spawns_on_both_cores() {
        for cfg in [cfg(), cfg().strided()] {
            let mut sim = Simulation::new(cfg);
            for k in 0..4u64 {
                sim.queue_arrival(RoutedArrival {
                    due: SimTime::from_millis(10 + 20 * k),
                    program: catalog::aluadd().with_total_work(1_000_000),
                    seed: k,
                    phase: "steady",
                });
            }
            sim.run_for(SimDuration::from_secs(1));
            assert_eq!(sim.report().completions, 4);
        }
    }
}
