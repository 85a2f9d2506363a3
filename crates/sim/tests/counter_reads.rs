//! The counter-read invariant behind the per-step estimator read.
//!
//! `EnergyEstimator::account_step` takes a running CPU's delta to be
//! the counts the step just recorded, and a halted CPU's bank to be
//! unmoved. Both hold only if, between steps, every CPU's counter bank
//! equals the estimator's last read of it. This suite checks that
//! invariant after every slice of a run, across machine shapes, the
//! fixed-tick and strided cores, and snapshot restores into fresh and
//! used engines. It also pins the read count: one read
//! per CPU per engine step, as the general `account` path took.

use ebs_sim::{MaxPowerSpec, SimConfig, SimEngine, Simulation};
use ebs_topology::TopologyPreset;
use ebs_units::{SimDuration, Watts};
use ebs_workloads::{catalog, section61_mix, LoadCurve, OpenWorkload};
use proptest::prelude::*;

fn preset(idx: usize) -> TopologyPreset {
    [
        TopologyPreset::Dual,
        TopologyPreset::XSeries445 { smt: true },
        TopologyPreset::Numa16,
        TopologyPreset::Hybrid8,
        TopologyPreset::BigLittle16,
    ][idx]
}

/// An open diurnal load (so CPUs go idle and busy), on the engine core
/// `core` selects: 0 fixed tick, 1 strided.
fn cfg(preset_idx: usize, core: usize, seed: u64) -> SimConfig {
    let shape = preset(preset_idx).builder();
    let workload = OpenWorkload::new(
        vec![catalog::bitcnts(), catalog::memrw(), catalog::aluadd()],
        1.2 * shape.n_cores() as f64,
    )
    .curve(LoadCurve::Diurnal {
        period: SimDuration::from_secs(2),
        floor: 0.2,
    })
    .service_work(100_000_000, 400_000_000);
    let cfg = SimConfig::with_topology(shape)
        .seed(seed)
        .respawn(false)
        .throttling(true)
        .max_power(MaxPowerSpec::PerLogical(Watts(30.0)))
        .open_workload(workload);
    if core == 0 {
        cfg
    } else {
        cfg.strided()
    }
}

/// Checks the invariant on one engine and returns `(reads, steps ×
/// CPUs)`.
fn check(sim: &Simulation) -> (u64, u64) {
    sim.validate_counter_reads();
    let banks = &sim.machine().banks;
    let reads = banks.iter().map(|b| b.reads()).sum();
    (reads, sim.report().engine_steps * banks.len() as u64)
}

fn run_and_check(cfg: SimConfig, slices: &[u64], restore_at: usize) -> Result<(), TestCaseError> {
    let mut sim = Simulation::new(cfg.clone());
    let mut image = None;
    for (i, &ms) in slices.iter().enumerate() {
        sim.run_for(SimDuration::from_millis(ms));
        let (reads, expected) = check(&sim);
        prop_assert_eq!(reads, expected, "one read per CPU per step");
        if i == restore_at {
            image = Some(sim.snapshot());
        }
    }
    let Some(image) = image else {
        return Ok(());
    };
    // Into a fresh engine, and into the used one.
    let mut fresh = Simulation::from_snapshot(cfg, &image).expect("same-config restore");
    let (reads, expected) = check(&fresh);
    prop_assert_eq!(reads, expected);
    sim.restore_snapshot(&image)
        .expect("restore into a used engine");
    check(&sim);
    for &ms in slices {
        let dt = SimDuration::from_millis(ms);
        fresh.run_for(dt);
        sim.run_for(dt);
        let (reads, expected) = check(&sim);
        prop_assert_eq!(reads, expected);
        prop_assert_eq!(check(&fresh), (reads, expected));
        prop_assert_eq!(fresh.state_hash(), sim.state_hash());
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn banks_equal_the_last_read_between_steps(
        preset_idx in 0usize..5,
        core in 0usize..2,
        seed in 0u64..1_000,
        slices in prop::collection::vec(1u64..700, 1..6),
        restore_at in 0usize..6,
    ) {
        run_and_check(cfg(preset_idx, core, seed), &slices, restore_at)?;
    }
}

/// A closed Table 3 run on the fixed-tick core keeps the invariant with
/// every CPU busy, through hot-task migrations and throttling.
#[test]
fn closed_table3_run_keeps_the_invariant() {
    let mut sim = Simulation::new(
        SimConfig::xseries445()
            .smt(true)
            .throttling(true)
            .energy_aware(true)
            .seed(3),
    );
    sim.spawn_mix(&section61_mix(), 4);
    for _ in 0..4 {
        sim.run_for(SimDuration::from_millis(250));
        let (reads, expected) = check(&sim);
        assert_eq!(reads, expected);
    }
}
