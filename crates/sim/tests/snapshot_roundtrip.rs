//! Checkpoint/restore round-trip suite.
//!
//! The contract of `ebs-store` snapshots: checkpointing at a
//! `run_for` boundary, restoring into a freshly built engine of the
//! same config, and running to the end is **bit-identical** to
//! running through the boundary uninterrupted — same end-of-run state
//! hash, same report, on the strided core across topology presets ×
//! governors × seeds.
//!
//! The boundary matters: a `run_for` horizon caps the last stride and
//! drains due arrivals, so the uninterrupted leg pauses at the same
//! instant (two `run_for` calls on one engine) rather than running
//! straight past it — exactly the structure of the fork-sweep's
//! warm-up/measurement split.

use ebs_dvfs::GovernorKind;
use ebs_sched::MigrationReason;
use ebs_sim::{report_fingerprint, MaxPowerSpec, SimConfig, SimEngine, Simulation};
use ebs_topology::TopologyPreset;
use ebs_units::{Celsius, SimDuration, Watts};
use ebs_workloads::{catalog, section61_mix, LoadCurve, OpenWorkload};
use proptest::prelude::*;

fn preset(idx: usize) -> TopologyPreset {
    [
        TopologyPreset::Dual,
        TopologyPreset::XSeries445 { smt: false },
        TopologyPreset::XSeries445 { smt: true },
        TopologyPreset::Numa16,
    ][idx]
}

/// The enforcement/governor axis: `hlt` throttling, thermal-aware
/// DVFS, and utilization-driven DVFS.
fn apply_governor(cfg: SimConfig, idx: usize) -> SimConfig {
    match idx {
        0 => cfg.throttling(true),
        1 => cfg
            .throttling(false)
            .dvfs_governor(GovernorKind::ThermalAware),
        _ => cfg.throttling(false).dvfs_governor(GovernorKind::OnDemand),
    }
}

fn open_cfg(preset_idx: usize, governor_idx: usize, seed: u64) -> SimConfig {
    let shape = preset(preset_idx).builder();
    let workload = OpenWorkload::new(
        vec![catalog::bitcnts(), catalog::memrw(), catalog::aluadd()],
        1.2 * shape.n_cores() as f64,
    )
    .curve(LoadCurve::Diurnal {
        period: SimDuration::from_secs(4),
        floor: 0.3,
    })
    .service_work(200_000_000, 500_000_000);
    let cfg = SimConfig::with_topology(shape)
        .seed(seed)
        .respawn(false)
        .max_power(MaxPowerSpec::PerLogical(Watts(45.0)))
        .open_workload(workload)
        .strided();
    apply_governor(cfg, governor_idx)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Strided core: checkpoint at the half-way boundary, restore
    /// into a fresh engine, run to the end — bit-identical to the
    /// uninterrupted engine.
    #[test]
    fn strided_checkpoint_restore_is_lossless(
        preset_idx in 0usize..4,
        governor_idx in 0usize..3,
        seed in 0u64..1_000,
    ) {
        let half = SimDuration::from_secs(2);
        let cfg = open_cfg(preset_idx, governor_idx, seed);

        let mut uninterrupted = Simulation::new(cfg.clone());
        uninterrupted.run_for(half);
        let image = uninterrupted.snapshot();
        prop_assert_eq!(image.hash(), uninterrupted.state_hash());

        let mut resumed = Simulation::from_snapshot(cfg, &image)
            .expect("restore into a same-config engine");
        prop_assert_eq!(resumed.state_hash(), uninterrupted.state_hash());

        uninterrupted.run_for(half);
        resumed.run_for(half);
        prop_assert_eq!(
            resumed.state_hash(),
            uninterrupted.state_hash(),
            "end-of-run state hashes diverged"
        );
        let (a, b) = (uninterrupted.report(), resumed.report());
        prop_assert!(
            a.bit_eq(&b),
            "reports diverged:\n{}\nvs\n{}",
            report_fingerprint(&a),
            report_fingerprint(&b)
        );
    }
}

/// A snapshot must refuse to restore into an engine of a different
/// shape instead of silently corrupting it.
#[test]
fn shape_mismatch_is_rejected() {
    let mut small = Simulation::new(open_cfg(0, 0, 1));
    small.run_for(SimDuration::from_millis(200));
    let image = small.snapshot();
    let err = Simulation::from_snapshot(open_cfg(3, 0, 1), &image);
    assert!(err.is_err(), "16-package engine accepted a 2-package image");
}

/// Snapshot-format migration: a genuine v1 image — written without
/// the per-task core-class tag that format v2 added — restores into
/// the v2 store through the standard fork entry point. Every v1
/// machine was homogeneous (class 0 everywhere), so the migrated
/// state is *bit-identical* to the v2 snapshot of the same engine,
/// and it re-snapshots as v2.
#[test]
fn v1_image_migrates_into_the_v2_store() {
    use ebs_store::Snapshot as _;
    let cfg = open_cfg(1, 2, 7);
    let mut warm = Simulation::new(cfg.clone());
    warm.run_for(SimDuration::from_secs(2));

    let mut w = ebs_store::StateWriter::versioned(1);
    warm.save(&mut w);
    let v1 = w.finish();
    assert_eq!(v1.version(), 1);
    assert!(
        matches!(
            v1.open(),
            Err(ebs_store::StoreError::Version { found: 1, .. })
        ),
        "strict open must refuse a v1 image"
    );

    let mut resumed = Simulation::from_snapshot(cfg, &v1).expect("v1 image restores");
    assert_eq!(
        resumed.state_hash(),
        warm.state_hash(),
        "migrated state must be bit-identical to the v2 snapshot"
    );
    assert_eq!(resumed.snapshot().version(), ebs_store::FORMAT_VERSION);

    warm.run_for(SimDuration::from_secs(2));
    resumed.run_for(SimDuration::from_secs(2));
    assert_eq!(resumed.state_hash(), warm.state_hash());
    assert!(warm.report().bit_eq(&resumed.report()));
}

/// Fork semantics across *policies*: one warm-up snapshot restored
/// into differently configured cells is deterministic — every fork of
/// the same image under the same cell config lands in the same state.
#[test]
fn cross_policy_forks_are_deterministic() {
    let warmup_cfg = open_cfg(1, 0, 42);
    let mut warmup = Simulation::new(warmup_cfg);
    warmup.run_for(SimDuration::from_secs(2));
    let image = warmup.snapshot();
    for governor_idx in 0..3 {
        let cell = || {
            let cfg = open_cfg(1, governor_idx, 42);
            let mut sim = Simulation::from_snapshot(cfg, &image).expect("fork");
            sim.run_for(SimDuration::from_secs(2));
            sim.state_hash()
        };
        assert_eq!(
            cell(),
            cell(),
            "governor {governor_idx} fork not deterministic"
        );
    }
}

/// The hot-task destination search keeps a per-tick coolness table and
/// a per-group memo beside the engine's state. Both are derived and
/// never serialized, so they must be invisible to snapshots. On Table 3
/// scaled to numa64 (warmed with hot-task migration off, then forked
/// with it on, where it fires on every step):
/// - resuming from a mid-run image ends in the same state as the
///   straight run;
/// - restoring that image into an engine that has already searched
///   from a later state (its memo populated) does too;
/// - a restored engine re-snapshots to the image's exact hash.
#[test]
fn hot_search_memo_is_invisible_to_snapshots() {
    const COOLING: [f64; 8] = [1.25, 0.62, 0.65, 1.28, 0.85, 0.60, 0.63, 0.66];
    let cfg = SimConfig::with_topology(TopologyPreset::Numa64.builder())
        .throttling(true)
        .cooling_factors((0..64).map(|p| COOLING[p % 8]).collect())
        .max_power(MaxPowerSpec::FromThermalLimit(Celsius(38.0)))
        .energy_aware(true)
        .seed(1)
        .strided();
    let mut warm = Simulation::new(cfg.clone().hot_task_migration(false));
    warm.spawn_mix(&section61_mix(), 64);
    warm.run_for(SimDuration::from_secs(15));
    let image = warm.snapshot();
    let leg = SimDuration::from_secs(1);

    let mut straight = Simulation::from_snapshot(cfg.clone(), &image).expect("fork");
    straight.run_for(leg);
    let mid = straight.snapshot();
    straight.run_for(leg);
    let hot_idx = MigrationReason::ALL
        .iter()
        .position(|&r| r == MigrationReason::HotTask)
        .unwrap();
    let hot = straight.report().migrations_by_reason[hot_idx];
    assert!(hot > 0, "the window must exercise hot-task migration");

    let mut resumed = Simulation::from_snapshot(cfg.clone(), &mid).expect("fork");
    assert_eq!(resumed.state_hash(), mid.hash());
    resumed.run_for(leg);
    assert_eq!(resumed.state_hash(), straight.state_hash());

    let mut reused = Simulation::from_snapshot(cfg, &image).expect("fork");
    reused.run_for(leg + SimDuration::from_millis(500));
    reused
        .restore_snapshot(&mid)
        .expect("restore into a used engine");
    assert_eq!(reused.state_hash(), mid.hash());
    reused.run_for(leg);
    assert_eq!(reused.state_hash(), straight.state_hash());
    assert!(reused.report().bit_eq(&straight.report()));
}
