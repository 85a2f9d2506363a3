//! Equivalence suite for the variable-stride engine core.
//!
//! Two layers of guarantee:
//!
//! 1. **Bit-identity at a one-tick cap**: with `max_stride == tick`
//!    the strided core must produce byte-for-byte the same reports as
//!    the fixed-tick core (both execute the same `step_span`; the
//!    stride computation may read state but never change behaviour).
//!    Checked over the exp_table2 and exp_dvfs experiment shapes.
//! 2. **Tolerance at the default cap**: with real strides the headline
//!    metrics — energy, temperature, throughput, latency percentiles —
//!    must agree with fixed-tick within tight bounds, across topology
//!    presets and load curves, and stay deterministic per seed.

use ebs_dvfs::GovernorKind;
use ebs_sim::{
    rel_dev as rel, report_fingerprint as fingerprint, stride_divergence, MaxPowerSpec, SimConfig,
    SimEngine, SimReport, Simulation,
};
use ebs_topology::TopologyPreset;
use ebs_units::{SimDuration, Watts};
use ebs_workloads::{catalog, section61_mix, LoadCurve, OpenWorkload};
use proptest::prelude::*;

/// Runs `cfg` for `duration`, spawning `mix` copies of the section 6.1
/// mix first (0 = open/empty runs).
fn run(cfg: SimConfig, mix: usize, duration: SimDuration) -> SimReport {
    let mut sim = Simulation::new(cfg);
    if mix > 0 {
        sim.spawn_mix(&section61_mix(), mix);
    }
    sim.run_for(duration);
    sim.report()
}

#[test]
fn table2_shape_is_bit_identical_at_one_tick_cap() {
    // The exp_table2 setup: each program solo, throttling off.
    for program in section61_mix() {
        let cfg = SimConfig::xseries445()
            .smt(false)
            .energy_aware(false)
            .throttling(false)
            .respawn(false)
            .seed(7);
        let duration = SimDuration::from_secs(5);
        let run_mode = |cfg: SimConfig| {
            let mut sim = Simulation::new(cfg);
            sim.record_slice_powers();
            let id = sim.spawn_program(&program);
            sim.run_for(duration);
            let slices = sim
                .slice_powers()
                .and_then(|log| log.get(&id).cloned())
                .unwrap_or_default();
            // The state hash covers every serialized field — a far
            // sharper equality oracle than the aggregate report.
            (
                fingerprint(&sim.report()),
                format!("{slices:?}"),
                sim.state_hash(),
            )
        };
        let fixed = run_mode(cfg.clone());
        let strided = run_mode(cfg.clone().max_stride(SimDuration::from_millis(1)));
        if fixed != strided {
            // Replay both cells with event tracing to localise the bug.
            let diff = stride_divergence(
                cfg.clone(),
                cfg.max_stride(SimDuration::from_millis(1)),
                duration,
                |sim| {
                    sim.spawn_program(&program);
                },
            );
            panic!("{} diverged at cap = tick; {diff}", program.name);
        }
    }
}

#[test]
fn dvfs_study_is_bit_identical_at_one_tick_cap() {
    // The exp_dvfs variant matrix: every enforcement mechanism.
    let base = || {
        SimConfig::xseries445()
            .smt(false)
            .energy_aware(false)
            .throttling(false)
            .max_power(MaxPowerSpec::PerPackage(Watts(40.0)))
            .seed(1)
    };
    let variants = vec![
        base(),
        base().throttling(true),
        base().throttling(true).energy_aware(true),
        base().dvfs_governor(GovernorKind::ThermalAware),
        base()
            .dvfs_governor(GovernorKind::ThermalAware)
            .energy_aware(true),
        base()
            .dvfs_governor(GovernorKind::ThermalAware)
            .throttling(true),
    ];
    for (i, cfg) in variants.into_iter().enumerate() {
        let duration = SimDuration::from_secs(3);
        let hashed_run = |cfg: SimConfig| {
            let mut sim = Simulation::new(cfg);
            sim.spawn_mix(&section61_mix(), 3);
            sim.run_for(duration);
            (fingerprint(&sim.report()), sim.state_hash())
        };
        let fixed = hashed_run(cfg.clone());
        let strided = hashed_run(cfg.clone().max_stride(SimDuration::from_millis(1)));
        if fixed != strided {
            let diff = stride_divergence(
                cfg.clone(),
                cfg.max_stride(SimDuration::from_millis(1)),
                duration,
                |sim| sim.spawn_mix(&section61_mix(), 3),
            );
            panic!("dvfs variant {i} diverged at cap = tick; {diff}");
        }
    }
}

#[test]
fn throttle_duty_cycle_survives_strides() {
    // Bang-bang `hlt` enforcement is the part a naive strided engine
    // breaks: flips must not drift by more than the tick they are
    // resolved at. bitcnts under a 40 W package budget throttles
    // heavily; the duty cycle must match the fixed-tick core.
    let cfg = || {
        SimConfig::xseries445()
            .smt(false)
            .energy_aware(false)
            .max_power(MaxPowerSpec::PerPackage(Watts(40.0)))
            .seed(5)
    };
    let duration = SimDuration::from_secs(40);
    let topo = cfg().topology_builder().build();
    let run_one = |cfg: SimConfig| {
        let mut sim = Simulation::new(cfg);
        sim.spawn_program(&catalog::bitcnts());
        sim.run_for(duration);
        sim.report()
    };
    let fixed = run_one(cfg());
    let strided = run_one(cfg().strided());
    // Only the package running bitcnts throttles; compare that one.
    let hot = |r: &SimReport| r.cpu_throttled_fractions(&topo).fold(0.0_f64, f64::max);
    assert!(
        hot(&fixed) > 0.15,
        "scenario must actually throttle: {}",
        hot(&fixed)
    );
    let d = (hot(&fixed) - hot(&strided)).abs();
    assert!(
        d < 0.03,
        "duty cycle drifted: fixed {} vs strided {}",
        hot(&fixed),
        hot(&strided)
    );
    let engagements = |r: &SimReport| r.throttle_stats.iter().map(|s| s.engagements).sum::<u64>();
    assert!(
        engagements(&strided) > 0,
        "strided core never engaged the throttle"
    );
    let rel_energy = (fixed.true_energy.0 - strided.true_energy.0).abs() / fixed.true_energy.0;
    assert!(rel_energy < 0.02, "energy drifted {rel_energy}");
}

fn preset(idx: usize) -> TopologyPreset {
    [
        TopologyPreset::Dual,
        TopologyPreset::XSeries445 { smt: false },
        TopologyPreset::XSeries445 { smt: true },
        TopologyPreset::Numa16,
    ][idx]
}

fn curve(idx: usize) -> LoadCurve {
    [
        LoadCurve::Constant,
        LoadCurve::Diurnal {
            period: SimDuration::from_secs(4),
            floor: 0.3,
        },
        LoadCurve::Burst {
            period: SimDuration::from_secs(3),
            duty: 0.25,
            high: 2.0,
        },
        LoadCurve::Step {
            at: SimDuration::from_secs(2),
            before: 0.4,
            after: 1.0,
        },
    ][idx]
}

fn open_cfg(preset_idx: usize, curve_idx: usize, seed: u64) -> SimConfig {
    let shape = preset(preset_idx).builder();
    let workload = OpenWorkload::new(
        vec![catalog::aluadd(), catalog::memrw(), catalog::pushpop()],
        1.2 * shape.n_cores() as f64,
    )
    .curve(curve(curve_idx))
    .service_work(200_000_000, 500_000_000);
    SimConfig::with_topology(shape)
        .seed(seed)
        .respawn(false)
        .max_power(MaxPowerSpec::PerLogical(Watts(45.0)))
        .open_workload(workload)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Strided vs fixed-tick on open workloads across machine shapes
    /// and load curves: identical arrival streams, and headline
    /// metrics within tight tolerance.
    #[test]
    fn strided_matches_fixed_within_tolerance(
        preset_idx in 0usize..4,
        curve_idx in 0usize..4,
        seed in 0u64..1_000,
    ) {
        let duration = SimDuration::from_secs(4);
        let fixed = run(open_cfg(preset_idx, curve_idx, seed), 0, duration);
        let strided = run(open_cfg(preset_idx, curve_idx, seed).strided(), 0, duration);

        // The thinned arrival stream is a pure function of the seed
        // and the clock, so it is *exactly* preserved.
        prop_assert_eq!(fixed.arrivals, strided.arrivals);
        prop_assert_eq!(fixed.duration, strided.duration);
        // Work, energy, and heat agree tightly.
        prop_assert!(
            rel(fixed.instructions_retired as f64, strided.instructions_retired as f64) < 0.03,
            "instructions: {} vs {}", fixed.instructions_retired, strided.instructions_retired
        );
        prop_assert!(
            rel(fixed.true_energy.0, strided.true_energy.0) < 0.03,
            "energy: {:?} vs {:?}", fixed.true_energy, strided.true_energy
        );
        prop_assert!(
            rel(fixed.estimated_energy.0, strided.estimated_energy.0) < 0.03,
            "estimated energy: {:?} vs {:?}", fixed.estimated_energy, strided.estimated_energy
        );
        prop_assert!(
            (fixed.max_package_temp.0 - strided.max_package_temp.0).abs() < 1.5,
            "max temp: {:?} vs {:?}", fixed.max_package_temp, strided.max_package_temp
        );
        // Completions may differ by tasks in flight at the horizon.
        prop_assert!(
            fixed.completions.abs_diff(strided.completions) <= 3,
            "completions: {} vs {}", fixed.completions, strided.completions
        );
        // Latency percentiles (milliseconds scale) stay close.
        if fixed.latency.count > 20 && strided.latency.count > 20 {
            prop_assert!(
                rel(fixed.latency.p50_s, strided.latency.p50_s) < 0.15,
                "p50: {} vs {}", fixed.latency.p50_s, strided.latency.p50_s
            );
            prop_assert!(
                rel(fixed.latency.p95_s, strided.latency.p95_s) < 0.25,
                "p95: {} vs {}", fixed.latency.p95_s, strided.latency.p95_s
            );
        }
    }

    /// The strided core is deterministic: same seed, same report.
    #[test]
    fn strided_runs_are_deterministic(
        preset_idx in 0usize..4,
        curve_idx in 0usize..4,
        seed in 0u64..1_000,
    ) {
        let duration = SimDuration::from_secs(3);
        let hashed_run = |cfg: SimConfig| {
            let mut sim = Simulation::new(cfg);
            sim.run_for(duration);
            (sim.report(), sim.state_hash())
        };
        let (a, ha) = hashed_run(open_cfg(preset_idx, curve_idx, seed).strided());
        let (b, hb) = hashed_run(open_cfg(preset_idx, curve_idx, seed).strided());
        prop_assert_eq!(fingerprint(&a), fingerprint(&b));
        prop_assert!(a.bit_eq(&b), "reports not bit-equal");
        prop_assert_eq!(ha, hb, "state hashes diverged");
    }
}

/// Homogeneous bit-identity regression for the heterogeneous-hardware
/// refactor: on every single-class preset, the refactor's knobs at
/// their neutral settings are byte-level no-ops on the strided core —
/// pinning the legacy `PerPackage` scope explicitly and switching the
/// policy layer `class_blind` must change nothing, because with one
/// class there are no capacities to ignore and the per-domain state is
/// exactly the old per-package state.
#[test]
fn homogeneous_presets_are_unchanged_by_the_class_refactor() {
    use ebs_dvfs::DomainScope;
    for preset in TopologyPreset::all() {
        let base = SimConfig::preset(preset)
            .seed(13)
            .respawn(false)
            .dvfs_governor(GovernorKind::OnDemand);
        assert!(
            !base.is_hybrid(),
            "{} should be single-class",
            preset.name()
        );
        let run = |cfg: SimConfig| {
            let mut sim = Simulation::new(cfg.strided());
            sim.spawn_mix(&section61_mix(), 2);
            sim.run_for(SimDuration::from_secs(2));
            (fingerprint(&sim.report()), sim.state_hash())
        };
        let default = run(base.clone());
        let pinned = run(base.clone().scope(DomainScope::PerPackage));
        let blind = run(base.clone().class_blind(true));
        assert_eq!(
            default,
            pinned,
            "{}: pinning PerPackage scope changed a homogeneous run",
            preset.name()
        );
        assert_eq!(
            default,
            blind,
            "{}: class_blind changed a homogeneous run",
            preset.name()
        );
    }
}
