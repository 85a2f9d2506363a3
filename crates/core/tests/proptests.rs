//! Property-based tests for the energy-aware policies.

use ebs_core::{
    group_runqueue_ratio, place_new_task, runqueue_power, EnergyAwareBalancer, EnergyBalanceConfig,
    GroupRatioCache, HotMigration, HotSearch, HotTaskConfig, HotTaskMigrator, PowerState,
    PowerStateConfig,
};
use ebs_sched::{MigrationReason, System, TaskConfig, TaskId};
use ebs_store::Snapshot as _;
use ebs_topology::{CpuId, Topology, TopologyPreset};
use ebs_units::{SimDuration, SimTime, Watts};
use proptest::prelude::*;
use std::cmp::Ordering;

fn spawn(sys: &mut System, cpu: usize, watts: f64) {
    sys.spawn(
        TaskConfig {
            initial_profile: Watts(watts),
            ..TaskConfig::default()
        },
        CpuId(cpu),
    );
}

fn heated(n: usize, budget: f64, temps: &[f64]) -> PowerState {
    let mut ps = PowerState::uniform(n, Watts(budget), PowerStateConfig::default());
    for (c, &t) in temps.iter().enumerate() {
        for _ in 0..5_000 {
            ps.observe(CpuId(c), Watts(t), SimDuration::from_millis(100));
        }
    }
    ps
}

/// The hot-task destination search as a span scan: each domain's
/// candidate is the minimum over its whole span, every key recomputed
/// from `power`. This is the search `HotTaskMigrator` ran before the
/// coolness table and the per-group memo, kept as the oracle the
/// memoised search must agree with.
fn span_scan_run(
    cfg: HotTaskConfig,
    cpu: CpuId,
    sys: &mut System,
    power: &PowerState,
    caps: Option<&[f64]>,
) -> Option<HotMigration> {
    if !HotTaskMigrator::new(cfg).triggered(cpu, sys, power) {
        return None;
    }
    let hot_task = sys.current(cpu)?;
    let hot_profile = sys.task(hot_task).profile();
    let topo = sys.topology_shared();
    let coolness = |c: CpuId| {
        let core = topo.cpus_of_core(topo.core_of(c));
        power.thermal_power_sum(&core) / core.len() as f64
    };
    let src_thermal = coolness(cpu);
    let min_gap = power.max_power(cpu) * cfg.min_gap_fraction;
    for domain in topo.domains(cpu) {
        if domain.flags().share_cpu_power {
            continue;
        }
        let view: &System = sys;
        let key = |c: CpuId| (coolness(c).0, view.rq(c).nr_running(), c.0);
        let candidate = domain
            .span()
            .filter(|&c| !topo.same_core(c, cpu))
            .filter(|&c| caps.is_none() || src_thermal - coolness(c) >= min_gap)
            .min_by(|&a, &b| {
                let (ka, kb) = (key(a), key(b));
                caps.map_or(Ordering::Equal, |caps| caps[b.0].total_cmp(&caps[a.0]))
                    .then(ka.0.total_cmp(&kb.0))
                    .then((ka.1, ka.2).cmp(&(kb.1, kb.2)))
            });
        let Some(dest) = candidate else {
            continue;
        };
        if caps.is_none() && src_thermal - coolness(dest) < min_gap {
            continue;
        }
        if sys.rq(dest).is_idle() {
            sys.migrate_running(cpu, dest, MigrationReason::HotTask)
                .unwrap();
            return Some(HotMigration::ToIdle {
                task: hot_task,
                dest,
            });
        }
        if sys.rq(dest).nr_running() == 1 {
            if let Some(cool_task) = sys.current(dest) {
                if sys.task(cool_task).profile() + cfg.exchange_margin <= hot_profile {
                    sys.migrate_running(dest, cpu, MigrationReason::Exchange)
                        .unwrap();
                    sys.migrate_running(cpu, dest, MigrationReason::HotTask)
                        .unwrap();
                    return Some(HotMigration::Exchanged {
                        task: hot_task,
                        dest,
                        cool_task,
                    });
                }
            }
        }
    }
    None
}

/// Thermal powers the search tests heat CPUs to. Repeated values give
/// bit-equal core coolness, so ties are common.
const PALETTE: [f64; 8] = [0.0, 6.8, 6.8, 20.0, 35.0, 47.0, 61.0, 75.0];

fn hot_shape(idx: usize) -> Topology {
    [
        TopologyPreset::Numa64,
        TopologyPreset::XSeries445 { smt: true },
        TopologyPreset::Hybrid8,
        TopologyPreset::BigLittle16,
    ][idx]
        .build()
}

/// Per-CPU capacities: by class on hybrid shapes, by core parity on
/// homogeneous ones (so the capacity-aware ranking has two levels to
/// order everywhere).
fn capacities(topo: &Topology) -> Vec<f64> {
    topo.cpu_ids()
        .map(|c| {
            let little = if topo.is_hybrid() {
                topo.class_of(c).0 == 1
            } else {
                topo.core_of(c).0 % 2 == 1
            };
            if little {
                0.55
            } else {
                1.0
            }
        })
        .collect()
}

fn heat_to(power: &mut PowerState, cpu: CpuId, watts: f64) {
    for _ in 0..400 {
        power.observe(cpu, Watts(watts), SimDuration::from_millis(100));
    }
}

fn system_hash(sys: &System) -> u64 {
    let mut w = ebs_store::StateWriter::new();
    sys.save(&mut w);
    w.finish().hash()
}

/// Runs the hot-task policy on every CPU in order, as the engine's
/// tick does, through the span-scan oracle on `oracle` and the
/// memoised search on `memo`, context switching the CPUs a migration
/// touched on both. Returns the first disagreement.
fn sweep(
    cfg: HotTaskConfig,
    oracle: &mut System,
    memo: &mut System,
    power: &PowerState,
    search: &mut HotSearch,
    caps: Option<&[f64]>,
) -> Result<usize, String> {
    let migrator = HotTaskMigrator::new(cfg);
    let mut acted = 0;
    for c in 0..oracle.topology().n_cpus() {
        let cpu = CpuId(c);
        let expected = span_scan_run(cfg, cpu, oracle, power, caps);
        let got = if migrator.triggered(cpu, memo, power) {
            migrator.migrate(cpu, memo, power, search)
        } else {
            None
        };
        if expected != got {
            return Err(format!("cpu {c}: span scan {expected:?}, memo {got:?}"));
        }
        if let Some(m) = got {
            acted += 1;
            let dest = match m {
                HotMigration::ToIdle { dest, .. } | HotMigration::Exchanged { dest, .. } => dest,
            };
            for sys in [&mut *oracle, &mut *memo] {
                sys.context_switch(dest);
                sys.context_switch(cpu);
            }
        }
    }
    Ok(acted)
}

/// The memoised search of the deterministic tests below, on a fresh
/// table.
fn fresh_search(topo: &Topology, power: &PowerState, caps: Option<&[f64]>) -> HotSearch {
    let mut search = HotSearch::new(topo, caps);
    search.refresh(topo, power);
    search
}

/// All cores equally cool and a zero gap: from CPU 0 of the SMT
/// testbed, the source core is the best entry of its package group
/// (lowest id on a tie), so the search must skip to the next package
/// rather than pick the source core or the source's sibling.
#[test]
fn memoised_search_excludes_the_source_core_on_ties() {
    let topo = Topology::xseries445(true);
    let mut sys = System::new(topo.clone());
    spawn(&mut sys, 0, 61.0);
    sys.context_switch(CpuId(0));
    let mut power = PowerState::uniform(16, Watts(3.0), PowerStateConfig::default());
    for c in 0..16 {
        heat_to(&mut power, CpuId(c), 6.8);
    }
    let cfg = HotTaskConfig {
        min_gap_fraction: 0.0,
        ..HotTaskConfig::default()
    };
    let mut oracle = sys.clone();
    let expected = span_scan_run(cfg, CpuId(0), &mut oracle, &power, None);
    let mut search = fresh_search(&topo, &power, None);
    let got = HotTaskMigrator::new(cfg).migrate(CpuId(0), &mut sys, &power, &mut search);
    assert_eq!(got, expected);
    assert!(
        matches!(got, Some(HotMigration::ToIdle { dest, .. }) if dest == CpuId(1)),
        "expected the next package's first CPU: {got:?}"
    );
    assert_eq!(system_hash(&sys), system_hash(&oracle));
}

/// A NaN thermal power sorts by `total_cmp` like any other value. The
/// source's node is hot, so the search reaches the top level, where
/// the other node holds a NaN CPU (4) and cool ones (5-7):
/// - legacy, negative NaN: CPU 4 is the "coolest" key and a NaN gap
///   passes the `src - dest < gap` test, so the task moves there;
/// - legacy, positive NaN: CPU 4 sorts last, CPU 5 wins;
/// - capacity-aware: NaN never satisfies the gap, so CPU 6, the cool
///   CPU on the higher capacity level, wins either way.
#[test]
fn memoised_search_orders_nan_like_the_span_scan() {
    let topo = Topology::xseries445(false);
    for nan in [f64::NAN, -f64::NAN] {
        for caps in [None, Some(capacities(&topo))] {
            let mut sys = System::new(topo.clone());
            spawn(&mut sys, 0, 61.0);
            sys.context_switch(CpuId(0));
            let mut power = PowerState::uniform(8, Watts(47.0), PowerStateConfig::default());
            for c in 0..8 {
                heat_to(&mut power, CpuId(c), if c < 4 { 61.0 } else { 20.0 });
            }
            power.observe(CpuId(4), Watts(nan), SimDuration::from_millis(100));
            let mut oracle = sys.clone();
            let expected = span_scan_run(
                HotTaskConfig::default(),
                CpuId(0),
                &mut oracle,
                &power,
                caps.as_deref(),
            );
            let mut search = fresh_search(&topo, &power, caps.as_deref());
            let got = HotTaskMigrator::default().migrate(CpuId(0), &mut sys, &power, &mut search);
            assert_eq!(got, expected, "{nan:?}, capacities {caps:?}");
            let dest = match (caps.is_some(), nan.is_sign_negative()) {
                (true, _) => 6,
                (false, true) => 4,
                (false, false) => 5,
            };
            assert!(
                matches!(got, Some(HotMigration::ToIdle { dest: d, .. }) if d == CpuId(dest)),
                "{nan:?}, capacities {caps:?}: expected CPU {dest}, got {got:?}"
            );
            assert_eq!(system_hash(&sys), system_hash(&oracle));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The memoised destination search returns the same decision and
    /// leaves the same `System` as the span scan, across shapes with
    /// and without SMT and capacity levels, bit-equal coolness ties, a
    /// zero gap (where source-core exclusion decides), NaN thermal
    /// powers, and migrations, blocks, wakes, spawns, context switches
    /// and re-heats between searches — the last keep a single
    /// `HotSearch` alive, so any memo entry that outlived a change of
    /// its unit would show.
    #[test]
    fn memoised_hot_search_matches_span_scan(
        shape in 0usize..4,
        capacity_aware in any::<bool>(),
        knobs in (0usize..3, 12.0f64..30.0, 0usize..256, 0usize..3),
        temps in prop::collection::vec(0usize..8, 256),
        loads in prop::collection::vec((0usize..3, 10.0f64..75.0), 256),
        script in prop::collection::vec((0usize..7, 0usize..256, 0usize..256, 0usize..8), 1..40),
    ) {
        let (gap_idx, budget, nan_cpu, nan_kind) = knobs;
        let topo = hot_shape(shape);
        let n = topo.n_cpus();
        let caps = capacity_aware.then(|| capacities(&topo));
        let cfg = HotTaskConfig {
            min_gap_fraction: [0.0, 0.1, 0.2][gap_idx],
            ..HotTaskConfig::default()
        };
        let mut memo = System::new(topo.clone());
        let mut power = PowerState::uniform(n, Watts(budget), PowerStateConfig::default());
        for c in 0..n {
            let (tasks, watts) = loads[c];
            for _ in 0..tasks {
                spawn(&mut memo, c, watts);
            }
            memo.context_switch(CpuId(c));
            heat_to(&mut power, CpuId(c), PALETTE[temps[c]]);
        }
        if nan_kind > 0 {
            let nan = if nan_kind == 1 { f64::NAN } else { -f64::NAN };
            power.observe(CpuId(nan_cpu % n), Watts(nan), SimDuration::from_millis(100));
        }
        let mut oracle = memo.clone();
        let mut search = fresh_search(&topo, &power, caps.as_deref());
        let mut blocked: Vec<TaskId> = Vec::new();
        for (op, a, b, t) in script {
            let (a, b) = (CpuId(a % n), CpuId(b % n));
            match op {
                0 => {
                    let r = sweep(cfg, &mut oracle, &mut memo, &power, &mut search, caps.as_deref());
                    prop_assert!(r.is_ok(), "{}", r.unwrap_err());
                }
                1 => {
                    let queued = memo.rq(a).iter_migration_candidates().next();
                    if let Some(id) = queued {
                        for sys in [&mut oracle, &mut memo] {
                            let _ = sys.migrate_queued(id, b, MigrationReason::LoadBalance);
                        }
                    }
                }
                2 => {
                    if memo.current(a).is_some() {
                        let id = memo.block_current(a);
                        oracle.block_current(a);
                        blocked.extend(id);
                    }
                }
                3 => {
                    if let Some(id) = blocked.pop() {
                        for sys in [&mut oracle, &mut memo] {
                            sys.wake(id, Some(b));
                        }
                    }
                }
                4 => {
                    for sys in [&mut oracle, &mut memo] {
                        spawn(sys, a.0, PALETTE[t] + 1.0);
                        sys.context_switch(a);
                    }
                }
                5 => {
                    // A new tick: thermal powers move, the table is
                    // refilled.
                    heat_to(&mut power, a, PALETTE[t]);
                    search.refresh(&topo, &power);
                }
                _ => {
                    for sys in [&mut oracle, &mut memo] {
                        sys.context_switch(a);
                    }
                }
            }
            prop_assert_eq!(system_hash(&memo), system_hash(&oracle));
        }
        let r = sweep(cfg, &mut oracle, &mut memo, &power, &mut search, caps.as_deref());
        prop_assert!(r.is_ok(), "{}", r.unwrap_err());
        prop_assert_eq!(system_hash(&memo), system_hash(&oracle));
        memo.validate();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// For any profile distribution, the energy balancer never makes
    /// queue lengths differ by more than one extra task, and the
    /// invariants hold after every pass.
    #[test]
    fn balancer_never_wrecks_load(
        profiles in prop::collection::vec((0usize..8, 20.0f64..70.0), 4..24),
        temps in prop::collection::vec(10.0f64..60.0, 8),
    ) {
        let mut sys = System::new(Topology::xseries445(false));
        for &(cpu, watts) in &profiles {
            spawn(&mut sys, cpu, watts);
        }
        let before_loads: Vec<i64> =
            (0..8).map(|c| sys.nr_running(CpuId(c)) as i64).collect();
        let spread_before =
            before_loads.iter().max().unwrap() - before_loads.iter().min().unwrap();
        let power = heated(8, 60.0, &temps);
        let mut bal = EnergyAwareBalancer::new(&sys, EnergyBalanceConfig::default());
        for step in 0..40u64 {
            sys.set_now(SimTime::from_millis(step * 64));
            for c in 0..8 {
                bal.run(CpuId(c), &mut sys, &power);
            }
            sys.validate();
        }
        let after_loads: Vec<i64> =
            (0..8).map(|c| sys.nr_running(CpuId(c)) as i64).collect();
        let spread_after =
            after_loads.iter().max().unwrap() - after_loads.iter().min().unwrap();
        // Balancing (energy or load) never worsens the load spread
        // beyond the +-1 an exchange can transiently leave.
        prop_assert!(
            spread_after <= spread_before.max(1),
            "load spread grew: {before_loads:?} -> {after_loads:?}"
        );
    }

    /// Placement always picks a least-loaded CPU, whatever the power
    /// landscape looks like.
    #[test]
    fn placement_respects_load_first(
        loads in prop::collection::vec(0usize..4, 8),
        profile in 10.0f64..70.0,
        temps in prop::collection::vec(10.0f64..60.0, 8),
    ) {
        let mut sys = System::new(Topology::xseries445(false));
        for (c, &n) in loads.iter().enumerate() {
            for i in 0..n {
                spawn(&mut sys, c, 30.0 + i as f64);
            }
        }
        let power = heated(8, 60.0, &temps);
        let dest = place_new_task(&sys, &power, Watts(profile)).expect("8-CPU system");
        let min_load = (0..8).map(|c| sys.nr_running(CpuId(c))).min().unwrap();
        prop_assert_eq!(sys.nr_running(dest), min_load);
    }

    /// Hot task migration, when it acts, never picks a sibling and
    /// never leaves a load imbalance behind.
    #[test]
    fn hot_migration_is_always_legal(
        hot_cpu in 0usize..16,
        dest_profiles in prop::collection::vec(prop::option::of(15.0f64..45.0), 16),
        smt_budget in 15.0f64..25.0,
    ) {
        let topo = Topology::xseries445(true);
        let mut sys = System::new(topo.clone());
        let mut temps = vec![6.8; 16];
        // The hot CPU runs one hot task at trigger heat.
        spawn(&mut sys, hot_cpu, 61.0);
        sys.context_switch(CpuId(hot_cpu));
        temps[hot_cpu] = 61.0;
        // Other CPUs optionally run one task each.
        for (c, p) in dest_profiles.iter().enumerate() {
            if c != hot_cpu {
                if let Some(watts) = p {
                    spawn(&mut sys, c, *watts);
                    sys.context_switch(CpuId(c));
                    temps[c] = *watts;
                }
            }
        }
        let power = heated(16, smt_budget, &temps);
        let before: Vec<usize> = (0..16).map(|c| sys.nr_running(CpuId(c))).collect();
        let migrator = HotTaskMigrator::new(HotTaskConfig::default());
        if let Some(result) = migrator.run(CpuId(hot_cpu), &mut sys, &power) {
            let (dest, exchanged) = match result {
                ebs_core::HotMigration::ToIdle { dest, .. } => (dest, false),
                ebs_core::HotMigration::Exchanged { dest, .. } => (dest, true),
            };
            prop_assert!(!topo.same_package(dest, CpuId(hot_cpu)), "sibling destination");
            if exchanged {
                // Exchange keeps every queue length unchanged.
                let after: Vec<usize> = (0..16).map(|c| sys.nr_running(CpuId(c))).collect();
                prop_assert_eq!(before, after);
            } else {
                prop_assert_eq!(before[dest.0], 0, "idle migration to a busy CPU");
            }
        }
        sys.validate();
    }

    /// The memoised group ratio cache returns *bitwise* the same
    /// values as the scan-based reader after any interleaving of
    /// migrations, blocks/wakes, profile updates, and cache reads —
    /// the property the balancers' decision-identity rests on. Runs on
    /// a CMP shape so core, package, and node units all get cached.
    #[test]
    fn ratio_cache_is_bitwise_equal_to_scans(
        script in prop::collection::vec(
            (0usize..16, 0usize..16, 10.0f64..70.0, any::<bool>()), 1..60,
        ),
        budget in 30.0f64..70.0,
    ) {
        let topo = Topology::build_cmp(2, 2, 2, 2); // 16 CPUs, 4 levels.
        let mut sys = System::new(topo.clone());
        let power = PowerState::uniform(16, Watts(budget), PowerStateConfig::default());
        let mut cache = GroupRatioCache::new(&topo);
        for c in 0..16 {
            spawn(&mut sys, c, 20.0 + c as f64);
            spawn(&mut sys, c, 50.0 - c as f64);
        }
        let check_all = |cache: &mut GroupRatioCache, sys: &System| {
            for cpu in sys.topology().cpu_ids() {
                for domain in sys.topology().domains(cpu) {
                    for group in domain.groups() {
                        let fresh = group_runqueue_ratio(sys, group, &power);
                        let cached = cache.group_ratio(sys, group, &power);
                        if cached.to_bits() != fresh.to_bits() {
                            return Err((cached, fresh));
                        }
                        // Twice: the second read takes the memoised
                        // path and must not change the bits.
                        let again = cache.group_ratio(sys, group, &power);
                        if again.to_bits() != fresh.to_bits() {
                            return Err((again, fresh));
                        }
                    }
                }
            }
            Ok(())
        };
        for (a, b, watts, switch) in script {
            if switch {
                sys.context_switch(CpuId(a));
            }
            if let Some(id) = sys.current(CpuId(a)) {
                sys.update_profile(id, Watts(watts), SimDuration::from_millis(100));
            }
            let candidate = sys.rq(CpuId(a)).iter_migration_candidates().next();
            if let Some(id) = candidate {
                let _ = sys.migrate_queued(id, CpuId(b), ebs_sched::MigrationReason::LoadBalance);
            }
            let result = check_all(&mut cache, &sys);
            prop_assert!(result.is_ok(), "cache diverged from scan: {result:?}");
        }
    }

    /// Runqueue power of a queue after pulling a task equals the mean
    /// of the new membership (metric consistency under migration).
    #[test]
    fn runqueue_power_tracks_membership(
        src_profiles in prop::collection::vec(10.0f64..70.0, 2..6),
        dst_profiles in prop::collection::vec(10.0f64..70.0, 1..6),
    ) {
        let mut sys = System::new(Topology::xseries445(false));
        for &p in &src_profiles {
            spawn(&mut sys, 1, p);
        }
        for &p in &dst_profiles {
            spawn(&mut sys, 0, p);
        }
        let moved = sys.rq(CpuId(1)).iter_migration_candidates().next().unwrap();
        let moved_profile = sys.task(moved).profile().0;
        sys.migrate_queued(moved, CpuId(0), ebs_sched::MigrationReason::EnergyBalance)
            .unwrap();
        let expected = (dst_profiles.iter().sum::<f64>() + moved_profile)
            / (dst_profiles.len() + 1) as f64;
        let actual = runqueue_power(&sys, CpuId(0), Watts(13.6)).0;
        prop_assert!((actual - expected).abs() < 1e-9, "{actual} vs {expected}");
    }
}

/// A period sampled for the fold tests: zero, the standard timeslice,
/// one tick, or anything up to a second (so the weight memo both hits
/// and misses).
fn fold_period() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        Just(100_000u64),
        Just(1_000u64),
        0u64..1_000_000,
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The shared-weight fold of `PowerState` moves every CPU's thermal
    /// power by exactly the bits a per-CPU `PowerAverage::update`
    /// would, over any period sequence (zero periods included), and
    /// saves the same image bytes.
    #[test]
    fn power_state_fold_equals_per_cpu_averages(
        ops in prop::collection::vec((0usize..6, 0.0f64..90.0, fold_period()), 1..120),
    ) {
        let cfg = PowerStateConfig::default();
        let mut ps = PowerState::uniform(6, Watts(60.0), cfg);
        let mut oracle: Vec<ebs_thermal::PowerAverage> = (0..6)
            .map(|_| {
                ebs_thermal::PowerAverage::with_time_constant(
                    cfg.idle_power,
                    cfg.standard_period,
                    cfg.time_constant,
                )
            })
            .collect();
        for &(cpu, watts, period_us) in &ops {
            let period = SimDuration::from_micros(period_us);
            let got = ps.observe(CpuId(cpu), Watts(watts), period);
            let want = oracle[cpu].update(Watts(watts), period);
            prop_assert_eq!(got.0.to_bits(), want.0.to_bits());
            for (c, avg) in oracle.iter().enumerate() {
                prop_assert_eq!(ps.thermal_power(CpuId(c)).0.to_bits(), avg.watts().0.to_bits());
            }
        }
        // Image bytes: the values in CPU order, as the per-CPU averages
        // wrote them.
        let mut w = ebs_store::StateWriter::new();
        ps.save(&mut w);
        let mut want = ebs_store::StateWriter::new();
        want.seq(&oracle, |w, avg| avg.save(w));
        want.seq(&[Watts(60.0); 6], |w, &p| w.watts(p));
        want.u64(0);
        let (got, want) = (w.finish(), want.finish());
        prop_assert_eq!(got.as_bytes(), want.as_bytes());
    }

    /// The estimator's halted-interval fast path returns the bits the
    /// full snapshot-diff-estimate path returns, and counts the same
    /// reads, whatever the model's signs and however the bank moves.
    #[test]
    fn estimator_fast_path_equals_full_account(
        weights in prop::collection::vec(-5.0f64..50.0, ebs_counters::N_EVENTS),
        ops in prop::collection::vec(
            (prop::option::of(prop::collection::vec(0u64..3, ebs_counters::N_EVENTS)),
             0u64..20_000, 0u64..20_000),
            1..80,
        ),
    ) {
        let mut w = [0.0; ebs_counters::N_EVENTS];
        w.copy_from_slice(&weights);
        let model = ebs_counters::EnergyModel::from_weights_nj(w);
        let halt = Watts(6.8);
        let mut est = ebs_core::EnergyEstimator::new(model, 1, halt);
        let mut bank = ebs_counters::CounterBank::new();
        let mut oracle_bank = ebs_counters::CounterBank::new();
        let mut last = ebs_counters::CounterSnapshot::ZERO;
        for (record, a, b) in ops {
            if let Some(counts) = record {
                let mut c = [0u64; ebs_counters::N_EVENTS];
                c.copy_from_slice(&counts);
                let c = ebs_counters::EventCounts::from_array(c);
                bank.record(&c);
                oracle_bank.record(&c);
            }
            let (halted, interval) = (a.min(b), a.max(b));
            let (halted, interval) =
                (SimDuration::from_micros(halted), SimDuration::from_micros(interval));
            let got = est.account(CpuId(0), &mut bank, interval, halted);
            let snap = oracle_bank.snapshot();
            let want = model.estimate(&snap.since(&last)) + halt.over(halted);
            last = snap;
            prop_assert_eq!(got.0.to_bits(), want.0.to_bits());
            prop_assert_eq!(bank.reads(), oracle_bank.reads());
        }
    }

    /// The per-step read returns the bits the general `account` path
    /// returns for the same step, counts the same reads, and leaves the
    /// same last read behind: a running step's delta is the counts it
    /// recorded, a halted step's bank has not moved. Random models
    /// (negative weights included), classes, and step sequences.
    #[test]
    fn estimator_step_read_equals_the_account_path(
        weights in prop::collection::vec(-5.0f64..50.0, ebs_counters::N_EVENTS),
        steps in prop::collection::vec(
            (0usize..3,
             prop::option::of(prop::collection::vec(0u64..5_000, ebs_counters::N_EVENTS)),
             1u64..30_000),
            1..120,
        ),
    ) {
        let mut w = [0.0; ebs_counters::N_EVENTS];
        w.copy_from_slice(&weights);
        let models = vec![
            ebs_counters::EnergyModel::from_weights_nj(w),
            ebs_counters::EnergyModel::ground_truth_weights(),
        ];
        let classes = vec![0, 1, 0];
        let halts = vec![Watts(6.8), Watts(2.25)];
        let mut step_est =
            ebs_core::EnergyEstimator::with_classes(models.clone(), classes.clone(), halts.clone());
        let mut acct_est = ebs_core::EnergyEstimator::with_classes(models, classes, halts);
        let mut step_banks = vec![ebs_counters::CounterBank::new(); 3];
        let mut acct_banks = vec![ebs_counters::CounterBank::new(); 3];
        for (c, ran, us) in steps {
            let (cpu, dt) = (CpuId(c), SimDuration::from_micros(us));
            let (got, want) = match ran {
                Some(counts) => {
                    let mut a = [0u64; ebs_counters::N_EVENTS];
                    a.copy_from_slice(&counts);
                    let counts = ebs_counters::EventCounts::from_array(a);
                    step_banks[c].record(&counts);
                    acct_banks[c].record(&counts);
                    (
                        step_est.account_step(cpu, &mut step_banks[c], Some(&counts), dt),
                        acct_est.account(cpu, &mut acct_banks[c], dt, SimDuration::ZERO),
                    )
                }
                None => (
                    step_est.account_step(cpu, &mut step_banks[c], None, dt),
                    acct_est.account(cpu, &mut acct_banks[c], dt, dt),
                ),
            };
            prop_assert_eq!(got.0.to_bits(), want.0.to_bits());
            for c in 0..3 {
                prop_assert_eq!(step_banks[c].reads(), acct_banks[c].reads());
                prop_assert_eq!(step_est.last_read(CpuId(c)), acct_est.last_read(CpuId(c)));
                prop_assert_eq!(step_banks[c].registers(), step_est.last_read(CpuId(c)));
            }
        }
        let image = |est: &ebs_core::EnergyEstimator| {
            let mut w = ebs_store::StateWriter::new();
            est.save(&mut w);
            w.finish()
        };
        let (got, want) = (image(&step_est), image(&acct_est));
        prop_assert_eq!(got.as_bytes(), want.as_bytes());
    }
}
