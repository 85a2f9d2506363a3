//! Property-based tests: scheduler invariants under arbitrary
//! operation sequences.

use ebs_sched::{LoadBalancer, LoadBalancerConfig, MigrationReason, System, TaskConfig, TaskState};
use ebs_topology::{CpuId, Topology};
use ebs_units::{SimDuration, SimTime, Watts};
use proptest::prelude::*;

/// An abstract scheduler operation for random-sequence testing.
#[derive(Clone, Debug)]
enum Op {
    Spawn(usize),
    Tick(usize, u64),
    Switch(usize),
    Block(usize),
    WakeOldest,
    MigrateQueued(usize, usize),
    MigrateRunning(usize, usize),
    Exit(usize),
    /// Fold a power sample into the running task's profile (the
    /// runqueue-power-relevant mutation the aggregate tree must track).
    ProfileUpdate(usize, u64),
}

fn op_strategy(n_cpus: usize) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..n_cpus).prop_map(Op::Spawn),
        ((0..n_cpus), 1u64..150).prop_map(|(c, ms)| Op::Tick(c, ms)),
        (0..n_cpus).prop_map(Op::Switch),
        (0..n_cpus).prop_map(Op::Block),
        Just(Op::WakeOldest),
        ((0..n_cpus), (0..n_cpus)).prop_map(|(a, b)| Op::MigrateQueued(a, b)),
        ((0..n_cpus), (0..n_cpus)).prop_map(|(a, b)| Op::MigrateRunning(a, b)),
        (0..n_cpus).prop_map(Op::Exit),
        ((0..n_cpus), 10u64..90).prop_map(|(c, w)| Op::ProfileUpdate(c, w)),
    ]
}

/// Applies one op to the system, mirroring how engines drive it.
fn apply_op(sys: &mut System, blocked: &mut Vec<ebs_sched::TaskId>, op: Op) {
    match op {
        Op::Spawn(c) => {
            sys.spawn(TaskConfig::default(), CpuId(c));
        }
        Op::Tick(c, ms) => {
            sys.tick(CpuId(c), SimDuration::from_millis(ms));
        }
        Op::Switch(c) => {
            sys.context_switch(CpuId(c));
        }
        Op::Block(c) => {
            if let Some(id) = sys.block_current(CpuId(c)) {
                blocked.push(id);
            }
        }
        Op::WakeOldest => {
            if !blocked.is_empty() {
                let id = blocked.remove(0);
                sys.wake(id, None);
            }
        }
        Op::MigrateQueued(a, b) => {
            let candidate = sys.rq(CpuId(a)).iter_migration_candidates().next();
            if let Some(id) = candidate {
                let _ = sys.migrate_queued(id, CpuId(b), MigrationReason::LoadBalance);
            }
        }
        Op::MigrateRunning(a, b) => {
            let _ = sys.migrate_running(CpuId(a), CpuId(b), MigrationReason::HotTask);
        }
        Op::Exit(c) => {
            sys.exit_current(CpuId(c));
        }
        Op::ProfileUpdate(c, w) => {
            if let Some(id) = sys.current(CpuId(c)) {
                sys.update_profile(id, Watts(w as f64), SimDuration::from_millis(100));
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Any sequence of scheduler operations preserves the system
    /// invariants (each live task on exactly one queue, states
    /// consistent, no task lost or duplicated).
    #[test]
    fn invariants_hold_under_arbitrary_ops(
        ops in prop::collection::vec(op_strategy(8), 1..120),
    ) {
        let mut sys = System::new(Topology::xseries445(false));
        let mut blocked: Vec<ebs_sched::TaskId> = Vec::new();
        let mut clock = 0u64;
        for op in ops {
            clock += 1;
            sys.set_now(SimTime::from_millis(clock));
            apply_op(&mut sys, &mut blocked, op);
            sys.validate();
        }
        // Final consistency: every task is in exactly the state the
        // bookkeeping says.
        let mut live = 0;
        for i in 0..sys.n_tasks() {
            match sys.task(ebs_sched::TaskId(i as u64)).state() {
                TaskState::Runnable | TaskState::Running => live += 1,
                TaskState::Blocked => prop_assert!(
                    blocked.contains(&ebs_sched::TaskId(i as u64))
                ),
                TaskState::Exited => {}
            }
        }
        let queued: usize = (0..8).map(|c| sys.nr_running(CpuId(c))).sum();
        prop_assert_eq!(live, queued);
    }

    /// From any initial distribution, repeated balancing converges to
    /// queue lengths within one task of each other, and then stays
    /// quiescent.
    #[test]
    fn load_balancer_converges_and_stays_quiet(
        loads in prop::collection::vec(0usize..8, 8),
    ) {
        let mut sys = System::new(Topology::xseries445(false));
        for (c, &n) in loads.iter().enumerate() {
            for _ in 0..n {
                sys.spawn(TaskConfig::default(), CpuId(c));
            }
        }
        let mut lb = LoadBalancer::new(&sys, LoadBalancerConfig::default());
        for step in 0..60u64 {
            sys.set_now(SimTime::from_millis(step * 64));
            for c in 0..8 {
                lb.run(CpuId(c), &mut sys);
            }
        }
        let final_loads: Vec<usize> = (0..8).map(|c| sys.nr_running(CpuId(c))).collect();
        let max = *final_loads.iter().max().unwrap();
        let min = *final_loads.iter().min().unwrap();
        prop_assert!(max - min <= 1, "{final_loads:?}");
        // Once balanced, further passes migrate nothing.
        let before = sys.stats().migrations();
        for step in 60..80u64 {
            sys.set_now(SimTime::from_millis(step * 64));
            for c in 0..8 {
                lb.run(CpuId(c), &mut sys);
            }
        }
        prop_assert_eq!(sys.stats().migrations(), before);
        sys.validate();
    }

    /// After any random sequence of enqueue/dequeue/migrate/
    /// profile-change operations, every domain group's incremental
    /// sums equal a from-scratch recomputation — the aggregate-tree
    /// mirror of the queued-profile cache's `validate()` guarantee.
    /// Runs on a CMP shape so core-, package-, and node-level units
    /// are all exercised.
    #[test]
    fn aggregates_match_recompute_after_random_ops(
        ops in prop::collection::vec(op_strategy(16), 1..160),
    ) {
        let topo = Topology::build_cmp(2, 2, 2, 2); // 16 CPUs, 4 levels.
        let mut sys = System::new(topo);
        let mut blocked: Vec<ebs_sched::TaskId> = Vec::new();
        let mut clock = 0u64;
        for op in ops {
            clock += 1;
            sys.set_now(SimTime::from_millis(clock));
            apply_op(&mut sys, &mut blocked, op);
        }
        // `validate()` checks every unit cell against a fresh
        // recomputation (counts exactly, profile sums within float
        // tolerance)...
        sys.validate();
        // ...and the group-level reads the balancers use must agree
        // with explicit scans of the group members, for every group of
        // every CPU's domain stack.
        for cpu in sys.topology().cpu_ids() {
            for domain in sys.topology().domains(cpu) {
                for group in domain.groups() {
                    let running: usize =
                        group.cpus().iter().map(|&c| sys.nr_running(c)).sum();
                    let queued: usize =
                        group.cpus().iter().map(|&c| sys.rq(c).nr_queued()).sum();
                    prop_assert_eq!(sys.group_nr_running(group), running);
                    prop_assert_eq!(sys.group_nr_queued(group), queued);
                    let profile: f64 = group
                        .cpus()
                        .iter()
                        .flat_map(|&c| sys.rq(c).iter_all())
                        .map(|id| sys.task(id).profile().0)
                        .sum();
                    let cached = sys.group_profile_sum(group);
                    prop_assert!(
                        (cached - profile).abs() < 1e-6 * profile.abs().max(1.0),
                        "group profile sum drifted: {} vs {}", cached, profile
                    );
                }
            }
        }
    }

    /// Profile updates keep the profile within the observed sample
    /// range — no overshoot for any update sequence.
    #[test]
    fn profiles_are_convex_combinations(
        updates in prop::collection::vec((5.0f64..100.0, 1u64..300), 1..50),
    ) {
        let mut sys = System::new(Topology::xseries445(false));
        let id = sys.spawn(
            TaskConfig { initial_profile: Watts(30.0), ..TaskConfig::default() },
            CpuId(0),
        );
        let mut lo = 30.0f64;
        let mut hi = 30.0f64;
        for (watts, ms) in updates {
            lo = lo.min(watts);
            hi = hi.max(watts);
            sys.update_profile(id, Watts(watts), SimDuration::from_millis(ms));
            let p = sys.task(id).profile().0;
            prop_assert!(p >= lo - 1e-9 && p <= hi + 1e-9, "{p} outside [{lo}, {hi}]");
            sys.validate();
        }
    }
}

/// The machines the timer properties run on: the 256-CPU NUMA box,
/// the paper's testbed with SMT, and a two-class hybrid.
fn timer_topology(idx: usize) -> Topology {
    use ebs_topology::TopologyPreset;
    [
        TopologyPreset::Numa64,
        TopologyPreset::XSeries445 { smt: true },
        TopologyPreset::Hybrid8,
    ][idx]
        .builder()
        .build()
}

/// The deadline table's minimum by a full scan, as the balancers
/// computed `next_due` before the shared timers.
fn scan_min(table: &[Vec<SimTime>]) -> SimTime {
    table
        .iter()
        .flatten()
        .copied()
        .min()
        .unwrap_or(SimTime::from_micros(u64::MAX))
}

/// The per-level walk the balancers ran before the shared timers:
/// every level of `cpu` checked against its deadline, due ones
/// re-armed and balanced. Returns the tasks pulled.
fn old_walk(
    table: &mut [Vec<SimTime>],
    cpu: CpuId,
    sys: &mut System,
    cfg: &LoadBalancerConfig,
) -> usize {
    let now = sys.now();
    let topo = sys.topology_shared();
    let mut pulled = 0;
    for (level, domain) in topo.domains(cpu).iter().enumerate() {
        if now < table[cpu.0][level] {
            continue;
        }
        table[cpu.0][level] = now + domain.balance_interval();
        pulled += balance_domain(sys, cpu, domain, cfg);
    }
    pulled
}

/// One balancing attempt within one domain, searched afresh: the local
/// group by a scan of the span, the busiest group and queue by the
/// public search functions. The memoised balancer must match it.
fn balance_domain(
    sys: &mut System,
    cpu: CpuId,
    domain: &ebs_topology::SchedDomain,
    cfg: &LoadBalancerConfig,
) -> usize {
    let local = domain.local_group_index(cpu).unwrap();
    let Some((busiest, _)) = ebs_sched::find_busiest_group(sys, domain, local) else {
        return 0;
    };
    let Some(src) = ebs_sched::busiest_queue_in_group(sys, &domain.groups()[busiest]) else {
        return 0;
    };
    let (src_load, dst_load) = (sys.nr_running(src), sys.nr_running(cpu));
    if src_load < dst_load + cfg.min_imbalance || (src_load - dst_load) / 2 == 0 {
        return 0;
    }
    let n_move = (src_load - dst_load) / 2;
    ebs_sched::pull_tasks(
        sys,
        src,
        cpu,
        n_move,
        MigrationReason::LoadBalance,
        |_, _| true,
    )
}

/// One step of a timer sequence.
#[derive(Clone, Debug)]
enum TimerOp {
    /// Advance the clock by this many ms.
    Advance(u64),
    /// Balance one CPU (index taken modulo the CPU count).
    Run(usize),
    /// Balance every CPU in order, as an engine step does.
    RunAll,
    /// Keep a snapshot of the current timers.
    Save,
    /// Restore a kept snapshot into the timers in use.
    Restore(usize),
    /// Restore the current state into freshly built timers.
    Fresh,
    /// Spawn a task (balancer test only).
    Spawn(usize),
}

fn timer_op() -> impl Strategy<Value = TimerOp> {
    prop_oneof![
        (0u64..150).prop_map(TimerOp::Advance),
        (0usize..256).prop_map(TimerOp::Run),
        Just(TimerOp::RunAll),
        Just(TimerOp::Save),
        (0usize..8).prop_map(TimerOp::Restore),
        Just(TimerOp::Fresh),
        (0usize..256).prop_map(TimerOp::Spawn),
    ]
}

fn save_image<T: ebs_store::Snapshot>(x: &T) -> ebs_store::StateImage {
    let mut w = ebs_store::StateWriter::new();
    x.save(&mut w);
    w.finish()
}

/// A deadline table in the layout both balancers have always saved.
fn table_image(table: &[Vec<SimTime>]) -> ebs_store::StateImage {
    let mut w = ebs_store::StateWriter::new();
    w.seq(table, |w, levels| w.seq(levels, |w, &t| w.time(t)));
    w.finish()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// After any sequence of fires, restores (into used and into fresh
    /// timers) and clock moves, the cached `next_due` equals a fresh
    /// scan of the table, `due` agrees with the table, the firing
    /// pattern equals the old per-level walk's, and the saved bytes are
    /// the table's.
    #[test]
    fn balance_timers_match_the_scanned_table(
        shape in 0usize..3,
        ops in prop::collection::vec(timer_op(), 1..80),
    ) {
        use ebs_sched::BalanceTimers;
        use ebs_store::Snapshot as _;
        let sys = System::new(timer_topology(shape));
        let topo = sys.topology_shared();
        let n = topo.n_cpus();
        let mut timers = BalanceTimers::new(&sys);
        let mut table: Vec<Vec<SimTime>> =
            (0..n).map(|c| vec![SimTime::ZERO; topo.domains(CpuId(c)).len()]).collect();
        let mut saved: Vec<(ebs_store::StateImage, Vec<Vec<SimTime>>)> = Vec::new();
        let mut now = SimTime::ZERO;
        let walk = |timers: &mut BalanceTimers, table: &mut [Vec<SimTime>], cpu: CpuId, now| {
            let mut new_fired = Vec::new();
            if timers.due(cpu, now) {
                for (level, d) in topo.domains(cpu).iter().enumerate() {
                    if timers.fire(cpu, level, now, d.balance_interval()) {
                        new_fired.push(level);
                    }
                }
            }
            let mut old_fired = Vec::new();
            for (level, d) in topo.domains(cpu).iter().enumerate() {
                if now >= table[cpu.0][level] {
                    table[cpu.0][level] = now + d.balance_interval();
                    old_fired.push(level);
                }
            }
            (new_fired, old_fired)
        };
        for op in ops {
            match op {
                TimerOp::Advance(ms) => now += SimDuration::from_millis(ms),
                TimerOp::Run(c) => {
                    let (a, b) = walk(&mut timers, &mut table, CpuId(c % n), now);
                    prop_assert_eq!(a, b);
                }
                TimerOp::RunAll => {
                    for c in 0..n {
                        let (a, b) = walk(&mut timers, &mut table, CpuId(c), now);
                        prop_assert_eq!(a, b);
                    }
                }
                TimerOp::Save => saved.push((save_image(&timers), table.clone())),
                TimerOp::Restore(i) => {
                    if !saved.is_empty() {
                        let (image, old) = &saved[i % saved.len()];
                        timers.restore(&mut image.open().unwrap()).unwrap();
                        table = old.clone();
                    }
                }
                TimerOp::Fresh => {
                    let image = save_image(&timers);
                    timers = BalanceTimers::new(&sys);
                    timers.restore(&mut image.open().unwrap()).unwrap();
                }
                TimerOp::Spawn(_) => {}
            }
            prop_assert_eq!(timers.next_due(), scan_min(&table));
            for (c, levels) in table.iter().enumerate() {
                prop_assert_eq!(timers.due(CpuId(c), now), levels.iter().any(|&t| now >= t));
            }
            let (got, want) = (save_image(&timers), table_image(&table));
            prop_assert_eq!(got.as_bytes(), want.as_bytes());
        }
    }

    /// `LoadBalancer::run` makes the decisions of the old per-level
    /// walk, through spawns, clock moves and restores into fresh
    /// balancers, and its snapshot bytes are the old table layout.
    #[test]
    fn load_balancer_run_matches_the_per_level_walk(
        shape in 0usize..3,
        spawns in prop::collection::vec(0usize..256, 0..120),
        ops in prop::collection::vec(timer_op(), 1..60),
    ) {
        use ebs_store::Snapshot as _;
        let mut sys = System::new(timer_topology(shape));
        let n = sys.topology().n_cpus();
        for &c in &spawns {
            sys.spawn(TaskConfig::default(), CpuId(c % n));
        }
        let mut oracle_sys = sys.clone();
        let mut lb = LoadBalancer::new(&sys, LoadBalancerConfig::default());
        let cfg = *lb.config();
        let mut table: Vec<Vec<SimTime>> = (0..n)
            .map(|c| vec![SimTime::ZERO; sys.topology().domains(CpuId(c)).len()])
            .collect();
        let mut now = SimTime::ZERO;
        for op in ops {
            match op {
                TimerOp::Advance(ms) => {
                    now += SimDuration::from_millis(ms);
                    sys.set_now(now);
                    oracle_sys.set_now(now);
                }
                TimerOp::Run(c) => {
                    let cpu = CpuId(c % n);
                    let got = lb.run(cpu, &mut sys).pulled;
                    prop_assert_eq!(got, old_walk(&mut table, cpu, &mut oracle_sys, &cfg));
                }
                TimerOp::RunAll => {
                    for c in 0..n {
                        let got = lb.run(CpuId(c), &mut sys).pulled;
                        let want = old_walk(&mut table, CpuId(c), &mut oracle_sys, &cfg);
                        prop_assert_eq!(got, want);
                    }
                }
                TimerOp::Spawn(c) => {
                    sys.spawn(TaskConfig::default(), CpuId(c % n));
                    oracle_sys.spawn(TaskConfig::default(), CpuId(c % n));
                }
                TimerOp::Save | TimerOp::Restore(_) | TimerOp::Fresh => {
                    let (image, want) = (save_image(&lb), table_image(&table));
                    prop_assert_eq!(image.as_bytes(), want.as_bytes());
                    lb = LoadBalancer::new(&sys, LoadBalancerConfig::default());
                    lb.restore(&mut image.open().unwrap()).unwrap();
                }
            }
            prop_assert_eq!(lb.next_due(), scan_min(&table));
            for c in 0..n {
                prop_assert_eq!(sys.nr_running(CpuId(c)), oracle_sys.nr_running(CpuId(c)));
            }
        }
    }
}
