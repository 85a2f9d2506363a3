//! The balancers' memoised walk against the per-CPU walk it replaced.
//!
//! Both balancers share per-span answers between the CPUs of a domain
//! span (the busiest group and queue, the energy step's hottest group,
//! group thermal ratios) and read each CPU's local group from a table.
//! The oracles below search everything afresh for every CPU, with the
//! public search functions, exactly as the balancers did before the
//! memos. Over random queues, heat, budgets and mutations, including
//! balancing instants whose pulls change generations half-way through,
//! both must make the same pulls, count the same migrations by reason
//! and leave the same system behind, bit for bit.

use ebs_core::{
    group_runqueue_ratio, runqueue_power, runqueue_power_ratio, EnergyAwareBalancer,
    EnergyBalanceConfig, PowerState, PowerStateConfig,
};
use ebs_sched::{LoadBalancer, LoadBalancerConfig, MigrationReason, System, TaskConfig, TaskId};
use ebs_store::Snapshot as _;
use ebs_topology::{CpuId, SchedDomain, TopologyPreset};
use ebs_units::{SimDuration, SimTime, Watts};
use proptest::prelude::*;

/// The machine shapes: numa64, xSeries 445 with SMT, hybrid8 with
/// class capacities, biglittle16 with class capacities.
fn shape(idx: usize) -> (TopologyPreset, bool) {
    [
        (TopologyPreset::Numa64, false),
        (TopologyPreset::XSeries445 { smt: true }, false),
        (TopologyPreset::Hybrid8, true),
        (TopologyPreset::BigLittle16, true),
    ][idx]
}

/// Efficiency cores (class 1) at 0.55 of a performance core.
fn capacities(sys: &System) -> Vec<f64> {
    let topo = sys.topology();
    topo.cpu_ids()
        .map(|c| if topo.class_of(c).0 == 0 { 1.0 } else { 0.55 })
        .collect()
}

/// One step of a random script, applied to both systems alike.
#[derive(Clone, Debug)]
enum Op {
    /// Advance the clock by this many ms.
    Advance(u64),
    /// A balancing instant: every CPU in order.
    RunAll,
    /// Balance one CPU (index modulo the CPU count).
    Run(usize),
    /// Spawn a task with this profile.
    Spawn(usize, f64),
    /// Move a queued task from one CPU to another.
    Migrate(usize, usize),
    /// Context switch one CPU.
    Switch(usize),
    /// Fold a power sample into a running task's profile.
    Profile(usize, f64),
    /// Fold a long thermal power sample into the averages of one CPU's
    /// package, or with `true` of its whole node.
    Heat(usize, f64, bool),
    /// Change one CPU's budget.
    Budget(usize, f64),
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..300).prop_map(Op::Advance),
        Just(Op::RunAll),
        (0usize..256).prop_map(Op::Run),
        ((0usize..256), 10.0f64..70.0).prop_map(|(c, w)| Op::Spawn(c, w)),
        ((0usize..256), (0usize..256)).prop_map(|(a, b)| Op::Migrate(a, b)),
        (0usize..256).prop_map(Op::Switch),
        ((0usize..256), 10.0f64..70.0).prop_map(|(c, w)| Op::Profile(c, w)),
        ((0usize..256), 5.0f64..80.0, any::<bool>()).prop_map(|(c, w, node)| Op::Heat(c, w, node)),
        ((0usize..256), 25.0f64..70.0).prop_map(|(c, w)| Op::Budget(c, w)),
    ]
}

fn spawn(sys: &mut System, cpu: CpuId, watts: f64) {
    sys.spawn(
        TaskConfig {
            initial_profile: Watts(watts),
            ..TaskConfig::default()
        },
        cpu,
    );
}

/// Applies a mutation to one system (the power state is shared).
fn mutate(sys: &mut System, op: &Op) {
    let n = sys.topology().n_cpus();
    match *op {
        Op::Spawn(c, w) => spawn(sys, CpuId(c % n), w),
        Op::Migrate(a, b) => {
            let task = sys.rq(CpuId(a % n)).iter_migration_candidates().next();
            if let Some(task) = task {
                let _ = sys.migrate_queued(task, CpuId(b % n), MigrationReason::LoadBalance);
            }
        }
        Op::Switch(c) => {
            sys.context_switch(CpuId(c % n));
        }
        Op::Profile(c, w) => {
            if let Some(task) = sys.current(CpuId(c % n)) {
                sys.update_profile(task, Watts(w), SimDuration::from_millis(100));
            }
        }
        _ => {}
    }
}

/// Deadlines per (CPU, level), the way the balancers fire them.
struct Timers(Vec<Vec<SimTime>>);

impl Timers {
    fn new(sys: &System) -> Self {
        let topo = sys.topology();
        Timers(
            topo.cpu_ids()
                .map(|c| vec![SimTime::ZERO; topo.domains(c).len()])
                .collect(),
        )
    }

    fn fire(&mut self, cpu: CpuId, level: usize, now: SimTime, domain: &SchedDomain) -> bool {
        if now < self.0[cpu.0][level] {
            return false;
        }
        self.0[cpu.0][level] = now + domain.balance_interval();
        true
    }
}

/// The stock balancer's per-CPU walk, every search afresh.
fn load_oracle(timers: &mut Timers, cpu: CpuId, sys: &mut System) -> usize {
    let now = sys.now();
    let topo = sys.topology_shared();
    let mut pulled = 0;
    for (level, domain) in topo.domains(cpu).iter().enumerate() {
        if !timers.fire(cpu, level, now, domain) {
            continue;
        }
        let local = domain.local_group_index(cpu).unwrap();
        let Some((busiest, _)) = ebs_sched::find_busiest_group(sys, domain, local) else {
            continue;
        };
        let Some(src) = ebs_sched::busiest_queue_in_group(sys, &domain.groups()[busiest]) else {
            continue;
        };
        let (src_load, dst_load) = (sys.nr_running(src), sys.nr_running(cpu));
        if src_load < dst_load + 2 || (src_load - dst_load) / 2 == 0 {
            continue;
        }
        let n = (src_load - dst_load) / 2;
        pulled +=
            ebs_sched::pull_tasks(sys, src, cpu, n, MigrationReason::LoadBalance, |_, _| true);
    }
    pulled
}

/// The merged balancer's per-CPU walk (Fig. 4), every search afresh.
fn energy_oracle(
    timers: &mut Timers,
    cpu: CpuId,
    sys: &mut System,
    power: &PowerState,
    caps: Option<&[f64]>,
) -> usize {
    let cfg = EnergyBalanceConfig::default();
    let now = sys.now();
    let topo = sys.topology_shared();
    let mut pulled = 0;
    for (level, domain) in topo.domains(cpu).iter().enumerate() {
        if !timers.fire(cpu, level, now, domain) {
            continue;
        }
        if !domain.flags().share_cpu_power {
            pulled += energy_step_oracle(sys, cpu, domain, power, &cfg);
        }
        pulled += load_step_oracle(sys, cpu, domain, power, &cfg, caps);
    }
    pulled
}

fn energy_step_oracle(
    sys: &mut System,
    cpu: CpuId,
    domain: &SchedDomain,
    power: &PowerState,
    cfg: &EnergyBalanceConfig,
) -> usize {
    let local = domain.local_group_index(cpu).unwrap();
    let groups = domain.groups();
    let Some((hot, hot_ratio)) = (0..groups.len())
        .map(|i| (i, group_runqueue_ratio(sys, &groups[i], power)))
        .max_by(|a, b| a.1.total_cmp(&b.1))
    else {
        return 0;
    };
    if hot == local
        || hot_ratio <= group_runqueue_ratio(sys, &groups[local], power) + cfg.runqueue_ratio_margin
        || power.group_thermal_ratio(&groups[hot])
            <= power.group_thermal_ratio(&groups[local]) + cfg.thermal_ratio_margin
    {
        return 0;
    }
    let ratio = |c: CpuId| runqueue_power_ratio(sys, c, power);
    let src = groups[hot]
        .cpus()
        .iter()
        .copied()
        .max_by(|&a, &b| ratio(a).total_cmp(&ratio(b)))
        .unwrap();
    if ratio(src) <= ratio(cpu) + cfg.runqueue_ratio_margin
        || power.thermal_ratio(src) <= power.thermal_ratio(cpu) + cfg.thermal_ratio_margin
    {
        return 0;
    }
    let local_power = runqueue_power(sys, cpu, power.idle_power());
    let profile = |sys: &System, id: TaskId| sys.task(id).profile();
    let Some(hot_task) = sys
        .rq(src)
        .iter_migration_candidates()
        .filter(|&id| profile(sys, id) > local_power)
        .max_by(|&a, &b| profile(sys, a).0.total_cmp(&profile(sys, b).0))
    else {
        return 0;
    };
    if sys
        .migrate_queued(hot_task, cpu, MigrationReason::EnergyBalance)
        .is_err()
    {
        return 0;
    }
    let mut pulled = 1;
    if sys.nr_running(cpu) > sys.nr_running(src) {
        let hot_profile = profile(sys, hot_task);
        let cool = sys
            .rq(cpu)
            .iter_migration_candidates()
            .filter(|&id| id != hot_task && profile(sys, id) < hot_profile)
            .min_by(|&a, &b| profile(sys, a).0.total_cmp(&profile(sys, b).0));
        if let Some(cool) = cool {
            if sys
                .migrate_queued(cool, src, MigrationReason::Exchange)
                .is_ok()
            {
                pulled += 1;
            }
        }
    }
    pulled
}

fn load_step_oracle(
    sys: &mut System,
    cpu: CpuId,
    domain: &SchedDomain,
    power: &PowerState,
    cfg: &EnergyBalanceConfig,
    caps: Option<&[f64]>,
) -> usize {
    let local = domain.local_group_index(cpu).unwrap();
    let busiest = match caps {
        Some(_) => ebs_sched::find_busiest_group_capacity(sys, domain, local),
        None => ebs_sched::find_busiest_group(sys, domain, local),
    };
    let Some((busiest, _)) = busiest else {
        return 0;
    };
    let group = &domain.groups()[busiest];
    let Some(src) = ebs_sched::busiest_queue_in_group(sys, group) else {
        return 0;
    };
    let (src_load, dst_load) = (sys.nr_running(src), sys.nr_running(cpu));
    let n_move = match caps {
        None => {
            if src_load < dst_load + cfg.min_imbalance {
                return 0;
            }
            (src_load - dst_load) / 2
        }
        Some(caps) => {
            let (c_src, c_dst) = (caps[src.0], caps[cpu.0]);
            let n_f =
                (src_load as f64 / c_src - dst_load as f64 / c_dst) / (1.0 / c_src + 1.0 / c_dst);
            if 2.0 * n_f < cfg.min_imbalance as f64 {
                return 0;
            }
            (n_f.floor() as usize).min(sys.rq(src).nr_queued())
        }
    };
    if n_move == 0 || src == cpu {
        return 0;
    }
    let hottest_first =
        power.group_thermal_ratio(group) >= power.group_thermal_ratio(&domain.groups()[local]);
    let mut candidates: Vec<TaskId> = sys.rq(src).iter_migration_candidates().collect();
    candidates.sort_by(|&a, &b| {
        let ord = sys.task(a).profile().0.total_cmp(&sys.task(b).profile().0);
        if hottest_first {
            ord.reverse()
        } else {
            ord
        }
    });
    let mut moved = 0;
    for id in candidates {
        if moved == n_move {
            break;
        }
        if sys
            .migrate_queued(id, cpu, MigrationReason::LoadBalance)
            .is_ok()
        {
            moved += 1;
        }
    }
    moved
}

fn system_hash(sys: &System) -> u64 {
    let mut w = ebs_store::StateWriter::new();
    sys.save(&mut w);
    w.finish().hash()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn memoised_walk_matches_the_per_cpu_walk(
        shape_idx in 0usize..4,
        energy_aware in any::<bool>(),
        queues in prop::collection::vec((0usize..256, 10.0f64..70.0), 0..400),
        heat in prop::collection::vec(5.0f64..80.0, 16),
        budget in 30.0f64..65.0,
        ops in prop::collection::vec(op(), 1..40),
    ) {
        let (preset, with_caps) = shape(shape_idx);
        let mut sys = System::new(preset.build());
        let n = sys.topology().n_cpus();
        let caps = with_caps.then(|| capacities(&sys));
        if let Some(caps) = &caps {
            sys.set_cpu_capacities(caps);
        }
        for &(c, w) in &queues {
            spawn(&mut sys, CpuId(c % n), w);
        }
        for c in 0..n {
            sys.context_switch(CpuId(c));
        }
        let mut power = PowerState::uniform(n, Watts(budget), PowerStateConfig::default());
        for c in 0..n {
            for _ in 0..40 {
                power.observe(CpuId(c), Watts(heat[c % heat.len()]), SimDuration::from_millis(100));
            }
        }
        let mut oracle_sys = sys.clone();
        let mut oracle_timers = Timers::new(&sys);
        let mut load = LoadBalancer::new(&sys, LoadBalancerConfig::default());
        let mut energy = EnergyAwareBalancer::new(&sys, EnergyBalanceConfig::default());
        energy.set_capacities(caps.clone());
        let mut run = |cpu: CpuId, sys: &mut System, oracle_sys: &mut System, power: &PowerState| {
            if energy_aware {
                (
                    energy.run(cpu, sys, power).pulled,
                    energy_oracle(&mut oracle_timers, cpu, oracle_sys, power, caps.as_deref()),
                )
            } else {
                (
                    load.run(cpu, sys).pulled,
                    load_oracle(&mut oracle_timers, cpu, oracle_sys),
                )
            }
        };
        let mut now = SimTime::ZERO;
        for op in &ops {
            match *op {
                Op::Advance(ms) => {
                    now += SimDuration::from_millis(ms);
                    sys.set_now(now);
                    oracle_sys.set_now(now);
                }
                Op::RunAll => {
                    for c in 0..n {
                        let (got, want) = run(CpuId(c), &mut sys, &mut oracle_sys, &power);
                        prop_assert_eq!(got, want, "pulls of cpu{} diverged", c);
                    }
                }
                Op::Run(c) => {
                    let (got, want) = run(CpuId(c % n), &mut sys, &mut oracle_sys, &power);
                    prop_assert_eq!(got, want);
                }
                Op::Heat(c, w, node) => {
                    let topo = sys.topology();
                    let cpu = CpuId(c % n);
                    let cpus = if node {
                        topo.cpus_of_node(topo.node_of(cpu))
                    } else {
                        topo.cpus_of_package(topo.package_of(cpu))
                    };
                    for c in cpus {
                        power.observe(c, Watts(w), SimDuration::from_secs(5));
                    }
                }
                Op::Budget(c, w) => power.set_max_power(CpuId(c % n), Watts(w)),
                _ => {
                    mutate(&mut sys, op);
                    mutate(&mut oracle_sys, op);
                }
            }
            prop_assert_eq!(
                sys.stats().migrations_by_reason,
                oracle_sys.stats().migrations_by_reason
            );
            prop_assert_eq!(system_hash(&sys), system_hash(&oracle_sys));
        }
        sys.validate();
    }
}
