//! Hot task migration (Section 4.5, Fig. 5).
//!
//! Energy balancing needs multiple tasks per queue to combine. When a
//! CPU runs a *single* hot task, the policy instead migrates that task
//! to a cooler CPU at the moment the hot CPU approaches the temperature
//! limit at which throttling would start. The destination must be
//! *considerably* cooler — a minimum thermal-power gap — which bounds
//! the migration frequency.
//!
//! The search for a destination walks the scheduler-domain hierarchy
//! bottom-up. For each domain, the coolest CPU is examined: if it is
//! cool enough and idle, the hot task moves there; if it is cool enough
//! and runs a single *cool* task, the two tasks are exchanged (so no
//! load imbalance arises); otherwise the search ascends one level. If
//! the top level yields nothing, every CPU is hot and the task stays —
//! throttling is then unavoidable.
//!
//! SMT adaptations (Section 4.7): the trigger compares the *sum* of the
//! sibling thermal powers against the package budget (only physical
//! processors overheat), candidate coolness is judged per core, and
//! the sibling level is skipped when searching for a destination
//! (migrating to an SMT sibling does not cool anything).
//!
//! CMP adaptation (Section 7): on multi-core packages the destination
//! search naturally includes the *other cores of the same die* — the
//! core-level scheduler domain is walked before the node level, so a
//! cooler core one die away is preferred over a cooler package two
//! migrations' worth of cache misses away.
//!
//! # Cost of the search
//!
//! "The coolest CPU of a domain" is a minimum over the domain's span,
//! but a machine's hot CPUs all ask for it within one scheduler tick,
//! against the same thermal powers. [`HotSearch`] therefore holds two
//! derived tables that make each search O(groups) instead of O(span):
//!
//! - a **coolness table**: every core's average thermal power, filled
//!   once per tick by [`HotSearch::refresh`] (thermal powers only move
//!   in the physics phase, so the table is exact for the whole tick);
//! - a **per-group memo**: each domain group is one hardware unit, and
//!   the memo keeps the unit's best two candidates *on distinct cores*
//!   under the search's ranking. A domain's candidate is the best of
//!   its groups' entries, taking a group's second entry when its first
//!   sits on the source core. Entries are keyed on the table's stamp
//!   and on the unit's [`System::group_gen`], which moves whenever a
//!   member queue's task set changes — the same scheme as the energy
//!   balancer's [`crate::GroupRatioCache`].
//!
//! The ranking is a total order (coolness under `total_cmp`, then
//! `nr_running`, then CPU id), so the memoised minimum is the very CPU
//! the span scan would pick, NaN thermal powers included. The idle,
//! exchange and gap tests still read live state.

use crate::metrics::PowerState;
use ebs_sched::{MigrationReason, System, TaskId};
use ebs_topology::{CoreId, CpuGroup, CpuId, GroupUnit, SchedDomain, Topology};
use ebs_units::Watts;
use std::cmp::Ordering;

/// Tunables of hot task migration.
#[derive(Clone, Copy, Debug)]
pub struct HotTaskConfig {
    /// Trigger fraction: act when the package thermal power reaches
    /// this fraction of the package maximum power ("comes closer to
    /// the CPU's maximum power than a predefined threshold").
    pub trigger_fraction: f64,
    /// Minimum gap between source and destination per-CPU thermal
    /// power, expressed as a fraction of the source CPU's maximum
    /// power ("the destination CPU must be considerably cooler ... a
    /// threshold by which the thermal powers must at least differ").
    pub min_gap_fraction: f64,
    /// A destination's running task counts as *cool* (exchangeable) if
    /// its profile is below the hot task's profile by this many watts.
    pub exchange_margin: Watts,
}

impl Default for HotTaskConfig {
    fn default() -> Self {
        HotTaskConfig {
            trigger_fraction: 0.95,
            min_gap_fraction: 0.20,
            exchange_margin: Watts(5.0),
        }
    }
}

/// The decision the migrator reached for a hot CPU.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HotMigration {
    /// The hot task moved to an idle CPU.
    ToIdle { task: TaskId, dest: CpuId },
    /// The hot task swapped places with a cool task.
    Exchanged {
        task: TaskId,
        dest: CpuId,
        cool_task: TaskId,
    },
}

/// Hot task migration policy.
#[derive(Clone, Copy, Debug, Default)]
pub struct HotTaskMigrator {
    cfg: HotTaskConfig,
}

impl HotTaskMigrator {
    /// Creates a migrator with the given tunables.
    pub fn new(cfg: HotTaskConfig) -> Self {
        HotTaskMigrator { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> &HotTaskConfig {
        &self.cfg
    }

    /// Whether `cpu` currently satisfies the migration trigger: it runs
    /// exactly one task and its *package* thermal power has reached the
    /// trigger fraction of the package budget.
    pub fn triggered(&self, cpu: CpuId, sys: &System, power: &PowerState) -> bool {
        let rq = sys.rq(cpu);
        if rq.nr_running() != 1 || rq.current().is_none() {
            return false;
        }
        let topo = sys.topology();
        let pkg = topo.package_of(cpu);
        let thermal: Watts = topo
            .threads_of_package(pkg)
            .map(|c| power.thermal_power(c))
            .sum();
        let budget: Watts = topo
            .threads_of_package(pkg)
            .map(|c| power.max_power(c))
            .sum();
        self.package_hot(thermal, budget)
    }

    /// The package half of the trigger: the package's summed thermal
    /// power has reached the trigger fraction of its summed budget.
    /// Engines that screen whole packages once per tick call this with
    /// the same sums [`HotTaskMigrator::triggered`] forms.
    pub fn package_hot(&self, thermal: Watts, budget: Watts) -> bool {
        thermal.0 >= budget.0 * self.cfg.trigger_fraction
    }

    /// Checks the trigger and, if it fires, searches for a destination
    /// and performs the migration. Returns what happened, if anything.
    ///
    /// A one-shot convenience over [`HotTaskMigrator::migrate`]: it
    /// builds and fills a fresh [`HotSearch`] (no capacity table) per
    /// call. Engines keep one `HotSearch` across calls instead.
    ///
    /// The caller (the simulation engine) is responsible for context
    /// switching the CPUs whose running tasks were moved, as Linux's
    /// migration thread would.
    pub fn run(&self, cpu: CpuId, sys: &mut System, power: &PowerState) -> Option<HotMigration> {
        if !self.triggered(cpu, sys, power) {
            return None;
        }
        let mut search = HotSearch::new(sys.topology(), None);
        search.refresh(sys.topology(), power);
        self.migrate(cpu, sys, power, &mut search)
    }

    /// Searches a destination for the running task of `cpu`, which the
    /// caller has found [triggered](HotTaskMigrator::triggered), and
    /// performs the migration. `search` must have been
    /// [refreshed](HotSearch::refresh) since `power` last changed.
    ///
    /// Without a capacity table each domain's coolest CPU is examined.
    /// With one, the search prefers the *highest-capacity* CPU among
    /// those that satisfy the coolness gap, coolness and determinism
    /// breaking ties: a hot task is by construction a throughput-heavy
    /// one, and parking it on a sufficiently cool efficiency core when
    /// a cool performance core also qualifies trades the thermal win
    /// for a throughput collapse.
    pub fn migrate(
        &self,
        cpu: CpuId,
        sys: &mut System,
        power: &PowerState,
        search: &mut HotSearch,
    ) -> Option<HotMigration> {
        let hot_task = sys.current(cpu)?;
        let hot_profile = sys.task(hot_task).profile();
        // A shared handle keeps the domains readable while `sys` is
        // mutated below, without copying them.
        let topo_arc = sys.topology_shared();
        let topo = &*topo_arc;
        let src_core = topo.core_of(cpu);
        let src_thermal = Watts(search.coolness[src_core.0]);
        let min_gap = power.max_power(cpu) * self.cfg.min_gap_fraction;
        for domain in topo.domains(cpu) {
            // Migrating to an SMT sibling does not cool anything: skip
            // shared-power domains.
            if domain.flags().share_cpu_power {
                continue;
            }
            let Some(dest) = search.coolest(sys, domain, src_core, |cool| {
                src_thermal - Watts(cool) >= min_gap
            }) else {
                continue;
            };
            // CPU cool enough?
            if src_thermal - Watts(dest.cool) < min_gap {
                continue; // Ascend one level.
            }
            let dest = dest.cpu;
            // CPU idle?
            if sys.rq(dest).is_idle() {
                sys.migrate_running(cpu, dest, MigrationReason::HotTask)
                    .expect("triggered CPU has a running task");
                return Some(HotMigration::ToIdle {
                    task: hot_task,
                    dest,
                });
            }
            // CPU running (exactly) a cool task? Exchange the tasks so
            // no load imbalance arises.
            if sys.rq(dest).nr_running() == 1 {
                if let Some(cool_task) = sys.current(dest) {
                    if sys.task(cool_task).profile() + self.cfg.exchange_margin <= hot_profile {
                        sys.migrate_running(dest, cpu, MigrationReason::Exchange)
                            .expect("destination has a running task");
                        sys.migrate_running(cpu, dest, MigrationReason::HotTask)
                            .expect("source still has its running task");
                        return Some(HotMigration::Exchanged {
                            task: hot_task,
                            dest,
                            cool_task,
                        });
                    }
                }
            }
            // Neither idle nor running a cool task: ascend.
        }
        None
    }
}

/// One destination candidate and its ranking key.
#[derive(Clone, Copy, Debug)]
struct Candidate {
    /// Average thermal power of the CPU's core, in watts.
    cool: f64,
    nr_running: usize,
    cpu: CpuId,
    core: CoreId,
}

impl Candidate {
    /// Core coolness first, then prefer idle CPUs, then lower ids for
    /// determinism. Total, so a NaN thermal power on a degenerate
    /// machine skews instead of panics.
    fn key_cmp(&self, other: &Candidate) -> Ordering {
        self.cool
            .total_cmp(&other.cool)
            .then((self.nr_running, self.cpu.0).cmp(&(other.nr_running, other.cpu.0)))
    }
}

/// The best two candidates of a CPU set that sit on distinct cores.
type BestTwo = [Option<Candidate>; 2];

/// A memoised [`BestTwo`] of one (unit, capacity level).
#[derive(Clone, Copy, Debug, Default)]
struct Memo {
    /// Table stamp the entry was computed under (0: never).
    stamp: u64,
    /// The unit's [`System::group_gen`] at that time.
    gen: u64,
    best: BestTwo,
}

/// Destination-search state of [`HotTaskMigrator::migrate`]: the
/// per-tick core-coolness table and the per-group memo described in
/// the module docs. Derived state only — it is never serialized, and
/// an engine whose [`System`] is replaced wholesale (a snapshot
/// restore) calls [`HotSearch::invalidate`].
#[derive(Clone, Debug)]
pub struct HotSearch {
    /// Bumped by every [`HotSearch::refresh`]; memo entries of an
    /// older stamp are stale.
    stamp: u64,
    /// Average thermal power per core, indexed by `CoreId`.
    coolness: Vec<f64>,
    /// Capacity level per CPU: an index into `level_caps`. Every CPU
    /// is on level 0 without a capacity table.
    cpu_level: Vec<usize>,
    /// The distinct capacities of the table, in first-seen CPU order.
    level_caps: Vec<f64>,
    /// Whether a capacity table ranks the candidates: the gap then
    /// filters candidates before they compete, so cores whose coolness
    /// is NaN (which never satisfy the gap) are never memoised.
    capacity_aware: bool,
    /// Memo entries per (unit, capacity level), units laid out as all
    /// cores, then all packages, then all nodes.
    memo: Vec<Memo>,
    n_cores: usize,
    n_packages: usize,
}

impl HotSearch {
    /// Creates an empty search state shaped like `topo`. `capacities`
    /// (one value per CPU) switches on the capacity-aware ranking;
    /// CPUs of equal capacity share one memo entry per unit, so the
    /// search costs O(groups × distinct capacities).
    ///
    /// # Panics
    ///
    /// Panics if `capacities` does not hold one value per CPU.
    pub fn new(topo: &Topology, capacities: Option<&[f64]>) -> Self {
        let (cpu_level, level_caps) = match capacities {
            None => (vec![0; topo.n_cpus()], vec![1.0]),
            Some(caps) => {
                assert_eq!(caps.len(), topo.n_cpus(), "one capacity per CPU");
                let mut levels: Vec<f64> = Vec::new();
                let cpu_level = caps
                    .iter()
                    .map(
                        |&cap| match levels.iter().position(|l| l.to_bits() == cap.to_bits()) {
                            Some(i) => i,
                            None => {
                                levels.push(cap);
                                levels.len() - 1
                            }
                        },
                    )
                    .collect();
                (cpu_level, levels)
            }
        };
        let units = topo.n_cores() + topo.n_packages() + topo.n_nodes();
        HotSearch {
            stamp: 0,
            coolness: vec![0.0; topo.n_cores()],
            cpu_level,
            memo: vec![Memo::default(); units * level_caps.len()],
            level_caps,
            capacity_aware: capacities.is_some(),
            n_cores: topo.n_cores(),
            n_packages: topo.n_packages(),
        }
    }

    /// Fills the coolness table from `power` and retires every memo
    /// entry. Call once after each change of the thermal powers and
    /// before the next [`HotTaskMigrator::migrate`].
    pub fn refresh(&mut self, topo: &Topology, power: &PowerState) {
        self.stamp += 1;
        for (core, cool) in self.coolness.iter_mut().enumerate() {
            *cool = core_avg_thermal(topo, CoreId(core), power).0;
        }
    }

    /// Forgets every memo entry (the coolness table stays until the
    /// next refresh).
    pub fn invalidate(&mut self) {
        self.memo.fill(Memo::default());
    }

    /// The best-ranked candidate of `domain` outside `src_core`. With a
    /// capacity table only candidates whose coolness satisfies `gap`
    /// compete, ranked by capacity (descending) before the key.
    fn coolest(
        &mut self,
        sys: &System,
        domain: &SchedDomain,
        src_core: CoreId,
        gap: impl Fn(f64) -> bool,
    ) -> Option<Candidate> {
        let mut best: Option<(usize, Candidate)> = None;
        for group in domain.groups() {
            for level in 0..self.level_caps.len() {
                let [first, second] = self.best_two(sys, group, level);
                let pick = if first.is_some_and(|c| c.core == src_core) {
                    second
                } else {
                    first
                };
                let Some(cand) = pick else { continue };
                // Exact per entry: `src - cool >= gap` only turns false
                // as the (non-NaN) coolness grows, so when the coolest
                // CPU of a (group, level) fails it, all of them do.
                if self.capacity_aware && !gap(cand.cool) {
                    continue;
                }
                let better = best.is_none_or(|(best_level, b)| {
                    self.level_caps[best_level]
                        .total_cmp(&self.level_caps[level])
                        .then(cand.key_cmp(&b))
                        .is_lt()
                });
                if better {
                    best = Some((level, cand));
                }
            }
        }
        best.map(|(_, cand)| cand)
    }

    /// The group's [`BestTwo`] on one capacity level: memoised for
    /// core, package and node units, scanned for single CPUs and
    /// untagged groups.
    fn best_two(&mut self, sys: &System, group: &CpuGroup, level: usize) -> BestTwo {
        let unit = match group.unit() {
            Some(GroupUnit::Core(c)) => Some(c.0),
            Some(GroupUnit::Package(p)) => Some(self.n_cores + p.0),
            Some(GroupUnit::Node(n)) => Some(self.n_cores + self.n_packages + n.0),
            Some(GroupUnit::Cpu(_)) | None => None,
        };
        let (Some(unit), Some(gen)) = (unit, sys.group_gen(group)) else {
            return self.scan(sys, group.cpus(), level);
        };
        let slot = unit * self.level_caps.len() + level;
        let memo = self.memo[slot];
        if memo.stamp == self.stamp && memo.gen == gen {
            return memo.best;
        }
        let best = self.scan(sys, group.cpus(), level);
        self.memo[slot] = Memo {
            stamp: self.stamp,
            gen,
            best,
        };
        best
    }

    /// The best two distinct-core candidates among `cpus` on `level`.
    fn scan(&self, sys: &System, cpus: &[CpuId], level: usize) -> BestTwo {
        let topo = sys.topology();
        let mut best: BestTwo = [None, None];
        for &cpu in cpus {
            if self.cpu_level[cpu.0] != level {
                continue;
            }
            let core = topo.core_of(cpu);
            let cool = self.coolness[core.0];
            if self.capacity_aware && cool.is_nan() {
                continue;
            }
            let cand = Candidate {
                cool,
                nr_running: sys.rq(cpu).nr_running(),
                cpu,
                core,
            };
            match best[0] {
                None => best[0] = Some(cand),
                Some(first) if cand.key_cmp(&first).is_lt() => {
                    // The old first becomes the runner-up unless it
                    // shares the new winner's core, in which case the
                    // old runner-up (on another core) stays.
                    if first.core != cand.core {
                        best[1] = Some(first);
                    }
                    best[0] = Some(cand);
                }
                Some(first) => {
                    if first.core != cand.core
                        && best[1].is_none_or(|second| cand.key_cmp(&second).is_lt())
                    {
                        best[1] = Some(cand);
                    }
                }
            }
        }
        best
    }
}

/// Per-logical-CPU average thermal power of a core — the coolness
/// metric for destination candidates. Judging per core prevents "cool"
/// idle siblings of hot cores from attracting the task. On
/// single-core packages (the paper's machine) this equals the package
/// average.
fn core_avg_thermal(topo: &Topology, core: CoreId, power: &PowerState) -> Watts {
    let sum: Watts = topo
        .threads_of_core(core)
        .map(|c| power.thermal_power(c))
        .sum();
    sum / topo.threads_per_core() as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::metrics::{PowerState, PowerStateConfig};
    use ebs_sched::TaskConfig;
    use ebs_topology::Topology;
    use ebs_units::SimDuration;

    fn heat(power: &mut PowerState, cpu: CpuId, watts: f64) {
        for _ in 0..5_000 {
            power.observe(cpu, Watts(watts), SimDuration::from_millis(100));
        }
    }

    fn spawn_running(sys: &mut System, cpu: CpuId, profile: f64) -> TaskId {
        let id = sys.spawn(
            TaskConfig {
                initial_profile: Watts(profile),
                ..TaskConfig::default()
            },
            cpu,
        );
        sys.context_switch(cpu);
        id
    }

    fn setup_no_smt() -> (System, PowerState) {
        let sys = System::new(Topology::xseries445(false));
        let power = PowerState::uniform(8, Watts(47.0), PowerStateConfig::default());
        (sys, power)
    }

    #[test]
    fn trigger_requires_single_task_and_heat() {
        let (mut sys, mut power) = setup_no_smt();
        let m = HotTaskMigrator::default();
        // Idle CPU: no trigger.
        assert!(!m.triggered(CpuId(0), &sys, &power));
        let _hot = spawn_running(&mut sys, CpuId(0), 61.0);
        // Cool CPU: no trigger yet.
        assert!(!m.triggered(CpuId(0), &sys, &power));
        heat(&mut power, CpuId(0), 61.0);
        assert!(m.triggered(CpuId(0), &sys, &power));
        // Two tasks: energy balancing territory, not hot migration.
        sys.spawn(TaskConfig::default(), CpuId(0));
        assert!(!m.triggered(CpuId(0), &sys, &power));
    }

    #[test]
    fn migrates_to_coolest_idle_cpu() {
        let (mut sys, mut power) = setup_no_smt();
        let hot = spawn_running(&mut sys, CpuId(0), 61.0);
        heat(&mut power, CpuId(0), 61.0);
        // CPU 2 is slightly warm, CPU 1 and 3 are cold.
        heat(&mut power, CpuId(2), 20.0);
        let m = HotTaskMigrator::default();
        let result = m.run(CpuId(0), &mut sys, &power).unwrap();
        match result {
            HotMigration::ToIdle { task, dest } => {
                assert_eq!(task, hot);
                // Coolest idle CPU on the same node, lowest id tie-break.
                assert_eq!(dest, CpuId(1));
            }
            other => panic!("expected idle migration, got {other:?}"),
        }
        assert_eq!(sys.task(hot).cpu(), CpuId(1));
        assert_eq!(sys.current(CpuId(0)), None);
        sys.validate();
    }

    #[test]
    fn prefers_same_node_destination() {
        let (mut sys, mut power) = setup_no_smt();
        let hot = spawn_running(&mut sys, CpuId(0), 61.0);
        heat(&mut power, CpuId(0), 61.0);
        // Node-0 CPUs warm but eligible; node-1 CPUs ice cold.
        for c in 1..4 {
            heat(&mut power, CpuId(c), 25.0);
        }
        let m = HotTaskMigrator::default();
        let result = m.run(CpuId(0), &mut sys, &power).unwrap();
        if let HotMigration::ToIdle { dest, .. } = result {
            assert!(
                sys.topology().same_node(dest, CpuId(0)),
                "crossed node though a same-node CPU was cool enough"
            );
        }
        let _ = hot;
    }

    #[test]
    fn exchanges_with_cool_task_when_no_idle_cpu() {
        let (mut sys, mut power) = setup_no_smt();
        let hot = spawn_running(&mut sys, CpuId(0), 61.0);
        // Every other CPU runs a cool task.
        let mut cool_ids = Vec::new();
        for c in 1..8 {
            cool_ids.push(spawn_running(&mut sys, CpuId(c), 30.0));
            heat(&mut power, CpuId(c), 30.0);
        }
        heat(&mut power, CpuId(0), 61.0);
        let m = HotTaskMigrator::default();
        let result = m.run(CpuId(0), &mut sys, &power).unwrap();
        match result {
            HotMigration::Exchanged {
                task,
                dest,
                cool_task,
            } => {
                assert_eq!(task, hot);
                assert_eq!(sys.task(hot).cpu(), dest);
                // The cool task came back to the hot CPU: no load
                // imbalance.
                assert_eq!(sys.task(cool_task).cpu(), CpuId(0));
                assert_eq!(sys.nr_running(CpuId(0)), 1);
                assert_eq!(sys.nr_running(dest), 1);
            }
            other => panic!("expected exchange, got {other:?}"),
        }
        sys.validate();
    }

    #[test]
    fn stays_put_when_all_cpus_hot() {
        // "If no suitable CPU is found after searching the top-level
        // domain, all of the system's CPUs are hot and the hot task
        // must remain" — throttling follows.
        let (mut sys, mut power) = setup_no_smt();
        let hot = spawn_running(&mut sys, CpuId(0), 61.0);
        for c in 0..8 {
            heat(&mut power, CpuId(c), 61.0);
            if c > 0 {
                spawn_running(&mut sys, CpuId(c), 61.0);
            }
        }
        let m = HotTaskMigrator::default();
        assert!(m.run(CpuId(0), &mut sys, &power).is_none());
        assert_eq!(sys.task(hot).cpu(), CpuId(0));
    }

    #[test]
    fn gap_threshold_blocks_marginal_moves() {
        let (mut sys, mut power) = setup_no_smt();
        let _hot = spawn_running(&mut sys, CpuId(0), 61.0);
        heat(&mut power, CpuId(0), 47.0);
        // All other CPUs only slightly cooler than the source.
        for c in 1..8 {
            heat(&mut power, CpuId(c), 44.0);
        }
        let m = HotTaskMigrator::default();
        assert!(m.run(CpuId(0), &mut sys, &power).is_none());
        assert_eq!(sys.stats().migrations(), 0);
    }

    #[test]
    fn capacity_search_prefers_cool_performance_core() {
        let (mut sys, mut power) = setup_no_smt();
        let hot = spawn_running(&mut sys, CpuId(0), 61.0);
        heat(&mut power, CpuId(0), 61.0);
        // Odd CPUs are efficiency cores. On the source node, CPU 1
        // (efficiency) is the coolest CPU but CPU 2 (performance) also
        // satisfies the gap: the legacy search picks CPU 1, the
        // capacity-aware search must prefer CPU 2.
        heat(&mut power, CpuId(1), 2.0);
        heat(&mut power, CpuId(2), 10.0);
        for c in 3..8 {
            heat(&mut power, CpuId(c), 40.0);
        }
        let caps: Vec<f64> = (0..8)
            .map(|c| if c % 2 == 1 { 0.55 } else { 1.0 })
            .collect();
        let m = HotTaskMigrator::default();
        let mut legacy_sys = sys.clone();
        let legacy = m.run(CpuId(0), &mut legacy_sys, &power).unwrap();
        assert!(
            matches!(legacy, HotMigration::ToIdle { dest, .. } if dest == CpuId(1)),
            "legacy search should pick the coolest CPU: {legacy:?}"
        );
        let mut search = HotSearch::new(sys.topology(), Some(&caps));
        search.refresh(sys.topology(), &power);
        let aware = m.migrate(CpuId(0), &mut sys, &power, &mut search).unwrap();
        match aware {
            HotMigration::ToIdle { task, dest } => {
                assert_eq!(task, hot);
                assert_eq!(dest, CpuId(2), "hot task parked on an efficiency core");
            }
            other => panic!("expected idle migration, got {other:?}"),
        }
        sys.validate();
    }

    #[test]
    fn smt_trigger_uses_package_sum_and_skips_siblings() {
        let mut sys = System::new(Topology::xseries445(true));
        // Per-logical budget 20 W (40 W package, Section 6.4).
        let mut power = PowerState::uniform(16, Watts(20.0), PowerStateConfig::default());
        let hot = spawn_running(&mut sys, CpuId(0), 61.0);
        // CPU 0 runs bitcnts (61 W), sibling CPU 8 idles at 6.8 W:
        // package sum ~67.8 W >= 0.95 * 40 W.
        heat(&mut power, CpuId(0), 61.0);
        heat(&mut power, CpuId(8), 6.8);
        let m = HotTaskMigrator::default();
        assert!(m.triggered(CpuId(0), &sys, &power));
        let result = m.run(CpuId(0), &mut sys, &power).unwrap();
        match result {
            HotMigration::ToIdle { task, dest } => {
                assert_eq!(task, hot);
                // Never the sibling (CPU 8), and same node preferred.
                assert!(!sys.topology().same_package(dest, CpuId(0)));
                assert!(sys.topology().same_node(dest, CpuId(0)));
            }
            other => panic!("unexpected {other:?}"),
        }
        sys.validate();
    }

    #[test]
    fn smt_cool_sibling_of_hot_package_is_not_a_destination() {
        let mut sys = System::new(Topology::xseries445(true));
        let mut power = PowerState::uniform(16, Watts(20.0), PowerStateConfig::default());
        let _hot = spawn_running(&mut sys, CpuId(0), 61.0);
        heat(&mut power, CpuId(0), 61.0);
        heat(&mut power, CpuId(8), 6.8);
        // Package 1 (CPUs 1 and 9): CPU 1 runs hot, CPU 9 idles and
        // looks cold in isolation, but the *package* is hot.
        spawn_running(&mut sys, CpuId(1), 61.0);
        heat(&mut power, CpuId(1), 61.0);
        heat(&mut power, CpuId(9), 6.8);
        // All other packages cold.
        let m = HotTaskMigrator::default();
        let result = m.run(CpuId(0), &mut sys, &power).unwrap();
        if let HotMigration::ToIdle { dest, .. } = result {
            assert_ne!(sys.topology().package_of(dest), ebs_topology::PackageId(1));
        }
    }
}
