//! Where each CPU sits in its domain stack, and the load step's answers
//! memoised per domain span.
//!
//! The balancers walk every CPU's domain stack, and at a balancing
//! instant every CPU of a machine does so in the same step. Two kinds
//! of work in that walk repeat:
//!
//! - **The local group.** [`SchedDomain::local_group_index`] scans the
//!   whole span. Per-CPU domain stacks never change, so
//!   [`SpanIndex`] records each (CPU, level)'s local group once, at
//!   construction, and the walk reads it in O(1).
//! - **Per-span searches.** Every CPU of one span sees the same domain
//!   (the same groups in the same order), so a search that does not
//!   depend on the asking CPU has one answer per span. [`LoadMemo`]
//!   keeps the load step's two such searches, keyed on the aggregate
//!   tree's generations ([`crate::AggCell::gen`]).
//!
//! # Why the memoised answers are exact
//!
//! A unit's generation moves on every change of a member runqueue's
//! task set or of a member task's profile (see
//! [`crate::LoadAggregates`]), and every change to a CPU walks up its
//! core, package, node and the root. Each span is covered by one of
//! those units ([`SpanIndex::span_gen`]), so an unchanged generation
//! means unchanged `nr_running` on every CPU of the span, and so an
//! unchanged answer.
//!
//! - *Busiest group.* [`crate::find_busiest_group`] returns, among the
//!   groups other than the local one, the first whose load is the
//!   maximum, provided that maximum beats the local load. The memo
//!   keeps the first maximum of all groups and the first maximum of the
//!   rest. For a local group that is not the first maximum, the first
//!   maximum is the answer's candidate; for the first maximum itself,
//!   the second is. The local load is read fresh, so the comparison is
//!   the one the scan makes.
//! - *Busiest queue.* [`crate::busiest_queue_in_group`] depends on the
//!   group's `nr_running` values alone, so it is kept per unit and
//!   keyed on the unit's generation; its tie rule (the last maximum
//!   wins) is kept by computing the memo with the function itself.
//!
//! Generations restart from a snapshot's values on restore, so a
//! holder drops its memo whenever the system it reads is restored
//! ([`LoadMemo::invalidate`]). The memo is never serialized.

use crate::load_balance::{busiest_queue_in_group, group_avg_load, group_effective_load};
use crate::system::System;
use ebs_topology::{CpuGroup, CpuId, GroupUnit, SchedDomain, Topology};

/// Where one CPU's domain level sits in the hierarchy.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LevelPos {
    /// Index of the local group, the one holding the CPU.
    pub local: usize,
    /// Slot of the domain's span in per-span tables.
    pub span: usize,
}

/// Per-(CPU, level) local groups and span slots of a topology.
#[derive(Clone, Debug)]
pub struct SpanIndex {
    /// `pos[cpu][level]`.
    pos: Vec<Vec<LevelPos>>,
    /// The unit whose generation covers each span; `None` is the root
    /// (the whole machine).
    span_unit: Vec<Option<GroupUnit>>,
}

impl SpanIndex {
    /// Builds the table for `topo`. Domains at the same level with the
    /// same groups share one span slot.
    ///
    /// Construction stays O(groups) per (CPU, level): a unit-tagged
    /// group is exactly its unit's CPUs, so membership and group
    /// equality are unit comparisons, and only the first CPU of a span
    /// checks that the covering unit holds the whole span.
    pub fn new(topo: &Topology) -> Self {
        // The first slot (and its first CPU) per (level, parent unit),
        // parent units numbered densely: cores, packages, nodes, root.
        let n_units = topo.n_cores() + topo.n_packages() + topo.n_nodes() + 1;
        let dense = |unit: Option<GroupUnit>| match unit {
            Some(GroupUnit::Cpu(_)) => unreachable!("a parent unit is never one CPU"),
            Some(GroupUnit::Core(c)) => c.0,
            Some(GroupUnit::Package(p)) => topo.n_cores() + p.0,
            Some(GroupUnit::Node(n)) => topo.n_cores() + topo.n_packages() + n.0,
            None => n_units - 1,
        };
        let mut slots: Vec<Vec<Option<(usize, CpuId)>>> = Vec::new();
        let mut span_unit = Vec::new();
        let pos = topo
            .cpu_ids()
            .map(|cpu| {
                topo.domains(cpu)
                    .iter()
                    .enumerate()
                    .map(|(level, domain)| {
                        let local = domain
                            .groups()
                            .iter()
                            .position(|g| match g.unit() {
                                Some(unit) => unit_holding(topo, cpu, unit) == unit,
                                None => g.contains(cpu),
                            })
                            .expect("a CPU's own domain holds it");
                        let parent = parent_unit(topo, cpu, domain);
                        if slots.len() <= level {
                            slots.resize(level + 1, vec![None; n_units]);
                        }
                        let first = &mut slots[level][dense(parent)];
                        let span = match *first {
                            Some((slot, cpu)) if same_groups(&topo.domains(cpu)[level], domain) => {
                                slot
                            }
                            _ => {
                                let slot = span_unit.len();
                                span_unit.push(parent.filter(|&u| {
                                    domain.span().all(|c| unit_holding(topo, c, u) == u)
                                }));
                                first.get_or_insert((slot, cpu));
                                slot
                            }
                        };
                        LevelPos { local, span }
                    })
                    .collect()
            })
            .collect();
        SpanIndex { pos, span_unit }
    }

    /// Where `cpu`'s domain `level` sits.
    #[inline]
    pub fn pos(&self, cpu: CpuId, level: usize) -> LevelPos {
        self.pos[cpu.0][level]
    }

    /// Number of distinct spans.
    pub fn n_spans(&self) -> usize {
        self.span_unit.len()
    }

    /// The change counter of a span: the generation of the smallest
    /// unit holding all of its CPUs.
    #[inline]
    pub fn span_gen(&self, sys: &System, span: usize) -> u64 {
        let agg = sys.aggregates();
        match self.span_unit[span] {
            Some(unit) => agg.cell(unit).expect("span units have cells").gen,
            None => agg.root().gen,
        }
    }
}

/// The unit of `kind`'s kind that holds `cpu`.
fn unit_holding(topo: &Topology, cpu: CpuId, kind: GroupUnit) -> GroupUnit {
    match kind {
        GroupUnit::Cpu(_) => GroupUnit::Cpu(cpu),
        GroupUnit::Core(_) => GroupUnit::Core(topo.core_of(cpu)),
        GroupUnit::Package(_) => GroupUnit::Package(topo.package_of(cpu)),
        GroupUnit::Node(_) => GroupUnit::Node(topo.node_of(cpu)),
    }
}

/// The unit one level above the domain's groups that holds `cpu`; the
/// root (`None`) above nodes and for untagged groups.
fn parent_unit(topo: &Topology, cpu: CpuId, domain: &SchedDomain) -> Option<GroupUnit> {
    Some(match domain.groups()[0].unit()? {
        GroupUnit::Cpu(_) => GroupUnit::Core(topo.core_of(cpu)),
        GroupUnit::Core(_) => GroupUnit::Package(topo.package_of(cpu)),
        GroupUnit::Package(_) => GroupUnit::Node(topo.node_of(cpu)),
        GroupUnit::Node(_) => return None,
    })
}

/// Whether two domains have the same level, flags and groups in the same
/// order. Tagged groups compare by unit (a tagged group is exactly its
/// unit's CPUs), untagged ones by their CPU lists.
fn same_groups(a: &SchedDomain, b: &SchedDomain) -> bool {
    a.level() == b.level()
        && a.flags() == b.flags()
        && a.groups().len() == b.groups().len()
        && a.groups()
            .iter()
            .zip(b.groups())
            .all(|(x, y)| match (x.unit(), y.unit()) {
                (Some(u), Some(v)) => u == v,
                _ => x.cpus() == y.cpus(),
            })
}

/// Sentinel forcing a slot to recompute (generations start at 0 and
/// only grow between restores).
const STALE: u64 = u64::MAX;

/// A group index and its load, if any group qualifies.
type Ranked = Option<(usize, f64)>;

/// The load step's per-span and per-unit answers (see the module
/// docs).
#[derive(Clone, Debug)]
pub struct LoadMemo {
    /// Whether group loads are capacity-normalized
    /// ([`group_effective_load`]) rather than per CPU.
    by_capacity: bool,
    /// Per span: `(gen, first maximum, first maximum of the rest)`.
    busiest: Vec<(u64, Ranked, Ranked)>,
    /// Busiest queue per core / package / node: `(gen, queue)`.
    queue_core: Vec<(u64, Option<CpuId>)>,
    queue_package: Vec<(u64, Option<CpuId>)>,
    queue_node: Vec<(u64, Option<CpuId>)>,
}

impl LoadMemo {
    /// An all-stale memo for `topo`'s spans (numbered by `index`).
    pub fn new(topo: &Topology, index: &SpanIndex) -> Self {
        LoadMemo {
            by_capacity: false,
            busiest: vec![(STALE, None, None); index.n_spans()],
            queue_core: vec![(STALE, None); topo.n_cores()],
            queue_package: vec![(STALE, None); topo.n_packages()],
            queue_node: vec![(STALE, None); topo.n_nodes()],
        }
    }

    /// Marks every entry stale. Holders call this when the system they
    /// read is restored, or when they change the load measure.
    pub fn invalidate(&mut self) {
        for slot in &mut self.busiest {
            slot.0 = STALE;
        }
        for slot in self
            .queue_core
            .iter_mut()
            .chain(&mut self.queue_package)
            .chain(&mut self.queue_node)
        {
            slot.0 = STALE;
        }
    }

    /// [`crate::find_busiest_group`] (or, `by_capacity`,
    /// [`crate::find_busiest_group_capacity`]) for the domain at `pos`,
    /// with the same result bits.
    pub fn busiest_group(
        &mut self,
        sys: &System,
        index: &SpanIndex,
        pos: LevelPos,
        domain: &SchedDomain,
        by_capacity: bool,
    ) -> Option<(usize, f64)> {
        if by_capacity != self.by_capacity {
            self.by_capacity = by_capacity;
            self.invalidate();
        }
        let load_of = |g: &CpuGroup| {
            if by_capacity {
                group_effective_load(sys, g)
            } else {
                group_avg_load(sys, g)
            }
        };
        let gen = index.span_gen(sys, pos.span);
        let slot = &mut self.busiest[pos.span];
        if slot.0 != gen {
            let mut first: Ranked = None;
            let mut second: Ranked = None;
            for (i, group) in domain.groups().iter().enumerate() {
                let load = load_of(group);
                match first {
                    Some((_, max)) if load <= max => {
                        if second.is_none_or(|(_, s)| load > s) {
                            second = Some((i, load));
                        }
                    }
                    _ => {
                        second = first;
                        first = Some((i, load));
                    }
                }
            }
            *slot = (gen, first, second);
        }
        let (_, first, second) = *slot;
        let candidate = match first {
            Some((i, _)) if i == pos.local => second,
            _ => first,
        };
        let local_load = load_of(&domain.groups()[pos.local]);
        candidate.filter(|&(_, load)| load > local_load)
    }

    /// [`busiest_queue_in_group`], memoised per unit.
    pub fn busiest_queue(&mut self, sys: &System, group: &CpuGroup) -> Option<CpuId> {
        let slot = match (group.cpus(), group.unit()) {
            ([_, _, ..], Some(GroupUnit::Core(c))) => &mut self.queue_core[c.0],
            ([_, _, ..], Some(GroupUnit::Package(p))) => &mut self.queue_package[p.0],
            ([_, _, ..], Some(GroupUnit::Node(n))) => &mut self.queue_node[n.0],
            // Single CPUs are O(1) already; untagged groups have no
            // generation.
            _ => return busiest_queue_in_group(sys, group),
        };
        let gen = sys
            .group_gen(group)
            .expect("unit-tagged multi-CPU group has a generation");
        if slot.0 != gen {
            *slot = (gen, busiest_queue_in_group(sys, group));
        }
        slot.1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::TaskConfig;
    use crate::{find_busiest_group, MigrationReason};
    use ebs_topology::TopologyPreset;

    #[test]
    fn local_groups_match_the_span_scan() {
        let mut presets = TopologyPreset::all();
        presets.extend(TopologyPreset::hybrids());
        presets.push(TopologyPreset::XSeries445 { smt: true });
        for preset in presets {
            let topo = preset.build();
            let index = SpanIndex::new(&topo);
            for cpu in topo.cpu_ids() {
                for (level, domain) in topo.domains(cpu).iter().enumerate() {
                    assert_eq!(
                        Some(index.pos(cpu, level).local),
                        domain.local_group_index(cpu)
                    );
                }
            }
        }
    }

    #[test]
    fn cpus_of_one_span_share_a_slot_and_the_top_is_the_root() {
        let topo = TopologyPreset::Numa64.build();
        let index = SpanIndex::new(&topo);
        // SMT (cores), core (packages), node (nodes) and top (machine).
        assert_eq!(index.n_spans(), 128 + 64 + 8 + 1);
        let top = topo.domains(CpuId(0)).len() - 1;
        assert!(topo
            .cpu_ids()
            .all(|c| index.pos(c, top).span == index.pos(CpuId(0), top).span));
        assert_eq!(index.span_unit[index.pos(CpuId(0), top).span], None);
    }

    #[test]
    fn memoised_searches_follow_migrations() {
        let topo = TopologyPreset::Numa16.build();
        let index = SpanIndex::new(&topo);
        let mut memo = LoadMemo::new(&topo, &index);
        let mut sys = System::new(topo);
        for c in 0..8 {
            for _ in 0..c {
                sys.spawn(TaskConfig::default(), CpuId(c));
            }
        }
        let check = |memo: &mut LoadMemo, sys: &System| {
            for cpu in sys.topology().cpu_ids() {
                for (level, domain) in sys.topology().domains(cpu).iter().enumerate() {
                    let pos = index.pos(cpu, level);
                    let fresh = find_busiest_group(sys, domain, pos.local);
                    let memoised = memo.busiest_group(sys, &index, pos, domain, false);
                    assert_eq!(
                        memoised.map(|(i, l)| (i, l.to_bits())),
                        fresh.map(|(i, l)| (i, l.to_bits()))
                    );
                    for group in domain.groups() {
                        assert_eq!(
                            memo.busiest_queue(sys, group),
                            busiest_queue_in_group(sys, group)
                        );
                    }
                }
            }
        };
        check(&mut memo, &sys);
        let task = sys.rq(CpuId(7)).iter_migration_candidates().next().unwrap();
        sys.migrate_queued(task, CpuId(20), MigrationReason::LoadBalance)
            .unwrap();
        check(&mut memo, &sys);
    }
}
