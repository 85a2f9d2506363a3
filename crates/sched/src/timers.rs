//! The periodic-balancing deadline table both balancers share.
//!
//! Every logical CPU balances each of its domain levels once per that
//! level's interval (Linux's `sd->balance_interval`). The table holds
//! one deadline per (CPU, level); a level is due once the clock reaches
//! its deadline, and firing it re-arms it one interval past now.
//!
//! # Why the fast checks are exact
//!
//! Beside the table the timers keep each CPU's earliest deadline and a
//! cached machine-wide minimum:
//!
//! - [`BalanceTimers::due`] compares the clock with the CPU's earliest
//!   deadline. No level is due before it, so a `false` skips exactly
//!   the walk that would have found nothing, and callers return before
//!   touching the topology.
//! - Deadlines only grow between restores: a level fires only when
//!   `now >= deadline`, and is then re-armed to `now + interval`, which
//!   is later. So the machine-wide minimum can only change when a level
//!   holding it fires. [`BalanceTimers::fire`] drops the cached minimum
//!   exactly then (and a restore always drops it), and
//!   [`BalanceTimers::next_due`] rescans the per-CPU minima, O(CPUs)
//!   instead of O(CPUs × levels), only after such a drop. Every other
//!   call answers from the cache with the value a fresh scan would
//!   give.
//!
//! Snapshots carry the deadline table alone, in the layout the two
//! balancers always wrote; the minima are derived from it.

use crate::system::System;
use ebs_topology::CpuId;
use ebs_units::{SimDuration, SimTime};
use std::cell::Cell;

/// "Never due": the answer for machines without domain levels. ZERO
/// there would floor a variable-stride engine to tick steps forever.
const NEVER: SimTime = SimTime::from_micros(u64::MAX);

/// Per-CPU, per-domain-level balancing deadlines.
#[derive(Clone, Debug)]
pub struct BalanceTimers {
    /// `next[cpu][level]`: when that domain level is due.
    next: Vec<Vec<SimTime>>,
    /// Earliest deadline of each CPU ([`NEVER`] without levels).
    cpu_next: Vec<SimTime>,
    /// Cached minimum of `cpu_next`; `None` after a change that may
    /// have moved it.
    min: Cell<Option<SimTime>>,
}

impl BalanceTimers {
    /// Timers for systems shaped like `sys`: every level of every CPU
    /// due immediately.
    pub fn new(sys: &System) -> Self {
        let topo = sys.topology();
        let next: Vec<Vec<SimTime>> = topo
            .cpu_ids()
            .map(|c| vec![SimTime::ZERO; topo.domains(c).len()])
            .collect();
        BalanceTimers::from_table(next)
    }

    fn from_table(next: Vec<Vec<SimTime>>) -> Self {
        let cpu_next = next.iter().map(|levels| earliest(levels)).collect();
        BalanceTimers {
            next,
            cpu_next,
            min: Cell::new(None),
        }
    }

    /// Number of CPUs tracked.
    pub fn n_cpus(&self) -> usize {
        self.next.len()
    }

    /// Whether any domain level of `cpu` is due at `now`.
    #[inline]
    pub fn due(&self, cpu: CpuId, now: SimTime) -> bool {
        now >= self.cpu_next[cpu.0]
    }

    /// Fires `cpu`'s domain `level` if it is due at `now`, re-arming it
    /// `interval` later. Returns whether it fired.
    pub fn fire(&mut self, cpu: CpuId, level: usize, now: SimTime, interval: SimDuration) -> bool {
        let levels = &mut self.next[cpu.0];
        if now < levels[level] {
            return false;
        }
        levels[level] = now + interval;
        let before = self.cpu_next[cpu.0];
        self.cpu_next[cpu.0] = earliest(levels);
        if self.min.get() == Some(before) {
            self.min.set(None);
        }
        true
    }

    /// The earliest instant any CPU's domain level is due for a
    /// periodic balancing pass. The variable-stride engine bounds its
    /// steps by this so balancing runs on schedule.
    pub fn next_due(&self) -> SimTime {
        if let Some(min) = self.min.get() {
            return min;
        }
        let min = earliest(&self.cpu_next);
        self.min.set(Some(min));
        min
    }

    /// Reads a saved deadline table and discards it (a snapshot section
    /// that does not apply to this engine's balancer).
    pub fn skip(r: &mut ebs_store::StateReader<'_>) -> Result<(), ebs_store::StoreError> {
        r.seq(|r| r.seq(|r| r.time())).map(drop)
    }
}

/// The minimum of a deadline list, [`NEVER`] when it is empty.
fn earliest(deadlines: &[SimTime]) -> SimTime {
    deadlines.iter().copied().min().unwrap_or(NEVER)
}

impl ebs_store::Snapshot for BalanceTimers {
    fn save(&self, w: &mut ebs_store::StateWriter) {
        w.seq(&self.next, |w, levels| {
            w.seq(levels, |w, &t| w.time(t));
        });
    }

    fn restore(&mut self, r: &mut ebs_store::StateReader<'_>) -> Result<(), ebs_store::StoreError> {
        let next = r.seq(|r| r.seq(|r| r.time()))?;
        if next.len() != self.next.len()
            || next.iter().zip(&self.next).any(|(a, b)| a.len() != b.len())
        {
            return Err(ebs_store::StoreError::Invalid(
                "balancer timer table shaped unlike this topology".into(),
            ));
        }
        *self = BalanceTimers::from_table(next);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebs_store::Snapshot;
    use ebs_topology::Topology;

    #[test]
    fn fresh_timers_are_due_everywhere() {
        let sys = System::new(Topology::xseries445(true));
        let timers = BalanceTimers::new(&sys);
        assert_eq!(timers.next_due(), SimTime::ZERO);
        assert!(timers.due(CpuId(5), SimTime::ZERO));
    }

    #[test]
    fn firing_rearms_and_moves_the_minimum() {
        let sys = System::new(Topology::xseries445(false));
        let mut timers = BalanceTimers::new(&sys);
        let now = SimTime::from_millis(10);
        let dt = SimDuration::from_millis(64);
        for c in 0..timers.n_cpus() {
            for level in 0..sys.topology().domains(CpuId(c)).len() {
                assert!(timers.fire(CpuId(c), level, now, dt));
                assert!(!timers.fire(CpuId(c), level, now, dt), "fired twice");
            }
            assert!(!timers.due(CpuId(c), now));
        }
        assert_eq!(timers.next_due(), now + dt);
    }

    #[test]
    fn a_table_without_levels_is_never_due() {
        let timers = BalanceTimers::from_table(vec![Vec::new(); 2]);
        assert_eq!(timers.next_due(), NEVER);
        assert!(!timers.due(CpuId(1), SimTime::from_secs(1)));
    }

    #[test]
    fn restore_rejects_a_foreign_shape() {
        let small = BalanceTimers::new(&System::new(Topology::xseries445(false)));
        let mut big = BalanceTimers::new(&System::new(Topology::xseries445(true)));
        let mut w = ebs_store::StateWriter::new();
        small.save(&mut w);
        let image = w.finish();
        let mut r = image.open().expect("fresh image opens");
        assert!(big.restore(&mut r).is_err());
    }
}
