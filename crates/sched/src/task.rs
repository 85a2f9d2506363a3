//! Tasks: the schedulable entities.
//!
//! Besides the usual scheduler bookkeeping (state, priority, timeslice),
//! a task carries the fields the paper adds to Linux's `task_struct`:
//! the *energy profile* — a variable-period exponential average of the
//! power the task drew while executing (Section 3.3) — and the identity
//! of the binary it was started from, which keys the initial-placement
//! table (Section 4.6).

use crate::system::MigrationReason;
use ebs_store::Snapshot as _;
use ebs_thermal::PowerAverage;
use ebs_topology::CpuId;
use ebs_units::{SimDuration, SimTime, Watts};

/// Identifies a task for the lifetime of a [`crate::System`].
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct TaskId(pub u64);

impl core::fmt::Display for TaskId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "task{}", self.0)
    }
}

/// Identifies the binary a task was started from — the simulation's
/// analogue of the inode number the paper hashes on.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug, Default)]
pub struct BinaryId(pub u64);

/// Task lifecycle states.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum TaskState {
    /// On a runqueue, waiting for the CPU.
    Runnable,
    /// Currently executing on its CPU.
    Running,
    /// Sleeping; not on any runqueue.
    Blocked,
    /// Finished; will never run again.
    Exited,
}

/// The default timeslice for nice 0, as in Linux 2.6 (100 ms).
pub const DEFAULT_TIMESLICE: SimDuration = SimDuration::from_millis(100);

/// Minimum and maximum timeslices (Linux 2.6: 5 ms and 200 ms).
const MIN_TIMESLICE_MS: i64 = 5;
const MAX_TIMESLICE_MS: i64 = 200;

/// The timeslice granted to a task of the given nice value, following
/// the Linux 2.6 linear scale: nice -20 gets 200 ms, nice 0 gets
/// 100 ms, nice 19 gets 5 ms.
pub fn timeslice_for_nice(nice: i32) -> SimDuration {
    let nice = nice.clamp(-20, 19) as i64;
    // Linear interpolation through (−20, 200 ms) and (19, 5 ms).
    let ms = MAX_TIMESLICE_MS + (nice + 20) * (MIN_TIMESLICE_MS - MAX_TIMESLICE_MS) / 39;
    SimDuration::from_millis(ms as u64)
}

/// Parameters for spawning a task.
#[derive(Clone, Copy, Debug)]
pub struct TaskConfig {
    /// Nice value in `[-20, 19]`; determines priority and timeslice.
    pub nice: i32,
    /// The binary the task executes, for the placement table.
    pub binary: BinaryId,
    /// Initial energy-profile estimate. The paper seeds this from the
    /// per-binary hash table, falling back to a default for binaries
    /// never seen before.
    pub initial_profile: Watts,
    /// Standard weight of the profile's exponential average for one
    /// standard timeslice. The paper leaves the constant unspecified;
    /// 0.25 makes a phase change dominate the profile after ~5 slices,
    /// slow enough to ride out momentary spikes (Section 3.3).
    pub profile_weight: f64,
}

impl Default for TaskConfig {
    fn default() -> Self {
        TaskConfig {
            nice: 0,
            binary: BinaryId(0),
            initial_profile: Watts(30.0),
            profile_weight: 0.25,
        }
    }
}

/// A schedulable task.
#[derive(Clone, Debug)]
pub struct Task {
    id: TaskId,
    config: TaskConfig,
    state: TaskState,
    /// The CPU whose runqueue the task is (or was last) associated with.
    cpu: CpuId,
    /// Remaining time of the current timeslice.
    timeslice: SimDuration,
    /// Energy profile: expected power while executing (Section 3.3).
    profile: PowerAverage,
    /// When the task last started executing on its CPU.
    last_scheduled: SimTime,
    /// Most recent migration: time and whether it crossed a node
    /// boundary. Consumed by the cache-warmth model.
    last_migration: Option<(SimTime, bool)>,
    /// Why the most recent migration happened (for event tracing).
    last_migration_reason: Option<MigrationReason>,
    /// Total number of migrations this task experienced.
    migrations: u64,
    /// Total CPU time consumed.
    cpu_time: SimDuration,
}

impl Task {
    /// Creates a task on `cpu` in the `Runnable` state.
    pub(crate) fn new(id: TaskId, config: TaskConfig, cpu: CpuId) -> Self {
        Task {
            id,
            state: TaskState::Runnable,
            cpu,
            timeslice: timeslice_for_nice(config.nice),
            profile: PowerAverage::new(
                config.initial_profile,
                DEFAULT_TIMESLICE,
                config.profile_weight,
            ),
            last_scheduled: SimTime::ZERO,
            last_migration: None,
            last_migration_reason: None,
            migrations: 0,
            cpu_time: SimDuration::ZERO,
            config,
        }
    }

    /// The task's id.
    pub fn id(&self) -> TaskId {
        self.id
    }

    /// The spawn-time configuration.
    pub fn config(&self) -> &TaskConfig {
        &self.config
    }

    /// The binary this task runs.
    pub fn binary(&self) -> BinaryId {
        self.config.binary
    }

    /// Current lifecycle state.
    pub fn state(&self) -> TaskState {
        self.state
    }

    pub(crate) fn set_state(&mut self, state: TaskState) {
        self.state = state;
    }

    /// The CPU the task is associated with.
    pub fn cpu(&self) -> CpuId {
        self.cpu
    }

    pub(crate) fn set_cpu(&mut self, cpu: CpuId) {
        self.cpu = cpu;
    }

    /// Static priority array index in `[0, 40)` (nice + 20).
    pub fn prio_index(&self) -> usize {
        (self.config.nice.clamp(-20, 19) + 20) as usize
    }

    /// Remaining timeslice.
    pub fn timeslice(&self) -> SimDuration {
        self.timeslice
    }

    /// Consumes up to `dt` of the timeslice; returns `true` if the
    /// slice is now exhausted.
    pub(crate) fn consume_timeslice(&mut self, dt: SimDuration) -> bool {
        self.timeslice = if dt >= self.timeslice {
            SimDuration::ZERO
        } else {
            self.timeslice - dt
        };
        self.cpu_time += dt;
        self.timeslice.is_zero()
    }

    /// Grants a fresh timeslice (on expiry).
    pub(crate) fn refresh_timeslice(&mut self) {
        self.timeslice = timeslice_for_nice(self.config.nice);
    }

    /// The current energy profile: the power this task is expected to
    /// draw during its next stretch of execution.
    pub fn profile(&self) -> Watts {
        self.profile.watts()
    }

    /// Folds an observed energy sample into the profile (Eq. 2 with the
    /// variable weight): the task drew `power` on average over `period`
    /// of execution.
    pub fn update_profile(&mut self, power: Watts, period: SimDuration) -> Watts {
        self.profile.update(power, period)
    }

    /// Overwrites the profile, used when seeding from the placement
    /// table.
    pub fn reset_profile(&mut self, power: Watts) {
        self.profile.reset(power);
    }

    /// When the task last started executing.
    pub fn last_scheduled(&self) -> SimTime {
        self.last_scheduled
    }

    pub(crate) fn set_last_scheduled(&mut self, t: SimTime) {
        self.last_scheduled = t;
    }

    /// The most recent migration (time, crossed-node flag), if any.
    pub fn last_migration(&self) -> Option<(SimTime, bool)> {
        self.last_migration
    }

    /// Why the most recent migration happened, if any.
    pub fn last_migration_reason(&self) -> Option<MigrationReason> {
        self.last_migration_reason
    }

    pub(crate) fn record_migration(
        &mut self,
        at: SimTime,
        cross_node: bool,
        reason: MigrationReason,
    ) {
        self.last_migration = Some((at, cross_node));
        self.last_migration_reason = Some(reason);
        self.migrations += 1;
    }

    /// Number of times this task has been migrated.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Total CPU time consumed so far.
    pub fn cpu_time(&self) -> SimDuration {
        self.cpu_time
    }
}

fn state_code(state: TaskState) -> u8 {
    match state {
        TaskState::Runnable => 0,
        TaskState::Running => 1,
        TaskState::Blocked => 2,
        TaskState::Exited => 3,
    }
}

fn state_from_code(code: u8) -> Result<TaskState, ebs_store::StoreError> {
    Ok(match code {
        0 => TaskState::Runnable,
        1 => TaskState::Running,
        2 => TaskState::Blocked,
        3 => TaskState::Exited,
        other => {
            return Err(ebs_store::StoreError::Invalid(format!(
                "task state code {other}"
            )))
        }
    })
}

fn reason_code(reason: MigrationReason) -> u8 {
    match reason {
        MigrationReason::LoadBalance => 0,
        MigrationReason::EnergyBalance => 1,
        MigrationReason::HotTask => 2,
        MigrationReason::Exchange => 3,
    }
}

fn reason_from_code(code: u8) -> Result<MigrationReason, ebs_store::StoreError> {
    MigrationReason::ALL
        .get(usize::from(code))
        .copied()
        .ok_or_else(|| ebs_store::StoreError::Invalid(format!("migration reason code {code}")))
}

impl Task {
    /// Rebuilds a task from its snapshot section — the spawn-time
    /// config travels with the mutable state, so restore needs no
    /// other context.
    pub(crate) fn from_snapshot(
        r: &mut ebs_store::StateReader<'_>,
    ) -> Result<Self, ebs_store::StoreError> {
        let id = TaskId(r.u64()?);
        let config = TaskConfig {
            nice: r.i64()? as i32,
            binary: BinaryId(r.u64()?),
            initial_profile: r.watts()?,
            profile_weight: r.f64()?,
        };
        // `PowerAverage::new` asserts this range; a crafted image must
        // fail with an error instead.
        let weight = config.profile_weight;
        if !(weight > 0.0 && weight <= 1.0) {
            return Err(ebs_store::StoreError::Invalid(format!(
                "task profile weight {weight} outside (0, 1]"
            )));
        }
        let cpu = CpuId(r.usize()?);
        let mut task = Task::new(id, config, cpu);
        task.state = state_from_code(r.u8()?)?;
        task.timeslice = r.duration()?;
        task.profile.restore(r)?;
        task.last_scheduled = r.time()?;
        task.last_migration = r.opt(|r| Ok((r.time()?, r.bool()?)))?;
        task.last_migration_reason = r.opt(|r| {
            let code = r.u8()?;
            reason_from_code(code)
        })?;
        task.migrations = r.u64()?;
        task.cpu_time = r.duration()?;
        Ok(task)
    }
}

impl ebs_store::Snapshot for Task {
    fn save(&self, w: &mut ebs_store::StateWriter) {
        w.u64(self.id.0);
        w.i64(i64::from(self.config.nice));
        w.u64(self.config.binary.0);
        w.watts(self.config.initial_profile);
        w.f64(self.config.profile_weight);
        w.usize(self.cpu.0);
        w.u8(state_code(self.state));
        w.duration(self.timeslice);
        self.profile.save(w);
        w.time(self.last_scheduled);
        w.opt(&self.last_migration, |w, &(t, cross)| {
            w.time(t);
            w.bool(cross);
        });
        w.opt(&self.last_migration_reason, |w, &reason| {
            w.u8(reason_code(reason));
        });
        w.u64(self.migrations);
        w.duration(self.cpu_time);
    }

    fn restore(&mut self, r: &mut ebs_store::StateReader<'_>) -> Result<(), ebs_store::StoreError> {
        *self = Task::from_snapshot(r)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timeslice_scale_matches_linux_26() {
        assert_eq!(timeslice_for_nice(0), SimDuration::from_millis(100));
        assert_eq!(timeslice_for_nice(-20), SimDuration::from_millis(200));
        assert_eq!(timeslice_for_nice(19), SimDuration::from_millis(5));
        // Clamped outside the valid range.
        assert_eq!(timeslice_for_nice(-100), SimDuration::from_millis(200));
        assert_eq!(timeslice_for_nice(100), SimDuration::from_millis(5));
    }

    #[test]
    fn timeslice_is_monotone_in_priority() {
        let mut last = timeslice_for_nice(-20);
        for nice in -19..=19 {
            let ts = timeslice_for_nice(nice);
            assert!(ts <= last, "timeslice grew at nice {nice}");
            last = ts;
        }
    }

    fn task() -> Task {
        Task::new(TaskId(1), TaskConfig::default(), CpuId(0))
    }

    #[test]
    fn new_task_is_runnable_with_full_slice() {
        let t = task();
        assert_eq!(t.state(), TaskState::Runnable);
        assert_eq!(t.timeslice(), DEFAULT_TIMESLICE);
        assert_eq!(t.profile(), Watts(30.0));
        assert_eq!(t.migrations(), 0);
        assert_eq!(t.prio_index(), 20);
    }

    #[test]
    fn timeslice_consumption_and_expiry() {
        let mut t = task();
        assert!(!t.consume_timeslice(SimDuration::from_millis(60)));
        assert_eq!(t.timeslice(), SimDuration::from_millis(40));
        assert!(t.consume_timeslice(SimDuration::from_millis(40)));
        assert!(t.timeslice().is_zero());
        // Over-consumption clamps.
        assert!(t.consume_timeslice(SimDuration::from_millis(10)));
        t.refresh_timeslice();
        assert_eq!(t.timeslice(), DEFAULT_TIMESLICE);
        assert_eq!(t.cpu_time(), SimDuration::from_millis(110));
    }

    #[test]
    fn profile_updates_follow_exponential_average() {
        let mut t = task();
        let updated = t.update_profile(Watts(62.0), DEFAULT_TIMESLICE);
        let expected = 0.25 * 62.0 + 0.75 * 30.0;
        assert!((updated.0 - expected).abs() < 1e-12);
        assert_eq!(t.profile(), updated);
        t.reset_profile(Watts(47.0));
        assert_eq!(t.profile(), Watts(47.0));
    }

    #[test]
    fn migration_bookkeeping() {
        let mut t = task();
        assert!(t.last_migration().is_none());
        assert!(t.last_migration_reason().is_none());
        t.record_migration(SimTime::from_secs(3), true, MigrationReason::HotTask);
        assert_eq!(t.last_migration(), Some((SimTime::from_secs(3), true)));
        assert_eq!(t.last_migration_reason(), Some(MigrationReason::HotTask));
        assert_eq!(t.migrations(), 1);
    }

    #[test]
    fn prio_index_spans_array() {
        let mk = |nice| {
            Task::new(
                TaskId(0),
                TaskConfig {
                    nice,
                    ..TaskConfig::default()
                },
                CpuId(0),
            )
        };
        assert_eq!(mk(-20).prio_index(), 0);
        assert_eq!(mk(19).prio_index(), 39);
    }

    /// A sealed image whose profile weight is outside `(0, 1]` (a
    /// corrupt or crafted file) restores to an error instead of
    /// tripping the averaging rule's assert.
    #[test]
    fn crafted_profile_weights_are_rejected() {
        use ebs_store::Snapshot as _;
        let image_of = |t: &Task| {
            let mut w = ebs_store::StateWriter::new();
            t.save(&mut w);
            w.finish()
        };
        let image = image_of(&task());
        let restored = Task::from_snapshot(&mut image.open().expect("sealed image opens"));
        assert_eq!(restored.expect("valid image").config().profile_weight, 0.25);
        for weight in [0.0, 1.5, f64::NAN] {
            let mut t = task();
            t.config.profile_weight = weight;
            let image = image_of(&t);
            let mut r = image.open().expect("sealed image opens");
            assert!(
                matches!(
                    Task::from_snapshot(&mut r),
                    Err(ebs_store::StoreError::Invalid(_))
                ),
                "weight {weight} restored"
            );
        }
    }
}
