//! Per-layer probes: each times public library calls from outside, on a
//! clone of (or alongside) a finished run's end state, so the measured
//! run itself is never perturbed.

use crate::stats::{median_time, timed, Metrics};
use crate::workloads;
use ebs::core::{place_new_task, EnergyAwareBalancer, HotTaskConfig, HotTaskMigrator};
use ebs::fleet::{DispatchPolicy, Dispatcher, HostStat};
use ebs::sim::{SimEngine, Simulation};
use ebs::topology::CpuId;
use ebs::units::Watts;

/// Profile a new task is placed with (the placement table's default).
const PLACE_PROFILE: Watts = Watts(30.0);

/// `core.*` timings on the end state of `sim`:
///
/// - `core.hot_sweep_us`: `HotTaskMigrator::triggered` + `run` over
///   every CPU, as the engine would on one step where every package
///   passed its thermal pre-screen;
/// - `core.hot_triggered_per_sweep`, `core.hot_yield`: how many CPUs
///   the sweep found triggered, and the share of those that migrated;
/// - `core.balance_round_us`: `EnergyAwareBalancer::run` on every CPU
///   with every domain level due;
/// - `core.place_us`: one `place_new_task` decision.
pub fn core(sim: &Simulation, m: &mut Metrics) {
    let sys = sim.system();
    let power = sim.power_state();
    let cpus: Vec<CpuId> = sys.topology().cpu_ids().collect();
    let migrator = HotTaskMigrator::new(HotTaskConfig::default());
    let (mut triggered, mut moved) = (0usize, 0usize);
    let sweep_s = median_time(
        5,
        500,
        0.5,
        || sys.clone(),
        |mut sys| {
            (triggered, moved) = (0, 0);
            for &cpu in &cpus {
                if migrator.triggered(cpu, &sys, power) {
                    triggered += 1;
                    moved += usize::from(migrator.run(cpu, &mut sys, power).is_some());
                }
            }
        },
    );
    let balance_s = median_time(
        5,
        500,
        0.5,
        || {
            (
                sys.clone(),
                EnergyAwareBalancer::new(sys, sim.config().balance),
            )
        },
        |(mut sys, mut balancer)| {
            for &cpu in &cpus {
                balancer.run(cpu, &mut sys, power);
            }
        },
    );
    let place_s = median_time(
        50,
        5000,
        0.2,
        || (),
        |()| place_new_task(sys, power, PLACE_PROFILE),
    );
    m.put("core.hot_sweep_us", sweep_s * 1e6, "us");
    m.put("core.hot_triggered_per_sweep", triggered as f64, "count");
    m.put(
        "core.hot_yield",
        if triggered == 0 {
            0.0
        } else {
            moved as f64 / triggered as f64
        },
        "ratio",
    );
    m.put("core.balance_round_us", balance_s * 1e6, "us");
    m.put("core.place_us", place_s * 1e6, "us");
}

/// `store.*` on the end state of `sim`: snapshot, restore into a freshly
/// built engine, and content hash, plus the image size. Returns whether
/// every restore reproduced the snapshot's hash.
pub fn store(sim: &Simulation, m: &mut Metrics) -> bool {
    let cfg = sim.config().clone();
    let image = sim.snapshot();
    let mut round_trips_ok = true;
    let snapshot_s = median_time(5, 100, 0.3, || (), |()| sim.snapshot());
    let restore_s = median_time(
        3,
        20,
        0.5,
        || Simulation::new(cfg.clone()),
        |mut fresh| {
            let restored = fresh.restore_snapshot(&image).is_ok();
            round_trips_ok &= restored && fresh.state_hash() == image.hash();
        },
    );
    let hash_s = median_time(5, 100, 0.3, || (), |()| sim.state_hash());
    m.put("store.snapshot_ms", snapshot_s * 1e3, "ms");
    m.put("store.restore_ms", restore_s * 1e3, "ms");
    m.put("store.state_hash_ms", hash_s * 1e3, "ms");
    m.put(
        "store.image_kib",
        image.as_bytes().len() as f64 / 1024.0,
        "KiB",
    );
    round_trips_ok
}

/// `fleet.dispatch_ns`: one least-loaded `Dispatcher::pick` over the
/// 64 hosts of the benchmark rack. Host loads and draws are drawn from
/// `seed`; each pick lands an arrival on the chosen host, as the fleet
/// does within an epoch.
pub fn dispatch_ns(seed: u64) -> f64 {
    const PICKS: usize = 1000;
    let cpus = workloads::rack_cpus();
    let shares = workloads::rack_budget().shares(&cpus);
    let mut state = seed;
    let stats: Vec<HostStat> = cpus
        .iter()
        .zip(&shares)
        .enumerate()
        .map(|(host, (&cpus, &share))| HostStat {
            host,
            runnable: (splitmix(&mut state) % (2 * cpus as u64)) as usize,
            cpus,
            power_w: share.0 * (splitmix(&mut state) % 1000) as f64 / 800.0,
            budget_w: share,
        })
        .collect();
    let batch_s = median_time(
        20,
        2000,
        0.2,
        || (stats.clone(), Dispatcher::new(DispatchPolicy::LeastLoaded)),
        |(mut stats, mut dispatcher)| {
            for _ in 0..PICKS {
                let host = dispatcher.pick(&stats);
                stats[host].runnable += 1;
            }
        },
    );
    batch_s * 1e9 / PICKS as f64
}

/// Median wall milliseconds of building one report (an engine's
/// `SimReport` or the rack's roll-up).
pub fn report_ms<R>(report: impl Fn() -> R) -> f64 {
    median_time(5, 200, 0.2, || (), |()| report()) * 1e3
}

/// Wall seconds of `copies` independent runs of `job` spread over
/// `workers` threads with the library's sweep executor.
pub fn parallel_wall(copies: usize, workers: usize, job: impl Fn() + Sync) -> f64 {
    let items: Vec<usize> = (0..copies).collect();
    timed(|| ebs::sim::map_parallel(&items, workers, |_| job())).1
}

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}
