//! The four benchmark workloads, built from the library's public
//! configuration API. Each is pinned here rather than borrowed from the
//! experiment crate, so a change to an experiment cannot silently change
//! what the benchmark measures; README.md says why each exists.

use ebs::dvfs::GovernorKind;
use ebs::fleet::{DispatchPolicy, FleetConfig, PowerBudget};
use ebs::sim::{MaxPowerSpec, SimConfig};
use ebs::topology::TopologyPreset;
use ebs::units::{Celsius, SimDuration, Watts};
use ebs::workloads::{catalog, LoadCurve, OpenWorkload};

/// Workload names, in the order `--workload` accepts them.
pub const NAMES: [&str; 4] = ["testbed_fixed", "numa64_open", "numa64_hot", "fleet64_dvfs"];

/// Simulated time per measured slice: one `run_for` call on a single
/// engine, one dispatcher epoch on the fleet.
pub const SLICE: SimDuration = SimDuration::from_millis(250);

/// Per-package cooling factors of the paper's testbed (Table 3).
const TESTBED_COOLING: [f64; 8] = [1.25, 0.62, 0.65, 1.28, 0.85, 0.60, 0.63, 0.66];

/// A workload on one simulated machine.
pub struct EngineSpec {
    /// The measured configuration (seeded).
    pub cfg: SimConfig,
    /// Copies of the Section 6.1 mix spawned at set-up (0: open workload).
    pub mix_copies: usize,
    /// Optional warm-up: the configuration it runs under and for how
    /// long; the measured configuration then forks from its end state.
    pub warm: Option<(SimConfig, SimDuration)>,
    /// Simulated window of one measured repetition.
    pub window: SimDuration,
}

/// A workload on a rack of simulated hosts.
pub struct FleetSpec {
    /// The measured rack (seeded, `min(2, nproc)` workers).
    pub cfg: FleetConfig,
    /// Dispatcher epochs of one measured repetition.
    pub epochs: usize,
}

/// What `--workload` selects (built once per run, so variant size does
/// not matter).
#[allow(clippy::large_enum_variant)]
pub enum Workload {
    Engine(EngineSpec),
    Fleet(FleetSpec),
}

/// Builds the named workload for `seed`, or `None` for an unknown name.
pub fn build(name: &str, seed: u64) -> Option<Workload> {
    Some(match name {
        "testbed_fixed" => Workload::Engine(EngineSpec {
            cfg: table3(TopologyPreset::XSeries445 { smt: true }, seed),
            mix_copies: 6,
            warm: None,
            window: SimDuration::from_secs(60),
        }),
        "numa64_open" => Workload::Engine(EngineSpec {
            cfg: numa64_open(seed),
            mix_copies: 0,
            warm: None,
            window: SimDuration::from_secs(20),
        }),
        "numa64_hot" => {
            let cfg = table3(TopologyPreset::Numa64, seed).strided();
            let warm = cfg.clone().hot_task_migration(false);
            Workload::Engine(EngineSpec {
                cfg,
                mix_copies: 64,
                warm: Some((warm, SimDuration::from_secs(15))),
                window: SimDuration::from_secs(2),
            })
        }
        "fleet64_dvfs" => Workload::Fleet(FleetSpec {
            cfg: fleet64(seed),
            epochs: 48,
        }),
        _ => return None,
    })
}

/// Worker threads the fleet steps hosts with: `min(2, nproc)`.
pub fn default_threads() -> usize {
    ebs::sim::default_workers().min(2)
}

/// Table 3 as `exp_table3` runs it (SMT on, testbed cooling repeated
/// over every package, 38 degC limit, hlt, energy-aware scheduling), on
/// the default fixed-tick core and the given machine shape.
fn table3(preset: TopologyPreset, seed: u64) -> SimConfig {
    let shape = preset.builder();
    let packages = shape.n_cpus() / shape.n_threads_per_core() / shape.n_cores_per_package();
    let cooling = (0..packages)
        .map(|p| TESTBED_COOLING[p % TESTBED_COOLING.len()])
        .collect();
    SimConfig::with_topology(shape)
        .throttling(true)
        .cooling_factors(cooling)
        .max_power(MaxPowerSpec::FromThermalLimit(Celsius(38.0)))
        .energy_aware(true)
        .seed(seed)
}

/// The numa64 strided, DVFS-off cell of `exp_engine_bench`: an open
/// diurnal workload at 1.5 arrivals per core per second under a 40 W
/// per logical CPU budget.
fn numa64_open(seed: u64) -> SimConfig {
    let shape = TopologyPreset::Numa64.builder();
    let workload = OpenWorkload::new(open_programs(), 1.5 * shape.n_cores() as f64).curve(
        LoadCurve::Diurnal {
            period: SimDuration::from_secs(8),
            floor: 0.25,
        },
    );
    SimConfig::with_topology(shape)
        .seed(seed)
        .respawn(false)
        .max_power(MaxPowerSpec::PerLogical(Watts(40.0)))
        .open_workload(workload)
        .strided()
}

fn open_programs() -> Vec<ebs::workloads::Program> {
    vec![
        catalog::bitcnts(),
        catalog::memrw(),
        catalog::aluadd(),
        catalog::pushpop(),
    ]
}

/// Rack provisioning per logical CPU of `exp_fleet`.
const RACK_W_PER_CPU: f64 = 18.0;

/// The host shapes of `exp_fleet`'s 64-host mixed rack.
pub fn rack_shapes() -> Vec<TopologyPreset> {
    let cycle = [
        TopologyPreset::Dual,
        TopologyPreset::XSeries445 { smt: false },
        TopologyPreset::XSeries445 { smt: true },
        TopologyPreset::Numa16,
        TopologyPreset::Hybrid8,
    ];
    (0..64).map(|i| cycle[i % cycle.len()]).collect()
}

/// Logical CPUs of every rack host, in host order.
pub fn rack_cpus() -> Vec<usize> {
    rack_shapes().iter().map(|p| p.builder().n_cpus()).collect()
}

/// The per-host configuration every rack host starts from: strided,
/// energy-aware, thermal-aware DVFS enforcement instead of hlt.
fn rack_base() -> SimConfig {
    SimConfig::xseries445()
        .energy_aware(true)
        .respawn(false)
        .strided()
        .throttling(false)
        .dvfs_governor(GovernorKind::ThermalAware)
}

/// The rack's open workload: 0.8 arrivals per logical CPU per second
/// under a 4 s diurnal curve, service work 0.6-1.8 G instructions.
fn rack_workload(cpus: usize) -> OpenWorkload {
    OpenWorkload::new(open_programs(), 0.8 * cpus as f64)
        .curve(LoadCurve::Diurnal {
            period: SimDuration::from_secs(4),
            floor: 0.3,
        })
        .service_work(600_000_000, 1_800_000_000)
}

/// `exp_fleet`'s 64-host least-loaded DVFS cell.
fn fleet64(seed: u64) -> FleetConfig {
    let total: usize = rack_cpus().iter().sum();
    FleetConfig::new(rack_base(), rack_shapes(), rack_workload(total))
        .seed(seed)
        .epoch(SLICE)
        .dispatch(DispatchPolicy::LeastLoaded)
        .budget(rack_budget())
        .workers(default_threads())
}

/// The rack power budget: 18 W per logical CPU.
pub fn rack_budget() -> PowerBudget {
    let total: usize = rack_cpus().iter().sum();
    PowerBudget::rack(Watts(RACK_W_PER_CPU * total as f64))
}

/// A stand-alone twin of the rack's largest host (numa16): the rack's
/// base configuration, the host's budget share, and the rack workload's
/// per-CPU arrival rate. Fleet hosts are not reachable through the
/// fleet's public API, so the phase profile and the policy and store
/// probes of `fleet64_dvfs` run on this twin.
pub fn rack_twin(seed: u64) -> SimConfig {
    let shape = TopologyPreset::Numa16.builder();
    let cpus = shape.n_cpus();
    rack_base()
        .topology(shape)
        .max_power(MaxPowerSpec::PerLogical(Watts(RACK_W_PER_CPU)))
        .open_workload(rack_workload(cpus))
        .seed(seed)
}
