//! Golden regression values: the exact end states of pinned runs. The
//! first three were recorded before the per-step fast paths of the
//! estimator, the thermal-power average, the counter rounding and the
//! balancer timers went in; the 8-CPU runs were recorded while
//! machines below 16 CPUs still balanced by scanning every runqueue,
//! so they pin that the aggregate-tree balancers decide exactly as
//! those scans did.
//!
//! The equivalence suites compare two engine cores, or two repetitions
//! of one binary, so they cannot see a change that moves every run the
//! same way. These digests can: each pins a state hash (which also
//! pins the snapshot image bytes) and the report fields the paper's
//! experiments read, every float by its bit pattern. A digest that
//! moves means the simulator's answers moved.

use ebs::fleet::{DispatchPolicy, EpochMetrics, Fleet, FleetConfig, PowerBudget};
use ebs::sim::{MaxPowerSpec, SimConfig, SimEngine, SimReport, Simulation};
use ebs::topology::TopologyPreset;
use ebs::units::{Celsius, SimDuration, Watts};
use ebs::workloads::{catalog, section61_mix, LoadCurve, OpenWorkload};

/// The report fields a digest pins, floats as bit patterns.
fn report_digest(r: &SimReport) -> String {
    format!(
        "steps={} instr={} compl={} arrivals={} migr={:?} cs={} \
         energy={:#x} est={:#x} temp={:#x} throttled={:#x} lat_n={} lat_p50={:#x} \
         dvfs={}/{}",
        r.engine_steps,
        r.instructions_retired,
        r.completions,
        r.arrivals,
        r.migrations_by_reason,
        r.context_switches,
        r.true_energy.0.to_bits(),
        r.estimated_energy.0.to_bits(),
        r.max_package_temp.0.to_bits(),
        r.avg_throttled_fraction.to_bits(),
        r.latency.count,
        r.latency.p50_s.to_bits(),
        r.dvfs_decisions,
        r.dvfs_transitions,
    )
}

fn epoch_digest(e: &EpochMetrics) -> String {
    format!(
        "{} arr={} compl={} instr={} energy={:#x} stranded={:#x} lat_n={} lat_p50={:#x} \
         lat_p99={:#x}",
        e.index,
        e.arrivals,
        e.completions,
        e.instructions,
        e.energy_j.to_bits(),
        e.stranded_w.to_bits(),
        e.latency.count,
        e.latency.p50_s.to_bits(),
        e.latency.p99_s.to_bits(),
    )
}

/// Asserts `actual` line by line against the pinned lines, printing the
/// whole actual digest on a mismatch so a deliberate change can re-pin.
fn assert_digest(name: &str, actual: &[String], pinned: &[&str]) {
    let matches = actual.len() == pinned.len() && actual.iter().zip(pinned).all(|(a, p)| a == p);
    assert!(
        matches,
        "{name} digest moved; actual:\n{}",
        actual
            .iter()
            .map(|l| format!("    \"{l}\","))
            .collect::<Vec<_>>()
            .join("\n")
    );
}

/// Table 3 (Section 6.2) on the xSeries 445 with SMT, the testbed's
/// cooling factors and a 38 °C limit, on the default fixed-tick core.
#[test]
fn table3_fixed_tick_matches_golden() {
    let cfg = SimConfig::xseries445()
        .smt(true)
        .throttling(true)
        .cooling_factors(vec![1.25, 0.62, 0.65, 1.28, 0.85, 0.60, 0.63, 0.66])
        .max_power(MaxPowerSpec::FromThermalLimit(Celsius(38.0)))
        .energy_aware(true)
        .seed(1);
    let mut sim = Simulation::new(cfg);
    sim.spawn_mix(&section61_mix(), 6);
    sim.run_for(SimDuration::from_secs(3));
    let actual = vec![
        format!("hash={:#x}", SimEngine::state_hash(&sim)),
        report_digest(&sim.report()),
    ];
    assert_digest("table3", &actual, TABLE3_GOLDEN);
}

const TABLE3_GOLDEN: &[&str] = &[
    "hash=0x603a1e61fe6b8e5c",
    "steps=3000 instr=83473000133 compl=0 arrivals=0 migr=[2, 11, 0, 10] cs=494 energy=0x4097c15557fce4dc est=0x40989efedcbdb225 temp=0x403a7bc0e4922893 throttled=0x0 lat_n=0 lat_p50=0x0 dvfs=0/0",
];

/// The 256-CPU open diurnal cell on the strided core: one simulated
/// second, a snapshot, then a second forked from the image.
#[test]
fn numa64_open_forked_matches_golden() {
    let shape = TopologyPreset::Numa64.builder();
    let workload = OpenWorkload::new(
        vec![
            catalog::bitcnts(),
            catalog::memrw(),
            catalog::aluadd(),
            catalog::pushpop(),
        ],
        1.5 * shape.n_cores() as f64,
    )
    .curve(LoadCurve::Diurnal {
        period: SimDuration::from_secs(8),
        floor: 0.25,
    });
    let cfg = SimConfig::with_topology(shape)
        .seed(1)
        .respawn(false)
        .max_power(MaxPowerSpec::PerLogical(Watts(40.0)))
        .open_workload(workload)
        .strided();
    let mut warm = Simulation::new(cfg.clone());
    warm.run_for(SimDuration::from_secs(1));
    let image = SimEngine::snapshot(&warm);
    let mut fork = Simulation::from_snapshot(cfg, &image).expect("fork from the warm image");
    fork.run_for(SimDuration::from_secs(1));
    let actual = vec![
        format!("warm={:#x}", image.hash()),
        format!("hash={:#x}", SimEngine::state_hash(&fork)),
        report_digest(&fork.report()),
    ];
    assert_digest("numa64_open", &actual, NUMA64_OPEN_GOLDEN);
}

const NUMA64_OPEN_GOLDEN: &[&str] = &[
    "warm=0xcda6750986e0137f",
    "hash=0x53d00e506a595126",
    "steps=369 instr=154254024599 compl=113 arrivals=163 migr=[0, 0, 0, 0] cs=163 energy=0x40b158dc70fed475 est=0x40b1bbb62cbd1977 temp=0x403a838d906d7196 throttled=0x0 lat_n=113 lat_p50=0x3fd367e846a5d6bf dvfs=0/0",
];

/// One `exp_fleet --smoke` cell: 8 mixed hosts, least-loaded dispatch,
/// thermal-aware DVFS, 8 epochs of 250 ms.
#[test]
fn fleet_smoke_cell_matches_golden() {
    let hosts: Vec<TopologyPreset> = [
        TopologyPreset::Dual,
        TopologyPreset::XSeries445 { smt: false },
        TopologyPreset::XSeries445 { smt: true },
        TopologyPreset::Numa16,
        TopologyPreset::Hybrid8,
    ]
    .into_iter()
    .cycle()
    .take(8)
    .collect();
    let total_cpus: usize = hosts.iter().map(|p| p.builder().n_cpus()).sum();
    let base = SimConfig::xseries445()
        .energy_aware(true)
        .respawn(false)
        .strided()
        .throttling(false)
        .dvfs_governor(ebs::dvfs::GovernorKind::ThermalAware);
    let workload = OpenWorkload::new(
        vec![
            catalog::bitcnts(),
            catalog::memrw(),
            catalog::aluadd(),
            catalog::pushpop(),
        ],
        0.8 * total_cpus as f64,
    )
    .curve(LoadCurve::Diurnal {
        period: SimDuration::from_secs(4),
        floor: 0.3,
    })
    .service_work(600_000_000, 1_800_000_000);
    let cfg = FleetConfig::new(base, hosts, workload)
        .seed(42)
        .epoch(SimDuration::from_millis(250))
        .dispatch(DispatchPolicy::LeastLoaded)
        .budget(PowerBudget::rack(Watts(18.0 * total_cpus as f64)))
        .workers(2);
    let mut fleet = Fleet::new(cfg);
    fleet.run(8);
    let mut actual: Vec<String> = fleet.epochs().iter().map(epoch_digest).collect();
    actual.push(format!("hashes={:x?}", fleet.state_hashes()));
    assert_digest("fleet", &actual, FLEET_GOLDEN);
}

const FLEET_GOLDEN: &[&str] = &[
    "0 arr=9 compl=0 instr=2751091629 energy=0x406c176d60839887 stranded=0x408e68929f7c6778 lat_n=0 lat_p50=0x0 lat_p99=0x0",
    "1 arr=9 compl=4 instr=8874423107 energy=0x407369725f4ce4f7 stranded=0x4083ddb1a46c7228 lat_n=4 lat_p50=0x3fd0fbeb9e492bc3 lat_p99=0x3fd85097c80841ee",
    "2 arr=6 compl=7 instr=6245781163 energy=0x40736371d26b9ca6 stranded=0x4083e8cce66aef8c lat_n=7 lat_p50=0x3fd5a1c25d074214 lat_p99=0x3fdc3c1ce6c093d9",
    "3 arr=7 compl=3 instr=5445601575 energy=0x4073cac2e5b2b816 stranded=0x4083adf679250fb3 lat_n=3 lat_p50=0x3fcfec3547e06962 lat_p99=0x3fd8b39e279dd3bb",
    "4 arr=7 compl=5 instr=6034165816 energy=0x4075366ba55b7af5 stranded=0x4080c228436a8580 lat_n=5 lat_p50=0x3fd277ee4e26d480 lat_p99=0x3fd7ddd6e04c0592",
    "5 arr=17 compl=4 instr=11199233975 energy=0x407a2e54630b7f0e stranded=0x406cbdf19e335a2e lat_n=4 lat_p50=0x3fcae69f05ea24cc lat_p99=0x3ff5a7b6fe2e6ea8",
    "6 arr=20 compl=12 instr=19192703463 energy=0x40805158e2f95249 stranded=0x404106a522a2ffa8 lat_n=12 lat_p50=0x3fd0da7b0b391926 lat_p99=0x3ff5c90f733a8a40",
    "7 arr=22 compl=18 instr=24758122017 energy=0x4082ab2777011a14 stranded=0x0 lat_n=18 lat_p50=0x3fd148c2e770bd01 lat_p99=0x3ff6a69270b06c44",
    "hashes=[b45e8bf81edad115, 983f72a64a1d8cd4, dac7ef1369903933, 7c1904911357a3bb, b677fd8c55c291ae, 61f918f4307599da, 3d137387dfc6ccd0, cc77588dc8db95f6]",
];

/// The xSeries 445 without SMT (8 CPUs) on the fixed-tick core, three
/// copies of the Section 6.1 mix, energy-aware scheduling, 8 s. Without
/// a thermal limit both balancer steps run on every CPU and none finds
/// enough imbalance to migrate; under Table 3's cooling factors and
/// 38 °C limit, load, energy and exchange migrations all fire.
#[test]
fn xseries445_smt_off_matches_golden() {
    let unlimited = SimConfig::xseries445()
        .smt(false)
        .energy_aware(true)
        .seed(11);
    let table3 = unlimited
        .clone()
        .cooling_factors(vec![1.25, 0.62, 0.65, 1.28, 0.85, 0.60, 0.63, 0.66])
        .max_power(MaxPowerSpec::FromThermalLimit(Celsius(38.0)));
    let mut actual = Vec::new();
    for cfg in [unlimited, table3] {
        let mut sim = Simulation::new(cfg);
        sim.spawn_mix(&section61_mix(), 3);
        sim.run_for(SimDuration::from_secs(8));
        actual.push(format!("hash={:#x}", SimEngine::state_hash(&sim)));
        actual.push(report_digest(&sim.report()));
    }
    assert_digest("xseries445_smt_off", &actual, XSERIES445_SMT_OFF_GOLDEN);
}

const XSERIES445_SMT_OFF_GOLDEN: &[&str] = &[
    "hash=0x9172c64fa6a58ec4",
    "steps=8000 instr=174161453457 compl=0 arrivals=0 migr=[0, 0, 0, 0] cs=648 energy=0x40a92cf7c4f49702 est=0x40aa3b3ac35cee55 temp=0x403dae520b32e180 throttled=0x0 lat_n=0 lat_p50=0x0 dvfs=0/0",
    "hash=0xaabe54b6f1e503e1",
    "steps=8000 instr=176367730817 compl=0 arrivals=0 migr=[4, 14, 0, 10] cs=648 energy=0x40a96bb26e3132a3 est=0x40aa8a00d47d5e8a temp=0x403dfbd60bef2e56 throttled=0x0 lat_n=0 lat_p50=0x0 dvfs=0/0",
];
