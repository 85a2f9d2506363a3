//! A server-consolidation scenario: heterogeneous cooling, a hard
//! temperature limit, and a mixed tenant workload — does energy-aware
//! scheduling buy real throughput?
//!
//! This mirrors the paper's Section 6.2 experiment: some processors
//! sit near the air inlet (good cooling), others behind them run hot;
//! with a 38 degC limit the hot ones must throttle unless the
//! scheduler spreads the heat.
//!
//! ```sh
//! cargo run --release --example server_consolidation
//! ```

use ebs::sim::{MaxPowerSpec, SimConfig, Simulation};
use ebs::topology::Topology;
use ebs::units::{Celsius, SimDuration};
use ebs::workloads::section61_mix;

fn run(energy_aware: bool) -> ebs::sim::SimReport {
    let cfg = SimConfig::xseries445()
        .smt(true)
        .energy_aware(energy_aware)
        .throttling(true)
        // Per-package cooling quality: >1 = poorly cooled.
        .cooling_factors(vec![1.25, 0.62, 0.65, 1.28, 0.85, 0.60, 0.63, 0.66])
        .max_power(MaxPowerSpec::FromThermalLimit(Celsius(38.0)))
        .seed(11);
    let mut sim = Simulation::new(cfg);
    // Six tenants, six instances each: 36 tasks on 16 logical CPUs.
    sim.spawn_mix(&section61_mix(), 6);
    sim.run_for(SimDuration::from_secs(600));
    sim.report()
}

fn main() {
    println!("consolidated server, 36 tasks, 38 degC limit, 10 simulated minutes\n");
    let off = run(false);
    let on = run(true);

    println!(
        "{:>12} {:>14} {:>14}",
        "logical CPU", "throttled(off)", "throttled(on)"
    );
    let topo = Topology::xseries445(true);
    let per_cpu = off
        .cpu_throttled_fractions(&topo)
        .zip(on.cpu_throttled_fractions(&topo));
    for (c, (off_frac, on_frac)) in per_cpu.enumerate() {
        if off_frac > 0.005 || on_frac > 0.005 {
            println!(
                "{:>12} {:>13.1}% {:>13.1}%",
                format!("cpu{c}"),
                off_frac * 100.0,
                on_frac * 100.0
            );
        }
    }
    println!(
        "{:>12} {:>13.1}% {:>13.1}%",
        "average",
        off.avg_throttled_fraction * 100.0,
        on.avg_throttled_fraction * 100.0
    );
    println!(
        "\nthroughput: {:.3e} -> {:.3e} instructions/s ({:+.1}%)",
        off.throughput_ips,
        on.throughput_ips,
        (on.throughput_ips / off.throughput_ips - 1.0) * 100.0
    );
    println!(
        "migrations: {} -> {} (the price of the gain)",
        off.migrations, on.migrations
    );
}
