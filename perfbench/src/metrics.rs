//! The metrics both workload runners report, defined once.

use crate::stats::{peak_rss_mib, quantile, Metrics};
use ebs::sim::{SimReport, Simulation};

/// Engine phases of the profiler with their per-layer metric names.
pub const PHASES: [(&str, &str); 7] = [
    ("stride", "sim.phase.stride_ns"),
    ("arrivals", "sim.phase.arrivals_ns"),
    ("physics", "sim.phase.physics_ns"),
    ("throttle", "sim.phase.throttle_ns"),
    ("dvfs", "sim.phase.dvfs_ns"),
    ("scheduler", "sim.phase.scheduler_ns"),
    ("sampling", "sim.phase.sampling_ns"),
];

/// What one bare run measured, for the end-to-end metrics.
pub struct Window<'a> {
    /// Simulated seconds of one repetition.
    pub sim_s: f64,
    /// Wall seconds of every slice, one series per repetition.
    pub slices: &'a [Vec<f64>],
    /// Wall seconds of every set-up.
    pub setups: &'a [f64],
    /// Simulated instructions retired and joules spent in the window.
    pub instructions: u64,
    pub joules: f64,
}

/// The end-to-end metrics.
///
/// Host speed on a shared machine switches between states within
/// seconds, so rates are totals over the repetitions and slice quantiles
/// are taken within each repetition and averaged: both weigh every state
/// by the time spent in it, where a median over pooled samples would jump
/// between states.
pub fn end_to_end(w: &Window, m: &mut Metrics) {
    let reps = w.slices.len() as f64;
    let wall: f64 = w.slices.iter().flatten().sum();
    let slice_ms = |q| w.slices.iter().map(|s| quantile(s, q)).sum::<f64>() / reps * 1e3;
    let instructions = w.instructions as f64;
    m.put("sim_per_wall", w.sim_s * reps / wall, "s/s");
    m.put("slice_ms_p50", slice_ms(0.5), "ms");
    m.put("slice_ms_p90", slice_ms(0.9), "ms");
    m.put("setup_s", quantile(w.setups, 0.5), "s");
    m.put("peak_rss_mib", peak_rss_mib(), "MiB");
    m.put("model.gips", instructions / w.sim_s / 1e9, "Ginstr/s");
    m.put(
        "model.gips_per_joule",
        instructions / 1e9 / w.joules,
        "Ginstr/J",
    );
}

/// `sim.*`: the phase profile of `sim` per engine step over `steps`
/// steps. Phases the profiler adds later count in `sim.ns_per_step`.
pub fn profile(sim: &Simulation, steps: u64, m: &mut Metrics) {
    let rows = sim.engine_profile().expect("profiler enabled").rows();
    let per_step = |total_s: f64| total_s * 1e9 / steps as f64;
    m.put("sim.steps", steps as f64, "count");
    m.put(
        "sim.ns_per_step",
        per_step(rows.iter().map(|r| r.total_s).sum()),
        "ns/step",
    );
    for (phase, metric) in PHASES {
        let total_s = rows
            .iter()
            .find(|r| r.name == phase)
            .map_or(0.0, |r| r.total_s);
        m.put(metric, per_step(total_s), "ns/step");
    }
}

/// Simulated counters over one or more windows, each given as the
/// report when it started (`None`: at time zero) and when it ended.
pub fn counters(windows: &[(Option<&SimReport>, &SimReport)], m: &mut Metrics) {
    let d = |f: fn(&SimReport) -> u64| -> f64 {
        windows
            .iter()
            .map(|(start, end)| (f(end) - start.map_or(0, f)) as f64)
            .sum()
    };
    m.put(
        "core.migrations.energy",
        d(|r| r.migrations_by_reason[1]),
        "count",
    );
    m.put(
        "core.migrations.hot",
        d(|r| r.migrations_by_reason[2]),
        "count",
    );
    m.put(
        "core.migrations.exchange",
        d(|r| r.migrations_by_reason[3]),
        "count",
    );
    m.put(
        "sched.migrations.load",
        d(|r| r.migrations_by_reason[0]),
        "count",
    );
    m.put("sched.context_switches", d(|r| r.context_switches), "count");
    // Throttled share of the package time observed in the windows.
    let secs = |f: fn(&ebs::thermal::ThrottleStats) -> f64| -> f64 {
        let sum = |r: &SimReport| r.throttle_stats.iter().map(f).sum::<f64>();
        windows
            .iter()
            .map(|(start, end)| sum(end) - start.map_or(0.0, sum))
            .sum()
    };
    let throttled = secs(|s| s.throttled.as_secs_f64());
    let observed = secs(|s| s.observed.as_secs_f64());
    m.put(
        "thermal.throttled_frac",
        if observed > 0.0 {
            throttled / observed
        } else {
            0.0
        },
        "ratio",
    );
    m.put("dvfs.decisions", d(|r| r.dvfs_decisions), "count");
    m.put("dvfs.transitions", d(|r| r.dvfs_transitions), "count");
    m.put("workloads.arrivals", d(|r| r.arrivals), "count");
}
