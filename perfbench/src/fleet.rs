//! Runs the rack workload (`fleet64_dvfs`).
//!
//! A repetition builds the rack (one set-up sample) and runs the window
//! one dispatcher epoch at a time, each epoch timed. Repetitions continue
//! until `--seconds` of wall time have passed, and every one must end
//! with bit-identical host reports and state hashes.

use crate::stats::{drift, median, timed};
use crate::workloads::{self, FleetSpec, SLICE};
use crate::{metrics, probes, Outcome};
use ebs::fleet::{Fleet, FleetConfig, FleetReport};
use ebs::sim::{SimReport, Simulation};
use std::time::Instant;

/// Minimum repetitions of a run (and so set-up samples).
const MIN_REPS: usize = 3;

struct Rep {
    /// Wall seconds of `Fleet::new`.
    setup: f64,
    /// Wall seconds of each dispatcher epoch.
    epochs: Vec<f64>,
    report: FleetReport,
    hosts: Vec<SimReport>,
    hashes: Vec<u64>,
}

impl Rep {
    fn wall(&self) -> f64 {
        self.epochs.iter().sum()
    }

    /// Same host reports (bit for bit) and host state hashes as `first`.
    fn same_as(&self, first: &Rep) -> bool {
        self.hosts.len() == first.hosts.len()
            && self
                .hosts
                .iter()
                .zip(&first.hosts)
                .all(|(a, b)| a.bit_eq(b))
            && self.hashes == first.hashes
    }
}

/// Builds the rack and runs the window; returns the repetition and the
/// rack at its end.
fn run_rep(cfg: &FleetConfig, epochs: usize) -> (Rep, Fleet) {
    let (mut fleet, setup) = timed(|| Fleet::new(cfg.clone()));
    let epochs = (0..epochs).map(|_| timed(|| fleet.run_epoch()).1).collect();
    let rep = Rep {
        setup,
        epochs,
        report: fleet.report(),
        hosts: fleet.host_reports(),
        hashes: fleet.state_hashes(),
    };
    (rep, fleet)
}

/// Runs the rack workload and returns its outcome.
pub fn run(spec: &FleetSpec, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let mut traced_cfg = spec.cfg.clone();
    traced_cfg.base = traced_cfg.base.trace_events(true).profile_engine(true);
    let serial_cfg = spec.cfg.clone().workers(1);
    // Bare, traced and one-worker repetitions, round robin when traced.
    // Only the last bare rack is kept.
    let mut reps: [Vec<Rep>; 3] = Default::default();
    let mut last = None;
    let start = Instant::now();
    while reps[0].len() < MIN_REPS
        || (trace && reps[2].is_empty())
        || start.elapsed().as_secs_f64() < seconds
    {
        let kind = if trace {
            (0..3).min_by_key(|&k| reps[k].len()).expect("three kinds")
        } else {
            0
        };
        let cfg = [&spec.cfg, &traced_cfg, &serial_cfg][kind];
        let (rep, fleet) = run_rep(cfg, spec.epochs);
        let ok = rep.same_as(reps[0].first().unwrap_or(&rep));
        out.attempt(rep.epochs.len(), ok);
        reps[kind].push(rep);
        if kind == 0 {
            last = Some(fleet);
        }
    }
    let [bare, traced, serial] = &reps;
    let first = &bare[0];
    let walls: Vec<f64> = bare.iter().map(Rep::wall).collect();
    out.describe(
        &walls,
        traced.len(),
        spec.epochs,
        SLICE * spec.epochs as u64,
        spec.cfg.workers,
    );
    let series: Vec<Vec<f64>> = bare.iter().map(|r| r.epochs.clone()).collect();
    if !trace {
        let setups: Vec<f64> = bare.iter().map(|r| r.setup).collect();
        let window = metrics::Window {
            sim_s: first.report.duration.as_secs_f64(),
            slices: &series,
            setups: &setups,
            instructions: first.report.instructions_retired,
            joules: first.report.true_energy.0,
        };
        metrics::end_to_end(&window, &mut out.metrics);
        return out;
    }

    // Per-layer metrics. Counters come from the rack's host reports; the
    // phase profile and the core/store probes from the numa16 twin.
    let m = &mut out.metrics;
    let twin = twin(seed, spec.epochs);
    metrics::profile(&twin, twin.report().engine_steps, m);
    let windows: Vec<_> = first.hosts.iter().map(|h| (None, h)).collect();
    metrics::counters(&windows, m);
    // Hosts count routed arrivals as spawns; the rack counts them.
    m.set("workloads.arrivals", first.report.arrivals as f64);
    probes::core(&twin, m);
    let stored = probes::store(&twin, m);
    out.check("store round trips restore the snapshot hash", stored);
    let m = &mut out.metrics;
    let last = last.expect("one bare repetition");
    m.put("fleet.dispatch_ns", probes::dispatch_ns(seed), "ns");
    m.put("fleet.report_ms", probes::report_ms(|| last.report()), "ms");
    m.put("fleet.epoch_ms_drift", drift(&series), "ratio");
    let median_wall = |reps: &[Rep]| median(&reps.iter().map(Rep::wall).collect::<Vec<_>>());
    m.put(
        "fleet.worker_speedup",
        median_wall(serial) / median(&walls),
        "ratio",
    );
    m.put(
        "trace.overhead_frac",
        median_wall(traced) / median(&walls) - 1.0,
        "ratio",
    );
    out
}

/// Runs the numa16 twin for the rack's window with the phase profiler on.
fn twin(seed: u64, epochs: usize) -> Simulation {
    let mut sim = Simulation::new(workloads::rack_twin(seed).profile_engine(true));
    for _ in 0..epochs {
        sim.run_for(SLICE);
    }
    sim
}
