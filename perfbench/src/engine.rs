//! Runs the single-machine workloads (`testbed_fixed`,
//! `numa64_open`, `numa64_hot`).
//!
//! Set-up builds the machine, populates it, optionally warms it up, and
//! snapshots it; the measured configuration forks from that image. A
//! repetition forks again and steps the simulated window in 250 ms
//! slices, each timed. Repetitions continue until `--seconds` of wall
//! time have passed, and every one must end in exactly the same state.

use crate::stats::{drift, median, timed};
use crate::workloads::{default_threads, EngineSpec, SLICE};
use crate::{metrics, probes, Outcome};
use ebs::sim::{map_parallel, SimConfig, SimEngine, SimReport, Simulation};
use ebs::store::StateImage;
use ebs::workloads::section61_mix;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// Set-ups per run: at least `MIN_SETUPS`, more while the set-up time
/// spent stays under `SETUP_BUDGET_S`, at most `MAX_SETUPS`.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 25;
const SETUP_BUDGET_S: f64 = 1.0;

/// One measured repetition of the window.
struct Rep {
    /// Wall seconds of each 250 ms slice.
    slices: Vec<f64>,
    /// The report when the window started and when it ended.
    start: SimReport,
    end: SimReport,
    /// End-state content hash.
    hash: u64,
}

impl Rep {
    fn wall(&self) -> f64 {
        self.slices.iter().sum()
    }
}

/// Builds, populates and warms the machine and snapshots it. Forking the
/// measured configuration from the image, as every repetition does,
/// counts too: `setup_s` covers everything before the first slice.
fn setup(spec: &EngineSpec) -> StateImage {
    let build_cfg = spec.warm.as_ref().map_or(&spec.cfg, |(cfg, _)| cfg);
    let mut sim = Simulation::new(build_cfg.clone());
    sim.spawn_mix(&section61_mix(), spec.mix_copies);
    if let Some((_, warm)) = spec.warm {
        sim.run_for(warm);
    }
    let image = sim.snapshot();
    std::hint::black_box(fork(&spec.cfg, &image));
    image
}

/// Steps `sim` through the window; returns the repetition and the
/// engine at its end.
fn run_window(spec: &EngineSpec, mut sim: Simulation) -> (Rep, Simulation) {
    let start = sim.report();
    let n = (spec.window.as_micros() / SLICE.as_micros()) as usize;
    let slices = (0..n).map(|_| timed(|| sim.run_for(SLICE)).1).collect();
    let rep = Rep {
        slices,
        start,
        end: sim.report(),
        hash: sim.state_hash(),
    };
    (rep, sim)
}

fn fork(cfg: &SimConfig, image: &StateImage) -> Simulation {
    Simulation::from_snapshot(cfg.clone(), image)
        .expect("the measured configuration restores the set-up image")
}

/// The end-state checks of one repetition against the first one: same
/// report bit for bit, same state hash, `System::validate()` passes,
/// and a store round trip restores a hash-equal state. Observability is
/// not simulation state, so traced repetitions must match bare ones.
fn rep_ok(rep: &Rep, sim: &Simulation, first: &Rep) -> bool {
    let same = rep.end.bit_eq(&first.end) && rep.hash == first.hash;
    let valid = catch_unwind(AssertUnwindSafe(|| sim.system().validate())).is_ok();
    let image = sim.snapshot();
    let round_trip = Simulation::from_snapshot(sim.config().clone(), &image)
        .is_ok_and(|restored| restored.state_hash() == image.hash());
    same && valid && round_trip
}

/// Runs one engine workload and returns its outcome.
///
/// Set-ups and repetitions run `min(2, nproc)` at a time on independent
/// engines, through the library's sweep executor, as the experiment
/// sweeps run them. With the host's CPUs all busy with the benchmark, a
/// run no longer depends on what else happens to share them: on a 2-vCPU
/// host, one engine alone read 230-300 simulated s per wall s from run to
/// run (interquartile spread 0.22 over eight runs), two at once 224-264
/// (spread 0.02).
pub fn run(spec: &EngineSpec, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let mut out = Outcome::default();
    let threads = default_threads();
    let lanes: Vec<usize> = (0..threads).collect();
    // Set-up, several times; every image must be the same state.
    let run_start = Instant::now();
    let mut setup_s = Vec::new();
    let mut image: Option<StateImage> = None;
    while setup_s.len() < MIN_SETUPS
        || (setup_s.len() < MAX_SETUPS && run_start.elapsed().as_secs_f64() < SETUP_BUDGET_S)
    {
        for (img, secs) in map_parallel(&lanes, threads, |_| timed(|| setup(spec))) {
            setup_s.push(secs);
            let repeats = image
                .as_ref()
                .is_none_or(|first| first.hash() == img.hash());
            out.check("setup image repeats", repeats);
            image.get_or_insert(img);
        }
    }
    let image = image.expect("at least one set-up");

    // Measured repetitions; the traced run alternates bare and traced.
    // Only the last engine of each kind is kept, so memory does not grow
    // with the repetition count.
    let traced_cfg = spec.cfg.clone().trace_events(true).profile_engine(true);
    let (mut bare, mut traced): (Vec<Rep>, Vec<Rep>) = (Vec::new(), Vec::new());
    let (mut last_bare, mut last_traced) = (None, None);
    let measure_start = Instant::now();
    while bare.len() < 2
        || (trace && traced.is_empty())
        || measure_start.elapsed().as_secs_f64() < seconds
    {
        let is_traced = trace && traced.len() < bare.len();
        let cfg = if is_traced { &traced_cfg } else { &spec.cfg };
        for (rep, sim) in map_parallel(&lanes, threads, |_| run_window(spec, fork(cfg, &image))) {
            let ok = rep_ok(&rep, &sim, bare.first().unwrap_or(&rep));
            out.attempt(rep.slices.len(), ok);
            if is_traced {
                traced.push(rep);
                last_traced = Some(sim);
            } else {
                bare.push(rep);
                last_bare = Some(sim);
            }
        }
    }
    let first = &bare[0];
    let walls: Vec<f64> = bare.iter().map(Rep::wall).collect();
    out.describe(
        &walls,
        traced.len(),
        first.slices.len(),
        spec.window,
        threads,
    );
    let (start, end) = (&first.start, &first.end);
    let series: Vec<Vec<f64>> = bare.iter().map(|r| r.slices.clone()).collect();
    if !trace {
        let window = metrics::Window {
            sim_s: spec.window.as_secs_f64(),
            slices: &series,
            setups: &setup_s,
            instructions: end.instructions_retired - start.instructions_retired,
            joules: end.true_energy.0 - start.true_energy.0,
        };
        metrics::end_to_end(&window, &mut out.metrics);
        return out;
    }

    // Per-layer metrics (traced run).
    let m = &mut out.metrics;
    let traced_sim = last_traced.expect("one traced repetition");
    metrics::profile(&traced_sim, end.engine_steps - start.engine_steps, m);
    metrics::counters(&[(Some(start), end)], m);
    let last = last_bare.expect("one bare repetition");
    probes::core(&last, m);
    let stored = probes::store(&last, m);
    out.check("store round trips restore the snapshot hash", stored);
    let m = &mut out.metrics;
    m.put("fleet.dispatch_ns", probes::dispatch_ns(seed), "ns");
    m.put("fleet.report_ms", probes::report_ms(|| last.report()), "ms");
    m.put("fleet.epoch_ms_drift", drift(&series), "ratio");
    let window = || {
        let mut sim = fork(&spec.cfg, &image);
        sim.run_for(spec.window);
    };
    let serial = probes::parallel_wall(2, 1, window);
    let parallel = probes::parallel_wall(2, threads, window);
    m.put("fleet.worker_speedup", serial / parallel, "ratio");
    let traced_walls: Vec<f64> = traced.iter().map(Rep::wall).collect();
    m.put(
        "trace.overhead_frac",
        median(&traced_walls) / median(&walls) - 1.0,
        "ratio",
    );
    out
}
