//! The simulator's benchmark: one workload per run, end-to-end metrics
//! from a bare run (`--trace 0`) or per-layer metrics from a traced run
//! (`--trace 1`), with every output checked.
//!
//! ```sh
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload numa64_open --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Standard output ends with one JSON line:
//! `{"correct": .., "attempted": .., "failed": .., "metrics": {..}}`.
//! The line before it describes the run (host CPUs, threads,
//! repetitions, the failed checks and the workload's premise).

mod engine;
mod fleet;
mod metrics;
mod probes;
mod stats;
mod workloads;

use stats::{json_number, Metrics};
use std::process::ExitCode;
use workloads::Workload;

/// What a run measured and whether its outputs checked out.
#[derive(Default)]
pub struct Outcome {
    /// Operations attempted: measured slices plus stand-alone checks.
    pub attempted: usize,
    /// Operations whose output failed a check.
    pub failed: usize,
    /// Names of the failed checks.
    pub failures: Vec<String>,
    pub metrics: Metrics,
    /// Run description for the line before the result.
    pub info: Vec<(&'static str, f64)>,
}

impl Outcome {
    /// Counts `ops` operations whose output checked out (`ok`) or not.
    pub fn attempt(&mut self, ops: usize, ok: bool) {
        self.attempted += ops;
        if !ok {
            self.failed += ops;
            self.failures
                .push(format!("{ops} operations failed output checks"));
        }
    }

    /// Records the repetitions for the line before the result.
    pub fn describe(
        &mut self,
        walls: &[f64],
        traced: usize,
        slices: usize,
        window: ebs::units::SimDuration,
        threads: usize,
    ) {
        self.info.extend([
            ("reps", walls.len() as f64),
            ("rep_wall_s_min", stats::quantile(walls, 0.0)),
            ("rep_wall_s_median", stats::median(walls)),
            ("rep_wall_s_max", stats::quantile(walls, 1.0)),
            ("traced_reps", traced as f64),
            ("slices_per_rep", slices as f64),
            ("window_sim_s", window.as_secs_f64()),
            ("threads", threads as f64),
        ]);
    }

    /// Counts one stand-alone check.
    pub fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what.to_string());
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<f64>().map_err(|_| bad())?),
            "--trace" => trace = Some(value.parse::<u8>().map_err(|_| bad())? != 0),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// The workload's stated premise, checked on the traced run. A premise
/// that fails is reported here, not treated as a failed operation.
fn premise(workload: &str, m: &Metrics) -> (&'static str, bool) {
    let get = |name| m.get(name).unwrap_or(0.0);
    let phases = metrics::PHASES.map(|(_, metric)| get(metric));
    match workload {
        "testbed_fixed" => (
            "physics is the largest engine phase",
            phases.iter().all(|&p| p <= phases[2]),
        ),
        "numa64_open" => (
            "no CPU triggers hot-task migration",
            get("core.hot_triggered_per_sweep") == 0.0,
        ),
        "numa64_hot" => (
            "scheduler phase is at least 90% of step time",
            phases[5] >= 0.9 * get("sim.ns_per_step"),
        ),
        _ => ("governors take decisions", get("dvfs.decisions") > 0.0),
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!("usage: --workload <name> --seed <n> --seconds <s> --trace <0|1>");
            return ExitCode::from(2);
        }
    };
    let Some(workload) = workloads::build(&args.workload, args.seed) else {
        eprintln!(
            "perfbench: unknown workload {:?}; one of {:?}",
            args.workload,
            workloads::NAMES
        );
        return ExitCode::from(2);
    };
    let mut out = match &workload {
        Workload::Engine(spec) => engine::run(spec, args.seed, args.seconds, args.trace),
        Workload::Fleet(spec) => fleet::run(spec, args.seed, args.seconds, args.trace),
    };
    let non_finite: Vec<&str> = out
        .metrics
        .values()
        .filter(|(_, v)| !v.is_finite())
        .map(|(name, _)| name)
        .collect();
    for name in non_finite {
        out.check(&format!("{name} is not finite"), false);
    }

    let mut info: Vec<String> = vec![
        format!("\"workload\": \"{}\"", args.workload),
        format!("\"seed\": {}", args.seed),
        format!("\"trace\": {}", u8::from(args.trace)),
        format!("\"nproc\": {}", ebs::sim::default_workers()),
    ];
    info.extend(
        out.info
            .iter()
            .map(|(k, v)| format!("\"{k}\": {}", json_number(*v))),
    );
    if args.trace {
        let (text, holds) = premise(&args.workload, &out.metrics);
        info.push(format!(
            "\"premise\": {{\"text\": \"{text}\", \"holds\": {holds}}}"
        ));
    }
    let failures: Vec<String> = out.failures.iter().map(|f| format!("\"{f}\"")).collect();
    info.push(format!("\"failures\": [{}]", failures.join(", ")));
    println!("{{{}}}", info.join(", "));
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        out.failed == 0,
        out.attempted,
        out.failed,
        out.metrics.to_json()
    );
    ExitCode::SUCCESS
}
