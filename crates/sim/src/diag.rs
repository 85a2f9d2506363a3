//! Trace-diff debugging for the equivalence gates.
//!
//! When two engine configurations that should agree drift apart, an
//! aggregate-report mismatch says *that* they diverged; the event
//! trace says *where*. These helpers re-run both cells with event
//! tracing forced on and name the first divergent event — instant,
//! CPU, kind — which is usually enough to localise the bug to one
//! subsystem.
//!
//! Either cell may run either engine core, fixed-tick or strided: the
//! config selects it.
//!
//! Tracing never feeds back into scheduling or the RNG, so the traced
//! re-run reproduces the original runs exactly (per the bit-identity
//! guarantees tested in `tests/trace.rs`).

use crate::config::SimConfig;
use crate::engine::Simulation;
use crate::trace::SimReport;
use ebs_trace::{first_divergence, TraceEvent};
use ebs_units::SimDuration;

/// Byte-level fingerprint of a report for assertion messages (Rust's
/// float Debug is the shortest round-trip representation, so string
/// equality is value bit-equality — except under NaN, which is why
/// the equality check itself is [`SimReport::bit_eq`], not this
/// string). Shared by every bit-identity suite so the gates render
/// mismatches the same way.
pub fn report_fingerprint(r: &SimReport) -> String {
    format!("{r:?}")
}

/// Relative deviation of two metrics, shared by the tolerance suites.
/// Non-finite input yields infinity so a NaN metric can never slip
/// through a `dev < tol` comparison as a pass.
pub fn rel_dev(a: f64, b: f64) -> f64 {
    if !a.is_finite() || !b.is_finite() {
        return f64::INFINITY;
    }
    if a == 0.0 && b == 0.0 {
        0.0
    } else {
        (a - b).abs() / a.abs().max(b.abs())
    }
}

/// Runs `cfg` for `duration` with event tracing forced on (`setup`
/// spawns the workload) and returns the recorded event stream.
pub fn traced_events(
    cfg: SimConfig,
    duration: SimDuration,
    mut setup: impl FnMut(&mut Simulation),
) -> Vec<TraceEvent> {
    let mut sim = Simulation::new(cfg.trace_events(true));
    setup(&mut sim);
    sim.run_for(duration);
    sim.events().map(|t| t.to_vec()).unwrap_or_default()
}

/// The one-line verdict both divergence helpers render: where two
/// traced event streams first disagree, or that they never do.
pub fn divergence_verdict(a: &[TraceEvent], b: &[TraceEvent]) -> String {
    match first_divergence(a, b) {
        None => format!(
            "event streams identical ({} events) — divergence is outside the traced event set",
            a.len()
        ),
        Some(d) => format!("first divergent event — {d}"),
    }
}

/// Replays two configurations over the same workload and summarises
/// where their event streams first disagree — the gate-failure
/// diagnostic. Returns a one-line human-readable verdict.
///
/// `setup` must be deterministic (it runs once per cell); spawning the
/// same mix into both simulations qualifies.
pub fn stride_divergence(
    left: SimConfig,
    right: SimConfig,
    duration: SimDuration,
    mut setup: impl FnMut(&mut Simulation),
) -> String {
    let a = traced_events(left, duration, &mut setup);
    let b = traced_events(right, duration, &mut setup);
    divergence_verdict(&a, &b)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ebs_workloads::catalog;

    fn cfg(seed: u64) -> SimConfig {
        SimConfig::xseries445().smt(false).seed(seed)
    }

    #[test]
    fn identical_cells_report_no_divergence() {
        let text = stride_divergence(cfg(3), cfg(3), SimDuration::from_millis(300), |sim| {
            sim.spawn_mix(&[catalog::bitcnts()], 2);
        });
        assert!(text.contains("identical"), "{text}");
    }

    #[test]
    fn different_seeds_name_the_first_divergent_event() {
        // `bash` blocks with seed-driven sleeps, so different seeds
        // diverge within the first few slices.
        let text = stride_divergence(cfg(3), cfg(4), SimDuration::from_secs(1), |sim| {
            sim.spawn_mix(&[catalog::bash()], 2);
        });
        assert!(text.contains("first divergent event"), "{text}");
        assert!(text.contains("[t+"), "{text}");
    }
}
