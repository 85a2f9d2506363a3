//! Property-based tests for the thermal substrate.

use ebs_store::Snapshot as _;
use ebs_thermal::{
    calibrate, ExpAverage, RcThermalModel, StepMemo, ThermalNode, ThrottleController,
};
use ebs_units::{Celsius, SimDuration, Watts};
use proptest::prelude::*;

proptest! {
    /// The exponential average is a convex combination: it always lies
    /// between its previous value and the sample.
    #[test]
    fn expavg_stays_between_past_and_sample(
        initial in -100.0f64..100.0,
        samples in prop::collection::vec((-100.0f64..100.0, 1u64..400), 1..40),
        weight in 0.01f64..1.0,
    ) {
        let mut avg = ExpAverage::new(initial, SimDuration::from_millis(100), weight);
        for (sample, ms) in samples {
            let before = avg.value();
            let after = avg.update(sample, SimDuration::from_millis(ms));
            let lo = before.min(sample) - 1e-9;
            let hi = before.max(sample) + 1e-9;
            prop_assert!(after >= lo && after <= hi, "{after} outside [{lo}, {hi}]");
        }
    }

    /// Longer sampling periods always weigh the sample more.
    #[test]
    fn effective_weight_is_monotone_in_period(
        weight in 0.01f64..0.99,
        a_ms in 1u64..1_000,
        b_ms in 1u64..1_000,
    ) {
        let avg = ExpAverage::new(0.0, SimDuration::from_millis(100), weight);
        let wa = avg.effective_weight(SimDuration::from_millis(a_ms));
        let wb = avg.effective_weight(SimDuration::from_millis(b_ms));
        if a_ms < b_ms {
            prop_assert!(wa <= wb + 1e-12);
        }
        prop_assert!((0.0..=1.0).contains(&wa));
    }

    /// Steady state of the RC model is exact: after many time
    /// constants, the temperature equals `ambient + R * P`.
    #[test]
    fn rc_converges_to_steady_state(
        power in 0.0f64..120.0,
        factor in 0.5f64..1.5,
    ) {
        let model = RcThermalModel::reference().with_cooling_factor(factor);
        let mut node = ThermalNode::new(model);
        node.step(Watts(power), SimDuration::from_secs(1_000));
        let expected = model.steady_state(Watts(power));
        prop_assert!((node.temperature().0 - expected.0).abs() < 1e-6);
    }

    /// Heating-curve fitting recovers max power at the limit within a
    /// watt for any plausible cooling factor and heating power.
    #[test]
    fn curve_fit_recovers_power_budget(
        factor in 0.6f64..1.4,
        power in 40.0f64..90.0,
    ) {
        let truth = RcThermalModel::reference().with_cooling_factor(factor);
        let trace = calibrate::record_trace(
            &truth,
            Watts(power),
            SimDuration::from_millis(500),
            160,
            &[],
        );
        let fit = calibrate::fit_heating_curve(&trace).unwrap();
        let budget_true = truth.max_power_for_limit(Celsius(38.0));
        let budget_fit = fit.model.max_power_for_limit(Celsius(38.0));
        prop_assert!(
            (budget_true.0 - budget_fit.0).abs() < 1.0,
            "{budget_true:?} vs {budget_fit:?}"
        );
    }

    /// The throttle controller's accounting is exact: observed time
    /// equals the sum of inputs, and the throttled share never exceeds
    /// the observed time.
    #[test]
    fn throttle_accounting_is_exact(
        limit in 10.0f64..80.0,
        powers in prop::collection::vec(0.0f64..100.0, 1..200),
    ) {
        let mut ctl = ThrottleController::new(Watts(limit));
        let dt = SimDuration::from_millis(1);
        for &p in &powers {
            ctl.observe(Watts(p), dt);
        }
        let stats = ctl.stats();
        prop_assert_eq!(stats.observed, SimDuration::from_millis(powers.len() as u64));
        prop_assert!(stats.throttled <= stats.observed);
        let frac = stats.throttled_fraction();
        prop_assert!((0.0..=1.0).contains(&frac));
    }

    /// A node's memoised decay factor moves the temperature by the bits
    /// a fresh `exp()` gives, over any step sequence, across clones and
    /// restores into fresh nodes, and the image stays the temperature
    /// alone. The stride's `w(span)` memo likewise returns the fresh
    /// value for any span sequence.
    #[test]
    fn memoised_decay_equals_a_fresh_exp(
        cooling in 0.5f64..1.5,
        steps in prop::collection::vec((0.0f64..120.0, 0u64..4, 1u64..50_000), 1..120),
        fork_at in 0usize..120,
    ) {
        let model = RcThermalModel::reference().with_cooling_factor(cooling);
        let tau = model.resistance_k_per_w * model.capacitance_j_per_k;
        let fresh = |t: f64, p: f64, dt: SimDuration| {
            let t_inf = model.steady_state(Watts(p)).0;
            if dt.is_zero() {
                return t;
            }
            t_inf + (t - t_inf) * (-dt.as_secs_f64() / tau).exp()
        };
        let image = |node: &ThermalNode| {
            let mut w = ebs_store::StateWriter::new();
            node.save(&mut w);
            w.finish()
        };
        let mut node = ThermalNode::new(model);
        let mut forks: Vec<ThermalNode> = Vec::new();
        let mut want = model.ambient.0;
        let mut w_cap = StepMemo::new();
        let mut last_dt = SimDuration::ZERO;
        for (i, &(p, repeat, us)) in steps.iter().enumerate() {
            // Mostly repeated step lengths (the memo's case), sometimes
            // a zero step or a new one.
            let dt = match repeat {
                0 => SimDuration::ZERO,
                1 => SimDuration::from_micros(us),
                _ => last_dt,
            };
            last_dt = dt;
            if i == fork_at {
                forks.push(node);
                let mut restored = ThermalNode::new(model);
                restored.restore(&mut image(&node).open().unwrap()).unwrap();
                forks.push(restored);
            }
            want = fresh(want, p, dt);
            for n in std::iter::once(&mut node).chain(forks.iter_mut()) {
                prop_assert_eq!(n.step(Watts(p), dt).0.to_bits(), want.to_bits());
            }
            let w = w_cap.get(dt, |dt| 1.0 - (-dt.as_secs_f64() / tau).exp());
            prop_assert_eq!(w.to_bits(), (1.0 - (-dt.as_secs_f64() / tau).exp()).to_bits());
        }
        let mut bytes = ebs_store::StateWriter::new();
        bytes.celsius(Celsius(want));
        let (got, want) = (image(&node), bytes.finish());
        prop_assert_eq!(got.as_bytes(), want.as_bytes());
    }
}
