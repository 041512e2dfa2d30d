//! Provable equivalence of the evaluation engine: the memoized,
//! parallel paths must return **bit-identical** results to uncached
//! single-threaded oracles written here on the public API, at every
//! level of the paper's aging sweep.

use agequant_aging::{VthShift, AGING_SWEEP_MV};
use agequant_core::{
    AgingAwareQuantizer, CompressionPlan, FeasiblePoint, FlowConfig, FlowError, ModelOutcome,
};
use agequant_nn::{accuracy_loss_pct, ExactExecutor, Model, NetArch};
use agequant_quant::{quantize_model_with, QuantMethod};
use agequant_sta::{mac_case_on, Compression, Padding, Sta};

fn flow() -> AgingAwareQuantizer {
    AgingAwareQuantizer::new(FlowConfig::edge_tpu_like()).expect("valid config")
}

fn quick_flow(threshold_pct: Option<f64>) -> AgingAwareQuantizer {
    let mut config = FlowConfig::edge_tpu_like();
    config.eval_samples = 20;
    config.calib_samples = 4;
    config.lapq = agequant_quant::LapqRefineConfig::off();
    config.threshold_pct = threshold_pct;
    AgingAwareQuantizer::new(config).expect("valid config")
}

/// Scan oracle (Algorithm 1 lines 2–4): characterizes the library and
/// builds the STA session afresh, then walks the grid in order on one
/// thread.
fn oracle_points(
    flow: &AgingAwareQuantizer,
    shift: VthShift,
    constraint_ps: f64,
) -> Vec<FeasiblePoint> {
    let lib = flow.config().process.characterize(flow.derating(), shift);
    let netlist = flow.mac().netlist();
    let geometry = flow.mac().geometry();
    let sta = Sta::new(netlist, &lib);
    let mut points = Vec::new();
    for compression in Compression::grid(flow.config().grid_max) {
        if compression.validate(geometry).is_err() {
            continue;
        }
        for padding in Padding::ALL {
            let case = mac_case_on(netlist, geometry, compression, padding).expect("valid case");
            let delay_ps = sta.analyze(&case).critical_path_ps;
            if delay_ps <= constraint_ps + 1e-9 {
                points.push(FeasiblePoint {
                    compression,
                    padding,
                    delay_ps,
                });
            }
        }
    }
    points
}

/// A plan counts exactly the oracle's feasible points and picks one of
/// them bit-for-bit; which one is pinned by
/// `near_tie_band_selection_is_pinned`.
fn assert_plan_in_oracle(plan: &CompressionPlan, oracle: &[FeasiblePoint]) {
    assert_eq!(plan.feasible_points, oracle.len(), "{plan:?}");
    assert!(
        oracle.contains(&FeasiblePoint {
            compression: plan.compression,
            padding: plan.padding,
            delay_ps: plan.compressed_delay_ps,
        }),
        "{plan:?} is not an oracle point"
    );
}

/// Selection oracle (Algorithm 1 lines 6–9): quantizes with each
/// library method in order on one thread, stopping at the first method
/// that meets the threshold.
fn oracle_outcome(
    flow: &AgingAwareQuantizer,
    model: &Model,
    plan: CompressionPlan,
) -> Result<ModelOutcome, FlowError> {
    let config = flow.config();
    let (calib, eval) = flow.splits();
    let fp32 = model.predict_all(&ExactExecutor, eval.images());
    let mut method_losses = Vec::new();
    for method in QuantMethod::ALL {
        let quantized = quantize_model_with(model, method, plan.bit_widths(), &calib, &config.lapq);
        let loss = accuracy_loss_pct(&fp32, &model.predict_all(&quantized, eval.images()));
        method_losses.push((method, loss));
        if config
            .threshold_pct
            .is_some_and(|threshold| loss <= threshold)
        {
            break;
        }
    }
    let (method, loss) = match config.threshold_pct {
        Some(threshold) => {
            let last = *method_losses.last().expect("one method ran");
            if last.1 > threshold {
                return Err(FlowError::ThresholdUnmet {
                    best_loss_pct: method_losses
                        .iter()
                        .map(|m| m.1)
                        .fold(f64::INFINITY, f64::min),
                    threshold_pct: threshold,
                });
            }
            last
        }
        // The best loss wins, the first method on exact ties.
        None => method_losses
            .iter()
            .copied()
            .reduce(|best, m| if m.1 < best.1 { m } else { best })
            .expect("one method ran"),
    };
    Ok(ModelOutcome {
        network: model.name().to_string(),
        plan,
        method,
        accuracy_loss_pct: loss,
        method_losses,
    })
}

#[test]
fn feasible_points_bit_identical_across_sweep() {
    let flow = flow();
    let clock = flow.fresh_critical_path_ps();
    for &mv in &AGING_SWEEP_MV {
        let shift = VthShift::from_millivolts(mv);
        let oracle = oracle_points(&flow, shift, clock);
        // `FeasiblePoint` holds f64 delays; `==` is exact bit-level
        // agreement, not a tolerance comparison.
        assert_eq!(
            flow.feasible_compressions(shift, clock),
            oracle,
            "divergence at {mv} mV"
        );
        // A second engine pass (now warm) must also agree.
        assert_eq!(flow.feasible_compressions(shift, clock), oracle);
    }
    let stats = flow.engine().stats();
    assert!(stats.library_hits > 0, "cache never hit: {stats:?}");
}

#[test]
fn plans_match_the_oracle_across_sweep() {
    let flow = flow();
    let clock = flow.fresh_critical_path_ps();
    for &mv in &AGING_SWEEP_MV {
        let shift = VthShift::from_millivolts(mv);
        let cached = flow.compression_for(shift).expect("feasible");
        assert_plan_in_oracle(&cached, &oracle_points(&flow, shift, clock));
        // The plan-cache hit returns the identical plan.
        assert_eq!(flow.compression_for(shift).expect("feasible"), cached);
    }
    let stats = flow.engine().stats();
    assert!(stats.plan_hits >= AGING_SWEEP_MV.len() as u64, "{stats:?}");
}

#[test]
fn infeasible_constraint_agrees_with_the_oracle() {
    let flow = flow();
    let shift = VthShift::from_millivolts(50.0);
    assert!(oracle_points(&flow, shift, 1.0).is_empty());
    assert_eq!(
        flow.compression_for_constraint(shift, 1.0).unwrap_err(),
        FlowError::NoFeasibleCompression {
            shift,
            constraint_ps: 1.0
        }
    );
}

#[test]
fn model_outcomes_bit_identical_without_threshold() {
    let flow = quick_flow(None);
    let model = NetArch::AlexNet.build(flow.config().model_seed);
    for mv in [10.0, 50.0] {
        let plan = flow
            .compression_for(VthShift::from_millivolts(mv))
            .expect("feasible");
        let parallel = flow.select_method(&model, plan).expect("completes");
        let oracle = oracle_outcome(&flow, &model, plan).expect("completes");
        assert_eq!(parallel, oracle, "divergence at {mv} mV");
    }
}

#[test]
fn model_outcomes_bit_identical_with_threshold_early_exit() {
    // A generous threshold exercises the oracle's early exit: the
    // parallel path must truncate its loss list to the same prefix.
    let flow = quick_flow(Some(100.0));
    let model = NetArch::AlexNet.build(flow.config().model_seed);
    let plan = flow
        .compression_for(VthShift::from_millivolts(10.0))
        .expect("feasible");
    let parallel = flow.select_method(&model, plan).expect("threshold met");
    let oracle = oracle_outcome(&flow, &model, plan).expect("threshold met");
    assert_eq!(parallel, oracle);
    assert_eq!(parallel.method_losses.len(), 1, "early exit reproduced");
}

#[test]
fn threshold_unmet_error_agrees_with_the_oracle() {
    let flow = quick_flow(Some(0.0));
    let model = NetArch::SqueezeNet11.build(flow.config().model_seed);
    let plan = flow
        .compression_for(VthShift::from_millivolts(50.0))
        .expect("feasible");
    let parallel = flow.select_method(&model, plan).unwrap_err();
    let oracle = oracle_outcome(&flow, &model, plan).unwrap_err();
    assert_eq!(parallel, oracle);
}

/// The flow's method memo is transparent: at every aged level the
/// memoized `quantize_arch` equals uncached `select_method` on a freshly
/// built network under the same plan, and the sweep's five levels fall
/// into three bit widths — (1,3), (3,3), (3,3), (4,4), (4,4) — so
/// exactly three of them evaluate the network.
#[test]
fn method_memo_outcomes_equal_fresh_selection() {
    let flow = quick_flow(None);
    for arch in [NetArch::AlexNet, NetArch::SqueezeNet11] {
        let before = flow.method_memo_stats();
        for shift in flow.config().scenario.aged_sweep() {
            let memoized = flow.quantize_arch(arch, shift).expect("completes");
            let plan = flow.compression_for(shift).expect("feasible");
            let model = arch.build(flow.config().model_seed);
            let fresh = flow.select_method(&model, plan).expect("completes");
            assert_eq!(memoized, fresh, "{} at {shift:?}", arch.name());
        }
        let after = flow.method_memo_stats();
        assert_eq!(after.misses - before.misses, 3, "{after:?}");
        assert_eq!(after.hits - before.hits, 2, "{after:?}");
    }
}

/// A memo hit applies the threshold policy afresh: an unmet threshold
/// is the same `ThresholdUnmet` on the miss, on the hit, and from
/// uncached selection, and a met one truncates the loss list the same
/// way at two levels sharing bit widths.
#[test]
fn method_memo_hits_reproduce_the_threshold_policy() {
    let unmet = quick_flow(Some(0.0));
    let shift = VthShift::from_millivolts(50.0);
    let miss = unmet
        .quantize_arch(NetArch::SqueezeNet11, shift)
        .unwrap_err();
    let hit = unmet
        .quantize_arch(NetArch::SqueezeNet11, shift)
        .unwrap_err();
    let model = NetArch::SqueezeNet11.build(unmet.config().model_seed);
    let plan = unmet.compression_for(shift).expect("feasible");
    assert!(matches!(miss, FlowError::ThresholdUnmet { .. }), "{miss:?}");
    assert_eq!(hit, miss);
    assert_eq!(unmet.select_method(&model, plan).unwrap_err(), miss);
    assert_eq!(unmet.method_memo_stats().misses, 1);
    assert_eq!(unmet.method_memo_stats().hits, 1);

    let met = quick_flow(Some(100.0));
    let model = NetArch::AlexNet.build(met.config().model_seed);
    for mv in [20.0, 30.0] {
        let shift = VthShift::from_millivolts(mv);
        let memoized = met.quantize_arch(NetArch::AlexNet, shift).expect("met");
        let plan = met.compression_for(shift).expect("feasible");
        assert_eq!(memoized, met.select_method(&model, plan).expect("met"));
        assert_eq!(memoized.method_losses.len(), 1, "early exit reproduced");
    }
    assert_eq!(met.method_memo_stats().hits, 1, "20 and 30 mV share (3,3)");
}

/// The engine's caches are `RwLock`-protected and the engine itself is
/// `Send + Sync`: N threads hammering the same ΔVth grid through one
/// shared engine must produce plans bit-identical to a private
/// single-caller flow, each drawn from the scan oracle's feasible set,
/// and the cache must end up with exactly one characterization per
/// distinct level (no duplicated misses, no torn entries).
#[test]
fn concurrent_threads_bit_identical_to_serial() {
    use std::sync::Arc;

    // Reference: a private flow with one caller, each plan checked
    // against the uncached oracle.
    let reference = flow();
    let clock = reference.fresh_critical_path_ps();
    let serial: Vec<_> = AGING_SWEEP_MV
        .iter()
        .map(|&mv| {
            let shift = VthShift::from_millivolts(mv);
            let plan = reference.compression_for(shift).expect("feasible");
            assert_plan_in_oracle(&plan, &oracle_points(&reference, shift, clock));
            plan
        })
        .collect();

    // Shared flow: every thread walks the full grid through the same
    // engine, so threads race on library, load, and plan caches.
    let shared = Arc::new(flow());
    let threads: u64 = 8;
    let handles: Vec<_> = (0..threads)
        .map(|_| {
            let flow = Arc::clone(&shared);
            std::thread::spawn(move || {
                AGING_SWEEP_MV
                    .iter()
                    .map(|&mv| {
                        flow.compression_for(VthShift::from_millivolts(mv))
                            .expect("feasible")
                    })
                    .collect::<Vec<_>>()
            })
        })
        .collect();
    for handle in handles {
        let plans = handle.join().expect("worker thread completes");
        assert_eq!(plans, serial, "concurrent plans diverge from serial");
    }

    // Double-checked locking collapses racing library misses: each
    // sweep level is characterized exactly once no matter how many
    // threads race on it. Plan lookups are check-then-store, so racing
    // threads may both record a miss for the same key, but every
    // lookup is accounted for and at least one miss per level is real.
    let stats = shared.engine().stats();
    assert_eq!(
        stats.library_misses,
        AGING_SWEEP_MV.len() as u64,
        "{stats:?}"
    );
    let len = AGING_SWEEP_MV.len() as u64;
    assert_eq!(
        stats.plan_hits + stats.plan_misses,
        threads * len,
        "{stats:?}"
    );
    assert!(stats.plan_misses >= len, "{stats:?}");
}

/// Two degradation models sharing one engine must never share cache
/// entries: every cache key carries the model's `model_key`, and the
/// hit/miss counters are kept per model. This is the satellite
/// guarantee behind the per-model `/metrics` series and
/// `FleetSummary` split.
#[test]
fn models_share_an_engine_but_never_cache_entries() {
    use std::sync::Arc;

    use agequant_aging::{ModelSpec, TechProfile};
    use agequant_core::EvalEngine;

    let config = FlowConfig::edge_tpu_like();
    let engine = Arc::new(EvalEngine::new(config.process.clone()));
    let nbti = AgingAwareQuantizer::with_engine(config.clone(), Arc::clone(&engine))
        .expect("valid config");
    let mut hci_config = config;
    hci_config.model = Some(ModelSpec::hci(TechProfile::INTEL14NM, 1.0));
    let hci =
        AgingAwareQuantizer::with_engine(hci_config, Arc::clone(&engine)).expect("valid config");
    assert_eq!(nbti.model_key(), "nbti");
    assert_eq!(hci.model_key(), "hci");

    for &mv in &AGING_SWEEP_MV {
        let shift = VthShift::from_millivolts(mv);
        let a = nbti.compression_for(shift).expect("feasible");
        let b = hci.compression_for(shift).expect("feasible");
        // Both models run the paper's 14 nm profile, so their delay
        // deratings — and therefore the plans — agree; what must NOT
        // be shared is the cache traffic that produced them.
        assert_eq!(a, b, "same profile must plan identically at {mv} mV");
    }

    let by_model = engine.stats_by_model();
    assert_eq!(
        by_model.keys().cloned().collect::<Vec<_>>(),
        ["hci", "nbti"],
        "exactly the two models' counters exist"
    );
    let len = AGING_SWEEP_MV.len() as u64;
    for key in ["nbti", "hci"] {
        let stats = by_model[key];
        // Each model characterized every sweep level itself: no entry
        // was borrowed from the other model's cache.
        assert_eq!(stats.library_misses, len, "{key}: {stats:?}");
        assert_eq!(stats.plan_misses, len, "{key}: {stats:?}");
        assert_eq!(stats.plan_hits, 0, "{key}: {stats:?}");
    }
    // The aggregate view is exactly the sum of the two models.
    let total = engine.stats();
    assert_eq!(total.library_misses, 2 * len);
    assert_eq!(total.plan_misses, 2 * len);
}

/// Regression pin for the ±0.5 near-tie band of Algorithm 1's plan
/// selection: among feasible points within +0.5 of the minimal norm,
/// the balanced compression wins, then the smaller α, then the faster
/// padding. These selections are observable behavior (Table 2) — a
/// change to the band logic must show up here, not silently reshuffle
/// the paper's reproduction.
#[test]
fn near_tie_band_selection_is_pinned() {
    let flow = flow();
    let expect: [(f64, u8, u8, &str); 5] = [
        // At 10 mV the minimal-norm feasible point is the unbalanced
        // (1, 3): no balanced point lies within the +0.5 band below
        // √10, so the band falls through to the norm winner.
        (10.0, 1, 3, "MSB"),
        // From 20 mV on the band picks balanced (α, α) points.
        (20.0, 3, 3, "MSB"),
        (30.0, 3, 3, "MSB"),
        (40.0, 4, 4, "MSB"),
        (50.0, 4, 4, "MSB"),
    ];
    for (mv, alpha, beta, padding) in expect {
        let plan = flow
            .compression_for(VthShift::from_millivolts(mv))
            .expect("feasible");
        assert_eq!(
            (
                plan.compression.alpha(),
                plan.compression.beta(),
                plan.padding.name()
            ),
            (alpha, beta, padding),
            "selection changed at {mv} mV (got ({}, {}) {})",
            plan.compression.alpha(),
            plan.compression.beta(),
            plan.padding.name()
        );
    }
}
