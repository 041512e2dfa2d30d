//! `algo1_zoo`: the paper's Algorithm 1, cold, over one network per
//! topology family at the five aged levels.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::Instant;

use agequant_aging::{VthShift, AGING_SWEEP_MV};
use agequant_core::{AgingAwareQuantizer, CacheStats, FlowConfig, ModelOutcome};
use agequant_nn::{accuracy_loss_pct, ExactExecutor, NetArch};
use agequant_quant::quantize_model_with;

use crate::calib;
use crate::report::{self, Ctx, Outcome};
use crate::stats::{self, Summary};
use crate::sys;
use crate::trace::{self, Tracer};

/// One network per topology family.
pub const NETS: [NetArch; 4] = [
    NetArch::AlexNet,
    NetArch::Vgg16,
    NetArch::SqueezeNet11,
    NetArch::ResNet50,
];

/// Evaluation images per decision.
pub const EVAL_IMAGES: usize = 8;

/// Calibration images per decision.
pub const CALIB_IMAGES: usize = 2;

/// The reference outcomes, one line per (network, level).
pub const REFERENCE: &str = include_str!("../algo1_reference.tsv");

/// The flow configuration every decision runs under.
#[must_use]
pub fn flow_config() -> FlowConfig {
    let mut config = FlowConfig::edge_tpu_like();
    config.eval_samples = EVAL_IMAGES;
    config.calib_samples = CALIB_IMAGES;
    config
}

/// The aged levels: every sweep level past fresh.
fn levels() -> Vec<f64> {
    AGING_SWEEP_MV
        .iter()
        .copied()
        .filter(|&mv| mv > 0.0)
        .collect()
}

/// One outcome as a reference line.
#[must_use]
pub fn reference_line(net: NetArch, mv: f64, o: &ModelOutcome) -> String {
    format!(
        "{}\t{mv}\t{}\t{}\t{}\t{}\t{:.6}",
        net.name(),
        o.plan.compression.alpha(),
        o.plan.compression.beta(),
        o.plan.padding.name(),
        o.method.name(),
        o.accuracy_loss_pct
    )
}

/// Algorithm 1 for one network at one level, as
/// [`AgingAwareQuantizer::quantize_arch`] runs it, with a span around
/// each public call: the level's library and load pass (cached by the
/// engine, so `compression_for` reuses them), the grid scan, the
/// network build and method selection. Library, load and grid spans are
/// named by whether the engine's cache answered, so the cold and warm
/// costs stay apart.
fn traced_decision(
    flow: &AgingAwareQuantizer,
    net: NetArch,
    shift: VthShift,
    tracer: &mut Tracer,
    id: u64,
) -> Result<ModelOutcome, String> {
    let root = tracer.begin("core.decision", id);
    let engine = flow.engine();
    let netlist = flow.mac().netlist();
    let cold = engine.stats().library_misses;
    let open = tracer.begin("cells.characterize", id);
    let lib = engine.library(flow.model_key(), flow.derating(), shift);
    tracer.end_as(
        open,
        (engine.stats().library_misses == cold).then_some("cells.library_hit"),
    );
    drop(lib);
    // The load vector is cached with the library: cold exactly when the
    // library was.
    let open = tracer.begin("sta.load_pass", id);
    let loads = engine.sta_loads(flow.model_key(), flow.derating(), netlist, shift);
    tracer.end_as(
        open,
        (engine.stats().library_misses == cold).then_some("sta.loads_hit"),
    );
    drop(loads);
    let scans = engine.stats().plan_misses;
    let open = tracer.begin("core.grid_scan", id);
    let plan = flow.compression_for(shift).map_err(|e| e.to_string());
    tracer.end_as(
        open,
        (engine.stats().plan_misses == scans).then_some("core.plan_hit"),
    );
    let model = tracer.span("nn.build", id, || net.build(flow.config().model_seed));
    let outcome = plan.and_then(|plan| {
        tracer.span("core.select_method", id, || {
            flow.select_method(&model, plan).map_err(|e| e.to_string())
        })
    });
    tracer.end(root);
    outcome
}

/// Times of the parts of method selection, taken one call at a time.
#[derive(Default)]
struct Parts {
    /// `splits`, s.
    dataset_s: Vec<f64>,
    /// fp32 inference: seconds and images.
    fp32: (f64, usize),
    /// `quantize_model_with`, s, one per method.
    quantize_s: Vec<f64>,
    /// int8 inference: seconds and images.
    int8: (f64, usize),
}

/// Method selection for `outcome`'s network and plan, call by call and
/// serially: the dataset split, fp32 inference, then each method's
/// quantization and int8 inference. Each method's loss must be the one
/// the flow's own selection reported.
fn method_parts(
    flow: &AgingAwareQuantizer,
    net: NetArch,
    outcome: &ModelOutcome,
    parts: &mut Parts,
) -> Vec<String> {
    let config = flow.config();
    let model = net.build(config.model_seed);
    let t = Instant::now();
    let (calib, eval) = flow.splits();
    parts.dataset_s.push(t.elapsed().as_secs_f64());
    let t = Instant::now();
    let fp32 = model.predict_all(&ExactExecutor, eval.images());
    parts.fp32.0 += t.elapsed().as_secs_f64();
    parts.fp32.1 += eval.len();
    let bits = outcome.plan.bit_widths();
    let mut problems = Vec::new();
    for &(method, loss) in &outcome.method_losses {
        let t = Instant::now();
        let quantized = quantize_model_with(&model, method, bits, &calib, &config.lapq);
        parts.quantize_s.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        let preds = model.predict_all(&quantized, eval.images());
        parts.int8.0 += t.elapsed().as_secs_f64();
        parts.int8.1 += eval.len();
        let again = accuracy_loss_pct(&fp32, &preds);
        if again.to_bits() != loss.to_bits() {
            problems.push(format!(
                "{} {}: loss {again} called alone, {loss} in selection",
                net.name(),
                method.name()
            ));
        }
    }
    problems
}

/// Per-layer metrics of traced decisions and method parts: median span
/// times, time per image, the share of fp32 passes that were distinct,
/// and the engine's cache ratios.
fn decision_layers(
    spans: &[trace::Span],
    parts: &Parts,
    fp32_distinct_ratio: f64,
    engine: Option<CacheStats>,
    l: &mut BTreeMap<&'static str, f64>,
) {
    let ms = |name: &str| stats::median(&trace::durations(spans, name)) / 1e6;
    l.insert("cells.characterize_ms", ms("cells.characterize"));
    l.insert("sta.load_pass_ms", ms("sta.load_pass"));
    l.insert("core.grid_scan_ms", ms("core.grid_scan"));
    l.insert("core.select_method_ms", ms("core.select_method"));
    l.insert("nn.build_ms", ms("nn.build"));
    l.insert("nn.dataset_ms", stats::median(&parts.dataset_s) * 1e3);
    l.insert("quant.quantize_ms", stats::median(&parts.quantize_s) * 1e3);
    #[allow(clippy::cast_precision_loss)]
    {
        l.insert(
            "nn.fp32_image_us",
            parts.fp32.0 * 1e6 / parts.fp32.1.max(1) as f64,
        );
        l.insert(
            "quant.int8_image_us",
            parts.int8.0 * 1e6 / parts.int8.1.max(1) as f64,
        );
    }
    l.insert("nn.fp32_distinct_ratio", fp32_distinct_ratio);
    l.insert(
        "core.unattributed_frac",
        trace::unattributed_frac(spans, "core.decision"),
    );
    if let Some(s) = engine {
        l.insert("core.engine.plan_hit_ratio", s.plan_hit_rate());
        l.insert("core.engine.library_hit_ratio", s.library_hit_rate());
    }
}

/// Checks one outcome against the reference.
fn check(reference: &[&str], net: NetArch, mv: f64, o: &ModelOutcome) -> Option<String> {
    let line = reference_line(net, mv, o);
    (!reference.contains(&line.as_str())).then(|| format!("{line} is not in the reference"))
}

/// The reference lines, without the header.
fn reference() -> Vec<&'static str> {
    REFERENCE.lines().filter(|l| !l.starts_with('#')).collect()
}

/// The decision layers of one network on a fresh flow, at two levels:
/// the first decision is cold, the second reuses nothing but the
/// network's weights seed. Returns the correctness problems: outcomes
/// not in the reference, and method losses that differ when called
/// alone.
///
/// # Errors
///
/// Returns a message when a decision fails.
pub fn probe(net: NetArch, l: &mut BTreeMap<&'static str, f64>) -> Result<Vec<String>, String> {
    let flow = AgingAwareQuantizer::new(flow_config()).map_err(|e| e.to_string())?;
    let reference = reference();
    let mut tracer = Tracer::new(true);
    let mut parts = Parts::default();
    let mut problems = Vec::new();
    for (i, mv) in [30.0, 50.0].into_iter().enumerate() {
        let o = traced_decision(
            &flow,
            net,
            VthShift::from_millivolts(mv),
            &mut tracer,
            i as u64,
        )?;
        problems.extend(check(&reference, net, mv, &o));
        problems.extend(method_parts(&flow, net, &o, &mut parts));
    }
    decision_layers(tracer.spans(), &parts, 0.5, Some(flow.engine().stats()), l);
    Ok(problems)
}

/// Writes the reference file from a cold pass of the current code.
///
/// # Errors
///
/// Returns a message when a decision fails or the file cannot be
/// written.
pub fn write_reference(path: &Path) -> Result<(), String> {
    let flow = AgingAwareQuantizer::new(flow_config()).map_err(|e| e.to_string())?;
    let mut text = String::from("# network\tlevel_mv\talpha\tbeta\tpadding\tmethod\tloss_pct\n");
    for net in NETS {
        for mv in levels() {
            let o = flow
                .quantize_arch(net, VthShift::from_millivolts(mv))
                .map_err(|e| e.to_string())?;
            text.push_str(&reference_line(net, mv, &o));
            text.push('\n');
        }
    }
    std::fs::write(path, text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The level at which traced runs time method selection's parts.
const PARTS_MV: f64 = 30.0;

/// Flow constructions per set-up sample: set-up is short, so a sample
/// builds the flow several times and keeps the median.
const SETUP_REPEATS: usize = 11;

/// Builds the flow [`SETUP_REPEATS`] times, pushes the median CPU and
/// wall seconds of one construction, and returns the last flow.
fn sample_setup(
    cpu_s: &mut Vec<f64>,
    wall_s: &mut Vec<f64>,
) -> Result<AgingAwareQuantizer, String> {
    let mut flow = None;
    let mut cpus = Vec::with_capacity(SETUP_REPEATS);
    let mut walls = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        drop(flow.take());
        let t = Instant::now();
        let cpu = sys::process_cpu_s();
        flow = Some(AgingAwareQuantizer::new(flow_config()).map_err(|e| e.to_string())?);
        cpus.push(sys::process_cpu_s() - cpu);
        walls.push(t.elapsed().as_secs_f64());
    }
    cpu_s.push(stats::median(&cpus));
    wall_s.push(stats::median(&walls));
    flow.ok_or_else(|| "no flow built".to_string())
}

/// The `algo1_zoo` workload: cold passes over every (network, level)
/// until the time is up, each on a fresh flow and engine.
///
/// # Errors
///
/// Returns a message when the flow cannot be built or a decision fails.
pub fn workload(ctx: &Ctx) -> Result<Outcome, String> {
    let reference = reference();
    // The inputs are the zoo and the levels, in the paper's order; the
    // seed does not reorder them, since the order decides which
    // decision pays for each level's cold characterization and a
    // seed-dependent order would move the median decision between runs.
    let work: Vec<(NetArch, f64)> = NETS
        .iter()
        .flat_map(|&net| levels().into_iter().map(move |mv| (net, mv)))
        .collect();
    let deadline = Instant::now() + std::time::Duration::from_secs(ctx.seconds);
    let mut tracer = Tracer::new(ctx.trace);
    let mut setups = Vec::new();
    let mut latencies_us = Vec::new();
    let mut setup_cpu = Vec::new();
    let mut pass_cpu = Vec::new();
    let mut pass_s = Vec::new();
    let mut untraced_pass_s = Vec::new();
    let mut problems = Vec::new();
    let mut losses = Vec::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;
    let mut traced_outcomes = Vec::new();
    let mut stats_last = None;
    let mut peaks = Vec::new();
    let mut pass = 0u64;
    // Host speed before the first pass and after each network.
    let mut marks = vec![calib::measure(ctx.nproc)];
    loop {
        // Traced runs alternate untraced and traced passes, to measure
        // the tracing overhead on the same work.
        let traced = ctx.trace && pass % 2 == 1;
        sys::reset_peak_rss();
        let flow = sample_setup(&mut setup_cpu, &mut setups)?;
        let mut wall = 0.0;
        let mut cpu = 0.0;
        let mut peak = 0.0f64;
        for (i, &(net, mv)) in work.iter().enumerate() {
            if i > 0 && i % levels().len() == 0 {
                // Between networks: sample the host speed, with the
                // kernel's time outside the decisions' and its memory
                // outside their peak.
                // Set-up is sampled here too: one sample per pass left
                // its median at the mercy of a few moments' host state.
                peak = peak.max(sys::peak_rss_mb("self"));
                marks.push(calib::measure(ctx.nproc));
                drop(sample_setup(&mut setup_cpu, &mut setups)?);
                sys::reset_peak_rss();
            }
            let shift = VthShift::from_millivolts(mv);
            let t = Instant::now();
            let cpu_before = sys::process_cpu_s();
            let outcome = if traced {
                traced_decision(&flow, net, shift, &mut tracer, pass * 100 + i as u64)
            } else {
                flow.quantize_arch(net, shift).map_err(|e| e.to_string())
            };
            cpu += sys::process_cpu_s() - cpu_before;
            let took = t.elapsed().as_secs_f64();
            wall += took;
            latencies_us.push(took * 1e6);
            attempted += 1;
            match outcome {
                Ok(o) => {
                    losses.push(o.accuracy_loss_pct);
                    if let Some(p) = check(&reference, net, mv, &o) {
                        failed += 1;
                        problems.push(p);
                    }
                    if traced && mv == PARTS_MV {
                        traced_outcomes.retain(|(n, _)| *n != net);
                        traced_outcomes.push((net, o));
                    }
                }
                Err(e) => {
                    failed += 1;
                    problems.push(format!("{} at {mv} mV: {e}", net.name()));
                }
            }
        }
        pass_cpu.push(cpu);
        peaks.push(peak.max(sys::peak_rss_mb("self")));
        marks.push(calib::measure(ctx.nproc));
        if traced {
            pass_s.push(wall);
            stats_last = Some(flow.engine().stats());
        } else {
            untraced_pass_s.push(wall);
        }
        pass += 1;
        if Instant::now() >= deadline && pass >= if ctx.trace { 2 } else { 1 } {
            break;
        }
    }
    let all_pass_s: Vec<f64> = untraced_pass_s.iter().chain(&pass_s).copied().collect();
    #[allow(clippy::cast_precision_loss)]
    let n = work.len() as f64;
    let rates: Vec<f64> = all_pass_s.iter().map(|s| n / s).collect();
    let latency = Summary::of(latencies_us);
    #[allow(clippy::cast_precision_loss)]
    let mean_loss = losses.iter().sum::<f64>() / losses.len().max(1) as f64;

    let mut o = Outcome {
        config: vec![
            ("networks", NETS.map(NetArch::name).join(",")),
            (
                "levels_mv",
                levels()
                    .iter()
                    .map(|l| l.to_string())
                    .collect::<Vec<_>>()
                    .join(","),
            ),
            ("eval_images", EVAL_IMAGES.to_string()),
            ("calib_images", CALIB_IMAGES.to_string()),
            ("passes", pass.to_string()),
            ("threads", ctx.nproc.to_string()),
        ],
        ..Outcome::default()
    };
    // Gated on CPU time in reference seconds (see `calib`); the raw CPU
    // and wall-clock rates are reported beside it. The decisions fall
    // in four network clusters, so their plain median straddles two
    // clusters and jumps between runs: the per-decision mean of a pass
    // is gated instead.
    let scale = calib::scale(&marks);
    let setup: Vec<f64> = setup_cpu.iter().map(|s| s * scale).collect();
    let cpu_rates: Vec<f64> = pass_cpu.iter().map(|s| n / (s * scale)).collect();
    let raw_cpu_rates: Vec<f64> = pass_cpu.iter().map(|s| n / s).collect();
    o.end_to_end.insert("setup_s", stats::median(&setup));
    o.end_to_end
        .insert("throughput_per_s", stats::median(&cpu_rates));
    // The smallest pass's peak, as for `fleet_lifetime`: a larger one
    // holds memory the allocator kept from the pass before.
    o.end_to_end.insert(
        "rss_peak_mb",
        peaks.iter().copied().fold(f64::INFINITY, f64::min),
    );
    o.detail("host_kernel_cpu_s", stats::median(&marks), "s");
    o.detail("setup_cpu_s", stats::median(&setup_cpu), "s");
    o.detail("decisions_per_cpu_s", stats::median(&raw_cpu_rates), "1/s");
    o.detail("setup_wall_s", stats::median(&setups), "s");
    o.detail("decision_p50_us", latency.p50, "us");
    o.detail("algo1_decisions_per_s", stats::median(&rates), "1/s");
    o.detail("mean_accuracy_loss_pct", mean_loss, "%");
    o.detail(
        &format!("decision_p{}_us", latency.tail_p),
        latency.tail,
        "us",
    );
    o.repeats = vec![
        ("host_kernel_cpu_s", marks),
        ("setup_s", setup),
        ("setup_cpu_s", setup_cpu),
        ("throughput_per_s", cpu_rates),
        ("decisions_per_cpu_s", raw_cpu_rates),
        ("algo1_decisions_per_s", rates),
        ("rss_peak_mb", peaks),
    ];
    if ctx.trace {
        // Method selection's parts, one call at a time, for each
        // network at one level.
        let flow = AgingAwareQuantizer::new(flow_config()).map_err(|e| e.to_string())?;
        let mut parts = Parts::default();
        for (net, outcome) in &traced_outcomes {
            let p = method_parts(&flow, *net, outcome, &mut parts);
            failed += p.len() as u64;
            problems.extend(p);
        }
        let spans = tracer.spans();
        #[allow(clippy::cast_precision_loss)]
        let distinct = NETS.len() as f64 / n;
        decision_layers(spans, &parts, distinct, stats_last, &mut o.layers);
        o.layers.insert(
            "trace.overhead_frac",
            stats::median(&pass_s) / stats::median(&untraced_pass_s) - 1.0,
        );
        o.spans = spans.to_vec();
        report::self_fracs(&o.spans, &mut o.layers);
    }
    o.attempted = attempted;
    o.failed = failed;
    o.correct = problems.is_empty();
    o.problems = problems;
    Ok(o)
}
