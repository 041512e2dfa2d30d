//! Per-layer measurements that time calls into each crate's public
//! functions from outside.
//!
//! A traced run first takes every layer metric its workload's own path
//! yields; [`fill_missing`] then measures each remaining layer with a
//! small probe, so every traced run reports every layer.
//! `perfbench/METRICS.md` lists which workload measures which layer on
//! its own path.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

use agequant_aging::VthShift;
use agequant_core::AgingAwareQuantizer;
use agequant_fleet::{Chip, Decider, DecisionTable, FleetConfig, FleetRng};
use agequant_nn::NetArch;
use agequant_serve::{plan_response, try_parse, Response};
use agequant_sta::{mac_case_on, Compression, Padding, Sta};

use crate::report::{Ctx, Outcome};
use crate::serve::{self, LoadResult, Mix, ServerSpec, Workload, MAX_MV};
use crate::stats;
use crate::trace::{self, Tracer};

/// Nanoseconds per call of `f` over `n` calls.
fn ns_per_call(n: usize, mut f: impl FnMut(usize)) -> f64 {
    let t = Instant::now();
    for i in 0..n {
        f(i);
    }
    #[allow(clippy::cast_precision_loss)]
    {
        t.elapsed().as_nanos() as f64 / n.max(1) as f64
    }
}

fn ms(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Replays the parser on the run's own request bytes, the renderer on
/// its own plan bodies, and `plan_response` on every served bucket.
pub fn replay_wire(ctx: &Ctx, load: &LoadResult, l: &mut BTreeMap<&'static str, f64>) {
    let requests: Vec<&Vec<u8>> = load.request_bytes.iter().take(50_000).collect();
    if !requests.is_empty() {
        l.insert(
            "serve.http.parse_ns",
            ns_per_call(requests.len(), |i| {
                black_box(try_parse(black_box(requests[i])).is_ok());
            }),
        );
    }
    let responses: Vec<Response> = load
        .plan_bodies
        .iter()
        .take(50_000)
        .map(|b| Response::json(200, String::from_utf8_lossy(b).into_owned()))
        .collect();
    if !responses.is_empty() {
        let mut out = Vec::with_capacity(1024);
        l.insert(
            "serve.http.render_ns",
            ns_per_call(responses.len(), |i| {
                out.clear();
                responses[i].render_to(&mut out, true);
                black_box(&out);
            }),
        );
    }
    if let Ok(decider) = Decider::from_config(&FleetConfig::new(64, ctx.seed)) {
        let max = decider.bucket_of(VthShift::from_millivolts(MAX_MV + 1e-9));
        let decisions: Vec<_> = (0..=max)
            .filter_map(|b| decider.decide_bucket(b).ok())
            .collect();
        if !decisions.is_empty() {
            l.insert(
                "serve.plan_response_ns",
                ns_per_call(20_000, |i| {
                    let d = &decisions[i % decisions.len()];
                    black_box(serde_json::to_string(&plan_response(&decider, d)).ok());
                }),
            );
        }
    }
}

/// The table, decide and kinetics layers of `fleet`, on a fresh
/// decider with the served configuration.
fn fleet_functions(seed: u64, l: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
    let config = FleetConfig::new(64, seed);
    let decider = Decider::from_config(&config).map_err(|e| e.to_string())?;
    let max = decider.bucket_of(VthShift::from_millivolts(MAX_MV + 1e-9));
    let t = Instant::now();
    let table = DecisionTable::build(&decider, max, &[]).map_err(|e| e.to_string())?;
    l.insert("fleet.table.build_s", t.elapsed().as_secs_f64());
    let cold = Decider::from_config(&config).map_err(|e| e.to_string())?;
    let t = Instant::now();
    black_box(cold.decide_bucket(3).map_err(|e| e.to_string())?);
    l.insert("fleet.decide.cold_ms", ms(t));
    l.insert(
        "fleet.decide.warm_ns",
        ns_per_call(20_000, |_| {
            black_box(cold.decide_bucket(black_box(3)).ok());
        }),
    );
    decider.install_table(table);
    let mut reader = decider.table_reader();
    let constraint = decider.constraint_ps();
    let buckets = max + 1;
    l.insert(
        "fleet.table.lookup_ns",
        ns_per_call(200_000, |i| {
            black_box(
                decider
                    .lookup_or_decide(&mut reader, i as u64 % buckets, constraint)
                    .ok(),
            );
        }),
    );
    let model = config.flow.model_spec();
    let mut rng = FleetRng::seed_from_u64(seed);
    let chips: Vec<Chip> = (0..2_000)
        .map(|id| Chip::sample(id, &model, &mut rng))
        .collect();
    let epochs = 40usize;
    l.insert(
        "aging.shift_at_ns",
        ns_per_call(chips.len() * epochs, |i| {
            #[allow(clippy::cast_precision_loss)]
            let years = (i % epochs + 1) as f64 * config.epoch_years;
            black_box(chips[i / epochs].shift_at(black_box(years)));
        }),
    );
    Ok(())
}

/// STA case analysis over the whole compression grid of a fresh flow.
fn sta_cases(l: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
    let flow = AgingAwareQuantizer::new(crate::algo1::flow_config()).map_err(|e| e.to_string())?;
    let shift = VthShift::from_millivolts(30.0);
    let engine = flow.engine();
    let netlist = flow.mac().netlist();
    let lib = engine.library(flow.model_key(), flow.derating(), shift);
    let loads = engine.sta_loads(flow.model_key(), flow.derating(), netlist, shift);
    let sta = Sta::with_loads(netlist, &lib, &loads);
    let geometry = flow.mac().geometry();
    let cases: Vec<_> = Compression::grid(flow.config().grid_max)
        .into_iter()
        .filter(|c| c.validate(geometry).is_ok())
        .flat_map(|c| Padding::ALL.map(|p| (c, p)))
        .filter_map(|(c, p)| mac_case_on(netlist, geometry, c, p).ok())
        .collect();
    l.insert(
        "sta.case_us",
        ns_per_call(cases.len(), |i| {
            black_box(sta.analyze(&cases[i]).critical_path_ps);
        }) / 1e3,
    );
    #[allow(clippy::cast_precision_loss)]
    let scanned = cases.len() as f64;
    l.insert("sta.cases", scanned);
    let feasible = flow.feasible_compressions(shift, flow.fresh_critical_path_ps());
    #[allow(clippy::cast_precision_loss)]
    l.insert(
        "sta.feasible_ratio",
        feasible.len() as f64 / scanned.max(1.0),
    );
    Ok(())
}

/// A short serve run with a mixed load on a small fleet, for workloads
/// that do not serve.
fn serve_probe(ctx: &Ctx, l: &mut BTreeMap<&'static str, f64>) -> Result<(), String> {
    let w = Workload {
        mix: Mix {
            telemetry: 0.25,
            constrained: 0.25,
            chips: 2_000,
        },
        rates: vec![2_000.0],
        reference: 0,
        limit_us: 100_000.0,
        setup_repeats: 1,
    };
    let spec = ServerSpec {
        bin: ctx.serve_bin.clone(),
        workers: ctx.nproc,
        chips: w.mix.chips,
        seed: ctx.seed,
        journal: serve::journal_path(&ctx.out_dir, "probe", ctx.seed),
    };
    let mut tracer = Tracer::new(true);
    let run = serve::run(&w, &spec, 2, ctx.seed, &mut tracer).map_err(|e| e.to_string())?;
    let _ = std::fs::remove_file(&spec.journal);
    crate::report::serve_layers(ctx, &run, l);
    l.insert(
        "trace.overhead_frac",
        record_cost_frac(&tracer, run.load.wall_s),
    );
    Ok(())
}

/// Share of a load's wall time it takes to record its spans again: the
/// tracing overhead of an open-loop run, whose wall time is fixed by
/// its schedule.
pub fn record_cost_frac(tracer: &Tracer, wall_s: f64) -> f64 {
    let spans = tracer.spans();
    let mut again = Tracer::new(true);
    let t = Instant::now();
    for s in spans {
        black_box(again.record(s.name, s.start_ns, s.end_ns, s.parent, s.req));
    }
    t.elapsed().as_secs_f64() / wall_s.max(1e-9)
}

/// Fills every per-layer metric the workload's own path did not
/// measure. A probe's wrong output counts as a failure of the run.
///
/// # Errors
///
/// Returns a message when a probe cannot run.
pub fn fill_missing(ctx: &Ctx, o: &mut Outcome) -> Result<(), String> {
    let mut probe = BTreeMap::new();
    let mut problems = Vec::new();
    let missing = |o: &Outcome, name: &str| !o.layers.contains_key(name);
    if missing(o, "serve.loop.cpu_us_per_req") {
        serve_probe(ctx, &mut probe)?;
    }
    if missing(o, "fleet.step_p50_ms") {
        let mut tracer = Tracer::new(true);
        let path = ctx
            .out_dir
            .join(format!("probe-{}-checkpoint.bin", ctx.seed));
        let config = FleetConfig::new(20_000, ctx.seed);
        let (m, p) = crate::fleet::lifetime(&config, ctx.nproc, &path, &mut tracer, 0, true)?;
        let _ = std::fs::remove_file(&path);
        problems.extend(p);
        let steps_ms: Vec<f64> = m.steps_s.iter().map(|s| s * 1e3).collect();
        probe.insert("fleet.sample_s", m.sample_s);
        probe.insert("fleet.step_p50_ms", stats::median(&steps_ms));
        probe.insert(
            "fleet.step_max_ms",
            steps_ms.iter().copied().fold(0.0, f64::max),
        );
        #[allow(clippy::cast_precision_loss)]
        probe.insert(
            "fleet.step.crossings",
            m.journal_events as f64 / steps_ms.len() as f64,
        );
        probe.insert("fleet.journal.merge_ms", m.merge_s * 1e3);
        probe.insert("fleet.journal.render_ms", m.render_s * 1e3);
        probe.insert("fleet.checkpoint.encode_s", m.encode_s);
        probe.insert("fleet.checkpoint.write_s", m.write_s);
        probe.insert("fleet.checkpoint.decode_s", m.decode_s);
        probe.insert("fleet.checkpoint.resume_s", m.resume_s);
        #[allow(clippy::cast_precision_loss)]
        probe.insert("fleet.checkpoint.bytes_per_chip", m.bytes as f64 / 20_000.0);
        probe.insert(
            "fleet.unattributed_frac",
            trace::unattributed_frac(tracer.spans(), "fleet.lifetime"),
        );
    }
    if missing(o, "fleet.table.lookup_ns") {
        fleet_functions(ctx.seed, &mut probe)?;
    }
    if missing(o, "sta.case_us") {
        sta_cases(&mut probe)?;
    }
    if missing(o, "nn.build_ms") {
        problems.extend(crate::algo1::probe(NetArch::AlexNet, &mut probe)?);
    }
    for (name, value) in probe {
        o.layers.entry(name).or_insert(value);
    }
    o.failed += problems.len() as u64;
    o.problems.extend(problems);
    o.correct = o.problems.is_empty();
    Ok(())
}
