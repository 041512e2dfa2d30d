//! What a run reports: the metric lists, the result line, the readable
//! report and the provenance record.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

use serde::Value;

use crate::calib;
use crate::serve::{self, ServerSpec, CLASS_NAMES};
use crate::stats;
use crate::trace::{self, Tracer};

/// The workloads the benchmark runs. `BENCHMARK.json` gates the two
/// offline ones; `perfbench/METRICS.md` says why the serve ones are not
/// gated.
pub const WORKLOADS: [&str; 4] = ["plan_hot", "telemetry_mix", "fleet_lifetime", "algo1_zoo"];

/// End-to-end metrics (`--trace 0`): name and unit. Every workload
/// reports every one; `perfbench/METRICS.md` gives each workload's
/// meaning. The timings are CPU times scaled to the reference host
/// speed (see [`crate::calib`]): wall latencies and tails are reported
/// among the details, since a small shared host spreads them beyond
/// any usable bound.
pub const END_TO_END: [(&str, &str); 3] = [
    ("setup_s", "s"),
    ("throughput_per_s", "1/s"),
    ("rss_peak_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`): name and unit. The layer is the
/// name's first component (a crate, or `client`/`trace` for the
/// benchmark itself).
pub const PER_LAYER: [(&str, &str); 55] = [
    ("serve.loop.cpu_us_per_req", "us"),
    ("serve.loop.sys_frac", "ratio"),
    ("serve.worker.cpu_us_per_req", "us"),
    ("serve.http.parse_ns", "ns"),
    ("serve.http.render_ns", "ns"),
    ("serve.plan_response_ns", "ns"),
    ("serve.table.hit_ratio", "ratio"),
    ("serve.rejected", "count"),
    ("serve.timeouts", "count"),
    ("serve.failed_frac", "ratio"),
    ("client.cpu_us_per_req", "us"),
    ("client.late_p99_us", "us"),
    ("client.late_max_us", "us"),
    ("fleet.table.lookup_ns", "ns"),
    ("fleet.table.build_s", "s"),
    ("fleet.sample_s", "s"),
    ("fleet.step_p50_ms", "ms"),
    ("fleet.step_max_ms", "ms"),
    ("fleet.step.crossings", "count"),
    ("fleet.decide.cold_ms", "ms"),
    ("fleet.decide.warm_ns", "ns"),
    ("fleet.journal.merge_ms", "ms"),
    ("fleet.journal.render_ms", "ms"),
    ("fleet.checkpoint.encode_s", "s"),
    ("fleet.checkpoint.write_s", "s"),
    ("fleet.checkpoint.decode_s", "s"),
    ("fleet.checkpoint.resume_s", "s"),
    ("fleet.checkpoint.bytes_per_chip", "B"),
    ("fleet.unattributed_frac", "ratio"),
    ("aging.shift_at_ns", "ns"),
    ("core.engine.plan_hit_ratio", "ratio"),
    ("core.engine.library_hit_ratio", "ratio"),
    ("cells.characterize_ms", "ms"),
    ("sta.load_pass_ms", "ms"),
    ("sta.case_us", "us"),
    ("sta.cases", "count"),
    ("sta.feasible_ratio", "ratio"),
    ("core.grid_scan_ms", "ms"),
    ("core.select_method_ms", "ms"),
    ("core.unattributed_frac", "ratio"),
    ("nn.build_ms", "ms"),
    ("nn.dataset_ms", "ms"),
    ("nn.fp32_image_us", "us"),
    ("nn.fp32_distinct_ratio", "ratio"),
    ("quant.quantize_ms", "ms"),
    ("quant.int8_image_us", "us"),
    ("serve.self_frac", "ratio"),
    ("client.self_frac", "ratio"),
    ("fleet.self_frac", "ratio"),
    ("core.self_frac", "ratio"),
    ("cells.self_frac", "ratio"),
    ("sta.self_frac", "ratio"),
    ("nn.self_frac", "ratio"),
    ("quant.self_frac", "ratio"),
    ("trace.overhead_frac", "ratio"),
];

/// The run's inputs.
#[derive(Debug, Clone)]
pub struct Ctx {
    /// Workload name.
    pub workload: String,
    /// Workload seed.
    pub seed: u64,
    /// Measurement time, s.
    pub seconds: u64,
    /// Traced run?
    pub trace: bool,
    /// The `agequant-serve` executable.
    pub serve_bin: PathBuf,
    /// Where records and scratch files go.
    pub out_dir: PathBuf,
    /// Available cores.
    pub nproc: usize,
}

/// A run's results.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output checked out.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed (see `METRICS.md`).
    pub failed: u64,
    /// End-to-end metrics by name.
    pub end_to_end: BTreeMap<&'static str, f64>,
    /// Per-layer metrics by name (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// The workload's own named results: name, value, unit.
    pub details: Vec<(String, f64, &'static str)>,
    /// Repeated measurements behind a reported median.
    pub repeats: Vec<(&'static str, Vec<f64>)>,
    /// Configuration facts for the provenance block.
    pub config: Vec<(&'static str, String)>,
    /// Readable lines for the report (ladders, breakdowns).
    pub lines: Vec<String>,
    /// Every correctness problem found.
    pub problems: Vec<String>,
    /// Spans of the traced run.
    pub spans: Vec<trace::Span>,
}

impl Outcome {
    /// Records a workload result under its own name.
    pub fn detail(&mut self, name: &str, value: f64, unit: &'static str) {
        self.details.push((name.to_string(), value, unit));
    }

    /// The last stdout line: `correct`, `attempted`, `failed`, and the
    /// metrics the mode reports, each with its unit.
    #[must_use]
    pub fn result_line(&self, ctx: &Ctx) -> String {
        let (list, values): (&[(&str, &str)], _) = if ctx.trace {
            (&PER_LAYER, &self.layers)
        } else {
            (&END_TO_END, &self.end_to_end)
        };
        let metrics: Vec<String> = list
            .iter()
            .map(|(name, unit)| {
                let v = values.get(name).copied().unwrap_or(0.0);
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    num(v)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed,
            metrics.join(", ")
        )
    }

    /// The readable report, on stderr.
    pub fn print_report(&self, ctx: &Ctx) {
        eprintln!(
            "== {} seed {} ({} s, trace {})",
            ctx.workload,
            ctx.seed,
            ctx.seconds,
            u8::from(ctx.trace)
        );
        for line in &self.lines {
            eprintln!("{line}");
        }
        for (name, value, unit) in &self.details {
            eprintln!("  {name:<34} {value:>14.4} {unit}");
        }
        let list: &[(&str, &str)] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
        let values = if ctx.trace {
            &self.layers
        } else {
            &self.end_to_end
        };
        for (name, unit) in list {
            if let Some(v) = values.get(name) {
                eprintln!("  {name:<34} {v:>14.4} {unit}");
            } else {
                eprintln!("  {name:<34} {:>14} (not measured)", "-");
            }
        }
        for p in self.problems.iter().take(20) {
            eprintln!("  PROBLEM: {p}");
        }
        eprintln!(
            "  correct={} attempted={} failed={}",
            self.correct, self.attempted, self.failed
        );
    }

    /// Writes the run's record (provenance, every metric, repeats) and,
    /// when traced, its spans under the output directory.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of a failed write.
    pub fn write_record(&self, ctx: &Ctx) -> std::io::Result<()> {
        let stem = format!(
            "{}-seed{}-trace{}",
            ctx.workload,
            ctx.seed,
            u8::from(ctx.trace)
        );
        let repeats: Vec<(String, Value)> = self
            .repeats
            .iter()
            .map(|(name, values)| {
                let (q1, med, q3) = stats::quartiles(values);
                (
                    (*name).to_string(),
                    map(vec![
                        ("n", Value::UInt(values.len() as u64)),
                        ("median", Value::Float(med)),
                        ("q1", Value::Float(q1)),
                        ("q3", Value::Float(q3)),
                    ]),
                )
            })
            .collect();
        let mut provenance = vec![
            ("commit", Value::Str(commit())),
            ("rustc", Value::Str(rustc_version())),
            ("nproc", Value::UInt(ctx.nproc as u64)),
            ("workload", Value::Str(ctx.workload.clone())),
            ("seed", Value::UInt(ctx.seed)),
            ("seconds", Value::UInt(ctx.seconds)),
            ("trace", Value::Bool(ctx.trace)),
        ];
        for (k, v) in &self.config {
            provenance.push((k, Value::Str(v.clone())));
        }
        provenance.push(("repeats", Value::Map(repeats)));
        let metric_map = |m: &BTreeMap<&'static str, f64>| {
            Value::Map(
                m.iter()
                    .map(|(k, v)| ((*k).to_string(), Value::Float(*v)))
                    .collect(),
            )
        };
        let record = map(vec![
            ("provenance", map(provenance)),
            ("correct", Value::Bool(self.correct)),
            ("attempted", Value::UInt(self.attempted)),
            ("failed", Value::UInt(self.failed)),
            ("end_to_end", metric_map(&self.end_to_end)),
            ("per_layer", metric_map(&self.layers)),
            (
                "details",
                Value::Map(
                    self.details
                        .iter()
                        .map(|(k, v, unit)| {
                            (
                                k.clone(),
                                map(vec![
                                    ("value", Value::Float(*v)),
                                    ("unit", Value::Str((*unit).to_string())),
                                ]),
                            )
                        })
                        .collect(),
                ),
            ),
            (
                "report",
                Value::Seq(self.lines.iter().cloned().map(Value::Str).collect()),
            ),
            (
                "problems",
                Value::Seq(self.problems.iter().cloned().map(Value::Str).collect()),
            ),
        ]);
        let text = serde_json::to_string_pretty(&record).map_err(std::io::Error::other)?;
        std::fs::write(ctx.out_dir.join(format!("{stem}.json")), text)?;
        if ctx.trace {
            trace::write_jsonl(
                &self.spans,
                &ctx.out_dir.join(format!("{stem}-spans.jsonl")),
            )?;
        }
        Ok(())
    }
}

fn map(fields: Vec<(&str, Value)>) -> Value {
    Value::Map(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

/// A metric value as JSON: every digit, and 0 for a non-finite value.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_string()
    }
}

fn command_line(program: &str, args: &[&str]) -> Option<String> {
    let out = Command::new(program).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// The commit measured: `git rev-parse HEAD`, else `unknown` (the
/// benchmark may run from an exported tree).
fn commit() -> String {
    command_line("git", &["rev-parse", "HEAD"]).unwrap_or_else(|| "unknown".to_string())
}

fn rustc_version() -> String {
    command_line("rustc", &["--version"]).unwrap_or_else(|| "unknown".to_string())
}

/// The self-time share of each layer in `spans`, as
/// `<layer>.self_frac` over the total duration of the root spans.
pub fn self_fracs(spans: &[trace::Span], out: &mut BTreeMap<&'static str, f64>) {
    #[allow(clippy::cast_precision_loss)]
    let total: f64 = spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns.saturating_sub(s.start_ns) as f64)
        .sum();
    if total <= 0.0 {
        return;
    }
    let by_layer = trace::self_time_by_layer(spans);
    for (name, _) in PER_LAYER {
        if let Some(layer) = name.strip_suffix(".self_frac") {
            #[allow(clippy::cast_precision_loss)]
            let own = by_layer.get(layer).copied().unwrap_or(0) as f64;
            out.insert(name, own / total);
        }
    }
}

/// Runs a serve workload and reports it.
///
/// # Errors
///
/// Returns a message when the server cannot be started or driven.
pub fn serve_workload(ctx: &Ctx, w: &serve::Workload) -> Result<Outcome, String> {
    let spec = ServerSpec {
        bin: ctx.serve_bin.clone(),
        workers: ctx.nproc,
        chips: w.mix.chips,
        seed: ctx.seed,
        journal: serve::journal_path(&ctx.out_dir, &ctx.workload, ctx.seed),
    };
    let mut tracer = Tracer::new(ctx.trace);
    let before = calib::measure(ctx.nproc);
    let run = serve::run(w, &spec, ctx.seconds, ctx.seed, &mut tracer)
        .map_err(|e| format!("serve run: {e}"))?;
    let after = calib::measure(ctx.nproc);
    let _ = std::fs::remove_file(&spec.journal);
    let mut o = Outcome {
        config: vec![
            ("server_workers", spec.workers.to_string()),
            (
                "server_loops",
                std::env::var("AGEQUANT_SERVE_LOOPS").unwrap_or_else(|_| "1".to_string()),
            ),
            ("client_connections", spec.workers.max(1).to_string()),
            ("fleet_chips", spec.chips.to_string()),
            ("fleet_shards", ctx.nproc.to_string()),
            ("latency_limit_us", w.limit_us.to_string()),
            (
                "ladder_rates",
                w.rates
                    .iter()
                    .map(|r| r.to_string())
                    .collect::<Vec<_>>()
                    .join(","),
            ),
            ("reference_rate", w.rates[w.reference].to_string()),
        ],
        ..Outcome::default()
    };
    let max_pass = run.rungs.iter().rposition(|r| r.pass);
    // Refusals above `max_rps` are load shedding; below it they count.
    let counted = &run.rungs[..max_pass.map_or(run.rungs.len(), |m| m + 1)];
    let wrong: u64 = run.rungs.iter().map(|r| r.wrong).sum();
    let failed_to_max: u64 = counted.iter().map(|r| r.failed - r.wrong).sum();
    let attempted: u64 = run.rungs.iter().map(|r| r.sent).sum();
    let attempted_to_max: u64 = counted.iter().map(|r| r.sent).sum();
    o.attempted = attempted;
    // Each telemetry answer the replica disagrees with is one problem.
    o.failed = wrong + failed_to_max + run.problems.len() as u64;
    o.problems = run.problems.clone();
    if wrong > 0 {
        o.problems
            .push(format!("{wrong} answers differ from the oracle"));
    }
    o.correct = o.problems.is_empty();
    let reference = &run.rungs[w.reference];
    let max_rps = max_pass.map_or(0.0, |m| run.rungs[m].achieved_rate);
    let setup: Vec<f64> = run
        .setup_cpu
        .iter()
        .map(|s| s * calib::scale(&[before, after]))
        .collect();
    o.end_to_end.insert("setup_s", stats::median(&setup));
    o.detail("host_kernel_cpu_s", (before + after) / 2.0, "s");
    o.detail("setup_cpu_s", stats::median(&run.setup_cpu), "s");
    // Answers per second at the highest offered rate: what the ladder's
    // top rung delivered. `max_rps`, the highest rung meeting the
    // limit, flips between rungs with host noise and is a detail.
    let top = run.rungs.last().map_or(0.0, |r| r.achieved_rate);
    o.end_to_end.insert("throughput_per_s", top);
    o.detail("server_cpu_us_per_req", run.cpu_per_req_us, "us");
    o.detail("setup_wall_s", stats::median(&run.setups), "s");
    o.detail("latency_p50_us", reference.latency.p50, "us");
    o.detail(
        &format!("latency_p{}_us", reference.tail.1),
        reference.tail.0,
        "us",
    );
    o.end_to_end.insert("rss_peak_mb", run.rss_mb);
    o.repeats.push(("setup_s", setup));
    o.repeats.push(("setup_cpu_s", run.setup_cpu.clone()));
    o.repeats.push(("setup_wall_s", run.setups.clone()));
    o.lines.push(format!(
        "  {:>9} {:>7} {:>10} {:>10} {:>10} {:>9} {:>9} {:>6} {:>7} {:>7}  verdict",
        "rate/s",
        "sent",
        "ok/s",
        "p50_us",
        "tail_us",
        "late_p99",
        "late_max",
        "fail",
        "refused",
        "backlog"
    ));
    for r in &run.rungs {
        o.lines.push(format!(
            "  {:>9.0} {:>7} {:>10.1} {:>10.1} {:>10.1} {:>9.1} {:>9.1} {:>6} {:>7} {:>7}  {} (tail p{})",
            r.rate,
            r.sent,
            r.achieved_rate,
            r.latency.p50,
            r.tail.0,
            r.late.tail,
            r.late.max,
            r.failed,
            r.refused,
            r.backlog,
            if r.void {
                "void"
            } else if r.pass {
                "pass"
            } else {
                "miss"
            },
            r.tail.1
        ));
    }
    o.detail("max_rps", max_rps, "1/s");
    #[allow(clippy::cast_precision_loss)]
    o.detail(
        "failed_frac",
        if attempted_to_max == 0 {
            0.0
        } else {
            (wrong + failed_to_max) as f64 / attempted_to_max as f64
        },
        "ratio",
    );
    // How honest the generator was over the whole ladder.
    let (late_p99, late_max) = run.load.lateness_us();
    o.detail("client_late_p99_us", late_p99, "us");
    o.detail("client_late_max_us", late_max, "us");
    o.detail(
        "client_cpu_us_per_req",
        run.load.client_cpu_us_per_req(),
        "us",
    );
    for (class, summary) in run.reference_by_class.iter().enumerate() {
        if summary.n == 0 {
            continue;
        }
        let name = CLASS_NAMES[class];
        o.detail(&format!("{name}_p50_us"), summary.p50, "us");
        o.detail(
            &format!("{name}_p{}_us", summary.tail_p),
            summary.tail,
            "us",
        );
    }
    if ctx.trace {
        serve_layers(ctx, &run, &mut o.layers);
        o.layers.insert(
            "trace.overhead_frac",
            crate::layers::record_cost_frac(&tracer, run.load.wall_s),
        );
        o.spans = tracer.spans().to_vec();
        self_fracs(&o.spans, &mut o.layers);
    }
    Ok(o)
}

/// The serve-path layer metrics of a serve run.
pub fn serve_layers(ctx: &Ctx, run: &serve::ServeRun, l: &mut BTreeMap<&'static str, f64>) {
    #[allow(clippy::cast_precision_loss)]
    let answered = run.load.samples.len().max(1) as f64;
    l.insert(
        "serve.loop.cpu_us_per_req",
        run.loop_cpu.total_s() * 1e6 / answered,
    );
    l.insert(
        "serve.loop.sys_frac",
        if run.loop_cpu.total_s() > 0.0 {
            run.loop_cpu.sys_s / run.loop_cpu.total_s()
        } else {
            0.0
        },
    );
    l.insert(
        "serve.worker.cpu_us_per_req",
        run.worker_cpu.total_s() * 1e6 / answered,
    );
    l.insert("client.cpu_us_per_req", run.load.client_cpu_us_per_req());
    let (late_p99, late_max) = run.load.lateness_us();
    l.insert("client.late_p99_us", late_p99);
    l.insert("client.late_max_us", late_max);
    let m = &run.metrics;
    let ratio = |hit: &str, miss: &str| {
        let h = serve::metric_sum(m, hit);
        let x = serve::metric_sum(m, miss);
        if h + x > 0.0 {
            h / (h + x)
        } else {
            0.0
        }
    };
    l.insert(
        "serve.table.hit_ratio",
        ratio(
            "agequant_serve_table_hits_total",
            "agequant_serve_table_misses_total",
        ),
    );
    l.insert(
        "serve.rejected",
        serve::metric_sum(m, "agequant_queue_rejected_total"),
    );
    l.insert(
        "serve.timeouts",
        serve::metric_sum(m, "agequant_request_timeouts_total"),
    );
    l.insert(
        "core.engine.plan_hit_ratio",
        ratio(
            "agequant_engine_cache_events_total{cache=\"plan\",event=\"hit\"}",
            "agequant_engine_cache_events_total{cache=\"plan\",event=\"miss\"}",
        ),
    );
    l.insert(
        "core.engine.library_hit_ratio",
        ratio(
            "agequant_engine_cache_events_total{cache=\"library\",event=\"hit\"}",
            "agequant_engine_cache_events_total{cache=\"library\",event=\"miss\"}",
        ),
    );
    let failed: u64 = run.rungs.iter().map(|r| r.failed).sum();
    let sent: u64 = run.rungs.iter().map(|r| r.sent).sum();
    #[allow(clippy::cast_precision_loss)]
    l.insert("serve.failed_frac", failed as f64 / sent.max(1) as f64);
    crate::layers::replay_wire(ctx, &run.load, l);
}
