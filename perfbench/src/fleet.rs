//! `fleet_lifetime`: a sharded fleet from sampling through 40 epochs
//! of physics and replanning to an atomic checkpoint, read back and
//! resumed.

use std::time::Instant;

use agequant_core::CacheStats;
use agequant_fleet::{journal, persist, FleetConfig, FleetSim, FleetState};

use crate::calib;
use crate::report::{self, Ctx, Outcome};
use crate::serve::LIFETIME_EPOCHS;
use crate::stats::{self, Summary};
use crate::sys;
use crate::trace::{self, Tracer};

/// Chips per fleet.
pub const CHIPS: u32 = 200_000;

/// Seconds since `t`.
fn since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// What one lifetime measured.
#[derive(Debug, Clone, Default)]
pub struct Lifetime {
    /// `FleetSim::new_sharded`, s.
    pub sample_s: f64,
    /// Its CPU time over all threads, s.
    pub sample_cpu_s: f64,
    /// Each `FleetSim::step`, s.
    pub steps_s: Vec<f64>,
    /// Each step's CPU time over all threads, s.
    pub steps_cpu_s: Vec<f64>,
    /// `checkpoint_binary`, s.
    pub encode_s: f64,
    /// `persist::atomic_write`, s.
    pub write_s: f64,
    /// Reading the file back, s.
    pub read_s: f64,
    /// `FleetState::load`, s.
    pub decode_s: f64,
    /// `FleetSim::resume_sharded`, s.
    pub resume_s: f64,
    /// Checkpoint size, bytes.
    pub bytes: usize,
    /// Journal events after the lifetime (traced runs).
    pub journal_events: usize,
    /// `FleetSim::journal`, s (traced runs).
    pub merge_s: f64,
    /// `journal::to_jsonl`, s (traced runs).
    pub render_s: f64,
    /// Whole lifetime, s.
    pub wall_s: f64,
    /// The fleet engine's cache counters after the lifetime.
    pub cache: CacheStats,
}

/// Runs one lifetime of `config` on `shards` shards, checkpointing to
/// `path`. Returns the measurements and any correctness problem.
///
/// # Errors
///
/// Returns a message when the fleet cannot be built, stepped, written
/// or read.
pub fn lifetime(
    config: &FleetConfig,
    shards: usize,
    path: &std::path::Path,
    tracer: &mut Tracer,
    id: u64,
    with_journal: bool,
) -> Result<(Lifetime, Vec<String>), String> {
    let started = Instant::now();
    let root = tracer.begin("fleet.lifetime", id);
    let mut m = Lifetime::default();
    let t = Instant::now();
    let cpu = sys::process_cpu_s();
    let mut sim = tracer
        .span("fleet.sample", id, || {
            FleetSim::new_sharded(config.clone(), shards)
        })
        .map_err(|e| format!("sample: {e}"))?;
    m.sample_s = since(t);
    m.sample_cpu_s = sys::process_cpu_s() - cpu;
    for _ in 0..LIFETIME_EPOCHS {
        let t = Instant::now();
        let cpu = sys::process_cpu_s();
        tracer
            .span("fleet.step", id, || sim.step())
            .map_err(|e| format!("step: {e}"))?;
        m.steps_s.push(since(t));
        m.steps_cpu_s.push(sys::process_cpu_s() - cpu);
    }
    if with_journal {
        let t = Instant::now();
        let events = tracer.span("fleet.journal.merge", id, || sim.journal());
        m.merge_s = since(t);
        let t = Instant::now();
        let text = tracer.span("fleet.journal.render", id, || journal::to_jsonl(&events));
        m.render_s = since(t);
        m.journal_events = events.len();
        std::hint::black_box(text);
    }
    let t = Instant::now();
    let bytes = tracer
        .span("fleet.checkpoint.encode", id, || sim.checkpoint_binary())
        .map_err(|e| format!("encode: {e}"))?;
    m.encode_s = since(t);
    m.bytes = bytes.len();
    let t = Instant::now();
    tracer
        .span("fleet.checkpoint.write", id, || {
            persist::atomic_write(path, &bytes)
        })
        .map_err(|e| format!("write: {e}"))?;
    m.write_s = since(t);
    let t = Instant::now();
    let read = tracer
        .span("fleet.checkpoint.read", id, || std::fs::read(path))
        .map_err(|e| format!("read {}: {e}", path.display()))?;
    m.read_s = since(t);
    let t = Instant::now();
    let state = tracer
        .span("fleet.checkpoint.decode", id, || FleetState::load(&read))
        .map_err(|e| format!("decode: {e}"))?;
    m.decode_s = since(t);
    let t = Instant::now();
    let resumed = tracer
        .span("fleet.checkpoint.resume", id, || {
            FleetSim::resume_sharded(state, shards)
        })
        .map_err(|e| format!("resume: {e}"))?;
    m.resume_s = since(t);
    tracer.end(root);
    m.wall_s = since(started);
    m.cache = sim.cache_stats();
    drop(sim);
    // Correctness, outside the timed path: the bytes read back are the
    // bytes written, and the resumed fleet re-encodes to them exactly.
    let mut problems = Vec::new();
    if read != bytes {
        problems.push("checkpoint read back differs from the bytes written".to_string());
    }
    match resumed.checkpoint_binary() {
        Ok(again) if again == bytes => {}
        Ok(_) => problems.push("resumed fleet re-encodes to different bytes".to_string()),
        Err(e) => problems.push(format!("re-encode: {e}")),
    }
    if resumed.epoch() != LIFETIME_EPOCHS {
        problems.push(format!("resumed at epoch {}", resumed.epoch()));
    }
    Ok((m, problems))
}

/// The `fleet_lifetime` workload.
///
/// # Errors
///
/// Returns a message when a lifetime cannot run.
pub fn workload(ctx: &Ctx) -> Result<Outcome, String> {
    let shards = ctx.nproc;
    let config = FleetConfig::new(CHIPS, ctx.seed);
    let path = ctx
        .out_dir
        .join(format!("fleet_lifetime-{}-checkpoint.bin", ctx.seed));
    let deadline = Instant::now() + std::time::Duration::from_secs(ctx.seconds);
    let mut tracer = Tracer::new(ctx.trace);
    let mut untraced = Tracer::new(false);
    let mut lifetimes = Vec::new();
    let mut problems = Vec::new();
    let mut untraced_walls = Vec::new();
    let mut traced_walls = Vec::new();
    let mut peaks = Vec::new();
    let mut failed = 0u64;
    let mut k = 0u64;
    // Host speed before the first lifetime and after each one.
    let mut marks = vec![calib::measure(shards)];
    loop {
        // Traced runs alternate untraced and traced lifetimes so the
        // tracing overhead is measured on the same work.
        let traced = ctx.trace && k % 2 == 1;
        let t: &mut Tracer = if traced { &mut tracer } else { &mut untraced };
        // Each lifetime's own peak: the process peak would depend on
        // how earlier lifetimes left the allocator.
        sys::reset_peak_rss();
        let (m, p) = lifetime(&config, shards, &path, t, k, ctx.trace)?;
        peaks.push(sys::peak_rss_mb("self"));
        marks.push(calib::measure(shards));
        if traced {
            traced_walls.push(m.wall_s);
        } else {
            untraced_walls.push(m.wall_s);
        }
        failed += u64::from(!p.is_empty());
        problems.extend(p);
        lifetimes.push(m);
        k += 1;
        if Instant::now() >= deadline && k >= if ctx.trace { 2 } else { 1 } {
            break;
        }
    }
    let _ = std::fs::remove_file(&path);
    let chip_epochs = f64::from(CHIPS) * f64::from(u32::try_from(LIFETIME_EPOCHS).unwrap_or(40));
    let physics: Vec<f64> = lifetimes.iter().map(|m| m.steps_s.iter().sum()).collect();
    let rates: Vec<f64> = physics.iter().map(|s| chip_epochs / s).collect();
    // Gated on CPU time in reference seconds (see `calib`); the raw CPU
    // and wall-clock rates are reported beside it.
    let steps_cpu: Vec<f64> = lifetimes
        .iter()
        .map(|m| m.steps_cpu_s.iter().sum::<f64>())
        .collect();
    let raw_cpu_rates: Vec<f64> = steps_cpu.iter().map(|s| chip_epochs / s).collect();
    let scale = calib::scale(&marks);
    let cpu_rates: Vec<f64> = steps_cpu
        .iter()
        .map(|s| chip_epochs / (s * scale))
        .collect();
    let steps_us: Vec<f64> = lifetimes
        .iter()
        .flat_map(|m| m.steps_s.iter().map(|s| s * 1e6))
        .collect();
    let step = Summary::of(steps_us);
    let col = |f: fn(&Lifetime) -> f64| -> Vec<f64> { lifetimes.iter().map(f).collect() };
    let samples = col(|m| m.sample_s);
    let save = col(|m| m.encode_s + m.write_s);
    let load = col(|m| m.read_s + m.decode_s + m.resume_s);
    #[allow(clippy::cast_precision_loss)]
    let bytes_per_chip = lifetimes[0].bytes as f64 / f64::from(CHIPS);

    let mut o = Outcome {
        config: vec![
            ("fleet_chips", CHIPS.to_string()),
            ("fleet_shards", shards.to_string()),
            ("epochs_per_lifetime", LIFETIME_EPOCHS.to_string()),
            ("lifetimes", lifetimes.len().to_string()),
        ],
        ..Outcome::default()
    };
    o.attempted = lifetimes.len() as u64;
    o.failed = failed;
    o.correct = problems.is_empty();
    o.problems = problems;
    let sample_cpu = col(|m| m.sample_cpu_s);
    let setup: Vec<f64> = sample_cpu.iter().map(|s| s * scale).collect();
    o.end_to_end.insert("setup_s", stats::median(&setup));
    o.end_to_end
        .insert("throughput_per_s", stats::median(&cpu_rates));
    o.detail("host_kernel_cpu_s", stats::median(&marks), "s");
    o.detail("setup_cpu_s", stats::median(&sample_cpu), "s");
    o.detail(
        "chip_epochs_per_cpu_s",
        stats::median(&raw_cpu_rates),
        "1/s",
    );
    o.detail("sample_s", stats::median(&samples), "s");
    o.detail("step_p50_us", step.p50, "us");
    // The smallest unit's peak: a larger one holds memory the allocator
    // kept from the unit before, which varied by up to 14% between
    // lifetimes of one run.
    o.end_to_end.insert(
        "rss_peak_mb",
        peaks.iter().copied().fold(f64::INFINITY, f64::min),
    );
    o.detail("chip_epochs_per_s", stats::median(&rates), "1/s");
    o.detail("checkpoint_save_s", stats::median(&save), "s");
    o.detail("checkpoint_load_s", stats::median(&load), "s");
    o.detail("checkpoint_bytes_per_chip", bytes_per_chip, "B");
    o.detail(&format!("step_p{}_us", step.tail_p), step.tail, "us");
    o.repeats = vec![
        ("host_kernel_cpu_s", marks),
        ("setup_s", setup),
        ("setup_cpu_s", sample_cpu),
        ("throughput_per_s", cpu_rates),
        ("chip_epochs_per_cpu_s", raw_cpu_rates),
        ("chip_epochs_per_s", rates),
        ("checkpoint_save_s", save),
        ("checkpoint_load_s", load),
        ("rss_peak_mb", peaks),
    ];
    if ctx.trace {
        let l = &mut o.layers;
        l.insert("fleet.sample_s", stats::median(&samples));
        l.insert("fleet.step_p50_ms", step.p50 / 1e3);
        l.insert("fleet.step_max_ms", step.max / 1e3);
        #[allow(clippy::cast_precision_loss)]
        l.insert(
            "fleet.step.crossings",
            lifetimes[0].journal_events as f64 / LIFETIME_EPOCHS as f64,
        );
        l.insert(
            "fleet.journal.merge_ms",
            stats::median(&col(|m| m.merge_s)) * 1e3,
        );
        l.insert(
            "fleet.journal.render_ms",
            stats::median(&col(|m| m.render_s)) * 1e3,
        );
        l.insert(
            "fleet.checkpoint.encode_s",
            stats::median(&col(|m| m.encode_s)),
        );
        l.insert(
            "fleet.checkpoint.write_s",
            stats::median(&col(|m| m.write_s)),
        );
        l.insert(
            "fleet.checkpoint.decode_s",
            stats::median(&col(|m| m.decode_s)),
        );
        l.insert(
            "fleet.checkpoint.resume_s",
            stats::median(&col(|m| m.resume_s)),
        );
        l.insert("fleet.checkpoint.bytes_per_chip", bytes_per_chip);
        let cache = lifetimes[0].cache;
        l.insert("core.engine.plan_hit_ratio", cache.plan_hit_rate());
        l.insert("core.engine.library_hit_ratio", cache.library_hit_rate());
        l.insert(
            "fleet.unattributed_frac",
            trace::unattributed_frac(tracer.spans(), "fleet.lifetime"),
        );
        l.insert(
            "trace.overhead_frac",
            stats::median(&traced_walls) / stats::median(&untraced_walls) - 1.0,
        );
        o.spans = tracer.spans().to_vec();
        report::self_fracs(&o.spans, &mut o.layers);
    }
    Ok(o)
}
