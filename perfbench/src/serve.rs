//! The serve workloads: the shipped `agequant-serve` binary as a child
//! process, driven by an open-loop, pipelining load generator.

use std::collections::VecDeque;
use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use agequant_aging::VthShift;
use agequant_fleet::{ChipMode, Decider, FleetConfig, FleetSim};
use agequant_netpoll::{PollFd, POLLIN, POLLOUT};
use agequant_serve::plan_response;
use serde::Deserialize;

use crate::schedule::{ladder, Rng, Rung};
use crate::stats::{self, Summary};
use crate::sys::{self, Cpu};
use crate::trace::Tracer;
use crate::wire::{self, Framer};

/// Served ΔVth range, mV (the characterized library sweep).
pub const MAX_MV: f64 = 50.0;

/// Epochs in one chip lifetime (20 years of half-year epochs).
pub const LIFETIME_EPOCHS: u64 = 40;

/// Constraint factors a `telemetry_mix` plan may carry.
pub const CONSTRAINT_FACTORS: [f64; 3] = [0.95, 1.05, 1.1];

/// Length of the unscored warm-up before a ladder, ns.
const WARMUP_NS: u64 = 500_000_000;

/// At rates whose requests come at most this far apart, ns, the
/// generator polls instead of sleeping for this long before each due
/// time.
const SPIN_NS: u64 = 1_000_000;

/// A running server process.
pub struct ServerProc {
    child: Child,
    /// Kept open so the server's later lines (its drain report) never
    /// meet a closed pipe.
    stdout: BufReader<ChildStdout>,
    /// The listening address.
    pub addr: String,
    /// Spawn to "listening", seconds.
    pub setup_s: f64,
    /// Reaped by [`ServerProc::shutdown`]: its pid may already name
    /// another process, so `Drop` must not signal it.
    reaped: bool,
}

/// How the benchmark launches the server.
#[derive(Debug, Clone)]
pub struct ServerSpec {
    /// The `agequant-serve` executable.
    pub bin: PathBuf,
    /// `--workers`.
    pub workers: usize,
    /// `--fleet-chips`.
    pub chips: u32,
    /// `--fleet-seed`.
    pub seed: u64,
    /// `--journal`.
    pub journal: PathBuf,
}

impl ServerSpec {
    /// Spawns the server and waits for its "listening on" line.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of a failed spawn, or an error if the
    /// process exits before it listens.
    pub fn spawn(&self) -> io::Result<ServerProc> {
        let started = Instant::now();
        let mut child = Command::new(&self.bin)
            .args([
                "--addr",
                "127.0.0.1:0",
                "--workers",
                &self.workers.to_string(),
                "--fleet-chips",
                &self.chips.to_string(),
                "--fleet-seed",
                &self.seed.to_string(),
                "--journal",
            ])
            .arg(&self.journal)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let setup_s = started.elapsed().as_secs_f64();
        // Owned before the checks below, so a failed start is killed
        // and reaped by `Drop`.
        let mut proc = ServerProc {
            child,
            stdout,
            addr: String::new(),
            setup_s,
            reaped: false,
        };
        read?;
        let Some(addr) = line.trim().strip_prefix("listening on ") else {
            return Err(io::Error::other(format!(
                "server did not start listening (said {line:?})"
            )));
        };
        proc.addr = addr.to_string();
        Ok(proc)
    }
}

impl ServerProc {
    /// The server's process id.
    #[must_use]
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// One request over a fresh connection, waiting for its response.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of a failed exchange.
    pub fn call(&self, request: &[u8]) -> io::Result<wire::Framed> {
        let mut stream = TcpStream::connect(&self.addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        stream.write_all(request)?;
        let mut framer = Framer::default();
        let mut buf = [0u8; 16 * 1024];
        loop {
            if let Some(r) = framer.next_response().map_err(|e| io::Error::other(e.0))? {
                return Ok(r);
            }
            let n = stream.read(&mut buf)?;
            if n == 0 {
                return Err(io::Error::other("server closed before responding"));
            }
            framer.feed(&buf[..n]);
        }
    }

    /// The `/metrics` text.
    ///
    /// # Errors
    ///
    /// Returns the I/O error of the scrape.
    pub fn metrics(&self) -> io::Result<String> {
        let r = self.call(&wire::get("/metrics"))?;
        Ok(String::from_utf8_lossy(&r.body).into_owned())
    }

    /// Graceful drain: `POST /v1/shutdown`, then wait for exit.
    /// Returns the CPU time the process used over its whole life, all
    /// threads, seconds.
    ///
    /// # Errors
    ///
    /// Returns an error if the server does not exit cleanly in time.
    pub fn shutdown(mut self) -> io::Result<f64> {
        let _ = self.call(&wire::post("/v1/shutdown", ""));
        let mut rest = String::new();
        let _ = self.stdout.read_to_string(&mut rest);
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            if let Some((status, cpu_s)) = sys::try_reap(self.pid())? {
                self.reaped = true;
                return if status == 0 {
                    Ok(cpu_s)
                } else {
                    Err(io::Error::other(format!(
                        "server exited with wait status {status}"
                    )))
                };
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("server did not drain within 60 s"));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        if self.reaped {
            return;
        }
        if matches!(self.child.try_wait(), Ok(None)) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Sums the samples of a Prometheus metric whose line starts with
/// `prefix` (name plus any label prefix).
#[must_use]
pub fn metric_sum(text: &str, prefix: &str) -> f64 {
    text.lines()
        .filter(|l| l.starts_with(prefix))
        .filter_map(|l| l.rsplit(' ').next())
        .filter_map(|v| v.parse::<f64>().ok())
        .sum()
}

// ------------------------------------------------------------ requests

/// What a request asks, and so what its answer must be.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Kind {
    /// `POST /v1/plan` in the served range: a table hit.
    Plan { bucket: u64 },
    /// `POST /v1/plan` with a `constraint_factor`: the worker path.
    Constrained { bucket: u64, factor: usize },
    /// `POST /v1/telemetry`.
    Telemetry { chip: u32, epoch: u64 },
}

impl Kind {
    /// 0 = table-hit plan, 1 = constrained plan, 2 = telemetry.
    #[must_use]
    pub fn class(&self) -> usize {
        match self {
            Kind::Plan { .. } => 0,
            Kind::Constrained { .. } => 1,
            Kind::Telemetry { .. } => 2,
        }
    }
}

/// Request class names, indexed by [`Kind::class`].
pub const CLASS_NAMES: [&str; 3] = ["plan", "constrained_plan", "telemetry"];

/// A ΔVth uniform over the served range, at 0.01 mV resolution so the
/// bucket edges themselves are drawn too.
fn draw_mv(rng: &mut Rng) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    {
        rng.below(5_001) as f64 / 100.0
    }
}

/// The traffic mix of a serve workload.
#[derive(Debug, Clone, Copy)]
pub struct Mix {
    /// Share of telemetry reports.
    pub telemetry: f64,
    /// Share of plans carrying a constraint factor.
    pub constrained: f64,
    /// Chips in the hosted fleet.
    pub chips: u32,
}

/// Generates the run's next request: its kind and wire bytes. `epoch`
/// is where the fleet-epoch schedule stands at its due time.
fn make_request(mix: &Mix, rng: &mut Rng, epoch: u64, oracle: &Oracle) -> (Kind, Vec<u8>) {
    let u = rng.unit();
    if u < mix.telemetry {
        #[allow(clippy::cast_possible_truncation)]
        let chip = rng.below(u64::from(mix.chips)) as u32;
        let mv = draw_mv(rng);
        let body = format!("{{\"chip\":{chip},\"epoch\":{epoch},\"delta_vth_mv\":{mv}}}");
        (
            Kind::Telemetry { chip, epoch },
            wire::post("/v1/telemetry", &body),
        )
    } else if u < mix.telemetry + mix.constrained {
        #[allow(clippy::cast_possible_truncation)]
        let factor = rng.below(CONSTRAINT_FACTORS.len() as u64) as usize;
        let mv = draw_mv(rng);
        let body = format!(
            "{{\"delta_vth_mv\":{mv},\"constraint_factor\":{}}}",
            CONSTRAINT_FACTORS[factor]
        );
        (
            Kind::Constrained {
                bucket: oracle.bucket_of(mv),
                factor,
            },
            wire::post("/v1/plan", &body),
        )
    } else {
        let mv = draw_mv(rng);
        let body = format!("{{\"delta_vth_mv\":{mv}}}");
        (
            Kind::Plan {
                bucket: oracle.bucket_of(mv),
            },
            wire::post("/v1/plan", &body),
        )
    }
}

/// Expected `/v1/plan` bodies from an in-process [`Decider`] with the
/// server's configuration: `[constraint][bucket]`, constraint 0 being
/// the default and `1 + i` [`CONSTRAINT_FACTORS`]`[i]`.
pub struct Oracle {
    decider: Decider,
    bodies: Vec<Vec<String>>,
}

impl Oracle {
    /// Renders every plan body the workload can ask for.
    ///
    /// # Panics
    ///
    /// Panics if the decider cannot be built or decide (a broken
    /// workspace, not a benchmark outcome).
    #[must_use]
    pub fn new(chips: u32, seed: u64) -> Self {
        let decider = Decider::from_config(&FleetConfig::new(chips, seed)).expect("decider builds");
        let max_bucket = decider.bucket_of(VthShift::from_millivolts(MAX_MV + 1e-9));
        let fresh = decider.flow().fresh_critical_path_ps();
        let constraints: Vec<f64> = std::iter::once(decider.constraint_ps())
            .chain(CONSTRAINT_FACTORS.iter().map(|f| fresh * f))
            .collect();
        let bodies = constraints
            .iter()
            .map(|&c| {
                (0..=max_bucket)
                    .map(|b| {
                        let decision = decider.decide_bucket_at(b, c).expect("decides");
                        serde_json::to_string(&plan_response(&decider, &decision))
                            .expect("finite plan")
                    })
                    .collect()
            })
            .collect();
        Oracle { decider, bodies }
    }

    /// The bucket a ΔVth falls into.
    #[must_use]
    pub fn bucket_of(&self, mv: f64) -> u64 {
        self.decider.bucket_of(VthShift::from_millivolts(mv))
    }

    fn body(&self, constraint: usize, bucket: u64) -> Option<&str> {
        self.bodies
            .get(constraint)?
            .get(usize::try_from(bucket).ok()?)
            .map(String::as_str)
    }
}

/// The fields of a telemetry reply the benchmark checks.
#[derive(Debug, Clone, Deserialize)]
struct TelemetryReply {
    chip: u32,
    epoch: u64,
    bucket: u64,
    mode: String,
}

/// A telemetry answer kept for the replica check.
#[derive(Debug, Clone)]
pub struct Observed {
    chip: u32,
    asked_epoch: u64,
    reply: TelemetryReply,
}

// ------------------------------------------------------------ generator

struct Pending {
    due_ns: u64,
    late_ns: u64,
    kind: Kind,
    rung: usize,
    id: u64,
}

struct Conn {
    stream: TcpStream,
    out: Vec<u8>,
    framer: Framer,
    inflight: VecDeque<Pending>,
}

/// Everything one request's answer contributed.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Ladder rung.
    pub rung: usize,
    /// [`Kind::class`].
    pub class: usize,
    /// Due time to last response byte, ns.
    pub latency_ns: u64,
    /// Due time to the write, ns.
    pub late_ns: u64,
    /// When the last byte arrived, ns from the run's start.
    pub done_ns: u64,
    /// Answered `2xx` with the expected content.
    pub ok: bool,
    /// Refused: `503` or `504`.
    pub refused: bool,
}

/// What the generator saw over a ladder.
pub struct LoadResult {
    /// One per answered request.
    pub samples: Vec<Sample>,
    /// Requests sent per rung.
    pub sent: Vec<u64>,
    /// Requests still unanswered when each rung's sending ended.
    pub backlog: Vec<u64>,
    /// Requests never answered.
    pub lost: Vec<u64>,
    /// Telemetry answers for the replica check.
    pub observed: Vec<Observed>,
    /// Every request's wire bytes, for the parse replay (traced runs).
    pub request_bytes: Vec<Vec<u8>>,
    /// Every plan body received, for the render replay (traced runs).
    pub plan_bodies: Vec<Vec<u8>>,
    /// Generator-thread CPU over the ladder.
    pub client_cpu: Cpu,
    /// Wall time of the ladder, s.
    pub wall_s: f64,
}

impl LoadResult {
    /// The generator's lateness (due time to write) over every
    /// answered request: p99 and max, µs.
    #[must_use]
    pub fn lateness_us(&self) -> (f64, f64) {
        let late = stats::sorted(self.samples.iter().map(|s| us(s.late_ns)).collect());
        (
            stats::percentile(&late, 99.0),
            late.last().copied().unwrap_or(0.0),
        )
    }

    /// Generator CPU per answered request, µs.
    #[must_use]
    pub fn client_cpu_us_per_req(&self) -> f64 {
        #[allow(clippy::cast_precision_loss)]
        let answered = self.samples.len().max(1) as f64;
        self.client_cpu.total_s() * 1e6 / answered
    }
}

/// Drives `rungs` against `addr` from this thread over `conns`
/// keep-alive connections: each request is written at its due time
/// (pipelined behind unanswered ones) and timed from the due time to
/// its last response byte.
///
/// # Errors
///
/// Returns the I/O error of a failed connect or socket operation.
#[allow(clippy::too_many_lines)]
pub fn drive(
    addr: &str,
    conns: usize,
    rungs: &[Rung],
    mix: &Mix,
    oracle: &Oracle,
    seed: u64,
    tracer: &mut Tracer,
) -> io::Result<LoadResult> {
    sys::tighten_timer_slack();
    let mut conns: Vec<Conn> = (0..conns)
        .map(|_| {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            Ok(Conn {
                stream,
                out: Vec::with_capacity(64 * 1024),
                framer: Framer::default(),
                inflight: VecDeque::new(),
            })
        })
        .collect::<io::Result<_>>()?;
    let end_ns = rungs.last().map_or(0, |r| r.start_ns + r.len_ns);
    let epoch_at = |due_ns: u64| -> u64 {
        if end_ns == 0 {
            return 0;
        }
        #[allow(
            clippy::cast_precision_loss,
            clippy::cast_possible_truncation,
            clippy::cast_sign_loss
        )]
        let e = (due_ns as f64 / end_ns as f64 * (LIFETIME_EPOCHS + 1) as f64) as u64;
        e.min(LIFETIME_EPOCHS)
    };
    let mut rng = Rng::new(seed, 0x5E7E);
    let keep = tracer.enabled();
    let mut out = LoadResult {
        samples: Vec::new(),
        sent: vec![0; rungs.len()],
        backlog: vec![0; rungs.len()],
        lost: vec![0; rungs.len()],
        observed: Vec::new(),
        request_bytes: Vec::new(),
        plan_bodies: Vec::new(),
        client_cpu: Cpu::default(),
        wall_s: 0.0,
    };
    let cpu0 = sys::this_thread_cpu();
    let lead = Duration::from_millis(20);
    let origin = Instant::now() + lead;
    let origin_trace_ns = u64::try_from((origin - tracer.origin()).as_nanos()).unwrap_or(0);
    let drain_ns = 5_000_000_000u64;
    let mut rung = 0usize;
    let mut next_in_rung = 0u64;
    let mut next_id = 0u64;
    let mut buf = vec![0u8; 256 * 1024];
    let mut pollfds: Vec<PollFd> = Vec::with_capacity(conns.len());
    let now_ns = |origin: Instant| -> u64 {
        Instant::now()
            .checked_duration_since(origin)
            .map_or(0, |d| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX))
    };
    loop {
        let now = now_ns(origin);
        // 1. Queue every request already due.
        while rung < rungs.len() {
            let r = &rungs[rung];
            let until = r.due_until(now);
            while next_in_rung < until {
                let due_ns = r.due_ns(next_in_rung);
                let (kind, bytes) = make_request(mix, &mut rng, epoch_at(due_ns), oracle);
                let idx = usize::try_from(next_id).unwrap_or(0) % conns.len();
                let c = &mut conns[idx];
                c.out.extend_from_slice(&bytes);
                if keep {
                    out.request_bytes.push(bytes);
                }
                c.inflight.push_back(Pending {
                    due_ns,
                    late_ns: now.saturating_sub(due_ns),
                    kind,
                    rung,
                    id: next_id,
                });
                next_in_rung += 1;
                next_id += 1;
                out.sent[rung] += 1;
            }
            if next_in_rung >= r.count() {
                out.backlog[rung] = conns.iter().map(|c| c.inflight.len() as u64).sum();
                rung += 1;
                next_in_rung = 0;
            } else {
                break;
            }
        }
        // 2. Write what is queued.
        for c in &mut conns {
            while !c.out.is_empty() {
                match c.stream.write(&c.out) {
                    Ok(0) => return Err(io::Error::other("server closed the connection")),
                    Ok(n) => {
                        c.out.drain(..n);
                    }
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) => return Err(e),
                }
            }
        }
        // 3. Read and account every complete response.
        for c in &mut conns {
            loop {
                match c.stream.read(&mut buf) {
                    Ok(0) => return Err(io::Error::other("server closed the connection")),
                    Ok(n) => c.framer.feed(&buf[..n]),
                    Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                    Err(e) => return Err(e),
                }
            }
            let done_ns = now_ns(origin);
            while let Some(resp) = c
                .framer
                .next_response()
                .map_err(|e| io::Error::other(e.0))?
            {
                let p = c
                    .inflight
                    .pop_front()
                    .ok_or_else(|| io::Error::other("response without a request"))?;
                let refused = resp.status == 503 || resp.status == 504;
                let ok = resp.status == 200
                    && match p.kind {
                        Kind::Plan { bucket } => {
                            oracle.body(0, bucket).map(str::as_bytes) == Some(&resp.body[..])
                        }
                        Kind::Constrained { bucket, factor } => {
                            oracle.body(1 + factor, bucket).map(str::as_bytes)
                                == Some(&resp.body[..])
                        }
                        Kind::Telemetry { chip, epoch } => {
                            match std::str::from_utf8(&resp.body)
                                .ok()
                                .and_then(|t| serde_json::from_str::<TelemetryReply>(t).ok())
                            {
                                Some(reply) => {
                                    out.observed.push(Observed {
                                        chip,
                                        asked_epoch: epoch,
                                        reply,
                                    });
                                    true
                                }
                                None => false,
                            }
                        }
                    };
                if keep && p.kind.class() != 2 {
                    out.plan_bodies.push(resp.body.clone());
                }
                let latency_ns = done_ns.saturating_sub(p.due_ns);
                if keep {
                    // Due → last byte, split into the generator's own
                    // lateness and the wait on the server.
                    let due = origin_trace_ns + p.due_ns;
                    let sent = due + p.late_ns;
                    let done = origin_trace_ns + done_ns.max(p.due_ns + p.late_ns);
                    let root = tracer.record("client.request", due, done, None, p.id);
                    tracer.record("client.late", due, sent, root, p.id);
                    tracer.record("serve.response", sent, done, root, p.id);
                }
                out.samples.push(Sample {
                    rung: p.rung,
                    class: p.kind.class(),
                    latency_ns,
                    late_ns: p.late_ns,
                    done_ns,
                    ok,
                    refused,
                });
            }
        }
        // 4. Done, or wait for the next due time or a response.
        let unanswered: usize = conns.iter().map(|c| c.inflight.len()).sum();
        let now = now_ns(origin);
        if rung >= rungs.len() && unanswered == 0 {
            break;
        }
        if rung >= rungs.len() && now > end_ns + drain_ns {
            for c in &conns {
                for p in &c.inflight {
                    out.lost[p.rung] += 1;
                }
            }
            break;
        }
        let next_due = if rung < rungs.len() {
            rungs[rung].due_ns(next_in_rung)
        } else {
            now + 50_000_000
        };
        let wait_ns = next_due.saturating_sub(now).min(50_000_000);
        if wait_ns > 0 {
            pollfds.clear();
            for c in &conns {
                let events = if c.out.is_empty() {
                    POLLIN
                } else {
                    POLLIN | POLLOUT
                };
                pollfds.push(PollFd::new(c.stream.as_raw_fd(), events));
            }
            // A sleeping thread can wake milliseconds late on a busy
            // host, so at rates whose requests come less than SPIN_NS
            // apart the generator polls without sleeping for the last
            // SPIN_NS before each due time. Slower rates sleep through:
            // polling there would only take a core from the server.
            let spin = rungs.get(rung).is_some_and(|r| r.gap_ns() <= SPIN_NS);
            if spin && wait_ns <= SPIN_NS {
                sys::wait(&mut pollfds, Duration::ZERO)?;
            } else {
                let early = if spin { SPIN_NS } else { 0 };
                sys::wait(&mut pollfds, Duration::from_nanos(wait_ns - early))?;
            }
        }
    }
    out.client_cpu = sys::this_thread_cpu().since(cpu0);
    out.wall_s = origin.elapsed().as_secs_f64();
    Ok(out)
}

// ------------------------------------------------------------ workloads

/// One serve workload: its traffic, its rate ladder and its limit.
#[derive(Debug, Clone)]
pub struct Workload {
    /// Traffic mix.
    pub mix: Mix,
    /// Ladder rates, requests per second, ascending.
    pub rates: Vec<f64>,
    /// The rung whose latencies the run reports.
    pub reference: usize,
    /// Latency limit on the tail percentile, µs.
    pub limit_us: f64,
    /// Server spawns per run: all but the last start and drain at
    /// once, timing set-up; the last one carries the load.
    pub setup_repeats: usize,
}

/// `plan_hot`: table-hit plans only, on the production fleet size.
#[must_use]
pub fn plan_hot() -> Workload {
    Workload {
        mix: Mix {
            telemetry: 0.0,
            constrained: 0.0,
            chips: 64,
        },
        rates: vec![2_500.0, 5_000.0, 10_000.0, 20_000.0],
        reference: 2,
        limit_us: 5_000.0,
        setup_repeats: 11,
    }
}

/// `telemetry_mix`: half telemetry over a 2000-chip fleet whose epoch
/// walks a lifetime, a quarter constrained plans, a quarter table hits.
#[must_use]
pub fn telemetry_mix() -> Workload {
    Workload {
        mix: Mix {
            telemetry: 0.5,
            constrained: 0.25,
            chips: 2_000,
        },
        rates: vec![100.0, 200.0, 400.0],
        reference: 1,
        limit_us: 100_000.0,
        setup_repeats: 11,
    }
}

/// Per-rung outcome.
#[derive(Debug, Clone)]
pub struct RungReport {
    /// Offered rate, 1/s.
    pub rate: f64,
    /// Requests sent.
    pub sent: u64,
    /// Answered correctly per second of the rung.
    pub achieved_rate: f64,
    /// Latency, µs.
    pub latency: Summary,
    /// Windowed tail latency (see [`stats::windowed_tail`]), µs, and
    /// its percentile.
    pub tail: (f64, f64),
    /// Generator lateness, µs.
    pub late: Summary,
    /// Failed: refused, unanswered or wrong.
    pub failed: u64,
    /// Of `failed`, refused with 503/504.
    pub refused: u64,
    /// Of `failed`, answered wrongly.
    pub wrong: u64,
    /// Unanswered when the rung stopped sending.
    pub backlog: u64,
    /// The generator ran later than the limit: the rung proves nothing.
    pub void: bool,
    /// Met the limit with no failure and no growing backlog.
    pub pass: bool,
}

fn us(ns: u64) -> f64 {
    #[allow(clippy::cast_precision_loss)]
    {
        ns as f64 / 1e3
    }
}

/// Scores each rung of a driven ladder.
#[must_use]
pub fn score(w: &Workload, rungs: &[Rung], load: &LoadResult, conns: usize) -> Vec<RungReport> {
    rungs
        .iter()
        .enumerate()
        .map(|(i, r)| {
            let mine: Vec<&Sample> = load.samples.iter().filter(|s| s.rung == i).collect();
            let series: Vec<f64> = mine.iter().map(|s| us(s.latency_ns)).collect();
            let tail = stats::windowed_tail(&series);
            let latency = Summary::of(series);
            let late = Summary::of(mine.iter().map(|s| us(s.late_ns)).collect());
            let refused = mine.iter().filter(|s| s.refused).count() as u64;
            let wrong = mine.iter().filter(|s| !s.ok && !s.refused).count() as u64;
            let ok = mine.iter().filter(|s| s.ok).count() as u64;
            let failed = refused + wrong + load.lost[i];
            // Answers per second from the rung's first due time to its
            // last answer: a backlog the rung leaves behind lowers it.
            let span_ns = mine
                .iter()
                .map(|s| s.done_ns)
                .max()
                .map_or(r.len_ns, |d| d.saturating_sub(r.start_ns).max(1));
            #[allow(clippy::cast_precision_loss)]
            let achieved_rate = ok as f64 / (span_ns as f64 / 1e9);
            #[allow(
                clippy::cast_precision_loss,
                clippy::cast_possible_truncation,
                clippy::cast_sign_loss
            )]
            let backlog_allowed = (r.rate * w.limit_us / 1e6).ceil() as u64 + conns as u64;
            let void = late.tail > w.limit_us;
            let pass = !void
                && failed == 0
                && latency.n > 0
                && tail.0 <= w.limit_us
                && load.backlog[i] <= backlog_allowed;
            RungReport {
                rate: r.rate,
                sent: load.sent[i],
                achieved_rate,
                latency,
                tail,
                late,
                failed,
                refused,
                wrong,
                backlog: load.backlog[i],
                void,
                pass,
            }
        })
        .collect()
}

/// Replays every telemetry answer against an in-process replica fleet
/// with the server's configuration, stepped to the epoch each answer
/// reports. Returns one message per mismatch.
#[must_use]
pub fn check_telemetry(chips: u32, seed: u64, observed: &[Observed]) -> Vec<String> {
    let mut order: Vec<&Observed> = observed.iter().collect();
    order.sort_by_key(|o| o.reply.epoch);
    let mut problems = Vec::new();
    if order.is_empty() {
        return problems;
    }
    let mut sim = match FleetSim::new(FleetConfig::new(chips, seed)) {
        Ok(sim) => sim,
        Err(e) => return vec![format!("replica fleet: {e}")],
    };
    for o in order {
        while sim.epoch() < o.reply.epoch {
            if let Err(e) = sim.step() {
                return vec![format!("replica step: {e}")];
            }
        }
        let Some(chip) = sim.chip(o.chip as usize) else {
            problems.push(format!("chip {} not in the replica", o.chip));
            continue;
        };
        let mode = match chip.mode {
            ChipMode::Compressed => "compressed",
            ChipMode::Guardband => "guardband",
        };
        if o.reply.chip != o.chip
            || o.reply.epoch < o.asked_epoch
            || o.reply.bucket != chip.bucket
            || o.reply.mode != mode
        {
            problems.push(format!(
                "telemetry chip {} epoch {}: server said bucket {} {}, replica bucket {} {mode}",
                o.chip, o.reply.epoch, o.reply.bucket, o.reply.mode, chip.bucket
            ));
        }
    }
    problems
}

/// Everything a serve run measured.
pub struct ServeRun {
    /// Spawn-to-listening per spawn, s.
    pub setups: Vec<f64>,
    /// Rung reports.
    pub rungs: Vec<RungReport>,
    /// The raw load.
    pub load: LoadResult,
    /// Server `VmHWM` before the drain, MiB.
    pub rss_mb: f64,
    /// Event-loop threads' CPU over the ladder.
    pub loop_cpu: Cpu,
    /// Worker threads' CPU over the ladder.
    pub worker_cpu: Cpu,
    /// `/metrics` after the ladder.
    pub metrics: String,
    /// Correctness problems found.
    pub problems: Vec<String>,
    /// Per-class latency at the reference rung, µs.
    pub reference_by_class: Vec<Summary>,
    /// CPU time of one start-and-drain server process, per spawn but
    /// the loaded one, s.
    pub setup_cpu: Vec<f64>,
    /// Server CPU time (all threads) past set-up per answered request,
    /// warm-up included, µs.
    pub cpu_per_req_us: f64,
}

/// Runs a serve workload end to end: spawns, drives the ladder,
/// scrapes, drains, and checks every answer.
///
/// # Errors
///
/// Returns an I/O error when the server cannot be started, driven or
/// drained.
pub fn run(
    w: &Workload,
    spec: &ServerSpec,
    seconds: u64,
    seed: u64,
    tracer: &mut Tracer,
) -> io::Result<ServeRun> {
    let oracle = Oracle::new(spec.chips, spec.seed);
    let conns = spec.workers.max(1);
    let mut setups = Vec::with_capacity(w.setup_repeats);
    let mut setup_cpu = Vec::with_capacity(w.setup_repeats);
    let mut server = None;
    for k in 0..w.setup_repeats.max(1) {
        let s = spec.spawn()?;
        setups.push(s.setup_s);
        if k + 1 < w.setup_repeats {
            setup_cpu.push(s.shutdown()?);
        } else {
            server = Some(s);
        }
    }
    let server = server.expect("at least one spawn");
    let gap_ns = 100_000_000u64;
    #[allow(clippy::cast_possible_truncation)]
    let rung_ns = (seconds * 1_000_000_000 / w.rates.len() as u64).saturating_sub(gap_ns);
    let rungs = ladder(&w.rates, rung_ns, gap_ns);
    let pid = server.pid();
    // A short unscored warm-up at the reference rate: the first
    // requests of a fresh process and connection run cold.
    let warm = ladder(&[w.rates[w.reference]], WARMUP_NS, 0);
    let plan_only = Mix {
        telemetry: 0.0,
        constrained: 0.0,
        ..w.mix
    };
    let warmup = drive(
        &server.addr,
        conns,
        &warm,
        &plan_only,
        &oracle,
        seed ^ 1,
        &mut Tracer::new(false),
    )?;
    let loop0 = sys::threads_cpu(pid, "serve-loop");
    let worker0 = sys::threads_cpu(pid, "serve-worker");
    let load = drive(&server.addr, conns, &rungs, &w.mix, &oracle, seed, tracer)?;
    let loop_cpu = sys::threads_cpu(pid, "serve-loop").since(loop0);
    let worker_cpu = sys::threads_cpu(pid, "serve-worker").since(worker0);
    let metrics = server.metrics()?;
    let rss_mb = sys::peak_rss_mb(&pid.to_string());
    let life_cpu_s = server.shutdown()?;
    let mut problems = check_telemetry(spec.chips, spec.seed, &load.observed);
    let warm_wrong = warmup.samples.iter().filter(|s| !s.ok).count();
    if warm_wrong > 0 {
        problems.push(format!(
            "{warm_wrong} warm-up answers differ from the oracle"
        ));
    }
    let reports = score(w, &rungs, &load, conns);
    let reference_by_class = (0..CLASS_NAMES.len())
        .map(|class| {
            Summary::of(
                load.samples
                    .iter()
                    .filter(|s| s.rung == w.reference && s.class == class)
                    .map(|s| us(s.latency_ns))
                    .collect(),
            )
        })
        .collect();
    // The loaded server's CPU over its life, less a set-up (the median
    // start-and-drain server's), over every request it answered.
    let answered = warmup.samples.len() + load.samples.len();
    #[allow(clippy::cast_precision_loss)]
    let cpu_per_req_us =
        (life_cpu_s - stats::median(&setup_cpu)).max(0.0) * 1e6 / answered.max(1) as f64;
    Ok(ServeRun {
        setup_cpu,
        cpu_per_req_us,
        setups,
        rungs: reports,
        load,
        rss_mb,
        loop_cpu,
        worker_cpu,
        metrics,
        problems,
        reference_by_class,
    })
}

/// The journal path a run's server writes.
#[must_use]
pub fn journal_path(out_dir: &Path, workload: &str, seed: u64) -> PathBuf {
    out_dir.join(format!("{workload}-{seed}-journal.jsonl"))
}
