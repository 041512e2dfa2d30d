//! The agequant benchmark.
//!
//! ```text
//! agequant-perfbench --workload NAME --seed N --seconds S --trace 0|1
//!                    --serve-bin PATH [--out-dir DIR]
//! agequant-perfbench --write-algo1-reference PATH
//! ```
//!
//! Runs one workload (`plan_hot`, `telemetry_mix`, `fleet_lifetime`,
//! `algo1_zoo`), checks every output it produced, prints a readable
//! report on stderr, writes a record with its provenance under
//! `--out-dir`, and prints one JSON line on stdout: the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`).
//! `perfbench/METRICS.md` defines every metric.

mod algo1;
mod calib;
mod fleet;
mod layers;
mod report;
mod schedule;
mod serve;
mod stats;
mod sys;
mod trace;
mod wire;

use std::path::PathBuf;
use std::process::ExitCode;

use report::{Ctx, Outcome};

fn usage() -> &'static str {
    "usage: agequant-perfbench --workload plan_hot|telemetry_mix|fleet_lifetime|algo1_zoo \
     --seed N --seconds S --trace 0|1 --serve-bin PATH [--out-dir DIR]"
}

fn parse_args(args: &[String]) -> Result<Ctx, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut serve_bin = None;
    let mut out_dir = PathBuf::from("perfbench/out");
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        let bad = || format!("{flag}: {value:?} does not parse\n{}", usage());
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            "--serve-bin" => serve_bin = Some(PathBuf::from(value)),
            "--out-dir" => out_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}\n{}", usage())),
        }
    }
    let missing = |what: &str| format!("missing {what}\n{}", usage());
    let workload = workload.ok_or_else(|| missing("--workload"))?;
    if !report::WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload:?}\n{}", usage()));
    }
    let seconds = seconds.ok_or_else(|| missing("--seconds"))?;
    if seconds == 0 {
        return Err("--seconds must be at least 1".to_string());
    }
    Ok(Ctx {
        workload,
        seed: seed.ok_or_else(|| missing("--seed"))?,
        seconds,
        trace: trace.ok_or_else(|| missing("--trace"))?,
        serve_bin: serve_bin.ok_or_else(|| missing("--serve-bin"))?,
        out_dir,
        nproc: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
    })
}

fn run(ctx: &Ctx) -> Result<Outcome, String> {
    std::fs::create_dir_all(&ctx.out_dir).map_err(|e| format!("{}: {e}", ctx.out_dir.display()))?;
    let mut outcome = match ctx.workload.as_str() {
        "plan_hot" => report::serve_workload(ctx, &serve::plan_hot()),
        "telemetry_mix" => report::serve_workload(ctx, &serve::telemetry_mix()),
        "fleet_lifetime" => fleet::workload(ctx),
        "algo1_zoo" => algo1::workload(ctx),
        other => Err(format!("unknown workload {other:?}")),
    }?;
    if ctx.trace {
        layers::fill_missing(ctx, &mut outcome)?;
    }
    Ok(outcome)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if let [flag, path] = &args[..] {
        if flag == "--write-algo1-reference" {
            return match algo1::write_reference(std::path::Path::new(path)) {
                Ok(()) => ExitCode::SUCCESS,
                Err(e) => {
                    eprintln!("{e}");
                    ExitCode::FAILURE
                }
            };
        }
    }
    let ctx = match parse_args(&args) {
        Ok(ctx) => ctx,
        Err(message) => {
            eprintln!("{message}");
            return ExitCode::from(2);
        }
    };
    match run(&ctx) {
        Ok(outcome) => {
            outcome.print_report(&ctx);
            if let Err(e) = outcome.write_record(&ctx) {
                eprintln!("record: {e}");
                return ExitCode::FAILURE;
            }
            println!("{}", outcome.result_line(&ctx));
            ExitCode::SUCCESS
        }
        Err(message) => {
            eprintln!("{}: {message}", ctx.workload);
            ExitCode::FAILURE
        }
    }
}
