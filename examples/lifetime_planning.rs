//! Lifetime planning: chart the whole 10-year service life of an NPU —
//! when to re-quantize, with what compression, and what it costs.
//!
//! This is the deployment view of the paper's technique: a maintenance
//! schedule mapping calendar years to `(α, β)` re-quantization events,
//! derived from the NBTI kinetics and the timing-feasibility scans,
//! with the quantization method Algorithm 1 selects for AlexNet
//! at each level.
//!
//! ```text
//! cargo run --release --example lifetime_planning
//! ```

use agequant::aging::VthShift;
use agequant::core::{AgingAwareQuantizer, FlowConfig};
use agequant::nn::NetArch;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let flow = AgingAwareQuantizer::new(FlowConfig::edge_tpu_like())?;
    let scenario = flow.config().scenario;
    let nbti = scenario.nbti();

    println!(
        "NPU lifetime plan — {:.0}-year service life",
        scenario.lifetime_years()
    );
    println!(
        "fresh clock {:.1} ps; a guardbanded design would run {:.1}% slower from day one\n",
        flow.fresh_critical_path_ps(),
        100.0 * scenario.required_guardband()
    );
    println!(
        "{:>8} | {:>9} | {:>8} | {:>8} | {:>10} | {:>10} | {:>11}",
        "ΔVth", "reached", "(α, β)", "padding", "act bits", "wgt bits", "method"
    );
    println!("{:-<82}", "");

    let mut previous = None;
    for shift in scenario.sweep() {
        let plan = flow.compression_for(shift)?;
        let years = nbti.years_to_reach(shift);
        let when = if shift.is_fresh() {
            "day 0".to_string()
        } else {
            format!("{years:.2} y")
        };
        let bits = plan.bit_widths();
        let outcome = flow.quantize_arch(NetArch::AlexNet, shift)?;
        let method = format!("{} {:.1}%", outcome.method.tag(), outcome.accuracy_loss_pct);
        let marker = if previous != Some(plan.compression) {
            " ← re-quantize"
        } else {
            ""
        };
        println!(
            "{:>8} | {:>9} | {:>8} | {:>8} | {:>10} | {:>10} | {:>11}{marker}",
            shift.to_string(),
            when,
            plan.compression.to_string(),
            plan.padding.to_string(),
            bits.activations,
            bits.weights,
            method
        );
        previous = Some(plan.compression);
    }

    println!();
    println!("The compressed model keeps the fresh clock for the entire lifetime;");
    println!("each re-quantization event only reloads weights — no hardware change.");

    // What if we kept a small (9%) guardband instead of none?
    let eol = VthShift::from_millivolts(50.0);
    let partial = flow.compression_for_constraint(eol, flow.fresh_critical_path_ps() * 1.09)?;
    println!(
        "\nWith a partial 9% guardband the end-of-life compression relaxes to {} ({} padding),",
        partial.compression, partial.padding
    );
    println!("trading a little day-zero speed for higher late-life precision (Section 7).");

    // The whole schedule above ran on the memoized evaluation engine:
    // each aging level characterized its library and scanned the grid
    // exactly once, no matter how many times the plan was consulted,
    // and the network was evaluated once per distinct bit widths.
    let stats = flow.engine().stats();
    let methods = flow.method_memo_stats();
    println!(
        "\nevaluation engine: {} characterizations served {} cached lookups, \
         {} grid scans served {} cached plans, \
         {} method selections served {} cached selections",
        stats.library_misses,
        stats.library_hits,
        stats.plan_misses,
        stats.plan_hits,
        methods.misses,
        methods.hits
    );
    Ok(())
}
