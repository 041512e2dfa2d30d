//! Model-checks [`par_map`], the workspace's fan-out primitive.
//!
//! Inside an exploration `available_parallelism` reports 2, so every
//! call with two or more items spawns two modeled workers that race on
//! the index counter and the result slots. Over every explored
//! schedule the output must be in input order, each item must run
//! exactly once, and a `par_map` nested inside an item must finish.

#![cfg(feature = "model")]

use agequant_check::sync::atomic::{AtomicUsize, Ordering};
use agequant_check::{explore, par_map, Config};

fn cfg() -> Config {
    Config {
        max_schedules: 4_096,
        max_preemptions: 2,
        max_steps: 100_000,
        ..Config::default()
    }
}

/// Three items over two workers: results land in input order and the
/// per-item run counters each read exactly one.
#[test]
fn outputs_keep_input_order_and_each_item_runs_once() {
    let report = explore(cfg(), || {
        let runs: Vec<AtomicUsize> = (0..3).map(|_| AtomicUsize::new(0)).collect();
        let items = [10u32, 20, 30];
        let out = par_map(&items, |&x| {
            let i = (x / 10 - 1) as usize;
            runs[i].fetch_add(1, Ordering::SeqCst);
            x + 1
        });
        assert_eq!(out, [11, 21, 31], "results left input order");
        for (i, count) in runs.iter().enumerate() {
            assert_eq!(
                count.load(Ordering::SeqCst),
                1,
                "item {i} ran a wrong number of times"
            );
        }
    });
    assert!(
        report.schedules >= 10,
        "expected the workers' claims to interleave, got {} schedules",
        report.schedules
    );
}

/// Each outer item runs its own two-item `par_map`: the inner scopes
/// finish under every schedule and the nested results keep their order.
#[test]
fn nested_par_map_finishes() {
    let report = explore(cfg(), || {
        let rows = [0u32, 1];
        let grid = par_map(&rows, |&r| par_map(&[0u32, 1], |&c| r * 2 + c));
        assert_eq!(grid, [vec![0, 1], vec![2, 3]]);
    });
    assert!(report.schedules >= 2, "got {} schedules", report.schedules);
}
