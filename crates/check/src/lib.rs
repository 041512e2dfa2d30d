//! Deterministic schedule-exploration concurrency checking for the
//! agequant workspace — the role loom/shuttle play in production Rust
//! stacks, vendored std-only like the rest of our toolchain.
//!
//! # The facade
//!
//! Concurrent crates in this workspace import their synchronization
//! primitives from [`sync`] and [`thread`] instead of `std::sync` /
//! `std::thread` (the `SRC001` lint in `agequant-lint` enforces this).
//! In a normal build both modules are 1:1 re-exports of `std`, so the
//! facade compiles away completely — release binaries are bit-identical
//! and the warm paths carry zero overhead.
//!
//! Under the `model` cargo feature (or `--cfg agequant_model`), the
//! same names resolve to instrumented implementations driven by a
//! deterministic scheduler: every lock acquisition, atomic operation,
//! and `Condvar` wait becomes a yield point, and `explore` (an item
//! that only exists in model builds) enumerates
//! bounded thread interleavings depth-first, replaying any failing
//! schedule as a printable trace.
//!
//! # What the checker detects
//!
//! - **Invariant violations**: any panic (e.g. a failed `assert!`)
//!   inside the modeled closure, on any explored interleaving.
//! - **Deadlocks**: no runnable thread while work remains, diagnosed
//!   via the waits-for graph (which thread waits on which lock held by
//!   whom).
//! - **Lost `Condvar` wakeups**: a deadlock in which the stuck threads
//!   are parked on a condition variable no remaining thread can
//!   notify.
//!
//! # Model fidelity and limits
//!
//! The model is sequentially consistent: atomic orderings are accepted
//! but weak-memory reorderings are not explored. `Arc` and `mpsc` pass
//! through un-modeled (channel waits are not yield points — model
//! tests should synchronize through the modeled primitives). Condvar
//! `notify_one` wakes the longest-waiting modeled waiter (FIFO), and a
//! timed wait may spuriously time out a bounded number of times per
//! thread per execution. Threads *not* spawned through the facade
//! (e.g. a plain `std::thread` spawned by a test harness) fall back to
//! the real `std` primitives inside the same types, so mutual
//! exclusion remains sound even for hybrid workloads — they just don't
//! participate in schedule exploration.
//!
//! # Data parallelism
//!
//! [`par_map`] is the workspace's one fan-out primitive. It is built
//! on the facade's own `thread::scope`, `Mutex` and `AtomicUsize`, so
//! every parallel loop that uses it is explored by the checker too.

#[cfg(any(feature = "model", agequant_model))]
mod model;

#[cfg(any(feature = "model", agequant_model))]
pub use model::{explore, explore_ok, Config, Report, Violation, ViolationKind};

/// Synchronization primitives: `std::sync` re-exported 1:1 in normal
/// builds, instrumented model-checker versions under `--features
/// model`.
#[cfg(not(any(feature = "model", agequant_model)))]
pub mod sync {
    pub use std::sync::*;
}

/// Threading primitives: `std::thread` re-exported 1:1 in normal
/// builds, instrumented model-checker versions under `--features
/// model`.
#[cfg(not(any(feature = "model", agequant_model)))]
pub mod thread {
    pub use std::thread::*;
}

/// Synchronization primitives, instrumented for schedule exploration.
#[cfg(any(feature = "model", agequant_model))]
pub mod sync {
    pub use crate::model::sync::*;
}

/// Threading primitives, instrumented for schedule exploration.
#[cfg(any(feature = "model", agequant_model))]
pub mod thread {
    pub use crate::model::thread::*;
}

/// Maps `f` over `items` in parallel and returns the results in input
/// order.
///
/// Runs `min(available_parallelism, items.len())` scoped workers; with
/// one worker (one core, or at most one item) every item runs inline
/// on the caller's thread. Workers claim indices from a shared atomic
/// counter, which balances unevenly priced items, and store each
/// result in the caller-allocated slot for its index, so workers
/// allocate nothing for results and the output never depends on the
/// schedule. A panic in `f` propagates to the caller once every worker
/// has stopped.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let workers = thread::available_parallelism()
        .map_or(1, std::num::NonZeroUsize::get)
        .min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    // The counter only hands out indices; results are published through
    // the slot mutexes and the scope's join, so `Relaxed` suffices.
    let next = sync::atomic::AtomicUsize::new(0);
    let slots: Vec<sync::Mutex<Option<R>>> = items.iter().map(|_| sync::Mutex::new(None)).collect();
    thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let index = next.fetch_add(1, sync::atomic::Ordering::Relaxed);
                let Some(item) = items.get(index) else {
                    break;
                };
                let result = f(item);
                *slots[index]
                    .lock()
                    .expect("slot locks are never held across a panic") = Some(result);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("slot locks are never held across a panic")
                .expect("every index was claimed by a worker")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::par_map;

    #[test]
    fn empty_slice_maps_to_nothing() {
        let out: Vec<u8> = par_map(&[] as &[u8], |_| unreachable!("no items"));
        assert!(out.is_empty());
    }

    #[test]
    fn one_item_runs_on_the_callers_thread() {
        let caller = std::thread::current().id();
        assert_eq!(
            par_map(&[7], |&x| (x, std::thread::current().id())),
            [(7, caller)]
        );
    }

    #[test]
    fn a_thousand_items_keep_their_order() {
        let items: Vec<u64> = (0..1000).collect();
        let doubled = par_map(&items, |&x| x * 2);
        assert_eq!(doubled, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn a_panic_in_f_propagates() {
        let items: Vec<u32> = (0..64).collect();
        let result = std::panic::catch_unwind(|| {
            par_map(&items, |&x| {
                assert!(x != 37, "item 37 fails");
                x
            })
        });
        assert!(result.is_err());
    }
}
