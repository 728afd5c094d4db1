//! Minimal data parallelism over scoped threads.
//!
//! `Topology` precomputation fans out per-terminal path enumeration and
//! per-guess reach computation; both are embarrassingly parallel. The usual
//! crate for this is rayon, which is unavailable in this offline build, so
//! this module provides the one primitive the workspace needs — an indexed
//! parallel map with work stealing via a shared atomic cursor — on plain
//! `std::thread::scope`. Results come back in input order.
//!
//! Calls do not nest thread pools: a `par_map` issued from inside another
//! `par_map`'s worker (a sweep cell building its `Topology`) runs inline on
//! that worker, since the outer fan-out already occupies every core.
//! [`fan_out`] reports the same to fan-outs that manage their own threads
//! (the simulator's batched step).

use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, OnceLock};

thread_local! {
    /// Set on the threads [`par_map`] spawns, for the worker's lifetime.
    static IN_WORKER: Cell<bool> = const { Cell::new(false) };
}

/// The core count, read once per process: `available_parallelism` reads
/// cgroup files on every call.
fn cores() -> usize {
    static CORES: OnceLock<usize> = OnceLock::new();
    *CORES.get_or_init(|| std::thread::available_parallelism().map_or(1, |t| t.get()))
}

/// How many threads a fan-out from the calling thread may use: the core
/// count, or 1 on a [`par_map`] worker, whose caller's fan-out already
/// occupies every core.
#[must_use]
pub fn fan_out() -> usize {
    if IN_WORKER.with(Cell::get) {
        1
    } else {
        cores()
    }
}

/// Applies `f` to every element of `items` across the available cores and
/// returns the results in input order. `f` receives `(index, &item)`.
///
/// Falls back to a sequential loop on the calling thread for tiny inputs,
/// single-core hosts and calls made from inside another `par_map`'s
/// worker; the closure therefore must not rely on running on a particular
/// thread.
///
/// # Panics
///
/// Propagates a panic from any invocation of `f` (the scope joins all
/// workers first).
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    let n = items.len();
    let workers = fan_out().min(n);
    if workers <= 1 {
        return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
    }

    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                IN_WORKER.with(|w| w.set(true));
                loop {
                    let i = cursor.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let result = f(i, &items[i]);
                    *slots[i].lock().expect("result slot poisoned") = Some(result);
                }
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner().expect("result slot poisoned").expect("every index was processed")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_order_and_covers_all() {
        let items: Vec<u64> = (0..1000).collect();
        let out = par_map(&items, |i, &x| {
            assert_eq!(i as u64, x);
            x * 2
        });
        assert_eq!(out, (0..1000).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn empty_and_singleton() {
        let out: Vec<u32> = par_map(&[] as &[u32], |_, &x| x);
        assert!(out.is_empty());
        assert_eq!(par_map(&[5u32], |_, &x| x + 1), vec![6]);
    }

    #[test]
    fn nested_calls_run_inline_on_the_worker_in_input_order() {
        let outer: Vec<u64> = (0..8).collect();
        let inner: Vec<u64> = (0..100).collect();
        let out = par_map(&outer, |_, &x| {
            let caller = std::thread::current().id();
            assert_eq!(fan_out(), 1, "a worker fans out no further");
            let nested = par_map(&inner, |i, &y| {
                assert_eq!(i as u64, y);
                (std::thread::current().id(), x * 1000 + y)
            });
            assert!(nested.iter().all(|&(id, _)| id == caller), "nested call left its caller");
            nested.into_iter().map(|(_, v)| v).collect::<Vec<_>>()
        });
        for (x, row) in out.iter().enumerate() {
            assert_eq!(*row, inner.iter().map(|y| x as u64 * 1000 + y).collect::<Vec<_>>());
        }
    }

    #[test]
    fn top_level_calls_still_fan_out() {
        // The caller is not a worker, so the flag must not leak to it from
        // an earlier call.
        par_map(&[1u8, 2], |_, _| ());
        assert!(!IN_WORKER.with(Cell::get));
        assert_eq!(fan_out(), cores());
        if cores() > 1 {
            let caller = std::thread::current().id();
            let ids = par_map(&[0u8; 4], |_, _| std::thread::current().id());
            assert!(ids.iter().all(|&id| id != caller));
        }
    }

    #[test]
    fn results_collect_errors() {
        let items = [1usize, 2, 3, 4];
        let out: Result<Vec<usize>, &str> =
            par_map(&items, |_, &x| if x == 3 { Err("three") } else { Ok(x) })
                .into_iter()
                .collect();
        assert_eq!(out, Err("three"));
    }
}
