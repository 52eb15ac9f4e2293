//! A minimal deterministic work-queue thread pool (no dependencies).
//!
//! [`map_ordered_isolated`] fans a function over a slice from a shared
//! atomic work queue and returns one [`Isolated`] outcome per item **in
//! input order**, so callers observe exactly what a sequential
//! `iter().map()` would have produced no matter how the OS schedules the
//! workers. Each worker owns a private state value (built by `init`) that
//! lives for the whole run — the synthesizer uses it to hold per-database
//! execution caches. [`map_ordered`] is the same pool for work that is not
//! expected to panic: it unwraps the outcomes and re-raises the first
//! failed item's panic on the caller's thread.
//!
//! Design notes:
//! * one worker loop (the private `drain`) serves both the inline
//!   one-thread path and every pooled worker;
//! * scheduling is a single `AtomicUsize` fetch-add — workers race for the
//!   next index, which balances uneven per-item cost better than static
//!   chunking (synthesis cost varies wildly with SQL complexity);
//! * results flow back over an `mpsc` channel tagged with their index and
//!   are written into a pre-sized slot vector, so the merge is O(n) and
//!   allocation-free;
//! * scoped threads let workers borrow the input slice and the closures
//!   directly — no `Arc`, no `'static` bounds.

use std::cell::Cell;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

/// Record the shape of one fan-out when tracing is armed.
fn trace_job(items: usize, threads: usize) {
    nv_trace::count("par.jobs", 1);
    nv_trace::count("par.tasks", items as u64);
    nv_trace::gauge_max("par.threads", threads as u64);
}

/// Record how deep the shared queue still is at the moment index `i` is
/// claimed. `gauge_max` keeps the peak, which for a fetch-add queue is the
/// depth seen by the very first dequeue — but recording every claim keeps
/// the probe honest if the scheduling strategy ever changes.
fn trace_queue_depth(items: usize, i: usize) {
    nv_trace::gauge_max("par.queue.peak_depth", items.saturating_sub(i) as u64);
}

/// Report one item's time both pool-wide (`par/task`) and per worker
/// (`par/worker<w>/task`) so skew between workers is visible.
fn trace_task(worker: usize, elapsed_us: u64) {
    if nv_trace::enabled() {
        let ns = elapsed_us.saturating_mul(1_000);
        nv_trace::record_span("par/task", ns);
        nv_trace::record_span(&format!("par/worker{worker}/task"), ns);
    }
}

/// Count a caught panic and (if the worker's private state was rebuilt or
/// the worker retired) the replacement event that followed it.
fn trace_panic_outcome(rebuilt: bool) {
    nv_trace::count("par.panics", 1);
    if rebuilt {
        nv_trace::count("par.worker_replacements", 1);
    } else {
        nv_trace::count("par.worker_retirements", 1);
    }
}

/// Every core this process may run on (1 when the count is unavailable) —
/// the worker count callers use when they have no thread setting of their
/// own, or when the setting is 0.
pub fn available_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Apply `work` to every item of `items` using up to `threads` workers,
/// returning results in input order.
///
/// `init` runs once per worker to build its private mutable state; `work`
/// receives that state plus the item's index. With `threads <= 1` (or one
/// item) everything runs inline on the caller's thread.
///
/// This is [`map_ordered_isolated`] with the outcomes unwrapped. If an item
/// panics, its worker rebuilds its state and the remaining items **still
/// run**; once the pool is done, the first failed item's panic is re-raised
/// on the caller's thread, naming the item's index and its message.
pub fn map_ordered<T, R, S, I, F>(items: &[T], threads: usize, init: I, work: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    map_ordered_isolated(items, threads, init, work)
        .into_iter()
        .enumerate()
        .map(|(i, out)| {
            out.result.unwrap_or_else(|m| panic!("map_ordered item {i} panicked: {m}"))
        })
        .collect()
}

/// Reduce `items` with a **fixed-order pairwise tree**: round after round,
/// neighbors `(0,1), (2,3), …` merge (an odd tail carries over) until one
/// value remains. The combination tree depends only on `items.len()`, never
/// on thread count or scheduling — which is what makes parallel gradient
/// accumulation bit-identical across 1/2/4 workers: [`map_ordered`] returns
/// per-item results in input order, and this folds them along one fixed
/// tree regardless of which worker produced what.
///
/// Returns `None` for an empty input. `merge(a, b)` must treat `a` as the
/// left (lower-index) operand — float addition is commutative per element,
/// but keeping the convention makes the tree order self-documenting.
pub fn tree_reduce<T>(mut items: Vec<T>, mut merge: impl FnMut(T, T) -> T) -> Option<T> {
    while items.len() > 1 {
        let mut next = Vec::with_capacity(items.len().div_ceil(2));
        let mut it = items.into_iter();
        while let Some(a) = it.next() {
            match it.next() {
                Some(b) => next.push(merge(a, b)),
                None => next.push(a),
            }
        }
        items = next;
    }
    items.pop()
}

/// The outcome of one item processed by [`map_ordered_isolated`]: the work
/// closure's return value, or the message of the panic it was killed by,
/// plus the wall-clock time the item took either way.
#[derive(Debug, Clone, PartialEq)]
pub struct Isolated<R> {
    /// `Ok` is the work's result; `Err` carries the caught panic's payload
    /// (or a placeholder when the worker died before reaching the item).
    pub result: Result<R, String>,
    /// Wall-clock time spent on this item, in microseconds.
    pub elapsed_us: u64,
}

thread_local! {
    /// Set while a worker runs one item inside `catch_unwind`, so the
    /// chained panic hook stays silent for panics we capture and report.
    static CAPTURING: Cell<bool> = const { Cell::new(false) };
}

/// Install (once, process-wide) a panic hook that suppresses the default
/// stderr backtrace for panics occurring inside [`map_ordered_isolated`]
/// items — they are caught and surfaced in the return value, so the noise
/// would be duplicate and, under fault injection, overwhelming. Panics on
/// any other thread still reach the previously installed hook.
fn install_capturing_hook() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if !CAPTURING.with(|c| c.get()) {
                prev(info);
            }
        }));
    });
}

/// Render a caught panic payload as a message string.
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "panic with non-string payload".to_string()
    }
}

/// Run `work` on one item with panic isolation: the panic (if any) is
/// caught and the item reports `Err(message)` instead of killing the run.
fn run_isolated<T, R, S>(
    state: &mut S,
    i: usize,
    item: &T,
    work: &(impl Fn(&mut S, usize, &T) -> R + Sync),
) -> Isolated<R> {
    let start = Instant::now();
    // Restore rather than clear: the item may itself run a nested pool.
    let outer = CAPTURING.with(|c| c.replace(true));
    let outcome = catch_unwind(AssertUnwindSafe(|| work(state, i, item)));
    CAPTURING.with(|c| c.set(outer));
    Isolated {
        result: outcome.map_err(panic_message),
        elapsed_us: start.elapsed().as_micros() as u64,
    }
}

/// The one worker loop: build the private state, then claim indices from
/// `next` until the queue is empty, handing each outcome to `emit`. After a
/// panic the state — which the panic may have left half-updated — is
/// rebuilt; if `init` panics (at startup or on a rebuild) the worker
/// retires and the shared queue lets its siblings claim the rest.
fn drain<T, R, S>(
    items: &[T],
    next: &AtomicUsize,
    worker: usize,
    init: &(impl Fn() -> S + Sync),
    work: &(impl Fn(&mut S, usize, &T) -> R + Sync),
    mut emit: impl FnMut(usize, Isolated<R>),
) {
    let Ok(mut state) = catch_unwind(AssertUnwindSafe(init)) else {
        return;
    };
    loop {
        let i = next.fetch_add(1, Ordering::Relaxed);
        if i >= items.len() {
            return;
        }
        trace_queue_depth(items.len(), i);
        let out = run_isolated(&mut state, i, &items[i], work);
        trace_task(worker, out.elapsed_us);
        let poisoned = out.result.is_err();
        emit(i, out);
        if poisoned {
            match catch_unwind(AssertUnwindSafe(init)) {
                Ok(s) => {
                    state = s;
                    trace_panic_outcome(true);
                }
                Err(_) => {
                    trace_panic_outcome(false);
                    return;
                }
            }
        }
    }
}

/// The pool itself ([`map_ordered`] unwraps its outcomes), with per-item
/// panic isolation: a panicking item becomes `Err(panic message)` in its
/// slot instead of tearing the run down, and every other item still
/// produces its normal result.
///
/// Fault containment, in order of severity:
/// * a panic inside `work` is caught per item (`catch_unwind`); the worker
///   survives, but its private state — which the panic may have left
///   half-updated — is discarded and rebuilt with `init()` before the next
///   item;
/// * if that re-`init` itself panics, the worker exits; the shared atomic
///   queue means its remaining items are simply claimed by sibling workers
///   (nothing is pre-assigned, so nothing is lost);
/// * if *every* worker dies this way (or `init` fails at startup), unclaimed
///   items report `Err` with a placeholder message rather than hanging.
///
/// Caught panics are reported in the return value, so the default panic
/// hook's stderr print is suppressed for them (see the private
/// `install_capturing_hook`); panics anywhere else in the process print
/// as usual. Aborts — stack overflow, `panic = "abort"` — cannot be caught
/// by design; callers must bound recursion themselves (the SQL parser's
/// depth limit exists for exactly this reason).
pub fn map_ordered_isolated<T, R, S, I, F>(
    items: &[T],
    threads: usize,
    init: I,
    work: F,
) -> Vec<Isolated<R>>
where
    T: Sync,
    R: Send,
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize, &T) -> R + Sync,
{
    install_capturing_hook();
    let threads = threads.max(1).min(items.len().max(1));
    trace_job(items.len(), threads);
    let next = AtomicUsize::new(0);
    let mut slots: Vec<Option<Isolated<R>>> = Vec::new();
    slots.resize_with(items.len(), || None);

    if threads == 1 {
        drain(items, &next, 0, &init, &work, |i, out| slots[i] = Some(out));
    } else {
        let (tx, rx) = mpsc::channel::<(usize, Isolated<R>)>();
        std::thread::scope(|scope| {
            for w in 0..threads {
                let tx = tx.clone();
                let (next, init, work) = (&next, &init, &work);
                scope.spawn(move || {
                    // Flushing inside the closure (not from the TLS
                    // destructor, which is not ordered before the scoped
                    // join) makes the worker's trace data visible to a
                    // report taken right after this pool returns — on every
                    // exit path, retirement included.
                    let _flush = nv_trace::flush_on_exit();
                    drain(items, next, w, init, work, |i, out| {
                        // `rx` outlives every worker, so a send cannot fail.
                        let _ = tx.send((i, out));
                    });
                });
            }
            // The workers hold the remaining senders; dropping ours lets
            // `rx` close once they all finish.
            drop(tx);
            for (i, out) in rx {
                slots[i] = Some(out);
            }
        });
    }

    slots
        .into_iter()
        .map(|s| {
            s.unwrap_or(Isolated {
                result: Err("worker died before processing this item".to_string()),
                elapsed_us: 0,
            })
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let out = map_ordered(&items, 4, || (), |_, i, x| (i, x * 3));
        for (i, (idx, v)) in out.iter().enumerate() {
            assert_eq!(*idx, i);
            assert_eq!(*v, items[i] * 3);
        }
    }

    #[test]
    fn matches_sequential_for_any_thread_count() {
        let items: Vec<u64> = (0..57).collect();
        let seq = map_ordered(&items, 1, || (), |_, i, x| x.wrapping_mul(i as u64 + 7));
        for threads in [2, 3, 4, 8, 64] {
            let par = map_ordered(&items, threads, || (), |_, i, x| {
                x.wrapping_mul(i as u64 + 7)
            });
            assert_eq!(seq, par, "threads={threads}");
        }
    }

    #[test]
    fn per_worker_state_is_private_and_reused() {
        // Each worker counts its own items; the counts must total the input
        // and every worker that ran processed at least one item.
        let items: Vec<u32> = (0..40).collect();
        let inits = AtomicUsize::new(0);
        let out = map_ordered(
            &items,
            4,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                0usize
            },
            |seen, _, _| {
                *seen += 1;
                *seen
            },
        );
        assert!(out.iter().all(|&c| c >= 1 && c <= items.len()));
        let workers = inits.load(Ordering::Relaxed);
        assert!((1..=4).contains(&workers), "{workers} workers");
    }

    #[test]
    fn empty_and_oversized() {
        let none: Vec<u8> = vec![];
        assert!(map_ordered(&none, 8, || (), |_, _, x| *x).is_empty());
        let one = [5u8];
        assert_eq!(map_ordered(&one, 8, || (), |_, _, x| *x), vec![5]);
    }

    #[test]
    fn borrows_captured_environment() {
        let base = vec![10u64, 20, 30];
        let items = [0usize, 1, 2, 1];
        let out = map_ordered(&items, 2, || (), |_, _, &i| base[i]);
        assert_eq!(out, vec![10, 20, 30, 20]);
    }

    #[test]
    fn map_ordered_reraises_the_first_failed_items_panic() {
        // Items 3 and 10 panic; the caller sees item 3's message, named, at
        // any thread count — and every other item still ran first.
        let items: Vec<u32> = (0..20).collect();
        for threads in [1, 4] {
            let ran = AtomicUsize::new(0);
            let caught = catch_unwind(AssertUnwindSafe(|| {
                map_ordered(&items, threads, || (), |_, _, &x| {
                    ran.fetch_add(1, Ordering::Relaxed);
                    if x == 3 || x == 10 {
                        panic!("boom at {x}");
                    }
                    x
                })
            }));
            let msg = panic_message(caught.expect_err("map_ordered must re-raise"));
            assert_eq!(msg, "map_ordered item 3 panicked: boom at 3", "threads={threads}");
            assert_eq!(ran.load(Ordering::Relaxed), items.len(), "threads={threads}");
        }
    }

    #[test]
    fn isolated_captures_panics_without_losing_other_items() {
        let items: Vec<u32> = (0..50).collect();
        for threads in [1, 4] {
            let out = map_ordered_isolated(&items, threads, || (), |_, _, &x| {
                if x % 7 == 3 {
                    panic!("boom at {x}");
                }
                x * 2
            });
            assert_eq!(out.len(), items.len());
            for (i, iso) in out.iter().enumerate() {
                let x = items[i];
                match &iso.result {
                    Ok(v) => {
                        assert_ne!(x % 7, 3, "item {x} should have panicked");
                        assert_eq!(*v, x * 2);
                    }
                    Err(m) => {
                        assert_eq!(x % 7, 3, "item {x} should not have panicked");
                        assert_eq!(m, &format!("boom at {x}"), "threads={threads}");
                    }
                }
            }
        }
    }

    #[test]
    fn isolated_rebuilds_worker_state_after_a_panic() {
        // State counts items since (re)init; a panic must reset the count,
        // so no item after a panic ever observes stale state.
        let items: Vec<u32> = (0..30).collect();
        for threads in [1, 3] {
            let out = map_ordered_isolated(
                &items,
                threads,
                || 0usize,
                |since_init, _, &x| {
                    *since_init += 1;
                    if x == 10 || x == 20 {
                        panic!("die");
                    }
                    *since_init
                },
            );
            // Items processed right after a panic see a freshly built state
            // (count restarts at 1).
            for (i, iso) in out.iter().enumerate() {
                if let Ok(count) = iso.result {
                    assert!(count >= 1 && count <= items.len(), "item {i}: {count}");
                }
            }
            let panics = out.iter().filter(|o| o.result.is_err()).count();
            assert_eq!(panics, 2, "threads={threads}");
        }
    }

    #[test]
    fn isolated_matches_plain_map_when_nothing_panics() {
        let items: Vec<u64> = (0..40).collect();
        let plain = map_ordered(&items, 3, || (), |_, i, x| x.wrapping_mul(i as u64 + 1));
        let iso = map_ordered_isolated(&items, 3, || (), |_, i, x| {
            x.wrapping_mul(i as u64 + 1)
        });
        let unwrapped: Vec<u64> = iso.into_iter().map(|o| o.result.unwrap()).collect();
        assert_eq!(plain, unwrapped);
    }

    #[test]
    fn isolated_survives_init_panics() {
        // An init that always panics must not hang or abort the run — every
        // slot reports an error instead.
        let items: Vec<u8> = vec![1, 2, 3];
        for threads in [1, 2] {
            let out = map_ordered_isolated(
                &items,
                threads,
                || -> () { panic!("init dies") },
                |_, _, &x| x,
            );
            assert_eq!(out.len(), 3);
            assert!(out.iter().all(|o| o.result.is_err()), "threads={threads}");
        }
    }

    #[test]
    fn tree_reduce_pairs_in_fixed_order() {
        // Strings expose the combination tree: ((a·b)·(c·d))·e for 5 items.
        let items: Vec<String> = ["a", "b", "c", "d", "e"].iter().map(|s| s.to_string()).collect();
        let out = tree_reduce(items, |a, b| format!("({a}{b})"));
        assert_eq!(out.unwrap(), "(((ab)(cd))e)");
        // Degenerate sizes.
        assert_eq!(tree_reduce(Vec::<u8>::new(), |a, _| a), None);
        assert_eq!(tree_reduce(vec![7u8], |a, _| a), Some(7));
        assert_eq!(tree_reduce(vec![1u32, 2], |a, b| a + b), Some(3));
    }

    #[test]
    fn isolated_records_elapsed_time() {
        let items = [1u8, 2];
        let out = map_ordered_isolated(&items, 1, || (), |_, _, &x| {
            std::thread::sleep(std::time::Duration::from_millis(2));
            x
        });
        assert!(out.iter().all(|o| o.elapsed_us >= 1_000), "{out:?}");
    }
}
