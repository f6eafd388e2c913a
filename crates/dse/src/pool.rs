//! Shared scoped-thread worker pool for the batch solvers.
//!
//! Both batch paths — VM batch chunks and full-re-simulation
//! fallbacks — need the same shape of parallelism: a fixed item list, a
//! `Sync` closure, results in item order. The facade's `SimService` uses
//! the same pool for its batched run requests. The container build has no
//! access to external crates, otherwise this would be a `rayon` parallel
//! iterator.
//!
//! Worker counts are explicit everywhere: callers resolve a user-supplied
//! count (or `None` for "one worker per core") through [`resolve_workers`]
//! and pass it down, so thread usage is tunable end to end instead of being
//! hardcoded at the pool.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Applies `f` to every item on up to `workers` scoped threads and returns
/// the results in item order. With one worker (or fewer than two items)
/// this degenerates to a plain in-order map on the calling thread.
pub fn parallel_map<T, R>(items: &[T], workers: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    let workers = workers.min(items.len());
    if workers <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                let i = cursor.fetch_add(1, Ordering::Relaxed);
                if i >= items.len() {
                    break;
                }
                let outcome = f(&items[i]);
                *slots[i].lock().expect("dse pool slot poisoned") = Some(outcome);
            });
        }
    });
    slots
        .into_iter()
        .map(|slot| {
            slot.into_inner()
                .expect("dse pool slot poisoned")
                .expect("dse pool filled every claimed slot")
        })
        .collect()
}

/// The machine's available parallelism (at least one) — the default worker
/// count wherever the caller does not pin one explicitly.
pub fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Resolves an optional explicit worker count: `Some(n)` is clamped to at
/// least one, `None` means [`default_workers`].
pub fn resolve_workers(explicit: Option<usize>) -> usize {
    match explicit {
        Some(n) => n.max(1),
        None => default_workers(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_stay_in_item_order() {
        let items: Vec<usize> = (0..100).collect();
        let doubled = parallel_map(&items, 8, |&x| x * 2);
        assert_eq!(doubled, (0..100).map(|x| x * 2).collect::<Vec<_>>());
        // Degenerate cases.
        assert_eq!(parallel_map(&items, 1, |&x| x + 1)[99], 100);
        assert!(parallel_map(&Vec::<usize>::new(), 4, |&x: &usize| x).is_empty());
    }

    #[test]
    fn worker_resolution_honours_explicit_counts() {
        assert_eq!(resolve_workers(Some(1)), 1);
        assert_eq!(resolve_workers(Some(7)), 7);
        assert_eq!(resolve_workers(Some(0)), 1, "zero clamps to one");
        assert!(resolve_workers(None) >= 1);
        assert_eq!(resolve_workers(None), default_workers());
    }
}
