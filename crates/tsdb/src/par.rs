//! Work spread over scoped workers: ingest passes, rule ticks and a restart.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Threads the host runs at once: how many workers a restart uses.
pub(crate) fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Folds `items` on at most `threads` scoped workers (the calling thread is
/// one of them). Each worker takes the next item off one shared cursor and
/// folds it into its own accumulator from `init`, so a worker whose items
/// were cheap goes on to the next one instead of idling while another
/// works through a share of expensive ones. Items are handed out in order,
/// each exactly once; the accumulators come back one per worker, the
/// calling thread's first. With one worker (`threads <= 1`, or at most one
/// item) everything runs on the calling thread, in order, into one
/// accumulator. A worker's panic reaches the caller.
///
/// An ingest pass (a scrape pass, a push pass) spreads its sources this
/// way, a rule tick the due groups of one level, and `Tsdb::open` a
/// checkpoint's parts and the replayed samples' stripe owners.
pub fn fan_out<T: Sync, A: Send>(
    items: &[T],
    threads: usize,
    init: impl Fn() -> A + Sync,
    fold: impl Fn(&mut A, &T) + Sync,
) -> Vec<A> {
    let workers = threads.clamp(1, items.len().max(1));
    let next = AtomicUsize::new(0);
    let work = || {
        let mut acc = init();
        while let Some(item) = items.get(next.fetch_add(1, Ordering::Relaxed)) {
            fold(&mut acc, item);
        }
        acc
    };
    if workers == 1 {
        return vec![work()];
    }
    std::thread::scope(|s| {
        let spawned: Vec<_> = (1..workers).map(|_| s.spawn(work)).collect();
        let mut accs = vec![work()];
        accs.extend(spawned.into_iter().map(|w| {
            w.join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic))
        }));
        accs
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::{Condvar, Mutex};
    use std::time::Duration;

    /// Item 0 waits until every other item has run: behind a contiguous
    /// share of its own, item 1 would wait behind item 0 and neither would
    /// ever finish. From one shared cursor the other worker takes the rest.
    #[test]
    fn a_slow_first_item_does_not_hold_the_others_back() {
        for n in [2usize, 3, 8, 40] {
            let ran = (Mutex::new(0usize), Condvar::new());
            let waited = fan_out(
                &(0..n).collect::<Vec<_>>(),
                2,
                || None,
                |waited, &i| {
                    let (count, cv) = &ran;
                    if i == 0 {
                        let count = count.lock().unwrap();
                        let (count, timeout) = cv
                            .wait_timeout_while(count, Duration::from_secs(10), |c| *c < n - 1)
                            .unwrap();
                        *waited = Some(!timeout.timed_out() && *count == n - 1);
                    } else {
                        *count.lock().unwrap() += 1;
                        cv.notify_all();
                    }
                },
            );
            assert_eq!(
                waited.iter().flatten().collect::<Vec<_>>(),
                [&true],
                "{n} items: item 0 gave up waiting for the other {}",
                n - 1
            );
        }
    }

    #[test]
    fn every_item_is_handed_out_once_and_each_worker_folds_into_one_accumulator() {
        for n in 0..=40usize {
            for threads in 1..=8usize {
                let items: Vec<usize> = (0..n).collect();
                let inits = AtomicUsize::new(0);
                let accs = fan_out(
                    &items,
                    threads,
                    || {
                        inits.fetch_add(1, Ordering::Relaxed);
                        (std::thread::current().id(), Vec::new())
                    },
                    |(owner, taken), &i| {
                        assert_eq!(*owner, std::thread::current().id());
                        taken.push(i);
                    },
                );
                let workers = threads.min(n).max(1);
                assert_eq!(accs.len(), workers, "{n} items, {threads} threads");
                assert_eq!(inits.into_inner(), workers);
                assert_eq!(accs[0].0, std::thread::current().id());
                let owners: HashSet<_> = accs.iter().map(|(owner, _)| *owner).collect();
                assert_eq!(owners.len(), workers, "one accumulator per worker");
                for (_, taken) in &accs {
                    assert!(taken.windows(2).all(|w| w[0] < w[1]), "handed out in order");
                }
                let mut all: Vec<usize> = accs.into_iter().flat_map(|(_, taken)| taken).collect();
                all.sort_unstable();
                assert_eq!(all, items, "{n} items, {threads} threads");
            }
        }
    }

    #[test]
    fn a_workers_panic_reaches_the_caller() {
        for threads in [1, 2, 4] {
            let outcome = std::panic::catch_unwind(|| {
                fan_out(
                    &[0, 1, 2, 3, 4, 5, 6, 7],
                    threads,
                    || (),
                    |(), &i| {
                        assert_ne!(i, 5, "item five");
                    },
                )
            });
            let panic = outcome.expect_err("the panic propagates");
            let message = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .unwrap_or_default();
            assert!(
                message.contains("item five"),
                "{threads} threads: {message:?}"
            );
        }
    }
}
