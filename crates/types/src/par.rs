//! Deterministic bounded-worker parallel map.
//!
//! `mealib-memsim` shards its per-vault trace replay across OS threads.
//! [`par_map`] is the primitive it runs on: a scoped worker pool
//! that preserves input order in its output, so a parallel run is
//! *positionally* indistinguishable from the serial `items.iter().map(f)`
//! it replaces. Determinism beyond ordering is the closure's business:
//! `f` must not depend on cross-item mutable state.

use std::sync::atomic::{AtomicUsize, Ordering};

/// Resolves a user-facing `jobs` knob to a concrete worker count.
///
/// The convention behind `SimOptions::jobs`, the workspace's one
/// `jobs` parameter:
///
/// * `0` ⇒ **auto**: one worker per available hardware thread
///   ([`std::thread::available_parallelism`], falling back to 1 when
///   the platform cannot say);
/// * `1` ⇒ the **exact serial path** on the calling thread — never the
///   sharded merge;
/// * `n > 1` ⇒ up to `n` workers.
///
/// Callers normalize through this one function so `0` and `1` mean the
/// same thing on every parallel path.
pub fn auto_jobs(jobs: usize) -> usize {
    if jobs == 0 {
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    } else {
        jobs
    }
}

/// Applies `f` to every item, using up to `jobs` worker threads, and
/// returns the results in input order.
///
/// `jobs <= 1` (or a single-item slice) degenerates to the plain serial
/// map on the calling thread — the fallback path used when callers pass
/// `--jobs 1`. Workers pull items off a shared atomic cursor, so uneven
/// per-item costs balance automatically; results are reassembled by index
/// afterwards, which is what makes the output order (and therefore any
/// order-dependent reduction the caller performs) independent of thread
/// scheduling.
///
/// # Panics
///
/// Propagates the first worker panic to the caller.
pub fn par_map<T, R>(items: &[T], jobs: usize, f: impl Fn(&T) -> R + Sync) -> Vec<R>
where
    T: Sync,
    R: Send,
{
    let jobs = jobs.clamp(1, items.len().max(1));
    if jobs <= 1 {
        return items.iter().map(f).collect();
    }
    let cursor = AtomicUsize::new(0);
    let mut indexed: Vec<(usize, R)> = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..jobs)
            .map(|_| {
                scope.spawn(|| {
                    let mut out = Vec::new();
                    loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(item) = items.get(i) else { break };
                        out.push((i, f(item)));
                    }
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .flat_map(|w| match w.join() {
                Ok(results) => results,
                Err(payload) => std::panic::resume_unwind(payload),
            })
            .collect()
    });
    indexed.sort_unstable_by_key(|&(i, _)| i);
    indexed.into_iter().map(|(_, r)| r).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_input_order() {
        let items: Vec<u64> = (0..257).collect();
        let serial: Vec<u64> = items.iter().map(|x| x * x).collect();
        for jobs in [1, 2, 3, 8, 64, 1000] {
            assert_eq!(par_map(&items, jobs, |x| x * x), serial, "jobs={jobs}");
        }
    }

    #[test]
    fn empty_and_singleton_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(par_map(&empty, 8, |x| *x).is_empty());
        assert_eq!(par_map(&[7u32], 8, |x| x + 1), vec![8]);
    }

    #[test]
    fn repeated_runs_are_identical() {
        let items: Vec<u64> = (0..100).collect();
        let first = par_map(&items, 4, |x| x.wrapping_mul(0x9e3779b97f4a7c15));
        for _ in 0..10 {
            let again = par_map(&items, 4, |x| x.wrapping_mul(0x9e3779b97f4a7c15));
            assert_eq!(again, first);
        }
    }

    #[test]
    #[should_panic(expected = "worker boom")]
    fn worker_panic_propagates() {
        let items = [1u32, 2, 3];
        let _ = par_map(&items, 2, |x| {
            if *x == 2 {
                panic!("worker boom");
            }
            *x
        });
    }
}
