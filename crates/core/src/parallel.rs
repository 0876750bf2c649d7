//! Parallel execution helpers (crossbeam scoped threads).
//!
//! The paper averages every figure over 5 random fields. Replicas are
//! embarrassingly parallel, so [`run_replicas`] fans them out over scoped
//! threads — one per replica up to the hardware parallelism — with
//! deterministic per-replica seeds derived by splitmix64, guaranteeing
//! sequential and parallel execution produce identical results.

use decor_lds::vdc::splitmix64;

/// Derives the seed for replica `i` from a base seed.
///
/// Mixing (rather than `base + i`) keeps replica RNG streams statistically
/// independent even for adjacent indices.
pub fn replica_seed(base: u64, i: usize) -> u64 {
    splitmix64(base ^ (i as u64).wrapping_mul(0x9E3779B97F4A7C15))
}

/// Parses a `DECOR_THREADS`-style override: a positive integer, with
/// surrounding whitespace tolerated. Anything else (empty, `0`, garbage)
/// is rejected so a typo falls back to the hardware default instead of
/// silently serializing the run.
pub fn parse_thread_override(value: &str) -> Option<usize> {
    value.trim().parse::<usize>().ok().filter(|&n| n >= 1)
}

/// The worker count [`run_replicas`] (and the experiment matrix runner)
/// uses: the `DECOR_THREADS` environment override when set to a positive
/// integer, else the hardware parallelism. Bench boxes and CI runners pin
/// worker counts with the env var; because every parallel helper in this
/// crate is deterministic in its inputs, the setting can only change wall
/// time, never results.
pub fn default_threads() -> usize {
    std::env::var("DECOR_THREADS")
        .ok()
        .and_then(|v| parse_thread_override(&v))
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|p| p.get())
                .unwrap_or(1)
        })
}

/// Runs `f(replica_index, replica_seed)` for `n` replicas in parallel and
/// returns the results in replica order.
///
/// `f` must be deterministic in its arguments; the output is then
/// identical to the sequential loop regardless of thread scheduling. The
/// worker count is the hardware parallelism unless `DECOR_THREADS`
/// overrides it (see [`default_threads`]).
pub fn run_replicas<T, F>(n: usize, base_seed: u64, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, u64) -> T + Sync,
{
    run_replicas_with_threads(n, base_seed, default_threads(), f)
}

/// [`run_replicas`] with an explicit worker count instead of the hardware
/// parallelism. The results must be identical for every `threads >= 1` —
/// the determinism suite pins this by comparing traces across counts.
pub fn run_replicas_with_threads<T, F>(n: usize, base_seed: u64, threads: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize, u64) -> T + Sync,
{
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.max(1).min(n);
    if threads == 1 {
        return (0..n).map(|i| f(i, replica_seed(base_seed, i))).collect();
    }
    // Work-stealing over an atomic index; each worker accumulates its own
    // `(index, result)` pairs and the results are scattered into their
    // slots after the joins — disjoint per-slot storage, no shared lock on
    // the hot path.
    let next = std::sync::atomic::AtomicUsize::new(0);
    let mut results: Vec<Option<T>> = (0..n).map(|_| None).collect();
    crossbeam::thread::scope(|scope| {
        let mut handles = Vec::with_capacity(threads);
        for _ in 0..threads {
            handles.push(scope.spawn(|_| {
                let mut local: Vec<(usize, T)> = Vec::new();
                loop {
                    let i = next.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    local.push((i, f(i, replica_seed(base_seed, i))));
                }
                local
            }));
        }
        for h in handles {
            for (i, out) in h.join().expect("replica worker panicked") {
                debug_assert!(results[i].is_none(), "replica {i} computed twice");
                results[i] = Some(out);
            }
        }
    })
    .expect("replica scope failed");
    results
        .into_iter()
        .map(|o| o.expect("every replica filled"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replica_seeds_are_distinct_and_stable() {
        let s: Vec<u64> = (0..16).map(|i| replica_seed(42, i)).collect();
        let mut dedup = s.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), 16);
        assert_eq!(replica_seed(42, 3), s[3]);
    }

    #[test]
    fn run_replicas_matches_sequential() {
        let par = run_replicas(8, 7, |i, seed| (i, seed, (i as u64).wrapping_mul(seed)));
        let seq: Vec<_> = (0..8)
            .map(|i| {
                let seed = replica_seed(7, i);
                (i, seed, (i as u64).wrapping_mul(seed))
            })
            .collect();
        assert_eq!(par, seq);
    }

    #[test]
    fn thread_override_parsing() {
        assert_eq!(parse_thread_override("4"), Some(4));
        assert_eq!(parse_thread_override(" 16 "), Some(16));
        assert_eq!(parse_thread_override("0"), None, "zero workers is absurd");
        assert_eq!(parse_thread_override(""), None);
        assert_eq!(parse_thread_override("four"), None);
        assert_eq!(parse_thread_override("-2"), None);
        assert!(default_threads() >= 1);
    }

    #[test]
    fn decor_threads_env_pins_workers_without_changing_results() {
        // Results are a pure function of (n, base_seed), so every
        // DECOR_THREADS setting must reproduce the reference exactly.
        // (Other tests in this binary may race reads of the var; that is
        // harmless for the same reason.)
        let reference: Vec<_> = (0..20).map(|i| (i, replica_seed(5, i))).collect();
        for setting in ["1", "2", "7", "64"] {
            std::env::set_var("DECOR_THREADS", setting);
            assert_eq!(
                default_threads(),
                setting.parse::<usize>().unwrap(),
                "override must be honored"
            );
            let got = run_replicas(20, 5, |i, seed| (i, seed));
            assert_eq!(got, reference, "DECOR_THREADS={setting}");
        }
        std::env::remove_var("DECOR_THREADS");
        assert_eq!(run_replicas(20, 5, |i, seed| (i, seed)), reference);
    }

    #[test]
    fn run_replicas_zero_is_empty() {
        let v: Vec<u32> = run_replicas(0, 1, |_, _| 0);
        assert!(v.is_empty());
    }

    #[test]
    fn explicit_thread_counts_agree() {
        let reference: Vec<_> = (0..12).map(|i| (i, replica_seed(11, i))).collect();
        for threads in [1, 2, 3, 8, 64] {
            let got = run_replicas_with_threads(12, 11, threads, |i, seed| (i, seed));
            assert_eq!(got, reference, "threads={threads}");
        }
    }

    #[test]
    fn run_replicas_heavier_than_threads() {
        // More replicas than cores exercises the work-stealing loop.
        let v = run_replicas(64, 3, |i, _| i * i);
        assert_eq!(v.len(), 64);
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i * i);
        }
    }
}
