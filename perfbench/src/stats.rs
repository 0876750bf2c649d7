//! The benchmark's own statistics: medians, quartiles, the tail-percentile
//! rule and the run-fingerprint digest.

/// Median of `values` (mean of the middle pair for an even count).
/// Returns 0 for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

pub use decor_exp::stats::mean;

/// The three quartile cut points of `values`, computed exactly as
/// Python's `statistics.quantiles(values, n=4)` (its default
/// "exclusive" method), so the spread the benchmark prints matches the
/// one its acceptance check computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<[f64; 3]> {
    let s = sorted(values);
    let m = s.len();
    if m < 2 {
        return None;
    }
    let n = 4usize;
    Some(std::array::from_fn(|k| {
        let i = k + 1;
        // Positions are 1-based over m + 1 slots, clamped to the data.
        let j = (i * (m + 1) / n).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * n) as f64;
        (s[j - 1] * (n as f64 - delta) + s[j] * delta) / n as f64
    }))
}

/// Percentiles the tail metric may report, highest first, in tenths of
/// a percent so ranks are computed in exact integer arithmetic.
const TAIL_LADDER: [usize; 7] = [999, 990, 950, 900, 800, 750, 500];

/// 1-based nearest rank of percentile `p10` (tenths of a percent) among
/// `n` samples.
fn rank(p10: usize, n: usize) -> usize {
    (p10 * n).div_ceil(1000).clamp(1, n.max(1))
}

/// The tail a sample can support: the highest percentile on the ladder
/// with at least ten samples beyond it (p99 from 1000 samples, p90 from
/// 100). Below 20 samples only the median is left.
pub fn tail_percentile(n: usize) -> f64 {
    let p10 = TAIL_LADDER
        .into_iter()
        .find(|&p10| n >= rank(p10, n) + 10)
        .unwrap_or(500);
    p10 as f64 / 10.0
}

/// Nearest-rank percentile `p` (a multiple of 0.1, 0 < p <= 100) of
/// `values`.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let s = sorted(values);
    if s.is_empty() {
        return 0.0;
    }
    s[rank((p * 10.0).round() as usize, s.len()) - 1]
}

fn sorted(values: &[f64]) -> Vec<f64> {
    let mut s = values.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// 32-bit digest of a run fingerprint (FNV-1a 64, folded). The reference
/// files store one per run; a changed fingerprint changes its digest
/// with probability 1 - 2^-32.
pub fn digest(text: &str) -> u32 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in text.bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    (h ^ (h >> 32)) as u32
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some([2.75, 5.5, 8.25]));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), Some([1.0, 2.0, 3.0]));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some([0.75, 1.5, 2.25]));
        // statistics.quantiles([10, 20, 30, 40, 50, 60, 70], n=4)
        //   == [20.0, 40.0, 60.0]
        let v = [70.0, 10.0, 50.0, 30.0, 20.0, 60.0, 40.0];
        assert_eq!(quartiles(&v), Some([20.0, 40.0, 60.0]));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(10_000), 99.9);
        assert_eq!(tail_percentile(1_000), 99.0);
        assert_eq!(tail_percentile(999), 95.0);
        assert_eq!(tail_percentile(200), 95.0);
        assert_eq!(tail_percentile(100), 90.0);
        assert_eq!(tail_percentile(99), 80.0);
        assert_eq!(tail_percentile(50), 80.0);
        assert_eq!(tail_percentile(40), 75.0);
        assert_eq!(tail_percentile(20), 50.0);
        assert_eq!(tail_percentile(3), 50.0);
        for n in [20usize, 40, 50, 100, 200, 1_000, 10_000] {
            let p = tail_percentile(n);
            let beyond = n - rank((p * 10.0).round() as usize, n);
            assert!(beyond >= 10, "n={n} p={p} leaves {beyond} beyond");
        }
    }

    #[test]
    fn nearest_rank_percentile() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 90.0), 90.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&[], 50.0), 0.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
    }

    #[test]
    fn digest_separates_fingerprints() {
        assert_eq!(digest("abc"), digest("abc"));
        assert_ne!(digest("{\"placed\":3}"), digest("{\"placed\":4}"));
    }
}
