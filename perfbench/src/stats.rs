//! Small numeric and process helpers: a seeded generator, order
//! statistics, the process memory high-water mark and JSON numbers.

/// SplitMix64: the benchmark's own seeded generator for fault schedules
/// and dashboard picks. The program under test gets only the seed.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed ^ 0x9e37_79b9_7f4a_7c15)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, n)`.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Fisher-Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }

    /// `k` distinct indices from `[0, n)`, in draw order.
    pub fn distinct(&mut self, n: usize, k: usize) -> Vec<usize> {
        let mut pool: Vec<usize> = (0..n).collect();
        (0..k.min(n)).map(|i| pool.swap_remove(self.below((n - i) as u64) as usize)).collect()
    }
}

/// Linear-interpolated quantile of `values` (`q` in `[0, 1]`); 0 when
/// empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The tail quantile reported as `*_p90`: p90 when at least ten samples
/// lie beyond it, otherwise the highest quantile that keeps ten beyond.
pub fn tail_quantile(values: &[f64]) -> f64 {
    let n = values.len() as f64;
    let q = if n > 0.0 { (1.0 - 10.0 / n).clamp(0.5, 0.9) } else { 0.9 };
    quantile(values, q)
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

/// A JSON number: shortest round-trip form, never NaN or infinite.
pub fn json_num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
        assert_eq!(median(&v), 2.5);
    }

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        let v: Vec<f64> = (0..200).map(f64::from).collect();
        assert!((tail_quantile(&v) - quantile(&v, 0.9)).abs() < 1e-9);
        let short: Vec<f64> = (0..40).map(f64::from).collect();
        assert!((tail_quantile(&short) - quantile(&short, 0.75)).abs() < 1e-9);
    }

    #[test]
    fn rng_is_seeded_and_distinct_draws_are_distinct() {
        let a: Vec<u64> = (0..4)
            .map({
                let mut r = Rng::new(7);
                move |_| r.next_u64()
            })
            .collect();
        let mut r = Rng::new(7);
        assert_eq!(a, (0..4).map(|_| r.next_u64()).collect::<Vec<_>>());
        let mut d = Rng::new(1).distinct(8, 8);
        d.sort_unstable();
        assert_eq!(d, (0..8).collect::<Vec<_>>());
    }
}
