//! Seeded cell orders and the summary statistics the metrics are made of.
//! The generator is the load generator's SplitMix64 stream, and the
//! geometric mean and minimum are the harness's, so the benchmark keeps no
//! copies of them.

pub use harness::stats::{geomean, min};
use load::rng::Rng;

/// The cell orders of one run: a fresh seeded permutation per pass, all
/// drawn from one stream of `seed`.
#[derive(Debug, Clone)]
pub struct Orders(Rng);

impl Orders {
    pub fn new(seed: u64) -> Orders {
        Orders(Rng::new(seed, 0))
    }

    /// A uniformly shuffled copy of `0..n` (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut v: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            v.swap(i, self.0.next_index(i + 1));
        }
        v
    }
}

/// The `q`-quantile (0..=1) of `xs` by linear interpolation; 0 when empty.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// A running sum for a mean.
#[derive(Debug, Clone, Copy, Default)]
pub struct Acc {
    pub sum: f64,
    pub n: u64,
}

impl Acc {
    pub fn add(&mut self, x: f64) {
        self.sum += x;
        self.n += 1;
    }

    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.sum / self.n as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_permutation() {
        assert_eq!(
            Orders::new(7).permutation(50),
            Orders::new(7).permutation(50)
        );
        assert_ne!(
            Orders::new(7).permutation(50),
            Orders::new(8).permutation(50)
        );
        let mut p = Orders::new(3).permutation(50);
        p.sort_unstable();
        assert_eq!(p, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn quantiles_and_means() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&xs), 2.5);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert!((geomean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert_eq!(geomean(&[]), 0.0);
    }
}
