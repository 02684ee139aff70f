//! Percentiles from the benchmark's own raw samples (nearest rank), and
//! the seeded generators the workloads draw from.

/// A nearest-rank percentile with the sample count behind it.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pct {
    pub value: f64,
    /// Samples the percentile was taken over.
    pub n: usize,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

impl Pct {
    pub fn describe(&self, label: &str) -> String {
        format!("{label} of n={}, {} beyond", self.n, self.beyond)
    }
}

/// Nearest-rank percentile `p` (0 < p ≤ 1) of `samples`; `None` when
/// there are no samples.
pub fn percentile(samples: &[f64], p: f64) -> Option<Pct> {
    if samples.is_empty() {
        return None;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    let rank = ((p * n as f64).ceil() as usize).clamp(1, n);
    Some(Pct {
        value: sorted[rank - 1],
        n,
        beyond: n - rank,
    })
}

/// Median of `values` (0 when empty).
pub fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5).map_or(0.0, |p| p.value)
}

/// SplitMix64: a small seeded generator, so every input the benchmark
/// builds is a pure function of `--seed`.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Exponential with the given mean (Poisson inter-arrival gaps).
    pub fn exp(&mut self, mean: f64) -> f64 {
        -mean * (1.0 - self.unit()).ln()
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n.max(1)
    }
}

/// A derived seed: distinct streams of one `--seed` never overlap.
pub fn sub_seed(seed: u64, stream: u64) -> u64 {
    Rng::new(seed ^ stream.wrapping_mul(0xd1b5_4a32_d192_ed03)).next_u64()
}

/// Zipf sampler over ranks `0..n` with exponent `s`.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        let p90 = percentile(&xs, 0.9).unwrap();
        assert_eq!((p90.value, p90.n, p90.beyond), (90.0, 100, 10));
        let p99 = percentile(&xs, 0.99).unwrap();
        assert_eq!((p99.value, p99.beyond), (99.0, 1));
        assert_eq!(percentile(&[7.0], 0.5).unwrap().value, 7.0);
        assert!(percentile(&[], 0.5).is_none());
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1000, 1.0);
        let mut rng = Rng::new(3);
        let draws: Vec<usize> = (0..10_000).map(|_| z.sample(&mut rng)).collect();
        assert!(draws.iter().all(|&d| d < 1000));
        let top = draws.iter().filter(|&&d| d < 10).count();
        assert!(top > 2500, "top-10 ranks drew {top} of 10000");
    }
}
