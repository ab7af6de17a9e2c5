//! Seeded input generation, percentiles, the simulated digest and the
//! process's peak memory.

/// SplitMix64: the seeded generator every workload draws its inputs from.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed`, decorrelated per `stream`.
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next_u64();
        r
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..hi` (`hi > lo`).
    pub fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }
}

/// A percentile with the sample count behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Pctl {
    /// The value.
    pub value: f64,
    /// Samples in the distribution.
    pub samples: usize,
    /// Samples strictly beyond the percentile's rank.
    pub beyond: usize,
}

/// Nearest-rank percentile `p` (0–100) of `sorted`.
pub fn pctl(sorted: &[f64], p: f64) -> Pctl {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let n = sorted.len();
    let rank = ((p / 100.0) * n as f64).ceil().max(1.0) as usize;
    Pctl {
        value: sorted[rank - 1],
        samples: n,
        beyond: n - rank,
    }
}

/// Sort samples for [`pctl`].
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
    v
}

/// Median of a non-empty slice (the lower middle for even lengths).
pub fn median(v: &[f64]) -> f64 {
    let s = sorted(v.to_vec());
    s[(s.len() - 1) / 2]
}

/// FNV-1a over the simulated outcomes of a run: any change to what was
/// simulated changes it; wall time never enters it.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Digest {
        Digest(0xCBF2_9CE4_8422_2325)
    }
}

impl Digest {
    /// Fold in one value.
    pub fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    /// Fold in a float by its exact bits.
    pub fn add_f64(&mut self, v: f64) {
        self.add(v.to_bits());
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Peak resident set of this process in MiB (`VmHWM`), if the platform
/// reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_counts_samples_beyond() {
        let v: Vec<f64> = (1..=1000).map(f64::from).collect();
        let p = pctl(&v, 99.0);
        assert_eq!(p.value, 990.0);
        assert_eq!(p.beyond, 10);
        assert_eq!(pctl(&v, 50.0).value, 500.0);
    }

    #[test]
    fn rng_is_a_pure_function_of_seed_and_stream() {
        let a: Vec<u64> = (0..4).map(|_| Rng::new(7, 1).next_u64()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        assert_ne!(Rng::new(7, 1).next_u64(), Rng::new(7, 2).next_u64());
    }
}
