//! Latency samples, percentiles and the seeded helpers every workload shares.

use std::fmt::Write as _;
use std::time::Instant;

/// A bag of timing samples in one unit.
#[derive(Clone, Debug, Default)]
pub struct Samples {
    values: Vec<f64>,
}

impl Samples {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    pub fn len(&self) -> usize {
        self.values.len()
    }

    fn sorted(&self) -> Vec<f64> {
        let mut sorted = self.values.clone();
        sorted.sort_by(f64::total_cmp);
        sorted
    }

    /// The `q`-quantile (`0.0..=1.0`) by linear interpolation; 0 when empty.
    pub fn quantile(&self, q: f64) -> f64 {
        let sorted = self.sorted();
        if sorted.is_empty() {
            return 0.0;
        }
        let pos = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
        let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
        sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
    }

    pub fn median(&self) -> f64 {
        self.quantile(0.5)
    }

    pub fn mean(&self) -> f64 {
        if self.values.is_empty() {
            0.0
        } else {
            self.values.iter().sum::<f64>() / self.values.len() as f64
        }
    }

    /// The highest percentile among p50, p90, p99, p99.9 that still has at
    /// least ten samples beyond it, with its value (`None` when even the
    /// median lacks ten samples above it).
    pub fn supported_tail(&self) -> Option<(f64, f64)> {
        let n = self.values.len() as f64;
        [99.9, 99.0, 90.0, 50.0]
            .into_iter()
            .find(|p| n * (1.0 - p / 100.0) >= 10.0)
            .map(|p| (p, self.quantile(p / 100.0)))
    }

    /// One report line: count, quartiles and the supported tail.
    pub fn describe(&self, label: &str, unit: &str) -> String {
        let mut line = format!(
            "{label}: n={} p25={:.3}{unit} p50={:.3}{unit} p75={:.3}{unit}",
            self.len(),
            self.quantile(0.25),
            self.median(),
            self.quantile(0.75)
        );
        match self.supported_tail() {
            Some((p, v)) if p > 50.0 => {
                let _ = write!(line, " p{p}={v:.3}{unit}");
            }
            _ => line.push_str(" (no tail percentile has 10 samples beyond it)"),
        }
        line
    }
}

/// Seconds elapsed since `start`.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Runs `f` `reps` times and returns the last result with the median time
/// in seconds.
pub fn median_of<T>(reps: usize, mut f: impl FnMut() -> T) -> (T, f64) {
    let mut times = Samples::new();
    let mut last = None;
    for _ in 0..reps.max(1) {
        let start = Instant::now();
        last = Some(f());
        times.push(secs_since(start));
    }
    (last.expect("at least one repetition"), times.median())
}

/// `splitmix64`: the seeded stream behind every random choice the benchmark
/// makes itself (relabellings, request logs).
#[derive(Clone, Debug)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> Self {
        SplitMix(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..bound` (`bound > 0`).
    pub fn below(&mut self, bound: u64) -> u64 {
        self.next_u64() % bound
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }
}

/// Derives an independent sub-seed for one generator from the run seed.
pub fn derive_seed(seed: u64, stream: &str) -> u64 {
    let mut h = SplitMix::new(seed);
    let mut acc = h.next_u64();
    for b in stream.bytes() {
        acc = SplitMix::new(acc ^ b as u64).next_u64();
    }
    acc
}

/// FNV-1a, folded over byte slices: the fingerprint of response frames and
/// component sets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    pub fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`), 0 if unknown.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        let mut s = Samples::new();
        for v in [4.0, 1.0, 3.0, 2.0] {
            s.push(v);
        }
        assert_eq!(s.median(), 2.5);
        assert_eq!(s.quantile(0.0), 1.0);
        assert_eq!(s.quantile(1.0), 4.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        let mut s = Samples::new();
        for v in 0..1000 {
            s.push(v as f64);
        }
        assert_eq!(s.supported_tail().map(|t| t.0), Some(99.0));
        let mut small = Samples::new();
        for v in 0..15 {
            small.push(v as f64);
        }
        assert_eq!(small.supported_tail(), None);
    }
}
