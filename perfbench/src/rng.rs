//! The benchmark's input generator: SplitMix64, so that a `--seed` fixes
//! every input bit for bit on every host.

/// SplitMix64 (Steele, Lea and Flood, 2014).
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// A generator for one purpose of one run: `salt` separates the
    /// streams of different workloads and roles under the same seed.
    pub fn new(seed: u64, salt: u64) -> Self {
        let mut r = Rng(seed ^ salt.wrapping_mul(0xD134_2543_DE82_EF95));
        r.next_u64();
        r
    }

    /// The next 64 uniform bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`), by multiply-shift.
    pub fn below(&mut self, n: usize) -> usize {
        ((self.next_u64() as u128 * n as u128) >> 64) as usize
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// An exponential deviate with the given rate (mean `1 / rate`).
    pub fn exp(&mut self, rate: f64) -> f64 {
        -(1.0 - self.unit()).ln() / rate
    }

    /// A small signed value, so that sums of millions never overflow.
    pub fn value(&mut self) -> i64 {
        self.below(2001) as i64 - 1000
    }

    /// `n` values from [`Rng::value`].
    pub fn values(&mut self, n: usize) -> Vec<i64> {
        (0..n).map(|_| self.value()).collect()
    }

    /// `n` labels uniform in `0..m`.
    pub fn labels(&mut self, n: usize, m: usize) -> Vec<usize> {
        (0..n).map(|_| self.below(m)).collect()
    }

    /// Shuffle `items` in place (Fisher–Yates).
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i + 1);
            items.swap(i, j);
        }
    }
}
