//! SplitMix64: the benchmark's only source of randomness, so one `--seed`
//! fixes every input.

/// A seeded SplitMix64 generator.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    /// A generator for `seed`.
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed)
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`); the modulo bias is below 2^-40 for
    /// every `n` the benchmark uses.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in `[0, 1)`.
    #[cfg(test)]
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream_and_shuffle_permutes() {
        let mut a = SplitMix::new(42);
        let mut b = SplitMix::new(42);
        assert!((0..100).all(|_| a.next_u64() == b.next_u64()));
        assert_ne!(SplitMix::new(1).next_u64(), SplitMix::new(2).next_u64());
        let mut v: Vec<u32> = (0..64).collect();
        a.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
        assert_ne!(v, sorted);
        assert!((0..1000).all(|_| a.below(7) < 7 && a.unit() < 1.0));
    }
}
