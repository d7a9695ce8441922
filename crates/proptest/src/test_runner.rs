//! Deterministic random number generation for test cases.

/// A small, fast, deterministic RNG (splitmix64 core).
///
/// Each `proptest!` test derives its stream from the test's module path and
/// name, so the sequence of generated cases is stable across runs and
/// machines.
#[derive(Clone, Debug)]
pub struct TestRng {
    state: u64,
}

impl TestRng {
    /// Seeds from an arbitrary label (FNV-1a hash of the bytes).
    pub fn deterministic(label: &str) -> Self {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        for b in label.bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
        TestRng { state: h }
    }

    /// Next raw 64-bit value.
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform value in `[0, bound)`.
    ///
    /// # Panics
    /// Panics if `bound == 0`.
    pub(crate) fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "below(0)");
        // Lemire-style widening multiply, debias skipped: the tiny modulo
        // bias is irrelevant for test-case generation.
        ((self.next_u64() as u128 * bound as u128) >> 64) as u64
    }

    /// Uniform float in `[0, 1)`.
    pub(crate) fn unit_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Fisher–Yates shuffle.
    pub(crate) fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            let j = self.below(i as u64 + 1) as usize;
            items.swap(i, j);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn below_stays_in_bounds() {
        let mut rng = TestRng::deterministic("below");
        for bound in [1u64, 2, 3, 17, u64::MAX] {
            for _ in 0..64 {
                assert!(rng.below(bound) < bound);
            }
        }
    }

    #[test]
    fn unit_is_half_open() {
        let mut rng = TestRng::deterministic("unit");
        for _ in 0..256 {
            let f = rng.unit_f64();
            assert!((0.0..1.0).contains(&f));
        }
    }

    #[test]
    fn shuffle_permutes() {
        let mut rng = TestRng::deterministic("shuffle");
        let mut v: Vec<u32> = (0..20).collect();
        rng.shuffle(&mut v);
        let mut sorted = v.clone();
        sorted.sort();
        assert_eq!(sorted, (0..20).collect::<Vec<u32>>());
    }
}
