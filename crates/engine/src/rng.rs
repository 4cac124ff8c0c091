//! Seeded, splittable random-number streams.
//!
//! The randomized tests draw their cases from a [`StreamRng`], so every
//! failing case replays from its seed and stream label. The simulator does
//! not use it: workload generation seeds `rand`'s `StdRng` per thread from
//! the experiment seed, and random replacement hashes the access tick, so
//! an experiment is still a pure function of its configuration.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A deterministic random-number generator with named sub-streams.
///
/// `StreamRng::stream(label)` derives an independent generator from the root
/// seed and a stream label, so components do not perturb each other's random
/// sequences when the order of their draws changes.
///
/// # Examples
///
/// ```
/// use allarm_engine::StreamRng;
///
/// let mut root = StreamRng::from_seed(42);
/// let mut a1 = root.stream(1);
/// let mut a2 = root.stream(1);
/// // The same label always yields the same stream...
/// assert_eq!(a1.next_u64(), a2.next_u64());
/// // ...and different labels yield different streams.
/// let mut b = root.stream(2);
/// assert_ne!(root.stream(1).next_u64(), b.next_u64());
/// ```
#[derive(Debug, Clone)]
pub struct StreamRng {
    seed: u64,
    rng: StdRng,
}

impl StreamRng {
    /// Creates a root generator from an experiment seed.
    pub fn from_seed(seed: u64) -> Self {
        StreamRng {
            seed,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Derives an independent sub-stream identified by `label`.
    ///
    /// Deriving the same label from the same root always produces an
    /// identical stream, independent of any draws made on the root or on
    /// other streams.
    pub fn stream(&self, label: u64) -> StreamRng {
        // SplitMix64-style mixing of (seed, label) into a new seed.
        let mut z = self.seed ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        StreamRng::from_seed(z)
    }

    /// Returns the seed this stream was created from.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Draws a uniformly distributed `u64`.
    pub fn next_u64(&mut self) -> u64 {
        self.rng.gen()
    }

    /// Draws a value uniformly from `[0, bound)`.
    ///
    /// # Panics
    ///
    /// Panics if `bound` is zero.
    pub fn below(&mut self, bound: u64) -> u64 {
        assert!(bound > 0, "bound must be positive");
        self.rng.gen_range(0..bound)
    }

    /// Draws a value uniformly from `[0.0, 1.0)`.
    pub fn unit_f64(&mut self) -> f64 {
        self.rng.gen::<f64>()
    }

    /// Returns true with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        let p = p.clamp(0.0, 1.0);
        self.rng.gen_bool(p)
    }

    /// Picks a uniformly random element of `items`, or `None` if empty.
    pub fn choose<'a, T>(&mut self, items: &'a [T]) -> Option<&'a T> {
        if items.is_empty() {
            None
        } else {
            let idx = self.below(items.len() as u64) as usize;
            Some(&items[idx])
        }
    }
}

impl rand::RngCore for StreamRng {
    fn next_u32(&mut self) -> u32 {
        self.rng.gen()
    }

    fn next_u64(&mut self) -> u64 {
        self.rng.gen()
    }

    fn fill_bytes(&mut self, dest: &mut [u8]) {
        rand::RngCore::fill_bytes(&mut self.rng, dest)
    }

    fn try_fill_bytes(&mut self, dest: &mut [u8]) -> Result<(), rand::Error> {
        rand::RngCore::try_fill_bytes(&mut self.rng, dest)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_sequence() {
        let mut a = StreamRng::from_seed(7);
        let mut b = StreamRng::from_seed(7);
        for _ in 0..32 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut a = StreamRng::from_seed(1);
        let mut b = StreamRng::from_seed(2);
        let same = (0..16).filter(|_| a.next_u64() == b.next_u64()).count();
        assert!(same < 16);
    }

    #[test]
    fn streams_are_independent_of_parent_draws() {
        let mut root = StreamRng::from_seed(99);
        let before: Vec<u64> = {
            let mut s = root.stream(5);
            (0..8).map(|_| s.next_u64()).collect()
        };
        // Drawing from the root must not perturb a re-derived stream.
        let _ = root.next_u64();
        let after: Vec<u64> = {
            let mut s = root.stream(5);
            (0..8).map(|_| s.next_u64()).collect()
        };
        assert_eq!(before, after);
    }

    #[test]
    fn below_stays_in_range() {
        let mut rng = StreamRng::from_seed(3);
        for _ in 0..1000 {
            assert!(rng.below(10) < 10);
        }
    }

    #[test]
    #[should_panic(expected = "bound must be positive")]
    fn below_zero_panics() {
        StreamRng::from_seed(0).below(0);
    }

    #[test]
    fn chance_extremes() {
        let mut rng = StreamRng::from_seed(11);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        // Out-of-range probabilities are clamped instead of panicking.
        assert!(rng.chance(2.0));
        assert!(!rng.chance(-1.0));
    }

    #[test]
    fn choose_handles_empty_and_nonempty() {
        let mut rng = StreamRng::from_seed(4);
        let empty: [u8; 0] = [];
        assert_eq!(rng.choose(&empty), None);
        let items = [10, 20, 30];
        let picked = *rng.choose(&items).unwrap();
        assert!(items.contains(&picked));
    }

    #[test]
    fn unit_f64_in_range() {
        let mut rng = StreamRng::from_seed(5);
        for _ in 0..100 {
            let x = rng.unit_f64();
            assert!((0.0..1.0).contains(&x));
        }
    }
}
