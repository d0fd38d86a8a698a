//! Shared deterministic test/bench helpers.
//!
//! The differential and fuzz suites all drive their inputs from the same
//! seeded SplitMix64 generator; until now each suite carried its own
//! copy. This crate is the single home for that generator so a seed
//! printed by one suite replays identically everywhere.
//!
//! SplitMix64 is chosen deliberately: it is tiny, has no state beyond a
//! single `u64`, passes through every value of its state exactly once,
//! and is trivially portable — the properties a *replayable* fuzz seed
//! needs. Nothing here is cryptographic.
//!
//! [`census`] holds the one counting allocator the allocation census
//! (`tests/census.rs` at the repository root) installs.

pub mod census;

/// The seeded SplitMix64 generator used by the differential/fuzz suites.
///
/// Construction from the same seed yields the same stream on every
/// platform; suites print their seed on failure so a run can be replayed
/// with `SplitMix64::new(seed)`.
#[derive(Clone, Debug)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// A generator whose stream is fully determined by `seed`.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// The next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// A draw in `[0, n)`. `n` must be nonzero.
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// A draw in `[0, n)` as a `usize` index (collection pickers).
    pub fn index(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// A draw in `[0, 1)` with 53 bits of precision.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A uniform draw in `[lo, hi)`.
    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    /// A fair coin flip.
    pub fn flag(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_stream() {
        let mut a = SplitMix64::new(0x5EED);
        let mut b = SplitMix64::new(0x5EED);
        for _ in 0..64 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn known_first_draw() {
        // Pin the stream so a silent algorithm change cannot invalidate
        // seeds recorded in old failure logs.
        let mut g = SplitMix64::new(0);
        assert_eq!(g.next_u64(), 0xE220_A839_7B1D_CDAF);
    }

    #[test]
    fn unit_in_range() {
        let mut g = SplitMix64::new(42);
        for _ in 0..1000 {
            let u = g.unit();
            assert!((0.0..1.0).contains(&u));
        }
    }

    #[test]
    fn range_respects_bounds() {
        let mut g = SplitMix64::new(7);
        for _ in 0..1000 {
            let x = g.range(-2.5, 3.5);
            assert!((-2.5..3.5).contains(&x));
        }
    }

    #[test]
    fn below_is_bounded() {
        let mut g = SplitMix64::new(9);
        for _ in 0..1000 {
            assert!(g.below(17) < 17);
        }
    }
}
