//! Seeded input generation: every workload input derives from the
//! `--seed` argument through [`rng`] and [`derive`], so one seed always
//! yields the same inputs.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

/// A generator for one named stream of randomness (`tag`) of the
/// workload seed.
#[must_use]
pub fn rng(seed: u64, tag: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ tag.wrapping_mul(0xD6E8_FEB8_6659_FD93))
}

/// An independent seed for one named stream of randomness (`tag`)
/// derived from the workload seed.
#[must_use]
pub fn derive(seed: u64, tag: u64) -> u64 {
    rng(seed, tag).next_u64()
}

/// FNV-1a, the digest the runs print so outputs of one seed can be
/// compared across runs.
#[derive(Debug, Clone, Copy)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Fold bytes into the digest.
    pub fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Fold one integer into the digest.
    pub fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    /// Fold one float, by its bits, into the digest.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// The digest value.
    #[must_use]
    pub fn finish(self) -> u64 {
        self.0
    }
}
