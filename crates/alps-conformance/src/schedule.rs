//! Deterministic randomized schedule generation.
//!
//! A schedule is a flat list of [`Op`]s derived from a single `u64` seed.
//! Victim indices are resolved modulo the live population at drive time,
//! so every generated schedule is valid against any population history.

use alps_core::Nanos;

/// Splittable LCG: deterministic, dependency-free, good enough to shake
/// out schedules.
#[derive(Debug, Clone)]
pub struct Lcg(u64);

impl Lcg {
    /// Seeded constructor.
    pub fn new(seed: u64) -> Self {
        Lcg(seed ^ 0x9E37_79B9_7F4A_7C15)
    }

    /// Next raw value (upper bits of the LCG state).
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        self.0 >> 33
    }

    /// Uniform draw in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        assert!(n > 0);
        self.next_u64() % n
    }

    /// True with probability `num / den`.
    pub fn chance(&mut self, num: u64, den: u64) -> bool {
        self.below(den) < num
    }

    /// A nanosecond amount in `0..limit`.
    pub fn nanos_below(&mut self, limit: Nanos) -> Nanos {
        Nanos(self.below(limit.0.max(1)))
    }
}

/// One step of a generated schedule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Register a process/principal with this share.
    Add {
        /// The share to register with.
        share: u64,
    },
    /// Remove the `victim % live`-th live entity.
    Remove {
        /// Victim selector (resolved modulo the live population).
        victim: u64,
    },
    /// Change the share of the `victim % live`-th live entity.
    SetShare {
        /// Victim selector (resolved modulo the live population).
        victim: u64,
        /// The new share.
        share: u64,
    },
    /// Run this many consecutive quanta.
    Quantum {
        /// Number of back-to-back quanta.
        repeat: u32,
    },
}

/// Generate a schedule of `len` ops from `seed`. Quanta dominate (so
/// cycles actually complete); registration outweighs removal (so
/// populations grow into the interesting regime).
pub fn generate(seed: u64, len: usize) -> Vec<Op> {
    let mut rng = Lcg::new(seed ^ 0x0051_0051_0051_0051);
    let mut ops = Vec::with_capacity(len + 1);
    // Ensure at least one process exists before anything else happens.
    ops.push(Op::Add {
        share: 1 + rng.below(8),
    });
    for _ in 0..len {
        let roll = rng.below(10);
        ops.push(match roll {
            0 | 1 => Op::Add {
                share: 1 + rng.below(8),
            },
            2 => Op::Remove {
                victim: rng.next_u64(),
            },
            3 => Op::SetShare {
                victim: rng.next_u64(),
                share: 1 + rng.below(8),
            },
            _ => Op::Quantum {
                repeat: 1 + rng.below(4) as u32,
            },
        });
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(generate(42, 50), generate(42, 50));
        assert_ne!(generate(42, 50), generate(43, 50));
    }

    #[test]
    fn schedules_start_with_an_add() {
        for seed in 0..32 {
            assert!(matches!(generate(seed, 10)[0], Op::Add { .. }));
        }
    }
}
