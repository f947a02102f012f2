//! GUID generation, including faulty clients.
//!
//! Gnutella queries carry a 128-bit GUID chosen by the *issuing client*.
//! The paper discovered that some clients generate them incorrectly —
//! different queries sharing a GUID — and had to clean the trace. To
//! exercise that pipeline end-to-end, a configurable fraction of
//! simulated nodes run a [`GuidGen::Faulty`] generator that draws from a
//! tiny per-node pool instead of fresh randomness.

use arq_simkern::Rng64;
use arq_trace::record::Guid;

/// Per-node GUID generator.
#[derive(Debug, Clone)]
pub enum GuidGen {
    /// Correct client: fresh 128 random bits each time.
    Proper,
    /// Faulty client: cycles through a small fixed pool, reproducing the
    /// duplicate-GUID pathology in the paper's §IV-A.
    Faulty {
        /// The node's few reusable GUIDs.
        pool: Vec<Guid>,
        /// Next pool index to hand out.
        cursor: usize,
    },
}

impl GuidGen {
    /// Creates a faulty generator with `pool_size` reusable GUIDs.
    pub fn faulty(pool_size: usize, rng: &mut Rng64) -> Self {
        assert!(pool_size >= 1, "faulty pool must hold at least one GUID");
        let pool = (0..pool_size).map(|_| random_guid(rng)).collect();
        GuidGen::Faulty { pool, cursor: 0 }
    }

    /// Produces the next GUID for this node.
    pub fn next(&mut self, rng: &mut Rng64) -> Guid {
        match self {
            GuidGen::Proper => random_guid(rng),
            GuidGen::Faulty { pool, cursor } => {
                let g = pool[*cursor % pool.len()];
                *cursor += 1;
                g
            }
        }
    }

    /// Whether this generator is the faulty variant.
    pub fn is_faulty(&self) -> bool {
        matches!(self, GuidGen::Faulty { .. })
    }
}

fn random_guid(rng: &mut Rng64) -> Guid {
    Guid((u128::from(rng.next_u64()) << 64) | u128::from(rng.next_u64()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn proper_guids_are_distinct() {
        let mut rng = Rng64::seed_from(1);
        let mut gen = GuidGen::Proper;
        let guids: HashSet<Guid> = (0..10_000).map(|_| gen.next(&mut rng)).collect();
        assert_eq!(guids.len(), 10_000);
        assert!(!gen.is_faulty());
    }

    #[test]
    fn faulty_guids_repeat() {
        let mut rng = Rng64::seed_from(2);
        let mut gen = GuidGen::faulty(3, &mut rng);
        let guids: Vec<Guid> = (0..9).map(|_| gen.next(&mut rng)).collect();
        assert_eq!(guids[0], guids[3]);
        assert_eq!(guids[1], guids[4]);
        assert_eq!(guids[2], guids[8]);
        let distinct: HashSet<_> = guids.iter().collect();
        assert_eq!(distinct.len(), 3);
        assert!(gen.is_faulty());
    }

    /// Faulty generators only ever emit GUIDs from their pool, and
    /// cycle through all of it.
    #[test]
    fn faulty_guids_cycle_their_pool() {
        let mut draw = Rng64::seed_from(11);
        for seed in 0..64 {
            let (pool_size, draws) = (1 + draw.index(7), 1 + draw.index(49));
            let mut rng = Rng64::seed_from(seed);
            let mut gen = GuidGen::faulty(pool_size, &mut rng);
            let GuidGen::Faulty { pool, .. } = gen.clone() else {
                unreachable!("faulty() builds a faulty generator")
            };
            let seen: HashSet<Guid> = (0..draws).map(|_| gen.next(&mut rng)).collect();
            assert!(seen.iter().all(|g| pool.contains(g)), "seed {seed}");
            assert_eq!(seen.len(), pool_size.min(draws), "seed {seed}");
        }
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn faulty_pool_must_be_nonempty() {
        GuidGen::faulty(0, &mut Rng64::seed_from(3));
    }
}
