//! GUID generation, including faulty clients.
//!
//! Gnutella queries carry a 128-bit GUID chosen by the *issuing client*.
//! The paper discovered that some clients generate them incorrectly —
//! different queries sharing a GUID — and had to clean the trace. To
//! exercise that pipeline end-to-end, a configurable fraction of
//! simulated nodes run a faulty generator that cycles through a tiny
//! per-node pool instead of drawing fresh randomness ([`GuidGens`]).

use arq_simkern::Rng64;
use arq_trace::record::Guid;

/// Every node's GUID generator, in two flat tables: a per-node state
/// and one arena holding every faulty node's pool, so a network's
/// generators are built and freed in a few allocations.
#[derive(Debug, Clone, Default)]
pub struct GuidGens {
    gens: Vec<GuidGen>,
    pools: Vec<Guid>,
}

/// One node's generator state.
#[derive(Debug, Clone, Copy)]
enum GuidGen {
    /// Correct client: fresh 128 random bits each time.
    Proper,
    /// Faulty client: cycles through its pool, `pools[start..start +
    /// len]`, reproducing the duplicate-GUID pathology in the paper's
    /// §IV-A; `cursor` is the next pool index to hand out.
    Faulty { start: u32, len: u32, cursor: u32 },
}

impl GuidGens {
    /// No generators, with room for `nodes`.
    pub fn with_capacity(nodes: usize) -> Self {
        GuidGens {
            gens: Vec::with_capacity(nodes),
            pools: Vec::new(),
        }
    }

    /// Appends a correct client's generator and returns its node index.
    pub fn push_proper(&mut self) -> usize {
        self.gens.push(GuidGen::Proper);
        self.gens.len() - 1
    }

    /// Appends a faulty client's generator with `pool_size` reusable
    /// GUIDs drawn from `rng`, and returns its node index.
    pub fn push_faulty(&mut self, pool_size: usize, rng: &mut Rng64) -> usize {
        assert!(pool_size >= 1, "faulty pool must hold at least one GUID");
        let start = self.pools.len();
        self.pools.extend((0..pool_size).map(|_| random_guid(rng)));
        let slot = |x: usize| u32::try_from(x).expect("GUID pools exceed u32::MAX entries");
        self.gens.push(GuidGen::Faulty {
            start: slot(start),
            len: slot(pool_size),
            cursor: 0,
        });
        self.gens.len() - 1
    }

    /// Produces the next GUID of node `node`.
    pub fn next(&mut self, node: usize, rng: &mut Rng64) -> Guid {
        match &mut self.gens[node] {
            GuidGen::Proper => random_guid(rng),
            GuidGen::Faulty { start, len, cursor } => {
                let g = self.pools[*start as usize + *cursor as usize];
                *cursor = (*cursor + 1) % *len;
                g
            }
        }
    }

    /// Whether node `node` runs the faulty generator.
    pub fn is_faulty(&self, node: usize) -> bool {
        matches!(self.gens[node], GuidGen::Faulty { .. })
    }

    /// The reusable GUIDs of node `node` (empty for a correct client).
    pub fn pool(&self, node: usize) -> &[Guid] {
        match self.gens[node] {
            GuidGen::Proper => &[],
            GuidGen::Faulty { start, len, .. } => &self.pools[start as usize..][..len as usize],
        }
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
        let mut gens = GuidGens::default();
        let node = gens.push_proper();
        let guids: HashSet<Guid> = (0..10_000).map(|_| gens.next(node, &mut rng)).collect();
        assert_eq!(guids.len(), 10_000);
        assert!(!gens.is_faulty(node));
        assert!(gens.pool(node).is_empty());
    }

    #[test]
    fn faulty_guids_repeat() {
        let mut rng = Rng64::seed_from(2);
        let mut gens = GuidGens::default();
        let node = gens.push_faulty(3, &mut rng);
        let guids: Vec<Guid> = (0..9).map(|_| gens.next(node, &mut rng)).collect();
        assert_eq!(guids[0], guids[3]);
        assert_eq!(guids[1], guids[4]);
        assert_eq!(guids[2], guids[8]);
        let distinct: HashSet<_> = guids.iter().collect();
        assert_eq!(distinct.len(), 3);
        assert!(gens.is_faulty(node));
    }

    /// Faulty generators only ever emit GUIDs from their own pool, cycle
    /// through all of it in order, and draw from `rng` only to fill it,
    /// however the nodes' generators and calls interleave.
    #[test]
    fn faulty_guids_cycle_their_pool() {
        let mut draw = Rng64::seed_from(11);
        for seed in 0..64 {
            let mut rng = Rng64::seed_from(seed);
            let mut gens = GuidGens::with_capacity(4);
            let sizes: Vec<usize> = (0..4).map(|_| draw.index(8)).collect();
            for &size in &sizes {
                if size == 0 {
                    gens.push_proper();
                } else {
                    gens.push_faulty(size, &mut rng);
                }
            }
            let mut handed = [0; 4];
            for _ in 0..1 + draw.index(49) {
                let node = draw.index(4);
                let before = rng.clone().next_u64();
                let g = gens.next(node, &mut rng);
                if sizes[node] == 0 {
                    assert!(!gens.is_faulty(node));
                    continue;
                }
                assert_eq!(rng.clone().next_u64(), before, "seed {seed}: faulty draw");
                assert_eq!(
                    g,
                    gens.pool(node)[handed[node] % sizes[node]],
                    "seed {seed}"
                );
                handed[node] += 1;
            }
            for (node, &size) in sizes.iter().enumerate() {
                assert_eq!(gens.pool(node).len(), size);
                let distinct: HashSet<_> = gens.pool(node).iter().collect();
                assert_eq!(distinct.len(), size, "seed {seed}: pool repeats");
            }
        }
    }

    #[test]
    #[should_panic(expected = "at least one")]
    fn faulty_pool_must_be_nonempty() {
        GuidGens::default().push_faulty(0, &mut Rng64::seed_from(3));
    }
}
