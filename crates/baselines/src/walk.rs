//! k-random walks (Gkantsidis, Mihail, Saberi — INFOCOM'04).
//!
//! The issuer dispatches `k` walkers; every relay forwards a walker to
//! exactly one random neighbor. Walkers carry a large TTL because each
//! step costs only one message; a walker that reaches a content holder
//! produces a hit and (in our model) the remaining TTL still limits total
//! work. "This approach may require more time to locate the content, as
//! the number of nodes being searched at a given time may be much
//! smaller" — E7 shows exactly that trade-off.

use arq_gnutella::policy::{ForwardCtx, ForwardingPolicy};
use arq_overlay::NodeId;
use arq_simkern::Rng64;

/// The k-walker policy.
#[derive(Debug, Clone)]
pub struct KRandomWalk {
    k: usize,
}

impl KRandomWalk {
    /// Creates the policy with `k` walkers at the issuer.
    pub fn new(k: usize) -> Self {
        assert!(k >= 1, "need at least one walker");
        KRandomWalk { k }
    }

    /// The configured walker count.
    pub fn k(&self) -> usize {
        self.k
    }
}

impl ForwardingPolicy for KRandomWalk {
    fn name(&self) -> &'static str {
        "k-walk"
    }

    fn select(&mut self, ctx: &ForwardCtx<'_>, rng: &mut Rng64) -> Vec<NodeId> {
        let mut out = Vec::new();
        self.select_into(ctx, rng, &mut out);
        out
    }

    fn select_into(&mut self, ctx: &ForwardCtx<'_>, rng: &mut Rng64, out: &mut Vec<NodeId>) {
        if ctx.from.is_none() {
            // Issuer: dispatch k walkers to distinct random neighbors.
            let n = ctx.candidates.len();
            rng.sample_into(n, self.k.min(n), out, |i| ctx.candidates[i]);
        } else {
            // Relay: the walker moves to one random neighbor.
            out.push(*rng.pick(ctx.candidates));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arq_content::{FileId, QueryKey, Topic};
    use arq_gnutella::QueryMsg;
    use arq_trace::record::Guid;

    fn msg() -> QueryMsg {
        QueryMsg {
            guid: Guid(1),
            key: QueryKey {
                file: FileId(0),
                topic: Topic(0),
            },
            ttl: 50,
            hops: 0,
        }
    }

    #[test]
    fn issuer_dispatches_k_distinct_walkers() {
        let mut p = KRandomWalk::new(3);
        let mut rng = Rng64::seed_from(1);
        let candidates: Vec<NodeId> = (0..10).map(NodeId).collect();
        let m = msg();
        let ctx = ForwardCtx {
            node: NodeId(99),
            from: None,
            query: &m,
            candidates: &candidates,
        };
        let sel = p.select(&ctx, &mut rng);
        assert_eq!(sel.len(), 3);
        let set: std::collections::HashSet<_> = sel.iter().collect();
        assert_eq!(set.len(), 3, "walkers not distinct");
    }

    #[test]
    fn relay_forwards_exactly_one() {
        let mut p = KRandomWalk::new(4);
        let mut rng = Rng64::seed_from(2);
        let candidates: Vec<NodeId> = (0..10).map(NodeId).collect();
        let m = msg();
        for _ in 0..20 {
            let ctx = ForwardCtx {
                node: NodeId(99),
                from: Some(NodeId(5)),
                query: &m,
                candidates: &candidates,
            };
            let sel = p.select(&ctx, &mut rng);
            assert_eq!(sel.len(), 1);
            assert!(candidates.contains(&sel[0]));
        }
    }

    #[test]
    fn small_neighborhoods_cap_k() {
        let mut p = KRandomWalk::new(16);
        let mut rng = Rng64::seed_from(3);
        let candidates = vec![NodeId(1), NodeId(2)];
        let m = msg();
        let ctx = ForwardCtx {
            node: NodeId(0),
            from: None,
            query: &m,
            candidates: &candidates,
        };
        assert_eq!(p.select(&ctx, &mut rng).len(), 2);
    }

    /// The allocating selection `select_into` replaced, on the issuer
    /// path and the relay path.
    fn reference_select(k: usize, ctx: &ForwardCtx<'_>, rng: &mut Rng64) -> Vec<NodeId> {
        if ctx.from.is_none() {
            let k = k.min(ctx.candidates.len());
            rng.sample_indices(ctx.candidates.len(), k)
                .into_iter()
                .map(|i| ctx.candidates[i])
                .collect()
        } else {
            vec![*rng.pick(ctx.candidates)]
        }
    }

    /// Over seeded contexts, `select_into` appends exactly the targets
    /// the allocating selection returned, after whatever the buffer
    /// held, and leaves the stream where it did; `select` agrees.
    #[test]
    fn select_into_equals_the_allocating_selection() {
        let mut shape = Rng64::seed_from(0xA1C);
        let m = msg();
        let mut out = Vec::new();
        for _ in 0..2_000 {
            let k = 1 + shape.index(6);
            let candidates: Vec<NodeId> = (0..1 + shape.index(12))
                .map(|_| NodeId(shape.below(1_000) as u32))
                .collect();
            let from = shape.chance(0.5).then(|| NodeId(shape.below(1_000) as u32));
            let ctx = ForwardCtx {
                node: NodeId(5_000),
                from,
                query: &m,
                candidates: &candidates,
            };
            let seed = shape.next_u64();
            let (mut a, mut b, mut c) = (
                Rng64::seed_from(seed),
                Rng64::seed_from(seed),
                Rng64::seed_from(seed),
            );
            out.truncate(shape.index(out.len() + 1));
            let held = out.len();
            let mut p = KRandomWalk::new(k);
            p.select_into(&ctx, &mut a, &mut out);
            let want = reference_select(k, &ctx, &mut b);
            assert_eq!(out[held..], want[..], "k {k} from {from:?}");
            assert_eq!(p.select(&ctx, &mut c), want);
            let next = b.next_u64();
            assert_eq!((a.next_u64(), c.next_u64()), (next, next), "draws");
        }
    }

    #[test]
    #[should_panic(expected = "at least one walker")]
    fn rejects_zero_walkers() {
        KRandomWalk::new(0);
    }
}
