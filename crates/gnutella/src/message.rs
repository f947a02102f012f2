//! Protocol messages.
//!
//! Only the two message types that matter for search are modelled: the
//! query descriptor and the query hit. (Gnutella's Ping/Pong neighbor
//! discovery is subsumed by the overlay substrate.)

use arq_content::QueryKey;
use arq_overlay::NodeId;
use arq_trace::record::Guid;

/// A query descriptor in flight.
///
/// As in Gnutella, the message does *not* name the issuing node — replies
/// travel the reverse path, preserving querier anonymity (a property the
/// paper calls out for association routing as well).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueryMsg {
    /// GUID stamped by the issuer (faulty clients may reuse them).
    pub guid: Guid,
    /// What is being searched for.
    pub key: QueryKey,
    /// Remaining time-to-live; a node forwards only if `ttl > 1` after
    /// decrement.
    pub ttl: u32,
    /// Hops travelled so far.
    pub hops: u32,
}

/// Gnutella descriptor header: 16-byte GUID + type + TTL + hops +
/// 4-byte payload length.
pub const HEADER_BYTES: u64 = 23;
/// Query payload: 2-byte minimum-speed field plus a typical 20-byte
/// search string (the workspace's catalog renders ~20-char strings).
pub const QUERY_PAYLOAD_BYTES: u64 = 2 + 20;
/// QueryHit payload: count + port + IPv4 + speed (11 bytes), one result
/// entry (8-byte index/size + ~20-byte name + terminator), and the
/// 16-byte servent id.
pub const HIT_PAYLOAD_BYTES: u64 = 11 + 8 + 21 + 16;

impl QueryMsg {
    /// Bytes this descriptor occupies on the wire.
    pub const fn wire_size(&self) -> u64 {
        HEADER_BYTES + QUERY_PAYLOAD_BYTES
    }

    /// Wire size of a query whose rendered search string is
    /// `search_len` bytes: header + 2-byte minimum speed + string +
    /// NUL terminator. Used by the link layer, which sizes messages
    /// from the content model instead of the nominal constant.
    pub const fn wire_size_for(search_len: usize) -> u64 {
        HEADER_BYTES + 2 + search_len as u64 + 1
    }

    /// The message as it looks after one more hop, or `None` when the TTL
    /// is exhausted and the message must not be relayed further.
    pub fn hop(&self) -> Option<QueryMsg> {
        if self.ttl <= 1 {
            return None;
        }
        Some(QueryMsg {
            ttl: self.ttl - 1,
            hops: self.hops + 1,
            ..*self
        })
    }
}

/// A query hit travelling back along the reverse path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HitMsg {
    /// GUID of the query being answered.
    pub guid: Guid,
    /// The node actually sharing the file.
    pub responder: NodeId,
    /// What was matched.
    pub key: QueryKey,
    /// Hops the *query* travelled to reach the responder.
    pub query_hops: u32,
}

impl HitMsg {
    /// Bytes this hit occupies on the wire.
    pub const fn wire_size(&self) -> u64 {
        HEADER_BYTES + HIT_PAYLOAD_BYTES
    }

    /// Wire size of a hit whose result name is `result_len` bytes:
    /// header + result-set preamble (11) + index/size (8) + name +
    /// double-NUL terminator (2) + servent id (16). Used by the link
    /// layer, which sizes messages from the content model.
    pub const fn wire_size_for(result_len: usize) -> u64 {
        HEADER_BYTES + 11 + 8 + result_len as u64 + 2 + 16
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use arq_content::{FileId, Topic};

    fn msg(ttl: u32) -> QueryMsg {
        QueryMsg {
            guid: Guid(7),
            key: QueryKey {
                file: FileId(1),
                topic: Topic(2),
            },
            ttl,
            hops: 0,
        }
    }

    #[test]
    fn hop_decrements_and_counts() {
        let m = msg(3);
        let h1 = m.hop().unwrap();
        assert_eq!(h1.ttl, 2);
        assert_eq!(h1.hops, 1);
        let h2 = h1.hop().unwrap();
        assert_eq!(h2.ttl, 1);
        assert_eq!(h2.hops, 2);
        assert!(h2.hop().is_none(), "ttl 1 must stop relaying");
    }

    /// A query relays exactly `ttl − 1` times before dying, whatever the
    /// starting TTL.
    #[test]
    fn ttl_bounds_hop_chain() {
        for ttl in 0..50 {
            let mut m = msg(ttl);
            let mut relays = 0;
            while let Some(next) = m.hop() {
                m = next;
                relays += 1;
                assert!(relays < 100, "runaway relay chain at ttl {ttl}");
            }
            assert_eq!(relays, ttl.saturating_sub(1), "ttl {ttl}");
            assert_eq!(m.hops, ttl.saturating_sub(1), "ttl {ttl}");
        }
    }

    #[test]
    fn ttl_zero_never_relays() {
        assert!(msg(0).hop().is_none());
    }

    #[test]
    fn wire_sizes_are_plausible() {
        let m = msg(3);
        assert_eq!(m.wire_size(), 45);
        let h = HitMsg {
            guid: Guid(1),
            responder: NodeId(0),
            key: m.key,
            query_hops: 2,
        };
        assert_eq!(h.wire_size(), 79);
        assert!(h.wire_size() > m.wire_size(), "hits carry result payloads");
    }

    #[test]
    fn content_sized_wire_sizes_track_string_lengths() {
        // A 19-byte search string reproduces the nominal constant
        // (2 + 20 payload = 2-byte speed + 19 chars + NUL).
        assert_eq!(
            QueryMsg::wire_size_for(19),
            HEADER_BYTES + QUERY_PAYLOAD_BYTES
        );
        assert_eq!(HitMsg::wire_size_for(19), HEADER_BYTES + HIT_PAYLOAD_BYTES);
        assert_eq!(
            QueryMsg::wire_size_for(30) - QueryMsg::wire_size_for(19),
            11
        );
        assert!(HitMsg::wire_size_for(0) > QueryMsg::wire_size_for(0));
    }

    #[test]
    fn guid_and_key_preserved_across_hops() {
        let m = msg(5);
        let h = m.hop().unwrap();
        assert_eq!(h.guid, m.guid);
        assert_eq!(h.key, m.key);
    }
}
