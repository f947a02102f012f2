//! Byte-accurate deterministic link layer: per-node asymmetric
//! bandwidth, bounded byte buffers, per-link latency jitter, and seeded
//! loss — the fault model v2.
//!
//! The model follows the shape of real network simulators (ce-netsim):
//! a message travels `send → upload buffer → upload channel → link
//! (propagation + jitter, loss) → download channel → download buffer →
//! deliver`. Everything advances on `simkern` ticks — there is no wall
//! clock anywhere — so a run is byte-identical at any `ARQ_THREADS`.
//!
//! ## Tick accounting
//!
//! Bandwidth is configured in bytes/tick (`f64`) but stored as integer
//! **milli-bytes per tick** so all arithmetic is exact: transmitting
//! `b` bytes over a channel of rate `r` mbpt takes `ceil(b·1000 / r)`
//! ticks. Each node carries two virtual-time counters, `up_free` and
//! `down_free` — the tick at which its upload (download) channel next
//! becomes idle. A send at `now` starts at `max(now, up_free)` and the
//! channel is work-conserving FIFO by construction. Queued bytes at
//! `now` are recovered from the counter as `(free − now) · r / 1000`,
//! which is what the bounded buffers are checked against: a message
//! that would push the backlog past the configured byte budget is
//! dropped with the distinct [`Transmission::BufferDropped`] outcome —
//! never counted as link loss.
//!
//! ## Relationship to [`crate::faults::FaultPlan`]
//!
//! [`LinkState`] is the only process that loses or delays a message.
//! The fault plan's `loss` and `jitter` are spec sugar for this plan's:
//! `Network::build` passes them to [`LinkState::new`], where loss
//! composes as `1 − (1−a)(1−b)` and jitter adds, so a message is rolled
//! exactly once, at send, on the `"links"` stream — whichever spec
//! asked for it. Crash and silent free-rider behavior are node-level
//! and stay with [`crate::faults::FaultState`]. When neither plan
//! impairs anything the simulator constructs no [`LinkState`] and draws
//! no RNG, so the run is byte-identical to one with no plan at all.

use arq_content::FileId;
use arq_overlay::NodeId;
use arq_simkern::Rng64;

/// Declarative link-layer configuration (the `links(...)` spec).
///
/// All-zero (the default) is a no-op: the simulator behaves exactly as
/// if no plan were configured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkPlan {
    /// Upload bandwidth in bytes/tick for ordinary nodes. `0` means
    /// unconstrained (infinite-rate channel).
    pub up: f64,
    /// Download bandwidth in bytes/tick. `0` means unconstrained.
    pub down: f64,
    /// Upload buffer budget in bytes. `0` means unbounded; requires
    /// `up > 0` when set (a buffer without a channel is meaningless).
    pub up_buf: u64,
    /// Download buffer budget in bytes. `0` means unbounded; requires
    /// `down > 0` when set.
    pub down_buf: u64,
    /// Per-message link-loss probability in `[0, 1)`.
    pub loss: f64,
    /// Maximum extra propagation jitter in ticks (uniform `[0, jitter)`).
    pub jitter: u64,
    /// Fraction of nodes modeled as free-riders with the asymmetric
    /// low-upload profile, in `[0, 1)`.
    pub riders: f64,
    /// Upload bandwidth in bytes/tick for free-rider nodes; required
    /// positive when `riders > 0`.
    pub rider_up: f64,
}

impl Default for LinkPlan {
    fn default() -> Self {
        LinkPlan {
            up: 0.0,
            down: 0.0,
            up_buf: 0,
            down_buf: 0,
            loss: 0.0,
            jitter: 0,
            riders: 0.0,
            rider_up: 0.0,
        }
    }
}

/// Why a [`LinkPlan`] is invalid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkPlanError {
    /// A probability field fell outside `[0, 1)`.
    RateOutOfRange {
        /// Which field.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A bandwidth field was negative, not finite, or positive but
    /// below the 0.001 bytes/tick resolution rates are kept to.
    BadBandwidth {
        /// Which field.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// A byte buffer was bounded without the matching channel rate.
    BufferWithoutBandwidth {
        /// Which buffer field.
        field: &'static str,
    },
    /// `riders > 0` without a positive `rider_up` rate.
    RiderWithoutUplink,
}

impl std::fmt::Display for LinkPlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinkPlanError::RateOutOfRange { field, value } => {
                write!(f, "link rate `{field}` must be in [0, 1), got {value}")
            }
            LinkPlanError::BadBandwidth { field, value } => {
                write!(
                    f,
                    "link bandwidth `{field}` must be finite and either 0 (unconstrained) or \
                     large enough not to round to 0 at the 0.001 bytes/tick resolution, got {value}"
                )
            }
            LinkPlanError::BufferWithoutBandwidth { field } => {
                write!(
                    f,
                    "link buffer `{field}` requires the matching bandwidth to be positive"
                )
            }
            LinkPlanError::RiderWithoutUplink => {
                write!(f, "link free-riders require `riderup` to be positive")
            }
        }
    }
}

impl std::error::Error for LinkPlanError {}

impl LinkPlan {
    /// Checks every field's range.
    pub fn validate(&self) -> Result<(), LinkPlanError> {
        for (field, value) in [("loss", self.loss), ("riders", self.riders)] {
            if !(0.0..1.0).contains(&value) {
                return Err(LinkPlanError::RateOutOfRange { field, value });
            }
        }
        for (field, value) in [
            ("up", self.up),
            ("down", self.down),
            ("riderup", self.rider_up),
        ] {
            // A positive rate that rounds to 0 milli-bytes/tick would
            // read as "unconstrained" everywhere below.
            if !value.is_finite() || value < 0.0 || (value > 0.0 && milli(value) == 0) {
                return Err(LinkPlanError::BadBandwidth { field, value });
            }
        }
        if self.up_buf > 0 && self.up <= 0.0 {
            return Err(LinkPlanError::BufferWithoutBandwidth { field: "upbuf" });
        }
        if self.down_buf > 0 && self.down <= 0.0 {
            return Err(LinkPlanError::BufferWithoutBandwidth { field: "downbuf" });
        }
        if self.riders > 0.0 && self.rider_up <= 0.0 {
            return Err(LinkPlanError::RiderWithoutUplink);
        }
        Ok(())
    }

    /// Whether this plan changes nothing (the zero-capacity config).
    pub fn is_noop(&self) -> bool {
        self.up == 0.0
            && self.down == 0.0
            && self.up_buf == 0
            && self.down_buf == 0
            && self.loss == 0.0
            && self.jitter == 0
            && self.riders == 0.0
    }

    /// Canonical spec string, mirroring the registry's `links(...)` form.
    pub fn describe(&self) -> String {
        format!(
            "links(up={},down={},upbuf={},downbuf={},loss={},jitter={},riders={},riderup={})",
            self.up,
            self.down,
            self.up_buf,
            self.down_buf,
            self.loss,
            self.jitter,
            self.riders,
            self.rider_up
        )
    }
}

/// Outcome of offering one message to the link layer at send time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transmission {
    /// The message survives; deliver it at the given tick (upload
    /// queueing + transmit + propagation + jitter + download queueing
    /// + receive).
    Delivered {
        /// Absolute delivery tick.
        at: u64,
    },
    /// Dropped on the link by the seeded loss process (counts toward
    /// `lost_messages`).
    Lost,
    /// Dropped by a full upload or download buffer (counts toward
    /// `buffer_dropped`, never toward `lost_messages`).
    BufferDropped,
}

/// Converts a bytes/tick rate to integer milli-bytes per tick.
fn milli(rate: f64) -> u64 {
    (rate * 1000.0).round() as u64
}

/// Ticks to move `bytes` through a channel of `mbpt` milli-bytes/tick.
/// An unconstrained channel (`mbpt == 0`) is instantaneous.
#[inline]
fn tx_ticks(bytes: u64, mbpt: u64) -> u64 {
    if mbpt == 0 {
        0
    } else {
        (bytes * 1000).div_ceil(mbpt)
    }
}

/// Bytes still queued on a channel whose virtual idle time is `free`,
/// observed at `now`.
#[inline]
fn queued_bytes(free: u64, now: u64, mbpt: u64) -> u64 {
    free.saturating_sub(now).saturating_mul(mbpt) / 1000
}

/// Live link-layer state for one run: per-node channel clocks, byte
/// budgets, free-rider assignment, and the seeded loss/jitter stream.
#[derive(Debug, Clone)]
pub struct LinkState {
    up_mbpt: u64,
    down_mbpt: u64,
    rider_mbpt: u64,
    up_buf: u64,
    down_buf: u64,
    loss: f64,
    jitter: u64,
    rng: Rng64,
    rider: Vec<bool>,
    up_free: Vec<u64>,
    down_free: Vec<u64>,
    up_bytes: Vec<u64>,
    down_bytes: Vec<u64>,
    query_sizes: Vec<u32>,
    hit_sizes: Vec<u32>,
    lost: u64,
    buffer_dropped: u64,
    bytes_sent: u64,
    bytes_delivered: u64,
    bytes_lost: u64,
    bytes_buffer_dropped: u64,
    send_done: u64,
}

impl LinkState {
    /// Builds link state for `nodes` nodes. `extra_loss`/`extra_jitter`
    /// are a coexisting [`crate::faults::FaultPlan`]'s loss and jitter,
    /// lowered into the link so each message is rolled exactly once.
    /// `query_sizes`/`hit_sizes` are per-file wire sizes derived from
    /// the content model; `exempt` nodes (the trace collector) are
    /// never assigned the free-rider profile. `rng` must be a dedicated
    /// stream (label `"links"`).
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        plan: &LinkPlan,
        nodes: usize,
        extra_loss: f64,
        extra_jitter: u64,
        query_sizes: Vec<u32>,
        hit_sizes: Vec<u32>,
        exempt: &[NodeId],
        mut rng: Rng64,
    ) -> Self {
        plan.validate().expect("invalid link plan");
        let loss = 1.0 - (1.0 - plan.loss) * (1.0 - extra_loss);
        let jitter = plan.jitter.saturating_add(extra_jitter);
        let rider = if plan.riders > 0.0 {
            (0..nodes)
                .map(|i| !exempt.contains(&NodeId(i as u32)) && rng.chance(plan.riders))
                .collect()
        } else {
            Vec::new()
        };
        LinkState {
            up_mbpt: milli(plan.up),
            down_mbpt: milli(plan.down),
            rider_mbpt: milli(plan.rider_up),
            up_buf: plan.up_buf,
            down_buf: plan.down_buf,
            loss,
            jitter,
            rng,
            rider,
            up_free: vec![0; nodes],
            down_free: vec![0; nodes],
            up_bytes: vec![0; nodes],
            down_bytes: vec![0; nodes],
            query_sizes,
            hit_sizes,
            lost: 0,
            buffer_dropped: 0,
            bytes_sent: 0,
            bytes_delivered: 0,
            bytes_lost: 0,
            bytes_buffer_dropped: 0,
            send_done: 0,
        }
    }

    /// Wire size of the query for `file`, from the content model.
    #[inline]
    pub fn query_size(&self, file: FileId) -> u64 {
        u64::from(self.query_sizes[file.0 as usize])
    }

    /// Wire size of a hit answering the query for `file`.
    #[inline]
    pub fn hit_size(&self, file: FileId) -> u64 {
        u64::from(self.hit_sizes[file.0 as usize])
    }

    /// Upload rate for `node` in milli-bytes/tick (free-riders get the
    /// asymmetric low-upload profile).
    #[inline]
    fn up_rate(&self, node: NodeId) -> u64 {
        if self.rider.get(node.index()).copied().unwrap_or(false) {
            self.rider_mbpt
        } else {
            self.up_mbpt
        }
    }

    /// Whether `node` carries the free-rider link profile.
    pub fn is_rider(&self, node: NodeId) -> bool {
        self.rider.get(node.index()).copied().unwrap_or(false)
    }

    /// Number of nodes assigned the free-rider profile.
    pub fn rider_count(&self) -> usize {
        self.rider.iter().filter(|r| **r).count()
    }

    /// Offers one `bytes`-sized message from `from` to `to` at `now`,
    /// with `prop` ticks of caller-drawn propagation latency. Advances
    /// channel clocks, rolls loss/jitter, checks both buffers, and
    /// returns the outcome. All RNG draws happen here, in a fixed
    /// order, on the dedicated link stream — and only for a non-zero
    /// rate, so a zero loss or jitter consumes no randomness.
    pub fn transmit(
        &mut self,
        now: u64,
        from: NodeId,
        to: NodeId,
        bytes: u64,
        prop: u64,
    ) -> Transmission {
        self.bytes_sent += bytes;
        let up_rate = self.up_rate(from);
        if self.up_buf > 0
            && up_rate > 0
            && queued_bytes(self.up_free[from.index()], now, up_rate) + bytes > self.up_buf
        {
            self.buffer_dropped += 1;
            self.bytes_buffer_dropped += bytes;
            return Transmission::BufferDropped;
        }
        let tx_start = now.max(self.up_free[from.index()]);
        let tx_done = tx_start.saturating_add(tx_ticks(bytes, up_rate));
        if up_rate > 0 {
            self.up_free[from.index()] = tx_done;
        }
        self.up_bytes[from.index()] += bytes;
        self.send_done = self.send_done.max(tx_done);
        if self.loss > 0.0 && self.rng.chance(self.loss) {
            self.lost += 1;
            self.bytes_lost += bytes;
            return Transmission::Lost;
        }
        let jitter = match self.jitter {
            0 => 0,
            max => self.rng.below(max),
        };
        let arrival = tx_done.saturating_add(prop).saturating_add(jitter);
        if self.down_buf > 0
            && self.down_mbpt > 0
            && queued_bytes(self.down_free[to.index()], arrival, self.down_mbpt) + bytes
                > self.down_buf
        {
            self.buffer_dropped += 1;
            self.bytes_buffer_dropped += bytes;
            return Transmission::BufferDropped;
        }
        let rx_start = arrival.max(self.down_free[to.index()]);
        let rx_done = rx_start.saturating_add(tx_ticks(bytes, self.down_mbpt));
        if self.down_mbpt > 0 {
            self.down_free[to.index()] = rx_done;
        }
        Transmission::Delivered { at: rx_done }
    }

    /// Records a message completing delivery at its destination.
    pub fn on_delivered(&mut self, to: NodeId, bytes: u64) {
        self.bytes_delivered += bytes;
        self.down_bytes[to.index()] += bytes;
    }

    /// Marks the start of a query attempt: [`LinkState::send_done`]
    /// will report the latest upload-completion tick of the attempt's
    /// sends (or `now` if nothing left the buffer).
    pub fn begin_attempt(&mut self, now: u64) {
        self.send_done = now;
    }

    /// Latest upload-completion tick since [`LinkState::begin_attempt`]
    /// — the point the retry deadline clock starts from.
    pub fn send_done(&self) -> u64 {
        self.send_done
    }

    /// Messages dropped by the seeded link-loss process.
    pub fn lost(&self) -> u64 {
        self.lost
    }

    /// Messages dropped by a full upload or download buffer.
    pub fn buffer_dropped(&self) -> u64 {
        self.buffer_dropped
    }

    /// Byte conservation ledger: `(sent, delivered, lost,
    /// buffer_dropped)`. At the end of a drained run,
    /// `sent == delivered + lost + buffer_dropped` (nothing in flight).
    pub fn byte_ledger(&self) -> (u64, u64, u64, u64) {
        (
            self.bytes_sent,
            self.bytes_delivered,
            self.bytes_lost,
            self.bytes_buffer_dropped,
        )
    }

    /// Per-node uploaded bytes (accepted onto the wire).
    pub fn node_up_bytes(&self) -> &[u64] {
        &self.up_bytes
    }

    /// Per-node downloaded (delivered) bytes.
    pub fn node_down_bytes(&self) -> &[u64] {
        &self.down_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sizes() -> (Vec<u32>, Vec<u32>) {
        (vec![45, 50], vec![79, 84])
    }

    fn plan() -> LinkPlan {
        LinkPlan {
            up: 10.0,
            down: 40.0,
            up_buf: 200,
            down_buf: 400,
            ..Default::default()
        }
    }

    fn state(plan: &LinkPlan) -> LinkState {
        let (q, h) = sizes();
        LinkState::new(plan, 4, 0.0, 0, q, h, &[], Rng64::seed_from(7))
    }

    #[test]
    fn default_plan_is_noop_and_valid() {
        let p = LinkPlan::default();
        assert!(p.is_noop());
        p.validate().expect("noop plan is valid");
    }

    #[test]
    fn validate_rejects_bad_fields() {
        assert!(matches!(
            LinkPlan {
                loss: 1.0,
                ..Default::default()
            }
            .validate(),
            Err(LinkPlanError::RateOutOfRange { field: "loss", .. })
        ));
        assert!(matches!(
            LinkPlan {
                up: -1.0,
                ..Default::default()
            }
            .validate(),
            Err(LinkPlanError::BadBandwidth { field: "up", .. })
        ));
        // Positive but below the 0.001 B/tick resolution: would round
        // to "unconstrained".
        assert!(matches!(
            LinkPlan {
                down: 0.0004,
                ..Default::default()
            }
            .validate(),
            Err(LinkPlanError::BadBandwidth { field: "down", .. })
        ));
        assert!(matches!(
            LinkPlan {
                up_buf: 64,
                ..Default::default()
            }
            .validate(),
            Err(LinkPlanError::BufferWithoutBandwidth { field: "upbuf" })
        ));
        assert!(matches!(
            LinkPlan {
                riders: 0.5,
                ..Default::default()
            }
            .validate(),
            Err(LinkPlanError::RiderWithoutUplink)
        ));
    }

    #[test]
    fn serialized_transmits_queue_on_the_upload_channel() {
        let mut s = state(&plan());
        // 45 bytes at 10 B/tick = 5 ticks up + 2 ticks down (40 B/tick).
        let a = s.transmit(0, NodeId(0), NodeId(1), 45, 10);
        assert_eq!(a, Transmission::Delivered { at: 17 });
        // Second message queues behind the first upload: starts at 5.
        let b = s.transmit(0, NodeId(0), NodeId(2), 45, 10);
        assert_eq!(b, Transmission::Delivered { at: 22 });
    }

    #[test]
    fn full_upload_buffer_drops_with_distinct_outcome() {
        let mut s = state(&LinkPlan {
            up: 1.0,
            up_buf: 100,
            ..Default::default()
        });
        // Each 45 B message takes 45 ticks to upload; backlog builds.
        assert!(matches!(
            s.transmit(0, NodeId(0), NodeId(1), 45, 1),
            Transmission::Delivered { .. }
        ));
        assert!(matches!(
            s.transmit(0, NodeId(0), NodeId(1), 45, 1),
            Transmission::Delivered { .. }
        ));
        // 90 bytes queued (45 in flight + 45 waiting); the third would
        // make 135 > 100.
        assert_eq!(
            s.transmit(0, NodeId(0), NodeId(1), 45, 1),
            Transmission::BufferDropped
        );
        assert_eq!(s.buffer_dropped(), 1);
        assert_eq!(s.lost(), 0);
        let (sent, _, lost, buffered) = s.byte_ledger();
        assert_eq!(sent, 135);
        assert_eq!(lost, 0);
        assert_eq!(buffered, 45);
    }

    #[test]
    fn byte_ledger_conserves() {
        let mut s = state(&LinkPlan {
            loss: 0.3,
            jitter: 5,
            ..plan()
        });
        let mut delivered = Vec::new();
        for i in 0..200u32 {
            let from = NodeId(i % 4);
            let to = NodeId((i + 1) % 4);
            match s.transmit(u64::from(i), from, to, 45, 10) {
                Transmission::Delivered { .. } => delivered.push((to, 45)),
                Transmission::Lost | Transmission::BufferDropped => {}
            }
        }
        for (to, b) in delivered {
            s.on_delivered(to, b);
        }
        let (sent, del, lost, buffered) = s.byte_ledger();
        assert_eq!(sent, del + lost + buffered);
        assert_eq!(sent, 200 * 45);
        // The loss counter tracks the drops, and at 30% it saw plenty.
        assert_eq!(lost, s.lost() * 45);
        assert!((30..90).contains(&s.lost()), "lost {}", s.lost());
    }

    #[test]
    fn fault_jitter_adds_to_link_jitter_and_saturates() {
        let latency_only = LinkPlan {
            loss: 0.1,
            jitter: 8,
            ..Default::default()
        };
        let (q, h) = sizes();
        let mut s = LinkState::new(
            &latency_only,
            4,
            0.0,
            u64::MAX,
            q,
            h,
            &[],
            Rng64::seed_from(7),
        );
        assert_eq!(s.jitter, u64::MAX, "jitter from both plans overflowed");
        // Draws near the ceiling clamp the arrival instead of wrapping.
        for i in 0..200u64 {
            if let Transmission::Delivered { at } = s.transmit(i, NodeId(0), NodeId(1), 84, 50) {
                assert!(at >= i + 50, "delivery {at} from {i} wrapped");
            }
        }
    }

    #[test]
    fn riders_get_the_slow_upload_profile() {
        let p = LinkPlan {
            up: 100.0,
            up_buf: 10_000,
            riders: 0.5,
            rider_up: 1.0,
            ..Default::default()
        };
        let (q, h) = sizes();
        let s = LinkState::new(&p, 64, 0.0, 0, q, h, &[NodeId(0)], Rng64::seed_from(3));
        assert!(s.rider_count() > 0);
        assert!(!s.is_rider(NodeId(0)), "exempt node must not be a rider");
    }

    #[test]
    fn deadline_clock_tracks_send_completion() {
        let mut s = state(&plan());
        s.begin_attempt(100);
        assert_eq!(s.send_done(), 100);
        s.transmit(100, NodeId(0), NodeId(1), 45, 10);
        // 45 B at 10 B/tick: upload finishes at 105.
        assert_eq!(s.send_done(), 105);
    }
}
