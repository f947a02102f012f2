//! Deterministic discrete-event queues.
//!
//! Two implementations share one contract: events pop in non-decreasing
//! time order, and events scheduled for the same instant pop in
//! insertion order (FIFO). Tie-breaking matters: two events scheduled
//! for the same instant must always pop in the same order, or a
//! whole-network simulation stops being reproducible across runs.
//!
//! * [`EventQueue`] — the production queue: a calendar/bucket queue with
//!   one-tick-wide buckets over a sliding window of [`CALENDAR_SPAN`]
//!   ticks, plus a binary-heap overflow for events scheduled beyond the
//!   window. Near-future scheduling (the hot path of a network flood,
//!   where every delivery lands within a few hundred ticks) is O(1) per
//!   event. A drained bucket hands its buffer to a LIFO pool and an
//!   empty bucket takes one back on its first push, so queue memory is
//!   proportional to the peak number of *pending* events — not to the
//!   window span times the busiest tick — and the buffer a push writes
//!   is the one a pop just left in cache.
//! * [`HeapQueue`] — the original binary-heap queue, kept as the
//!   reference implementation. The seeded differential tests below
//!   drive both with the same schedule / pop / `clear` mix and assert
//!   identical pop sequences; anything the calendar queue does
//!   differently from the heap is a bug.
//!
//! ## Deterministic FIFO tie-breaking
//!
//! Every `schedule` call stamps the event with a monotonically
//! increasing sequence number; pops are ordered by `(time, seq)`. In the
//! calendar queue this falls out structurally: a one-tick bucket only
//! ever receives events for a single instant, appended in sequence
//! order, so draining a bucket front-to-back *is* FIFO order — no
//! per-bucket sort is ever needed. Overflow events are compared against
//! the active bucket head by `(time, seq)` on every pop, so an event
//! that went to the overflow heap still interleaves correctly with
//! bucketed events for the same instant.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};
use std::fmt;

/// Width of the calendar window, in ticks. Events scheduled further than
/// this beyond the current clock go to the overflow heap instead of a
/// bucket; they still pop in exactly the right order, just via O(log n)
/// heap ops instead of O(1) bucket pushes. Hop latencies in the
/// workspace simulators are tens-to-hundreds of ticks, so deliveries —
/// the hot path — essentially always land in the window.
pub const CALENDAR_SPAN: u64 = 4096;

/// Error returned by [`EventQueue::try_schedule`] when the requested
/// fire time is earlier than the queue's clock. Scheduling into the past
/// would reorder simulated time — an event would fire after events that
/// happened later than it — so it is always a bug in the caller.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SchedulePastError {
    /// The rejected fire time.
    pub at: SimTime,
    /// The queue clock at the time of the call.
    pub now: SimTime,
}

impl fmt::Display for SchedulePastError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "event scheduled in the past: at={}, now={}",
            self.at, self.now
        )
    }
}

impl std::error::Error for SchedulePastError {}

struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, seq)
        // pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// A future-event list delivering `(time, event)` pairs in deterministic
/// simulation order: a calendar queue over one-tick buckets with a heap
/// overflow for far-future events.
///
/// ```
/// use arq_simkern::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_ticks(10), "b");
/// q.schedule(SimTime::from_ticks(5), "a");
/// q.schedule(SimTime::from_ticks(10), "c"); // same instant as "b"
/// assert_eq!(q.pop(), Some((SimTime::from_ticks(5), "a")));
/// assert_eq!(q.pop(), Some((SimTime::from_ticks(10), "b")));
/// assert_eq!(q.pop(), Some((SimTime::from_ticks(10), "c")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    /// One-tick buckets; slot `t % CALENDAR_SPAN` holds events firing at
    /// tick `t` for `t` in the window `[now, now + CALENDAR_SPAN)`.
    /// Within a bucket, entries are `(seq, event)` in insertion order —
    /// which is FIFO order, since a bucket covers a single instant. An
    /// empty bucket owns no buffer: it is in `pool`.
    buckets: Vec<VecDeque<(u64, E)>>,
    /// Buffers of drained buckets, most recently drained last.
    pool: Vec<VecDeque<(u64, E)>>,
    /// Occupancy bitmap over bucket slots (one bit per slot). A set bit
    /// always means the bucket is non-empty.
    occ: Vec<u64>,
    /// Events scheduled at or beyond `now + CALENDAR_SPAN`.
    overflow: BinaryHeap<Entry<E>>,
    /// Tick of the earliest non-empty bucket. Kept exact at all times
    /// (updated on every schedule and pop), so `peek_time` is O(1).
    next_bucket: Option<u64>,
    next_seq: u64,
    now: SimTime,
    popped: u64,
    pending: usize,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            buckets: (0..CALENDAR_SPAN).map(|_| VecDeque::new()).collect(),
            pool: Vec::new(),
            occ: vec![0u64; (CALENDAR_SPAN as usize).div_ceil(64)],
            overflow: BinaryHeap::new(),
            next_bucket: None,
            next_seq: 0,
            now: SimTime::ZERO,
            popped: 0,
            pending: 0,
        }
    }

    /// Creates an empty queue with pre-reserved overflow capacity (the
    /// calendar buckets draw their buffers from the pool on demand).
    pub fn with_capacity(cap: usize) -> Self {
        let mut q = Self::new();
        q.overflow.reserve(cap);
        q
    }

    #[inline]
    fn slot(t: u64) -> usize {
        (t % CALENDAR_SPAN) as usize
    }

    #[inline]
    fn set_occ(&mut self, slot: usize) {
        self.occ[slot / 64] |= 1u64 << (slot % 64);
    }

    #[inline]
    fn clear_occ(&mut self, slot: usize) {
        self.occ[slot / 64] &= !(1u64 << (slot % 64));
    }

    /// Schedules `event` to fire at absolute time `at`, or reports a
    /// typed error if `at` is earlier than the current clock.
    pub fn try_schedule(&mut self, at: SimTime, event: E) -> Result<(), SchedulePastError> {
        if at < self.now {
            return Err(SchedulePastError { at, now: self.now });
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pending += 1;
        let t = at.ticks();
        if t < self.now.ticks().saturating_add(CALENDAR_SPAN) {
            let slot = Self::slot(t);
            let bucket = &mut self.buckets[slot];
            if bucket.is_empty() {
                *bucket = self.pool.pop().unwrap_or_default();
            }
            bucket.push_back((seq, event));
            self.set_occ(slot);
            if self.next_bucket.is_none_or(|nb| t < nb) {
                self.next_bucket = Some(t);
            }
        } else {
            self.overflow.push(Entry { at, seq, event });
        }
        Ok(())
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current clock — scheduling into
    /// the past is always a simulator bug. Fallible callers (e.g. a
    /// cross-shard handoff that must prove it never reorders time) use
    /// [`EventQueue::try_schedule`] instead.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        if let Err(e) = self.try_schedule(at, event) {
            panic!("{e}");
        }
    }

    /// Finds the earliest non-empty bucket tick at or after `now` via a
    /// circular bitmap scan. All bucketed events lie in
    /// `[now, now + CALENDAR_SPAN)`, so the first set bit in circular
    /// slot order from `slot(now)` belongs to the earliest bucket.
    fn scan_next_bucket(&self) -> Option<u64> {
        let start = Self::slot(self.now.ticks());
        let words = self.occ.len();
        let w0 = start / 64;
        // First partial word: only slots at or after `start`.
        let masked = self.occ[w0] & (!0u64 << (start % 64));
        if masked != 0 {
            let slot = w0 * 64 + masked.trailing_zeros() as usize;
            return Some(self.absolute_tick(slot, start));
        }
        for i in 1..=words {
            let w = (w0 + i) % words;
            let bits = if w == w0 {
                // Wrapped back to the first word: slots before `start`.
                self.occ[w0] & !(!0u64 << (start % 64))
            } else {
                self.occ[w]
            };
            if bits != 0 {
                let slot = w * 64 + bits.trailing_zeros() as usize;
                return Some(self.absolute_tick(slot, start));
            }
        }
        None
    }

    /// Reconstructs an absolute tick from a bucket slot via its circular
    /// distance from the scan origin.
    #[inline]
    fn absolute_tick(&self, slot: usize, start: usize) -> u64 {
        let dist = (slot + CALENDAR_SPAN as usize - start) % CALENDAR_SPAN as usize;
        self.now.ticks() + dist as u64
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let bucket = self.next_bucket.map(|t| {
            let head_seq = self.buckets[Self::slot(t)]
                .front()
                .expect("next_bucket points at empty bucket")
                .0;
            (t, head_seq)
        });
        let over = self.overflow.peek().map(|e| (e.at.ticks(), e.seq));
        let take_overflow = match (bucket, over) {
            (None, None) => return None,
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (Some(b), Some(o)) => o < b,
        };
        let (at, event) = if take_overflow {
            let e = self.overflow.pop().expect("peeked entry vanished");
            (e.at, e.event)
        } else {
            let t = bucket.expect("bucket branch without bucket").0;
            let slot = Self::slot(t);
            let (_, event) = self.buckets[slot].pop_front().expect("bucket emptied");
            if self.buckets[slot].is_empty() {
                self.pool.push(std::mem::take(&mut self.buckets[slot]));
                self.clear_occ(slot);
                self.next_bucket = None; // re-established below
            }
            (SimTime::from_ticks(t), event)
        };
        debug_assert!(at >= self.now, "queue produced time regression");
        self.now = at;
        self.popped += 1;
        self.pending -= 1;
        if self.next_bucket.is_none() {
            self.next_bucket = self.scan_next_bucket();
        }
        Some((at, event))
    }

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        let bucket = self.next_bucket;
        let over = self.overflow.peek().map(|e| e.at.ticks());
        match (bucket, over) {
            (None, None) => None,
            (Some(t), None) | (None, Some(t)) => Some(SimTime::from_ticks(t)),
            (Some(b), Some(o)) => Some(SimTime::from_ticks(b.min(o))),
        }
    }

    /// Current simulated time: the timestamp of the most recently popped
    /// event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events still pending.
    pub fn len(&self) -> usize {
        self.pending
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.pending == 0
    }

    /// Total number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.popped
    }

    /// Discards all pending events without advancing the clock. Bucket
    /// buffers go back to the pool, so a cleared queue re-fills without
    /// allocating.
    pub fn clear(&mut self) {
        for w in 0..self.occ.len() {
            let mut bits = self.occ[w];
            while bits != 0 {
                let slot = w * 64 + bits.trailing_zeros() as usize;
                self.buckets[slot].clear();
                self.pool.push(std::mem::take(&mut self.buckets[slot]));
                bits &= bits - 1;
            }
            self.occ[w] = 0;
        }
        self.overflow.clear();
        self.next_bucket = None;
        self.pending = 0;
    }
}

/// The original binary-heap event queue: the reference implementation
/// the calendar queue's differential tests compare against, with no
/// caller outside them. Delivers the exact same `(time, event)` sequence
/// as [`EventQueue`] for any schedule.
pub struct HeapQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
    now: SimTime,
    popped: u64,
}

impl<E> Default for HeapQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> HeapQueue<E> {
    /// Creates an empty queue with the clock at [`SimTime::ZERO`].
    pub fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
            popped: 0,
        }
    }

    /// Creates an empty queue with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        HeapQueue {
            heap: BinaryHeap::with_capacity(cap),
            next_seq: 0,
            now: SimTime::ZERO,
            popped: 0,
        }
    }

    /// Schedules `event` to fire at absolute time `at`, or reports a
    /// typed error if `at` is earlier than the current clock.
    pub fn try_schedule(&mut self, at: SimTime, event: E) -> Result<(), SchedulePastError> {
        if at < self.now {
            return Err(SchedulePastError { at, now: self.now });
        }
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, event });
        Ok(())
    }

    /// Schedules `event` to fire at absolute time `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the current clock.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        if let Err(e) = self.try_schedule(at, event) {
            panic!("{e}");
        }
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        debug_assert!(entry.at >= self.now, "heap produced time regression");
        self.now = entry.at;
        self.popped += 1;
        Some((entry.at, entry.event))
    }

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Current simulated time: the timestamp of the most recently popped
    /// event.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events still pending.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events delivered so far.
    pub fn delivered(&self) -> u64 {
        self.popped
    }

    /// Discards all pending events without advancing the clock.
    pub fn clear(&mut self) {
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::Rng64;

    /// Element capacity the queue holds on to: bucket buffers plus pool.
    fn retained_capacity<E>(q: &EventQueue<E>) -> usize {
        let held = |bufs: &[VecDeque<(u64, E)>]| bufs.iter().map(VecDeque::capacity).sum::<usize>();
        held(&q.buckets) + held(&q.pool)
    }

    #[test]
    fn delivers_in_time_order() {
        let mut q = EventQueue::new();
        for &t in &[9u64, 3, 7, 1, 5] {
            q.schedule(SimTime::from_ticks(t), t);
        }
        let mut out = Vec::new();
        while let Some((time, ev)) = q.pop() {
            assert_eq!(time.ticks(), ev);
            out.push(ev);
        }
        assert_eq!(out, vec![1, 3, 5, 7, 9]);
        assert_eq!(q.delivered(), 5);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.schedule(SimTime::from_ticks(42), i);
        }
        let popped: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(popped, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_tracks_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ticks(4), ());
        q.schedule(SimTime::from_ticks(8), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_ticks(4));
        assert_eq!(q.peek_time(), Some(SimTime::from_ticks(8)));
        q.pop();
        assert_eq!(q.now(), SimTime::from_ticks(8));
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn rejects_past_events() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ticks(10), ());
        q.pop();
        q.schedule(SimTime::from_ticks(3), ());
    }

    #[test]
    fn try_schedule_returns_typed_error_for_past_events() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ticks(10), 1u32);
        q.pop();
        let err = q
            .try_schedule(SimTime::from_ticks(3), 2)
            .expect_err("past schedule must be rejected");
        assert_eq!(err.at, SimTime::from_ticks(3));
        assert_eq!(err.now, SimTime::from_ticks(10));
        assert!(err.to_string().contains("scheduled in the past"), "{err}");
        // The rejected event was not enqueued; the present is still fine.
        assert!(q.is_empty());
        assert!(q.try_schedule(SimTime::from_ticks(10), 3).is_ok());
        assert_eq!(q.pop(), Some((SimTime::from_ticks(10), 3)));
    }

    #[test]
    fn heap_queue_rejects_past_events_too() {
        let mut q = HeapQueue::new();
        q.schedule(SimTime::from_ticks(10), ());
        q.pop();
        let err = q.try_schedule(SimTime::from_ticks(9), ()).unwrap_err();
        assert_eq!(err.now, SimTime::from_ticks(10));
    }

    #[test]
    fn interleaved_schedule_and_pop() {
        // Events scheduled from within the drain loop (the common
        // simulator pattern) must still come out in order.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ticks(1), 1u64);
        let mut seen = Vec::new();
        while let Some((t, ev)) = q.pop() {
            seen.push(ev);
            if ev < 5 {
                q.schedule(SimTime::from_ticks(t.ticks() + 2), ev + 1);
                q.schedule(SimTime::from_ticks(t.ticks() + 1), 100 + ev);
            }
        }
        assert_eq!(seen, vec![1, 101, 2, 102, 3, 103, 4, 104, 5]);
    }

    #[test]
    fn clear_keeps_clock() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ticks(5), ());
        q.pop();
        q.schedule(SimTime::from_ticks(9), ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::from_ticks(5));
    }

    #[test]
    fn clear_then_reuse_delivers_in_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ticks(7), 1u32);
        q.schedule(SimTime::from_ticks(CALENDAR_SPAN * 2), 2);
        q.pop();
        q.clear();
        q.schedule(SimTime::from_ticks(30), 4);
        q.schedule(SimTime::from_ticks(20), 3);
        assert_eq!(q.pop(), Some((SimTime::from_ticks(20), 3)));
        assert_eq!(q.pop(), Some((SimTime::from_ticks(30), 4)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn far_future_events_overflow_and_interleave_correctly() {
        let mut q = EventQueue::new();
        // Beyond the calendar window: lands in the overflow heap.
        q.schedule(SimTime::from_ticks(CALENDAR_SPAN * 3), 1u32);
        q.schedule(SimTime::from_ticks(5), 2);
        // Same far instant, later insertion: FIFO across the heap too.
        q.schedule(SimTime::from_ticks(CALENDAR_SPAN * 3), 3);
        assert_eq!(q.len(), 3);
        assert_eq!(q.pop(), Some((SimTime::from_ticks(5), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_ticks(CALENDAR_SPAN * 3), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_ticks(CALENDAR_SPAN * 3), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn overflow_and_bucket_ties_respect_insertion_order() {
        let mut q = EventQueue::new();
        let t = CALENDAR_SPAN + 100;
        // Scheduled while `t` is beyond the window: goes to overflow.
        q.schedule(SimTime::from_ticks(t), 1u32);
        // Advance the clock so `t` is inside the window.
        q.schedule(SimTime::from_ticks(200), 0);
        assert_eq!(q.pop(), Some((SimTime::from_ticks(200), 0)));
        // Scheduled now: goes to a bucket, but with a *later* seq than
        // the overflow entry — the overflow entry must still pop first.
        q.schedule(SimTime::from_ticks(t), 2);
        assert_eq!(q.pop(), Some((SimTime::from_ticks(t), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_ticks(t), 2)));
    }

    #[test]
    fn window_wraps_across_many_spans() {
        let mut q = EventQueue::new();
        let mut expect = Vec::new();
        for k in 0..20u64 {
            let t = k * (CALENDAR_SPAN / 3 + 7);
            q.schedule(SimTime::from_ticks(t), k);
            expect.push((t, k));
        }
        let mut got = Vec::new();
        while let Some((t, e)) = q.pop() {
            got.push((t.ticks(), e));
        }
        assert_eq!(got, expect);
    }

    #[test]
    fn same_tick_schedule_during_drain_pops_after_remaining() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ticks(10), 0u32);
        q.schedule(SimTime::from_ticks(10), 1);
        assert_eq!(q.pop(), Some((SimTime::from_ticks(10), 0)));
        // Mid-drain append at the same instant: must pop after entry 1.
        q.schedule(SimTime::from_ticks(10), 2);
        assert_eq!(q.pop(), Some((SimTime::from_ticks(10), 1)));
        assert_eq!(q.pop(), Some((SimTime::from_ticks(10), 2)));
        assert_eq!(q.pop(), None);
    }

    /// A burst of K same-tick events swept over more than one full
    /// window visits every bucket; the queue must end up holding buffers
    /// for the bursts that were pending at once (two here), not one
    /// burst-sized buffer per bucket it ever used.
    #[test]
    fn retained_capacity_follows_pending_events_not_the_window() {
        const K: usize = 500;
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, 0usize);
        for tick in 0..CALENDAR_SPAN + CALENDAR_SPAN / 2 {
            // Every event of this tick's burst schedules one event of the
            // next tick's, so two buckets are live at any time.
            for i in 0..K {
                q.schedule(SimTime::from_ticks(tick + 1), i);
            }
            while q.peek_time() == Some(SimTime::from_ticks(tick)) {
                q.pop();
            }
            assert_eq!(q.len(), K);
        }
        assert!(
            retained_capacity(&q) <= 4 * K,
            "queue retains capacity for {} events after bursts of {K}",
            retained_capacity(&q)
        );
        q.clear();
        assert!(retained_capacity(&q) <= 4 * K, "clear() lost the pool");
        assert!(q.buckets.iter().all(|b| b.capacity() == 0));
    }

    /// The calendar queue pops the exact same `(SimTime, event)` sequence
    /// as the reference heap under seeded interleavings of schedules
    /// (same-instant ties, in-window, far-future overflow), pops, and
    /// `clear()` followed by re-use.
    #[test]
    fn calendar_queue_matches_heap_reference() {
        for seed in 0..16 {
            let mut rng = Rng64::seed_from(seed);
            let mut cal = EventQueue::new();
            let mut heap = HeapQueue::new();
            for i in 0..2_000usize {
                match rng.below(10) {
                    0..=4 => {
                        let dt = match rng.below(4) {
                            0 => 0,
                            1 => rng.below(8),
                            2 => rng.below(CALENDAR_SPAN),
                            _ => rng.below(3 * CALENDAR_SPAN),
                        };
                        let at = SimTime::from_ticks(cal.now().ticks() + dt);
                        cal.schedule(at, i);
                        heap.schedule(at, i);
                    }
                    5..=8 => {
                        assert_eq!(cal.peek_time(), heap.peek_time(), "seed {seed} op {i}");
                        assert_eq!(cal.pop(), heap.pop(), "seed {seed} op {i}");
                        assert_eq!(cal.now(), heap.now(), "seed {seed} op {i}");
                    }
                    // Rare, so the queues build up depth between clears.
                    _ if rng.below(20) == 0 => {
                        cal.clear();
                        heap.clear();
                        assert!(cal.is_empty());
                        assert_eq!(cal.now(), heap.now(), "clear must keep the clock");
                    }
                    _ => {}
                }
                assert_eq!(cal.len(), heap.len(), "seed {seed} op {i}");
            }
            loop {
                let (a, b) = (cal.pop(), heap.pop());
                assert_eq!(a, b, "seed {seed}: drain diverged");
                if a.is_none() {
                    break;
                }
            }
            assert!(cal.buckets.iter().all(|b| b.capacity() == 0));
        }
    }

    /// Events always pop in (time, insertion) order, whatever the
    /// schedule pattern.
    #[test]
    fn event_queue_is_totally_ordered() {
        for seed in 0..16 {
            let mut rng = Rng64::seed_from(seed);
            let count = 1 + rng.index(200);
            let mut q = EventQueue::new();
            for i in 0..count {
                q.schedule(SimTime::from_ticks(rng.below(1_000)), i);
            }
            let mut last: Option<(SimTime, usize)> = None;
            while let Some(next) = q.pop() {
                assert!(last < Some(next), "seed {seed}: {last:?} then {next:?}");
                last = Some(next);
            }
            assert_eq!(q.delivered(), count as u64);
        }
    }

    #[test]
    fn matches_heap_reference_on_mixed_workload() {
        // One long seed without `clear`, so thousands of events are
        // pending at once: a deterministic pseudo-random schedule with
        // ties, far-future events, and interleaved pops.
        let mut cal = EventQueue::new();
        let mut heap = HeapQueue::new();
        let mut x = 0x9E3779B97F4A7C15u64;
        let mut step = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut pending = 0i64;
        for i in 0..10_000u64 {
            let r = step();
            if r % 4 == 0 && pending > 0 {
                assert_eq!(cal.pop(), heap.pop(), "pop {i} diverged");
                pending -= 1;
            } else {
                let base = cal.now().ticks();
                let dt = match r % 3 {
                    0 => r % 8,                      // ties and near-now
                    1 => r % 600,                    // in-window
                    _ => CALENDAR_SPAN + r % 10_000, // overflow
                };
                let at = SimTime::from_ticks(base + dt);
                cal.schedule(at, i);
                heap.schedule(at, i);
                pending += 1;
            }
        }
        loop {
            let (a, b) = (cal.pop(), heap.pop());
            assert_eq!(a, b, "drain diverged");
            if a.is_none() {
                break;
            }
        }
        assert_eq!(cal.delivered(), heap.delivered());
    }
}
