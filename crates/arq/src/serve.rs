//! `arq serve` — a crash-safe streaming router service.
//!
//! The paper evaluates rule maintenance offline, over a recorded trace.
//! This module is the same machinery stood up as a long-running service:
//! an unbounded stream of query–reply events keeps a streaming maintainer
//! ([`DecayedPairCounts`] or [`LossyPairCounts`]) fresh, and `route`
//! lookups are answered from an epoch-versioned [`RuleHandle`] that the
//! miner swaps atomically on a tumbling-block schedule — lookups never
//! block on mining.
//!
//! ## Wire format
//!
//! Events arrive as length-prefixed JSON frames over stdin, a file, or a
//! Unix domain socket: an ASCII decimal byte length, `\n`, the JSON
//! payload, `\n`. Three event kinds reuse the trace-record schema:
//!
//! * `{"ev":"pair","src":N,"via":N,...}` — one joined query–reply pair
//!   (the extra [`PairRecord`](arq_trace::record::PairRecord) fields
//!   `time`/`guid`/`responder`/`query` are accepted and ignored);
//! * `{"ev":"route","id":N,"src":N,"k":K?}` — answer a lookup; the reply
//!   frame is `{"ev":"routed","id":N,"outcome":"rules"|"flood"|"shed",
//!   "via":[...],"epoch":E}`, where `E` is the epoch of the rule
//!   generation that answered;
//! * `{"ev":"stats","id":N}` — snapshot the service counters.
//!
//! `src` and `via` must be integers in `[0, 4294967295]` (a
//! [`HostId`]); `id` and `k`, when present, non-negative integers up to
//! `u64::MAX`. Anything else gets an in-band `{"ev":"error"}` reply that
//! names the field and the value, never a wrapped id.
//!
//! ## Ingest path
//!
//! Frames are decoded in place ([`FrameReader`] lends each payload out
//! of its buffer) and read by a schema-directed scanner that builds no
//! JSON tree: it accepts one flat object whose values are strings
//! without escapes or unsigned integers (≤ 15 digits for `src`, `via`,
//! `id` and `k`, ≤ 38 for any other field), with the first occurrence
//! of a key winning and only whitespace after the `}`. That covers every
//! frame `arq gen-events` writes. On any other shape — escapes, floats,
//! negatives, nesting, literals, a missing field, an unknown `ev` — the
//! scanner declines and the `simkern::json` tree reader handles the
//! frame, so every accepted value and every error message is the tree
//! reader's. `routed` replies are rendered straight into one reused
//! buffer; a pair frame allocates nothing between the socket and the
//! miner's queue.
//!
//! ## Backpressure and shedding
//!
//! Pairs flow to the mining thread through a bounded queue. By default
//! the ingest loop *blocks* when the queue is full — lossless
//! backpressure, the right mode for replaying a recorded stream where
//! the final ruleset digest must be exact. With [`ServeConfig::shed`]
//! the service instead degrades explicitly under overload, never
//! silently: at queue depth ≥ ¾ capacity it stops refreshing the
//! published ruleset (mining refreshes are the cheapest thing to shed);
//! when the queue actually fills, pairs are dropped (counted) and
//! lookups answer with a distinct `shed` outcome meaning "flood, we are
//! overloaded". The ladder steps back down as the queue drains.
//!
//! ## Crash safety
//!
//! A checkpoint is the maintainer's exact state (floats as bit patterns)
//! plus the count of pairs consumed, written with
//! [`arq_simkern::write_atomic`] (temp + fsync + rename) on a configurable
//! cadence and at drain. Restarting with the same checkpoint path
//! restores the state and skips exactly `consumed` pair events from the
//! re-streamed input, so a kill -9 mid-stream followed by a restart
//! reaches the same final ruleset digest as an uninterrupted run.
//!
//! SIGTERM (or EOF) drains: the queue empties, a final checkpoint and a
//! summary artifact are written, and the process exits cleanly.

use arq_assoc::{DecayedPairCounts, DecayedSnapshot, LossyPairCounts, LossySnapshot};
use arq_core::{RouteDecision, RuleHandle};
use arq_obs::{to_prometheus, Registry};
use arq_simkern::{json, write_atomic, Histogram, Json};
use arq_trace::record::HostId;
use std::fmt;
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The streaming maintainer the service keeps fresh, built by the
/// strategy registry's grammar (`incremental(t=10,hl=20000)`,
/// `lossy(t=10,eps=0.00005)`).
pub use arq_core::Maintainer;

/// An error from the service: configuration, wire protocol, checkpoint
/// decoding, or I/O.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServeError {
    /// What went wrong, with enough context to locate it.
    pub message: String,
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.message)
    }
}

impl std::error::Error for ServeError {}

fn err(message: impl Into<String>) -> ServeError {
    ServeError {
        message: message.into(),
    }
}

// ---------------------------------------------------------------------------
// Framing
// ---------------------------------------------------------------------------

/// Writes one length-prefixed frame: `<len>\n<payload>\n`.
pub fn write_frame(w: &mut dyn Write, payload: &str) -> std::io::Result<()> {
    // The digits and the newline, formatted without a String; the
    // payload keeps a write of its own.
    writeln!(w, "{}", payload.len())?;
    w.write_all(payload.as_bytes())?;
    w.write_all(b"\n")
}

/// Incremental frame parser over a growable byte buffer.
///
/// Bytes are [`feed`](FrameReader::feed) in as they arrive (from any
/// transport) and complete frames are pulled out with
/// [`next_frame`](FrameReader::next_frame); partial frames simply wait
/// for more bytes. This keeps the ingest loop free to poll a shutdown
/// flag between reads instead of blocking inside one.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
    start: usize,
}

impl FrameReader {
    /// An empty reader.
    pub fn new() -> Self {
        FrameReader::default()
    }

    /// Appends raw transport bytes.
    pub fn feed(&mut self, bytes: &[u8]) {
        // Compact lazily so long sessions don't grow the buffer forever.
        if self.start > 0 && self.start >= self.buf.len() / 2 {
            self.buf.drain(..self.start);
            self.start = 0;
        }
        self.buf.extend_from_slice(bytes);
    }

    /// True when no partial frame is pending.
    pub fn is_drained(&self) -> bool {
        self.buf.len() == self.start
    }

    /// Extracts the next complete frame, `Ok(None)` if more bytes are
    /// needed, or an error for a malformed length header or frame body.
    pub fn next_frame(&mut self) -> Result<Option<String>, ServeError> {
        Ok(self.next_payload()?.map(str::to_string))
    }

    /// [`next_frame`](FrameReader::next_frame) without the copy: the
    /// payload is borrowed from the buffer until the next call.
    fn next_payload(&mut self) -> Result<Option<&str>, ServeError> {
        let pending = &self.buf[self.start..];
        let Some(nl) = pending.iter().position(|&b| b == b'\n') else {
            if pending.len() > 32 {
                return Err(err("frame length header exceeds 32 bytes with no newline"));
            }
            return Ok(None);
        };
        let header = std::str::from_utf8(&pending[..nl])
            .ok()
            .map(str::trim)
            .filter(|s| !s.is_empty());
        let len: usize = header
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| err("bad frame length header (expected ASCII decimal byte count)"))?;
        // Header + payload + trailing newline must all be buffered.
        let end = len.checked_add(nl + 2).ok_or_else(|| {
            err(format!(
                "bad frame length {len} (exceeds the address space)"
            ))
        })?;
        if pending.len() < end {
            return Ok(None);
        }
        if pending[end - 1] != b'\n' {
            return Err(err(format!(
                "frame payload not followed by newline (declared length {len})"
            )));
        }
        let payload = std::str::from_utf8(&pending[nl + 1..end - 1])
            .map_err(|_| err("frame payload is not UTF-8"))?;
        self.start += end;
        Ok(Some(payload))
    }
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// One parsed input event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Event {
    /// A query–reply pair observation (`src → via` candidate rule).
    Pair {
        /// Rule antecedent: the neighbor the query came from.
        src: HostId,
        /// Rule consequent: the neighbor the reply came back through.
        via: HostId,
    },
    /// A route lookup to answer.
    Route {
        /// Client-chosen correlation id, echoed in the reply.
        id: u64,
        /// The antecedent to look up.
        src: HostId,
        /// Consequent fan-out override (0 = service default).
        k: usize,
    },
    /// A counters snapshot request.
    Stats {
        /// Client-chosen correlation id, echoed in the reply.
        id: u64,
    },
}

/// Parses one frame payload into an [`Event`]: the scanner for the
/// shapes it knows, the JSON tree reader for everything else.
pub fn parse_event(payload: &str) -> Result<Event, ServeError> {
    match scan_event(payload.as_bytes()) {
        Some(event) => Ok(event),
        None => parse_event_tree(payload),
    }
}

/// The tree reader: accepts any JSON object and owns every error
/// message.
fn parse_event_tree(payload: &str) -> Result<Event, ServeError> {
    let doc = json::parse(payload).map_err(|e| err(format!("bad event JSON: {e}")))?;
    let ev = doc
        .get("ev")
        .and_then(Json::as_str)
        .ok_or_else(|| err("event missing string field `ev`"))?;
    let out_of_range = |name: &str, max: u64, value: &Json| {
        err(format!(
            "`{ev}` event field `{name}` must be an integer in [0, {max}], got {value}"
        ))
    };
    let host = |name: &str| -> Result<HostId, ServeError> {
        let value = doc
            .get(name)
            .filter(|v| v.as_f64().is_some())
            .ok_or_else(|| err(format!("`{ev}` event missing numeric field `{name}`")))?;
        match value {
            Json::Int(i) => u32::try_from(*i).ok(),
            _ => None,
        }
        .map(HostId)
        .ok_or_else(|| out_of_range(name, u32::MAX.into(), value))
    };
    // An absent `id`/`k` is 0. Values pass through `f64`, so an id past
    // 2^53 is echoed rounded, as it always was; every value the scanner
    // reads (≤ 15 digits) is exact.
    let count = |name: &str| -> Result<u64, ServeError> {
        match doc.get(name) {
            None => Ok(0),
            Some(Json::Int(i)) if u64::try_from(*i).is_ok() => Ok(*i as f64 as u64),
            Some(value) => Err(out_of_range(name, u64::MAX, value)),
        }
    };
    match ev {
        "pair" => Ok(Event::Pair {
            src: host("src")?,
            via: host("via")?,
        }),
        "route" => Ok(Event::Route {
            id: count("id")?,
            src: host("src")?,
            k: count("k")? as usize,
        }),
        "stats" => Ok(Event::Stats { id: count("id")? }),
        other => Err(err(format!(
            "unknown event kind `{other}` (expected `pair`, `route`, or `stats`)"
        ))),
    }
}

/// One value the scanner read.
#[derive(Debug, Clone, Copy)]
enum Scalar<'a> {
    /// A string without escapes (its raw bytes).
    Str(&'a [u8]),
    /// An unsigned integer of at most 15 digits: exact as an `f64`.
    Int(u64),
    /// An unsigned integer of 16–38 digits: a valid `i128`, no id.
    Big,
}

/// A cursor over one payload for [`scan_event`]. Every method returns
/// `None` on a byte outside the scanned subset of JSON.
struct Scanner<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl<'a> Scanner<'a> {
    /// Skips the whitespace `simkern::json` skips.
    fn ws(&mut self) {
        while let Some(&(b' ' | b'\t' | b'\n' | b'\r')) = self.bytes.get(self.at) {
            self.at += 1;
        }
    }

    fn byte(&mut self) -> Option<u8> {
        let b = *self.bytes.get(self.at)?;
        self.at += 1;
        Some(b)
    }

    /// A string without escapes, the opening quote already consumed.
    fn string(&mut self) -> Option<&'a [u8]> {
        let rest = &self.bytes[self.at..];
        let len = rest.iter().position(|&b| b == b'"' || b == b'\\')?;
        if rest[len] != b'"' {
            return None;
        }
        self.at += len + 1;
        Some(&rest[..len])
    }

    /// A string without escapes or an unsigned integer.
    fn value(&mut self) -> Option<Scalar<'a>> {
        if self.byte()? == b'"' {
            return self.string().map(Scalar::Str);
        }
        let start = self.at - 1;
        let digits = self.bytes[start..]
            .iter()
            .take_while(|b| b.is_ascii_digit())
            .count();
        self.at = start + digits;
        match digits {
            0 => None,
            1..=15 => Some(Scalar::Int(
                self.bytes[start..self.at]
                    .iter()
                    .fold(0, |n, &d| n * 10 + u64::from(d - b'0')),
            )),
            16..=38 => Some(Scalar::Big),
            _ => None,
        }
    }
}

/// Reads the frame shapes [`parse_event`]'s hot path sees — one flat
/// object of escape-free strings and unsigned integers — without a JSON
/// tree. `None` means "not such a frame", never "invalid": the tree
/// reader then decides, so `Some` must always equal its answer.
fn scan_event(payload: &[u8]) -> Option<Event> {
    let mut s = Scanner {
        bytes: payload,
        at: 0,
    };
    let (mut ev, mut src, mut via, mut id, mut k) = (None, None, None, None, None);
    s.ws();
    if s.byte()? != b'{' {
        return None;
    }
    s.ws();
    if s.bytes.get(s.at) == Some(&b'}') {
        s.at += 1;
    } else {
        loop {
            s.ws();
            if s.byte()? != b'"' {
                return None;
            }
            let key = s.string()?;
            s.ws();
            if s.byte()? != b':' {
                return None;
            }
            s.ws();
            let value = s.value()?;
            let slot = match key {
                b"ev" => Some(&mut ev),
                b"src" => Some(&mut src),
                b"via" => Some(&mut via),
                b"id" => Some(&mut id),
                b"k" => Some(&mut k),
                _ => None,
            };
            // The first occurrence wins, as in `Json::get`.
            if let Some(slot) = slot.filter(|slot| slot.is_none()) {
                *slot = Some(value);
            }
            s.ws();
            match s.byte()? {
                b',' => {}
                b'}' => break,
                _ => return None,
            }
        }
    }
    s.ws();
    if s.at != payload.len() {
        return None;
    }
    let host = |v: Option<Scalar>| match v? {
        Scalar::Int(n) => u32::try_from(n).ok().map(HostId),
        _ => None,
    };
    let count = |v: Option<Scalar>| match v {
        None => Some(0),
        Some(Scalar::Int(n)) => Some(n),
        Some(_) => None,
    };
    match ev? {
        Scalar::Str(b"pair") => Some(Event::Pair {
            src: host(src)?,
            via: host(via)?,
        }),
        Scalar::Str(b"route") => Some(Event::Route {
            id: count(id)?,
            src: host(src)?,
            k: count(k)? as usize,
        }),
        Scalar::Str(b"stats") => Some(Event::Stats { id: count(id)? }),
        _ => None,
    }
}

// ---------------------------------------------------------------------------
// Checkpoints
// ---------------------------------------------------------------------------

/// First token of a checkpoint file's header line.
pub const CHECKPOINT_MAGIC: &str = "arq-checkpoint";
/// The checkpoint format version this build reads and writes.
pub const CHECKPOINT_VERSION: u64 = 1;

/// Encodes a float as its exact bit pattern (hex), so decay arithmetic
/// is bit-identical after a restore.
fn f64_bits(x: f64) -> Json {
    Json::Str(format!("{:016x}", x.to_bits()))
}

fn f64_from_bits(j: Option<&Json>, what: &str) -> Result<f64, ServeError> {
    let s = j
        .and_then(Json::as_str)
        .ok_or_else(|| err(format!("checkpoint: missing field `{what}`")))?;
    u64::from_str_radix(s, 16).map(f64::from_bits).map_err(|_| {
        err(format!(
            "checkpoint: field `{what}` is not a hex bit pattern"
        ))
    })
}

/// Reads a checkpoint integer in `[0, max]`. A float, a negative or a
/// wider value is an error naming the field and the value, never a
/// cast that would restore some other number.
fn checkpoint_int(value: Option<&Json>, what: &str, max: u64) -> Result<u64, ServeError> {
    let value = value.ok_or_else(|| err(format!("checkpoint: missing numeric field `{what}`")))?;
    match value {
        Json::Int(i) => u64::try_from(*i).ok().filter(|&x| x <= max),
        _ => None,
    }
    .ok_or_else(|| {
        err(format!(
            "checkpoint: field `{what}` must be an integer in [0, {max}], got {value}"
        ))
    })
}

fn field_u64(doc: &Json, what: &str) -> Result<u64, ServeError> {
    checkpoint_int(doc.get(what), what, u64::MAX)
}

/// Reads the integer cells of entry row `n`: the two host ids, then the
/// cell at each index in `rest` (named `rest[i].1`). `shape` names the
/// row's columns for the error when a cell is missing.
fn entry_ints<const N: usize>(
    row: &Json,
    n: usize,
    shape: &str,
    rest: [(usize, &str); N],
) -> Result<(HostId, HostId, [u64; N]), ServeError> {
    if (0..4).any(|i| row.at(i).is_none()) {
        return Err(err(format!(
            "checkpoint: malformed entry row (want {shape})"
        )));
    }
    let cell = |i: usize, name: &str, max: u64| {
        checkpoint_int(row.at(i), &format!("state.entries[{n}].{name}"), max)
    };
    let host = |i: usize, name: &str| cell(i, name, u32::MAX.into()).map(|x| HostId(x as u32));
    let mut ints = [0; N];
    for (slot, (i, name)) in ints.iter_mut().zip(rest) {
        *slot = cell(i, name, u64::MAX)?;
    }
    Ok((host(0, "src")?, host(1, "via")?, ints))
}

/// Serializes the maintainer (exact state + replay cursor) as versioned
/// checkpoint text.
pub fn encode_checkpoint(m: &Maintainer) -> String {
    let state = match m {
        Maintainer::Incremental { counts, .. } => {
            let snap: DecayedSnapshot = counts.snapshot();
            Json::obj([
                ("half_life", f64_bits(snap.half_life)),
                ("clock", Json::from(snap.clock)),
                ("since_sweep", Json::from(snap.since_sweep)),
                (
                    "entries",
                    Json::Arr(
                        snap.entries
                            .iter()
                            .map(|&(s, v, value, at)| {
                                Json::Arr(vec![
                                    Json::from(s.0),
                                    Json::from(v.0),
                                    f64_bits(value),
                                    Json::from(at),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        }
        Maintainer::Lossy { counts, .. } => {
            let snap: LossySnapshot = counts.snapshot();
            Json::obj([
                ("epsilon", f64_bits(snap.epsilon)),
                ("current_bucket", Json::from(snap.current_bucket)),
                ("seen", Json::from(snap.seen)),
                (
                    "entries",
                    Json::Arr(
                        snap.entries
                            .iter()
                            .map(|&(s, v, count, delta)| {
                                Json::Arr(vec![
                                    Json::from(s.0),
                                    Json::from(v.0),
                                    Json::from(count),
                                    Json::from(delta),
                                ])
                            })
                            .collect(),
                    ),
                ),
            ])
        }
    };
    let doc = Json::obj([
        ("spec", Json::from(m.spec())),
        ("consumed", Json::from(m.consumed())),
        ("state", state),
    ]);
    format!("{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION}\n{doc}\n")
}

/// Decodes checkpoint text back into a maintainer. `expected_spec` is
/// the canonical spec of the service's configured maintainer; a mismatch
/// is an error (a checkpoint only resumes the run that wrote it).
pub fn decode_checkpoint(text: &str, expected_spec: &str) -> Result<Maintainer, ServeError> {
    let (header, body) = text
        .split_once('\n')
        .ok_or_else(|| err("checkpoint: missing header line"))?;
    let mut tokens = header.split_whitespace();
    if tokens.next() != Some(CHECKPOINT_MAGIC) {
        return Err(err(format!(
            "checkpoint: bad magic (expected `{CHECKPOINT_MAGIC}`)"
        )));
    }
    let version = tokens.next().unwrap_or("");
    if version != format!("v{CHECKPOINT_VERSION}") {
        return Err(err(format!(
            "checkpoint: unsupported version `{version}` (this build reads v{CHECKPOINT_VERSION})"
        )));
    }
    let doc = json::parse(body).map_err(|e| err(format!("checkpoint: bad JSON body: {e}")))?;
    let spec = doc
        .get("spec")
        .and_then(Json::as_str)
        .ok_or_else(|| err("checkpoint: missing field `spec`"))?;
    if spec != expected_spec {
        return Err(err(format!(
            "checkpoint was written by maintainer `{spec}` but the service is configured \
             as `{expected_spec}`"
        )));
    }
    let consumed = field_u64(&doc, "consumed")?;
    let state = doc
        .get("state")
        .ok_or_else(|| err("checkpoint: missing field `state`"))?;
    let entries = state
        .get("entries")
        .and_then(Json::as_array)
        .ok_or_else(|| err("checkpoint: missing array field `state.entries`"))?;
    let template =
        Maintainer::from_spec(expected_spec).map_err(|e| err(format!("maintainer spec: {e}")))?;
    // The state's own parameter must be the configured one, bit for bit:
    // otherwise the file would resume a maintainer its spec does not name.
    let param = |field: &str, want: f64| {
        let what = format!("state.{field}");
        let got = f64_from_bits(state.get(field), &what)?;
        if got.to_bits() != want.to_bits() {
            return Err(err(format!(
                "checkpoint: field `{what}` is {got} but the spec `{expected_spec}` says {want}"
            )));
        }
        Ok(got)
    };
    let restored = match template {
        Maintainer::Incremental { counts, threshold } => {
            let mut snap = DecayedSnapshot {
                half_life: param("half_life", counts.half_life())?,
                clock: field_u64(state, "clock")?,
                since_sweep: field_u64(state, "since_sweep")?,
                entries: Vec::with_capacity(entries.len()),
            };
            for (n, row) in entries.iter().enumerate() {
                let (s, v, [at]) = entry_ints(row, n, "[src,via,bits,at]", [(3, "at")])?;
                let value = f64_from_bits(row.at(2), "state.entries[].value")?;
                snap.entries.push((s, v, value, at));
            }
            Maintainer::Incremental {
                counts: DecayedPairCounts::restore(&snap),
                threshold,
            }
        }
        Maintainer::Lossy { counts, support } => {
            let mut snap = LossySnapshot {
                epsilon: param("epsilon", counts.epsilon())?,
                current_bucket: field_u64(state, "current_bucket")?,
                seen: field_u64(state, "seen")?,
                entries: Vec::with_capacity(entries.len()),
            };
            for (n, row) in entries.iter().enumerate() {
                let shape = "[src,via,count,delta]";
                let (s, v, [c, d]) = entry_ints(row, n, shape, [(2, "count"), (3, "delta")])?;
                snap.entries.push((s, v, c, d));
            }
            Maintainer::Lossy {
                counts: LossyPairCounts::restore(&snap),
                support,
            }
        }
    };
    if restored.consumed() != consumed {
        return Err(err(format!(
            "checkpoint: `consumed` says {consumed} but the state replays {}",
            restored.consumed()
        )));
    }
    Ok(restored)
}

/// Reads and decodes a checkpoint file. `Ok(None)` when the file does
/// not exist (fresh start); decode errors are not swallowed.
pub fn read_checkpoint(path: &str, expected_spec: &str) -> Result<Option<Maintainer>, ServeError> {
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(err(format!("reading checkpoint {path}: {e}"))),
    };
    decode_checkpoint(&text, expected_spec).map(Some)
}

// ---------------------------------------------------------------------------
// Configuration and shared state
// ---------------------------------------------------------------------------

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Maintainer spec (`incremental(...)` or `lossy(...)`).
    pub spec: String,
    /// Tumbling-block refresh schedule: republish rules every this many
    /// consumed pairs.
    pub block: u64,
    /// Default consequent fan-out for route answers.
    pub k: usize,
    /// Ingest queue capacity (pairs in flight to the miner).
    pub queue: usize,
    /// Enable the load-shedding ladder; off means lossless blocking
    /// backpressure.
    pub shed: bool,
    /// Checkpoint file to restore from and write to.
    pub checkpoint: Option<String>,
    /// Checkpoint every this many consumed pairs (0 = only at drain).
    pub checkpoint_every: u64,
    /// TCP address to serve plaintext metrics on (e.g. `127.0.0.1:0`).
    pub metrics: Option<String>,
    /// Cooperative stop flag (set by the SIGTERM handler or a test).
    pub stop: Arc<AtomicBool>,
    /// Synthetic extra work per observed pair (spin iterations); a
    /// test/bench aid for shaping mining cost. 0 in production.
    pub spin: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            spec: "incremental".to_string(),
            block: 10_000,
            k: 2,
            queue: 1024,
            shed: false,
            checkpoint: None,
            checkpoint_every: 0,
            metrics: None,
            stop: Arc::new(AtomicBool::new(false)),
            spin: 0,
        }
    }
}

/// Queue depth at which the shed ladder steps up (refreshes stop).
fn shed_hi(cap: usize) -> usize {
    (cap.saturating_mul(3) / 4).max(1)
}

/// Queue depth at which the ladder steps down one level.
fn shed_lo(cap: usize) -> usize {
    cap / 4
}

#[derive(Debug, Default)]
struct Counters {
    events: AtomicU64,
    pairs: AtomicU64,
    skipped: AtomicU64,
    routes: AtomicU64,
    route_rules: AtomicU64,
    route_flood: AtomicU64,
    route_shed: AtomicU64,
    shed_pairs: AtomicU64,
    shed_refreshes: AtomicU64,
    refreshes: AtomicU64,
    checkpoints: AtomicU64,
}

/// State shared between the ingest loop, the miner, and the metrics
/// endpoint.
#[derive(Debug)]
struct Shared {
    handle: RuleHandle,
    depth: AtomicUsize,
    cap: usize,
    shed_enabled: bool,
    level: AtomicU8,
    c: Counters,
    route_latency_us: Mutex<Histogram>,
}

impl Shared {
    fn new(cap: usize, shed_enabled: bool) -> Shared {
        Shared {
            handle: RuleHandle::new(),
            depth: AtomicUsize::new(0),
            cap,
            shed_enabled,
            level: AtomicU8::new(0),
            c: Counters::default(),
            // 0–10ms in 50µs buckets; overload pushes into the overflow
            // tail, which the p99 readout clamps to `hi`.
            route_latency_us: Mutex::new(Histogram::new(0.0, 10_000.0, 200)),
        }
    }

    #[inline]
    fn bump(c: &AtomicU64) {
        c.fetch_add(1, Ordering::Relaxed);
    }

    /// Steps the shed ladder from the current queue depth: up to level 1
    /// at the high watermark, down one level at the low watermark.
    /// Level 2 is entered only by an actual queue-full drop.
    fn update_ladder(&self) {
        if !self.shed_enabled {
            return;
        }
        let depth = self.depth.load(Ordering::Relaxed);
        let level = self.level.load(Ordering::Relaxed);
        if depth >= shed_hi(self.cap) && level == 0 {
            self.level.store(1, Ordering::Relaxed);
        } else if depth <= shed_lo(self.cap) && level > 0 {
            self.level.store(level - 1, Ordering::Relaxed);
        }
    }

    fn on_queue_full(&self) {
        self.level.store(2, Ordering::Relaxed);
        Shared::bump(&self.c.shed_pairs);
    }

    /// Snapshots every instrument into a metrics registry (the scrape
    /// and summary view).
    fn registry(&self) -> Registry {
        let mut r = Registry::new();
        let rows: [(&str, &AtomicU64); 11] = [
            ("events_total", &self.c.events),
            ("pairs_total", &self.c.pairs),
            ("pairs_skipped_total", &self.c.skipped),
            ("routes_total", &self.c.routes),
            ("route_rules_total", &self.c.route_rules),
            ("route_flood_total", &self.c.route_flood),
            ("route_shed_total", &self.c.route_shed),
            ("shed_pairs_total", &self.c.shed_pairs),
            ("shed_refreshes_total", &self.c.shed_refreshes),
            ("refreshes_total", &self.c.refreshes),
            ("checkpoints_total", &self.c.checkpoints),
        ];
        for (name, cell) in rows {
            let id = r.counter(name);
            r.inc(id, cell.load(Ordering::Relaxed));
        }
        let epoch = r.gauge("epoch");
        r.set(epoch, self.handle.epoch() as f64);
        let depth = r.gauge("queue_depth");
        r.set(depth, self.depth.load(Ordering::Relaxed) as f64);
        let level = r.gauge("shed_level");
        r.set(level, self.level.load(Ordering::Relaxed) as f64);
        let lat = self.route_latency_us.lock().expect("latency lock");
        r.adopt_histogram("route_latency_us", lat.clone());
        r
    }
}

// ---------------------------------------------------------------------------
// SIGTERM
// ---------------------------------------------------------------------------

static TERM: AtomicBool = AtomicBool::new(false);

/// True once SIGTERM/SIGINT has been delivered (after
/// [`install_signal_handlers`]).
pub fn termination_requested() -> bool {
    TERM.load(Ordering::Relaxed)
}

/// Installs SIGTERM/SIGINT handlers that request a clean drain. No-op
/// off Unix.
#[cfg(unix)]
pub fn install_signal_handlers() {
    extern "C" fn on_term(_sig: i32) {
        TERM.store(true, Ordering::Relaxed);
    }
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGINT: i32 = 2;
    const SIGTERM: i32 = 15;
    let handler = on_term as extern "C" fn(i32) as *const () as usize;
    unsafe {
        signal(SIGTERM, handler);
        signal(SIGINT, handler);
    }
}

/// Installs SIGTERM/SIGINT handlers that request a clean drain. No-op
/// off Unix.
#[cfg(not(unix))]
pub fn install_signal_handlers() {}

// ---------------------------------------------------------------------------
// The miner thread
// ---------------------------------------------------------------------------

struct MinerConfig {
    block: u64,
    checkpoint: Option<String>,
    checkpoint_every: u64,
    spin: u64,
}

fn miner_loop(
    mut m: Maintainer,
    rx: Receiver<(HostId, HostId)>,
    shared: Arc<Shared>,
    cfg: MinerConfig,
) -> Result<Maintainer, String> {
    while let Ok((src, via)) = rx.recv() {
        shared.depth.fetch_sub(1, Ordering::Relaxed);
        m.observe(src, via);
        if cfg.spin > 0 {
            let mut acc = 0u64;
            for i in 0..cfg.spin {
                acc = std::hint::black_box(acc.wrapping_add(i));
            }
        }
        let consumed = m.consumed();
        if cfg.block > 0 && consumed.is_multiple_of(cfg.block) {
            if shared.shed_enabled && shared.level.load(Ordering::Relaxed) >= 1 {
                // Overloaded: skip the refresh, keep absorbing pairs.
                Shared::bump(&shared.c.shed_refreshes);
            } else {
                shared.handle.publish(m.ruleset());
                Shared::bump(&shared.c.refreshes);
            }
        }
        if cfg.checkpoint_every > 0 && consumed.is_multiple_of(cfg.checkpoint_every) {
            if let Some(path) = &cfg.checkpoint {
                write_atomic(path, encode_checkpoint(&m).as_bytes())
                    .map_err(|e| format!("writing checkpoint {path}: {e}"))?;
                Shared::bump(&shared.c.checkpoints);
            }
        }
    }
    Ok(m)
}

// ---------------------------------------------------------------------------
// The service
// ---------------------------------------------------------------------------

/// Final summary of one service run (also serialized to `--out`).
#[derive(Debug, Clone)]
pub struct ServeSummary {
    /// Canonical maintainer spec.
    pub maintainer: String,
    /// Frames processed.
    pub events: u64,
    /// Pairs handed to the miner.
    pub pairs: u64,
    /// Pairs skipped on restart (already covered by the checkpoint).
    pub skipped: u64,
    /// Route lookups answered.
    pub routes: u64,
    /// Lookups answered from rules / by flood fallback / shed.
    pub outcomes: (u64, u64, u64),
    /// Ruleset refreshes published.
    pub refreshes: u64,
    /// Refreshes skipped under overload.
    pub shed_refreshes: u64,
    /// Pairs dropped under overload.
    pub shed_pairs: u64,
    /// Checkpoints written.
    pub checkpoints: u64,
    /// Final publish epoch.
    pub epoch: u64,
    /// Rules in the final set.
    pub rules: usize,
    /// FNV-1a digest of the final rule set.
    pub ruleset_digest: u64,
    /// Route-lookup service latency p50/p99 in microseconds (None when
    /// no lookups were answered). Quantiles come from the fixed-range
    /// histogram, so values clamp at its 10ms ceiling.
    pub route_latency_us: Option<(f64, f64)>,
    /// Bound metrics address, when the endpoint was enabled.
    pub metrics_addr: Option<String>,
    /// False when a stop request cut ingest before EOF.
    pub drained: bool,
}

impl ServeSummary {
    /// The summary as a JSON artifact.
    pub fn to_json(&self) -> Json {
        let (rules, flood, shed) = self.outcomes;
        Json::obj([
            ("serve", Json::from(format!("v{CHECKPOINT_VERSION}"))),
            ("maintainer", Json::from(&self.maintainer)),
            ("events", Json::from(self.events)),
            ("pairs", Json::from(self.pairs)),
            ("skipped", Json::from(self.skipped)),
            ("routes", Json::from(self.routes)),
            (
                "outcomes",
                Json::obj([
                    ("rules", Json::from(rules)),
                    ("flood", Json::from(flood)),
                    ("shed", Json::from(shed)),
                ]),
            ),
            ("refreshes", Json::from(self.refreshes)),
            ("shed_refreshes", Json::from(self.shed_refreshes)),
            ("shed_pairs", Json::from(self.shed_pairs)),
            ("checkpoints", Json::from(self.checkpoints)),
            ("epoch", Json::from(self.epoch)),
            ("rules", Json::from(self.rules)),
            (
                "ruleset_digest",
                Json::from(format!("{:016x}", self.ruleset_digest)),
            ),
            (
                "route_p50_us",
                self.route_latency_us
                    .map_or(Json::Null, |(p50, _)| Json::Float(p50)),
            ),
            (
                "route_p99_us",
                self.route_latency_us
                    .map_or(Json::Null, |(_, p99)| Json::Float(p99)),
            ),
            ("drained", Json::from(self.drained)),
        ])
    }

    /// A human-readable run report.
    pub fn report(&self) -> String {
        let (rules, flood, shed) = self.outcomes;
        let mut s = String::new();
        use std::fmt::Write as _;
        let _ = writeln!(s, "serve: maintainer {}", self.maintainer);
        if let Some(addr) = &self.metrics_addr {
            let _ = writeln!(s, "  metrics:         http://{addr}/metrics");
        }
        let _ = writeln!(
            s,
            "  events:          {} ({} pairs, {} skipped by checkpoint)",
            self.events, self.pairs, self.skipped
        );
        let _ = writeln!(
            s,
            "  routes:          {} ({} rules, {} flood, {} shed)",
            self.routes, rules, flood, shed
        );
        if let Some((p50, p99)) = self.route_latency_us {
            let _ = writeln!(s, "  route latency:   p50 {p50:.0}us  p99 {p99:.0}us");
        }
        let _ = writeln!(
            s,
            "  refreshes:       {} published, {} shed; {} pairs dropped",
            self.refreshes, self.shed_refreshes, self.shed_pairs
        );
        let _ = writeln!(
            s,
            "  checkpoints:     {} written{}",
            self.checkpoints,
            if self.drained { "" } else { " (stopped early)" }
        );
        let _ = writeln!(
            s,
            "  final rules:     {} at epoch {} digest {:016x}",
            self.rules, self.epoch, self.ruleset_digest
        );
        s
    }
}

/// Renders a `routed` reply into `out` (cleared first): the bytes of the
/// equivalent `Json::obj` tree, without building one. `outcome` is one
/// of the fixed words, so it needs no escaping.
fn render_routed(out: &mut String, id: u64, outcome: &'static str, vias: &[HostId], epoch: u64) {
    use std::fmt::Write as _;
    out.clear();
    let _ = write!(
        out,
        "{{\"ev\":\"routed\",\"id\":{id},\"outcome\":\"{outcome}\",\"via\":["
    );
    for (i, via) in vias.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        let _ = write!(out, "{}", via.0);
    }
    let _ = write!(out, "],\"epoch\":{epoch}}}");
}

/// A running service: miner thread, shared state, optional metrics
/// endpoint, and the ingest-side replay cursor.
struct Server {
    cfg: ServeConfig,
    spec: String,
    shared: Arc<Shared>,
    tx: Option<SyncSender<(HostId, HostId)>>,
    miner: Option<JoinHandle<Result<Maintainer, String>>>,
    skip: u64,
    skipped_total: u64,
    metrics_stop: Arc<AtomicBool>,
    metrics_join: Option<JoinHandle<()>>,
    metrics_addr: Option<String>,
    /// Route-reply buffer, reused so rendering a reply allocates nothing.
    reply: String,
}

impl Server {
    fn start(cfg: ServeConfig) -> Result<Server, ServeError> {
        let fresh =
            Maintainer::from_spec(&cfg.spec).map_err(|e| err(format!("maintainer spec: {e}")))?;
        let spec = fresh.spec();
        let mut skip = 0;
        let maintainer = match &cfg.checkpoint {
            Some(path) => match read_checkpoint(path, &spec)? {
                Some(restored) => {
                    skip = restored.consumed();
                    restored
                }
                None => fresh,
            },
            None => fresh,
        };
        let shared = Arc::new(Shared::new(cfg.queue.max(1), cfg.shed));
        if skip > 0 {
            // Serve restored rules immediately; don't wait for the first
            // block boundary after a restart.
            shared.handle.publish(maintainer.ruleset());
        }
        let (tx, rx) = mpsc::sync_channel(cfg.queue.max(1));
        let miner_cfg = MinerConfig {
            block: cfg.block,
            checkpoint: cfg.checkpoint.clone(),
            checkpoint_every: cfg.checkpoint_every,
            spin: cfg.spin,
        };
        let miner_shared = Arc::clone(&shared);
        let miner = std::thread::Builder::new()
            .name("arq-serve-miner".to_string())
            .spawn(move || miner_loop(maintainer, rx, miner_shared, miner_cfg))
            .map_err(|e| err(format!("spawning miner thread: {e}")))?;
        let metrics_stop = Arc::new(AtomicBool::new(false));
        let (metrics_join, metrics_addr) = match &cfg.metrics {
            Some(addr) => {
                let (join, bound) =
                    spawn_metrics(addr, Arc::clone(&shared), Arc::clone(&metrics_stop))?;
                (Some(join), Some(bound))
            }
            None => (None, None),
        };
        Ok(Server {
            cfg,
            spec,
            shared,
            tx: Some(tx),
            miner: Some(miner),
            skip,
            skipped_total: 0,
            metrics_stop,
            metrics_join,
            metrics_addr,
            reply: String::new(),
        })
    }

    fn stopping(&self) -> bool {
        self.cfg.stop.load(Ordering::Relaxed) || termination_requested()
    }

    /// Handles one frame payload, writing any reply frame to `out`.
    fn handle_payload(&mut self, payload: &str, out: &mut dyn Write) -> Result<(), ServeError> {
        Shared::bump(&self.shared.c.events);
        let event = match parse_event(payload) {
            Ok(event) => event,
            Err(e) => {
                // A malformed event is the client's bug, not grounds to
                // kill everyone else's stream: report it in-band.
                let reply = Json::obj([
                    ("ev", Json::from("error")),
                    ("error", Json::from(e.message)),
                ]);
                write_frame(out, &reply.to_string())
                    .and_then(|()| out.flush())
                    .map_err(|e| err(format!("writing error reply: {e}")))?;
                return Ok(());
            }
        };
        match event {
            Event::Pair { src, via } => {
                self.shared.update_ladder();
                if self.skip > 0 {
                    self.skip -= 1;
                    self.skipped_total += 1;
                    Shared::bump(&self.shared.c.skipped);
                    return Ok(());
                }
                let tx = self.tx.as_ref().expect("ingest after finish");
                if self.cfg.shed {
                    match tx.try_send((src, via)) {
                        Ok(()) => {
                            self.shared.depth.fetch_add(1, Ordering::Relaxed);
                            Shared::bump(&self.shared.c.pairs);
                        }
                        Err(TrySendError::Full(_)) => self.shared.on_queue_full(),
                        Err(TrySendError::Disconnected(_)) => {
                            return Err(err("mining thread exited"));
                        }
                    }
                } else {
                    // Lossless mode: block until the miner makes room.
                    // The depth bump precedes send so a blocked producer
                    // reads as a full queue to observers.
                    self.shared.depth.fetch_add(1, Ordering::Relaxed);
                    if tx.send((src, via)).is_err() {
                        return Err(err("mining thread exited"));
                    }
                    Shared::bump(&self.shared.c.pairs);
                }
            }
            Event::Route { id, src, k } => {
                let t0 = Instant::now();
                let k = if k == 0 { self.cfg.k } else { k };
                let overloaded = self.cfg.shed && self.shared.level.load(Ordering::Relaxed) >= 2;
                let (outcome, vias, epoch) = if overloaded {
                    Shared::bump(&self.shared.c.route_shed);
                    ("shed", Vec::new(), self.shared.handle.epoch())
                } else {
                    // The epoch is the answering generation's, from the
                    // same load as the rules.
                    match self.shared.handle.route(src, k) {
                        (RouteDecision::Rules(vias), epoch) => {
                            Shared::bump(&self.shared.c.route_rules);
                            ("rules", vias, epoch)
                        }
                        (RouteDecision::Flood, epoch) => {
                            Shared::bump(&self.shared.c.route_flood);
                            ("flood", Vec::new(), epoch)
                        }
                    }
                };
                Shared::bump(&self.shared.c.routes);
                render_routed(&mut self.reply, id, outcome, &vias, epoch);
                write_frame(out, &self.reply)
                    .and_then(|()| out.flush())
                    .map_err(|e| err(format!("writing route reply: {e}")))?;
                let us = t0.elapsed().as_secs_f64() * 1e6;
                self.shared
                    .route_latency_us
                    .lock()
                    .expect("latency lock")
                    .record(us);
            }
            Event::Stats { id } => {
                let c = &self.shared.c;
                let reply = Json::obj([
                    ("ev", Json::from("stats")),
                    ("id", Json::from(id)),
                    ("events", Json::from(c.events.load(Ordering::Relaxed))),
                    ("pairs", Json::from(c.pairs.load(Ordering::Relaxed))),
                    ("routes", Json::from(c.routes.load(Ordering::Relaxed))),
                    ("epoch", Json::from(self.shared.handle.epoch())),
                    (
                        "queue_depth",
                        Json::from(self.shared.depth.load(Ordering::Relaxed) as u64),
                    ),
                    (
                        "shed_level",
                        Json::from(u64::from(self.shared.level.load(Ordering::Relaxed))),
                    ),
                ]);
                write_frame(out, &reply.to_string())
                    .and_then(|()| out.flush())
                    .map_err(|e| err(format!("writing stats reply: {e}")))?;
            }
        }
        Ok(())
    }

    /// Drains the queue, writes the final checkpoint, and builds the
    /// summary.
    fn finish(mut self, drained: bool) -> Result<ServeSummary, ServeError> {
        drop(self.tx.take());
        let maintainer = self
            .miner
            .take()
            .expect("finish called twice")
            .join()
            .map_err(|_| err("mining thread panicked"))?
            .map_err(err)?;
        // Publish the final state so the summary epoch/rules reflect
        // everything consumed, even mid-block or under shed.
        let final_rules = maintainer.ruleset();
        let epoch = self.shared.handle.publish(final_rules.clone());
        Shared::bump(&self.shared.c.refreshes);
        if let Some(path) = &self.cfg.checkpoint {
            write_atomic(path, encode_checkpoint(&maintainer).as_bytes())
                .map_err(|e| err(format!("writing checkpoint {path}: {e}")))?;
            Shared::bump(&self.shared.c.checkpoints);
        }
        self.metrics_stop.store(true, Ordering::Relaxed);
        if let Some(join) = self.metrics_join.take() {
            let _ = join.join();
        }
        let route_latency_us = {
            let lat = self.shared.route_latency_us.lock().expect("latency lock");
            match (lat.quantile(0.50), lat.quantile(0.99)) {
                (Some(p50), Some(p99)) => Some((p50, p99)),
                _ => None,
            }
        };
        let c = &self.shared.c;
        let load = |cell: &AtomicU64| cell.load(Ordering::Relaxed);
        Ok(ServeSummary {
            maintainer: self.spec.clone(),
            events: load(&c.events),
            pairs: load(&c.pairs),
            skipped: self.skipped_total,
            routes: load(&c.routes),
            outcomes: (
                load(&c.route_rules),
                load(&c.route_flood),
                load(&c.route_shed),
            ),
            refreshes: load(&c.refreshes),
            shed_refreshes: load(&c.shed_refreshes),
            shed_pairs: load(&c.shed_pairs),
            checkpoints: load(&c.checkpoints),
            epoch,
            rules: final_rules.rule_count(),
            ruleset_digest: final_rules.digest(),
            route_latency_us,
            metrics_addr: self.metrics_addr.clone(),
            drained,
        })
    }
}

/// What the byte pump delivered.
enum Feed {
    Data(Vec<u8>),
    Eof,
}

/// Reads `r` on a dedicated thread and forwards chunks, so the ingest
/// loop can poll the stop flag instead of blocking in `read` (a blocked
/// `read` on stdin would otherwise swallow a SIGTERM until the next
/// frame). The thread ends at EOF or when the receiver is dropped and
/// the next read completes.
fn pump(mut r: impl Read + Send + 'static) -> Receiver<Feed> {
    let (tx, rx) = mpsc::sync_channel(8);
    std::thread::Builder::new()
        .name("arq-serve-input".to_string())
        .spawn(move || {
            let mut chunk = vec![0u8; 64 * 1024];
            loop {
                match r.read(&mut chunk) {
                    Ok(0) => {
                        let _ = tx.send(Feed::Eof);
                        return;
                    }
                    Ok(n) => {
                        if tx.send(Feed::Data(chunk[..n].to_vec())).is_err() {
                            return;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e)
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        std::thread::sleep(Duration::from_millis(5));
                    }
                    Err(_) => {
                        let _ = tx.send(Feed::Eof);
                        return;
                    }
                }
            }
        })
        .expect("spawning input pump");
    rx
}

/// Runs the ingest loop over one byte stream until EOF or a stop
/// request, writing reply frames to `replies`. Returns `(drained,
/// truncated)` — `drained` false when stopped early, `truncated` true
/// when EOF cut a frame in half.
fn ingest_stream(
    server: &mut Server,
    input: impl Read + Send + 'static,
    replies: &mut dyn Write,
) -> Result<bool, ServeError> {
    let feed_rx = pump(input);
    let mut frames = FrameReader::new();
    let mut eof = false;
    loop {
        while let Some(payload) = frames.next_payload()? {
            server.handle_payload(payload, replies)?;
        }
        if eof {
            if !frames.is_drained() {
                return Err(err("input ended mid-frame (truncated stream)"));
            }
            return Ok(true);
        }
        if server.stopping() {
            return Ok(false);
        }
        match feed_rx.recv_timeout(Duration::from_millis(100)) {
            Ok(Feed::Data(bytes)) => frames.feed(&bytes),
            Ok(Feed::Eof) | Err(mpsc::RecvTimeoutError::Disconnected) => eof = true,
            Err(mpsc::RecvTimeoutError::Timeout) => {}
        }
    }
}

/// Runs the service over one event stream (stdin or a file). Reply
/// frames go to `replies`.
pub fn run_events(
    cfg: ServeConfig,
    input: impl Read + Send + 'static,
    replies: &mut dyn Write,
) -> Result<ServeSummary, ServeError> {
    let mut server = Server::start(cfg)?;
    let drained = ingest_stream(&mut server, input, replies)?;
    server.finish(drained)
}

/// Runs the service on a Unix domain socket, accepting one connection
/// at a time until a stop request. Mining state and the replay cursor
/// persist across connections.
#[cfg(unix)]
pub fn run_socket(cfg: ServeConfig, path: &str) -> Result<ServeSummary, ServeError> {
    use std::os::unix::net::UnixListener;
    match std::fs::remove_file(path) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(err(format!("removing stale socket {path}: {e}"))),
    }
    let listener =
        UnixListener::bind(path).map_err(|e| err(format!("binding socket {path}: {e}")))?;
    listener
        .set_nonblocking(true)
        .map_err(|e| err(format!("socket {path}: {e}")))?;
    let mut server = Server::start(cfg)?;
    let mut drained = true;
    while !server.stopping() {
        match listener.accept() {
            Ok((stream, _)) => {
                stream
                    .set_nonblocking(false)
                    .map_err(|e| err(format!("socket stream: {e}")))?;
                let reader = stream
                    .try_clone()
                    .map_err(|e| err(format!("socket stream: {e}")))?;
                let mut writer = stream;
                // EOF here is just the client hanging up; keep serving.
                drained = ingest_stream(&mut server, reader, &mut writer)?;
                if !drained {
                    break;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                std::thread::sleep(Duration::from_millis(20));
            }
            Err(e) => return Err(err(format!("accepting on {path}: {e}"))),
        }
    }
    let summary = server.finish(drained);
    let _ = std::fs::remove_file(path);
    summary
}

// ---------------------------------------------------------------------------
// Metrics endpoint
// ---------------------------------------------------------------------------

/// Serves the registry snapshot as Prometheus plaintext over HTTP on
/// `addr` (a `host:port`; port 0 picks one). Returns the accept-loop
/// handle and the bound address.
fn spawn_metrics(
    addr: &str,
    shared: Arc<Shared>,
    stop: Arc<AtomicBool>,
) -> Result<(JoinHandle<()>, String), ServeError> {
    let listener = std::net::TcpListener::bind(addr)
        .map_err(|e| err(format!("binding metrics endpoint {addr}: {e}")))?;
    let bound = listener
        .local_addr()
        .map_err(|e| err(format!("metrics endpoint {addr}: {e}")))?
        .to_string();
    listener
        .set_nonblocking(true)
        .map_err(|e| err(format!("metrics endpoint {addr}: {e}")))?;
    let join = std::thread::Builder::new()
        .name("arq-serve-metrics".to_string())
        .spawn(move || loop {
            match listener.accept() {
                Ok((mut stream, _)) => {
                    let _ = stream.set_nonblocking(false);
                    let _ = stream.set_read_timeout(Some(Duration::from_millis(250)));
                    // Drain (part of) the request; any request gets the
                    // same scrape.
                    let mut request = [0u8; 1024];
                    let _ = stream.read(&mut request);
                    let body = to_prometheus(&shared.registry(), "arq_serve");
                    let _ = write!(
                        stream,
                        "HTTP/1.0 200 OK\r\ncontent-type: text/plain; version=0.0.4\r\n\
                         content-length: {}\r\nconnection: close\r\n\r\n{body}",
                        body.len()
                    );
                }
                Err(_) => {
                    if stop.load(Ordering::Relaxed) {
                        return;
                    }
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        })
        .map_err(|e| err(format!("spawning metrics thread: {e}")))?;
    Ok((join, bound))
}

// ---------------------------------------------------------------------------
// Event stream generation (the `gen-events` command)
// ---------------------------------------------------------------------------

/// Renders a pair record as a `pair` event frame payload (full trace
/// schema, though the service only needs `src`/`via`).
pub fn pair_event_json(p: &arq_trace::record::PairRecord) -> String {
    Json::obj([
        ("ev", Json::from("pair")),
        ("time", Json::from(p.time.ticks())),
        ("guid", Json::from(format!("{:032x}", p.guid.0))),
        ("src", Json::from(p.src.0)),
        ("via", Json::from(p.via.0)),
        ("responder", Json::from(p.responder.0)),
        ("query", Json::from(p.query.0)),
    ])
    .to_string()
}

/// Renders a framed event stream for a synthetic trace: every pair as a
/// `pair` frame, plus a `route` lookup (for the pair's own antecedent)
/// after every `route_every` pairs when nonzero.
pub fn render_event_stream(pairs: &[arq_trace::record::PairRecord], route_every: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(pairs.len() * 96);
    let mut lookup_id = 0u64;
    for (i, p) in pairs.iter().enumerate() {
        write_frame(&mut out, &pair_event_json(p)).expect("vec write");
        if route_every > 0 && (i + 1) % route_every == 0 {
            lookup_id += 1;
            let route = Json::obj([
                ("ev", Json::from("route")),
                ("id", Json::from(lookup_id)),
                ("src", Json::from(p.src.0)),
            ]);
            write_frame(&mut out, &route.to_string()).expect("vec write");
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use arq_simkern::Rng64;
    use arq_trace::record::PairRecord;
    use arq_trace::{SynthConfig, SynthTrace};

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("arq-serve-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn trace(pairs: usize, seed: u64) -> Vec<PairRecord> {
        SynthTrace::new(SynthConfig::paper_default(pairs, seed)).pairs()
    }

    #[test]
    fn frame_round_trip_and_partials() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, "{\"a\":1}").unwrap();
        write_frame(&mut bytes, "").unwrap();
        write_frame(&mut bytes, "hello").unwrap();
        let mut fr = FrameReader::new();
        // Feed byte-by-byte: partials must never produce a frame early.
        let mut got = Vec::new();
        for b in bytes {
            fr.feed(&[b]);
            while let Some(f) = fr.next_frame().unwrap() {
                got.push(f);
            }
        }
        assert_eq!(got, ["{\"a\":1}", "", "hello"]);
        assert!(fr.is_drained());
    }

    #[test]
    fn bad_length_header_is_an_error() {
        let mut fr = FrameReader::new();
        fr.feed(b"xyz\npayload\n");
        assert!(fr
            .next_frame()
            .unwrap_err()
            .message
            .contains("length header"));
    }

    #[test]
    fn missing_frame_terminator_is_an_error() {
        let mut fr = FrameReader::new();
        fr.feed(b"2\nabX");
        let e = fr.next_frame().unwrap_err();
        assert!(e.message.contains("not followed by newline"), "{e}");
    }

    #[test]
    fn event_parsing_names_the_missing_field() {
        assert_eq!(
            parse_event("{\"ev\":\"pair\",\"src\":1,\"via\":2}").unwrap(),
            Event::Pair {
                src: HostId(1),
                via: HostId(2)
            }
        );
        let e = parse_event("{\"ev\":\"pair\",\"src\":1}").unwrap_err();
        assert!(e.message.contains("`via`"), "{e}");
        let e = parse_event("{\"ev\":\"warp\"}").unwrap_err();
        assert!(e.message.contains("unknown event kind `warp`"), "{e}");
    }

    #[test]
    fn overflowing_length_headers_are_typed_errors() {
        for len in [usize::MAX as u64, u64::MAX] {
            let mut fr = FrameReader::new();
            fr.feed(format!("{len}\n{{}}\n").as_bytes());
            let e = fr.next_frame().unwrap_err();
            assert!(e.message.contains("bad frame length"), "{len}: {e}");
        }
    }

    /// The in-band error for one payload, which must name `field` and
    /// `value`.
    fn assert_rejected(payload: &str, field: &str, value: &str) {
        let e = parse_event(payload).unwrap_err();
        assert!(
            e.message.contains(&format!("`{field}`")) && e.message.contains(value),
            "{payload}: {e}"
        );
    }

    #[test]
    fn a_host_id_beyond_u32_is_rejected_not_wrapped() {
        assert_rejected(
            "{\"ev\":\"pair\",\"src\":4294967297,\"via\":7}",
            "src",
            "4294967297",
        );
        assert_rejected(
            "{\"ev\":\"route\",\"id\":1,\"src\":99999999999}",
            "src",
            "99999999999",
        );
        // The largest id is still a host.
        assert_eq!(
            parse_event("{\"ev\":\"pair\",\"src\":4294967295,\"via\":0}").unwrap(),
            Event::Pair {
                src: HostId(u32::MAX),
                via: HostId(0)
            }
        );
        // End to end: the wrapped id would have trained host 1.
        let mut stream = Vec::new();
        for _ in 0..50 {
            write_frame(
                &mut stream,
                "{\"ev\":\"pair\",\"src\":4294967297,\"via\":7}",
            )
            .unwrap();
        }
        let mut replies = Vec::new();
        let summary = run_events(
            ServeConfig {
                spec: "incremental(t=1,hl=1000)".to_string(),
                block: 10,
                ..ServeConfig::default()
            },
            std::io::Cursor::new(stream),
            &mut replies,
        )
        .unwrap();
        assert_eq!((summary.pairs, summary.rules), (0, 0));
        let text = String::from_utf8(replies).unwrap();
        assert_eq!(text.matches("\"ev\":\"error\"").count(), 50, "{text}");
    }

    #[test]
    fn a_negative_host_id_is_rejected() {
        assert_rejected("{\"ev\":\"pair\",\"src\":-3,\"via\":2}", "src", "-3");
        assert_rejected("{\"ev\":\"route\",\"src\":-1}", "src", "-1");
    }

    #[test]
    fn a_fractional_host_id_is_rejected() {
        assert_rejected("{\"ev\":\"pair\",\"src\":3,\"via\":2.9}", "via", "2.9");
        assert_rejected("{\"ev\":\"pair\",\"src\":3.0,\"via\":2}", "src", "3.0");
    }

    #[test]
    fn a_negative_or_fractional_id_or_k_is_rejected() {
        assert_rejected("{\"ev\":\"route\",\"id\":-1,\"src\":1}", "id", "-1");
        assert_rejected("{\"ev\":\"route\",\"id\":1.5,\"src\":1}", "id", "1.5");
        assert_rejected("{\"ev\":\"route\",\"id\":1,\"src\":1,\"k\":-2}", "k", "-2");
        assert_rejected(
            "{\"ev\":\"route\",\"id\":1,\"src\":1,\"k\":0.5}",
            "k",
            "0.5",
        );
        assert_rejected("{\"ev\":\"stats\",\"id\":-7}", "id", "-7");
        assert_rejected("{\"ev\":\"stats\",\"id\":\"7\"}", "id", "\"7\"");
        // Absent is still 0; past `u64::MAX` is out of range.
        assert_eq!(
            parse_event("{\"ev\":\"stats\"}").unwrap(),
            Event::Stats { id: 0 }
        );
        assert_rejected(
            "{\"ev\":\"stats\",\"id\":18446744073709551616}",
            "id",
            "18446744073709551616",
        );
    }

    /// The frame shapes `arq gen-events` and the benchmark write.
    fn hot_frames(pairs: &[PairRecord]) -> Vec<(String, Event)> {
        let mut frames = Vec::new();
        for (i, p) in pairs.iter().enumerate() {
            let (src, via) = (p.src, p.via);
            frames.push((pair_event_json(p), Event::Pair { src, via }));
            let id = i as u64 + 1;
            frames.push((
                format!("{{\"ev\":\"route\",\"id\":{id},\"src\":{}}}", src.0),
                Event::Route { id, src, k: 0 },
            ));
        }
        frames
    }

    #[test]
    fn every_benchmark_shaped_frame_takes_the_scanner() {
        for (payload, event) in hot_frames(&trace(2_000, 3)) {
            assert_eq!(scan_event(payload.as_bytes()), Some(event), "{payload}");
        }
        let stream = render_event_stream(&trace(2_000, 4), 10);
        let mut fr = FrameReader::new();
        fr.feed(&stream);
        let mut frames = 0;
        while let Some(payload) = fr.next_payload().unwrap() {
            assert!(scan_event(payload.as_bytes()).is_some(), "{payload}");
            frames += 1;
        }
        assert_eq!(frames, 2_200);
        for payload in [
            "{\"ev\":\"stats\",\"id\":9}",
            "{\"ev\":\"route\",\"id\":5,\"src\":3,\"k\":4}",
            " {\"ev\" : \"pair\" ,\t\"src\":1,\"via\":2}\r\n",
        ] {
            assert!(scan_event(payload.as_bytes()).is_some(), "{payload}");
        }
    }

    /// A random value in one of the shapes the mutator mixes: mostly
    /// plain integers and strings, sometimes a shape the scanner must
    /// decline.
    fn mutant_value(rng: &mut Rng64) -> String {
        let n = rng.below(1 << 33);
        match rng.below(12) {
            0 => format!("{n}.5"),
            1 => format!("{}e2", n % 100),
            2 => format!("-{n}"),
            3 => {
                let digits = 16 + rng.index(25);
                (0..digits)
                    .map(|i| char::from(b'0' + (rng.below(9) + u64::from(i == 0)) as u8))
                    .collect()
            }
            4 => ["{\"y\":[1,2]}", "[]", "null", "true", "false"][rng.index(5)].to_string(),
            5 => ["\"a\\\"b\"", "\"\\u00e9\"", "\"é\"", "\"pair\""][rng.index(4)].to_string(),
            6 => (4_294_967_290 + rng.below(10)).to_string(),
            7 | 8 => format!("\"{:x}\"", rng.next_u64()),
            _ => (n % 100_000).to_string(),
        }
    }

    /// Optional whitespace, as `simkern::json` skips it.
    fn mutant_ws(rng: &mut Rng64) -> &'static str {
        [" ", "", "", "", "\t", "\n", "\r\n"][rng.index(7)]
    }

    /// Seeded structural and byte-level mutations of the hot frames.
    fn mutant(rng: &mut Rng64, base: &str) -> String {
        let Ok(Json::Obj(fields)) = json::parse(base) else {
            unreachable!("hot frames are objects")
        };
        let mut fields: Vec<(String, String)> = fields
            .into_iter()
            .map(|(k, v)| (format!("\"{k}\""), v.to_string()))
            .collect();
        const KEYS: [&str; 7] = ["ev", "src", "via", "id", "k", "time", "x"];
        for _ in 0..rng.below(4) {
            // An insertion point, and the field nearest it.
            let at = rng.index(fields.len() + 1);
            let near = at.min(fields.len().saturating_sub(1));
            match rng.below(6) {
                // A key that may already be present.
                0 => {
                    let key = format!("\"{}\"", KEYS[rng.index(KEYS.len())]);
                    fields.insert(at, (key, mutant_value(rng)));
                }
                // Escapes and multi-byte text in a key.
                1 if !fields.is_empty() => {
                    let key = &mut fields[near].0;
                    let esc = ["\\\"", "\\u00e9", "é", "\\u0076"][rng.index(4)];
                    let inside = if rng.chance(0.5) { 1 } else { key.len() - 1 };
                    key.insert_str(inside, esc);
                }
                // A new value for an existing key.
                2 | 3 if !fields.is_empty() => fields[near].1 = mutant_value(rng),
                4 if !fields.is_empty() => {
                    fields.remove(near);
                }
                _ => fields.insert(at, ("\"x\"".to_string(), mutant_value(rng))),
            }
        }
        let mut text = String::from(mutant_ws(rng));
        text.push('{');
        for (i, (k, v)) in fields.iter().enumerate() {
            if i > 0 {
                text.push(',');
            }
            for part in [
                mutant_ws(rng),
                k.as_str(),
                mutant_ws(rng),
                ":",
                mutant_ws(rng),
                v.as_str(),
                mutant_ws(rng),
            ] {
                text.push_str(part);
            }
        }
        text.push('}');
        text.push_str(mutant_ws(rng));
        let mut bytes = text.into_bytes();
        match rng.below(8) {
            0 => {
                let at = rng.index(bytes.len());
                bytes[at] ^= 1 << rng.below(8);
            }
            1 => bytes.truncate(rng.index(bytes.len() + 1)),
            2 => {
                let junk = b"{}[]\",:-.0e\\ ";
                bytes.insert(rng.index(bytes.len() + 1), junk[rng.index(junk.len())]);
            }
            _ => {}
        }
        String::from_utf8_lossy(&bytes).into_owned()
    }

    #[test]
    fn the_scanner_agrees_with_the_tree_reader_on_mutated_frames() {
        let mut rng = Rng64::seed_from(0x5ca9);
        let bases = hot_frames(&trace(300, 11));
        let stats = "{\"ev\":\"stats\",\"id\":3}".to_string();
        let (mut fast, mut errors) = (0, 0);
        // Framed runs of the same payloads, each for a fresh reader;
        // a run may end in a frame behind a lying length header.
        let mut sessions: Vec<(Vec<u8>, Vec<String>)> = vec![Default::default()];
        for case in 0..24_000 {
            let base = match case % 5 {
                4 => &stats,
                _ => &bases[rng.index(bases.len())].0,
            };
            let payload = mutant(&mut rng, base);
            let tree = parse_event_tree(&payload);
            if let Some(event) = scan_event(payload.as_bytes()) {
                assert_eq!(Ok(event), tree, "{payload}");
                fast += 1;
            }
            errors += usize::from(tree.is_err());
            assert_eq!(parse_event(&payload), tree, "{payload}");
            let (bytes, payloads) = sessions.last_mut().unwrap();
            if rng.chance(0.02) {
                let lie = [0, 1, 999_999_999, u64::MAX][rng.index(4)];
                bytes.extend_from_slice(format!("{lie}\n{payload}\n").as_bytes());
                sessions.push(Default::default());
            } else {
                write_frame(bytes, &payload).unwrap();
                payloads.push(payload);
            }
        }
        // Both paths are exercised, and neither dominates.
        assert!(
            fast > 4_000 && errors > 4_000,
            "{fast} fast, {errors} errors"
        );

        // Fed in random chunks, a reader returns every honest frame in
        // order, never panics, and never holds more than it was fed.
        for (bytes, payloads) in &sessions {
            let mut fr = FrameReader::new();
            let (mut at, mut got) = (0, Vec::new());
            'feed: while at < bytes.len() {
                let end = (at + 1 + rng.index(300)).min(bytes.len());
                fr.feed(&bytes[at..end]);
                at = end;
                assert!(fr.buf.len() <= at);
                loop {
                    match fr.next_payload() {
                        Ok(Some(payload)) => got.push(payload.to_string()),
                        Ok(None) => break,
                        Err(_) => break 'feed,
                    }
                }
            }
            assert!(got.len() >= payloads.len());
            assert_eq!(&got[..payloads.len()], payloads.as_slice());
        }
    }

    #[test]
    fn routed_replies_render_as_the_json_tree_would() {
        let mut rng = Rng64::seed_from(29);
        let mut out = String::new();
        for _ in 0..2_000 {
            let id = match rng.below(3) {
                0 => rng.below(1_000),
                1 => rng.next_u64(),
                _ => u64::MAX,
            };
            let outcome = ["rules", "flood", "shed"][rng.index(3)];
            let vias: Vec<HostId> = (0..rng.below(6)).map(|_| HostId(rng.next_u32())).collect();
            let epoch = rng.below(1 << 40);
            render_routed(&mut out, id, outcome, &vias, epoch);
            let tree = Json::obj([
                ("ev", Json::from("routed")),
                ("id", Json::from(id)),
                ("outcome", Json::from(outcome)),
                (
                    "via",
                    Json::Arr(vias.iter().map(|h| Json::from(h.0)).collect()),
                ),
                ("epoch", Json::from(epoch)),
            ]);
            assert_eq!(out, tree.to_string());
        }
    }

    #[test]
    fn a_large_checkpoint_round_trips() {
        let mut m = Maintainer::from_spec("incremental(t=2,hl=1000000)").unwrap();
        for i in 0..20_000u32 {
            m.observe(HostId(i), HostId(i.wrapping_mul(2_654_435_761)));
        }
        let text = encode_checkpoint(&m);
        let Maintainer::Incremental { counts, .. } = &m else {
            unreachable!()
        };
        assert_eq!(counts.snapshot().entries.len(), 20_000);
        let restored = decode_checkpoint(&text, &m.spec()).unwrap();
        assert_eq!(restored.consumed(), 20_000);
        assert_eq!(encode_checkpoint(&restored), text);
    }

    #[test]
    fn maintainer_specs_round_trip() {
        let m = Maintainer::from_spec("incremental").unwrap();
        assert_eq!(m.spec(), "incremental(t=10,hl=20000)");
        let m = Maintainer::from_spec("lossy(t=5,eps=0.001)").unwrap();
        assert_eq!(m.spec(), "lossy(t=5,eps=0.001)");
        let e = Maintainer::from_spec("magic").unwrap_err().to_string();
        assert!(e.contains("unknown maintainer `magic`"), "{e}");
        let e = Maintainer::from_spec("incremental(zap=1)")
            .unwrap_err()
            .to_string();
        assert!(e.contains("unknown parameter `zap`"), "{e}");
    }

    #[test]
    fn checkpoint_round_trips_exactly() {
        for spec in ["incremental(t=2,hl=500)", "lossy(t=2,eps=0.01)"] {
            let mut m = Maintainer::from_spec(spec).unwrap();
            for p in trace(3_000, 7) {
                m.observe(p.src, p.via);
            }
            let restored = decode_checkpoint(&encode_checkpoint(&m), &m.spec()).unwrap();
            assert_eq!(restored.consumed(), m.consumed(), "{spec}");
            assert_eq!(
                restored.ruleset().digest(),
                m.ruleset().digest(),
                "{spec} digest"
            );
            // The restored state must also *evolve* identically.
            let mut m2 = restored;
            let mut m1 = m;
            for p in trace(500, 8) {
                m1.observe(p.src, p.via);
                m2.observe(p.src, p.via);
            }
            assert_eq!(
                m1.ruleset().digest(),
                m2.ruleset().digest(),
                "{spec} suffix"
            );
        }
    }

    #[test]
    fn checkpoint_errors_are_typed() {
        let m = Maintainer::from_spec("incremental").unwrap();
        let text = encode_checkpoint(&m);
        let future = text.replacen("v1", "v9", 1);
        let e = decode_checkpoint(&future, &m.spec()).unwrap_err();
        assert!(e.message.contains("unsupported version `v9`"), "{e}");
        let e = decode_checkpoint(&text, "lossy(t=10,eps=0.0001)").unwrap_err();
        assert!(e.message.contains("configured as `lossy"), "{e}");
        let e = decode_checkpoint("garbage", &m.spec()).unwrap_err();
        assert!(
            e.message.contains("bad magic") || e.message.contains("header"),
            "{e}"
        );
    }

    /// A corrupt integer never restores as some other number: a host id
    /// past `u32`, a negative or a fractional value is an error naming
    /// the field and the value it read.
    #[test]
    fn corrupt_checkpoint_integers_are_errors_not_casts() {
        let header = format!("{CHECKPOINT_MAGIC} v{CHECKPOINT_VERSION}");
        let bits = |x: f64| format!("\"{:016x}\"", x.to_bits());
        let (one, hl, eps) = (bits(1.0), bits(20_000.0), bits(0.0001));
        let incremental = |consumed: &str, row: &str| {
            format!(
                "{header}\n{{\"spec\":\"incremental(t=10,hl=20000)\",\"consumed\":{consumed},\
                 \"state\":{{\"half_life\":{hl},\"clock\":1,\"since_sweep\":1,\
                 \"entries\":[{row}]}}}}\n"
            )
        };
        let lossy = |row: &str| {
            format!(
                "{header}\n{{\"spec\":\"lossy(t=10,eps=0.0001)\",\"consumed\":1,\
                 \"state\":{{\"epsilon\":{eps},\"current_bucket\":1,\"seen\":1,\
                 \"entries\":[{row}]}}}}\n"
            )
        };
        let ok = incremental("1", &format!("[1,2,{one},1]"));
        assert!(decode_checkpoint(&ok, "incremental(t=10,hl=20000)").is_ok());
        let cases = [
            (
                incremental("1", &format!("[4294967297,2,{one},1]")),
                "`state.entries[0].src` must be an integer in [0, 4294967295], got 4294967297",
            ),
            (
                incremental("1", &format!("[1,-3,{one},1]")),
                "`state.entries[0].via` must be an integer in [0, 4294967295], got -3",
            ),
            (
                incremental("1", &format!("[2.9,2,{one},1]")),
                "`state.entries[0].src` must be an integer in [0, 4294967295], got 2.9",
            ),
            (
                incremental("1", &format!("[1,2,{one},-1]")),
                "`state.entries[0].at` must be an integer",
            ),
            (
                incremental("2.9", &format!("[1,2,{one},1]")),
                "`consumed` must be an integer in [0, 18446744073709551615], got 2.9",
            ),
            (
                incremental("-3", &format!("[1,2,{one},1]")),
                "`consumed` must be an integer",
            ),
            (
                lossy("[1,2,2.9,0]"),
                "`state.entries[0].count` must be an integer",
            ),
            (
                lossy("[1,2,1,-3]"),
                "`state.entries[0].delta` must be an integer",
            ),
            (
                lossy("[1,2,1]"),
                "malformed entry row (want [src,via,count,delta])",
            ),
        ];
        for (text, want) in &cases {
            let spec = if text.contains("lossy") {
                "lossy(t=10,eps=0.0001)"
            } else {
                "incremental(t=10,hl=20000)"
            };
            let e = decode_checkpoint(text, spec).unwrap_err();
            assert!(e.message.starts_with("checkpoint: "), "{e}");
            assert!(e.message.contains(want), "want {want}, got {e}");
        }
    }

    /// A checkpoint's state must hold the configured maintainer's own
    /// `half_life` / `epsilon` bits; anything else, zero, negative and
    /// NaN included, is a `checkpoint:` error naming the field.
    #[test]
    fn checkpoint_state_must_match_its_spec() {
        for (spec, field, bad) in [
            ("incremental(t=4,hl=8000)", "half_life", 0.0),
            ("incremental(t=4,hl=8000)", "half_life", -5000.0),
            ("incremental(t=4,hl=8000)", "half_life", f64::NAN),
            ("incremental(t=4,hl=8000)", "half_life", 5000.0),
            ("lossy(t=10,eps=0.0001)", "epsilon", 0.0),
            ("lossy(t=10,eps=0.0001)", "epsilon", 2.0),
            ("lossy(t=10,eps=0.0001)", "epsilon", 0.001),
        ] {
            let mut m = Maintainer::from_spec(spec).unwrap();
            for p in trace(500, 3) {
                m.observe(p.src, p.via);
            }
            let text = encode_checkpoint(&m);
            assert!(decode_checkpoint(&text, spec).is_ok(), "{spec}");
            let good = match &m {
                Maintainer::Incremental { counts, .. } => counts.half_life(),
                Maintainer::Lossy { counts, .. } => counts.epsilon(),
            };
            let hex = |x: f64| format!("\"{field}\":\"{:016x}\"", x.to_bits());
            let tampered = text.replacen(&hex(good), &hex(bad), 1);
            assert_ne!(tampered, text, "{spec}: field not found");
            let e = decode_checkpoint(&tampered, spec).unwrap_err();
            assert!(
                e.message
                    .starts_with(&format!("checkpoint: field `state.{field}`")),
                "{spec} {field}={bad}: {e}"
            );
        }
    }

    #[test]
    fn end_to_end_stream_matches_direct_feed() {
        let pairs = trace(4_000, 42);
        let stream = render_event_stream(&pairs, 500);
        let cfg = ServeConfig {
            spec: "incremental(t=5,hl=2000)".to_string(),
            block: 1_000,
            queue: 64,
            ..ServeConfig::default()
        };
        let mut replies = Vec::new();
        let summary = run_events(cfg, std::io::Cursor::new(stream), &mut replies).unwrap();
        assert_eq!(summary.pairs, 4_000);
        assert_eq!(summary.routes, 8);
        assert!(summary.drained);
        assert!(summary.refreshes >= 4, "{}", summary.refreshes);
        // Same digest as feeding the maintainer directly.
        let mut direct = Maintainer::from_spec("incremental(t=5,hl=2000)").unwrap();
        for p in &pairs {
            direct.observe(p.src, p.via);
        }
        assert_eq!(summary.ruleset_digest, direct.ruleset().digest());
        // Replies are well-formed routed frames.
        let text = String::from_utf8(replies).unwrap();
        assert!(text.contains("\"ev\":\"routed\""), "{text}");
        assert!(text.contains("\"outcome\":\"rules\"") || text.contains("\"outcome\":\"flood\""));
    }

    #[test]
    fn malformed_events_get_error_replies_not_aborts() {
        let mut stream = Vec::new();
        write_frame(&mut stream, "{\"ev\":\"nope\"}").unwrap();
        write_frame(&mut stream, "{\"ev\":\"pair\",\"src\":1,\"via\":2}").unwrap();
        write_frame(&mut stream, "{\"ev\":\"stats\",\"id\":9}").unwrap();
        let mut replies = Vec::new();
        let summary = run_events(
            ServeConfig::default(),
            std::io::Cursor::new(stream),
            &mut replies,
        )
        .unwrap();
        assert_eq!(summary.events, 3);
        assert_eq!(summary.pairs, 1);
        let text = String::from_utf8(replies).unwrap();
        assert!(text.contains("\"ev\":\"error\""), "{text}");
        assert!(text.contains("\"ev\":\"stats\""), "{text}");
    }

    #[test]
    fn kill_and_restart_reaches_the_uninterrupted_digest() {
        let dir = temp_dir("restart");
        let pairs = trace(6_000, 13);
        let full = render_event_stream(&pairs, 0);
        let spec = "incremental(t=4,hl=3000)".to_string();
        // Uninterrupted reference run.
        let reference = run_events(
            ServeConfig {
                spec: spec.clone(),
                block: 1_000,
                ..ServeConfig::default()
            },
            std::io::Cursor::new(full.clone()),
            &mut Vec::new(),
        )
        .unwrap();
        // "Crashed" run: only a prefix of the stream arrives, but
        // checkpoints are being written along the way.
        let ckpt = dir.join("serve.ckpt").to_string_lossy().to_string();
        let cut = full.len() * 3 / 5;
        let mut prefix = full[..cut].to_vec();
        // Cut exactly at a frame boundary: drop the trailing partial.
        while !prefix.is_empty() && prefix.last() != Some(&b'\n') {
            prefix.pop();
        }
        // A partial frame at EOF is a truncation error — emulate the
        // crash by streaming only whole frames.
        let mut fr = FrameReader::new();
        fr.feed(&prefix);
        let mut whole = Vec::new();
        while let Ok(Some(f)) = fr.next_frame() {
            write_frame(&mut whole, &f).unwrap();
        }
        let crashed = run_events(
            ServeConfig {
                spec: spec.clone(),
                block: 1_000,
                checkpoint: Some(ckpt.clone()),
                checkpoint_every: 500,
                ..ServeConfig::default()
            },
            std::io::Cursor::new(whole),
            &mut Vec::new(),
        )
        .unwrap();
        assert!(crashed.checkpoints > 1, "{}", crashed.checkpoints);
        // Restart: full stream again, same checkpoint path. The replay
        // cursor skips what the checkpoint already covers.
        let restarted = run_events(
            ServeConfig {
                spec: spec.clone(),
                block: 1_000,
                checkpoint: Some(ckpt),
                checkpoint_every: 500,
                ..ServeConfig::default()
            },
            std::io::Cursor::new(full),
            &mut Vec::new(),
        )
        .unwrap();
        assert!(restarted.skipped > 0);
        assert_eq!(restarted.skipped + restarted.pairs, 6_000);
        assert_eq!(restarted.ruleset_digest, reference.ruleset_digest);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn overload_sheds_explicitly_and_recovers() {
        // A deliberately slow miner (spin) and a tiny queue force the
        // ladder through all its levels.
        let mut stream = Vec::new();
        for i in 0..200u32 {
            write_frame(
                &mut stream,
                &format!("{{\"ev\":\"pair\",\"src\":{},\"via\":7}}", i % 5),
            )
            .unwrap();
        }
        write_frame(&mut stream, "{\"ev\":\"route\",\"id\":1,\"src\":0}").unwrap();
        let cfg = ServeConfig {
            spec: "incremental(t=2,hl=1000)".to_string(),
            block: 50,
            queue: 2,
            shed: true,
            spin: 500_000,
            ..ServeConfig::default()
        };
        let mut replies = Vec::new();
        let summary = run_events(cfg, std::io::Cursor::new(stream), &mut replies).unwrap();
        assert!(summary.shed_pairs > 0, "queue never filled");
        assert_eq!(
            summary.pairs + summary.shed_pairs,
            200,
            "drops must be counted, never silent"
        );
        let text = String::from_utf8(replies).unwrap();
        assert!(
            text.contains("\"outcome\":\"shed\""),
            "route under overload must answer `shed`: {text}"
        );
        assert_eq!(summary.outcomes.2, 1);
    }

    #[test]
    fn stop_flag_drains_early_but_cleanly() {
        let stop = Arc::new(AtomicBool::new(true)); // stop before the first frame
        let cfg = ServeConfig {
            stop: Arc::clone(&stop),
            ..ServeConfig::default()
        };
        let stream = render_event_stream(&trace(100, 1), 0);
        let summary = run_events(cfg, std::io::Cursor::new(stream), &mut Vec::new()).unwrap();
        assert!(!summary.drained);
        assert_eq!(summary.pairs, 0);
    }

    #[cfg(unix)]
    #[test]
    fn socket_serves_routes_across_connections() {
        use std::os::unix::net::UnixStream;
        let dir = temp_dir("socket");
        let sock = dir.join("arq.sock").to_string_lossy().to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let cfg = ServeConfig {
            spec: "incremental(t=2,hl=1000)".to_string(),
            block: 10,
            stop: Arc::clone(&stop),
            ..ServeConfig::default()
        };
        let sock2 = sock.clone();
        let service = std::thread::spawn(move || run_socket(cfg, &sock2));
        // Wait for the socket to appear.
        let mut stream = None;
        for _ in 0..200 {
            if let Ok(s) = UnixStream::connect(&sock) {
                stream = Some(s);
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        let mut stream = stream.expect("service socket never appeared");
        for _ in 0..20 {
            write_frame(&mut stream, "{\"ev\":\"pair\",\"src\":3,\"via\":9}").unwrap();
        }
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut fr = FrameReader::new();
        let next_reply = |stream: &mut UnixStream, fr: &mut FrameReader| loop {
            if let Some(f) = fr.next_frame().unwrap() {
                break f;
            }
            let mut chunk = [0u8; 4096];
            let n = stream.read(&mut chunk).unwrap();
            assert!(n > 0, "service hung up early");
            fr.feed(&chunk[..n]);
        };
        // The miner publishes asynchronously; poll stats until the first
        // block refresh lands before asking for a rules answer.
        loop {
            write_frame(&mut stream, "{\"ev\":\"stats\",\"id\":1}").unwrap();
            let stats = next_reply(&mut stream, &mut fr);
            if !stats.contains("\"epoch\":0") {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        write_frame(&mut stream, "{\"ev\":\"route\",\"id\":5,\"src\":3}").unwrap();
        let reply = next_reply(&mut stream, &mut fr);
        assert!(reply.contains("\"id\":5"), "{reply}");
        assert!(reply.contains("\"outcome\":\"rules\""), "{reply}");
        drop(stream);
        stop.store(true, Ordering::Relaxed);
        let summary = service.join().unwrap().unwrap();
        assert_eq!(summary.pairs, 20);
        assert_eq!(summary.routes, 1);
        assert!(
            !std::path::Path::new(&sock).exists(),
            "socket not cleaned up"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn metrics_endpoint_scrapes_prometheus_text() {
        let shared = Arc::new(Shared::new(8, false));
        Shared::bump(&shared.c.events);
        Shared::bump(&shared.c.events);
        let stop = Arc::new(AtomicBool::new(false));
        let (join, addr) =
            spawn_metrics("127.0.0.1:0", Arc::clone(&shared), Arc::clone(&stop)).unwrap();
        let mut conn = std::net::TcpStream::connect(&addr).unwrap();
        conn.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").unwrap();
        let mut body = String::new();
        std::io::BufReader::new(conn)
            .read_to_string(&mut body)
            .unwrap();
        assert!(body.starts_with("HTTP/1.0 200 OK"), "{body}");
        assert!(body.contains("arq_serve_events_total 2"), "{body}");
        assert!(
            body.contains("# TYPE arq_serve_route_latency_us histogram"),
            "{body}"
        );
        assert!(
            body.lines().any(|l| l.starts_with("arq_serve_epoch ")),
            "{body}"
        );
        stop.store(true, Ordering::Relaxed);
        join.join().unwrap();
    }
}
