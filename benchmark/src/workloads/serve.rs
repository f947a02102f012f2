//! `serve-ingest`, `serve-route` — the streaming router service as `arq
//! serve --input FILE` drives it: a framed event file rendered in
//! set-up, then `serve::run_events` from first byte read to
//! `ServeSummary` (measured), replies to a counting sink. Closed loop by
//! backpressure, so the result is sustainable capacity.

use super::Workload;
use crate::harness::{ns_per_call, unit_loop, Ctx, Layers, Loop, Scale, Unit};
use crate::metrics::Family;
use crate::stats::{median, percentile, sort, tail_percentile};
use arq::core::RuleHandle;
use arq::serve::{
    self, decode_checkpoint, encode_checkpoint, parse_event, FrameReader, Maintainer, ServeConfig,
    ServeSummary,
};
use arq::simkern::rng::fnv1a;
use arq::simkern::{json, StreamFactory};
use arq::trace::{PairRecord, SynthConfig, SynthTrace};
use std::fs::File;
use std::hint::black_box;
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::time::{Duration, Instant};

const MAINTAINER: &str = "incremental(t=4,hl=8000)";
const BLOCK: usize = 10_000;
const QUEUE: usize = 1024;
/// Default consequent fan-out of a route answer (`ServeConfig::k`).
const FANOUT: usize = 2;

/// Pairs rendered per write while building the event file.
const RENDER_CHUNK: usize = 10_000;
/// Bytes of the event file the decode and parse probes read.
const PROBE_BYTES: u64 = 32 << 20;

/// The socket probe: one connection, open loop, half the events routes.
const SOCKET_RATE_HZ: f64 = 20_000.0;
const SOCKET_SECONDS: f64 = 5.0;

/// Where route frames go in the stream.
#[derive(Debug, Clone, Copy)]
enum Mix {
    /// One route per this many pairs, for that pair's own antecedent.
    RouteEvery(usize),
    /// This many routes after every pair, each for a seeded antecedent
    /// the stream has already shown.
    RoutesPerPair(usize),
}

pub struct Serve {
    name: &'static str,
    why: &'static str,
    /// Pair frames per measured unit.
    pairs: usize,
    mix: Mix,
}

pub const INGEST: Serve = Serve {
    name: "serve-ingest",
    why: "writes: pair frames with one route per 100 pairs, lossless; frame decode, JSON parse, \
          channel hand-off and Maintainer::observe/refresh do the work; op = frame consumed",
    pairs: 250_000,
    mix: Mix::RouteEvery(100),
};

pub const ROUTE: Serve = Serve {
    name: "serve-route",
    why: "reads beside writes: 9 route frames after every pair; RuleHandle::route, reply \
          rendering and write_frame do the work and the miner is nearly idle; op = frame consumed",
    pairs: 40_000,
    mix: Mix::RoutesPerPair(9),
};

/// One unit's rendered input.
struct Input {
    path: PathBuf,
    pairs: Vec<PairRecord>,
    frames: u64,
    routes: u64,
}

/// The reply sink: counts bytes and replies, and checks that route ids
/// come back once each, in order. `write_frame` hands the payload over
/// in one `write`, so a buffer that opens a JSON object is one reply.
#[derive(Debug, Default)]
pub struct Sink {
    pub bytes: u64,
    pub replies: u64,
    pub out_of_order: u64,
    last_id: u64,
}

/// The value of the first `"id":` field in a reply payload.
fn reply_id(payload: &[u8]) -> Option<u64> {
    const KEY: &[u8] = b"\"id\":";
    let at = payload.windows(KEY.len()).position(|w| w == KEY)? + KEY.len();
    let digits = payload[at..]
        .iter()
        .take_while(|b| b.is_ascii_digit())
        .count();
    std::str::from_utf8(&payload[at..at + digits])
        .ok()?
        .parse()
        .ok()
}

impl Write for Sink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes += buf.len() as u64;
        if buf.first() == Some(&b'{') {
            self.replies += 1;
            if reply_id(buf) == Some(self.last_id + 1) && buf.starts_with(b"{\"ev\":\"routed\"") {
                self.last_id += 1;
            } else {
                self.out_of_order += 1;
            }
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

fn route_frame(out: &mut Vec<u8>, id: u64, src: u32) {
    let payload = format!("{{\"ev\":\"route\",\"id\":{id},\"src\":{src}}}");
    serve::write_frame(out, &payload).expect("vec write");
}

/// Replays `pairs` through a fresh maintainer: the offline reference
/// the service's final rule set must equal. `refresh`, when given,
/// collects the seconds each per-block `ruleset()` took.
fn replay(pairs: &[PairRecord], block: usize, mut refresh: Option<&mut Vec<f64>>) -> Maintainer {
    let mut m = Maintainer::from_spec(MAINTAINER).expect("a valid maintainer spec");
    for chunk in pairs.chunks(block) {
        for p in chunk {
            m.observe(p.src, p.via);
        }
        if let Some(times) = refresh.as_deref_mut() {
            let t0 = Instant::now();
            black_box(m.ruleset());
            times.push(t0.elapsed().as_secs_f64());
        }
    }
    m
}

impl Serve {
    fn config(&self, scale: Scale) -> ServeConfig {
        ServeConfig {
            spec: MAINTAINER.to_string(),
            block: scale.n(BLOCK) as u64,
            k: FANOUT,
            queue: QUEUE,
            ..ServeConfig::default()
        }
    }

    /// Synthesizes the trace and renders the framed stream chunk-wise to
    /// `path`.
    fn render(&self, seed: u64, scale: Scale, path: &Path) -> std::io::Result<Input> {
        let pairs = SynthTrace::new(SynthConfig::paper_default(scale.n(self.pairs), seed)).pairs();
        let mut rng = StreamFactory::new(seed).stream("routes");
        let mut file = BufWriter::new(File::create(path)?);
        let mut chunk = Vec::with_capacity(RENDER_CHUNK * 128);
        let mut routes = 0u64;
        for (c, block) in pairs.chunks(RENDER_CHUNK).enumerate() {
            chunk.clear();
            for (j, p) in block.iter().enumerate() {
                let i = c * RENDER_CHUNK + j;
                serve::write_frame(&mut chunk, &serve::pair_event_json(p)).expect("vec write");
                match self.mix {
                    Mix::RouteEvery(n) if (i + 1).is_multiple_of(n) => {
                        routes += 1;
                        route_frame(&mut chunk, routes, p.src.0);
                    }
                    Mix::RouteEvery(_) => {}
                    Mix::RoutesPerPair(n) => {
                        for _ in 0..n {
                            routes += 1;
                            route_frame(&mut chunk, routes, pairs[rng.index(i + 1)].src.0);
                        }
                    }
                }
            }
            file.write_all(&chunk)?;
        }
        file.flush()?;
        Ok(Input {
            path: path.to_path_buf(),
            frames: pairs.len() as u64 + routes,
            routes,
            pairs,
        })
    }

    /// The time-boxed loop and its last unit's summary and sink.
    fn run_inner(&self, ctx: &mut Ctx, seconds: f64) -> (Loop, ServeSummary, Sink) {
        let cfg = self.config(ctx.scale);
        let (seed, scale) = (ctx.seed, ctx.scale);
        let path = ctx.tmp.join("events.bin");
        let (looped, (_, summary, sink)) = unit_loop(
            &mut ctx.tracer,
            seconds,
            |_| {
                self.render(seed, scale, &path)
                    .expect("the event file is written")
            },
            |_, input: Input| {
                let file = File::open(&input.path).expect("the event file opens");
                let mut sink = Sink::default();
                let summary = serve::run_events(cfg.clone(), file, &mut sink);
                (input, summary, sink)
            },
            |t, (input, summary, sink), first| {
                let s = match summary {
                    Ok(s) => s,
                    Err(e) => {
                        eprintln!("{}: serve::run_events failed: {e}", self.name);
                        return Unit {
                            ops: input.frames,
                            failed: input.frames,
                            fingerprint: 0,
                        };
                    }
                };
                let mut ok = s.events == input.frames
                    && s.pairs == input.pairs.len() as u64
                    && s.routes == input.routes
                    && sink.replies == input.routes
                    && sink.out_of_order == 0
                    && s.shed_pairs == 0
                    && s.outcomes.2 == 0
                    && s.drained;
                if first {
                    let (reference, _) = t.time("check.replay", |_| {
                        replay(&input.pairs, cfg.block as usize, None)
                    });
                    ok &= reference.ruleset().digest() == s.ruleset_digest;
                }
                let facts = format!(
                    "{:016x}:{}:{}:{}",
                    s.ruleset_digest, s.events, s.routes, s.rules
                );
                Unit {
                    ops: input.frames,
                    failed: if ok { 0 } else { input.frames },
                    fingerprint: fnv1a(facts.as_bytes()),
                }
            },
        );
        let summary = summary.expect("the service ran its last unit to a summary");
        (looped, summary, sink)
    }
}

impl Workload for Serve {
    fn name(&self) -> &'static str {
        self.name
    }

    fn family(&self) -> Family {
        Family::Serve
    }

    fn why(&self) -> &'static str {
        self.why
    }

    fn run(&self, ctx: &mut Ctx, seconds: f64) -> Loop {
        self.run_inner(ctx, seconds).0
    }

    fn layers(&self, ctx: &mut Ctx, seconds: f64) -> Layers {
        let mut layers = Layers::default();
        ctx.tracer.set_enabled(false);
        let (untraced, summary, sink) = self.run_inner(ctx, seconds / 2.0);
        ctx.tracer.set_enabled(true);
        let (traced, _, _) = self.run_inner(ctx, seconds / 2.0);
        layers.set(
            "arq.serve.reply_bytes_per_route",
            sink.bytes as f64 / sink.replies.max(1) as f64,
        );
        layers.set("arq.serve.rules", summary.rules as f64);
        layers.note(
            "arq.serve.ruleset_digest",
            format!("{:016x}", summary.ruleset_digest),
        );

        let cfg = self.config(ctx.scale);
        let input = self
            .render(ctx.seed, ctx.scale, &ctx.tmp.join("events.bin"))
            .expect("the event file is written");
        let t = &mut ctx.tracer;

        // The ingest path stage by stage, over the head of the stream.
        let mut head = Vec::new();
        File::open(&input.path)
            .and_then(|f| f.take(PROBE_BYTES).read_to_end(&mut head))
            .expect("the event file reads");
        let (payloads, secs) = t.time("arq.serve.frame_decode", |_| {
            let mut reader = FrameReader::new();
            let mut payloads = Vec::new();
            for bytes in head.chunks(64 * 1024) {
                reader.feed(bytes);
                while let Ok(Some(payload)) = reader.next_frame() {
                    payloads.push(payload);
                }
            }
            payloads
        });
        layers.set("arq.serve.frame_decode_per_s", payloads.len() as f64 / secs);
        let (parsed, secs) = t.time("arq.serve.parse_event", |_| {
            payloads.iter().filter(|p| parse_event(p).is_ok()).count()
        });
        layers.expect("every decoded frame parses", parsed == payloads.len());
        layers.set("arq.serve.parse_event_per_s", parsed as f64 / secs);
        let (_, secs) = t.time("simkern.json.parse", |_| {
            for p in &payloads {
                black_box(json::parse(p).is_ok());
            }
        });
        let megabytes = payloads.iter().map(String::len).sum::<usize>() as f64 / 1e6;
        layers.set("simkern.json.parse_mb_per_s", megabytes / secs);

        // The miner's work: observe every pair, refresh per block.
        let mut refresh_s = Vec::new();
        let (maintainer, secs) = t.time("arq.serve.observe", |_| {
            replay(&input.pairs, cfg.block as usize, Some(&mut refresh_s))
        });
        let observe_s = secs - refresh_s.iter().sum::<f64>();
        layers.set(
            "arq.serve.observe_per_s",
            input.pairs.len() as f64 / observe_s,
        );
        layers.set("arq.serve.refresh_ms", median(&refresh_s) * 1e3);
        let rules = maintainer.ruleset();
        layers.expect(
            "the served rule set equals an offline replay",
            rules.digest() == summary.ruleset_digest,
        );

        // The read path: one lookup against the final rule set.
        let handle = RuleHandle::new();
        handle.publish(rules);
        let srcs: Vec<_> = input.pairs.iter().step_by(7).map(|p| p.src).collect();
        let (lookup_ns, _) = t.time("arq.serve.route_lookup", |_| {
            ns_per_call(1_000_000, |i| {
                black_box(handle.route(srcs[i as usize % srcs.len()], FANOUT));
            })
        });
        layers.set("arq.serve.route_lookup_ns", lookup_ns);

        // State: the checkpoint round trip.
        let (text, secs) = t.time("arq.serve.checkpoint_encode", |_| {
            encode_checkpoint(&maintainer)
        });
        layers.set("arq.serve.checkpoint_encode_ms", secs * 1e3);
        layers.set("arq.serve.checkpoint_bytes", text.len() as f64);
        let (restored, secs) = t.time("arq.serve.checkpoint_decode", |_| {
            decode_checkpoint(&text, &maintainer.spec())
        });
        layers.set("arq.serve.checkpoint_decode_ms", secs * 1e3);
        layers.expect(
            "a decoded checkpoint holds the same rule set",
            restored.is_ok_and(|m| m.ruleset().digest() == summary.ruleset_digest),
        );

        // The socket path, open loop.
        let events = (SOCKET_RATE_HZ * ctx.scale.secs(SOCKET_SECONDS)) as usize;
        let socket = ctx.tmp.join("serve.sock");
        let (probe, _) = t.time("arq.serve.socket", |_| {
            socket_probe(cfg, &socket, &input.pairs, events, SOCKET_RATE_HZ)
        });
        match probe {
            Ok(probe) => {
                layers.expect(
                    "every socket route got one reply",
                    probe.rtt_us.len() == probe.routes,
                );
                let n = probe.rtt_us.len();
                let tail = tail_percentile(n, 99.0).unwrap_or(50.0);
                layers.set(
                    "arq.serve.route_rtt_p50_us",
                    percentile(&probe.rtt_us, 50.0),
                );
                layers.set(
                    "arq.serve.route_rtt_p99_us",
                    percentile(&probe.rtt_us, tail),
                );
                layers.set(
                    "arq.serve.route_over_1ms_share",
                    probe.rtt_us.iter().filter(|&&us| us > 1_000.0).count() as f64 / n as f64,
                );
                layers.set(
                    "arq.serve.gen_late_p99_us",
                    percentile(&probe.late_us, tail),
                );
                layers.note("arq.serve.route_rtt_samples", n);
                layers.note("arq.serve.route_rtt_tail_percentile", tail);
            }
            Err(e) => layers.expect(&format!("the socket probe runs: {e}"), false),
        }
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        layers.note("arq.serve.socket.oversubscribed", cores < 2);

        layers.close(&untraced, &traced);
        layers
    }
}

// ---------------------------------------------------------------------------
// The socket probe
// ---------------------------------------------------------------------------

/// An open-loop schedule: event `i` is due `i` periods after the start,
/// whatever happened to the events before it. Every time below is
/// nanoseconds since that start.
#[derive(Debug, Clone, Copy)]
pub struct OpenLoop {
    period_ns: u64,
}

impl OpenLoop {
    pub fn at_rate(hz: f64) -> Self {
        OpenLoop {
            period_ns: (1e9 / hz) as u64,
        }
    }

    pub fn due_ns(self, i: u64) -> u64 {
        i * self.period_ns
    }

    /// How late the generator sent event `i`.
    pub fn late_ns(self, i: u64, sent_ns: u64) -> u64 {
        sent_ns.saturating_sub(self.due_ns(i))
    }

    /// Event `i`'s latency, counted from when it was due: a stall that
    /// delays the send is part of what the event's user waited.
    pub fn latency_ns(self, i: u64, received_ns: u64) -> u64 {
        received_ns.saturating_sub(self.due_ns(i))
    }
}

/// What the socket probe saw, both samples ascending.
struct SocketProbe {
    routes: usize,
    rtt_us: Vec<f64>,
    late_us: Vec<f64>,
}

/// Serves `socket` on a thread, streams `events` frames over one
/// connection on the open-loop schedule — pair, route, pair, route — and
/// times every route reply from the route's due time.
fn socket_probe(
    cfg: ServeConfig,
    socket: &Path,
    pairs: &[PairRecord],
    events: usize,
    rate_hz: f64,
) -> Result<SocketProbe, String> {
    use std::os::unix::net::UnixStream;
    let schedule = OpenLoop::at_rate(rate_hz);
    let mut frames = Vec::new();
    let mut ends = Vec::with_capacity(events);
    for i in 0..events {
        let p = &pairs[(i / 2) % pairs.len()];
        if i % 2 == 0 {
            serve::write_frame(&mut frames, &serve::pair_event_json(p)).expect("vec write");
        } else {
            route_frame(&mut frames, i as u64, p.src.0);
        }
        ends.push(frames.len());
    }

    let stop = cfg.stop.clone();
    let path = socket.to_string_lossy().into_owned();
    let server = std::thread::spawn({
        let path = path.clone();
        move || serve::run_socket(cfg, &path)
    });
    let connect = || {
        for _ in 0..1_000 {
            if let Ok(stream) = UnixStream::connect(&path) {
                return Ok(stream);
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err(format!("no connection to {path}"))
    };
    let result = connect().and_then(|mut stream| {
        let mut replies = stream.try_clone().map_err(|e| e.to_string())?;
        let start = Instant::now();
        // The reader stamps each reply on arrival; the route's id is its
        // event index, which fixes its due time.
        let reader = std::thread::spawn(move || {
            let mut frames = FrameReader::new();
            let mut rtt_us = Vec::new();
            let mut buf = vec![0u8; 64 * 1024];
            while let Ok(n) = replies.read(&mut buf) {
                if n == 0 {
                    break;
                }
                let received_ns = start.elapsed().as_nanos() as u64;
                frames.feed(&buf[..n]);
                while let Ok(Some(payload)) = frames.next_frame() {
                    if let Some(id) = reply_id(payload.as_bytes()) {
                        rtt_us.push(schedule.latency_ns(id, received_ns) as f64 / 1e3);
                    }
                }
            }
            rtt_us
        });
        let mut late_us = Vec::with_capacity(events);
        let mut sent = Ok(());
        let mut from = 0;
        for (i, &end) in ends.iter().enumerate() {
            let due = Duration::from_nanos(schedule.due_ns(i as u64));
            loop {
                let now = start.elapsed();
                if now >= due {
                    break;
                }
                // Sleep through long gaps, yield through short ones.
                match (due - now).checked_sub(Duration::from_millis(1)) {
                    Some(nap) => std::thread::sleep(nap),
                    None => std::thread::yield_now(),
                }
            }
            let sent_ns = start.elapsed().as_nanos() as u64;
            late_us.push(schedule.late_ns(i as u64, sent_ns) as f64 / 1e3);
            sent = stream.write_all(&frames[from..end]);
            if sent.is_err() {
                break;
            }
            from = end;
        }
        let _ = stream.shutdown(std::net::Shutdown::Write);
        let mut rtt_us = reader.join().map_err(|_| "the reply reader panicked")?;
        sent.map_err(|e| format!("writing to {path}: {e}"))?;
        sort(&mut rtt_us);
        sort(&mut late_us);
        Ok(SocketProbe {
            routes: events / 2,
            rtt_us,
            late_us,
        })
    });
    stop.store(true, Ordering::Relaxed);
    let summary = server.join().map_err(|_| "the socket server panicked")?;
    let summary = summary.map_err(|e| e.message)?;
    let probe = result?;
    if summary.routes as usize != probe.routes {
        return Err(format!(
            "the service answered {} routes of {}",
            summary.routes, probe.routes
        ));
    }
    Ok(probe)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_loop_times_from_the_due_time_and_reports_lateness() {
        let schedule = OpenLoop::at_rate(20_000.0); // one event per 50 µs
        assert_eq!(schedule.due_ns(3), 150_000);
        // On time: no lateness, latency is the reply's own round trip.
        assert_eq!(schedule.late_ns(2, 100_000), 0);
        assert_eq!(schedule.latency_ns(2, 110_000), 10_000);
        // The generator stalls and sends event 3 at 1 ms, 850 µs late.
        assert_eq!(schedule.late_ns(3, 1_000_000), 850_000);
        // Event 4 goes out right behind it and is answered in 10 µs, but
        // it was due at 200 µs: its user waited 811 µs, not 10.
        assert_eq!(schedule.late_ns(4, 1_001_000), 801_000);
        assert_eq!(schedule.latency_ns(4, 1_011_000), 811_000);
        // A send ahead of schedule is never negative lateness.
        assert_eq!(schedule.late_ns(5, 0), 0);
    }

    #[test]
    fn the_sink_accepts_each_route_id_once_and_in_order() {
        let mut sink = Sink::default();
        for id in [1u64, 2, 4, 3] {
            let payload = format!(
                "{{\"ev\":\"routed\",\"id\":{id},\"outcome\":\"flood\",\"via\":[],\"epoch\":0}}"
            );
            serve::write_frame(&mut sink, &payload).unwrap();
        }
        serve::write_frame(&mut sink, "{\"ev\":\"error\",\"error\":\"x\"}").unwrap();
        assert_eq!(sink.replies, 5);
        // 4 skipped ahead, 3 then matched, the error reply has no id.
        assert_eq!(sink.out_of_order, 2);
        assert!(sink.bytes > 5 * 20);
    }

    #[test]
    fn a_smoke_scale_unit_passes_its_checks_with_both_mixes() {
        for workload in [&INGEST, &ROUTE] {
            let tmp = crate::harness::TempDir::create().unwrap();
            let mut ctx = Ctx {
                seed: 7,
                scale: Scale::SMOKE,
                tmp: tmp.path().join(workload.name),
                tracer: crate::span::Tracer::new(),
            };
            std::fs::create_dir_all(&ctx.tmp).unwrap();
            let (looped, summary, sink) = workload.run_inner(&mut ctx, 0.0);
            assert_eq!(looped.failed, 0, "{}", workload.name);
            assert_eq!(sink.replies, summary.routes);
            assert!(summary.routes > 0 && summary.rules > 0);
        }
    }
}
