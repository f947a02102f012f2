//! Seeded mutation fuzzing of [`Histogram::from_json`], the reader of
//! the histogram snapshots `arq report` loads from artifact files.
//!
//! Valid snapshots are mutated — keys dropped or repeated, values of the
//! wrong type, negative, huge or non-finite numbers, bucket arrays whose
//! length or sum no longer matches `count` — and read back both as a
//! tree and through JSON text. Every read must return either a
//! consistent histogram that round-trips or a typed `histogram:` error:
//! never a panic, and never an allocation sized by a number read from
//! the input (a counting allocator bounds each read's bytes by the
//! input's own length).

use arq_simkern::json::{self, Json};
use arq_simkern::{Histogram, Rng64, ToJson};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// Counts the bytes this thread requests while `COUNTING` is set.
struct CountingAlloc;

thread_local! {
    static COUNTING: Cell<bool> = const { Cell::new(false) };
    static BYTES: Cell<u64> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            BYTES.with(|b| b.set(b.get() + layout.size() as u64));
        }
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        if COUNTING.with(Cell::get) {
            BYTES.with(|b| b.set(b.get() + new_size as u64));
        }
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// `Histogram::from_json(snapshot)` and the bytes it allocated.
fn read_counted(snapshot: &Json) -> (Result<Histogram, String>, u64) {
    BYTES.with(|b| b.set(0));
    COUNTING.with(|c| c.set(true));
    let read = Histogram::from_json(snapshot);
    COUNTING.with(|c| c.set(false));
    (read, BYTES.with(Cell::get))
}

/// A valid snapshot of a histogram with random range, buckets and data.
fn valid(rng: &mut Rng64) -> Json {
    let lo = rng.f64() * 100.0 - 50.0;
    let mut h = Histogram::new(lo, lo + 0.5 + rng.f64() * 100.0, 1 + rng.index(12));
    for _ in 0..rng.index(200) {
        h.record(lo - 20.0 + rng.f64() * 160.0);
    }
    h.to_json()
}

/// A value of a shape a snapshot field must reject or survive.
fn hostile_value(rng: &mut Rng64) -> Json {
    match rng.index(16) {
        0 => Json::Null,
        1 => Json::Bool(rng.chance(0.5)),
        2 => Json::Str("12".to_string()),
        3 => Json::Arr(vec![Json::Int(1)]),
        4 => Json::object(),
        5 => Json::Int(-1 - rng.below(1 << 40) as i128),
        6 => Json::Int(i128::from(u64::MAX) + 1 + rng.below(3) as i128),
        7 => Json::Int([i128::MAX, i128::MIN, i128::from(u64::MAX)][rng.index(3)]),
        8 => Json::Float([f64::NAN, f64::INFINITY, f64::NEG_INFINITY][rng.index(3)]),
        9 => Json::Float([f64::MAX, -f64::MAX, f64::MIN_POSITIVE, -0.0][rng.index(4)]),
        10 => Json::Float(rng.below(100) as f64),
        11 => Json::Float(rng.f64() * 10.0),
        _ => Json::Int(rng.below(1_000) as i128),
    }
}

const KEYS: [&str; 6] = ["lo", "hi", "buckets", "underflow", "overflow", "count"];

/// One seeded mutation of a snapshot.
fn mutate(rng: &mut Rng64, snapshot: &mut Json) {
    let Json::Obj(fields) = snapshot else {
        return;
    };
    let key = KEYS[rng.index(KEYS.len())];
    let at = fields.iter().position(|(k, _)| k == key);
    match (rng.index(9), at) {
        (0, Some(at)) => {
            fields.remove(at);
        }
        (1, _) => fields.insert(0, (key.to_string(), hostile_value(rng))),
        (2, Some(at)) => fields[at].1 = hostile_value(rng),
        (3 | 4, _) => {
            // The bucket array no longer sums to `count`, or is retyped.
            if let Some((_, Json::Arr(buckets))) = fields.iter_mut().find(|(k, _)| k == "buckets") {
                match rng.index(4) {
                    0 => buckets.push(Json::Int(rng.below(5) as i128)),
                    1 => {
                        buckets.pop();
                    }
                    2 if !buckets.is_empty() => {
                        let i = rng.index(buckets.len());
                        buckets[i] = hostile_value(rng);
                    }
                    _ => buckets.clear(),
                }
            }
        }
        (5, _) => {
            // `count` off by a little, or by the most a u64 can hold.
            if let Some((_, Json::Int(n))) = fields.iter_mut().find(|(k, _)| k == "count") {
                *n = [
                    n.saturating_add(1),
                    n.saturating_sub(1),
                    i128::from(u64::MAX),
                    0,
                ][rng.index(4)];
            }
        }
        (6, _) => {
            // Swapped or collapsed range.
            let lo = fields.iter().position(|(k, _)| k == "lo");
            let hi = fields.iter().position(|(k, _)| k == "hi");
            if let (Some(lo), Some(hi)) = (lo, hi) {
                let v = fields[lo].1.clone();
                fields[lo].1 = fields[hi].1.clone();
                fields[hi].1 = if rng.chance(0.5) {
                    v
                } else {
                    fields[lo].1.clone()
                };
            }
        }
        (7, _) if rng.chance(0.1) => *snapshot = hostile_value(rng),
        _ => fields.push(("extra".to_string(), hostile_value(rng))),
    }
}

/// What a successful read must satisfy.
fn check_consistent(h: &Histogram, input: &str) {
    assert!(
        h.lo().is_finite() && h.hi().is_finite() && h.hi() > h.lo(),
        "{input}"
    );
    assert!(!h.buckets().is_empty(), "{input}");
    let recorded: u64 = h.buckets().iter().sum::<u64>() + h.underflow() + h.overflow();
    assert_eq!(recorded, h.count(), "{input}");
    let text = h.to_json().to_string();
    let again =
        Histogram::from_json(&json::parse(&text).unwrap_or_else(|e| panic!("{text}: {e:?}")));
    assert_eq!(again.as_ref(), Ok(h), "{input}: round trip");
}

#[test]
fn mutated_snapshots_give_typed_errors_without_panics_or_sized_allocations() {
    let mut rng = Rng64::seed_from(0x415);
    let (mut accepted, mut rejected) = (0, 0);
    for case in 0..20_000 {
        let mut snapshot = valid(&mut rng);
        for _ in 0..1 + rng.index(3) {
            mutate(&mut rng, &mut snapshot);
        }
        // Non-finite floats serialize as `null`, so the text reading
        // meets a different snapshot than the tree reading.
        let text = snapshot.to_string();
        let reparsed = json::parse(&text).expect("serialized JSON parses");
        for input in [&snapshot, &reparsed] {
            let (read, bytes) = read_counted(input);
            assert!(
                bytes <= 256 + 16 * text.len() as u64,
                "case {case}: {bytes} bytes allocated reading {} bytes: {text}",
                text.len()
            );
            match read {
                Ok(h) => {
                    check_consistent(&h, &text);
                    accepted += 1;
                }
                Err(e) => {
                    assert!(e.starts_with("histogram: "), "case {case}: {e}");
                    rejected += 1;
                }
            }
        }
    }
    assert!(
        accepted > 2_000 && rejected > 20_000,
        "{accepted} accepted, {rejected} rejected"
    );
}
