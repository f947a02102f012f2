//! Many short variable-length rows in one arena.
//!
//! A simulated network keeps a short list per node — its neighbors, its
//! shared files — and a `Vec` per node makes building and dropping a
//! 100k-node network a few hundred thousand heap calls. [`Rows`] keeps
//! every row in one `Vec<T>` instead, with a per-row header `(start,
//! len, cap)` and an optional per-row payload `M` stored beside it (a
//! summary that a reader checks before it touches the row).
//!
//! A row is read as a slice and edited in place while it has room. A
//! row that outgrows its room moves to the tail of the arena with twice
//! the room (a row that already ends the arena grows where it is),
//! leaving its old slots dead. Once dead slots outnumber the items the
//! rows hold, the arena is rebuilt without them (each row keeping its
//! room). Building, cloning and dropping cost a few allocations whatever
//! the row count.

/// Room a growing row gets at least.
const MIN_ROOM: usize = 4;

/// Per-row header: the row's slots are `start..start + cap` of the
/// arena, the first `len` of them in use.
#[derive(Debug, Clone, Copy)]
struct Head<M> {
    start: u32,
    len: u32,
    cap: u32,
    meta: M,
}

impl<M> Head<M> {
    #[inline]
    fn span(&self) -> std::ops::Range<usize> {
        let start = self.start as usize;
        start..start + self.len as usize
    }
}

/// Rows of `T` in one arena, each with a payload `M`. See the module
/// docs for the layout.
#[derive(Debug, Clone)]
pub struct Rows<T, M = ()> {
    items: Vec<T>,
    heads: Vec<Head<M>>,
    /// Items the rows hold: the sum of their lengths.
    held: usize,
    /// Arena slots no row owns: the old room of rows that moved.
    dead: usize,
}

impl<T: Copy, M: Copy> Default for Rows<T, M> {
    fn default() -> Self {
        Rows::new()
    }
}

/// An arena offset as a header field.
fn slot(at: usize) -> u32 {
    u32::try_from(at).expect("row arena exceeds u32::MAX slots")
}

impl<T: Copy, M: Copy> Rows<T, M> {
    /// No rows.
    pub fn new() -> Self {
        Rows::with_capacity(0, 0)
    }

    /// No rows, with space reserved for `rows` headers and `items`
    /// arena slots.
    pub fn with_capacity(rows: usize, items: usize) -> Self {
        Rows {
            items: Vec::with_capacity(items),
            heads: Vec::with_capacity(rows),
            held: 0,
            dead: 0,
        }
    }

    /// One empty row per entry of `rooms`, each with that much room, laid
    /// out in order: rows filled by [`Rows::push`] up to their room never
    /// move. `fill` initialises the unused slots.
    pub fn with_room(rooms: &[usize], fill: T, meta: M) -> Self {
        let total = rooms.iter().sum();
        let mut rows = Rows::with_capacity(rooms.len(), total);
        rows.items.resize(total, fill);
        let mut start = 0;
        for &room in rooms {
            rows.heads.push(Head {
                start: slot(start),
                len: 0,
                cap: slot(room),
                meta,
            });
            start += room;
        }
        rows
    }

    /// Appends a row holding `items`, laid out at the tail of the arena
    /// with no spare room, and returns its index.
    pub fn push_row(&mut self, items: impl IntoIterator<Item = T>, meta: M) -> usize {
        let start = self.items.len();
        self.items.extend(items);
        let len = slot(self.items.len() - start);
        self.held += len as usize;
        self.heads.push(Head {
            start: slot(start),
            len,
            cap: len,
            meta,
        });
        self.heads.len() - 1
    }

    /// Number of rows.
    #[inline]
    pub fn len(&self) -> usize {
        self.heads.len()
    }

    /// Whether there are no rows.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heads.is_empty()
    }

    /// Row `r`.
    #[inline]
    pub fn row(&self, r: usize) -> &[T] {
        &self.items[self.heads[r].span()]
    }

    /// Row `r`, mutably (its length is fixed; see [`Rows::truncate`]).
    #[inline]
    pub fn row_mut(&mut self, r: usize) -> &mut [T] {
        let span = self.heads[r].span();
        &mut self.items[span]
    }

    /// Row `r` and its payload, read from one header.
    #[inline]
    pub fn row_meta(&self, r: usize) -> (&[T], M) {
        let head = &self.heads[r];
        (&self.items[head.span()], head.meta)
    }

    /// The payload of row `r`, mutably.
    #[inline]
    pub fn meta_mut(&mut self, r: usize) -> &mut M {
        &mut self.heads[r].meta
    }

    /// Arena slots that no row owns (left behind by rows that moved).
    pub fn dead(&self) -> usize {
        self.dead
    }

    /// Inserts `x` at position `pos` of row `r`, shifting the rest right.
    pub fn insert(&mut self, r: usize, pos: usize, x: T) {
        let head = self.heads[r];
        assert!(pos <= head.len as usize, "insert position past row end");
        if head.len == head.cap {
            self.grow(r, x);
        }
        let head = &mut self.heads[r];
        let (start, len) = (head.start as usize, head.len as usize);
        head.len += 1;
        self.held += 1;
        self.items
            .copy_within(start + pos..start + len, start + pos + 1);
        self.items[start + pos] = x;
    }

    /// Appends `x` to row `r`.
    #[inline]
    pub fn push(&mut self, r: usize, x: T) {
        self.insert(r, self.heads[r].len as usize, x);
    }

    /// Removes and returns the item at position `pos` of row `r`,
    /// shifting the rest left. The room stays with the row.
    pub fn remove(&mut self, r: usize, pos: usize) -> T {
        let head = &mut self.heads[r];
        let (start, len) = (head.start as usize, head.len as usize);
        assert!(pos < len, "remove position past row end");
        let x = self.items[start + pos];
        self.items
            .copy_within(start + pos + 1..start + len, start + pos);
        head.len -= 1;
        self.held -= 1;
        x
    }

    /// Shortens row `r` to its first `len` items, keeping its room.
    pub fn truncate(&mut self, r: usize, len: usize) {
        let head = &mut self.heads[r];
        let kept = head.len.min(slot(len));
        self.held -= (head.len - kept) as usize;
        head.len = kept;
    }

    /// Gives row `r` room for one more item, `x` filling the new slots.
    fn grow(&mut self, r: usize, x: T) {
        let head = self.heads[r];
        let (start, len, cap) = (head.start as usize, head.len as usize, head.cap as usize);
        let room = (2 * cap).max(MIN_ROOM);
        if start + cap == self.items.len() {
            // The row ends the arena: grow it where it is.
            self.items.resize(start + room, x);
        } else {
            let to = self.items.len();
            self.items.extend_from_within(start..start + len);
            self.items.resize(to + room, x);
            self.heads[r].start = slot(to);
            self.dead += cap;
        }
        self.heads[r].cap = slot(room);
        if self.dead > self.held {
            self.compact();
        }
    }

    /// Rebuilds the arena with the rows in index order and no dead
    /// slots; each row keeps its room.
    fn compact(&mut self) {
        let mut items = Vec::with_capacity(self.items.len() - self.dead);
        for head in &mut self.heads {
            let (start, cap) = (head.start as usize, head.cap as usize);
            head.start = slot(items.len());
            items.extend_from_slice(&self.items[start..start + cap]);
        }
        self.items = items;
        self.dead = 0;
    }
}

impl<T: Copy + Ord, M: Copy> Rows<T, M> {
    /// Inserts `x` into row `r`, kept sorted, unless it is there
    /// already. Returns whether it was inserted.
    pub fn insert_sorted(&mut self, r: usize, x: T) -> bool {
        match self.row(r).binary_search(&x) {
            Ok(_) => false,
            Err(pos) => {
                self.insert(r, pos, x);
                true
            }
        }
    }

    /// Removes `x` from row `r`, kept sorted. Returns whether it was
    /// there.
    pub fn remove_sorted(&mut self, r: usize, x: T) -> bool {
        match self.row(r).binary_search(&x) {
            Ok(pos) => {
                self.remove(r, pos);
                true
            }
            Err(_) => false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Rng64;

    /// Every row equals its model row, and no two rows share a slot.
    fn check(rows: &Rows<u32, u64>, model: &[(Vec<u32>, u64)]) {
        assert_eq!(rows.len(), model.len());
        let mut owner = vec![usize::MAX; rows.items.len()];
        for (r, (items, meta)) in model.iter().enumerate() {
            assert_eq!(rows.row(r), &items[..], "row {r}");
            assert_eq!(rows.row_meta(r), (&items[..], *meta), "row {r}");
            let head = rows.heads[r];
            assert!(head.len <= head.cap);
            for s in head.start..head.start + head.cap {
                assert_eq!(owner[s as usize], usize::MAX, "slot {s} owned twice");
                owner[s as usize] = r;
            }
        }
        let free = owner.iter().filter(|&&o| o == usize::MAX).count();
        assert_eq!(free, rows.dead(), "dead slot count");
        let held: usize = model.iter().map(|(items, _)| items.len()).sum();
        assert_eq!(rows.held, held, "held item count");
    }

    /// Seeded edits against a `Vec<Vec<_>>` model — positional edits in
    /// half the cases, sorted-set edits in the other half — with rows
    /// that grow in place, move to the tail and are compacted, checked
    /// after every step.
    #[test]
    fn rows_equal_a_vec_of_vecs_under_random_edits() {
        let (mut moved, mut compacted) = (0, 0);
        for case in 0..64u64 {
            let mut rng = Rng64::seed_from(0x7035 ^ case);
            let sorted = case % 2 == 0;
            let rooms: Vec<usize> = (0..rng.index(12)).map(|_| rng.index(6)).collect();
            let mut rows: Rows<u32, u64> = Rows::with_room(&rooms, 0, 7);
            let mut model: Vec<(Vec<u32>, u64)> = rooms.iter().map(|_| (Vec::new(), 7)).collect();
            for _ in 0..rng.index(400) {
                let dead = rows.dead();
                let r = rng.index(model.len() + 1);
                if r == model.len() || rng.index(20) == 0 {
                    let mut items: Vec<u32> =
                        (0..rng.index(6)).map(|_| rng.below(50) as u32).collect();
                    items.sort_unstable();
                    items.dedup();
                    let meta = rng.next_u64();
                    assert_eq!(rows.push_row(items.iter().copied(), meta), model.len());
                    model.push((items, meta));
                } else if rng.index(10) == 0 {
                    let meta = rng.next_u64();
                    *rows.meta_mut(r) = meta;
                    model[r].1 = meta;
                } else if sorted {
                    let (row, x) = (&mut model[r].0, rng.below(50) as u32);
                    if rng.chance(0.55) {
                        let pos = row.binary_search(&x);
                        assert_eq!(rows.insert_sorted(r, x), pos.is_err());
                        if let Err(pos) = pos {
                            row.insert(pos, x);
                        }
                    } else {
                        let pos = row.binary_search(&x);
                        assert_eq!(rows.remove_sorted(r, x), pos.is_ok());
                        if let Ok(pos) = pos {
                            row.remove(pos);
                        }
                    }
                } else if rng.index(4) == 0 {
                    // Hand row `r`'s items to another row, as a node that
                    // leaves hands its edges to the nodes a rejoin wires.
                    let to = rng.index(model.len());
                    let items = std::mem::take(&mut model[r].0);
                    rows.truncate(r, 0);
                    for x in items {
                        rows.push(to, x);
                        model[to].0.push(x);
                    }
                } else {
                    let row = &mut model[r].0;
                    match rng.index(3) {
                        0 => {
                            let (pos, x) = (rng.index(row.len() + 1), rng.next_u32());
                            rows.insert(r, pos, x);
                            row.insert(pos, x);
                        }
                        1 if !row.is_empty() => {
                            let pos = rng.index(row.len());
                            assert_eq!(rows.remove(r, pos), row.remove(pos));
                        }
                        _ => {
                            let len = rng.index(row.len() + 1);
                            rows.truncate(r, len);
                            row.truncate(len);
                            let x = rng.next_u32();
                            rows.push(r, x);
                            row.push(x);
                        }
                    }
                }
                moved += usize::from(rows.dead() > dead);
                compacted += usize::from(rows.dead() < dead);
                check(&rows, &model);
                check(&rows.clone(), &model);
            }
        }
        assert!(moved > 100, "rows moved {moved} times");
        assert!(compacted > 10, "arena compacted {compacted} times");
    }

    #[test]
    fn rows_filled_within_their_room_never_move() {
        let mut rows: Rows<u32> = Rows::with_room(&[3, 0, 2], u32::MAX, ());
        for (r, x) in [(0, 5), (2, 1), (0, 4), (2, 9), (0, 6)] {
            rows.push(r, x);
        }
        assert_eq!(rows.row(0), &[5, 4, 6]);
        assert_eq!(rows.row(1), &[] as &[u32]);
        assert_eq!(rows.row(2), &[1, 9]);
        assert_eq!((rows.dead(), rows.items.len()), (0, 5));
        // The last row grows where it is; an inner row moves.
        rows.push(2, 3);
        assert_eq!((rows.dead(), rows.items.len()), (0, 3 + MIN_ROOM));
        rows.push(0, 7);
        assert_eq!(rows.dead(), 3);
        assert_eq!(rows.row(0), &[5, 4, 6, 7]);
        assert_eq!(rows.row(2), &[1, 9, 3]);
    }

    #[test]
    #[should_panic(expected = "insert position past row end")]
    fn insert_past_the_end_panics() {
        let mut rows: Rows<u32> = Rows::new();
        rows.push_row([1], ());
        rows.insert(0, 2, 5);
    }
}
