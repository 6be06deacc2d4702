//! Message timestamps: full matrices and Update deltas (Appendix A).
//!
//! Every causally ordered message carries a [`Stamp`]. The shape of the
//! stamp is chosen by the channel's [`StampMode`]:
//!
//! - [`StampMode::Full`] ships the sender's whole matrix — `O(n²)` bytes;
//! - [`StampMode::Updates`] ships only the entries modified since the last
//!   message to the same peer — the *Updates optimized algorithm* of the
//!   paper's Appendix A, `O(n)` bytes in the common case (the paper notes
//!   `O(n²)` worst case).
//!
//! Both modes convey the exact sender matrix to the receiving side —
//! whole, or as deltas that add up to it over the FIFO link — so they take
//! identical delivery decisions (the conformance suite in
//! `tests/conformance.rs` proves it on seeded schedules).
//!
//! # The packed entry list
//!
//! A delta stamp crosses the wire as a sequence of unsigned
//! LEB128 varints (7 value bits per byte, low bits first, the high bit set
//! on every byte but the last; at most 10 bytes): `count`, then for each
//! maximal run of consecutive entries with the same row `row`, `run_len`
//! and `run_len` × (`col`, `value`). The clock emits entries row-major, so
//! a row is written once per run; coordinates below 128 and counters below
//! 16 384 take one and two bytes — 2–3 B per entry on a live domain where
//! the fixed-width triple took 12. Nothing assumes the list is sorted or
//! free of duplicates: [`PackedEntries::iter`] yields exactly the list
//! [`UpdateEntry::pack`] was given. The worst case is an entry alone in its
//! run with `row`, `col` ≥ 2¹⁴ and `value` ≥ 2⁵⁶: 3 + 1 + 3 + 9 = 16 B
//! (17 B from 2⁶³) — never reached by a live counter.
//!
//! These bytes are also the stamp's only in-memory form, [`PackedEntries`]:
//! the sender writes them straight from its walk of the changed cells, the
//! encoder copies them, and the decoder checks them in one pass and keeps a
//! view of the frame (a list of a few entries is copied and held inline
//! instead) — no list of [`UpdateEntry`] is built on either side, and
//! nothing unpacks one. The codec lives here, beside
//! [`Stamp::encoded_len`], so that the size the experiments and metrics
//! report is by construction the size `aaa-net` writes.
//!
//! # How each pass reads
//!
//! Every pass over a list works a run — the cells of one row — at a
//! time, so a row is looked up once per run, not once per entry:
//!
//! - **Packing** (`CausalState::stamp_send`): the tree of change maxima
//!   yields the rows that changed, and each packs its own run into one
//!   per-thread scratch buffer. A filled row turns the change tags of 64
//!   cells at a time into a bit mask, with no branch on any tag, whose
//!   bits count the run for its header; it then writes the `(col, value)`
//!   varints of the set bits only. A listed row does the same over its
//!   few entries. Once the walk is done the count goes in front of the
//!   runs, in a buffer of exactly the list's size.
//! - **Checking** ([`PackedEntries::read`]): a run's row and length are
//!   checked once, then each `(col, value)` pair is read with one match
//!   on its first bytes when both fields take one or two bytes, as
//!   coordinates and live counters do; a longer field and every refusal
//!   are a call.
//! - **The receiver's column** (`CausalState::on_frame`): each run's
//!   pairs are read the same way and compared with the receiver's own
//!   column; the run's row says whether a match is the link counter.
//! - **The merge** (`CausalState::deliver`): each run resolves its row of
//!   `SENT` once. A filled row is one slice the run raises cell by cell,
//!   indexed with a bounds check and with no branch on whether a cell
//!   grew; a listed row takes the run a cell at a time until it fills,
//!   and the rest of the run then goes to the slice. The tree of change
//!   maxima is raised once per run that grew a cell.

use std::cell::RefCell;
use std::fmt;
use std::str::FromStr;

use aaa_base::Error;
use bytes::{Buf, Bytes};
use serde::{Deserialize, Serialize};

use crate::matrix::MatrixClock;

/// How channel stamps are encoded on the wire.
///
/// Marked `#[non_exhaustive]`: modes have come and gone, so downstream
/// matches must keep a wildcard arm. Two were retired:
///
/// - the Drummond–Barbosa `Reduced` mode, dominated on bytes and CPU at
///   every measured width;
/// - `Hybrid`, the Updates delta pruned against a per-peer model of what
///   the peer already knew (Almeida-style sender-side buffering). On
///   `flat_mesh` it shipped 1.37× fewer stamp entries (253 → 185 per
///   message) and 5 % fewer wire bytes, but cost about 1.5× the CPU per
///   message and twice the resident memory; on ring traffic it saved
///   nothing. Its wire tags 5 and 7 and its image mode byte 6 are refused.
#[non_exhaustive]
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default, Serialize, Deserialize,
)]
pub enum StampMode {
    /// Ship the sender's entire matrix with every message.
    Full,
    /// Ship only the entries modified since the last send to the same peer
    /// (Appendix A). Requires FIFO links, which the AAA channel guarantees.
    #[default]
    Updates,
}

impl StampMode {
    /// Every stamp mode, for mode-generic tests and benchmarks.
    pub const ALL: [StampMode; 2] = [StampMode::Full, StampMode::Updates];

    /// The mode's canonical lower-case name (also its [`FromStr`] form).
    pub fn name(self) -> &'static str {
        match self {
            StampMode::Full => "full",
            StampMode::Updates => "updates",
        }
    }
}

impl fmt::Display for StampMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error returned when parsing an unknown [`StampMode`] name.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UnknownStampMode(String);

impl fmt::Display for UnknownStampMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "unknown stamp mode `{}` (expected full or updates)",
            self.0
        )
    }
}

impl std::error::Error for UnknownStampMode {}

impl FromStr for StampMode {
    type Err = UnknownStampMode;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "full" => Ok(StampMode::Full),
            "updates" => Ok(StampMode::Updates),
            _ => Err(UnknownStampMode(s.to_owned())),
        }
    }
}

/// One modified matrix entry `(row, col) = value`, as shipped by the
/// Updates algorithm.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct UpdateEntry {
    /// Sender index of the counted messages.
    pub row: u16,
    /// Receiver index of the counted messages.
    pub col: u16,
    /// New value of the cell.
    pub value: u64,
}

impl UpdateEntry {
    /// Bytes one entry occupies in a persistence image
    /// ([`PendingStamp::write_bytes`]) and in the decode-only wire tag 1:
    /// two `u16` coordinates plus a `u64` value. Stamps on the wire
    /// are [packed](UpdateEntry::pack) instead.
    ///
    /// [`PendingStamp::write_bytes`]: crate::PendingStamp::write_bytes
    pub const WIRE_LEN: usize = 2 + 2 + 8;

    /// Feeds `field` the integers of the packed layout of `entries`, in
    /// wire order — the one definition [`UpdateEntry::pack`] and
    /// [`UpdateEntry::packed_len`] share.
    fn packed_fields(entries: &[UpdateEntry], mut field: impl FnMut(u64)) {
        field(entries.len() as u64);
        for run in entries.chunk_by(|a, b| a.row == b.row) {
            let Some(first) = run.first() else { continue };
            field(u64::from(first.row));
            field(run.len() as u64);
            for e in run {
                field(u64::from(e.col));
                field(e.value);
            }
        }
    }

    /// Appends the packed encoding of `entries` (see the
    /// [module documentation](self)) to `out`.
    pub fn pack(entries: &[UpdateEntry], out: &mut Vec<u8>) {
        Self::packed_fields(entries, |v| put_varint(out, v));
    }

    /// Exactly the number of bytes [`UpdateEntry::pack`] writes for
    /// `entries`.
    pub fn packed_len(entries: &[UpdateEntry]) -> usize {
        let mut len = 0usize;
        Self::packed_fields(entries, |v| len += varint_len(v));
        len
    }
}

/// A delta stamp's entry list, held as its packed wire layout: the bytes
/// [`UpdateEntry::pack`] writes, the number of entries they hold and the
/// largest row or column they name. It is the only in-memory form of a
/// delta: the sender writes it once ([`CausalState::stamp_send`]), the
/// encoder copies it, the decoder checks it and keeps it without
/// allocating ([`PackedEntries::read`]), and the receiver reads it where
/// it lies. Its length, count and extent are known without a walk.
///
/// Every value holds a well-formed list: the constructors pack, and
/// [`PackedEntries::read`] refuses what does not parse. Equality and order
/// are those of the bytes.
///
/// [`CausalState::stamp_send`]: crate::CausalState::stamp_send
#[derive(Clone, Serialize, Deserialize)]
pub struct PackedEntries {
    held: Held,
    count: u32,
    max_coord: u16,
}

/// Where a packed list's bytes are.
#[derive(Clone)]
enum Held {
    /// A short list's bytes, copied.
    Inline {
        len: u8,
        bytes: [u8; PackedEntries::INLINE],
    },
    /// A longer list's: a buffer of its own, or a view of a frame.
    Shared(Bytes),
}

impl Held {
    /// `packed` held inline, if it is short enough.
    fn inline(packed: &[u8]) -> Option<Held> {
        let len = u8::try_from(packed.len()).ok()?;
        let mut bytes = [0; PackedEntries::INLINE];
        bytes.get_mut(..packed.len())?.copy_from_slice(packed);
        Some(Held::Inline { len, bytes })
    }

    fn as_slice(&self) -> &[u8] {
        match self {
            Held::Inline { len, bytes } => bytes.get(..usize::from(*len)).unwrap_or_default(),
            Held::Shared(bytes) => bytes,
        }
    }
}

/// The packed empty list: a zero count.
static EMPTY: PackedEntries = PackedEntries {
    held: Held::Inline {
        len: 1,
        bytes: [0; PackedEntries::INLINE],
    },
    count: 0,
    max_coord: 0,
};

impl PartialEq for PackedEntries {
    fn eq(&self, other: &Self) -> bool {
        self.as_bytes() == other.as_bytes()
    }
}

impl Eq for PackedEntries {}

impl PartialOrd for PackedEntries {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for PackedEntries {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.as_bytes().cmp(other.as_bytes())
    }
}

impl PackedEntries {
    /// Packed lists up to this many bytes are held inline: a ring's
    /// deltas, a few entries each, then cost no allocation when made and
    /// no shared reference count when decoded, where a longer list is a
    /// buffer of its own at the sender and a view of its frame at the
    /// receiver.
    pub const INLINE: usize = 30;

    /// The empty list, without allocating.
    pub fn empty() -> Self {
        EMPTY.clone()
    }

    /// The empty list's entries: none.
    pub(crate) fn none() -> Entries<'static> {
        EMPTY.iter()
    }

    /// Packs `entries`, in the order given.
    pub fn new(entries: &[UpdateEntry]) -> Self {
        let len = UpdateEntry::packed_len(entries);
        let held = if len <= PackedEntries::INLINE {
            let mut short = Short::default();
            UpdateEntry::packed_fields(entries, |v| put_varint(&mut short, v));
            short.held()
        } else {
            let mut bytes = Vec::with_capacity(len);
            UpdateEntry::pack(entries, &mut bytes);
            Held::Shared(Bytes::from(bytes))
        };
        let max_coord = (entries.iter())
            .map(|e| e.row.max(e.col))
            .max()
            .unwrap_or(0);
        PackedEntries {
            held,
            // Saturating: no domain holds 2³² cells.
            count: u32::try_from(entries.len()).unwrap_or(u32::MAX),
            max_coord,
        }
    }

    /// Reads a packed entry list off the front of `buf`, which is left
    /// holding what follows it, in one pass and without allocating: a list
    /// longer than a few entries comes back as a view of `buf`, a shorter
    /// one as a copy held inline.
    ///
    /// Total over arbitrary bytes: `count` is refused unless `buf` still
    /// holds the two bytes every entry costs at least.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Codec`] on truncation, a varint longer than 10
    /// bytes or overflowing 64 bits, a `row` or `col` above `u16::MAX`, an
    /// empty run, or a run longer than the entries `count` still owes.
    pub fn read(buf: &mut Bytes) -> aaa_base::Result<Self> {
        let bytes: &[u8] = buf;
        let mut at = 0;
        let count = take_varint(bytes, &mut at)?;
        let count = at_most(count, bytes.len().saturating_sub(at) / 2)
            .filter(|count| u32::try_from(*count).is_ok())
            .ok_or_else(|| malformed("more packed entries than bytes"))?;
        let (mut owed, mut max_coord) = (count, 0u16);
        while owed > 0 {
            let row = take_u16(bytes, &mut at)?;
            let run_len = take_varint(bytes, &mut at)?;
            let run_len = at_most(run_len, owed)
                .filter(|run_len| *run_len > 0)
                .ok_or_else(|| malformed("packed run empty or longer than the entries owed"))?;
            let mut top = row;
            for _ in 0..run_len {
                let col = match short_pair(bytes, at) {
                    // A field of two bytes holds at most 14 bits.
                    Some((col, _, len)) => {
                        at += len;
                        narrow(col)
                    }
                    None => {
                        let col = take_u16(bytes, &mut at)?;
                        take_varint(bytes, &mut at)?;
                        col
                    }
                };
                top = top.max(col);
            }
            max_coord = max_coord.max(top);
            owed -= run_len;
        }
        let used = at;
        let held = match buf.get(..used).and_then(Held::inline) {
            Some(held) => {
                buf.advance(used);
                held
            }
            None => Held::Shared(buf.split_to(used)),
        };
        Ok(PackedEntries {
            held,
            count: u32::try_from(count).unwrap_or(u32::MAX),
            max_coord,
        })
    }

    /// The packed bytes, exactly as they go on the wire.
    pub fn as_bytes(&self) -> &[u8] {
        self.held.as_slice()
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.count as usize
    }

    /// Returns `true` if the list holds no entry.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The smallest domain width whose matrix holds every entry: one more
    /// than the largest row or column named, `0` for the empty list.
    pub fn width(&self) -> usize {
        if self.count == 0 {
            0
        } else {
            usize::from(self.max_coord) + 1
        }
    }

    /// Calls `f(row, cells)` for each run of the list, in list order: the
    /// run's row once, and its `(col, value)` pairs to read. What `f`
    /// leaves unread of a run is skipped.
    #[inline]
    pub(crate) fn for_each_run(&self, mut f: impl FnMut(usize, &mut Cells<'_>)) {
        let bytes = self.as_bytes();
        let mut at = 0;
        // The count was read when the list was made.
        next_varint(bytes, &mut at);
        let mut left = self.count as usize;
        while left > 0 {
            let row = wide(next_varint(bytes, &mut at));
            // A checked run holds at least one entry and no more than
            // the list still owes.
            let len = wide(next_varint(bytes, &mut at)).clamp(1, left);
            let mut cells = Cells {
                bytes,
                at,
                left: len,
            };
            f(row, &mut cells);
            while cells.next().is_some() {}
            at = cells.at;
            left -= len;
        }
    }

    /// The entries, in list order, read off the packed bytes.
    pub fn iter(&self) -> Entries<'_> {
        let bytes = self.as_bytes();
        let mut at = 0;
        // The count was read when the list was made.
        next_varint(bytes, &mut at);
        Entries {
            bytes,
            at,
            row: 0,
            run_left: 0,
            left: self.count as usize,
        }
    }
}

impl fmt::Debug for PackedEntries {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

/// The entries of a [`PackedEntries`], in list order.
#[derive(Debug, Clone)]
pub struct Entries<'a> {
    bytes: &'a [u8],
    at: usize,
    row: u16,
    run_left: u64,
    left: usize,
}

impl Iterator for Entries<'_> {
    type Item = UpdateEntry;

    #[inline]
    fn next(&mut self) -> Option<UpdateEntry> {
        self.left = self.left.checked_sub(1)?;
        if self.run_left == 0 {
            self.row = narrow(next_varint(self.bytes, &mut self.at));
            self.run_left = next_varint(self.bytes, &mut self.at);
        }
        self.run_left = self.run_left.saturating_sub(1);
        let col = narrow(next_varint(self.bytes, &mut self.at));
        let value = next_varint(self.bytes, &mut self.at);
        Some(UpdateEntry {
            row: self.row,
            col,
            value,
        })
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

impl ExactSizeIterator for Entries<'_> {}

/// The `(col, value)` pairs of one run of a checked packed list
/// ([`PackedEntries::for_each_run`]).
#[derive(Debug)]
pub(crate) struct Cells<'a> {
    bytes: &'a [u8],
    at: usize,
    left: usize,
}

impl Iterator for Cells<'_> {
    type Item = (usize, u64);

    #[inline(always)]
    fn next(&mut self) -> Option<(usize, u64)> {
        self.left = self.left.checked_sub(1)?;
        if let Some((col, value, len)) = short_pair(self.bytes, self.at) {
            self.at += len;
            return Some((wide(col), value));
        }
        let col = wide(next_varint(self.bytes, &mut self.at));
        Some((col, next_varint(self.bytes, &mut self.at)))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.left, Some(self.left))
    }
}

/// Packs a list run by run, as a row-major walk yields the rows,
/// without building the entries first: each run, its header and its
/// `(col, value)` varints, goes to one scratch buffer, and
/// [`Packer::finish`] puts the count in front of them in the list's own
/// bytes — inline, or a buffer of exactly its size. [`Packer::pack`]
/// lends out one packer per thread, which keeps its capacity from one
/// list to the next: one per clock would hold its largest delta's scratch
/// for good, 256 of them on a domain of 256.
#[derive(Debug, Default)]
pub(crate) struct Packer {
    /// The runs so far, back to back, up to `end`; past it, room the next
    /// run writes into.
    body: Vec<u8>,
    end: usize,
    /// The keep masks of the run being packed, one per 64 cells.
    masks: Vec<u64>,
    count: usize,
    max_coord: u16,
}

/// The most bytes a run header takes: a `u16` row in 3 and a length in 10.
const HEADER_MAX: usize = 3 + 10;

/// The most bytes one `(col, value)` pair takes: a `u16` column in 3 and
/// a `u64` value in 10.
const PAIR_MAX: usize = 3 + 10;

impl Packer {
    /// The list `fill` packs, in this thread's scratch.
    pub(crate) fn pack(fill: impl FnOnce(&mut Packer)) -> PackedEntries {
        thread_local! {
            static SCRATCH: RefCell<Packer> = RefCell::new(Packer::default());
        }
        SCRATCH.with_borrow_mut(|packer| {
            fill(packer);
            packer.finish()
        })
    }

    /// Appends one run of row `row`: the cells of `written` whose tag is
    /// past `since`, in slice order. `cell(i, &written[i])` reads the `i`-th
    /// as `(col, value, tag)`. The tags of 64 cells at a time become a
    /// mask, with no branch on any of them, whose bits count the run for
    /// its header; only the kept cells are then read again and written:
    /// on a filled row a delta keeps a fraction of the row, in no order a
    /// branch would predict. A run that keeps nothing is not written.
    #[inline]
    pub(crate) fn run<T>(
        &mut self,
        row: usize,
        written: &[T],
        since: u64,
        cell: impl Fn(usize, &T) -> (usize, u64, u64),
    ) {
        self.masks.clear();
        let mut kept = 0;
        for (block, chunk) in written.chunks(64).enumerate() {
            let base = block * 64;
            // Last cell first, so each keep bit shifts in at the bottom.
            let mask = (chunk.iter().enumerate().rev()).fold(0u64, |mask, (i, c)| {
                mask << 1 | u64::from(cell(base + i, c).2 > since)
            });
            kept += mask.count_ones() as usize;
            self.masks.push(mask);
        }
        if kept == 0 {
            return;
        }
        let room = self.end + HEADER_MAX + kept * PAIR_MAX;
        if self.body.len() < room {
            self.body.resize(room, 0);
        }
        let body = &mut self.body[..room];
        // `n <= u16::MAX` is a construction invariant, so the checked
        // narrowing never saturates in practice; if it ever did, the peer
        // would reject the frame loudly.
        let row = u16::try_from(row).unwrap_or(u16::MAX);
        let mut at = self.end;
        at += put_varint_at(body, at, u64::from(row));
        at += put_varint_at(body, at, kept as u64);
        let mut top = 0;
        for (block, &mask) in self.masks.iter().enumerate() {
            let mut mask = mask;
            while mask != 0 {
                let i = block * 64 + mask.trailing_zeros() as usize;
                mask &= mask - 1;
                let (col, value, _) = cell(i, &written[i]);
                at += put_varint_at(body, at, col as u64);
                at += put_varint_at(body, at, value);
                top = top.max(col);
            }
        }
        self.end = at;
        self.count += kept;
        let top = u16::try_from(top).unwrap_or(u16::MAX);
        self.max_coord = self.max_coord.max(row).max(top);
    }

    /// The list packed since the last call; the packer is left empty.
    fn finish(&mut self) -> PackedEntries {
        let runs = self.body.get(..self.end).unwrap_or_default();
        let len = varint_len(self.count as u64) + runs.len();
        let held = if len <= PackedEntries::INLINE {
            let mut short = Short::default();
            put_varint(&mut short, self.count as u64);
            short.put_all(runs);
            short.held()
        } else {
            let mut out = Vec::with_capacity(len);
            put_varint(&mut out, self.count as u64);
            out.put_all(runs);
            Held::Shared(Bytes::from(out))
        };
        let packed = PackedEntries {
            held,
            count: u32::try_from(self.count).unwrap_or(u32::MAX),
            max_coord: self.max_coord,
        };
        self.end = 0;
        self.count = 0;
        self.max_coord = 0;
        packed
    }
}

/// Where packed bytes go: a buffer, or a short list's inline bytes.
trait Sink {
    fn put(&mut self, byte: u8);
    fn put_all(&mut self, bytes: &[u8]);
}

impl Sink for Vec<u8> {
    #[inline]
    fn put(&mut self, byte: u8) {
        self.push(byte);
    }

    #[inline]
    fn put_all(&mut self, bytes: &[u8]) {
        self.extend_from_slice(bytes);
    }
}

/// A list of at most [`PackedEntries::INLINE`] bytes, being written.
#[derive(Default)]
struct Short {
    bytes: [u8; PackedEntries::INLINE],
    len: usize,
}

impl Short {
    fn held(self) -> Held {
        Held::Inline {
            len: u8::try_from(self.len).unwrap_or(u8::MAX),
            bytes: self.bytes,
        }
    }
}

impl Sink for Short {
    #[inline]
    fn put(&mut self, byte: u8) {
        if let Some(to) = self.bytes.get_mut(self.len) {
            *to = byte;
        }
        self.len += 1;
    }

    #[inline]
    fn put_all(&mut self, bytes: &[u8]) {
        let end = self.len + bytes.len();
        if let Some(to) = self.bytes.get_mut(self.len..end) {
            to.copy_from_slice(bytes);
        }
        self.len = end;
    }
}

/// Appends `v` as an LEB128 varint.
#[inline]
fn put_varint(out: &mut impl Sink, mut v: u64) {
    while v >= 0x80 {
        out.put(low_byte(v) | 0x80);
        v >>= 7;
    }
    out.put(low_byte(v));
}

/// Writes `v` as an LEB128 varint at `out[at..]`, which has room for
/// ten bytes, and returns its length. Coordinates and live counters take
/// one or two bytes: those are inlined, the rest is a call.
#[inline(always)]
fn put_varint_at(out: &mut [u8], at: usize, v: u64) -> usize {
    if v < 0x80 {
        out[at] = low_byte(v);
        1
    } else if v < 0x4000 {
        out[at] = low_byte(v) | 0x80;
        out[at + 1] = low_byte(v >> 7);
        2
    } else {
        put_long_varint_at(out, at, v)
    }
}

/// [`put_varint_at`] for a value of three bytes or more.
#[inline(never)]
fn put_long_varint_at(out: &mut [u8], at: usize, mut v: u64) -> usize {
    let mut len = 0;
    while v >= 0x80 {
        out[at + len] = low_byte(v) | 0x80;
        v >>= 7;
        len += 1;
    }
    out[at + len] = low_byte(v);
    len + 1
}

/// Bytes `v` takes as a varint: 7 bits per byte, and zero takes one.
fn varint_len(v: u64) -> usize {
    (70 - (v | 1).leading_zeros() as usize) / 7
}

/// `v` as a coordinate; a checked list's coordinates always fit.
fn narrow(v: u64) -> u16 {
    u16::try_from(v).unwrap_or(u16::MAX)
}

/// `v` as an index or a length; a checked list's always fit.
#[inline(always)]
fn wide(v: u64) -> usize {
    usize::try_from(v).unwrap_or(usize::MAX)
}

/// The field that starts with byte `low`, `high` after it, as its value
/// and its length, if it takes one or two bytes. Which of the two it
/// takes is a branch: a list's fields run to a pattern the branch
/// predictor learns, and a predicted length lets the next field's read
/// start before this one's is done, where a length computed without a
/// branch would hold it back.
#[inline(always)]
fn short(low: u8, high: u8) -> Option<(u64, usize)> {
    if low < 0x80 {
        Some((u64::from(low), 1))
    } else if high < 0x80 {
        Some((u64::from(low & 0x7f) | u64::from(high) << 7, 2))
    } else {
        None
    }
}

/// The field at `bytes[at..]`, as its value and its length, if it takes
/// one or two bytes, as coordinates and live counters do; `None` for a
/// longer field, or none.
#[inline(always)]
fn short_field(bytes: &[u8], at: usize) -> Option<(u64, usize)> {
    match bytes.get(at..)? {
        [low, high, ..] => short(*low, *high),
        [low] if *low < 0x80 => Some((u64::from(*low), 1)),
        _ => None,
    }
}

/// The `(col, value)` pair at `bytes[at..]`, and its length, when each
/// of its fields takes one or two bytes: one match over the four shapes
/// such a pair can take. `None` for a longer field, or where the bytes
/// run out; the fields are then read one by one.
#[inline(always)]
fn short_pair(bytes: &[u8], at: usize) -> Option<(u64, u64, usize)> {
    let one = |byte: &u8| u64::from(*byte);
    let two = |low: &u8, high: &u8| u64::from(low & 0x7f) | u64::from(*high) << 7;
    match bytes.get(at..)? {
        [col @ 0..=0x7f, value @ 0..=0x7f, ..] => Some((one(col), one(value), 2)),
        [col @ 0..=0x7f, low, high @ 0..=0x7f, ..] => Some((one(col), two(low, high), 3)),
        [low @ 0x80..=0xff, high @ 0..=0x7f, value @ 0..=0x7f, ..] => {
            Some((two(low, high), one(value), 3))
        }
        [low @ 0x80..=0xff, high @ 0..=0x7f, v_low, v_high @ 0..=0x7f, ..] => {
            Some((two(low, high), two(v_low, v_high), 4))
        }
        _ => None,
    }
}

/// Reads one varint at `bytes[*at..]` of a list [`PackedEntries::read`]
/// has checked, so without an error path, and moves `at` past it. A
/// field of one or two bytes is read inline, the rest in a call.
#[inline(always)]
fn next_varint(bytes: &[u8], at: &mut usize) -> u64 {
    let (v, len) = short_field(bytes, *at).unwrap_or_else(|| long_field(bytes, *at));
    *at += len;
    v
}

/// The value and length of the field at `bytes[at..]` of a checked list,
/// for the fields [`short_field`] does not read.
#[inline(never)]
fn long_field(bytes: &[u8], at: usize) -> (u64, usize) {
    let (mut v, mut shift, mut len) = (0u64, 0u32, 0usize);
    for &byte in bytes.get(at..).unwrap_or_default() {
        v |= u64::from(byte & 0x7f).wrapping_shl(shift);
        len += 1;
        if byte < 0x80 {
            break;
        }
        shift = shift.saturating_add(7);
    }
    (v, len)
}

/// `v` as a `usize`, if it is no larger than `max`.
fn at_most(v: u64, max: usize) -> Option<usize> {
    usize::try_from(v).ok().filter(|v| *v <= max)
}

/// The low eight bits of `v`.
fn low_byte(v: u64) -> u8 {
    let [low, ..] = v.to_le_bytes();
    low
}

/// A short constant reason: refusing a frame allocates no more than this.
#[cold]
fn malformed(why: &'static str) -> Error {
    Error::Codec(why.into())
}

/// Reads one LEB128 varint at `bytes[*at..]`, refusing what no packed
/// list holds, and moves `at` past it. The one- and two-byte fields,
/// every coordinate and live counter, are read inline in
/// [`PackedEntries::read`]'s loop; longer fields and every error are a
/// call.
#[inline(always)]
fn take_varint(bytes: &[u8], at: &mut usize) -> aaa_base::Result<u64> {
    let (v, len) = match short_field(bytes, *at) {
        Some(field) => field,
        None => take_long_varint(bytes, *at)?,
    };
    *at += len;
    Ok(v)
}

/// [`take_varint`] for a field of three bytes or more, a malformed one,
/// or the last byte of the input: its value and length.
#[inline(never)]
fn take_long_varint(bytes: &[u8], at: usize) -> aaa_base::Result<(u64, usize)> {
    let field = bytes.get(at..).unwrap_or_default();
    let (mut v, mut shift) = (0u64, 0u32);
    for (len, &byte) in (1..).zip(field) {
        let bits = u64::from(byte & 0x7f);
        // The tenth byte has room for bit 63 alone.
        if shift == 63 && bits > 1 {
            return Err(malformed("varint overflows 64 bits"));
        }
        v |= bits << shift;
        if byte < 0x80 {
            return Ok((v, len));
        }
        shift += 7;
        if shift > 63 {
            return Err(malformed("varint longer than 10 bytes"));
        }
    }
    Err(malformed("truncated packed stamp"))
}

/// Reads one varint that must fit a matrix coordinate.
#[inline(always)]
fn take_u16(bytes: &[u8], at: &mut usize) -> aaa_base::Result<u16> {
    u16::try_from(take_varint(bytes, at)?)
        .map_err(|_| malformed("packed coordinate above u16::MAX"))
}

/// The causal timestamp piggybacked on a message.
///
/// `Ord` is derived so model-checker states that embed in-flight stamps
/// (`aaa-audit`'s `EngineModel`) can be memoized in ordered sets; the
/// ordering itself has no protocol meaning.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Stamp {
    /// The sender's full matrix.
    Full(MatrixClock),
    /// The entries modified since the last send to this peer, packed.
    Delta(PackedEntries),
    /// Group-commit continuation: "the previous frame's stamp, with
    /// `SENT[sender][receiver]` incremented by one".
    ///
    /// Emitted by [`CausalState::stamp_send`] with [`Batching::Grouped`]
    /// for the second and later messages of a batch to the same peer when
    /// nothing else in the sender's matrix changed in between. The
    /// receiver adds one to the link counter it keeps for the sender, so
    /// the wire cost is zero payload bytes — the amortization that makes
    /// group-commit batching collapse the per-message stamp cost (cf.
    /// sender-side buffering / constant-size causal broadcast in the
    /// related work). Every mode understands it.
    ///
    /// Sound only over reliable FIFO links, which AAA links guarantee.
    ///
    /// [`CausalState::stamp_send`]: crate::CausalState::stamp_send
    /// [`Batching::Grouped`]: crate::Batching::Grouped
    GroupNext,
}

impl Stamp {
    /// Size of the stamp on the wire, in bytes, as encoded — its tag byte
    /// aside.
    ///
    /// Full stamps cost a 4-byte width plus `n² × 8` bytes; delta stamps
    /// cost their [packed](PackedEntries) entry list, whose length they
    /// hold; group continuations cost nothing beyond their tag. O(1). This
    /// is the quantity plotted by the Appendix-A ablation experiment and
    /// the stamp-mode shootout.
    pub fn encoded_len(&self) -> usize {
        match self {
            Stamp::Full(m) => 4 + m.encoded_len(),
            Stamp::Delta(entries) => entries.as_bytes().len(),
            Stamp::GroupNext => 0,
        }
    }

    /// Number of matrix entries conveyed.
    pub fn entry_count(&self) -> usize {
        match self {
            Stamp::Full(m) => m.width() * m.width(),
            Stamp::Delta(entries) => entries.len(),
            Stamp::GroupNext => 1,
        }
    }

    /// The stamp kind's name, for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Stamp::Full(_) => "Full",
            Stamp::Delta(_) => "Delta",
            Stamp::GroupNext => "GroupNext",
        }
    }

    /// Returns `true` if this is a delta stamp.
    pub fn is_delta(&self) -> bool {
        matches!(self, Stamp::Delta(_))
    }

    /// Returns `true` if this is a group-commit continuation stamp.
    pub fn is_group_next(&self) -> bool {
        matches!(self, Stamp::GroupNext)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_stamp_size_is_quadratic() {
        let s = Stamp::Full(MatrixClock::new(10));
        assert_eq!(s.encoded_len(), 4 + 100 * 8);
        assert_eq!(s.entry_count(), 100);
        assert!(!s.is_delta());
    }

    fn entry(row: u16, col: u16, value: u64) -> UpdateEntry {
        UpdateEntry { row, col, value }
    }

    fn packed(entries: &[UpdateEntry]) -> Vec<u8> {
        let mut out = Vec::new();
        UpdateEntry::pack(entries, &mut out);
        out
    }

    #[test]
    fn delta_stamp_size_follows_the_packed_layout() {
        // Two rows, three entries, one two-byte value: count, then
        // (row, run_len, (col, value)…) per run.
        let entries = vec![entry(0, 1, 3), entry(2, 1, 9), entry(2, 5, 300)];
        assert_eq!(
            packed(&entries),
            [3, 0, 1, 1, 3, 2, 2, 1, 9, 5, 0xac, 0x02],
            "count | row 0 × 1: (1, 3) | row 2 × 2: (1, 9) (5, 300)"
        );
        let s = Stamp::Delta(PackedEntries::new(&entries));
        assert_eq!(s.encoded_len(), 12);
        assert_eq!(s.entry_count(), 3);
        assert!(s.is_delta());
    }

    #[test]
    fn packed_entries_roundtrip_in_order_with_trailing_bytes_left() {
        // Unsorted, a duplicate cell, a row that comes back, the extremes.
        let entries = vec![
            entry(7, 7, 1),
            entry(7, 7, 1),
            entry(0, u16::MAX, u64::MAX),
            entry(7, 0, 0),
            entry(u16::MAX, 3, 1 << 56),
        ];
        let mut bytes = packed(&entries);
        assert_eq!(bytes.len(), UpdateEntry::packed_len(&entries));
        bytes.extend_from_slice(b"rest");
        let mut buf = Bytes::from(bytes);
        let list = PackedEntries::read(&mut buf).unwrap();
        assert_eq!(list.iter().collect::<Vec<_>>(), entries);
        assert_eq!(list, PackedEntries::new(&entries));
        assert_eq!((list.len(), list.width()), (5, 1 << 16));
        assert_eq!(&buf[..], b"rest");
    }

    #[test]
    fn the_packer_writes_what_pack_writes() {
        // Rows of `(col, value, tag)`: a tag past 5 keeps the cell. Two-
        // and ten-byte values, a two-byte row, a run that keeps nothing.
        type RowCells = &'static [(usize, u64, u64)];
        let rows: [(usize, RowCells); 4] = [
            (0, &[(3, 1, 6), (4, 8, 5), (9, 300, 7)]),
            (1, &[(0, 1, 2), (7, 7, 0)]),
            (2, &[(0, 7, 9)]),
            (300, &[(2, u64::MAX, 6)]),
        ];
        let entries = [
            entry(0, 3, 1),
            entry(0, 9, 300),
            entry(2, 0, 7),
            entry(300, 2, u64::MAX),
        ];
        for round in 0..2 {
            let list = Packer::pack(|packer| {
                for (row, cells) in rows {
                    packer.run(row, cells, 5, |_, &cell| cell);
                }
            });
            assert_eq!(list.as_bytes(), packed(&entries), "round {round}");
            assert_eq!(list, PackedEntries::new(&entries));
            assert_eq!((list.len(), list.width()), (4, 301));
            let mut runs = Vec::new();
            list.for_each_run(|row, cells| runs.push((row, cells.collect::<Vec<_>>())));
            let want = [
                (0, vec![(3, 1), (9, 300)]),
                (2, vec![(0, 7)]),
                (300, vec![(2, u64::MAX)]),
            ];
            assert_eq!(runs, want, "round {round}");
        }
        assert_eq!(Packer::pack(|_| {}), PackedEntries::empty());
    }

    #[test]
    fn packed_entry_worst_case_is_seventeen_bytes() {
        let one = |value| UpdateEntry::packed_len(&[entry(1 << 14, 1 << 14, value)]) - 1;
        assert_eq!(one(1 << 56), 16);
        assert_eq!(one(u64::MAX), 17);
        // A live domain: coordinates under 128, counters under 16 384.
        let run = [entry(5, 9, 100), entry(5, 10, 16_383)];
        assert_eq!(UpdateEntry::packed_len(&run), 1 + 2 + 2 + 3);
    }

    #[test]
    fn varint_boundaries() {
        // The named malformed lists are refused in
        // `aaa-net/tests/properties.rs`, through the decoder; here, the
        // edges of the varint itself.
        let take = |bytes: &[u8]| {
            let mut at = 0;
            take_varint(bytes, &mut at).map(|v| (v, at))
        };
        let next = |bytes: &[u8]| {
            let mut at = 0;
            (next_varint(bytes, &mut at), at)
        };
        let mut max = [0xff; 10];
        max[9] = 0x01;
        assert_eq!(take(&max).unwrap(), (u64::MAX, 10));
        max[9] = 0x02;
        assert!(take(&max).is_err(), "bit 64");
        assert!(take(&[0x80; 11]).is_err(), "eleven bytes");
        assert!(take(&[0x80; 3]).is_err(), "truncated");
        assert!(take(&[]).is_err(), "nothing");
        // Padding is not canonical but is unambiguous: still zero.
        assert_eq!(take(&[0x80, 0x00]).unwrap(), (0, 2));
        assert_eq!(next(&[0x80, 0x00]), (0, 2));
        assert_eq!(next(&max[..9]), (u64::MAX >> 1, 9));
        // The one- and two-byte fields read inline, with what follows
        // them or at the very end.
        for (field, want) in [
            (&[0x7f, 0xff][..], (127, 1)),
            (&[0x05], (5, 1)),
            (&[0x80, 0x01, 0xff], (128, 2)),
            (&[0xff, 0x7f], (16_383, 2)),
            (&[0x80, 0x80, 0x01], (16_384, 3)),
        ] {
            assert_eq!(take(field).unwrap(), want, "{field:?}");
            assert_eq!(next(field), want, "{field:?}");
        }
        assert!(PackedEntries::read(&mut Bytes::new()).is_err());
    }

    #[test]
    fn default_mode_is_updates() {
        assert_eq!(StampMode::default(), StampMode::Updates);
    }

    #[test]
    fn empty_delta_is_cheap() {
        let s = Stamp::Delta(PackedEntries::empty());
        assert_eq!(s.encoded_len(), 1, "a zero count and nothing else");
        assert_eq!(s.entry_count(), 0);
        assert_eq!(PackedEntries::new(&[]), PackedEntries::empty());
        assert_eq!(PackedEntries::empty().width(), 0);
    }

    #[test]
    fn mode_names_roundtrip_through_fromstr() {
        for mode in StampMode::ALL {
            assert_eq!(mode.to_string().parse::<StampMode>(), Ok(mode));
            // Case-insensitive, as CI env vars tend to shout.
            assert_eq!(
                mode.name().to_ascii_uppercase().parse::<StampMode>(),
                Ok(mode)
            );
        }
        let err = "matrix".parse::<StampMode>().unwrap_err();
        assert!(err.to_string().contains("matrix"));
    }
}
