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
        let mut rest: &[u8] = buf;
        let count = take_varint(&mut rest)?;
        let count = at_most(count, rest.len() / 2)
            .filter(|count| u32::try_from(*count).is_ok())
            .ok_or_else(|| malformed("more packed entries than bytes"))?;
        let (mut owed, mut max_coord) = (count, 0u16);
        while owed > 0 {
            let row = take_u16(&mut rest)?;
            let run_len = take_varint(&mut rest)?;
            let run_len = at_most(run_len, owed)
                .filter(|run_len| *run_len > 0)
                .ok_or_else(|| malformed("packed run empty or longer than the entries owed"))?;
            max_coord = max_coord.max(row);
            for _ in 0..run_len {
                max_coord = max_coord.max(take_u16(&mut rest)?);
                take_varint(&mut rest)?;
            }
            owed -= run_len;
        }
        let used = buf.len() - rest.len();
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

    /// The entries, in list order, read off the packed bytes.
    pub fn iter(&self) -> Entries<'_> {
        let mut rest = self.as_bytes();
        // The count was read when the list was made.
        next_varint(&mut rest);
        Entries {
            rest,
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
    rest: &'a [u8],
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
            self.row = narrow(next_varint(&mut self.rest));
            self.run_left = next_varint(&mut self.rest);
        }
        self.run_left = self.run_left.saturating_sub(1);
        let col = narrow(next_varint(&mut self.rest));
        let value = next_varint(&mut self.rest);
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

/// Packs a list cell by cell, as a row-major walk yields the cells,
/// without building the entries first: the `(col, value)` varints of
/// every run go to one scratch buffer, and [`Packer::finish`] writes the
/// count and the run headers around them straight into the list's own
/// bytes — inline, or a buffer of exactly its size. [`Packer::pack`]
/// lends out one packer per thread, which keeps its capacity from one
/// list to the next: one per clock would hold its largest delta's scratch
/// for good, 256 of them on a domain of 256.
#[derive(Debug, Default)]
pub(crate) struct Packer {
    /// The `(col, value)` varints of the runs so far, back to back.
    body: Vec<u8>,
    /// Per run: its row, its entries, and where its body ends.
    runs: Vec<(u16, u64, usize)>,
    count: usize,
    max_coord: u16,
}

impl Packer {
    /// The list `fill` pushes, packed, in this thread's scratch.
    pub(crate) fn pack(fill: impl FnOnce(&mut Packer)) -> PackedEntries {
        thread_local! {
            static SCRATCH: RefCell<Packer> = RefCell::new(Packer::default());
        }
        SCRATCH.with_borrow_mut(|packer| {
            fill(packer);
            packer.finish()
        })
    }

    /// Appends the entry `(row, col) = value`.
    #[inline]
    pub(crate) fn push(&mut self, row: u16, col: u16, value: u64) {
        put_varint(&mut self.body, u64::from(col));
        put_varint(&mut self.body, value);
        let end = self.body.len();
        match self.runs.last_mut() {
            Some(run) if run.0 == row => {
                run.1 += 1;
                run.2 = end;
            }
            _ => self.runs.push((row, 1, end)),
        }
        self.count += 1;
        self.max_coord = self.max_coord.max(row).max(col);
    }

    /// The list pushed since the last call, packed; the packer is left
    /// empty.
    fn finish(&mut self) -> PackedEntries {
        let headers: usize = (self.runs.iter())
            .map(|&(row, len, _)| varint_len(u64::from(row)) + varint_len(len))
            .sum();
        let len = varint_len(self.count as u64) + headers + self.body.len();
        let held = if len <= PackedEntries::INLINE {
            let mut short = Short::default();
            self.write(&mut short);
            short.held()
        } else {
            let mut out = Vec::with_capacity(len);
            self.write(&mut out);
            Held::Shared(Bytes::from(out))
        };
        let packed = PackedEntries {
            held,
            count: u32::try_from(self.count).unwrap_or(u32::MAX),
            max_coord: self.max_coord,
        };
        self.body.clear();
        self.runs.clear();
        self.count = 0;
        self.max_coord = 0;
        packed
    }

    /// Writes the packed list to `out`: the count, then each run's header
    /// and body.
    fn write(&self, out: &mut impl Sink) {
        put_varint(out, self.count as u64);
        let mut start = 0;
        for &(row, len, end) in &self.runs {
            put_varint(out, u64::from(row));
            put_varint(out, len);
            out.put_all(self.body.get(start..end).unwrap_or_default());
            start = end;
        }
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

/// Bytes `v` takes as a varint: 7 bits per byte, and zero takes one.
fn varint_len(v: u64) -> usize {
    (70 - (v | 1).leading_zeros() as usize) / 7
}

/// `v` as a coordinate; a checked list's coordinates always fit.
fn narrow(v: u64) -> u16 {
    u16::try_from(v).unwrap_or(u16::MAX)
}

/// Reads one varint off the front of a list [`PackedEntries::read`] has
/// checked, so without an error path. Coordinates and live counters take
/// one or two bytes: those are inlined, the rest is a call.
#[inline(always)]
fn next_varint(input: &mut &[u8]) -> u64 {
    let bytes: &[u8] = input;
    match bytes {
        [low, rest @ ..] if *low < 0x80 => {
            *input = rest;
            u64::from(*low)
        }
        [low, high, rest @ ..] if *high < 0x80 => {
            *input = rest;
            u64::from(*low & 0x7f) | u64::from(*high) << 7
        }
        _ => next_long_varint(input),
    }
}

/// [`next_varint`] for a field of three bytes or more.
#[inline(never)]
fn next_long_varint(input: &mut &[u8]) -> u64 {
    let (mut v, mut shift) = (0u64, 0u32);
    while let Some((&byte, rest)) = input.split_first() {
        *input = rest;
        v |= u64::from(byte & 0x7f).wrapping_shl(shift);
        if byte < 0x80 {
            break;
        }
        shift = shift.saturating_add(7);
    }
    v
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
fn malformed(why: &'static str) -> Error {
    Error::Codec(why.into())
}

/// Reads one LEB128 varint off the front of `input`, refusing what no
/// packed list holds. The one-byte case is inlined into
/// [`PackedEntries::read`]'s loop, where most fields are one byte.
#[inline(always)]
fn take_varint(input: &mut &[u8]) -> aaa_base::Result<u64> {
    match input.split_first() {
        Some((&byte, rest)) if byte < 0x80 => {
            *input = rest;
            Ok(u64::from(byte))
        }
        _ => take_long_varint(input),
    }
}

/// [`take_varint`] for a field of two bytes or more, or none.
#[inline(never)]
fn take_long_varint(input: &mut &[u8]) -> aaa_base::Result<u64> {
    let (mut v, mut shift) = (0u64, 0u32);
    loop {
        let (&byte, rest) = input
            .split_first()
            .ok_or_else(|| malformed("truncated packed stamp"))?;
        *input = rest;
        let bits = u64::from(byte & 0x7f);
        // The tenth byte has room for bit 63 alone.
        if shift == 63 && bits > 1 {
            return Err(malformed("varint overflows 64 bits"));
        }
        v |= bits << shift;
        if byte < 0x80 {
            return Ok(v);
        }
        shift += 7;
        if shift > 63 {
            return Err(malformed("varint longer than 10 bytes"));
        }
    }
}

/// Reads one varint that must fit a matrix coordinate.
fn take_u16(input: &mut &[u8]) -> aaa_base::Result<u16> {
    u16::try_from(take_varint(input)?).map_err(|_| malformed("packed coordinate above u16::MAX"))
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
        let entries = [
            entry(0, 3, 1),
            entry(0, 9, 300),
            entry(2, 0, 7),
            entry(300, 2, u64::MAX),
        ];
        for round in 0..2 {
            let list = Packer::pack(|packer| {
                for e in &entries {
                    packer.push(e.row, e.col, e.value);
                }
            });
            assert_eq!(list.as_bytes(), packed(&entries), "round {round}");
            assert_eq!(list, PackedEntries::new(&entries));
            assert_eq!((list.len(), list.width()), (4, 301));
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
        let mut max = [0xff; 10];
        max[9] = 0x01;
        assert_eq!(take_varint(&mut &max[..]).unwrap(), u64::MAX);
        max[9] = 0x02;
        assert!(take_varint(&mut &max[..]).is_err(), "bit 64");
        assert!(take_varint(&mut &[0x80; 11][..]).is_err(), "eleven bytes");
        assert!(take_varint(&mut &[0x80; 3][..]).is_err(), "truncated");
        // Padding is not canonical but is unambiguous: still zero.
        assert_eq!(take_varint(&mut &[0x80, 0x00][..]).unwrap(), 0);
        assert_eq!(next_varint(&mut &[0x80, 0x00][..]), 0);
        assert_eq!(next_varint(&mut &max[..9]), u64::MAX >> 1);
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
