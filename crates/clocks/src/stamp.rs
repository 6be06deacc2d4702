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
//! free of duplicates: [`UpdateEntry::unpack`] returns exactly the list
//! [`UpdateEntry::pack`] was given. The worst case is an entry alone in its
//! run with `row`, `col` ≥ 2¹⁴ and `value` ≥ 2⁵⁶: 3 + 1 + 3 + 9 = 16 B
//! (17 B from 2⁶³) — never reached by a live counter. The codec lives here,
//! beside [`Stamp::encoded_len`], so that the size the experiments and
//! metrics report is by construction the size `aaa-net` writes.

use std::fmt;
use std::str::FromStr;

use aaa_base::Error;
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
        Self::packed_fields(entries, |mut v| {
            while v >= 0x80 {
                out.push(low_byte(v) | 0x80);
                v >>= 7;
            }
            out.push(low_byte(v));
        });
    }

    /// Exactly the number of bytes [`UpdateEntry::pack`] writes for
    /// `entries`.
    pub fn packed_len(entries: &[UpdateEntry]) -> usize {
        let mut len = 0usize;
        // A varint holds 7 bits per byte; `v | 1` gives zero its one byte.
        Self::packed_fields(entries, |v| {
            len += (70 - (v | 1).leading_zeros() as usize) / 7
        });
        len
    }

    /// Reads a packed entry list from the front of `input`, returning the
    /// entries and the bytes consumed.
    ///
    /// Total over arbitrary bytes, and bounded: `count` is refused before
    /// anything is allocated unless `input` still holds the two bytes
    /// every entry costs at least, so the result never outweighs its
    /// encoding by more than `size_of::<UpdateEntry>() / 2`.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Codec`] on truncation, a varint longer than 10
    /// bytes or overflowing 64 bits, a `row` or `col` above `u16::MAX`, an
    /// empty run, or a run longer than the entries `count` still owes.
    pub fn unpack(input: &[u8]) -> aaa_base::Result<(Vec<UpdateEntry>, usize)> {
        let mut rest = input;
        let count = take_varint(&mut rest)?;
        let count = at_most(count, rest.len() / 2)
            .ok_or_else(|| malformed("more packed entries than bytes"))?;
        let mut entries = Vec::with_capacity(count);
        while entries.len() < count {
            let row = take_u16(&mut rest)?;
            let run_len = take_varint(&mut rest)?;
            let run_len = at_most(run_len, count - entries.len())
                .filter(|run_len| *run_len > 0)
                .ok_or_else(|| malformed("packed run empty or longer than the entries owed"))?;
            for _ in 0..run_len {
                let col = take_u16(&mut rest)?;
                let value = take_varint(&mut rest)?;
                entries.push(UpdateEntry { row, col, value });
            }
        }
        Ok((entries, input.len() - rest.len()))
    }
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

/// Reads one LEB128 varint off the front of `input`. Inlined into
/// [`UpdateEntry::unpack`]'s loop, where most fields are one byte: left as
/// a call, a `flat_mesh` stamp decodes 1.7× slower.
#[inline(always)]
fn take_varint(input: &mut &[u8]) -> aaa_base::Result<u64> {
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
    /// The entries modified since the last send to this peer.
    Delta(Vec<UpdateEntry>),
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
    /// cost their [packed](UpdateEntry::pack) entry list
    /// (`O(entries)` to measure: callers on a hot path ask once); group
    /// continuations cost nothing beyond their tag. This is the quantity
    /// plotted by the Appendix-A ablation experiment and the stamp-mode
    /// shootout.
    pub fn encoded_len(&self) -> usize {
        match self {
            Stamp::Full(m) => 4 + m.encoded_len(),
            Stamp::Delta(entries) => UpdateEntry::packed_len(entries),
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
        let s = Stamp::Delta(entries);
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
        let (decoded, used) = UpdateEntry::unpack(&bytes).unwrap();
        assert_eq!(decoded, entries);
        assert_eq!(used, bytes.len() - 4);
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
        assert!(UpdateEntry::unpack(&[]).is_err());
    }

    #[test]
    fn default_mode_is_updates() {
        assert_eq!(StampMode::default(), StampMode::Updates);
    }

    #[test]
    fn empty_delta_is_cheap() {
        let s = Stamp::Delta(Vec::new());
        assert_eq!(s.encoded_len(), 1, "a zero count and nothing else");
        assert_eq!(s.entry_count(), 0);
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
