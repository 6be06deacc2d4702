//! Message timestamps: full matrices, Update deltas (Appendix A), and
//! deltas pruned by sender-side knowledge buffering.
//!
//! Every causally ordered message carries a [`Stamp`]. The shape of the
//! stamp is chosen by the channel's [`StampMode`]:
//!
//! - [`StampMode::Full`] ships the sender's whole matrix — `O(n²)` bytes;
//! - [`StampMode::Updates`] ships only the entries modified since the last
//!   message to the same peer — the *Updates optimized algorithm* of the
//!   paper's Appendix A, `O(n)` bytes in the common case (the paper notes
//!   `O(n²)` worst case);
//! - [`StampMode::Hybrid`] ships an Updates delta pruned against a
//!   sender-side model of what the peer already knows — Almeida-style
//!   knowledge buffering, smallest on pub/sub echo traffic.
//!
//! All three modes convey the exact sender matrix to the receiving side —
//! whole, or as deltas that add up to it over the FIFO link — so they take
//! identical delivery decisions (the conformance suite in
//! `tests/conformance.rs` proves it on seeded schedules).

use std::fmt;
use std::str::FromStr;

use serde::{Deserialize, Serialize};

use crate::matrix::MatrixClock;

/// How channel stamps are encoded on the wire.
///
/// Marked `#[non_exhaustive]`: modes come (as [`StampMode::Hybrid`] did)
/// and go (as the Drummond–Barbosa `Reduced` mode did, dominated on bytes
/// and CPU at every measured width), so downstream matches must keep a
/// wildcard arm.
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
    /// Ship an Updates delta pruned against the sender's model of the
    /// peer's knowledge (Almeida-style sender-side buffering).
    Hybrid,
}

impl StampMode {
    /// Every stamp mode, for mode-generic tests and benchmarks.
    pub const ALL: [StampMode; 3] = [StampMode::Full, StampMode::Updates, StampMode::Hybrid];

    /// The mode's canonical lower-case name (also its [`FromStr`] form).
    pub fn name(self) -> &'static str {
        match self {
            StampMode::Full => "full",
            StampMode::Updates => "updates",
            StampMode::Hybrid => "hybrid",
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
            "unknown stamp mode `{}` (expected full, updates or hybrid)",
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
            "hybrid" => Ok(StampMode::Hybrid),
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
    /// Bytes one entry occupies on the wire: two `u16` coordinates plus a
    /// `u64` value.
    pub const WIRE_LEN: usize = 2 + 2 + 8;
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
    /// hybrid buffering / constant-size causal broadcast in the related
    /// work). Every mode understands it.
    ///
    /// Sound only over reliable FIFO links, which AAA links guarantee.
    ///
    /// [`CausalState::stamp_send`]: crate::CausalState::stamp_send
    /// [`Batching::Grouped`]: crate::Batching::Grouped
    GroupNext,
    /// Hybrid stamp: an Updates delta minus the entries the sender can
    /// prove the receiver already knows (its own row, and any cell the
    /// sender's knowledge model already attributes to the peer). Entries
    /// in the receiver's own column are never pruned — that column is the
    /// §4.2 delivery predicate and must stay exact.
    Hybrid(Vec<UpdateEntry>),
}

impl Stamp {
    /// Size of the stamp on the wire, in bytes.
    ///
    /// Full stamps cost `n² × 8` bytes; delta and hybrid stamps cost a
    /// 4-byte count plus [`UpdateEntry::WIRE_LEN`] per entry; group
    /// continuations cost nothing beyond their tag. This is the
    /// quantity plotted by the Appendix-A ablation experiment and the
    /// stamp-mode shootout.
    pub fn encoded_len(&self) -> usize {
        match self {
            Stamp::Full(m) => 4 + m.encoded_len(),
            Stamp::Delta(entries) | Stamp::Hybrid(entries) => {
                4 + entries.len() * UpdateEntry::WIRE_LEN
            }
            Stamp::GroupNext => 0,
        }
    }

    /// Number of matrix entries conveyed.
    pub fn entry_count(&self) -> usize {
        match self {
            Stamp::Full(m) => m.width() * m.width(),
            Stamp::Delta(entries) | Stamp::Hybrid(entries) => entries.len(),
            Stamp::GroupNext => 1,
        }
    }

    /// The stamp kind's name, for diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Stamp::Full(_) => "Full",
            Stamp::Delta(_) => "Delta",
            Stamp::GroupNext => "GroupNext",
            Stamp::Hybrid(_) => "Hybrid",
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

    #[test]
    fn delta_stamp_size_is_linear_in_entries() {
        let entries = vec![
            UpdateEntry {
                row: 0,
                col: 1,
                value: 3,
            },
            UpdateEntry {
                row: 2,
                col: 1,
                value: 9,
            },
        ];
        let s = Stamp::Delta(entries);
        assert_eq!(s.encoded_len(), 4 + 2 * UpdateEntry::WIRE_LEN);
        assert_eq!(s.entry_count(), 2);
        assert!(s.is_delta());
    }

    #[test]
    fn default_mode_is_updates() {
        assert_eq!(StampMode::default(), StampMode::Updates);
    }

    #[test]
    fn empty_delta_is_cheap() {
        let s = Stamp::Delta(Vec::new());
        assert_eq!(s.encoded_len(), 4);
        assert_eq!(s.entry_count(), 0);
    }

    #[test]
    fn hybrid_stamp_size_matches_delta() {
        let entries = vec![UpdateEntry {
            row: 0,
            col: 1,
            value: 5,
        }];
        assert_eq!(
            Stamp::Hybrid(entries.clone()).encoded_len(),
            Stamp::Delta(entries).encoded_len()
        );
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
