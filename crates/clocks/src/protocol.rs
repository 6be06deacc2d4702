//! The matrix-clock causal delivery protocol used by every AAA channel.
//!
//! This is the per-domain protocol of the paper (§3, §5, Appendix A), in the
//! style of Raynal–Schiper–Toueg (the paper's reference 12):
//!
//! - each server `i` keeps `SENT` (an `n × n` [`MatrixClock`]: messages sent
//!   `k → l` that `i` knows of) and `DELIV` (a vector: messages from `k`
//!   delivered at `i`);
//! - **send `i → j`**: increment `SENT[i][j]`, piggyback the matrix (whole,
//!   or as Update deltas);
//! - **deliverable at `j`** (message from `i` whose stamp stands for the
//!   sender matrix `ST`): `ST[i][j] == DELIV[i] + 1` and
//!   `ST[k][j] <= DELIV[k]` for all `k != i` — `j` must already have
//!   delivered every message *destined to `j`* that the sender knew about;
//! - **deliver at `j`**: `DELIV[i] += 1` and `SENT := max(SENT, ST)`.
//!
//! Messages that fail the check wait in the channel's postponed queue and
//! are re-examined after each delivery (the queue lives in `aaa-mom`; this
//! crate only provides the predicates and state).
//!
//! [`CausalState`] is the one state machine behind all of it. The
//! [`StampMode`] chosen at construction selects what
//! [`CausalState::stamp_send`] puts on the wire and what
//! [`CausalState::on_frame`] keeps of it — a `match` on the mode in each;
//! the predicate, the delivery merge and persistence are shared.
//!
//! # The `on_frame` contract
//!
//! Write `image_i` for the sender's `SENT` matrix at the instant it stamped
//! its `i`-th frame to this server. [`StampMode::Full`] ships `image_i`
//! whole and its [`PendingStamp`] holds it: the dense `n²` reference. A
//! delta frame ([`Stamp::Delta`]) ships `delta_i` with
//! `image_i = max(image_{i-1}, delta_i)`; a [`Stamp::GroupNext`]
//! continuation ships nothing and stands for `image_{i-1}` with the link
//! cell `[from][me]` one higher. For those frames the [`PendingStamp`] is
//! **sparse**: it holds the link counter `image_i[from][me]`, a copy of
//! the cells of `delta_i` in the receiver's column (the link cell aside),
//! and `delta_i` itself as the packed list the frame carried — a view of
//! the received buffer, or an inline copy of a few entries — and nothing
//! of `image_{i-1}`. The
//! receiver keeps one `u64` per sender — that counter — and no image
//! matrix.
//!
//! The sparse pending decides and merges exactly as `image_i` would, by
//! induction over the frames of one sender, which every [`stamp_send`]
//! numbers `1, 2, 3, …` in the link cell (a real stamp always ships that
//! cell, since the send just changed it; a continuation adds one):
//!
//! 1. **Same predicate.** If the FIFO clause fails, both forms refuse. If
//!    it holds (`counter == DELIV[from] + 1`), frame `i − 1` has been
//!    delivered here, so at that instant its whole predicate column held:
//!    `image_{i-1}[k][me] <= DELIV[k]` for `k != from`. `DELIV` only grows,
//!    so it still holds, and `image_i[k][me] <= DELIV[k]` reduces to the
//!    entries of `delta_i` in column `me`. A carried value *below* what an
//!    earlier frame shipped is below `image_{i-1}` and passes in both
//!    forms (dense takes the max; sparse compares the smaller value).
//! 2. **Same merge.** Delivering frame `i − 1` merged `image_{i-1}` into
//!    `SENT`, and `SENT` only grows, so `max(SENT, image_i)` equals `SENT`
//!    raised by `delta_i` and the link counter; the cells that grow — and
//!    so the Appendix-A change tags, and every later stamp — are the same.
//!    (`i = 1`: `image_0` is all zero and both claims are immediate.)
//! 3. **What a delta must carry.** Unchanged from the dense form: every
//!    cell of the receiver's column the sender changed since its last
//!    frame to this receiver (an omission delivers early), and every other
//!    changed cell — so `SENT` ends identical to Full-mode delivery.
//! 4. **Persistence round-trip.** [`CausalState::write_bytes`] followed by
//!    [`CausalState::read_bytes`] resumes the protocol mid-stream,
//!    including mid-batch [`Stamp::GroupNext`] continuation state; a
//!    postponed [`PendingStamp`] round-trips through its own
//!    `write_bytes`/`read_bytes`.
//!
//! Both modes therefore take **identical delivery decisions** — the
//! mode-generic conformance suite (`tests/conformance.rs`) checks this
//! observationally against [`StampMode::Full`], and `tests/differential.rs`
//! checks the sparse form step by step against a textbook dense
//! reconstruction.
//!
//! # Cost
//!
//! In the delta modes every operation follows the stamp, not the domain,
//! and the stamp stays packed ([`PackedEntries`]) end to end:
//! `stamp_send` finds the changed rows by descending a tree of maxima
//! over the change tags, one slot per row at its bottom, instead of
//! scanning `n²` of them (see `ChangeTree`), and each changed row packs
//! its own run; `check_stamp` compares the list's largest coordinate with
//! `n`; `on_frame` walks the list once, run by run, for the link counter
//! and the receiver's column; `can_deliver` reads that column; `deliver`
//! merges in one more pass, a run — one row of `SENT` — at a time. How
//! each pass reads a run is set out in the [`stamp`](crate::stamp) module.
//! Only `Full` real stamps pay `n²`, by design.
//!
//! Resident state follows the traffic too. `SENT` keeps each counter and
//! its change tag side by side, each row as a list of its written cells
//! until it fills (see [`MatrixClock`]'s storage notes), so a server holds
//! a 16-byte header per row, the tree of maxima (about `n × 8` bytes), the
//! cells its traffic wrote and its per-peer vectors — not two dense `n²`
//! arrays of `u64`. On ring traffic in a domain of 256 that is about
//! 18 KiB per server instead of 1 MiB (`tests/alloc.rs`).
//!
//! # Persistence image
//!
//! `me: u16`, `n: u32`, mode byte, `SENT`, `DELIV`, the logical instant,
//! the `n²` change tags, the per-peer send instants and the per-sender link
//! counters (`n × u64`). The maxima over the tags are rebuilt on read.
//! Mode bytes are 4 (`Full`) and 5 (`Updates`). Bytes 0, 1 and 3
//! were `Full`, `Updates` and the retired `Hybrid` when the image still
//! carried an `n × n²` section of per-sender image matrices, byte 2 was
//! the retired `Reduced` mode, byte 6 was `Hybrid` with its per-peer
//! knowledge model as the image's tail, and all five are refused.
//!
//! The image stays dense although the resident state is not: `SENT` and
//! its tags are written as `n²` counters each, byte for byte what a dense
//! state wrote, so stores, checkpoints and state records are unchanged. A
//! sparse image would need a new mode byte and a decoder that allocates
//! `O(n + written)` for what it reads, to keep the recovery decoders'
//! allocation bound; it is not written yet. Reading a dense image
//! writes only the cells with a non-zero counter or tag.
//!
//! [`stamp_send`]: CausalState::stamp_send

use aaa_base::{DomainServerId, Error, Result};
use serde::{Deserialize, Serialize};

use crate::matrix::MatrixClock;
use crate::stamp::{Entries, PackedEntries, Packer, Stamp, StampMode, UpdateEntry};

/// Whether a send is part of a batch and may collapse to a zero-byte
/// [`Stamp::GroupNext`] continuation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Batching {
    /// A standalone send: always ships a real stamp.
    #[default]
    Single,
    /// Part of a batched flush: the sender may emit [`Stamp::GroupNext`]
    /// when the matrix has not changed since the previous send to the
    /// same peer. Falls back to a real stamp otherwise, so callers may
    /// use this unconditionally on batched paths.
    Grouped,
}

/// A received message's causal stamp, held until the message is delivered.
///
/// It is the link counter `ST[from][me]` plus what the frame carried: the
/// whole matrix for a [`Stamp::Full`] frame, nothing for a
/// [`Stamp::GroupNext`] continuation, and for a delta frame its packed
/// list as decoded ([`PackedEntries::read`]) with the cells of the
/// receiver's column the predicate reads copied out beside it. The
/// [module documentation](self) shows why that decides and merges exactly
/// as the sender's whole matrix would.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub struct PendingStamp {
    counter: u64,
    carried: Carried,
}

/// What a frame carried besides the link counter.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
enum Carried {
    /// A delta frame's list (empty for a continuation), and the cells
    /// `(row, value)` of the receiver's column in it, the sender's link
    /// cell aside: the counter holds that one. `me` is the receiver, whose
    /// column the image puts first; `None` for a list read back from an
    /// image, which is in that order already and has no column copied out
    /// until [`CausalState::adopt_pending`] ties it to its receiver.
    Delta {
        list: PackedEntries,
        me: Option<u16>,
        column: Vec<(u16, u64)>,
    },
    /// A full-matrix frame's matrix.
    Matrix(MatrixClock),
}

impl PendingStamp {
    /// The sender's `SENT[from][me]` as of this frame — the value the FIFO
    /// clause of the delivery predicate compares with `DELIV[from] + 1`.
    pub fn counter(&self) -> u64 {
        self.counter
    }

    /// The entries a delta frame carried, in the order held (empty for a
    /// continuation and for a full-matrix frame).
    pub fn entries(&self) -> Entries<'_> {
        match &self.carried {
            Carried::Delta { list, .. } => list.iter(),
            Carried::Matrix(_) => PackedEntries::none(),
        }
    }

    /// The matrix a [`Stamp::Full`] frame carried; `None` for every other
    /// frame.
    pub fn matrix(&self) -> Option<&MatrixClock> {
        match &self.carried {
            Carried::Delta { .. } => None,
            Carried::Matrix(m) => Some(m),
        }
    }

    /// Appends a self-describing binary image of the pending stamp to
    /// `out` (the postponed queue's persistence form): the counter, a
    /// shape byte, then the entries (`u32` count, then
    /// `row: u16, col: u16, value: u64` each, the receiver's column first)
    /// or the matrix.
    pub fn write_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.counter.to_le_bytes());
        let (list, me) = match &self.carried {
            Carried::Delta { list, me, .. } => (list, *me),
            Carried::Matrix(m) => {
                out.push(1);
                m.write_bytes(out);
                return;
            }
        };
        out.push(0);
        // Saturating `try_from`: an impossible count writes a prefix the
        // reader rejects as truncated.
        let count = u32::try_from(list.len()).unwrap_or(u32::MAX);
        out.extend_from_slice(&count.to_le_bytes());
        let mut entries: Vec<UpdateEntry> = list.iter().collect();
        // The receiver's column to the front, by the swaps the images have
        // always been written in, so the bytes stay the same. A list in
        // image order already is left as it is.
        let mut column = 0usize;
        for i in 0..entries.len() {
            if entries.get(i).is_some_and(|e| Some(e.col) == me) {
                entries.swap(column, i);
                column = column.saturating_add(1);
            }
        }
        for e in entries {
            out.extend_from_slice(&e.row.to_le_bytes());
            out.extend_from_slice(&e.col.to_le_bytes());
            out.extend_from_slice(&e.value.to_le_bytes());
        }
    }

    /// Reads an image written by [`PendingStamp::write_bytes`] from the
    /// front of `input`, returning the stamp and the bytes consumed, or
    /// `None` on truncated or invalid input. The result is not yet known to
    /// fit any domain, nor tied to its receiver's column: pass it through
    /// [`CausalState::adopt_pending`] before it is judged.
    pub fn read_bytes(input: &[u8]) -> Option<(PendingStamp, usize)> {
        let mut at = 0usize;
        let counter = read_u64s(input, &mut at, 1)?[0];
        let carried = match take(input, &mut at, 1)?[0] {
            0 => {
                let count = u32::from_le_bytes(take(input, &mut at, 4)?.try_into().ok()?) as usize;
                // Bound the count by the bytes present before allocating.
                let body = take(input, &mut at, count.checked_mul(UpdateEntry::WIRE_LEN)?)?;
                let entries = body
                    .chunks_exact(UpdateEntry::WIRE_LEN)
                    .map(|c| {
                        Some(UpdateEntry {
                            row: u16::from_le_bytes(c.get(0..2)?.try_into().ok()?),
                            col: u16::from_le_bytes(c.get(2..4)?.try_into().ok()?),
                            value: u64::from_le_bytes(c.get(4..12)?.try_into().ok()?),
                        })
                    })
                    .collect::<Option<Vec<_>>>()?;
                Carried::Delta {
                    list: PackedEntries::new(&entries),
                    me: None,
                    column: Vec::new(),
                }
            }
            1 => {
                let (m, used) = MatrixClock::read_bytes(input.get(at..)?)?;
                at += used;
                Carried::Matrix(m)
            }
            _ => return None,
        };
        Some((PendingStamp { counter, carried }, at))
    }
}

/// An observable snapshot of the protocol-relevant state: the local
/// `SENT` matrix and the per-sender delivery counters.
///
/// Every stamp mode must agree on this projection after every protocol
/// step — it is what "observationally equivalent" means. The `aaa-audit`
/// model checker captures transcripts from each mode and from a
/// lock-stepped [`StampMode::Full`] reference and asserts equality in
/// every reachable interleaving.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct EngineTranscript {
    /// The local `SENT` matrix.
    pub sent: MatrixClock,
    /// Messages delivered here so far, indexed by sender.
    pub deliv: Vec<u64>,
}

/// A tree of maxima over the Appendix-A change tags (`Mat[k,l].state`:
/// per cell of `SENT`, the logical instant of its last change, `0` for
/// never), so "every cell changed since instant `s`" is a descent through
/// the rows that hold one instead of a scan of all `n²` tags.
///
/// The tags themselves sit beside the counters in `SENT`'s rows (a tag is
/// non-zero exactly where its counter is), so a send or a delivery finds
/// a cell and its tag with one lookup, and a changed row's run is packed
/// from the row itself. `maxima[0][r]` is the largest tag of row `r`;
/// `maxima[k][i]` is the maximum of block `i` (`FANOUT` slots) of level
/// `k − 1`, up to a top level of at most `FANOUT` slots. A read visits a
/// block only if it holds a changed row and yields the changed rows in
/// ascending order, so it reads `O(|rows| · FANOUT · depth)` slots —
/// depth `⌈log₆₄ n⌉`, 2 at n = 256 — and the packer then reads the
/// written cells of each changed row. A write stores one slot per level.
/// The maxima are a function of the tags: rebuilt on read, never
/// persisted.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
struct ChangeTree {
    maxima: Vec<Vec<u64>>,
}

/// Slots per block of a [`ChangeTree`] level.
const FANOUT: usize = 64;

impl ChangeTree {
    /// The maxima over the tags of `sent`.
    fn new(sent: &MatrixClock) -> Self {
        let mut below = sent.width();
        let mut tree = ChangeTree {
            maxima: vec![vec![0; below]],
        };
        while below > FANOUT {
            below = below.div_ceil(FANOUT);
            tree.maxima.push(vec![0; below]);
        }
        for row in 0..sent.width() {
            tree.raise(row, sent.latest_change(row));
        }
        tree
    }

    /// Raises the maximum of every block above `row` to at least `tag`,
    /// the instant a cell of `row` was just tagged with.
    fn raise(&mut self, row: usize, tag: u64) {
        let mut slot = row;
        for level in &mut self.maxima {
            level[slot] = level[slot].max(tag);
            slot /= FANOUT;
        }
    }

    /// Calls `f(row)` for every row holding a cell whose tag is greater
    /// than `since`, ascending.
    fn for_each_changed_row(&self, since: u64, mut f: impl FnMut(usize)) {
        self.visit(self.maxima.len() - 1, 0, since, &mut f);
    }

    /// Visits block `block` of level `level`, descending into the slots
    /// that changed since `since`; a changed slot of level 0 is a row.
    fn visit(&self, level: usize, block: usize, since: u64, f: &mut impl FnMut(usize)) {
        let slots = self.maxima[level].iter().enumerate();
        for (slot, &tag) in slots.skip(block.saturating_mul(FANOUT)).take(FANOUT) {
            if tag <= since {
                continue;
            }
            match level.checked_sub(1) {
                Some(below) => self.visit(below, slot, since, f),
                None => f(slot),
            }
        }
    }
}

/// Per-domain causal delivery state of one server.
///
/// See the [module documentation](self) for the protocol. One `CausalState`
/// exists per `DomainItem` on every server; causal router-servers therefore
/// hold several, one per domain they belong to (§5).
///
/// The state is the RST matrix/vector pair, the Appendix-A change-tracking
/// bookkeeping and one link counter per sender.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CausalState {
    me: DomainServerId,
    n: usize,
    mode: StampMode,
    /// `SENT[k][l]`: messages sent from `k` to `l` that this server knows
    /// of, each cell tagged with the value of `state` when it last changed
    /// (`Mat[k,l].state`).
    sent: MatrixClock,
    /// `DELIV[k]`: messages from `k` delivered here.
    deliv: Vec<u64>,
    /// Logical instant counter for change tracking (`State` in
    /// Appendix A).
    state: u64,
    /// The maxima over `SENT`'s change tags, row by row.
    changes: ChangeTree,
    /// Per-peer: value of `state` at the last send to that peer
    /// (`Node[j].state`).
    node_state: Vec<u64>,
    /// Per-sender: that peer's `SENT[peer][me]` as of its latest frame —
    /// the one cell of the sender's matrix a later frame builds on (a
    /// continuation adds one to it). `0` means no frame yet.
    link: Vec<u64>,
}

/// Field by field, `SENT`'s change tags included: the matrix's own `==`
/// reads the counters alone.
impl PartialEq for CausalState {
    fn eq(&self, other: &Self) -> bool {
        let CausalState {
            me,
            n,
            mode,
            sent,
            deliv,
            state,
            changes,
            node_state,
            link,
        } = self;
        (me, n, mode, sent, deliv, state, changes, node_state, link)
            == (
                &other.me,
                &other.n,
                &other.mode,
                &other.sent,
                &other.deliv,
                &other.state,
                &other.changes,
                &other.node_state,
                &other.link,
            )
            && sent.tags_eq(&other.sent)
    }
}

impl Eq for CausalState {}

/// The persistence image's mode byte. Bytes 0, 1 and 3 were the modes of
/// the layout that carried per-sender image matrices, byte 2 the retired
/// `Reduced` mode and byte 6 the retired `Hybrid` mode;
/// [`CausalState::read_bytes`] refuses all five.
fn mode_byte(mode: StampMode) -> u8 {
    match mode {
        StampMode::Full => 4,
        StampMode::Updates => 5,
    }
}

impl CausalState {
    /// Creates the causal state of server `me` in a domain of `n` servers,
    /// stamping in `mode`.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero or `me` is out of range.
    pub fn new(me: DomainServerId, n: usize, mode: StampMode) -> Self {
        assert!(n > 0, "a domain needs at least one server");
        assert!(
            me.as_usize() < n,
            "server id {me} out of range for domain of {n}"
        );
        let sent = MatrixClock::new(n);
        CausalState {
            me,
            n,
            mode,
            changes: ChangeTree::new(&sent),
            sent,
            deliv: vec![0; n],
            state: 0,
            node_state: vec![0; n],
            link: vec![0; n],
        }
    }

    /// This server's identifier within the domain.
    pub fn me(&self) -> DomainServerId {
        self.me
    }

    /// Number of servers in the domain.
    pub fn n(&self) -> usize {
        self.n
    }

    /// The stamp encoding mode.
    pub fn mode(&self) -> StampMode {
        self.mode
    }

    /// The local `SENT` matrix.
    pub fn sent(&self) -> &MatrixClock {
        &self.sent
    }

    /// Messages from `from` delivered here so far.
    pub fn delivered_from(&self, from: DomainServerId) -> u64 {
        self.deliv[from.as_usize()]
    }

    /// Total messages delivered here so far.
    pub fn delivered_total(&self) -> u64 {
        self.deliv.iter().sum()
    }

    /// Captures the protocol-relevant state projection every mode must
    /// agree on: the `SENT` matrix plus the per-sender delivery counters.
    /// Used by the `aaa-audit` model checker for lock-step equivalence
    /// against the [`StampMode::Full`] reference.
    pub fn transcript(&self) -> EngineTranscript {
        EngineTranscript {
            sent: self.sent.clone(),
            deliv: self.deliv.clone(),
        }
    }

    /// The send-side bookkeeping common to every send: advance the logical
    /// instant, count the send, tag the cell, and remember the instant of
    /// this send to `to`. Returns the change horizon (`node_state[to]`
    /// *before* this send) that delta-style stamps read from.
    fn bump_send(&mut self, to: DomainServerId) -> u64 {
        // Saturating throughout the clock core: a saturated counter keeps
        // comparisons monotone (late, never reordered); wrapping breaks
        // the §4.2 delivery predicate.
        self.state = self.state.saturating_add(1);
        let (me, t) = (self.me.as_usize(), to.as_usize());
        self.sent.increment_tagged(me, t, self.state);
        self.changes.raise(me, self.state);
        let since = self.node_state[t];
        self.node_state[t] = self.state;
        since
    }

    /// Packs the entries modified since logical instant `since`, in
    /// row-major order: each changed row the tree yields packs its own
    /// run.
    fn collect_changed(&self, since: u64) -> PackedEntries {
        Packer::pack(|packer| {
            (self.changes).for_each_changed_row(since, |row| {
                self.sent.pack_changed(row, since, packer);
            });
        })
    }

    /// Stamps a message about to be sent to `to` and updates the local
    /// state. Must be called exactly once per message, in send order.
    ///
    /// With [`Batching::Grouped`] the zero-byte [`Stamp::GroupNext`]
    /// continuation is emitted when this send is part of a batch and
    /// nothing else changed since the previous send to the same peer; a
    /// real stamp is emitted otherwise, so batched callers pass `Grouped`
    /// unconditionally.
    ///
    /// # Panics
    ///
    /// Panics if `to` is this server or out of range.
    pub fn stamp_send(&mut self, to: DomainServerId, batching: Batching) -> Stamp {
        assert!(to != self.me, "local deliveries bypass the causal protocol");
        assert!(to.as_usize() < self.n, "destination {to} out of range");
        let (me, t) = (self.me.as_usize(), to.as_usize());
        // A continuation is legal exactly when the matrix has not changed
        // since the previous send to the same peer (no other sends, no
        // deliveries in between): the new stamp then differs from the
        // previous frame's only by `SENT[me][to] += 1`, which the receiver
        // adds to the link counter it keeps for this sender. The guard on
        // `SENT[me][to]` ensures a previous frame to this peer exists, so
        // the receiver has a counter to continue from.
        if batching == Batching::Grouped
            && self.node_state[t] == self.state
            && self.sent.get(me, t) > 0
        {
            self.bump_send(to);
            return Stamp::GroupNext;
        }
        let since = self.bump_send(to);
        match self.mode {
            // The whole matrix: `O(n²)` bytes, nothing to reconstruct.
            // The counters only: the change tags are this server's.
            StampMode::Full => Stamp::Full(self.sent.counters()),
            // Appendix A: every entry modified since the last send to
            // this peer.
            StampMode::Updates => Stamp::Delta(self.collect_changed(since)),
        }
    }

    /// Why `from` is not a sender of this domain, if it is not.
    fn sender_misfit(&self, from: DomainServerId) -> Option<String> {
        (from.as_usize() >= self.n).then(|| format!("sender out of range for domain of {}", self.n))
    }

    /// Why `m` is not a matrix of this domain, if it is not.
    fn width_misfit(&self, m: &MatrixClock) -> Option<String> {
        let (w, n) = (m.width(), self.n);
        (w != n).then(|| format!("matrix width {w}, domain width {n}"))
    }

    /// Why `list` names a cell outside this domain's matrix, if it does:
    /// O(1), the list knows its largest coordinate.
    fn entry_misfit(&self, list: &PackedEntries) -> Option<String> {
        let (w, n) = (list.width(), self.n);
        (w > n).then(|| format!("entry coordinate {} outside domain of {n}", w - 1))
    }

    /// Validates a stamp decoded off the wire against this domain before
    /// it reaches [`CausalState::on_frame`]: the stamp kind matches the
    /// configured mode, a full matrix has the domain's width, every delta
    /// entry addresses a cell inside the matrix, and a
    /// [`Stamp::GroupNext`] continuation has a previous frame from `from`
    /// to continue. O(1) for every kind but a full matrix, whose width it
    /// reads; allocates only to describe a rejection.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Codec`] naming the first violated condition; the
    /// state is untouched.
    pub fn check_stamp(&self, from: DomainServerId, stamp: &Stamp) -> Result<()> {
        let misfit = self
            .sender_misfit(from)
            .or_else(|| match (self.mode, stamp) {
                (_, Stamp::GroupNext) => (self.link[from.as_usize()] == 0)
                    .then(|| "GroupNext continuation with no prior frame".to_owned()),
                (StampMode::Full, Stamp::Full(m)) => self.width_misfit(m),
                (StampMode::Updates, Stamp::Delta(entries)) => self.entry_misfit(entries),
                (mode, other) => Some(format!(
                    "kind {} does not match configured mode {mode}",
                    other.kind()
                )),
            });
        refuse("stamp", from, misfit)
    }

    /// Validates a pending stamp read back from a recovery image against
    /// this domain before it reaches [`CausalState::can_deliver`], and ties
    /// it to this server: the sender is a member, a carried matrix has the
    /// domain's width, every carried entry addresses a cell inside the
    /// matrix — the same conditions [`CausalState::check_stamp`] puts on a
    /// wire stamp — and the entries of this server's column come first, as
    /// the image lays them out; those, the link cell aside, are then copied
    /// out for the predicate, and the stored counter is kept. A pending
    /// [`CausalState::on_frame`] made is already tied: it must have kept
    /// this server's column, and is left as it is.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Codec`] naming the first violated condition.
    pub fn adopt_pending(&self, from: DomainServerId, pending: &mut PendingStamp) -> Result<()> {
        let me = self.me.as_u16();
        let misfit = self.sender_misfit(from).or_else(|| match &pending.carried {
            Carried::Matrix(m) => self.width_misfit(m),
            Carried::Delta { list, me: kept, .. } => {
                self.entry_misfit(list).or_else(|| match kept {
                    Some(col) => {
                        (*col != me).then(|| format!("column {col} kept, not column {me}"))
                    }
                    None => {
                        let mut rest = list.iter().skip_while(|e| e.col == me);
                        rest.any(|e| e.col == me)
                            .then(|| format!("entries of column {me} are not first"))
                    }
                })
            }
        });
        refuse("pending stamp", from, misfit)?;
        if let Carried::Delta {
            list,
            me: kept @ None,
            column,
        } = &mut pending.carried
        {
            let f = from.as_u16();
            *column = (list.iter())
                .take_while(|e| e.col == me)
                .filter(|e| e.row != f)
                .map(|e| (e.row, e.value))
                .collect();
            *kept = Some(me);
        }
        Ok(())
    }

    /// Ingests a frame arriving from `from` (in link order) and returns the
    /// message's pending stamp. Must be called exactly once per frame, in
    /// arrival order — the reliable link layer guarantees FIFO, which the
    /// sparse pendings of the delta modes rely on (see the
    /// [module documentation](self)).
    ///
    /// Stamps that come off the wire must pass
    /// [`CausalState::check_stamp`] first; this function treats a stamp
    /// that does not fit the domain as a caller bug.
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of range, if the stamp kind does not match
    /// the configured [`StampMode`], if a full matrix has the wrong width,
    /// or if a [`Stamp::GroupNext`] arrives with no prior frame from
    /// `from`.
    pub fn on_frame(&mut self, from: DomainServerId, stamp: Stamp) -> PendingStamp {
        let (me, f) = (self.me.as_usize(), from.as_usize());
        assert!(f < self.n, "sender {from} out of range");
        let (counter, carried) = match (self.mode, stamp) {
            // The previous frame's stamp plus one send from `from` to me.
            (_, Stamp::GroupNext) => {
                assert!(
                    self.link[f] > 0,
                    "GroupNext continuation with no prior frame from this sender"
                );
                let carried = Carried::Delta {
                    list: PackedEntries::empty(),
                    me: Some(self.me.as_u16()),
                    column: Vec::new(),
                };
                (self.link[f].saturating_add(1), carried)
            }
            (StampMode::Full, Stamp::Full(m)) => {
                assert_eq!(m.width(), self.n, "stamp width mismatch");
                (m.get(f, me), Carried::Matrix(m))
            }
            (StampMode::Updates, Stamp::Delta(list)) => self.keep_delta(f, list),
            // Wire input is screened by `check_stamp`, so this is a
            // wiring bug in the caller, never a remote peer's doing.
            // audit:allow(panic-freedom)
            (mode, other) => panic!(
                "stamp kind {} does not match configured mode {mode:?}",
                other.kind()
            ),
        };
        self.link[f] = counter;
        PendingStamp { counter, carried }
    }

    /// What the receiver keeps of a delta frame from `f`, in one pass over
    /// its list: the list itself, untouched; a copy of the cells of this
    /// server's column — all the delivery predicate reads, however often
    /// the message is re-examined — but the link cell; and `f`'s link
    /// counter, raised (never lowered) by the link cell if it is there.
    fn keep_delta(&self, f: usize, list: PackedEntries) -> (u64, Carried) {
        let me = self.me.as_u16();
        let (mut counter, mut column) = (self.link[f], Vec::new());
        list.for_each_run(|row, cells| {
            for (col, value) in cells {
                if col != usize::from(me) {
                    continue;
                }
                if row == f {
                    counter = counter.max(value);
                } else {
                    // A checked list's rows fit a `u16`.
                    column.push((u16::try_from(row).unwrap_or(u16::MAX), value));
                }
            }
        });
        let me = Some(me);
        (counter, Carried::Delta { list, me, column })
    }

    /// Returns `true` if a message from `from` with stamp `pending` may be
    /// delivered now without violating causal order (the §4.2 predicate).
    ///
    /// # Panics
    ///
    /// Panics if `from` is out of range.
    pub fn can_deliver(&self, from: DomainServerId, pending: &PendingStamp) -> bool {
        let f = from.as_usize();
        let me = self.me.as_usize();
        assert!(f < self.n, "sender {from} out of range");
        if pending.counter != self.deliv[f].saturating_add(1) {
            return false;
        }
        match &pending.carried {
            Carried::Matrix(m) => (0..self.n).all(|k| k == f || m.get(k, me) <= self.deliv[k]),
            // With the FIFO clause holding, the rest of the column held
            // when the sender's previous frame was delivered. `on_frame`
            // (or `adopt_pending`) copied this frame's part of the column
            // out.
            Carried::Delta { column, .. } => column
                .iter()
                .all(|&(row, value)| value <= self.deliv[usize::from(row)]),
        }
    }

    /// Records delivery of a message from `from` with stamp `pending`:
    /// `DELIV[from] += 1` and `SENT := max(SENT, pending)`, tagging every
    /// raised cell with a fresh logical instant so delta-style stamps ship
    /// it onward.
    ///
    /// # Panics
    ///
    /// Panics if the message is not currently deliverable; call
    /// [`CausalState::can_deliver`] first.
    pub fn deliver(&mut self, from: DomainServerId, pending: &PendingStamp) {
        assert!(
            self.can_deliver(from, pending),
            "delivering a message out of causal order"
        );
        let (me, f) = (self.me.as_usize(), from.as_usize());
        self.deliv[f] = self.deliv[f].saturating_add(1);
        self.state = self.state.saturating_add(1);
        let tag = self.state;
        let (sent, changes) = (&mut self.sent, &mut self.changes);
        match &pending.carried {
            Carried::Matrix(m) => sent.merge_tagged(m, tag, |row| changes.raise(row, tag)),
            Carried::Delta { list, .. } => {
                if sent.raise_tagged(f, me, pending.counter, tag) {
                    changes.raise(f, tag);
                }
                list.for_each_run(|row, cells| {
                    if sent.raise_run(row, cells, tag) {
                        changes.raise(row, tag);
                    }
                });
            }
        }
    }

    /// Appends a self-describing binary image of the whole causal state to
    /// `out`, suitable for crash-recovery journaling: identity, the mode
    /// byte and every bookkeeping field (change tags, per-peer send
    /// instants, per-sender link counters) — so a recovered server resumes its protocol, including a mid-batch
    /// [`Stamp::GroupNext`] group, exactly where it crashed.
    pub fn write_bytes(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.me.as_u16().to_le_bytes());
        // Saturating `try_from`: an impossible width writes a prefix the
        // reader rejects rather than a truncated valid-looking one.
        out.extend_from_slice(&u32::try_from(self.n).unwrap_or(u32::MAX).to_le_bytes());
        out.push(mode_byte(self.mode));
        self.sent.write_bytes(out);
        for v in &self.deliv {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out.extend_from_slice(&self.state.to_le_bytes());
        self.sent.write_tags(out);
        for v in self.node_state.iter().chain(&self.link) {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Reads an image written by [`CausalState::write_bytes`] from the
    /// front of `input`, returning the state and the bytes consumed.
    ///
    /// Returns `None` on truncated or invalid input, including an unknown
    /// or retired mode byte.
    pub fn read_bytes(input: &[u8]) -> Option<(CausalState, usize)> {
        let mut at = 0usize;
        let me = DomainServerId::new(u16::from_le_bytes(
            take(input, &mut at, 2)?.try_into().ok()?,
        ));
        let n = u32::from_le_bytes(take(input, &mut at, 4)?.try_into().ok()?) as usize;
        if n == 0 || me.as_usize() >= n {
            return None;
        }
        let mode = match take(input, &mut at, 1)?[0] {
            4 => StampMode::Full,
            5 => StampMode::Updates,
            _ => return None,
        };
        let (mut sent, used) = MatrixClock::read_bytes(&input[at..])?;
        if sent.width() != n {
            return None;
        }
        at += used;
        let deliv = read_u64s(input, &mut at, n)?;
        let state = read_u64s(input, &mut at, 1)?[0];
        let tag_bytes = take(input, &mut at, n.checked_mul(n)?.checked_mul(8)?)?;
        sent.read_tags(tag_bytes)?;
        let changes = ChangeTree::new(&sent);
        let node_state = read_u64s(input, &mut at, n)?;
        let link = read_u64s(input, &mut at, n)?;
        Some((
            CausalState {
                me,
                n,
                mode,
                sent,
                deliv,
                state,
                changes,
                node_state,
                link,
            },
            at,
        ))
    }
}

/// `Ok` unless `misfit` says why `what` from `from` does not fit the domain.
fn refuse(what: &str, from: DomainServerId, misfit: Option<String>) -> Result<()> {
    match misfit {
        None => Ok(()),
        Some(why) => Err(Error::Codec(format!("{what} from {from}: {why}"))),
    }
}

fn take<'a>(input: &'a [u8], at: &mut usize, n: usize) -> Option<&'a [u8]> {
    let s = input.get(*at..at.checked_add(n)?)?;
    *at += n;
    Some(s)
}

fn read_u64s(input: &[u8], at: &mut usize, count: usize) -> Option<Vec<u64>> {
    let body = take(input, at, count.checked_mul(8)?)?;
    body.chunks_exact(8)
        .map(|c| Some(u64::from_le_bytes(c.try_into().ok()?)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn d(i: u16) -> DomainServerId {
        DomainServerId::new(i)
    }

    fn pair(mode: StampMode) -> (CausalState, CausalState) {
        (
            CausalState::new(d(0), 2, mode),
            CausalState::new(d(1), 2, mode),
        )
    }

    fn single(c: &mut CausalState, to: DomainServerId) -> Stamp {
        c.stamp_send(to, Batching::Single)
    }

    fn grouped(c: &mut CausalState, to: DomainServerId) -> Stamp {
        c.stamp_send(to, Batching::Grouped)
    }

    #[test]
    fn simple_send_deliver_full() {
        let (mut a, mut b) = pair(StampMode::Full);
        let s = single(&mut a, d(1));
        let p = b.on_frame(d(0), s);
        assert!(b.can_deliver(d(0), &p));
        b.deliver(d(0), &p);
        assert_eq!(b.delivered_from(d(0)), 1);
        assert_eq!(b.sent().get(0, 1), 1);
    }

    #[test]
    fn simple_send_deliver_updates() {
        let (mut a, mut b) = pair(StampMode::Updates);
        let s = single(&mut a, d(1));
        assert!(s.is_delta());
        let p = b.on_frame(d(0), s);
        assert!(b.can_deliver(d(0), &p));
        b.deliver(d(0), &p);
        assert_eq!(b.delivered_from(d(0)), 1);
    }

    #[test]
    fn simple_send_deliver_every_mode() {
        for mode in StampMode::ALL {
            let (mut a, mut b) = pair(mode);
            let s = single(&mut a, d(1));
            assert!(!s.is_group_next(), "{mode}");
            let p = b.on_frame(d(0), s);
            assert!(b.can_deliver(d(0), &p), "{mode}");
            b.deliver(d(0), &p);
            assert_eq!(b.delivered_from(d(0)), 1, "{mode}");
            assert_eq!(b.mode(), mode);
        }
    }

    #[test]
    fn fifo_gap_is_postponed() {
        // a sends m1 then m2 to b; if m2's stamp is examined first it must
        // not be deliverable (its SENT[a][b] is 2, b expects 1).
        let (mut a, mut b) = pair(StampMode::Full);
        let s1 = single(&mut a, d(1));
        let s2 = single(&mut a, d(1));
        // Frames still arrive in FIFO order (on_frame), but the channel may
        // test deliverability in any order.
        let p1 = b.on_frame(d(0), s1);
        let p2 = b.on_frame(d(0), s2);
        assert!(!b.can_deliver(d(0), &p2));
        assert!(b.can_deliver(d(0), &p1));
        b.deliver(d(0), &p1);
        assert!(b.can_deliver(d(0), &p2));
        b.deliver(d(0), &p2);
    }

    #[test]
    fn transitive_three_servers() {
        // Classic triangle, in every mode: m_a: s0->s2 sent first,
        // m_b: s0->s1, then s1->s2. s2 must deliver m_a before m2 because
        // m_a precedes m_b (same sender order) and m_b precedes m2
        // (receive-then-send).
        for mode in StampMode::ALL {
            let mut s0 = CausalState::new(d(0), 3, mode);
            let mut s1 = CausalState::new(d(1), 3, mode);
            let mut s2 = CausalState::new(d(2), 3, mode);

            let st_a = single(&mut s0, d(2)); // m_a
            let st_b = single(&mut s0, d(1)); // m_b
            let p_b = s1.on_frame(d(0), st_b);
            assert!(s1.can_deliver(d(0), &p_b), "{mode}");
            s1.deliver(d(0), &p_b);
            let st_2 = single(&mut s1, d(2)); // m2, causally after m_a

            // m2 arrives at s2 before m_a: must wait.
            let p_2 = s2.on_frame(d(1), st_2);
            assert!(!s2.can_deliver(d(1), &p_2), "{mode}");
            let p_a = s2.on_frame(d(0), st_a);
            assert!(s2.can_deliver(d(0), &p_a), "{mode}");
            s2.deliver(d(0), &p_a);
            assert!(s2.can_deliver(d(1), &p_2), "{mode}");
            s2.deliver(d(1), &p_2);
            assert_eq!(s2.delivered_total(), 2, "{mode}");
        }
    }

    #[test]
    fn first_delta_carries_everything_later_deltas_shrink() {
        let mut a = CausalState::new(d(0), 4, StampMode::Updates);
        let s1 = single(&mut a, d(1));
        // First message to d1: one entry modified so far.
        assert_eq!(s1.entry_count(), 1);
        let s2 = single(&mut a, d(1));
        // Second message: only the (0,1) cell changed again.
        assert_eq!(s2.entry_count(), 1);
        // Send to a different peer: both prior modifications are news to d2.
        let s3 = single(&mut a, d(2));
        assert_eq!(s3.entry_count(), 2);
        // Now d1 already knows everything except the newest cells.
        let s4 = single(&mut a, d(1));
        // Changed since last send to d1: (0,2) from s3 and (0,1) from s4.
        assert_eq!(s4.entry_count(), 2);
    }

    #[test]
    fn delta_smaller_than_full_matrix() {
        let n = 20;
        let mut a = CausalState::new(d(0), n, StampMode::Updates);
        let mut b = CausalState::new(d(1), n, StampMode::Updates);
        let mut total_delta = 0usize;
        for _ in 0..50 {
            let s = single(&mut a, d(1));
            total_delta += s.encoded_len();
            let p = b.on_frame(d(0), s);
            b.deliver(d(0), &p);
        }
        let full = Stamp::Full(MatrixClock::new(n)).encoded_len() * 50;
        assert!(
            total_delta < full / 10,
            "deltas ({total_delta}B) should be far below full stamps ({full}B)"
        );
    }

    #[test]
    #[should_panic(expected = "bypass the causal protocol")]
    fn self_send_rejected() {
        let mut a = CausalState::new(d(0), 2, StampMode::Full);
        let _ = a.stamp_send(d(0), Batching::Single);
    }

    #[test]
    #[should_panic(expected = "out of causal order")]
    fn deliver_out_of_order_panics() {
        let (mut a, mut b) = pair(StampMode::Full);
        let _s1 = single(&mut a, d(1));
        let s2 = single(&mut a, d(1));
        let p2 = b.on_frame(d(0), s2);
        b.deliver(d(0), &p2);
    }

    #[test]
    #[should_panic(expected = "does not match configured mode")]
    fn mode_mismatch_panics() {
        let (mut a, mut b) = pair(StampMode::Full);
        let _ = single(&mut a, d(1));
        let bogus = Stamp::Delta(PackedEntries::empty());
        let _ = b.on_frame(d(0), bogus);
    }

    #[test]
    fn deprecated_batched_alias_still_groups() {
        let mut a = CausalState::new(d(0), 2, StampMode::Updates);
        #[allow(deprecated)]
        let first = a.stamp_send(d(1), Batching::Grouped);
        assert!(!first.is_group_next());
        #[allow(deprecated)]
        let second = a.stamp_send(d(1), Batching::Grouped);
        assert!(second.is_group_next());
    }

    #[test]
    fn causal_state_bytes_roundtrip() {
        // Build a state with non-trivial bookkeeping in every mode,
        // persist it, and check the recovered state behaves identically.
        for mode in StampMode::ALL {
            let mut a = CausalState::new(d(0), 3, mode);
            let mut b = CausalState::new(d(1), 3, mode);
            for _ in 0..3 {
                let s = single(&mut a, d(1));
                let p = b.on_frame(d(0), s);
                b.deliver(d(0), &p);
            }
            let _ = single(&mut a, d(2)); // leaves an in-flight stamp

            let mut buf = Vec::new();
            b.write_bytes(&mut buf);
            let (b2, used) = CausalState::read_bytes(&buf).expect("roundtrip");
            assert_eq!(used, buf.len(), "{mode}");
            assert_eq!(b2, b, "{mode}: persisted state must round-trip");

            // The recovered state keeps working: a's next stamp must still
            // continue from b2's persisted link counter for a.
            let mut b2 = b2;
            let s = single(&mut a, d(1));
            let p = b2.on_frame(d(0), s);
            assert!(b2.can_deliver(d(0), &p), "{mode}");
            b2.deliver(d(0), &p);
            assert_eq!(b2.delivered_from(d(0)), 4, "{mode}");
        }
    }

    #[test]
    fn causal_state_read_rejects_garbage() {
        assert!(CausalState::read_bytes(&[]).is_none());
        assert!(CausalState::read_bytes(&[1, 2, 3]).is_none());
        for mode in StampMode::ALL {
            let mut buf = Vec::new();
            CausalState::new(d(0), 2, mode).write_bytes(&mut buf);
            buf.truncate(buf.len() - 1);
            assert!(CausalState::read_bytes(&buf).is_none(), "{mode}");
        }
        // An unknown mode byte (offset 6: me u16 + n u32) must be rejected.
        let mut buf = Vec::new();
        CausalState::new(d(0), 2, StampMode::Full).write_bytes(&mut buf);
        buf[6] = 9;
        assert!(CausalState::read_bytes(&buf).is_none());
    }

    #[test]
    fn changed_cells_are_read_as_a_tag_scan_would_read_them() {
        // Wide enough for two levels of maxima (70 rows, then 2 blocks),
        // with skewed traffic that re-tags a few cells over and over and
        // leaves most rows untouched.
        let n = 70;
        let mut a = CausalState::new(d(0), n, StampMode::Updates);
        let mut b = CausalState::new(d(1), n, StampMode::Updates);
        assert_eq!(a.changes.maxima.len(), 2);
        for round in 0..300usize {
            let to = if round % 7 == 0 { 2 + round % 60 } else { 1 };
            let s = single(&mut a, d(to as u16));
            if to == 1 {
                let p = b.on_frame(d(0), s);
                b.deliver(d(0), &p);
                let r = single(&mut b, d(0));
                let pr = a.on_frame(d(1), r);
                a.deliver(d(1), &pr);
            }
            for c in [&a, &b] {
                let t = &c.changes;
                assert_eq!(t, &ChangeTree::new(&c.sent), "round {round}");
                let mut image = Vec::new();
                c.sent.write_tags(&mut image);
                let tags: Vec<u64> = image
                    .chunks_exact(8)
                    .map(|b| u64::from_le_bytes(b.try_into().unwrap()))
                    .collect();
                let value = |i: usize| c.sent.get(i / n, i % n);
                // A tag is non-zero exactly where its counter is.
                assert!((0..n * n).all(|i| (tags[i] == 0) == (value(i) == 0)));
                for since in [0, c.state / 2, c.state.saturating_sub(1), c.state] {
                    let read: Vec<(usize, u64)> = (c.collect_changed(since).iter())
                        .map(|e| (usize::from(e.row) * n + usize::from(e.col), e.value))
                        .collect();
                    let scan: Vec<(usize, u64)> = (0..n * n)
                        .filter(|&i| tags[i] > since)
                        .map(|i| (i, value(i)))
                        .collect();
                    assert_eq!(read, scan, "round {round}, since {since}");
                }
            }
        }
    }

    #[test]
    fn pending_stamp_bytes_roundtrip_and_reject_garbage() {
        for mode in StampMode::ALL {
            let mut a = CausalState::new(d(0), 3, mode);
            let mut b = CausalState::new(d(1), 3, mode);
            let _ = single(&mut a, d(2));
            // A real stamp, then a continuation.
            for _ in 0..2 {
                let p = b.on_frame(d(0), grouped(&mut a, d(1)));
                let mut buf = Vec::new();
                p.write_bytes(&mut buf);
                let (mut back, used) = PendingStamp::read_bytes(&buf).expect("roundtrip");
                b.adopt_pending(d(0), &mut back).expect("fits");
                assert_eq!((back, used), (p.clone(), buf.len()), "{mode}");
                for cut in 0..buf.len() {
                    assert!(PendingStamp::read_bytes(&buf[..cut]).is_none(), "{mode}");
                }
                buf[8] = 7; // the shape byte follows the counter
                assert!(PendingStamp::read_bytes(&buf).is_none(), "{mode}");
                b.deliver(d(0), &p);
            }
        }
        // An entry count far beyond the bytes present is refused before
        // anything is allocated for it.
        let mut huge = vec![0u8; 9];
        huge.extend_from_slice(&u32::MAX.to_le_bytes());
        assert!(PendingStamp::read_bytes(&huge).is_none());
    }

    #[test]
    fn the_image_puts_the_column_first_by_the_same_swaps() {
        // Receiver 1 of a 3-wide domain, a frame from 0 whose two cells of
        // column 1 come second and last: the image moves them to the
        // front by two swaps, as images always have.
        let entry = |row, col, value| UpdateEntry { row, col, value };
        let list = [
            entry(0, 0, 5),
            entry(0, 1, 1),
            entry(0, 2, 1),
            entry(2, 0, 3),
            entry(2, 1, 4),
        ];
        let mut b = CausalState::new(d(1), 3, StampMode::Updates);
        let p = b.on_frame(d(0), Stamp::Delta(PackedEntries::new(&list)));
        let mut image = Vec::new();
        p.write_bytes(&mut image);
        let mut want = 1u64.to_le_bytes().to_vec();
        want.push(0);
        want.extend_from_slice(&5u32.to_le_bytes());
        for e in [list[1], list[4], list[2], list[3], list[0]] {
            want.extend_from_slice(&e.row.to_le_bytes());
            want.extend_from_slice(&e.col.to_le_bytes());
            want.extend_from_slice(&e.value.to_le_bytes());
        }
        assert_eq!(image, want);
        // Read back, the list is in image order; adopted, it judges as
        // the pending that wrote it, and writes the same image again.
        let (mut back, used) = PendingStamp::read_bytes(&image).unwrap();
        assert_eq!(used, image.len());
        b.adopt_pending(d(0), &mut back).unwrap();
        assert_eq!(back.counter(), p.counter());
        let mut again = Vec::new();
        back.write_bytes(&mut again);
        assert_eq!(again, image);
        for deliv in [3, 4] {
            b.deliv[2] = deliv;
            assert_eq!(b.can_deliver(d(0), &back), deliv == 4);
            assert_eq!(b.can_deliver(d(0), &p), deliv == 4);
        }
        // A pending kept for another server's column does not fit here.
        let other = CausalState::new(d(2), 3, StampMode::Updates);
        assert!(other.adopt_pending(d(0), &mut p.clone()).is_err());
    }

    #[test]
    fn adopt_pending_rejects_what_does_not_fit_the_domain() {
        let entry = |row, col| UpdateEntry { row, col, value: 1 };
        let sparse = |entries: Vec<UpdateEntry>| PendingStamp {
            counter: 1,
            carried: Carried::Delta {
                list: PackedEntries::new(&entries),
                me: None,
                column: Vec::new(),
            },
        };
        let dense = |w| PendingStamp {
            counter: 1,
            carried: Carried::Matrix(MatrixClock::new(w)),
        };
        for mode in StampMode::ALL {
            let b = CausalState::new(d(1), 4, mode);
            b.adopt_pending(d(0), &mut sparse(vec![entry(3, 3)]))
                .unwrap();
            let mut led = sparse(vec![entry(2, 1), entry(0, 1), entry(0, 2)]);
            b.adopt_pending(d(0), &mut led).unwrap();
            let column = match &led.carried {
                Carried::Delta { column, .. } => column.clone(),
                Carried::Matrix(_) => Vec::new(),
            };
            assert_eq!(column, [(2, 1)], "the link cell stays in the counter");
            b.adopt_pending(d(0), &mut dense(4)).unwrap();
            for (from, mut bad) in [
                (d(4), sparse(Vec::new())),
                (d(0), sparse(vec![entry(0, 1), entry(4, 0)])),
                (d(0), sparse(vec![entry(0, u16::MAX)])),
                // Column 1 is this server's: its entries must lead.
                (d(0), sparse(vec![entry(0, 2), entry(0, 1)])),
                (d(0), dense(3)),
                (d(0), dense(5)),
            ] {
                let err = b.adopt_pending(from, &mut bad).expect_err("misfit pending");
                assert!(matches!(err, Error::Codec(_)), "{mode}: {err}");
            }
        }
    }

    /// Delivers at server 1 of a 4-wide domain, unchecked, a frame from 0
    /// that names cell `(2, 4)`, past the matrix: what `check_stamp`
    /// refuses off the wire. With `fill`, row 2 of the receiver's `SENT`
    /// is filled by an earlier frame first.
    fn merge_a_column_past_the_row(fill: bool) {
        let entry = |row, col, value| UpdateEntry { row, col, value };
        let mut b = CausalState::new(d(1), 4, StampMode::Updates);
        let mut link = 0;
        if fill {
            link += 1;
            let cells = [
                entry(0, 1, link),
                entry(2, 0, 1),
                entry(2, 2, 1),
                entry(2, 3, 1),
            ];
            let p = b.on_frame(d(0), Stamp::Delta(PackedEntries::new(&cells)));
            b.deliver(d(0), &p);
        }
        let past = [entry(0, 1, link + 1), entry(2, 4, 1)];
        let p = b.on_frame(d(0), Stamp::Delta(PackedEntries::new(&past)));
        b.deliver(d(0), &p);
    }

    // A merged run's columns are checked in release builds too: a listed
    // row asserts the range, a filled row indexes its slice of `n` cells.
    #[test]
    #[should_panic(expected = "matrix index out of range")]
    fn merging_a_column_past_a_listed_row_panics() {
        merge_a_column_past_the_row(false);
    }

    #[test]
    #[should_panic(expected = "index out of bounds")]
    fn merging_a_column_past_a_filled_row_panics() {
        merge_a_column_past_the_row(true);
    }

    #[test]
    fn values_moved_per_message_keep_their_size() {
        // Every frame moves a `Stamp` and every postponed message holds a
        // `PendingStamp`: growth here shows up as a timing drift on every
        // workload, so it fails here first.
        use std::mem::size_of;
        assert_eq!(size_of::<MatrixClock>(), 16);
        assert!(size_of::<Stamp>() <= 48, "Stamp {} B", size_of::<Stamp>());
        let pending = size_of::<PendingStamp>();
        assert!(pending <= 88, "PendingStamp {pending} B");
    }

    #[test]
    fn singleton_domain_is_valid_but_inert() {
        let s = CausalState::new(d(0), 1, StampMode::Full);
        assert_eq!(s.n(), 1);
        assert_eq!(s.delivered_total(), 0);
    }

    #[test]
    fn batched_first_send_is_never_a_continuation() {
        for mode in StampMode::ALL {
            let mut a = CausalState::new(d(0), 3, mode);
            let s = grouped(&mut a, d(1));
            assert!(
                !s.is_group_next(),
                "{mode}: first frame must carry a real stamp"
            );
        }
    }

    #[test]
    fn batched_burst_collapses_to_continuations() {
        for mode in StampMode::ALL {
            let mut a = CausalState::new(d(0), 3, mode);
            let mut b = CausalState::new(d(1), 3, mode);
            let mut wire_bytes = 0usize;
            for i in 0..32 {
                let s = grouped(&mut a, d(1));
                assert_eq!(s.is_group_next(), i > 0, "mode {mode}, frame {i}");
                wire_bytes += s.encoded_len();
                let p = b.on_frame(d(0), s);
                assert!(b.can_deliver(d(0), &p));
                b.deliver(d(0), &p);
            }
            assert_eq!(b.delivered_from(d(0)), 32);
            assert_eq!(b.sent().get(0, 1), 32);
            // Only the first frame pays stamp bytes.
            let first = match mode {
                StampMode::Full => Stamp::Full(MatrixClock::new(3)).encoded_len(),
                // The one link cell, packed: count, row, run length,
                // column, value.
                StampMode::Updates => UpdateEntry::packed_len(&[UpdateEntry {
                    row: 0,
                    col: 1,
                    value: 1,
                }]),
            };
            assert_eq!(wire_bytes, first, "{mode}");
        }
    }

    #[test]
    fn continuation_reconstructs_exact_stamp() {
        // Drive an identical schedule through Single (reference) and
        // Grouped batching, and check the link counters and the merged
        // matrices agree.
        for mode in StampMode::ALL {
            let mut a_ref = CausalState::new(d(0), 2, mode);
            let mut b_ref = CausalState::new(d(1), 2, mode);
            let mut a = CausalState::new(d(0), 2, mode);
            let mut b = CausalState::new(d(1), 2, mode);
            for _ in 0..5 {
                let sr = single(&mut a_ref, d(1));
                let pr = b_ref.on_frame(d(0), sr);
                let s = grouped(&mut a, d(1));
                let p = b.on_frame(d(0), s);
                assert_eq!(p.counter(), pr.counter(), "{mode}");
                assert!(b.can_deliver(d(0), &p) && b_ref.can_deliver(d(0), &pr));
                b_ref.deliver(d(0), &pr);
                b.deliver(d(0), &p);
            }
            assert_eq!(b.sent(), b_ref.sent(), "{mode}");
        }
    }

    #[test]
    fn intervening_traffic_breaks_the_group() {
        for mode in StampMode::ALL {
            let mut a = CausalState::new(d(0), 3, mode);
            let mut b = CausalState::new(d(1), 3, mode);
            let s1 = grouped(&mut a, d(1));
            assert!(!s1.is_group_next(), "{mode}");
            let s2 = grouped(&mut a, d(1));
            assert!(s2.is_group_next(), "{mode}");
            // A send to another peer changes the matrix: the next frame to
            // d1 must fall back to a real stamp that conveys it.
            let _ = grouped(&mut a, d(2));
            let s3 = grouped(&mut a, d(1));
            assert!(!s3.is_group_next(), "{mode}");
            for s in [s1, s2, s3] {
                let p = b.on_frame(d(0), s);
                assert!(b.can_deliver(d(0), &p), "{mode}");
                b.deliver(d(0), &p);
            }
            assert_eq!(b.sent().get(0, 1), 3, "{mode}");
            assert_eq!(b.sent().get(0, 2), 1, "{mode}");
        }
    }

    #[test]
    fn delivery_breaks_the_group() {
        for mode in StampMode::ALL {
            let (mut a, mut b) = pair(mode);
            let s1 = grouped(&mut a, d(1));
            let p1 = b.on_frame(d(0), s1);
            b.deliver(d(0), &p1);
            // b replies; a delivers — a's matrix changed, so a's next frame
            // to b must be a real stamp again.
            let r = grouped(&mut b, d(0));
            let pr = a.on_frame(d(1), r);
            a.deliver(d(1), &pr);
            let s2 = grouped(&mut a, d(1));
            assert!(!s2.is_group_next(), "{mode}");
            let p2 = b.on_frame(d(0), s2);
            assert!(b.can_deliver(d(0), &p2), "{mode}");
            b.deliver(d(0), &p2);
        }
    }

    #[test]
    fn link_counters_survive_persistence_mid_group() {
        // A receiver's per-sender link counter (what GroupNext adds one
        // to) must round-trip through write_bytes/read_bytes mid-group,
        // whatever the mode.
        for mode in StampMode::ALL {
            let mut a = CausalState::new(d(0), 2, mode);
            let mut b = CausalState::new(d(1), 2, mode);
            let s1 = grouped(&mut a, d(1));
            let p1 = b.on_frame(d(0), s1);
            b.deliver(d(0), &p1);

            let mut buf = Vec::new();
            b.write_bytes(&mut buf);
            let (mut b2, used) = CausalState::read_bytes(&buf).expect("roundtrip");
            assert_eq!(used, buf.len(), "{mode}");

            let s2 = grouped(&mut a, d(1));
            assert!(s2.is_group_next(), "{mode}");
            let p2 = b2.on_frame(d(0), s2);
            assert!(b2.can_deliver(d(0), &p2), "{mode}");
            b2.deliver(d(0), &p2);
            assert_eq!(b2.delivered_from(d(0)), 2, "{mode}");
        }
    }

    #[test]
    #[should_panic(expected = "no prior frame")]
    fn continuation_without_predecessor_panics() {
        let mut b = CausalState::new(d(1), 2, StampMode::Full);
        let _ = b.on_frame(d(0), Stamp::GroupNext);
    }

    #[test]
    fn every_engine_supports_group_continuations() {
        for mode in StampMode::ALL {
            let mut a = CausalState::new(d(0), 3, mode);
            let mut b = CausalState::new(d(1), 3, mode);
            let first = a.stamp_send(d(1), Batching::Grouped);
            assert!(!first.is_group_next(), "{mode}: first frame needs a stamp");
            let second = a.stamp_send(d(1), Batching::Grouped);
            assert!(second.is_group_next(), "{mode}: burst must collapse");
            for s in [first, second] {
                let p = b.on_frame(d(0), s);
                assert!(b.can_deliver(d(0), &p));
                b.deliver(d(0), &p);
            }
            assert_eq!(b.delivered_from(d(0)), 2, "{mode}");
        }
    }

    /// Every way a decoded stamp can fail to fit a 4-wide domain with no
    /// frame received yet: a continuation with nothing to continue, the
    /// other mode's kind, the wrong width, coordinates outside the matrix.
    fn malformed_stamps(mode: StampMode) -> Vec<Stamp> {
        let entry = |row, col| UpdateEntry { row, col, value: 1 };
        match mode {
            StampMode::Full => vec![
                Stamp::GroupNext,
                Stamp::Delta(PackedEntries::empty()),
                Stamp::Full(MatrixClock::new(5)),
            ],
            StampMode::Updates => vec![
                Stamp::GroupNext,
                Stamp::Full(MatrixClock::new(4)),
                Stamp::Delta(PackedEntries::new(&[entry(0, 5)])),
                Stamp::Delta(PackedEntries::new(&[entry(0, 1), entry(4, 0)])),
                Stamp::Delta(PackedEntries::new(&[entry(u16::MAX, 0)])),
            ],
        }
    }

    #[test]
    fn check_stamp_rejects_what_does_not_fit_the_domain() {
        for mode in StampMode::ALL {
            let b = CausalState::new(d(1), 4, mode);
            for stamp in malformed_stamps(mode) {
                let err = b.check_stamp(d(0), &stamp).expect_err("malformed stamp");
                assert!(matches!(err, Error::Codec(_)), "{mode}: {err}");
            }
            let err = b.check_stamp(d(4), &Stamp::GroupNext).unwrap_err();
            assert!(err.to_string().contains("sender out of range"), "{err}");
        }
    }

    #[test]
    fn check_stamp_accepts_every_stamp_a_peer_emits() {
        for mode in StampMode::ALL {
            let mut a = CausalState::new(d(0), 4, mode);
            let mut b = CausalState::new(d(1), 4, mode);
            for _ in 0..3 {
                let s = grouped(&mut a, d(1));
                b.check_stamp(d(0), &s).expect("a peer's stamp fits");
                let p = b.on_frame(d(0), s);
                b.deliver(d(0), &p);
            }
        }
    }
}
