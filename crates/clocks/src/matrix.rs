//! The matrix clock data structure.
//!
//! A matrix clock over `n` processes is an `n × n` array of counters. In the
//! AAA channel, cell `(k, l)` of server `i`'s matrix counts the messages
//! sent from `k` to `l` *that `i` knows about* — the "what A knows about
//! what B knows about C" shared knowledge of the paper's introduction. The
//! per-message control information is `O(n²)` in the worst case, which is
//! precisely the scalability problem the domain decomposition attacks.
//!
//! The *resident* state need not be `n²`: a server's matrix is mostly the
//! zeros of links it never heard of, so [`MatrixClock`] keeps each row as
//! the list of its written cells until the row fills (see its
//! [storage notes](MatrixClock#storage)) and costs what its traffic wrote.

use std::fmt;

use serde::{Deserialize, Serialize};

use crate::rows::{Cell, Lane, Rows};
use crate::stamp::{Cells, Packer};

/// A square matrix of message counters.
///
/// Cells are addressed `(row, col)` = `(sender, receiver)`. All cells start
/// at zero and only ever grow; merging two matrices takes the cell-wise
/// maximum, making the set of matrices of a given width a join-semilattice.
///
/// # Storage
///
/// Each row takes the form its own fill calls for. A row holds a list of
/// its written cells, sorted by column, while one more entry would still
/// cost less than the whole row and the list stays within 8 entries; past
/// that it is its `n` cells, side by side, in an arena the matrix's dense
/// rows share. A cell never written reads as zero, so on ring traffic,
/// which writes a cell or two per row, a matrix costs a 16-byte header
/// and a short list per row, not `n² × 8` bytes, and a matrix whose rows
/// all fill is one array reached row by row. Each cell holds its counter
/// beside the logical instant of its last change, which the causal
/// protocol's `SENT` matrix keeps for its delta stamps and every other
/// matrix leaves at zero. The storage sits behind one pointer, so a
/// `MatrixClock` is 16 bytes, and a `Stamp`, which can hold one, 48.
///
/// Equality, ordering and hashing are on the counters (ordering is
/// lexicographic, row-major, as for a dense array), whatever form each row
/// takes; whole-matrix walks
/// ([`merge_max`](MatrixClock::merge_max),
/// [`dominated_by`](MatrixClock::dominated_by),
/// [`iter_nonzero`](MatrixClock::iter_nonzero), the counts) read only the
/// written cells. The byte image ([`write_bytes`](MatrixClock::write_bytes))
/// is still dense.
///
/// # Examples
///
/// ```
/// use aaa_clocks::MatrixClock;
///
/// let mut m = MatrixClock::new(3);
/// m.increment(0, 1);
/// assert_eq!(m.get(0, 1), 1);
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MatrixClock {
    n: usize,
    cells: Box<Rows>,
}

impl MatrixClock {
    /// Creates an all-zero `n × n` matrix clock.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a matrix clock needs at least one process");
        MatrixClock {
            n,
            cells: Box::new(Rows::new(n)),
        }
    }

    /// Width of the matrix (number of processes in the domain).
    pub fn width(&self) -> usize {
        self.n
    }

    /// Cell `(row, col)`, checked in every build: a column past the row
    /// would read another row's cell.
    #[inline]
    fn idx(&self, row: usize, col: usize) -> (usize, usize) {
        assert!(row.max(col) < self.n, "matrix index out of range");
        (row, col)
    }

    /// The value of cell `(row, col)`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    #[inline]
    pub fn get(&self, row: usize, col: usize) -> u64 {
        self.cells[self.idx(row, col)]
    }

    /// Sets cell `(row, col)` to `value`.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    #[inline]
    pub fn set(&mut self, row: usize, col: usize, value: u64) {
        let i = self.idx(row, col);
        // Storing zero in a cell never written would write it for nothing.
        if value != 0 || self.cells[i] != 0 {
            self.cells[i] = value;
        }
    }

    /// Raises cell `(row, col)` to `value` if `value` is larger, returning
    /// `true` if the cell changed.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    #[inline]
    pub fn raise(&mut self, row: usize, col: usize, value: u64) -> bool {
        let (row, col) = self.idx(row, col);
        self.cells.raise(row, col, value, None)
    }

    /// [`MatrixClock::raise`], tagging the cell with instant `tag` if it
    /// grew.
    #[inline]
    pub(crate) fn raise_tagged(&mut self, row: usize, col: usize, value: u64, tag: u64) -> bool {
        let (row, col) = self.idx(row, col);
        self.cells.raise(row, col, value, Some(tag))
    }

    /// Increments cell `(row, col)`, returning the new value.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    #[inline]
    pub fn increment(&mut self, row: usize, col: usize) -> u64 {
        let i = self.idx(row, col);
        // Saturating: a saturated SENT cell postpones future deliveries
        // (safe) instead of wrapping and reordering them (unsafe).
        self.cells[i] = self.cells[i].saturating_add(1);
        self.cells[i]
    }

    /// [`MatrixClock::increment`], tagging the cell with instant `tag`.
    #[inline]
    pub(crate) fn increment_tagged(&mut self, row: usize, col: usize, tag: u64) {
        let (row, col) = self.idx(row, col);
        let cell = self.cells.cell_mut(row, col);
        *cell = Cell {
            value: cell.value.saturating_add(1),
            tag,
        };
    }

    /// Raises row `row` by one run of a delta, tagging every cell that
    /// grows with `tag`; returns whether one did.
    ///
    /// # Panics
    ///
    /// Panics if `row` or a column is out of range.
    #[inline]
    pub(crate) fn raise_run(&mut self, row: usize, cells: &mut Cells<'_>, tag: u64) -> bool {
        assert!(row < self.n, "matrix index out of range");
        self.cells.raise_run(row, cells, tag)
    }

    /// Packs, as one run, the cells of row `row` whose change instant is
    /// above `since`, by ascending column. Reads only the row's written
    /// cells.
    #[inline]
    pub(crate) fn pack_changed(&self, row: usize, since: u64, packer: &mut Packer) {
        self.cells.pack_changed(row, since, packer);
    }

    /// The latest change instant of row `row`: `0` if none was tagged.
    pub(crate) fn latest_change(&self, row: usize) -> u64 {
        self.cells.latest_change(row)
    }

    /// Appends the change instants, row-major and dense, as little-endian
    /// `u64`s: the tag section of a `CausalState` image.
    pub(crate) fn write_tags(&self, out: &mut Vec<u8>) {
        self.cells.write_le(Lane::Tags, out);
    }

    /// Reads change instants written by [`MatrixClock::write_tags`]: `bytes`
    /// holds exactly `n² × 8` of them.
    pub(crate) fn read_tags(&mut self, bytes: &[u8]) -> Option<()> {
        self.cells.read_le(Lane::Tags, bytes)
    }

    /// Whether every cell carries the same change instant as in `other`.
    pub(crate) fn tags_eq(&self, other: &MatrixClock) -> bool {
        self.cells.lane_eq(Lane::Tags, &other.cells)
    }

    /// A copy of the counters, every change instant zero: what a receiver
    /// decodes from a `Full` stamp, and all it reads of one.
    pub(crate) fn counters(&self) -> MatrixClock {
        MatrixClock {
            n: self.n,
            cells: Box::new(self.cells.counters()),
        }
    }

    /// Cell-wise maximum with `other`; calls `changed` for every cell that
    /// grew, with `(row, col, new_value)`, in row-major order.
    ///
    /// Exposing the changed cells lets the Updates optimization re-tag them
    /// with a fresh logical state without a second scan. Only `other`'s
    /// written cells are read.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn merge_max(&mut self, other: &MatrixClock, changed: impl FnMut(usize, usize, u64)) {
        self.merge(other, None, changed);
    }

    /// [`MatrixClock::merge_max`], tagging every cell that grew with
    /// instant `tag` and reporting it by its row.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub(crate) fn merge_tagged(
        &mut self,
        other: &MatrixClock,
        tag: u64,
        mut changed: impl FnMut(usize),
    ) {
        self.merge(other, Some(tag), |row, _, _| changed(row));
    }

    /// The cell-wise maximum, tagging the grown cells if `tag` is given.
    fn merge(
        &mut self,
        other: &MatrixClock,
        tag: Option<u64>,
        mut changed: impl FnMut(usize, usize, u64),
    ) {
        assert_eq!(
            self.n, other.n,
            "cannot merge matrix clocks of different widths"
        );
        for (row, col, value) in other.cells.nonzero() {
            if self.cells.raise(row, col, value, tag) {
                changed(row, col, value);
            }
        }
    }

    /// Returns `true` if every cell of `self` is `<=` the matching cell of
    /// `other`. Only `self`'s written cells are read.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn dominated_by(&self, other: &MatrixClock) -> bool {
        assert_eq!(self.n, other.n);
        (self.cells.nonzero()).all(|(row, col, v)| v <= other.cells[(row, col)])
    }

    /// Iterates over the non-zero cells as `(row, col, value)`, in
    /// row-major order.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (usize, usize, u64)> + '_ {
        self.cells.nonzero()
    }

    /// The minimum of column `col`: the number of messages destined to
    /// process `col` that *every* process is known to know about.
    ///
    /// This is the shared-knowledge query behind the classical
    /// matrix-clock applications the paper cites (replicated-log pruning,
    /// Wuu & Bernstein, the paper's reference 22): once `column_min(k) >= s`, the sender can
    /// discard its copy of the first `s` messages to `k`, because everyone
    /// provably knows about them.
    ///
    /// # Panics
    ///
    /// Panics if `col` is out of range.
    pub fn column_min(&self, col: usize) -> u64 {
        assert!(col < self.n, "matrix index out of range");
        (0..self.n)
            .map(|row| self.cells[(row, col)])
            .min()
            .unwrap_or(0)
    }

    /// Number of non-zero cells.
    pub fn nonzero_count(&self) -> usize {
        self.cells.nonzero().count()
    }

    /// Sum of all cells — a crude "total knowledge" measure used by tests.
    pub fn total(&self) -> u64 {
        self.cells.nonzero().map(|(_, _, v)| v).sum()
    }

    /// Encoded size in bytes when shipped whole: `n² × 8`.
    pub fn encoded_len(&self) -> usize {
        self.n * self.n * 8
    }

    /// Appends a self-describing binary image of the matrix to `out`
    /// (little-endian `u32` width, then the cells row-major).
    ///
    /// Used by the persistence layer; the wire codec in `aaa-net` has its
    /// own framing.
    pub fn write_bytes(&self, out: &mut Vec<u8>) {
        // Saturating `try_from`: an impossible width (> u32::MAX servers)
        // writes a prefix `read_bytes` rejects, instead of silently
        // truncating into a *valid-looking* smaller matrix.
        out.extend_from_slice(&u32::try_from(self.n).unwrap_or(u32::MAX).to_le_bytes());
        self.cells.write_le(Lane::Values, out);
    }

    /// Reads an image written by [`MatrixClock::write_bytes`] from the
    /// front of `input`, returning the matrix and the bytes consumed.
    ///
    /// Returns `None` on truncated or invalid input.
    pub fn read_bytes(input: &[u8]) -> Option<(MatrixClock, usize)> {
        if input.len() < 4 {
            return None;
        }
        let n = u32::from_le_bytes(input[0..4].try_into().ok()?) as usize;
        if n == 0 || n > u16::MAX as usize {
            return None;
        }
        let need = 4 + n * n * 8;
        // Bound the width by the bytes present before allocating its rows.
        let cells = input.get(4..need)?;
        let mut m = MatrixClock::new(n);
        m.cells.read_le(Lane::Values, cells)?;
        Some((m, need))
    }
}

impl fmt::Display for MatrixClock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for row in 0..self.n {
            if row > 0 {
                writeln!(f)?;
            }
            write!(f, "[")?;
            for col in 0..self.n {
                if col > 0 {
                    write!(f, " ")?;
                }
                write!(f, "{}", self.get(row, col))?;
            }
            write!(f, "]")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at least one process")]
    fn zero_width_rejected() {
        let _ = MatrixClock::new(0);
    }

    #[test]
    fn get_set_increment() {
        let mut m = MatrixClock::new(3);
        assert_eq!(m.get(2, 1), 0);
        m.set(2, 1, 5);
        assert_eq!(m.get(2, 1), 5);
        assert_eq!(m.increment(2, 1), 6);
        assert_eq!(m.width(), 3);
    }

    #[test]
    fn raise_only_grows() {
        let mut m = MatrixClock::new(2);
        assert!(m.raise(0, 1, 3));
        assert!(!m.raise(0, 1, 2));
        assert!(!m.raise(0, 1, 3));
        assert_eq!(m.get(0, 1), 3);
    }

    #[test]
    fn merge_reports_changes() {
        let mut a = MatrixClock::new(2);
        let mut b = MatrixClock::new(2);
        a.set(0, 0, 4);
        b.set(0, 0, 2);
        b.set(1, 1, 7);
        let mut changes = Vec::new();
        a.merge_max(&b, |r, c, v| changes.push((r, c, v)));
        assert_eq!(changes, vec![(1, 1, 7)]);
        assert_eq!(a.get(0, 0), 4);
        assert_eq!(a.get(1, 1), 7);
    }

    #[test]
    fn dominated_by_is_reflexive_and_respects_merge() {
        let mut a = MatrixClock::new(3);
        a.set(1, 2, 3);
        assert!(a.dominated_by(&a));
        let mut b = MatrixClock::new(3);
        b.set(0, 0, 1);
        assert!(!a.dominated_by(&b));
        let mut lub = a.clone();
        lub.merge_max(&b, |_, _, _| {});
        assert!(a.dominated_by(&lub));
        assert!(b.dominated_by(&lub));
    }

    #[test]
    fn iter_nonzero_and_counts() {
        let mut m = MatrixClock::new(2);
        m.set(0, 1, 2);
        m.set(1, 0, 1);
        let cells: Vec<_> = m.iter_nonzero().collect();
        assert_eq!(cells, vec![(0, 1, 2), (1, 0, 1)]);
        assert_eq!(m.nonzero_count(), 2);
        assert_eq!(m.total(), 3);
        assert_eq!(m.encoded_len(), 32);
    }

    #[test]
    fn column_min_tracks_shared_knowledge() {
        let mut m = MatrixClock::new(3);
        // Everyone knows at least 2 messages went to process 1...
        m.set(0, 1, 5);
        m.set(1, 1, 2);
        m.set(2, 1, 3);
        assert_eq!(m.column_min(1), 2);
        // ...but nothing is commonly known about process 0.
        assert_eq!(m.column_min(0), 0);
    }

    #[test]
    fn column_min_rises_with_gossip() {
        // Replica a learns what others know about messages to replica 2;
        // the prunable prefix (column_min) grows monotonically with each
        // merge — the Wuu-Bernstein log-pruning pattern.
        let mut a = MatrixClock::new(3);
        a.set(0, 2, 4); // a sent 4 entries toward replica 2
        assert_eq!(a.column_min(2), 0);

        // Hearing from b (who saw 1 entry land) is not enough...
        let mut b = MatrixClock::new(3);
        b.set(0, 2, 4);
        b.set(1, 2, 1);
        a.merge_max(&b, |_, _, _| {});
        assert_eq!(a.column_min(2), 0, "replica 2's own row is still 0");

        // ...until replica 2's own knowledge row arrives.
        let mut ack = MatrixClock::new(3);
        ack.set(0, 2, 4);
        ack.set(1, 2, 1);
        ack.set(2, 2, 2);
        a.merge_max(&ack, |_, _, _| {});
        // Column 2 is now [4, 1, 2]: everyone knows about the first entry.
        assert_eq!(a.column_min(2), 1);
    }

    #[test]
    fn display_shape() {
        let mut m = MatrixClock::new(2);
        m.set(0, 1, 1);
        assert_eq!(m.to_string(), "[0 1]\n[0 0]");
    }

    // The range checks hold in release builds too: `(0, n)` is past the
    // row, not cell `(1, 0)`; `(n, 0)` is past the matrix.
    #[test]
    #[should_panic(expected = "matrix index out of range")]
    fn get_past_the_row_panics() {
        let _ = MatrixClock::new(3).get(0, 3);
    }

    #[test]
    #[should_panic(expected = "matrix index out of range")]
    fn set_past_the_matrix_panics() {
        MatrixClock::new(3).set(3, 0, 1);
    }

    #[test]
    #[should_panic(expected = "matrix index out of range")]
    fn raise_past_the_row_panics() {
        let _ = MatrixClock::new(3).raise(0, 3, 1);
    }

    #[test]
    #[should_panic(expected = "matrix index out of range")]
    fn increment_past_the_matrix_panics() {
        let _ = MatrixClock::new(3).increment(3, 0);
    }

    #[test]
    #[should_panic(expected = "different widths")]
    fn merge_width_mismatch_panics() {
        let mut a = MatrixClock::new(2);
        let b = MatrixClock::new(3);
        a.merge_max(&b, |_, _, _| {});
    }
}
