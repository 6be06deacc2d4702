//! The matrix clock data structure.
//!
//! A matrix clock over `n` processes is an `n × n` array of counters. In the
//! AAA channel, cell `(k, l)` of server `i`'s matrix counts the messages
//! sent from `k` to `l` *that `i` knows about* — the "what A knows about
//! what B knows about C" shared knowledge of the paper's introduction. The
//! per-message control information is `O(n²)` in the worst case, which is
//! precisely the scalability problem the domain decomposition attacks.

use std::fmt;

use serde::{Deserialize, Serialize};

/// A square matrix of message counters.
///
/// Cells are addressed `(row, col)` = `(sender, receiver)`. All cells start
/// at zero and only ever grow; merging two matrices takes the cell-wise
/// maximum, making the set of matrices of a given width a join-semilattice.
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
    cells: Vec<u64>,
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
            cells: vec![0; n * n],
        }
    }

    /// Width of the matrix (number of processes in the domain).
    pub fn width(&self) -> usize {
        self.n
    }

    #[inline]
    fn idx(&self, row: usize, col: usize) -> usize {
        debug_assert!(row < self.n && col < self.n, "matrix index out of range");
        row * self.n + col
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
        self.cells[i] = value;
    }

    /// Raises cell `(row, col)` to `value` if `value` is larger, returning
    /// `true` if the cell changed.
    ///
    /// # Panics
    ///
    /// Panics if `row` or `col` is out of range.
    #[inline]
    pub fn raise(&mut self, row: usize, col: usize, value: u64) -> bool {
        let i = self.idx(row, col);
        if value > self.cells[i] {
            self.cells[i] = value;
            true
        } else {
            false
        }
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

    /// Cell-wise maximum with `other`; calls `changed` for every cell that
    /// grew, with `(row, col, new_value)`.
    ///
    /// Exposing the changed cells lets the Updates optimization re-tag them
    /// with a fresh logical state without a second scan.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn merge_max(&mut self, other: &MatrixClock, mut changed: impl FnMut(usize, usize, u64)) {
        assert_eq!(
            self.n, other.n,
            "cannot merge matrix clocks of different widths"
        );
        for row in 0..self.n {
            for col in 0..self.n {
                let i = row * self.n + col;
                if other.cells[i] > self.cells[i] {
                    self.cells[i] = other.cells[i];
                    changed(row, col, other.cells[i]);
                }
            }
        }
    }

    /// Returns `true` if every cell of `self` is `<=` the matching cell of
    /// `other`.
    ///
    /// # Panics
    ///
    /// Panics if the widths differ.
    pub fn dominated_by(&self, other: &MatrixClock) -> bool {
        assert_eq!(self.n, other.n);
        self.cells.iter().zip(&other.cells).all(|(a, b)| a <= b)
    }

    /// Iterates over the non-zero cells as `(row, col, value)`.
    pub fn iter_nonzero(&self) -> impl Iterator<Item = (usize, usize, u64)> + '_ {
        self.cells
            .iter()
            .enumerate()
            .filter_map(move |(i, &v)| (v != 0).then_some((i / self.n, i % self.n, v)))
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
            .map(|row| self.cells[row * self.n + col])
            .min()
            .unwrap_or(0)
    }

    /// Number of non-zero cells.
    pub fn nonzero_count(&self) -> usize {
        self.cells.iter().filter(|&&v| v != 0).count()
    }

    /// Sum of all cells — a crude "total knowledge" measure used by tests.
    pub fn total(&self) -> u64 {
        self.cells.iter().sum()
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
        for v in &self.cells {
            out.extend_from_slice(&v.to_le_bytes());
        }
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
        if input.len() < need {
            return None;
        }
        let mut cells = Vec::with_capacity(n * n);
        for i in 0..n * n {
            let at = 4 + i * 8;
            cells.push(u64::from_le_bytes(input[at..at + 8].try_into().ok()?));
        }
        Some((MatrixClock { n, cells }, need))
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

    #[test]
    #[should_panic(expected = "different widths")]
    fn merge_width_mismatch_panics() {
        let mut a = MatrixClock::new(2);
        let b = MatrixClock::new(3);
        a.merge_max(&b, |_, _, _| {});
    }
}
