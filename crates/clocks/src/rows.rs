//! Row storage for the clock layer's `n × n` matrices.
//!
//! A server's `SENT` matrix holds only the cells its traffic wrote: on
//! ring traffic in a domain of 256, one or two per row. [`Rows`] keeps
//! each row in the form its own fill calls for. A row starts as a list of
//! its written cells, sorted by column. It becomes its `n` cells, side by
//! side, once one more entry would make the list cost as much as that or
//! pass [`LIST_MAX`] entries. The dense rows of a matrix share one arena,
//! so a dense cell is one row lookup and one read, and a matrix whose rows
//! all fill is one array. A cell never written reads as zero.
//!
//! A cell is Appendix A's `Mat[k,l]`: the counter and, beside it in the
//! same 16 bytes, the `state` (logical instant) of its last change. Only a
//! `CausalState`'s `SENT` keeps the instants; in every other matrix they
//! stay zero. Equality, ordering and hashing read the counters alone,
//! whatever form each row takes.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::mem::size_of;
use std::ops::{Index, IndexMut};

use crate::stamp::{Cells, Packer};

/// The most entries a list row holds: a lookup stays a search of a few
/// cache lines, whatever the width.
const LIST_MAX: usize = 8;

/// One cell: a counter and the logical instant of its last change (`0`
/// for never, and in matrices that do not track changes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Cell {
    pub(crate) value: u64,
    pub(crate) tag: u64,
}

const ZERO: Cell = Cell { value: 0, tag: 0 };

/// A written cell of a list row: its column and the cell.
type Entry = (u32, Cell);

/// One row of cells.
#[derive(Clone)]
enum Row {
    /// The written cells by ascending column; empty if none was.
    List(Box<[Entry]>),
    /// All `n` cells: the `k`-th row of the dense arena.
    Dense(u32),
}

/// One field of every cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lane {
    /// The counters.
    Values,
    /// The change instants.
    Tags,
}

impl Lane {
    /// This field of `cell`.
    fn of(self, cell: &Cell) -> u64 {
        match self {
            Lane::Values => cell.value,
            Lane::Tags => cell.tag,
        }
    }

    /// This field of `cell`, for writing.
    fn of_mut(self, cell: &mut Cell) -> &mut u64 {
        match self {
            Lane::Values => &mut cell.value,
            Lane::Tags => &mut cell.tag,
        }
    }
}

/// `n` rows of `n` cells, each a list or dense as its fill decides.
#[derive(Clone)]
pub(crate) struct Rows {
    n: usize,
    rows: Box<[Row]>,
    /// The dense rows, `n` cells each, in the order they filled.
    dense: Vec<Cell>,
}

impl Rows {
    /// `n` rows of zeros; allocates only the row headers.
    ///
    /// # Panics
    ///
    /// Panics if `n` does not fit the `u32` columns and arena places.
    pub(crate) fn new(n: usize) -> Self {
        assert!(u32::try_from(n).is_ok(), "too many rows to index");
        Rows {
            n,
            rows: vec![Row::List(Box::new([])); n].into_boxed_slice(),
            dense: Vec::new(),
        }
    }

    /// Cell `(r, c)`, if it was ever written.
    #[inline]
    pub(crate) fn get(&self, r: usize, c: usize) -> Option<&Cell> {
        match &self.rows[r] {
            Row::Dense(k) => Some(&self.dense[*k as usize * self.n + c]),
            Row::List(list) => Some(&list[find(list, c).ok()?].1),
        }
    }

    /// Cell `(r, c)` for writing, if it was ever written.
    #[inline]
    pub(crate) fn get_mut(&mut self, r: usize, c: usize) -> Option<&mut Cell> {
        match &mut self.rows[r] {
            Row::Dense(k) => Some(&mut self.dense[*k as usize * self.n + c]),
            Row::List(list) => Some(&mut list[find(list, c).ok()?].1),
        }
    }

    /// Cell `(r, c)` for writing, written as zero first if it never was.
    /// Write through it only to store something non-zero.
    #[inline]
    pub(crate) fn cell_mut(&mut self, r: usize, c: usize) -> &mut Cell {
        let n = self.n;
        let fills = matches!(&self.rows[r], Row::List(list)
            if find(list, c).is_err() && !list_takes_one_more(list.len(), n));
        if fills {
            let at = fill(&mut self.rows[r], &mut self.dense, n);
            return &mut self.dense[at + c];
        }
        match &mut self.rows[r] {
            Row::Dense(k) => &mut self.dense[*k as usize * n + c],
            Row::List(list) => list_cell(list, c),
        }
    }

    /// Raises the counter of `(r, c)` to `value` if that is larger,
    /// tagging it with `tag` if one is given; returns whether it grew.
    /// Only a value above zero writes a cell that never was.
    #[inline]
    pub(crate) fn raise(&mut self, r: usize, c: usize, value: u64, tag: Option<u64>) -> bool {
        match self.get_mut(r, c) {
            Some(cell) if value <= cell.value => false,
            Some(cell) => {
                cell.value = value;
                cell.tag = tag.unwrap_or(cell.tag);
                true
            }
            None if value == 0 => false,
            None => {
                self.insert(r, c, value, tag.unwrap_or(0));
                true
            }
        }
    }

    /// Writes cell `(r, c)`, which never was: off the path of a row whose
    /// cells are all written.
    #[cold]
    #[inline(never)]
    fn insert(&mut self, r: usize, c: usize, value: u64, tag: u64) {
        *self.cell_mut(r, c) = Cell { value, tag };
    }

    /// Raises row `r` by the cells of one run of a delta, `(col, value)`
    /// each, tagging every cell that grows with `tag`; returns whether one
    /// did. The row is resolved once: a dense row is one slice the run
    /// raises cell by cell with no branch on the outcome, a list row
    /// takes the run a cell at a time until it fills, and the rest of the
    /// run then goes to its slice.
    ///
    /// # Panics
    ///
    /// Panics if a column is out of range.
    #[inline]
    pub(crate) fn raise_run(&mut self, r: usize, cells: &mut Cells<'_>, tag: u64) -> bool {
        let n = self.n;
        let mut grew = false;
        let k = loop {
            match &self.rows[r] {
                Row::Dense(k) => break *k as usize,
                Row::List(_) => {
                    let Some((c, value)) = cells.next() else {
                        return grew;
                    };
                    assert!(c < n, "matrix index out of range");
                    grew |= self.raise(r, c, value, Some(tag));
                }
            }
        };
        let row = &mut self.dense[k * n..][..n];
        for (c, value) in cells {
            let cell = &mut row[c];
            let up = value > cell.value;
            cell.value = cell.value.max(value);
            cell.tag = if up { tag } else { cell.tag };
            grew |= up;
        }
        grew
    }

    /// Packs the cells of row `r` whose tag is past `since` as one run:
    /// all `n` of a dense row are offered to the packer, a list row's
    /// entries.
    #[inline]
    pub(crate) fn pack_changed(&self, r: usize, since: u64, packer: &mut Packer) {
        match &self.rows[r] {
            Row::Dense(k) => {
                let cells = &self.dense[*k as usize * self.n..][..self.n];
                packer.run(r, cells, since, |c, cell| (c, cell.value, cell.tag));
            }
            Row::List(list) => {
                let entry = |_, (c, cell): &Entry| (*c as usize, cell.value, cell.tag);
                packer.run(r, list, since, entry);
            }
        }
    }

    /// The largest change instant in row `r`: `0` if no cell of it was
    /// ever tagged.
    pub(crate) fn latest_change(&self, r: usize) -> u64 {
        self.row(r).map(|(_, cell)| cell.tag).max().unwrap_or(0)
    }

    /// The cells of row `r` that were ever written — all `n` of a dense
    /// row — as `(column, cell)`, by ascending column.
    #[inline]
    pub(crate) fn row(&self, r: usize) -> impl Iterator<Item = (usize, &Cell)> + '_ {
        let (cells, list): (&[Cell], &[Entry]) = match &self.rows[r] {
            Row::Dense(k) => (&self.dense[*k as usize * self.n..][..self.n], &[]),
            Row::List(list) => (&[], list),
        };
        let listed = list.iter().map(|(c, cell)| (*c as usize, cell));
        cells.iter().enumerate().chain(listed)
    }

    /// The non-zero counters as `(row, column, value)`, row-major.
    pub(crate) fn nonzero(&self) -> impl Iterator<Item = (usize, usize, u64)> + '_ {
        (0..self.n).flat_map(move |r| {
            let written = self.row(r).map(move |(c, cell)| (r, c, cell.value));
            written.filter(|&(_, _, v)| v != 0)
        })
    }

    /// `lane` of all `n²` cells, row-major, zeros included.
    fn lane(&self, lane: Lane) -> impl Iterator<Item = u64> + '_ {
        (0..self.n).flat_map(move |r| {
            let mut written = self.row(r).peekable();
            (0..self.n).map(move |c| {
                let cell = written.next_if(|&(at, _)| at == c);
                cell.map_or(0, |(_, cell)| lane.of(cell))
            })
        })
    }

    /// A copy with the same cells and counters and every tag zero.
    pub(crate) fn counters(&self) -> Rows {
        let untag = |cell: &Cell| Cell { tag: 0, ..*cell };
        let rows = self.rows.iter().map(|row| match row {
            Row::List(list) => Row::List(list.iter().map(|(c, cell)| (*c, untag(cell))).collect()),
            Row::Dense(k) => Row::Dense(*k),
        });
        Rows {
            n: self.n,
            rows: rows.collect(),
            dense: self.dense.iter().map(untag).collect(),
        }
    }

    /// Appends `lane` of the `n²` cells, row-major and dense, as
    /// little-endian `u64`s.
    pub(crate) fn write_le(&self, lane: Lane, out: &mut Vec<u8>) {
        out.reserve(self.n.saturating_mul(self.n).saturating_mul(8));
        for v in self.lane(lane) {
            out.extend_from_slice(&v.to_le_bytes());
        }
    }

    /// Reads `lane` of every cell from an image [`Rows::write_le`] wrote:
    /// `bytes` holds exactly `n² × 8` of them. Writes only the cells whose
    /// `lane` is non-zero in the image.
    pub(crate) fn read_le(&mut self, lane: Lane, bytes: &[u8]) -> Option<()> {
        let n = self.n;
        if Some(bytes.len()) != n.checked_mul(n)?.checked_mul(8) {
            return None;
        }
        for (i, v) in bytes.chunks_exact(8).enumerate() {
            let v = u64::from_le_bytes(v.try_into().ok()?);
            if v != 0 {
                *lane.of_mut(self.cell_mut(i / n, i % n)) = v;
            }
        }
        Some(())
    }

    /// Whether `lane` of every cell is the same in `self` and `other`.
    pub(crate) fn lane_eq(&self, lane: Lane, other: &Rows) -> bool {
        self.n == other.n && self.lane(lane).eq(other.lane(lane))
    }
}

/// Where column `c` sits in `list`, or where it would go.
#[inline]
fn find(list: &[Entry], c: usize) -> Result<usize, usize> {
    list.binary_search_by(|&(at, _)| (at as usize).cmp(&c))
}

/// Whether a list of `len` entries in a row of `n` may take one more: it
/// stays under [`LIST_MAX`] entries and cheaper than the dense row.
fn list_takes_one_more(len: usize, n: usize) -> bool {
    len < LIST_MAX && (len + 1) * size_of::<Entry>() < n * size_of::<Cell>()
}

/// Cell `c` of `list`, inserted as zero if it is not there.
#[inline]
fn list_cell(list: &mut Box<[Entry]>, c: usize) -> &mut Cell {
    let at = find(list, c).unwrap_or_else(|at| list_insert(list, at, c));
    &mut list[at].1
}

/// Inserts a zero cell `c` at `at` of `list`, returning `at`.
#[cold]
#[inline(never)]
fn list_insert(list: &mut Box<[Entry]>, at: usize, c: usize) -> usize {
    // Exactly one entry more: a list holds what it was written.
    let mut grown = std::mem::take(list).into_vec();
    grown.reserve_exact(1);
    // `c < n`, which `Rows::new` checked fits a `u32`.
    grown.insert(at, (u32::try_from(c).unwrap_or(u32::MAX), ZERO));
    *list = grown.into_boxed_slice();
    at
}

/// Turns `row` dense: its cells go to a fresh row of the arena, whose
/// first cell's place is returned.
#[cold]
#[inline(never)]
fn fill(row: &mut Row, dense: &mut Vec<Cell>, n: usize) -> usize {
    let k = dense.len() / n;
    // Grow by doubling from one row, never past the `n` rows a matrix has.
    if dense.len() == dense.capacity() {
        dense.reserve_exact(k.clamp(1, n - k) * n);
    }
    let at = dense.len();
    dense.resize(at + n, ZERO);
    if let Row::List(list) = row {
        for &(c, cell) in list.iter() {
            dense[at + c as usize] = cell;
        }
    }
    // `k < n`, which `Rows::new` checked fits a `u32`.
    *row = Row::Dense(u32::try_from(k).unwrap_or(u32::MAX));
    at
}

/// The counter of cell `(r, c)`: zero if it was never written.
impl Index<(usize, usize)> for Rows {
    type Output = u64;

    #[inline]
    fn index(&self, (r, c): (usize, usize)) -> &u64 {
        self.get(r, c).map_or(&0, |cell| &cell.value)
    }
}

/// The counter of cell `(r, c)` for writing. Writes the cell if it never
/// was, so write through it only to store something non-zero.
impl IndexMut<(usize, usize)> for Rows {
    #[inline]
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut u64 {
        &mut self.cell_mut(r, c).value
    }
}

impl PartialEq for Rows {
    fn eq(&self, other: &Self) -> bool {
        self.n == other.n && self.nonzero().eq(other.nonzero())
    }
}

impl Eq for Rows {}

impl PartialOrd for Rows {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Lexicographic over the counters, as a dense `Vec<u64>` orders.
impl Ord for Rows {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.n * self.n)
            .cmp(&(other.n * other.n))
            .then_with(|| self.lane(Lane::Values).cmp(other.lane(Lane::Values)))
    }
}

/// Hashes the width and the non-zero counters: equal matrices hash alike
/// whatever form their rows take.
impl Hash for Rows {
    fn hash<H: Hasher>(&self, state: &mut H) {
        (self.n * self.n).hash(state);
        for (r, c, v) in self.nonzero() {
            (r * self.n + c, v).hash(state);
        }
    }
}

/// The dense counter list, row-major.
impl fmt::Debug for Rows {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.lane(Lane::Values)).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn form(rows: &Rows, r: usize) -> Option<usize> {
        match &rows.rows[r] {
            Row::List(list) => Some(list.len()),
            Row::Dense(_) => None,
        }
    }

    #[test]
    fn a_row_lists_its_cells_until_the_list_would_cost_the_row() {
        let mut a = Rows::new(40);
        for (i, c) in [30, 3, 17, 5, 9, 11, 2, 38].into_iter().enumerate() {
            a[(1, c)] = 7;
            assert_eq!(form(&a, 1), Some(i + 1));
        }
        let listed: Vec<usize> = a.row(1).map(|(c, _)| c).collect();
        assert_eq!(listed, vec![2, 3, 5, 9, 11, 17, 30, 38]);
        // The ninth cell fills the row; its cells keep their values.
        a[(1, 0)] = 1;
        assert_eq!((form(&a, 1), a.row(1).count()), (None, 40));
        assert_eq!(
            (a[(1, 0)], a[(1, 30)], a[(1, 31)], a[(0, 30)]),
            (1, 7, 0, 0)
        );
        // Two cells of a 2-wide row would cost as much as the row.
        let mut b = Rows::new(2);
        b[(0, 1)] = 1;
        assert_eq!(form(&b, 0), Some(1));
        b[(0, 0)] = 1;
        assert_eq!(form(&b, 0), None);
    }

    #[test]
    fn dense_rows_share_an_arena_that_doubles_up_to_the_width() {
        let mut a = Rows::new(3);
        let mut capacity = Vec::new();
        for r in [2, 0, 1] {
            a[(r, 0)] = 1;
            a[(r, 2)] = 2;
            capacity.push(a.dense.capacity());
        }
        assert_eq!(capacity, vec![3, 6, 9]);
        assert_eq!(a.nonzero().count(), 6);
        assert_eq!(
            a.dense[..3],
            [Cell { value: 1, tag: 0 }, ZERO, Cell { value: 2, tag: 0 }]
        );
    }

    #[test]
    fn comparisons_and_images_read_the_counters_of_either_form() {
        let (mut listed, mut dense) = (Rows::new(20), Rows::new(20));
        listed[(4, 7)] = 3;
        for c in 0..20 {
            dense.cell_mut(4, c).tag = 9;
        }
        dense[(4, 7)] = 3;
        assert_eq!(form(&dense, 4), None);
        assert!(listed == dense && listed.cmp(&dense).is_eq());
        assert!(!listed.lane_eq(Lane::Tags, &dense));
        let (mut values, mut tags) = (Vec::new(), Vec::new());
        dense.write_le(Lane::Values, &mut values);
        dense.write_le(Lane::Tags, &mut tags);
        let mut back = Rows::new(20);
        back.read_le(Lane::Values, &values)
            .expect("values read back");
        assert_eq!((back == dense, form(&back, 4)), (true, Some(1)));
        back.read_le(Lane::Tags, &tags).expect("tags read back");
        assert!(back.lane_eq(Lane::Tags, &dense));
        assert!(back.read_le(Lane::Tags, &tags[1..]).is_none());
        assert!(!dense.counters().lane_eq(Lane::Tags, &dense));
    }
}
