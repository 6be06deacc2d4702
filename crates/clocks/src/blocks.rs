//! Block-sparse storage for the clock layer's `n²` arrays.
//!
//! A server's `SENT` matrix and its Appendix-A change tags are `n²` cells,
//! but a server only ever writes the cells its traffic reaches: on ring
//! traffic in a domain of 256, about one cell per 256-cell row. [`Blocks`]
//! keeps such an array as fixed blocks of [`BLOCK`] consecutive cells,
//! allocated on the first write, under an index of one `u32` per block. A
//! block that was never written reads as zero.
//!
//! A cell is Appendix A's `Mat[k,l]`: the counter and, beside it in the
//! same 16 bytes, the `state` (logical instant) of its last change. Only a
//! `CausalState`'s `SENT` keeps the instants; in every other matrix they
//! stay zero. A send or a delivery finds a counter and its instant with one
//! index lookup and one cache line. Equality, ordering and hashing read the
//! counters alone, whatever blocks are allocated.

use std::cmp::Ordering;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::{Index, IndexMut, Range};

/// Cells per block. Small enough that ring traffic's one cell per row
/// costs 256 bytes, not a page; large enough that the index is a
/// sixteenth of the cells and a walk reads whole slices.
pub(crate) const BLOCK: usize = 16;

/// One cell: a counter and the logical instant of its last change (`0`
/// for never, and in matrices that do not track changes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Cell {
    pub(crate) value: u64,
    pub(crate) tag: u64,
}

/// One block of cells.
pub(crate) type Block = [Cell; BLOCK];

const ZERO: Block = [Cell { value: 0, tag: 0 }; BLOCK];

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

/// `len` cells, stored as [`BLOCK`]-cell blocks allocated on first write.
/// Cells past `len` in the last block stay zero.
#[derive(Clone)]
pub(crate) struct Blocks {
    len: usize,
    /// Per block: `0` if it was never written, otherwise one more than its
    /// place in `arena`.
    index: Vec<u32>,
    /// The written blocks, in order of first write.
    arena: Vec<Block>,
}

impl Blocks {
    /// `len` zero cells; allocates only the index.
    ///
    /// # Panics
    ///
    /// Panics if the block count does not fit the `u32` index.
    pub(crate) fn new(len: usize) -> Self {
        let blocks = len.div_ceil(BLOCK);
        assert!(u32::try_from(blocks).is_ok(), "too many cells to index");
        Blocks {
            len,
            index: vec![0; blocks],
            arena: Vec::new(),
        }
    }

    /// Where block `b` sits in the arena, `usize::MAX` if it was never
    /// written.
    #[inline]
    fn place(&self, b: usize) -> usize {
        // Index `0` wraps to `usize::MAX`, which no arena reaches.
        (self.index[b] as usize).wrapping_sub(1)
    }

    /// Block `b`, if it was ever written.
    #[inline]
    pub(crate) fn block(&self, b: usize) -> Option<&Block> {
        self.arena.get(self.place(b))
    }

    /// Block `b`, or zeros if it was never written.
    #[inline]
    pub(crate) fn block_or_zero(&self, b: usize) -> &Block {
        self.block(b).unwrap_or(&ZERO)
    }

    /// Block `b` for writing, allocated if it was never written.
    #[inline]
    pub(crate) fn block_mut(&mut self, b: usize) -> &mut Block {
        let at = match self.place(b) {
            at if at < self.arena.len() => at,
            _ => self.allocate(b),
        };
        &mut self.arena[at]
    }

    /// Cell `i` for writing, if its block was ever written.
    #[inline]
    pub(crate) fn cell_mut(&mut self, i: usize) -> Option<&mut Cell> {
        let at = self.place(i / BLOCK);
        Some(&mut self.arena.get_mut(at)?[i % BLOCK])
    }

    /// Allocates block `b`, returning where it sits in the arena.
    #[cold]
    #[inline(never)]
    fn allocate(&mut self, b: usize) -> usize {
        // Grow by doubling from one block, not from the four a `Vec`
        // starts with, so a state that only ever writes one block holds
        // one, and never past one entry per block. Blocks keep their
        // place, so growing never touches the index.
        if self.arena.len() == self.arena.capacity() {
            let unwritten = self.index.len() - self.arena.len();
            let more = self.arena.len().clamp(1, unwritten);
            self.arena.reserve_exact(more);
        }
        self.arena.push(ZERO);
        self.index[b] = position(self.arena.len());
        self.arena.len() - 1
    }

    /// The written blocks as `(block number, cells)`, in block order.
    pub(crate) fn blocks(&self) -> impl Iterator<Item = (usize, &Block)> + '_ {
        (0..self.index.len()).filter_map(move |b| Some((b, self.block(b)?)))
    }

    /// Every written block, in no particular order.
    pub(crate) fn written(&self) -> &[Block] {
        &self.arena
    }

    /// A copy with the same blocks and counters and every tag zero.
    pub(crate) fn counters(&self) -> Blocks {
        let untagged = |block: &Block| block.map(|c| Cell { tag: 0, ..c });
        Blocks {
            len: self.len,
            index: self.index.clone(),
            arena: self.arena.iter().map(untagged).collect(),
        }
    }

    /// Calls `f` with the position and the cell of every cell in `range`
    /// whose block was ever written, in order, each block read as a slice.
    #[inline]
    pub(crate) fn for_each_in(&self, range: Range<usize>, mut f: impl FnMut(usize, &Cell)) {
        let end = range.end.min(self.len);
        if range.start >= end {
            return;
        }
        for b in range.start / BLOCK..end.div_ceil(BLOCK) {
            let Some(cells) = self.block(b) else {
                continue;
            };
            let first = b * BLOCK;
            let lo = range.start.saturating_sub(first);
            let hi = (end - first).min(BLOCK);
            for (i, cell) in (first + lo..).zip(&cells[lo..hi]) {
                f(i, cell);
            }
        }
    }

    /// Appends `lane` of the `len` cells, row-major and dense, as
    /// little-endian `u64`s.
    pub(crate) fn write_le(&self, lane: Lane, out: &mut Vec<u8>) {
        out.reserve(self.len.saturating_mul(8));
        for b in 0..self.index.len() {
            let width = (self.len - b * BLOCK).min(BLOCK);
            for cell in &self.block_or_zero(b)[..width] {
                out.extend_from_slice(&lane.of(cell).to_le_bytes());
            }
        }
    }

    /// Reads `lane` of every cell from an image [`Blocks::write_le`] wrote:
    /// `bytes` holds exactly `len × 8` of them. Allocates only the blocks
    /// with a non-zero cell in the image.
    pub(crate) fn read_le(&mut self, lane: Lane, bytes: &[u8]) -> Option<()> {
        if Some(bytes.len()) != self.len.checked_mul(8) {
            return None;
        }
        for (b, chunk) in bytes.chunks(BLOCK * 8).enumerate() {
            if chunk.iter().all(|&byte| byte == 0) {
                continue;
            }
            let block = self.block_mut(b);
            for (cell, v) in block.iter_mut().zip(chunk.chunks_exact(8)) {
                *lane.of_mut(cell) = u64::from_le_bytes(v.try_into().ok()?);
            }
        }
        Some(())
    }

    /// Whether `lane` of every cell is the same in `self` and `other`.
    pub(crate) fn lane_eq(&self, lane: Lane, other: &Blocks) -> bool {
        let of = |block: &Block| block.map(|c| lane.of(&c));
        self.len == other.len
            && (0..self.index.len())
                .all(|b| of(self.block_or_zero(b)) == of(other.block_or_zero(b)))
    }
}

/// The index entry of the `k`-th arena block. Never saturates: an arena
/// holds at most one entry per block, and [`Blocks::new`] checked the
/// block count fits.
fn position(k: usize) -> u32 {
    u32::try_from(k).unwrap_or(u32::MAX)
}

/// The counter of cell `i`: zero if its block was never written.
impl Index<usize> for Blocks {
    type Output = u64;

    #[inline]
    fn index(&self, i: usize) -> &u64 {
        self.block(i / BLOCK).map_or(&0, |b| &b[i % BLOCK].value)
    }
}

/// The counter of cell `i` for writing. Allocates the cell's block if it
/// was never written, so write through it only to store something non-zero.
impl IndexMut<usize> for Blocks {
    #[inline]
    fn index_mut(&mut self, i: usize) -> &mut u64 {
        &mut self.block_mut(i / BLOCK)[i % BLOCK].value
    }
}

/// The counters of a block.
fn values(block: &Block) -> impl Iterator<Item = u64> + '_ {
    block.iter().map(|c| c.value)
}

impl PartialEq for Blocks {
    fn eq(&self, other: &Self) -> bool {
        self.lane_eq(Lane::Values, other)
    }
}

impl Eq for Blocks {}

impl PartialOrd for Blocks {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Lexicographic over the counters, as a dense `Vec<u64>` orders.
impl Ord for Blocks {
    fn cmp(&self, other: &Self) -> Ordering {
        self.len.cmp(&other.len).then_with(|| {
            (0..self.index.len())
                .map(|b| values(self.block_or_zero(b)).cmp(values(other.block_or_zero(b))))
                .find(|o| o.is_ne())
                .unwrap_or(Ordering::Equal)
        })
    }
}

/// Hashes the length and the non-zero counters: equal arrays hash alike
/// whatever blocks they hold.
impl Hash for Blocks {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.len.hash(state);
        for (b, cells) in self.blocks() {
            for (off, v) in values(cells).enumerate().filter(|&(_, v)| v != 0) {
                (b * BLOCK + off, v).hash(state);
            }
        }
    }
}

/// The dense counter list, as the `Vec<u64>` it replaces printed.
impl fmt::Debug for Blocks {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list()
            .entries((0..self.len).map(|i| self[i]))
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_blocks_read_as_zero_and_cost_nothing() {
        let mut a = Blocks::new(40);
        assert_eq!(a.index.len(), 3);
        assert_eq!(a[39], 0);
        a[33] = 7;
        assert_eq!((a[33], a[32], a[1]), (7, 0, 0));
        assert_eq!(a.arena.len(), 1);
        assert_eq!(a.blocks().map(|(b, _)| b).collect::<Vec<_>>(), vec![2]);
    }

    #[test]
    fn range_walks_read_only_written_blocks() {
        let mut a = Blocks::new(40);
        for i in [17, 18, 39] {
            a[i] = 1;
        }
        let (mut visited, mut set) = (Vec::new(), Vec::new());
        a.for_each_in(4..39, |i, cell| {
            visited.push(i);
            if cell.value != 0 {
                set.push(i);
            }
        });
        // Block 0 was never written; the range stops short of cell 39.
        assert_eq!(visited, (16..39).collect::<Vec<_>>());
        assert_eq!(set, vec![17, 18]);
        a.for_each_in(50..60, |_, _| panic!("nothing past the cells"));
    }

    #[test]
    fn comparisons_read_the_counters_of_any_blocks() {
        let (mut a, b) = (Blocks::new(40), Blocks::new(40));
        a[5] = 0;
        a.block_mut(0)[6].tag = 9;
        assert_eq!(a, b);
        assert_eq!(a.cmp(&b), Ordering::Equal);
        assert!(!a.lane_eq(Lane::Tags, &b));
        a[20] = 1;
        let mut c = Blocks::new(40);
        c[19] = 1;
        // Dense order: c = [.., 1 @ 19, 0 @ 20, ..] > a = [.., 0 @ 19, 1 @ 20, ..].
        assert!(c > a && a > b);
    }

    #[test]
    fn arena_doubles_from_one_block_and_blocks_keep_their_place() {
        let mut a = Blocks::new(80);
        let mut capacity = Vec::new();
        for b in [3, 1, 2, 0, 4] {
            a.block_mut(b)[0] = Cell { value: 1, tag: 5 };
            capacity.push(a.arena.capacity());
        }
        // Never past one entry per block.
        assert_eq!(capacity, vec![1, 2, 4, 4, 5]);
        assert_eq!(a.index, vec![4, 2, 3, 1, 5]);
        assert_eq!(a.block(2).map(|b| b[0]), Some(Cell { value: 1, tag: 5 }));
    }

    #[test]
    fn counters_copy_drops_the_tags() {
        let mut a = Blocks::new(40);
        a.block_mut(2)[1] = Cell { value: 4, tag: 9 };
        let bare = a.counters();
        assert_eq!(bare.index, a.index);
        assert!(bare == a && !bare.lane_eq(Lane::Tags, &a));
        let mut block = ZERO;
        block[1].value = 4;
        assert_eq!(bare.written(), &[block][..]);
    }

    #[test]
    fn le_image_is_dense_per_lane_and_reads_back_sparse() {
        let mut a = Blocks::new(20);
        a.block_mut(1)[3] = Cell {
            value: u64::MAX,
            tag: 3,
        };
        let (mut values, mut tags) = (Vec::new(), Vec::new());
        a.write_le(Lane::Values, &mut values);
        a.write_le(Lane::Tags, &mut tags);
        assert_eq!((values.len(), tags.len()), (160, 160));
        let mut back = Blocks::new(20);
        back.read_le(Lane::Values, &values)
            .expect("values read back");
        back.read_le(Lane::Tags, &tags).expect("tags read back");
        assert_eq!(back.block(1), a.block(1));
        assert!(back.lane_eq(Lane::Tags, &a) && back == a);
        assert_eq!(back.arena.len(), 1);
        assert!(back.read_le(Lane::Tags, &tags[1..]).is_none());
    }
}
