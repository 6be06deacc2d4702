//! Model-based property test of [`MatrixClock`] against a dense reference.
//!
//! `MatrixClock` keeps each row as a sorted list of its written cells
//! until the list would cost as much as the row or pass 8 entries, and
//! then as the row's cells in an arena the dense rows share. Here random
//! sequences of `set`, `raise`, `increment` and `merge_max` — zero writes
//! included, widths from 1 to 80 so every list-to-dense switch and the
//! change tree's 64-row fanout are crossed, and now and then a raise of
//! every cell — drive it and a plain row-major `Vec<u64>` in lock-step.
//! Every query must agree with the reference: cell reads, what each write
//! returns or reports, `dominated_by`, `column_min`, `iter_nonzero`,
//! `nonzero_count`, `total` and the byte image through `write_bytes` →
//! `read_bytes`. `Eq`, `Ord` and `Hash` must agree with the reference's
//! whatever form either side's rows take. It runs the default number of
//! cases, which `PROPTEST_CASES` deepens.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};

use aaa_clocks::MatrixClock;
use proptest::prelude::*;

/// One write; coordinates are reduced modulo the width.
#[derive(Debug, Clone)]
enum Op {
    Set(u16, u16, u64),
    Raise(u16, u16, u64),
    Increment(u16, u16),
    /// Merge in a matrix holding these cells.
    Merge(Vec<(u16, u16, u64)>),
    /// Raise every cell to at least this: every row dense, the arena
    /// grown to its last capacity.
    Fill(u64),
}

fn value() -> impl Strategy<Value = u64> {
    prop_oneof![Just(0u64), 1u64..4, 0u64..1000]
}

fn cell() -> impl Strategy<Value = (u16, u16, u64)> {
    (any::<u16>(), any::<u16>(), value())
}

fn op() -> impl Strategy<Value = Op> {
    prop_oneof![
        cell().prop_map(|(r, c, v)| Op::Set(r, c, v)),
        cell().prop_map(|(r, c, v)| Op::Raise(r, c, v)),
        (any::<u16>(), any::<u16>()).prop_map(|(r, c)| Op::Increment(r, c)),
        prop::collection::vec(cell(), 0..24).prop_map(Op::Merge),
        (1u64..3).prop_map(Op::Fill),
    ]
}

/// The textbook matrix: `n²` cells, row-major.
#[derive(Debug, Clone, PartialEq)]
struct Dense {
    n: usize,
    cells: Vec<u64>,
}

impl Dense {
    fn new(n: usize) -> Dense {
        Dense {
            n,
            cells: vec![0; n * n],
        }
    }

    fn at(&self, r: u16, c: u16) -> (usize, usize) {
        (usize::from(r) % self.n, usize::from(c) % self.n)
    }

    fn from_cells(n: usize, cells: &[(u16, u16, u64)]) -> (MatrixClock, Dense) {
        let (mut m, mut d) = (MatrixClock::new(n), Dense::new(n));
        for &(r, c, v) in cells {
            let (row, col) = d.at(r, c);
            m.set(row, col, v);
            d.cells[row * n + col] = v;
        }
        (m, d)
    }

    /// Applies `op` to both, checking what the write returns or reports.
    fn apply(&mut self, m: &mut MatrixClock, op: &Op) {
        let n = self.n;
        match op {
            &Op::Set(r, c, v) => {
                let (row, col) = self.at(r, c);
                m.set(row, col, v);
                self.cells[row * n + col] = v;
            }
            &Op::Raise(r, c, v) => {
                let (row, col) = self.at(r, c);
                let cell = &mut self.cells[row * n + col];
                let grew = v > *cell;
                *cell = (*cell).max(v);
                assert_eq!(m.raise(row, col, v), grew, "raise {op:?}");
            }
            &Op::Increment(r, c) => {
                let (row, col) = self.at(r, c);
                let cell = &mut self.cells[row * n + col];
                *cell += 1;
                assert_eq!(m.increment(row, col), *cell, "increment {op:?}");
            }
            Op::Merge(cells) => {
                let (other, theirs) = Dense::from_cells(n, cells);
                let mut want = Vec::new();
                for (i, (mine, &v)) in self.cells.iter_mut().zip(&theirs.cells).enumerate() {
                    if v > *mine {
                        *mine = v;
                        want.push((i / n, i % n, v));
                    }
                }
                let mut got = Vec::new();
                m.merge_max(&other, |r, c, v| got.push((r, c, v)));
                assert_eq!(got, want, "merge {op:?}");
            }
            &Op::Fill(v) => {
                for (i, cell) in self.cells.iter_mut().enumerate() {
                    let grew = v > *cell;
                    *cell = (*cell).max(v);
                    assert_eq!(m.raise(i / n, i % n, v), grew, "fill {op:?}");
                }
            }
        }
    }

    /// The image `write_bytes` wrote for a dense matrix.
    fn image(&self) -> Vec<u8> {
        let mut out = u32::try_from(self.n).unwrap().to_le_bytes().to_vec();
        for v in &self.cells {
            out.extend_from_slice(&v.to_le_bytes());
        }
        out
    }

    /// The same cells, set into a fresh matrix in an order of its own:
    /// rows filled in another order, or not at all.
    fn rebuilt(&self) -> MatrixClock {
        let mut m = MatrixClock::new(self.n);
        for (i, &v) in self
            .cells
            .iter()
            .enumerate()
            .rev()
            .filter(|&(_, &v)| v != 0)
        {
            m.set(i / self.n, i % self.n, v);
        }
        m
    }
}

fn hash_of(m: &MatrixClock) -> u64 {
    let mut h = DefaultHasher::new();
    m.hash(&mut h);
    h.finish()
}

/// Every read of `m` agrees with `d`.
fn check(m: &MatrixClock, d: &Dense) {
    let n = d.n;
    assert_eq!(m.width(), n);
    for (i, &v) in d.cells.iter().enumerate() {
        assert_eq!(m.get(i / n, i % n), v, "cell ({}, {})", i / n, i % n);
    }
    let nonzero: Vec<_> = (d.cells.iter().enumerate())
        .filter(|&(_, &v)| v != 0)
        .map(|(i, &v)| (i / n, i % n, v))
        .collect();
    assert_eq!(m.iter_nonzero().collect::<Vec<_>>(), nonzero);
    assert_eq!(m.nonzero_count(), nonzero.len());
    assert_eq!(m.total(), d.cells.iter().sum::<u64>());
    for col in 0..n {
        let min = (0..n).map(|row| d.cells[row * n + col]).min().unwrap();
        assert_eq!(m.column_min(col), min, "column {col}");
    }
    let mut image = Vec::new();
    m.write_bytes(&mut image);
    assert_eq!(image, d.image(), "the image stays dense and byte-identical");
    let (back, used) = MatrixClock::read_bytes(&image).expect("image reads back");
    assert_eq!((&back, used), (m, image.len()));
    // Equal whatever cells are written: the rebuilt matrix holds only the
    // non-zero cells, `m` may hold cells written back to 0.
    let rebuilt = d.rebuilt();
    assert_eq!(&rebuilt, m);
    assert_eq!(rebuilt.cmp(m), std::cmp::Ordering::Equal);
    assert_eq!(hash_of(&rebuilt), hash_of(m));
    // And a cell written and written back to zero is no cell at all.
    if let Some(i) = d.cells.iter().rposition(|&v| v == 0) {
        let mut churned = m.clone();
        churned.set(i / n, i % n, 1);
        churned.set(i / n, i % n, 0);
        assert_eq!(&churned, m);
        assert_eq!(churned.cmp(m), std::cmp::Ordering::Equal);
        assert_eq!(hash_of(&churned), hash_of(m));
    }
}

proptest! {
    /// `MatrixClock` behaves as the dense matrix it stands for, and compares,
    /// orders and hashes as that matrix does.
    #[test]
    fn matrix_clock_matches_a_dense_reference(
        n in 1usize..81,
        ops_a in prop::collection::vec(op(), 0..40),
        ops_b in prop::collection::vec(op(), 0..40),
        shared in 0usize..40,
    ) {
        let (mut a, mut da) = (MatrixClock::new(n), Dense::new(n));
        let (mut b, mut db) = (MatrixClock::new(n), Dense::new(n));
        // `b` starts with a prefix of `a`'s writes so the two often agree
        // on a long prefix of cells, or on all of them.
        let shared = shared.min(ops_a.len());
        for op in &ops_a[..shared] {
            db.apply(&mut b, op);
        }
        for op in &ops_a {
            da.apply(&mut a, op);
            check(&a, &da);
        }
        for op in &ops_b {
            db.apply(&mut b, op);
        }
        check(&b, &db);
        prop_assert_eq!(a == b, da == db);
        prop_assert_eq!(a.cmp(&b), da.cells.cmp(&db.cells));
        prop_assert_eq!(a.partial_cmp(&b), Some(da.cells.cmp(&db.cells)));
        if a == b {
            prop_assert_eq!(hash_of(&a), hash_of(&b));
        }
        let dominated = |x: &Dense, y: &Dense| x.cells.iter().zip(&y.cells).all(|(p, q)| p <= q);
        prop_assert_eq!(a.dominated_by(&b), dominated(&da, &db));
        prop_assert_eq!(b.dominated_by(&a), dominated(&db, &da));
    }
}
