//! Crash-safety properties of the file-backed storage: torn-write,
//! truncated-tail and flipped-bit recovery.
//!
//! A crash can cut a write at *any* byte, and a disk can return any bit
//! flipped. These tests write a known sequence of records, truncate the
//! file at every byte boundary (the exhaustive crash schedule) or flip a
//! bit in every byte, reopen, and require that the intact record prefix
//! is recovered and the rest rejected cleanly — never a partial record,
//! never an error, never a record that was not written.
//!
//! The second `proptest!` block interleaves several streams and the state
//! stream in one journal, cut and flipped. It runs the default number of
//! cases, which `PROPTEST_CASES` deepens (CI does on pushes to `main`).

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;

use aaa_storage::{Journal, QueueConfig, SegmentQueue, SyncPolicy};
use proptest::prelude::*;

fn tmp_dir(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!(
        "aaa-storage-crash-{name}-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = fs::remove_dir_all(&dir);
    dir
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// SegmentQueue: the exhaustive truncation schedule over one
    /// segment. The recovered queue holds the intact record prefix, the
    /// ack state never exceeds what was journaled before the cut, and the
    /// queue accepts new appends afterwards (the tear is rolled past, not
    /// written behind).
    #[test]
    fn segment_queue_recovers_intact_prefix_at_every_cut(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..24), 1..5),
        ack_first in any::<bool>(),
    ) {
        let dir = tmp_dir("queue-prefix");
        let cfg = QueueConfig { max_depth: 64, ttl_ticks: None, segment_max_records: 64, ..QueueConfig::default() };
        {
            let mut q = SegmentQueue::open(&dir, cfg).unwrap();
            for (i, p) in payloads.iter().enumerate() {
                q.enqueue(i as u64, vec![i as u8], p.clone()).unwrap();
                if ack_first && i == 0 {
                    q.ack_up_to(1).unwrap();
                }
            }
        }
        let seg = dir.join("seg-000000.q");
        let full = fs::read(&seg).unwrap();
        for cut in 0..=full.len() {
            // A fresh directory per cut: recovery must see only the
            // truncated segment, not the previous iteration's roll-over.
            let probe = tmp_dir("queue-probe");
            fs::create_dir_all(&probe).unwrap();
            fs::write(probe.join("seg-000000.q"), &full[..cut]).unwrap();
            let mut q = SegmentQueue::open(&probe, cfg).unwrap();
            // Every recovered entry is one that was written, in order.
            let got: Vec<(u64, Vec<u8>)> =
                q.pending(u64::MAX).map(|e| (e.seq, e.payload.clone())).collect();
            for (seq, payload) in &got {
                let idx = (*seq - 1) as usize;
                prop_assert_eq!(payload, &payloads[idx], "cut {}", cut);
            }
            prop_assert!(q.acked() <= 1, "ack beyond what was journaled (cut {})", cut);
            // The full image must recover everything unacked.
            if cut == full.len() {
                let want = payloads.len() - usize::from(ack_first);
                prop_assert_eq!(got.len(), want);
                prop_assert_eq!(q.acked(), u64::from(ack_first));
            }
            // The tail is rejected *cleanly*: the queue keeps working.
            let seq = q.enqueue(99, vec![], b"post-crash".to_vec()).unwrap();
            prop_assert!(seq > got.last().map(|(s, _)| *s).unwrap_or(0));
            drop(q);
            let reread = SegmentQueue::open(&probe, cfg).unwrap();
            prop_assert_eq!(reread.depth(), got.len() + 1, "cut {}", cut);
            fs::remove_dir_all(&probe).unwrap();
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}

/// What the journal holds after a prefix of its records: per stream, the
/// payloads enqueued so far and the ack watermark; and the state records.
#[derive(Debug, Clone, Default)]
struct Model {
    streams: BTreeMap<u64, (Vec<Vec<u8>>, u64)>,
    state: Vec<Vec<u8>>,
}

/// Streams of the interleaved journal.
const STREAMS: u64 = 3;

/// One committed operation: on `stream`, an enqueue of `payload`, an ack
/// (an enqueue when nothing is left to ack) or, instead, a state record.
type Op = (u64, u8, Vec<u8>);

fn ops() -> impl Strategy<Value = Vec<Op>> {
    prop::collection::vec(
        (0..STREAMS, 0u8..3, prop::collection::vec(any::<u8>(), 0..6)),
        1..9,
    )
}

/// Recovery does not depend on the sync policy; page-cache writes keep
/// the exhaustive schedules cheap.
fn journal_cfg() -> QueueConfig {
    QueueConfig {
        max_depth: 64,
        segment_max_records: 64,
        sync: SyncPolicy::OsBuffered,
        ..QueueConfig::default()
    }
}

/// Journals `ops` into one segment, each committed by `sync`. Returns the
/// segment's bytes and the model after each committed record, keyed by
/// the segment length at that point.
fn committed_journal(ops: &[Op]) -> (Vec<u8>, Vec<(u64, Model)>) {
    let dir = tmp_dir("journal-ops");
    let seg = dir.join("seg-000000.q");
    let mut committed: Vec<(u64, Model)> = vec![(0, Model::default())];
    {
        let mut j = Journal::open(&dir, journal_cfg()).unwrap();
        let mut model = Model::default();
        for (stream, kind, payload) in ops {
            let (payloads, acked) = model.streams.entry(*stream).or_default();
            if *kind == 2 {
                j.append_state(payload).unwrap();
                model.state.push(payload.clone());
            } else if *kind == 1 && (payloads.len() as u64) > *acked {
                *acked += 1;
                assert_eq!(j.ack_up_to(*stream, *acked).unwrap(), 1);
            } else {
                j.enqueue(*stream, 0, vec![*stream as u8], payload.clone())
                    .unwrap();
                payloads.push(payload.clone());
            }
            j.sync().unwrap();
            committed.push((fs::metadata(&seg).unwrap().len(), model.clone()));
        }
    }
    let full = fs::read(&seg).unwrap();
    fs::remove_dir_all(&dir).unwrap();
    (full, committed)
}

/// The model of the records wholly before byte `at` of the segment, and
/// where the record holding byte `at` starts.
fn committed_before(committed: &[(u64, Model)], at: usize) -> (u64, &Model) {
    let (len, model) = committed
        .iter()
        .rev()
        .find(|(len, _)| *len <= at as u64)
        .unwrap();
    (*len, model)
}

/// Opens `segment` as a journal of its own and checks that it recovered
/// exactly `want`, then that every stream (and the state stream) keeps
/// appending and the appends survive a reopen.
fn recovers_exactly(segment: &[u8], want: &Model, what: &str) -> u64 {
    let probe = tmp_dir("journal-probe");
    fs::create_dir_all(&probe).unwrap();
    fs::write(probe.join("seg-000000.q"), segment).unwrap();
    let cfg = journal_cfg();
    let mut j = Journal::open(&probe, cfg).unwrap();
    let anomalies = j.recovery_anomalies();
    for stream in 0..STREAMS {
        let (payloads, acked) = want.streams.get(&stream).cloned().unwrap_or_default();
        prop_assert_eq!(j.acked(stream), acked, "stream {} {}", stream, what);
        let got: Vec<(u64, Vec<u8>)> = j
            .pending_after(stream, 0, 0)
            .map(|e| (e.seq, e.payload.clone()))
            .collect();
        let expect: Vec<(u64, Vec<u8>)> = (1u64..)
            .zip(payloads.iter().cloned())
            .skip(acked as usize)
            .collect();
        prop_assert_eq!(got, expect, "stream {} {}", stream, what);
        prop_assert_eq!(j.next_seq(stream), payloads.len() as u64 + 1);
    }
    let state: Vec<Vec<u8>> = j.take_state_tail().into_iter().map(|(_, r)| r).collect();
    prop_assert_eq!(&state, &want.state, "state {}", what);
    prop_assert_eq!(j.state_seq(), want.state.len() as u64);
    // The rejected tail is left behind *cleanly*: everything keeps working.
    for stream in 0..STREAMS {
        j.enqueue(stream, 1, vec![], b"post-crash".to_vec())
            .unwrap();
    }
    j.append_state(b"post-crash").unwrap();
    j.sync().unwrap();
    drop(j);
    let mut reread = Journal::open(&probe, cfg).unwrap();
    for stream in 0..STREAMS {
        let (payloads, acked) = want.streams.get(&stream).cloned().unwrap_or_default();
        prop_assert_eq!(
            reread.depth(stream),
            payloads.len() - acked as usize + 1,
            "stream {} {}",
            stream,
            what
        );
    }
    prop_assert_eq!(
        reread.take_state_tail().len(),
        want.state.len() + 1,
        "{}",
        what
    );
    fs::remove_dir_all(&probe).unwrap();
    anomalies
}

proptest! {
    /// Journal: records of several streams and of the state stream
    /// interleaved in one segment, each committed by `sync`, then the
    /// segment cut at every byte. Every stream recovers exactly the state
    /// of the records wholly before the cut — an intact prefix of its own
    /// history, with no ack beyond what was journaled — and every stream
    /// accepts appends afterwards.
    #[test]
    fn journal_streams_recover_intact_prefixes_at_every_cut(ops in ops()) {
        let (full, committed) = committed_journal(&ops);
        for cut in 0..=full.len() {
            let (_, want) = committed_before(&committed, cut);
            let anomalies = recovers_exactly(&full[..cut], want, &format!("cut {cut}"));
            prop_assert_eq!(anomalies, 0, "a cut is a crash, not corruption");
        }
    }

    /// Journal: the same segment with one bit flipped, at every byte in
    /// turn. Recovery reads every record before the flipped one and
    /// nothing from it on — the flip never surfaces as a record that was
    /// not written — counts a checksum mismatch as one anomaly, and the
    /// journal keeps appending.
    #[test]
    fn journal_recovers_the_records_before_a_flipped_bit(ops in ops(), bit in 0u8..8) {
        let (full, committed) = committed_journal(&ops);
        for at in 0..full.len() {
            let mut flipped = full.clone();
            flipped[at] ^= 1 << bit;
            let (start, want) = committed_before(&committed, at);
            let what = format!("bit {bit} of byte {at}");
            let anomalies = recovers_exactly(&flipped, want, &what);
            // A flipped length prefix may send the record past the end of
            // the segment, which reads as a torn tail; anything else fails
            // the record's checksum.
            let in_length_prefix = (at as u64) < start + 4;
            prop_assert!(
                anomalies == 1 || (in_length_prefix && anomalies == 0),
                "{} anomalies, {}", anomalies, what
            );
        }
    }
}
