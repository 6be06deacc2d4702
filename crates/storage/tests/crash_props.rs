//! Crash-safety properties of the file-backed storage: torn-write and
//! truncated-tail recovery.
//!
//! A crash can cut a write at *any* byte. These tests write a known
//! sequence of records, truncate the file at every byte boundary (the
//! exhaustive crash schedule), reopen, and require that the intact record
//! prefix is recovered and the torn tail rejected cleanly — never a
//! partial record, never an error, never a record that was not written.
//!
//! The second `proptest!` block interleaves several streams in one
//! journal. It runs the default number of cases, which `PROPTEST_CASES`
//! deepens (CI does on pushes to `main`).

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

/// Per stream: the payloads enqueued so far and the ack watermark.
type Model = BTreeMap<u64, (Vec<Vec<u8>>, u64)>;

/// Streams of the interleaved journal.
const STREAMS: u64 = 3;

proptest! {
    /// Journal: records of several streams interleaved in one segment,
    /// each committed by `sync`, then the segment cut at every byte. Every
    /// stream recovers exactly the state of the records wholly before the
    /// cut — an intact prefix of its own history, with no ack beyond what
    /// was journaled — and every stream accepts appends afterwards.
    #[test]
    fn journal_streams_recover_intact_prefixes_at_every_cut(
        ops in prop::collection::vec(
            (0..STREAMS, any::<bool>(), prop::collection::vec(any::<u8>(), 0..6)),
            1..9,
        ),
    ) {
        let dir = tmp_dir("journal-prefix");
        // Recovery does not depend on the sync policy; page-cache writes
        // keep the exhaustive schedule cheap.
        let cfg = QueueConfig {
            max_depth: 64,
            segment_max_records: 64,
            sync: SyncPolicy::OsBuffered,
            ..QueueConfig::default()
        };
        let seg = dir.join("seg-000000.q");
        // The model after each committed record, keyed by segment length.
        let mut committed: Vec<(u64, Model)> = vec![(0, Model::new())];
        {
            let mut j = Journal::open(&dir, cfg).unwrap();
            let mut model = Model::new();
            for (stream, ack, payload) in &ops {
                let (payloads, acked) = model.entry(*stream).or_default();
                if *ack && (payloads.len() as u64) > *acked {
                    *acked += 1;
                    prop_assert_eq!(j.ack_up_to(*stream, *acked).unwrap(), 1);
                } else {
                    j.enqueue(*stream, 0, vec![*stream as u8], payload.clone()).unwrap();
                    payloads.push(payload.clone());
                }
                j.sync().unwrap();
                committed.push((fs::metadata(&seg).unwrap().len(), model.clone()));
            }
        }
        let full = fs::read(&seg).unwrap();
        for cut in 0..=full.len() {
            let probe = tmp_dir("journal-probe");
            fs::create_dir_all(&probe).unwrap();
            fs::write(probe.join("seg-000000.q"), &full[..cut]).unwrap();
            let mut j = Journal::open(&probe, cfg).unwrap();
            let want = &committed
                .iter()
                .rev()
                .find(|(len, _)| *len <= cut as u64)
                .unwrap()
                .1;
            for stream in 0..STREAMS {
                let (payloads, acked) = want.get(&stream).cloned().unwrap_or_default();
                prop_assert_eq!(j.acked(stream), acked, "stream {} cut {}", stream, cut);
                let got: Vec<(u64, Vec<u8>)> = j
                    .pending_after(stream, 0, 0)
                    .map(|e| (e.seq, e.payload.clone()))
                    .collect();
                let expect: Vec<(u64, Vec<u8>)> = (1u64..)
                    .zip(payloads.iter().cloned())
                    .skip(acked as usize)
                    .collect();
                prop_assert_eq!(got, expect, "stream {} cut {}", stream, cut);
                prop_assert_eq!(j.next_seq(stream), payloads.len() as u64 + 1);
            }
            // The tail is rejected *cleanly*: every stream keeps working.
            for stream in 0..STREAMS {
                j.enqueue(stream, 1, vec![], b"post-crash".to_vec()).unwrap();
            }
            j.sync().unwrap();
            drop(j);
            let reread = Journal::open(&probe, cfg).unwrap();
            for stream in 0..STREAMS {
                let (payloads, acked) = want.get(&stream).cloned().unwrap_or_default();
                prop_assert_eq!(
                    reread.depth(stream),
                    payloads.len() - acked as usize + 1,
                    "stream {} cut {}", stream, cut
                );
            }
            fs::remove_dir_all(&probe).unwrap();
        }
        fs::remove_dir_all(&dir).unwrap();
    }
}
