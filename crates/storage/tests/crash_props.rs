//! Crash-safety properties of the file-backed storage: torn-write and
//! truncated-tail recovery.
//!
//! A crash can cut a write at *any* byte. These tests write a known
//! sequence of records, truncate the file at every byte boundary (the
//! exhaustive crash schedule), reopen, and require that the intact record
//! prefix is recovered and the torn tail rejected cleanly — never a
//! partial record, never an error, never a record that was not written.

use std::fs;
use std::path::PathBuf;

use aaa_storage::{QueueConfig, SegmentQueue};
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
