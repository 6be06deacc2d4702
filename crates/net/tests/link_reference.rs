//! `LinkReceiver` against a reference that keeps every arrival in a
//! `BTreeMap`: the receiver's in-order path skips the map, and must not be
//! told apart from it.
//!
//! Arrival orders are random sequence numbers with gaps, duplicates and
//! stale frames, from a fresh or a restored receiver. Every copy of a
//! frame carries its own payload, so the test also sees *which* copy was
//! delivered. After every frame both sides must release the same payloads
//! and the same cumulative ack, and hold the same state. The block runs the
//! default number of cases, which `PROPTEST_CASES` deepens.

use std::collections::BTreeMap;

use aaa_net::{LinkFrame, LinkReceiver};
use bytes::Bytes;
use proptest::prelude::*;

/// The receiver as specified: buffer anything ahead of the cumulative
/// sequence number (the first copy wins), then release the contiguous run.
struct Reference {
    cum: u64,
    buffered: BTreeMap<u64, Bytes>,
}

impl Reference {
    fn on_frame(&mut self, seq: u64, payload: Bytes) -> (Vec<Bytes>, Option<u64>) {
        if seq > self.cum {
            self.buffered.entry(seq).or_insert(payload);
        }
        let mut delivered = Vec::new();
        while let Some(payload) = self.buffered.remove(&(self.cum + 1)) {
            self.cum += 1;
            delivered.push(payload);
        }
        (delivered, Some(self.cum))
    }
}

/// How far behind the cumulative sequence number an arrival may be.
const BEHIND: u64 = 8;

/// Arrivals as offsets from `BEHIND` frames before the cumulative sequence
/// number: mostly the next few frames, some far ahead, some already
/// delivered.
fn arrivals() -> impl Strategy<Value = Vec<u64>> {
    let next = BEHIND + 1;
    prop::collection::vec(
        prop_oneof![
            next..next + 3,
            next..next + 11,
            next..next + 47,
            0..next + 1
        ],
        0..160,
    )
}

proptest! {
    #[test]
    fn in_order_path_matches_the_map_only_reference(
        start in prop_oneof![Just(0u64), 0u64..20],
        steps in arrivals(),
    ) {
        let mut rx = LinkReceiver::restore(start);
        let mut reference = Reference { cum: start, buffered: BTreeMap::new() };
        for (i, step) in steps.into_iter().enumerate() {
            // The window moves along as frames get through.
            let seq = (reference.cum + step).saturating_sub(BEHIND);
            let payload = Bytes::from(format!("{seq}/{i}").into_bytes());
            let frame = LinkFrame { seq, payload: payload.clone() };
            let got = rx.on_frame(frame);
            let (delivered, ack) = reference.on_frame(seq, payload);
            prop_assert_eq!(got.delivered.into_iter().collect::<Vec<Bytes>>(), delivered);
            prop_assert_eq!(got.ack, ack);
            prop_assert_eq!(rx.cum_seq(), reference.cum);
            prop_assert_eq!(rx.buffered(), reference.buffered.len());
        }
    }
}
