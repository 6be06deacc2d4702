//! Property-based tests for the wire codec and the reliable link.
//!
//! The second `proptest!` block is the decoders': the packed stamp entry
//! list of tag 6 must round-trip any list, refuse every malformed
//! input with `Error::Codec`, and never allocate out of proportion to the
//! bytes they were given; a link datagram (tags 0, 1 and 2) must
//! round-trip, and arbitrary bytes behind each tag must decode or be
//! refused under the same allocation bound. A packed list decodes as a view
//! of its frame, with no allocator call at all, and is refused exactly
//! where a plain reference reader of the layout, kept here, refuses it. It
//! runs the default number of cases, which `PROPTEST_CASES` deepens (CI
//! does on pushes to `main`). The same counting allocator holds the
//! receiver's in-order path to no allocation.

// The counting allocator below is this package's one piece of `unsafe`; it
// forwards every call to `System` unchanged. See `[lints]` in the manifest.
#![allow(unsafe_code)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use aaa_base::{AgentId, DomainId, Error, MessageId, ServerId, VDuration, VTime};
use aaa_clocks::{MatrixClock, PackedEntries, Stamp, UpdateEntry};
use aaa_net::link::Datagram;
use aaa_net::wire::{Decoder, Encoder};
use aaa_net::{LinkFrame, LinkReceiver, LinkSender, WireMessage};
use bytes::Bytes;
use proptest::prelude::*;

thread_local! {
    /// Bytes this thread has requested from the allocator. Per thread —
    /// where `crates/clocks/tests/alloc.rs`, the pattern's origin, has one
    /// test and one global — because the tests of this file run in
    /// parallel.
    static ALLOCATED: Cell<usize> = const { Cell::new(0) };
}

struct CountingAlloc;

impl CountingAlloc {
    fn count(size: usize) {
        ALLOCATED.with(|bytes| bytes.set(bytes.get().wrapping_add(size)));
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counting touches no allocation.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: the caller's `layout` is passed through as received.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        Self::count(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        Self::count(new_size);
        // SAFETY: `ptr` and `layout` describe a block this allocator handed
        // out, which means `System` did.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: as for `realloc`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Bytes this thread requests from the allocator while `f` runs.
fn allocated_by<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCATED.with(Cell::get);
    let out = f();
    (out, ALLOCATED.with(Cell::get).wrapping_sub(before))
}

/// Entry lists as no clock emits them: unsorted, cells repeated, rows that
/// come back, coordinates and values at the varint width boundaries.
fn arb_entries() -> impl Strategy<Value = Vec<UpdateEntry>> {
    let coord = || {
        prop_oneof![
            0u16..64,
            Just(127u16),
            Just(128u16),
            Just(u16::MAX),
            any::<u16>()
        ]
    };
    let value = prop_oneof![
        0u64..1000,
        Just(0u64),
        Just(127u64),
        Just(128u64),
        Just(1u64 << 56),
        Just(u64::MAX),
        any::<u64>(),
    ];
    prop::collection::vec((coord(), coord(), value), 0..40).prop_map(|es| {
        es.into_iter()
            .map(|(row, col, value)| UpdateEntry { row, col, value })
            .collect()
    })
}

/// A delta stamp over [`arb_entries`].
fn arb_delta() -> impl Strategy<Value = Stamp> {
    arb_entries().prop_map(|entries| Stamp::Delta(PackedEntries::new(&entries)))
}

/// The tag a delta stamp is written under, and the decode-only tag of the
/// fixed-width list older builds wrote it under.
const PACKED_TAG: u8 = 6;
const FIXED_WIDTH_TAG: u8 = 1;

fn encoded(stamp: &Stamp) -> Bytes {
    let mut e = Encoder::new();
    e.stamp(stamp);
    e.finish()
}

/// Decodes `input` — a stamp tag and what follows — holding the decoder
/// to its allocation bound: whatever the bytes, at most `16·N + 64` bytes
/// for `N` of input (an entry is 16 bytes in memory and at least 2 on the
/// wire; a refusal costs its reason).
fn decode_bounded(input: Bytes) -> aaa_base::Result<Stamp> {
    let n = input.len();
    let (result, allocated) = allocated_by(|| Decoder::new(input).stamp());
    assert!(
        allocated <= 16 * n + 64,
        "{allocated} B allocated decoding {n} B"
    );
    result
}

/// Decodes a link datagram under [`decode_bounded`]'s allocation bound.
fn decode_datagram_bounded(input: Bytes) -> aaa_base::Result<Datagram> {
    let n = input.len();
    let (result, allocated) = allocated_by(|| Datagram::decode(input));
    assert!(
        allocated <= 16 * n + 64,
        "{allocated} B allocated decoding a {n} B datagram"
    );
    result
}

fn arb_frames() -> impl Strategy<Value = Vec<LinkFrame>> {
    prop::collection::vec(
        (any::<u64>(), prop::collection::vec(any::<u8>(), 0..64)),
        1..40,
    )
    .prop_map(|frames| {
        (frames.into_iter())
            .map(|(seq, payload)| LinkFrame {
                seq,
                payload: Bytes::from(payload),
            })
            .collect()
    })
}

fn refused(input: &[u8]) -> String {
    match decode_bounded(Bytes::from(input.to_vec())) {
        Err(Error::Codec(why)) => why,
        other => panic!("{input:?} decoded as {other:?}"),
    }
}

fn arb_stamp() -> impl Strategy<Value = Option<Stamp>> {
    prop_oneof![
        Just(None),
        (1usize..8, prop::collection::vec(0u64..100, 0..64)).prop_map(|(n, cells)| {
            let mut m = MatrixClock::new(n);
            for (k, v) in cells.into_iter().enumerate() {
                m.set(k / n % n, k % n, v);
            }
            Some(Stamp::Full(m))
        }),
        arb_delta().prop_map(Some),
    ]
}

fn arb_message() -> impl Strategy<Value = WireMessage> {
    (
        0u16..100,
        0u64..1_000_000,
        (0u16..100, 0u32..50),
        (0u16..100, 0u32..50),
        0u16..100,
        0u16..100,
        0u16..20,
        arb_stamp(),
        "[a-z]{0,12}",
        prop::collection::vec(any::<u8>(), 0..200),
    )
        .prop_map(
            |(origin, seq, from, to, src, dest, domain, stamp, kind, body)| WireMessage {
                id: MessageId::new(ServerId::new(origin), seq),
                from_agent: AgentId::new(ServerId::new(from.0), from.1),
                to_agent: AgentId::new(ServerId::new(to.0), to.1),
                src_server: ServerId::new(src),
                dest_server: ServerId::new(dest),
                domain: DomainId::new(domain),
                stamp,
                kind: kind.into(),
                body: Bytes::from(body),
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Wire messages round-trip exactly through the codec.
    #[test]
    fn wire_message_roundtrip(msg in arb_message()) {
        let decoded = WireMessage::decode(msg.encode()).expect("decodes");
        prop_assert_eq!(decoded, msg);
    }

    /// Datagrams round-trip exactly.
    #[test]
    fn datagram_roundtrip(seq in 0u64..u64::MAX, payload in prop::collection::vec(any::<u8>(), 0..300)) {
        let d = Datagram::Data(LinkFrame { seq, payload: Bytes::from(payload) });
        prop_assert_eq!(Datagram::decode(d.encode()).expect("decodes"), d);
        let a = Datagram::Ack { cum_seq: seq };
        prop_assert_eq!(Datagram::decode(a.encode()).expect("decodes"), a);
    }

    /// Truncating an encoded message anywhere never panics — it errors.
    #[test]
    fn truncated_messages_error_cleanly(msg in arb_message(), cut in 0usize..100) {
        let bytes = msg.encode();
        prop_assume!(!bytes.is_empty());
        let cut = cut % bytes.len();
        let res = WireMessage::decode(bytes.slice(0..cut));
        prop_assert!(res.is_err());
    }

    /// Under any adversarial schedule of loss, duplication and reordering,
    /// the reliable link delivers exactly the sent sequence, in order.
    ///
    /// Schedule encoding: each sent frame gets a list of "transmission
    /// attempts"; each attempt is delivered or lost; delivered attempts
    /// are processed in an order chosen by the permutation seed.
    #[test]
    fn link_is_exactly_once_fifo(
        payloads in prop::collection::vec(prop::collection::vec(any::<u8>(), 0..20), 1..30),
        loss_pattern in prop::collection::vec(any::<bool>(), 1..30),
        shuffle in any::<u64>(),
    ) {
        let rto = VDuration::from_millis(10);
        let mut tx = LinkSender::with_rto(rto);
        let mut rx = LinkReceiver::new();
        let mut now = VTime::ZERO;

        // First transmissions, some lost.
        let mut in_flight: Vec<LinkFrame> = Vec::new();
        for (i, p) in payloads.iter().enumerate() {
            let frame = tx.send(Bytes::from(p.clone()), now);
            if !loss_pattern[i % loss_pattern.len()] {
                in_flight.push(frame);
            }
        }

        // Deterministic shuffle of the surviving first attempts.
        let mut order: Vec<usize> = (0..in_flight.len()).collect();
        let mut state = shuffle | 1;
        for i in (1..order.len()).rev() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            order.swap(i, (state >> 33) as usize % (i + 1));
        }

        let mut delivered: Vec<Bytes> = Vec::new();
        for &i in &order {
            let out = rx.on_frame(in_flight[i].clone());
            delivered.extend(out.delivered);
            if let Some(a) = out.ack {
                tx.on_ack(a);
            }
        }

        // Retransmission rounds until everything is through.
        for _ in 0..payloads.len() + 2 {
            now += VDuration::from_millis(20);
            for frame in tx.due_retransmissions(now) {
                let out = rx.on_frame(frame);
                delivered.extend(out.delivered);
                if let Some(a) = out.ack {
                    tx.on_ack(a);
                }
            }
        }

        prop_assert_eq!(tx.in_flight(), 0, "all frames must be acknowledged");
        let expected: Vec<Bytes> = payloads.into_iter().map(Bytes::from).collect();
        prop_assert_eq!(delivered, expected, "exactly-once FIFO delivery");
    }

    /// Duplicated frames (e.g. spurious retransmissions) never produce
    /// duplicate deliveries.
    #[test]
    fn duplicates_never_deliver_twice(
        count in 1usize..20,
        dup_factor in 2usize..4,
    ) {
        let mut tx = LinkSender::new();
        let mut rx = LinkReceiver::new();
        let mut delivered = 0usize;
        for i in 0..count {
            let frame = tx.send(Bytes::from(vec![i as u8]), VTime::ZERO);
            for _ in 0..dup_factor {
                delivered += rx.on_frame(frame.clone()).delivered.len();
            }
        }
        prop_assert_eq!(delivered, count);
    }
}

proptest! {
    /// Any entry list survives the packed encoding exactly, under the
    /// packed tag, in exactly `encoded_len()` bytes after it.
    #[test]
    fn packed_stamps_roundtrip(stamp in arb_delta()) {
        let bytes = encoded(&stamp);
        prop_assert_eq!(bytes.first(), Some(&PACKED_TAG));
        prop_assert_eq!(bytes.len(), stamp.encoded_len() + 1);
        prop_assert_eq!(decode_bounded(bytes).expect("decodes"), stamp);
    }

    /// The fixed-width list of tag 1 — what older builds left in
    /// unacknowledged frames and relay journals — still decodes to the
    /// same stamp, which goes back out packed.
    #[test]
    fn fixed_width_tags_decode_and_reencode_packed(stamp in arb_delta()) {
        let Stamp::Delta(entries) = &stamp else {
            unreachable!("arb_delta yields delta stamps");
        };
        let mut e = Encoder::new();
        e.u8(FIXED_WIDTH_TAG).count(entries.len());
        for entry in entries.iter() {
            e.u16(entry.row).u16(entry.col).u64(entry.value);
        }
        let decoded = decode_bounded(e.finish()).expect("decodes");
        prop_assert_eq!(&decoded, &stamp);
        prop_assert_eq!(encoded(&decoded).first(), Some(&PACKED_TAG));
    }

    /// Every strict prefix of a valid encoding is refused, as a codec
    /// error.
    #[test]
    fn truncated_packed_stamps_are_refused(stamp in arb_delta()) {
        let bytes = encoded(&stamp);
        // From 1: the bound is for what follows a packed tag (with no tag
        // at all, `Decoder`'s own "truncated frame" reason is 80 bytes).
        for cut in 1..bytes.len() {
            let res = decode_bounded(bytes.slice(0..cut));
            prop_assert!(matches!(res, Err(Error::Codec(_))), "cut at {cut}: {res:?}");
        }
        prop_assert!(matches!(Decoder::new(Bytes::new()).stamp(), Err(Error::Codec(_))));
    }

    /// Arbitrary bytes behind the packed tag — random, or a valid encoding
    /// with bytes overwritten — decode or are refused; nothing panics and
    /// the allocation bound holds. What decodes re-encodes to itself.
    #[test]
    fn byte_soup_after_packed_tags_never_panics(
        stamp in arb_delta(),
        soup in prop::collection::vec(any::<u8>(), 0..64),
        damage in prop::collection::vec((any::<usize>(), any::<u8>()), 0..4),
    ) {
        let mut raw = vec![PACKED_TAG];
        raw.extend_from_slice(&soup);
        let mut damaged = encoded(&stamp).to_vec();
        for (at, byte) in damage {
            let at = 1 + at % damaged.len();
            if let Some(slot) = damaged.get_mut(at) {
                *slot = byte;
            }
        }
        for input in [raw, damaged] {
            match decode_bounded(Bytes::from(input)) {
                Ok(decoded) => {
                    let again = decode_bounded(encoded(&decoded)).expect("decodes");
                    prop_assert_eq!(again, decoded);
                }
                Err(Error::Codec(_)) => {}
                Err(other) => panic!("not a codec error: {other}"),
            }
        }
    }
}

/// The packed layout read the plain way, into a list: `count`, then per
/// run `row`, `run_len` and `run_len` × (`col`, `value`), every field an
/// LEB128 varint of at most ten bytes that fits 64 bits, coordinates
/// within `u16`, no empty run, no run longer than the entries owed, and
/// never more entries than half the bytes after the count. Returns the
/// entries and the bytes they took, or `None` where the layout is broken:
/// the oracle the decoder's one-pass check is held to.
fn reference_unpack(input: &[u8]) -> Option<(Vec<UpdateEntry>, usize)> {
    fn varint(input: &mut &[u8]) -> Option<u64> {
        let mut v = 0u64;
        for i in 0..10 {
            let (&byte, rest) = input.split_first()?;
            *input = rest;
            let bits = u64::from(byte & 0x7f);
            if i == 9 && bits > 1 {
                return None;
            }
            v |= bits << (7 * i);
            if byte < 0x80 {
                return Some(v);
            }
        }
        None
    }
    let coord = |input: &mut &[u8]| u16::try_from(varint(input)?).ok();
    let mut rest = input;
    let count = usize::try_from(varint(&mut rest)?).ok()?;
    if count > rest.len() / 2 {
        return None;
    }
    let mut entries = Vec::new();
    while entries.len() < count {
        let row = coord(&mut rest)?;
        let run = usize::try_from(varint(&mut rest)?).ok()?;
        if run == 0 || run > count - entries.len() {
            return None;
        }
        for _ in 0..run {
            let col = coord(&mut rest)?;
            let value = varint(&mut rest)?;
            entries.push(UpdateEntry { row, col, value });
        }
    }
    Some((entries, input.len() - rest.len()))
}

proptest! {
    /// A packed stamp decodes without a single allocator call — a long
    /// list as a view of the frame it was read from, a short one copied —
    /// and leaves what follows it unread.
    #[test]
    fn packed_stamps_decode_as_views_without_allocating(
        stamp in arb_delta(),
        tail in prop::collection::vec(any::<u8>(), 0..8),
    ) {
        let mut raw = encoded(&stamp).to_vec();
        raw.extend_from_slice(&tail);
        let frame = Bytes::from(raw);
        let span = frame.as_ptr_range();
        let mut d = Decoder::new(frame.clone());
        let (decoded, allocated) = allocated_by(|| d.stamp());
        prop_assert_eq!(allocated, 0);
        let decoded = decoded.expect("decodes");
        let Stamp::Delta(list) = &decoded else {
            unreachable!("a packed tag decodes to a delta");
        };
        // `arb_entries` makes lists on both sides of the inline bound.
        let long = list.as_bytes().len() > PackedEntries::INLINE;
        let view = span.contains(&list.as_bytes().as_ptr());
        prop_assert_eq!(view, long, "a view of the frame exactly when too long to hold inline");
        prop_assert_eq!(&decoded, &stamp);
        prop_assert_eq!(d.remaining(), tail.len());
    }

    /// Arbitrary bytes behind the packed tag — random, or a valid list
    /// with bytes overwritten — are refused exactly where the reference
    /// reader refuses them; what is accepted has the reference's entries,
    /// count, extent and length.
    #[test]
    fn packed_lists_are_refused_where_the_reference_refuses(
        stamp in arb_delta(),
        soup in prop::collection::vec(any::<u8>(), 0..64),
        damage in prop::collection::vec((any::<usize>(), any::<u8>()), 0..4),
    ) {
        let mut damaged = encoded(&stamp).to_vec();
        for (at, byte) in damage {
            let at = 1 + at % damaged.len();
            if let Some(slot) = damaged.get_mut(at) {
                *slot = byte;
            }
        }
        for body in [soup, damaged.split_off(1)] {
            let reference = reference_unpack(&body);
            let mut input = vec![PACKED_TAG];
            input.extend_from_slice(&body);
            match (decode_bounded(Bytes::from(input)), reference) {
                (Ok(Stamp::Delta(list)), Some((entries, used))) => {
                    prop_assert_eq!(list.iter().collect::<Vec<_>>(), entries.clone());
                    prop_assert_eq!(list.len(), entries.len());
                    let width = entries.iter().map(|e| usize::from(e.row.max(e.col)) + 1).max();
                    prop_assert_eq!(list.width(), width.unwrap_or(0));
                    prop_assert_eq!(list.as_bytes(), &body[..used]);
                }
                (Err(Error::Codec(_)), None) => {}
                (got, want) => panic!("decoded {got:?}, the reference read {want:?}"),
            }
        }
    }
}

proptest! {
    /// Multi-frame batches round-trip exactly, under the batch tag.
    #[test]
    fn batch_datagrams_roundtrip(frames in arb_frames()) {
        let d = Datagram::Batch(frames);
        let bytes = d.encode();
        prop_assert_eq!(bytes.first(), Some(&2));
        prop_assert_eq!(decode_datagram_bounded(bytes).expect("decodes"), d);
    }

    /// Arbitrary bytes behind each datagram tag — random, or a valid batch
    /// with bytes overwritten — decode or are refused as a codec error;
    /// nothing panics and the allocation bound holds. What decodes
    /// re-encodes to a datagram that decodes to itself.
    #[test]
    fn byte_soup_behind_datagram_tags_never_panics(
        tag in 0u8..3,
        soup in prop::collection::vec(any::<u8>(), 0..96),
        frames in arb_frames(),
        damage in prop::collection::vec((any::<usize>(), any::<u8>()), 0..4),
    ) {
        let mut raw = vec![tag];
        raw.extend_from_slice(&soup);
        let mut damaged = Datagram::Batch(frames).encode().to_vec();
        for (at, byte) in damage {
            let at = 1 + at % (damaged.len() - 1);
            damaged[at] = byte;
        }
        for input in [raw, damaged] {
            match decode_datagram_bounded(Bytes::from(input)) {
                Ok(decoded) => {
                    let again = decode_datagram_bounded(decoded.encode()).expect("decodes");
                    prop_assert_eq!(again, decoded);
                }
                Err(Error::Codec(_)) => {}
                Err(other) => panic!("not a codec error: {other}"),
            }
        }
    }
}

/// The malformed packed lists the decoder must name, each behind the
/// packed tag.
#[test]
fn malformed_packed_stamps_are_refused_by_name() {
    let mut max = vec![0xff; 10];
    max[9] = 0x01;
    let cases: [(&[u8], &str); 9] = [
        // A varint of eleven bytes, as a count.
        (&[0x80; 11], "longer than 10 bytes"),
        // A tenth byte carrying more than bit 63.
        (
            &[0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02],
            "overflows 64 bits",
        ),
        // One entry owed, a run of none.
        (&[1, 0, 0, 0, 0], "empty or longer"),
        // One entry owed, a run of two.
        (&[1, 0, 2, 0, 0, 0, 0], "empty or longer"),
        // 2³² − 1 entries over eight bytes.
        (
            &[0xff, 0xff, 0xff, 0xff, 0x0f, 0, 1, 0, 0, 0, 0, 0, 0],
            "more packed entries than bytes",
        ),
        // Two entries need four bytes; three remain.
        (&[2, 0, 2, 0], "more packed entries than bytes"),
        // Row, then column, 2¹⁶.
        (&[1, 0x80, 0x80, 0x04, 1, 0, 0], "above u16::MAX"),
        (&[1, 0, 1, 0x80, 0x80, 0x04, 0], "above u16::MAX"),
        // The count alone.
        (&[1], "more packed entries than bytes"),
    ];
    for (body, why) in cases {
        let mut input = vec![PACKED_TAG];
        input.extend_from_slice(body);
        let got = refused(&input);
        assert!(got.contains(why), "{input:?}: {got}");
    }
    // The widest legal varint is not among them.
    let mut input = vec![PACKED_TAG, 1, 0, 1, 0];
    input.extend_from_slice(&max);
    let entries = vec![UpdateEntry {
        row: 0,
        col: 0,
        value: u64::MAX,
    }];
    let stamp = decode_bounded(Bytes::from(input)).expect("decodes");
    assert_eq!(stamp, Stamp::Delta(PackedEntries::new(&entries)));
}

/// A frame that arrives in order passes through the receiver without
/// allocating: it never enters the reorder map, and its one payload is
/// appended to the caller's buffer.
#[test]
fn in_order_frames_allocate_nothing() {
    let mut rx = LinkReceiver::new();
    let frames: Vec<LinkFrame> = (1..=64u8)
        .map(|seq| LinkFrame {
            seq: u64::from(seq),
            payload: Bytes::from(vec![seq; 16]),
        })
        .collect();
    let mut delivered = Vec::with_capacity(frames.len());
    for frame in frames {
        let seq = frame.seq;
        let (ack, allocated) = allocated_by(|| rx.on_frame_into(frame, &mut delivered));
        assert_eq!(delivered.len() as u64, seq, "frame {seq} delivered");
        assert_eq!(ack, seq);
        assert_eq!(
            allocated, 0,
            "in-order frame {seq} allocated {allocated} bytes"
        );
    }
}
