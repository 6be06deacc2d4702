//! Byte-soup properties of the clock's own image decoders,
//! `CausalState::read_bytes` and `PendingStamp::read_bytes`, which a
//! recovering server reaches through every checkpoint and state record.
//!
//! Whatever the bytes, decoding returns or refuses with `None`, never
//! panics, and allocates at most `16·N + 64` bytes for `N` bytes of input
//! — the bound the wire, checkpoint and state-record decoders are held to.
//! What decodes re-encodes to exactly the bytes it consumed. Inputs are
//! real images of `Full` and `Updates` states and of their pending stamps,
//! cut at every byte or with every byte overwritten, and random bytes
//! behind a real image's header. The proptest block runs the default
//! number of cases, which `PROPTEST_CASES` deepens.

mod common;

use std::sync::OnceLock;

use aaa_base::DomainServerId;
use aaa_clocks::{Batching, CausalState, PendingStamp, StampMode};
use common::allocated_by;
use proptest::prelude::*;

/// Which decoder an image is for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Image {
    State,
    Pending,
}

/// Runs `read` on `input`, holding it to `16·N + 64` bytes of allocation
/// for `N` bytes of input.
fn bounded<T>(input: &[u8], read: impl FnOnce(&[u8]) -> Option<T>) -> Option<T> {
    let n = input.len();
    let (decoded, allocated) = allocated_by(|| read(input));
    assert!(
        allocated <= 16 * n + 64,
        "{allocated} B allocated decoding {n} B"
    );
    decoded
}

/// Decodes `input` as `kind` within the allocation bound. What decodes
/// must re-encode to the bytes it consumed. Returns how many that was, or
/// `None` if the input was refused.
fn decode_bounded(kind: Image, input: &[u8]) -> Option<usize> {
    let mut again = Vec::new();
    let used = match kind {
        Image::State => {
            let (state, used) = bounded(input, CausalState::read_bytes)?;
            state.write_bytes(&mut again);
            used
        }
        Image::Pending => {
            let (pending, used) = bounded(input, PendingStamp::read_bytes)?;
            pending.write_bytes(&mut again);
            used
        }
    };
    assert_eq!(again, input[..used], "{kind:?}: not re-encoded as read");
    Some(used)
}

fn d(i: u16) -> DomainServerId {
    DomainServerId::new(i)
}

/// Real images: in each mode, the states of a 4-wide domain after a few
/// rounds of traffic with one frame held back, and the pending stamps of
/// a real stamp, a continuation and the held-back frame.
struct Samples {
    states: Vec<Vec<u8>>,
    pendings: Vec<Vec<u8>>,
}

fn samples() -> &'static Samples {
    static SAMPLES: OnceLock<Samples> = OnceLock::new();
    SAMPLES.get_or_init(|| {
        let (mut states, mut pendings) = (Vec::new(), Vec::new());
        let image = |write: &dyn Fn(&mut Vec<u8>)| {
            let mut out = Vec::new();
            write(&mut out);
            out
        };
        for mode in StampMode::ALL {
            let mut c: Vec<CausalState> = (0..4).map(|i| CausalState::new(d(i), 4, mode)).collect();
            // 0 → 2 is held back; 0 → 1 → 2 overtakes it and waits.
            let held = c[0].stamp_send(d(2), Batching::Single);
            for round in 0..3 {
                let first = c[0].stamp_send(d(1), Batching::Grouped);
                let next = c[0].stamp_send(d(1), Batching::Grouped);
                for stamp in [first, next] {
                    let p = c[1].on_frame(d(0), stamp);
                    pendings.push(image(&|out| p.write_bytes(out)));
                    c[1].deliver(d(0), &p);
                }
                let reply = c[3].stamp_send(d(1), Batching::Single);
                let p = c[1].on_frame(d(3), reply);
                c[1].deliver(d(3), &p);
                if round == 0 {
                    let fwd = c[1].stamp_send(d(2), Batching::Single);
                    let p = c[2].on_frame(d(1), fwd);
                    assert!(!c[2].can_deliver(d(1), &p), "{mode}");
                    pendings.push(image(&|out| p.write_bytes(out)));
                }
            }
            let p = c[2].on_frame(d(0), held);
            pendings.push(image(&|out| p.write_bytes(out)));
            states.extend(c.iter().map(|s| image(&|out| s.write_bytes(out))));
        }
        Samples { states, pendings }
    })
}

/// Every real image decodes whole; every cut of one is refused; and every
/// byte of one overwritten with each of a few values — small counts,
/// large ones — decodes or is refused, within the bound.
#[test]
fn real_images_survive_every_cut_and_overwrite() {
    let samples = samples();
    for (kind, all) in [
        (Image::State, &samples.states),
        (Image::Pending, &samples.pendings),
    ] {
        for bytes in all {
            assert_eq!(decode_bounded(kind, bytes), Some(bytes.len()), "{kind:?}");
            for cut in 0..bytes.len() {
                assert_eq!(
                    decode_bounded(kind, &bytes[..cut]),
                    None,
                    "{kind:?} cut at {cut}"
                );
            }
            for at in 0..bytes.len() {
                for value in [0x00, 0x01, 0x02, 0x06, 0x40, 0x7F, 0x80, 0xFF] {
                    let mut changed = bytes.clone();
                    changed[at] = value;
                    decode_bounded(kind, &changed);
                }
            }
        }
    }
}

proptest! {
    /// Random bytes, alone or behind a real image's header (the state's
    /// identity, mode byte and matrix width; the pending's counter, shape
    /// byte and entry count or matrix width), and real images with bytes
    /// overwritten, decode or are refused; nothing panics and the
    /// allocation bound holds.
    #[test]
    fn image_byte_soup_never_panics(
        soup in prop::collection::vec(any::<u8>(), 0..512),
        damage in prop::collection::vec((any::<usize>(), any::<u8>()), 1..6),
        pick in any::<usize>(),
        pending in any::<bool>(),
    ) {
        let (kind, all, header) = if pending {
            (Image::Pending, &samples().pendings, 13)
        } else {
            (Image::State, &samples().states, 11)
        };
        let real = &all[pick % all.len()];
        let mut damaged = real.clone();
        for (at, byte) in damage {
            let at = at % damaged.len();
            damaged[at] = byte;
        }
        let behind_header = [&real[..header], &soup[..]].concat();
        for input in [soup, behind_header, damaged] {
            decode_bounded(kind, &input);
        }
    }
}
