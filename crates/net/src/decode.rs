//! Incremental frame decoding for stream transports.
//!
//! TCP readers historically allocated a fresh `Vec<u8>` per frame. A
//! [`FrameBuf`] instead accumulates raw socket reads and, once complete
//! frames are available, copies the parsed region **once** into one
//! shared [`Bytes`] buffer of exactly its size; every frame is then an
//! O(1) view of that buffer — no per-datagram allocation, no per-datagram
//! copy. The accumulator keeps its capacity across drains (only the
//! trailing partial frame moves to its front), so a reader does not regrow
//! it from empty after every drain, and the shared buffer carries no slack
//! into the frames that outlive the drain.

use bytes::Bytes;

/// Incremental frame reassembly buffer for length-prefixed streams.
///
/// Generic over the header: callers supply the header length and a
/// function mapping a header to the payload length (or `None` for a
/// corrupt header, which poisons the stream).
#[derive(Debug, Default)]
pub struct FrameBuf {
    acc: Vec<u8>,
    poisoned: bool,
}

/// One decoded frame: the fixed-size header bytes and the payload as a
/// view into the drain's shared buffer.
#[derive(Debug, Clone)]
pub struct RawFrame {
    /// The frame header, borrowed from the same shared buffer.
    pub header: Bytes,
    /// The payload, borrowed from the same shared buffer.
    pub payload: Bytes,
}

impl FrameBuf {
    /// A fresh, empty buffer.
    #[must_use]
    pub fn new() -> FrameBuf {
        FrameBuf::default()
    }

    /// Appends raw bytes read from the stream.
    pub fn extend(&mut self, data: &[u8]) {
        self.acc.extend_from_slice(data);
    }

    /// Bytes currently buffered (complete and partial frames).
    #[must_use]
    pub fn len(&self) -> usize {
        self.acc.len()
    }

    /// Whether nothing is buffered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.acc.is_empty()
    }

    /// Drains every complete frame.
    ///
    /// `payload_len` inspects a `header_len`-byte header and returns the
    /// payload length, or `None` to reject the frame (the stream is then
    /// poisoned: this call and every later one returns `None`, and the
    /// caller should drop the connection).
    ///
    /// Returns `None` if the stream is poisoned, otherwise the decoded
    /// frames (possibly empty). All frames of one drain share a single
    /// heap buffer.
    pub fn drain_frames(
        &mut self,
        header_len: usize,
        payload_len: impl Fn(&[u8]) -> Option<usize>,
    ) -> Option<Vec<RawFrame>> {
        if self.poisoned {
            return None;
        }
        // First pass: find how many bytes form complete frames.
        let (mut consumed, mut count) = (0usize, 0usize);
        loop {
            let rest = &self.acc[consumed..];
            if rest.len() < header_len {
                break;
            }
            let Some(len) = payload_len(&rest[..header_len]) else {
                self.poisoned = true;
                return None;
            };
            let Some(total) = header_len.checked_add(len) else {
                self.poisoned = true;
                return None;
            };
            if rest.len() < total {
                break;
            }
            consumed += total;
            count += 1;
        }
        if consumed == 0 {
            return Some(Vec::new());
        }
        // Copy the complete region out as one exactly-sized shared buffer;
        // the partial tail moves to the front of the accumulator, which
        // keeps its capacity.
        let mut chunk = Bytes::copy_from_slice(&self.acc[..consumed]);
        self.acc.drain(..consumed);
        // Second pass: cut views of the shared buffer.
        let mut frames = Vec::with_capacity(count);
        while !chunk.is_empty() {
            let header = chunk.split_to(header_len);
            // `payload_len` is deterministic; the first pass validated it.
            let len = payload_len(&header)?;
            let payload = chunk.split_to(len);
            frames.push(RawFrame { header, payload });
        }
        Some(frames)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Test header: 2-byte little-endian payload length.
    fn plen(h: &[u8]) -> Option<usize> {
        Some(u16::from_le_bytes([h[0], h[1]]) as usize)
    }

    fn frame(payload: &[u8]) -> Vec<u8> {
        let mut f = (payload.len() as u16).to_le_bytes().to_vec();
        f.extend_from_slice(payload);
        f
    }

    #[test]
    fn reassembles_across_arbitrary_chunking() {
        let mut wire = Vec::new();
        for p in [&b"alpha"[..], b"", b"gamma-gamma"] {
            wire.extend_from_slice(&frame(p));
        }
        // Feed one byte at a time: worst-case fragmentation.
        let mut buf = FrameBuf::new();
        let mut got = Vec::new();
        for b in wire {
            buf.extend(&[b]);
            got.extend(buf.drain_frames(2, plen).unwrap());
        }
        assert_eq!(got.len(), 3);
        assert_eq!(&got[0].payload[..], b"alpha");
        assert_eq!(&got[1].payload[..], b"");
        assert_eq!(&got[2].payload[..], b"gamma-gamma");
        assert!(buf.is_empty());
    }

    #[test]
    fn one_drain_shares_one_buffer() {
        let mut buf = FrameBuf::new();
        buf.extend(&frame(b"aa"));
        buf.extend(&frame(b"bb"));
        let frames = buf.drain_frames(2, plen).unwrap();
        assert_eq!(frames.len(), 2);
        // Zero-copy: both payloads are views into one allocation, so the
        // second payload starts where the first frame ended.
        assert_eq!(&frames[0].payload[..], b"aa");
        assert_eq!(&frames[1].payload[..], b"bb");
    }

    #[test]
    fn corrupt_header_poisons_the_stream() {
        let mut buf = FrameBuf::new();
        buf.extend(&[0xff, 0xff, 0x00]);
        assert!(buf.drain_frames(2, |_| None).is_none());
        buf.extend(&frame(b"late"));
        assert!(buf.drain_frames(2, plen).is_none());
    }

    #[test]
    fn partial_frame_waits() {
        let mut buf = FrameBuf::new();
        let f = frame(b"payload");
        buf.extend(&f[..4]);
        assert!(buf.drain_frames(2, plen).unwrap().is_empty());
        assert_eq!(buf.len(), 4);
        buf.extend(&f[4..]);
        let got = buf.drain_frames(2, plen).unwrap();
        assert_eq!(&got[0].payload[..], b"payload");
    }
}
