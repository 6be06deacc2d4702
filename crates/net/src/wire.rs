//! A small, explicit binary codec.
//!
//! All integers are little-endian. Variable-length data (payloads, strings,
//! lists) is length-prefixed with a `u32`. The codec exists instead of a
//! serialization framework because the paper reasons about *bytes on the
//! wire* — the experiments measure stamp sizes exactly.
//!
//! The one exception to fixed widths is the entry list of a delta stamp
//! (tag 6): LEB128 varints grouped by row — `count`, then `row`, `run_len`
//! and `run_len` × (`col`, `value`) per run of equal rows — 2–3 B per
//! entry on a live domain, 16–17 B at the very worst. The layout is
//! defined once, by `aaa_clocks::UpdateEntry::pack`, and a delta stamp
//! holds its list in that layout (`aaa_clocks::PackedEntries`): the
//! encoder copies the bytes, the decoder checks them in one pass and keeps
//! a view of the buffer (or, for a few entries, an inline copy), and
//! `Stamp::encoded_len` is their length. Tag 1 carried the same list as a
//! `u32` count and 12-byte `(u16, u16, u64)` triples; it is still read,
//! into the packed form, never written. Tags 5 and 7 were the retired
//! `Hybrid` mode's fixed-width and packed stamps, and tag 4 the retired
//! `Reduced` stamp: all three are refused as unknown.
//!
//! Every count read off the wire is checked against the bytes that remain
//! before anything is allocated for it ([`Decoder::count`]).
//!
//! Neither side allocates per field. A caller that knows the encoded size
//! (every frame on the hop path does, by arithmetic) starts the
//! [`Encoder`] at exactly that capacity, and [`Encoder::finish`] adopts the
//! buffer without a copy. The [`Decoder`] hands out byte fields and long
//! packed delta lists as views of the buffer it reads, and strings as
//! [`Utf8Bytes`]: views too, validated once, at decode time.

use aaa_base::{AgentId, DomainId, DomainServerId, Error, MessageId, Result, ServerId};
use aaa_clocks::{MatrixClock, PackedEntries, Stamp, UpdateEntry};
use bytes::{Buf, Bytes};

/// A UTF-8 string held as [`Bytes`]: validated once, on construction.
/// Reading one off the wire does not allocate — it is a view of the buffer
/// it was decoded from — and cloning one is O(1).
#[derive(Clone, PartialEq, Eq)]
pub struct Utf8Bytes(Bytes);

impl Utf8Bytes {
    /// Borrows a static string: no allocation.
    pub const fn from_static(s: &'static str) -> Self {
        Utf8Bytes(Bytes::from_static(s.as_bytes()))
    }

    /// The string.
    pub fn as_str(&self) -> &str {
        // Every constructor validated the bytes, so this never falls back.
        std::str::from_utf8(&self.0).unwrap_or_default()
    }
}

impl TryFrom<Bytes> for Utf8Bytes {
    type Error = Error;

    fn try_from(raw: Bytes) -> Result<Self> {
        match std::str::from_utf8(&raw) {
            Ok(_) => Ok(Utf8Bytes(raw)),
            Err(e) => Err(Error::Codec(format!("invalid utf-8 string: {e}"))),
        }
    }
}

impl From<String> for Utf8Bytes {
    fn from(s: String) -> Self {
        Utf8Bytes(Bytes::from(s.into_bytes()))
    }
}

impl From<&'static str> for Utf8Bytes {
    fn from(s: &'static str) -> Self {
        Utf8Bytes::from_static(s)
    }
}

impl From<Utf8Bytes> for String {
    fn from(s: Utf8Bytes) -> Self {
        s.as_str().to_owned()
    }
}

impl std::ops::Deref for Utf8Bytes {
    type Target = str;
    fn deref(&self) -> &str {
        self.as_str()
    }
}

impl PartialEq<&str> for Utf8Bytes {
    fn eq(&self, other: &&str) -> bool {
        self.0 == *other.as_bytes()
    }
}

impl std::fmt::Debug for Utf8Bytes {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        std::fmt::Debug::fmt(self.as_str(), f)
    }
}

/// Incremental encoder over a growable byte buffer.
#[derive(Debug, Default)]
pub struct Encoder {
    buf: Vec<u8>,
}

impl Encoder {
    /// Creates an empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an encoder whose buffer holds `cap` bytes before it grows:
    /// given the exact encoded size, the one allocation of the encoding.
    pub fn with_capacity(cap: usize) -> Self {
        Encoder {
            buf: Vec::with_capacity(cap),
        }
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// Returns `true` if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Finishes encoding, returning the buffer frozen: adopted, not
    /// copied.
    pub fn finish(self) -> Bytes {
        Bytes::from(self.buf)
    }

    /// Finishes encoding, returning the buffer itself, for a caller that
    /// appends to what it encoded without copying it.
    pub fn into_vec(self) -> Vec<u8> {
        self.buf
    }

    /// Writes one byte.
    pub fn u8(&mut self, v: u8) -> &mut Self {
        self.buf.push(v);
        self
    }

    /// Writes a little-endian `u16`.
    pub fn u16(&mut self, v: u16) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Writes a little-endian `u32`.
    pub fn u32(&mut self, v: u32) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Writes a little-endian `u64`.
    pub fn u64(&mut self, v: u64) -> &mut Self {
        self.buf.extend_from_slice(&v.to_le_bytes());
        self
    }

    /// Writes a `usize` count as a little-endian `u32`, saturating at
    /// `u32::MAX`.
    ///
    /// Saturation is deliberate: an element count that genuinely exceeds
    /// `u32::MAX` cannot be represented on the wire at all, and a saturated
    /// prefix makes the decoder fail loudly (`need` sees fewer bytes than
    /// claimed) instead of silently truncating to a *plausible* small value
    /// the way `as u32` would.
    pub fn count(&mut self, n: usize) -> &mut Self {
        self.u32(u32::try_from(n).unwrap_or(u32::MAX))
    }

    /// Writes a length-prefixed byte slice.
    pub fn bytes(&mut self, v: &[u8]) -> &mut Self {
        self.count(v.len());
        self.buf.extend_from_slice(v);
        self
    }

    /// Writes a length-prefixed UTF-8 string.
    pub fn string(&mut self, v: &str) -> &mut Self {
        self.bytes(v.as_bytes())
    }

    /// Writes a server id.
    pub fn server_id(&mut self, v: ServerId) -> &mut Self {
        self.u16(v.as_u16())
    }

    /// Writes a domain id.
    pub fn domain_id(&mut self, v: DomainId) -> &mut Self {
        self.u16(v.as_u16())
    }

    /// Writes an agent id.
    pub fn agent_id(&mut self, v: AgentId) -> &mut Self {
        self.server_id(v.server());
        self.u32(v.local())
    }

    /// Writes a message id.
    pub fn message_id(&mut self, v: MessageId) -> &mut Self {
        self.server_id(v.origin());
        self.u64(v.seq())
    }

    /// Writes an optional stamp: tag 2 for "no stamp" (unordered QoS),
    /// otherwise as [`Encoder::stamp`].
    pub fn stamp_opt(&mut self, v: &Option<Stamp>) -> &mut Self {
        match v {
            Some(stamp) => self.stamp(stamp),
            None => self.u8(2),
        }
    }

    /// Writes a stamp: a 1-byte tag, then either the full matrix
    /// (width + cells), a packed entry list (a delta stamp), or — for the
    /// zero-byte group-commit continuation — nothing at all. Tag 1 (the
    /// fixed-width entry list) is decode-only, and tags 4, 5 and 7 (the
    /// retired `Reduced` and `Hybrid` stamps) are refused; none is reused.
    pub fn stamp(&mut self, v: &Stamp) -> &mut Self {
        match v {
            Stamp::Full(m) => {
                self.u8(0);
                // Widths are bounded by the u16 server-id space, far below
                // u32::MAX; `count` keeps the narrowing checked anyway.
                self.count(m.width());
                for row in 0..m.width() {
                    for col in 0..m.width() {
                        self.u64(m.get(row, col));
                    }
                }
            }
            Stamp::Delta(entries) => {
                self.u8(6);
                self.buf.extend_from_slice(entries.as_bytes());
            }
            // Tag 2 is taken by "no stamp" in `stamp_opt`.
            Stamp::GroupNext => {
                self.u8(3);
            }
        }
        self
    }
}

/// Incremental decoder over a byte buffer.
#[derive(Debug)]
pub struct Decoder {
    buf: Bytes,
}

impl Decoder {
    /// Creates a decoder over `buf`.
    pub fn new(buf: Bytes) -> Self {
        Decoder { buf }
    }

    /// Bytes remaining.
    pub fn remaining(&self) -> usize {
        self.buf.remaining()
    }

    fn need(&self, n: usize, what: &str) -> Result<()> {
        if self.buf.remaining() < n {
            Err(Error::Codec(format!(
                "truncated frame: need {n} bytes for {what}, have {}",
                self.buf.remaining()
            )))
        } else {
            Ok(())
        }
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8> {
        self.need(1, "u8")?;
        Ok(self.buf.get_u8())
    }

    /// Reads a little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16> {
        self.need(2, "u16")?;
        Ok(self.buf.get_u16_le())
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32> {
        self.need(4, "u32")?;
        Ok(self.buf.get_u32_le())
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64> {
        self.need(8, "u64")?;
        Ok(self.buf.get_u64_le())
    }

    /// Reads a `u32` element count written by [`Encoder::count`], refusing
    /// it unless the bytes that remain can hold that many elements of at
    /// least `min_element_bytes` each — so a count read off the network or
    /// a corrupt image is safe to allocate for.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Codec`] on truncation or an impossible count.
    pub fn count(&mut self, min_element_bytes: usize) -> Result<usize> {
        let count = self.u32()? as usize;
        match count.checked_mul(min_element_bytes) {
            Some(bytes) if bytes <= self.buf.remaining() => Ok(count),
            _ => Err(Error::Codec(format!(
                "count {count} × {min_element_bytes} bytes exceeds the {} that remain",
                self.buf.remaining()
            ))),
        }
    }

    /// Reads a length-prefixed byte string.
    pub fn bytes(&mut self) -> Result<Bytes> {
        let len = self.u32()? as usize;
        self.need(len, "bytes body")?;
        if len == self.buf.len() {
            // The last field takes the buffer itself: no share to count.
            return Ok(std::mem::take(&mut self.buf));
        }
        Ok(self.buf.split_to(len))
    }

    /// Reads a length-prefixed UTF-8 string as a view of the buffer.
    ///
    /// # Errors
    ///
    /// Returns [`Error::Codec`] on truncation or invalid UTF-8.
    pub fn utf8(&mut self) -> Result<Utf8Bytes> {
        self.bytes().and_then(Utf8Bytes::try_from)
    }

    /// Reads a length-prefixed UTF-8 string into an owned `String`.
    pub fn string(&mut self) -> Result<String> {
        self.utf8().map(String::from)
    }

    /// Reads a server id.
    pub fn server_id(&mut self) -> Result<ServerId> {
        Ok(ServerId::new(self.u16()?))
    }

    /// Reads a domain id.
    pub fn domain_id(&mut self) -> Result<DomainId> {
        Ok(DomainId::new(self.u16()?))
    }

    /// Reads a domain-server id.
    pub fn domain_server_id(&mut self) -> Result<DomainServerId> {
        Ok(DomainServerId::new(self.u16()?))
    }

    /// Reads an agent id.
    pub fn agent_id(&mut self) -> Result<AgentId> {
        let server = self.server_id()?;
        let local = self.u32()?;
        Ok(AgentId::new(server, local))
    }

    /// Reads a message id.
    pub fn message_id(&mut self) -> Result<MessageId> {
        let origin = self.server_id()?;
        let seq = self.u64()?;
        Ok(MessageId::new(origin, seq))
    }

    /// Reads an optional stamp written by [`Encoder::stamp_opt`].
    ///
    /// # Errors
    ///
    /// As for [`Decoder::stamp`].
    pub fn stamp_opt(&mut self) -> Result<Option<Stamp>> {
        // Peek is awkward on Bytes; re-dispatch on the tag directly.
        match self.u8()? {
            2 => Ok(None),
            tag => self.stamp_tagged(tag).map(Some),
        }
    }

    /// Reads a stamp written by [`Encoder::stamp`].
    ///
    /// # Errors
    ///
    /// Returns [`Error::Codec`] on truncation, an unknown or retired tag,
    /// or an absurd matrix width. Whether the stamp fits the *domain* it
    /// arrived in (its kind, its width, its entry coordinates) is not
    /// knowable here; `CausalState::check_stamp` answers that before the
    /// stamp reaches a clock.
    pub fn stamp(&mut self) -> Result<Stamp> {
        let tag = self.u8()?;
        self.stamp_tagged(tag)
    }

    fn stamp_tagged(&mut self, tag: u8) -> Result<Stamp> {
        match tag {
            0 => {
                let n = self.u32()? as usize;
                if n == 0 || n > u16::MAX as usize {
                    return Err(Error::Codec(format!("invalid matrix width {n}")));
                }
                self.need(n * n * 8, "matrix cells")?;
                let mut m = MatrixClock::new(n);
                for row in 0..n {
                    for col in 0..n {
                        m.set(row, col, self.buf.get_u64_le());
                    }
                }
                Ok(Stamp::Full(m))
            }
            1 => Ok(Stamp::Delta(self.update_entries()?)),
            3 => Ok(Stamp::GroupNext),
            // Checked in one pass and kept without allocating.
            6 => Ok(Stamp::Delta(PackedEntries::read(&mut self.buf)?)),
            tag => Err(Error::Codec(format!("unknown stamp tag {tag}"))),
        }
    }

    /// Reads the fixed-width entry list of tag 1, which older builds
    /// wrote — their unacknowledged frames and relay journals outlive an
    /// upgrade — and packs it.
    fn update_entries(&mut self) -> Result<PackedEntries> {
        let count = self.count(UpdateEntry::WIRE_LEN)?;
        let mut entries = Vec::with_capacity(count);
        for _ in 0..count {
            entries.push(UpdateEntry {
                row: self.buf.get_u16_le(),
                col: self.buf.get_u16_le(),
                value: self.buf.get_u64_le(),
            });
        }
        Ok(PackedEntries::new(&entries))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn primitive_roundtrip() {
        let mut e = Encoder::new();
        e.u8(7)
            .u16(0xBEEF)
            .u32(0xDEAD_BEEF)
            .u64(u64::MAX)
            .bytes(b"abc")
            .string("caf\u{e9}");
        assert!(!e.is_empty());
        let mut d = Decoder::new(e.finish());
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u16().unwrap(), 0xBEEF);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX);
        assert_eq!(&d.bytes().unwrap()[..], b"abc");
        assert_eq!(d.string().unwrap(), "caf\u{e9}");
        assert_eq!(d.remaining(), 0);
    }

    #[test]
    fn strings_decode_as_validated_views() {
        let mut e = Encoder::with_capacity(4 + 4 + 4 + 2);
        e.string("kind").bytes(&[0xff, 0xfe]);
        assert_eq!(e.len(), 4 + 4 + 4 + 2, "presized exactly");
        let buf = e.finish();
        let at = buf.as_ptr();
        let mut d = Decoder::new(buf);
        let kind = d.utf8().unwrap();
        assert_eq!(kind, "kind");
        assert_eq!(kind.as_ptr(), at.wrapping_add(4), "a view of the buffer");
        assert!(matches!(d.utf8(), Err(Error::Codec(_))), "invalid utf-8");
        assert_eq!(String::from(kind.clone()), "kind");
        assert_eq!(Utf8Bytes::from("kind".to_owned()), kind, "equal by content");
    }

    #[test]
    fn id_roundtrip() {
        let mut e = Encoder::new();
        let agent = AgentId::new(ServerId::new(3), 42);
        let msg = MessageId::new(ServerId::new(9), 1234567);
        e.server_id(ServerId::new(5))
            .domain_id(DomainId::new(2))
            .agent_id(agent)
            .message_id(msg);
        let mut d = Decoder::new(e.finish());
        assert_eq!(d.server_id().unwrap(), ServerId::new(5));
        assert_eq!(d.domain_id().unwrap(), DomainId::new(2));
        assert_eq!(d.agent_id().unwrap(), agent);
        assert_eq!(d.message_id().unwrap(), msg);
    }

    #[test]
    fn full_stamp_roundtrip_and_size() {
        let mut m = MatrixClock::new(4);
        m.set(1, 2, 99);
        m.set(3, 3, 7);
        let stamp = Stamp::Full(m);
        let mut e = Encoder::new();
        e.stamp(&stamp);
        // 1 tag byte + declared encoded length.
        assert_eq!(e.len(), stamp.encoded_len() + 1);
        let decoded = Decoder::new(e.finish()).stamp().unwrap();
        assert_eq!(decoded, stamp);
    }

    #[test]
    fn delta_stamp_roundtrip_and_size() {
        let stamp = Stamp::Delta(PackedEntries::new(&[
            UpdateEntry {
                row: 0,
                col: 1,
                value: 5,
            },
            UpdateEntry {
                row: 3,
                col: 2,
                value: 11,
            },
        ]));
        let mut e = Encoder::new();
        e.stamp(&stamp);
        assert_eq!(e.len(), stamp.encoded_len() + 1);
        let bytes = e.finish();
        assert_eq!(bytes.first(), Some(&6), "packed delta tag");
        let decoded = Decoder::new(bytes).stamp().unwrap();
        assert_eq!(decoded, stamp);
    }

    #[test]
    fn group_next_stamp_is_one_tag_byte() {
        let stamp = Stamp::GroupNext;
        let mut e = Encoder::new();
        e.stamp(&stamp);
        assert_eq!(e.len(), 1, "continuation stamps cost only their tag");
        assert_eq!(e.len(), stamp.encoded_len() + 1);
        let decoded = Decoder::new(e.finish()).stamp().unwrap();
        assert_eq!(decoded, stamp);

        // Also through the optional path.
        let mut e = Encoder::new();
        e.stamp_opt(&Some(Stamp::GroupNext)).stamp_opt(&None);
        let mut d = Decoder::new(e.finish());
        assert_eq!(d.stamp_opt().unwrap(), Some(Stamp::GroupNext));
        assert_eq!(d.stamp_opt().unwrap(), None);
    }

    #[test]
    fn count_is_bounded_by_the_bytes_that_remain() {
        // Three 2-byte elements announced, three present: accepted, and
        // the elements are still there to read.
        let mut e = Encoder::new();
        e.count(3).u16(1).u16(2).u16(3);
        let mut d = Decoder::new(e.finish());
        assert_eq!(d.count(2).unwrap(), 3);
        assert_eq!(d.remaining(), 6);
        // One byte short, a count only `usize` arithmetic could hold, and
        // a truncated prefix are all codec errors.
        let mut e = Encoder::new();
        e.count(3).u16(1).u16(2).u8(3);
        assert!(matches!(
            Decoder::new(e.finish()).count(2),
            Err(Error::Codec(_))
        ));
        let mut e = Encoder::new();
        e.u32(u32::MAX).u64(0);
        assert!(matches!(
            Decoder::new(e.finish()).count(usize::MAX),
            Err(Error::Codec(_))
        ));
        assert!(Decoder::new(Bytes::from_static(&[1, 0])).count(1).is_err());
    }

    #[test]
    fn truncated_input_errors() {
        let mut e = Encoder::new();
        e.u64(1);
        let mut d = Decoder::new(e.finish());
        // Read the u64 back as two named u32 halves so a decode error here
        // fails the test at the read that broke, instead of being discarded
        // and surfacing three fields later as garbage alignment.
        let lo = d.u32().expect("low half of the u64 is present");
        let hi = d.u32().expect("high half of the u64 is present");
        assert_eq!((lo, hi), (1, 0), "little-endian halves of 1u64");
        assert!(matches!(d.u8(), Err(Error::Codec(_))));

        let mut d = Decoder::new(Bytes::from_static(&[0, 255, 255, 255, 255]));
        assert!(matches!(d.stamp(), Err(Error::Codec(_))));
    }

    #[test]
    fn unknown_stamp_tag_errors() {
        let mut d = Decoder::new(Bytes::from_static(&[9]));
        assert!(matches!(d.stamp(), Err(Error::Codec(_))));

        // Tag 4 was the `Reduced` stamp: a well-formed one from an old
        // peer (width 1, row, column, empty correction set) is refused by
        // name, not mis-parsed as something else.
        let mut e = Encoder::new();
        e.u8(4).count(1).u64(0).u64(0).count(0);
        match Decoder::new(e.finish()).stamp() {
            Err(Error::Codec(why)) => assert_eq!(why, "unknown stamp tag 4"),
            other => panic!("retired tag 4 decoded as {other:?}"),
        }

        // Tags 5 and 7 were the `Hybrid` stamp, as fixed-width triples and
        // packed: well-formed one-entry lists are refused by name too.
        let entry = [UpdateEntry {
            row: 0,
            col: 1,
            value: 5,
        }];
        let mut e = Encoder::new();
        e.u8(5).count(1).u16(0).u16(1).u64(5);
        let fixed = e.finish();
        let mut packed = vec![7];
        UpdateEntry::pack(&entry, &mut packed);
        for (tag, live_tag, bytes) in [(5, 1, fixed), (7, 6, Bytes::from(packed))] {
            // The same list under the live tag decodes.
            let mut live = bytes.to_vec();
            live[0] = live_tag;
            let decoded = Decoder::new(Bytes::from(live)).stamp();
            let want = Stamp::Delta(PackedEntries::new(&entry));
            assert_eq!(decoded.unwrap(), want, "tag {tag}");
            match Decoder::new(bytes).stamp() {
                Err(Error::Codec(why)) => assert_eq!(why, format!("unknown stamp tag {tag}")),
                other => panic!("retired tag {tag} decoded as {other:?}"),
            }
        }
    }

    #[test]
    fn oversized_bytes_length_errors() {
        let mut e = Encoder::new();
        e.u32(1_000_000); // claims a megabyte that is not there
        let mut d = Decoder::new(e.finish());
        assert!(matches!(d.bytes(), Err(Error::Codec(_))));
    }
}
