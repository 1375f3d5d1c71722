//! Binary wire codec for [`GossipMessage`].
//!
//! A hand-rolled, length-checked format (no general serialization
//! framework is available offline, and a fixed format keeps datagrams
//! compact). All integers are big-endian. Every decoder is hardened against
//! truncated, oversized and garbage input — a DoS-resistant endpoint must
//! survive arbitrary bytes on its well-known ports.
//!
//! Encoding writes into a reusable `drum_core::bytes::BytesMut` — in the
//! runtime, the driver's send arena. Decoding
//! ([`decode_skipping`], and [`decode`] on top of it) reads the borrowed
//! datagram and copies out what the message keeps and nothing else: each
//! kept data message's payload into a `Bytes` of its own and a digest's
//! intervals; a sealed port is an inline value. A datagram that fails a
//! check allocates nothing.

use drum_core::bytes::{Bytes, BytesMut};

use drum_core::digest::Digest;
use drum_core::ids::{MessageId, ProcessId};
use drum_core::message::{DataMessage, GossipMessage, PortRef};
use drum_crypto::auth::AuthTag;
use drum_crypto::seal::SealedPort;

/// Maximum accepted datagram payload (loopback UDP handles 64 KiB; we stay
/// comfortably below).
pub const MAX_WIRE_LEN: usize = 60 * 1024;

/// Maximum number of data messages in one pull-reply/push-data datagram.
pub const MAX_MESSAGES_PER_DATAGRAM: usize = 512;

/// Maximum digest intervals accepted in one datagram.
pub const MAX_DIGEST_INTERVALS: usize = 4096;

/// Maximum payload bytes per data message on the wire.
pub const MAX_PAYLOAD_LEN: usize = 8 * 1024;

const TAG_PULL_REQUEST: u8 = 1;
const TAG_PULL_REPLY: u8 = 2;
const TAG_PUSH_OFFER: u8 = 3;
const TAG_PUSH_REPLY: u8 = 4;
const TAG_PUSH_DATA: u8 = 5;
const TAG_FRAME: u8 = 6;

/// Target size for a packed frame datagram: greedy fill stops here so
/// frames stay within a typical Ethernet MTU (1500 minus IP/UDP headers).
/// A single gossip message that alone exceeds the budget still travels in
/// one frame — messages are never split — so a frame can exceed the budget
/// only when one message already does.
pub const FRAME_BUDGET: usize = 1400;

/// Maximum gossip messages packed into one frame.
pub const MAX_FRAME_MESSAGES: usize = 256;

/// Fixed frame prelude: tag byte, sender id, nonce, message count.
pub const FRAME_HEADER_LEN: usize = 1 + 8 + 8 + 4;

/// Trailing frame authentication tag.
pub const FRAME_TAG_LEN: usize = drum_crypto::auth::AUTH_TAG_LEN;

/// Per-packed-message framing overhead (the length prefix).
pub const FRAME_ITEM_OVERHEAD: usize = 4;

const PORT_NONE: u8 = 0;
const PORT_PLAIN: u8 = 1;
const PORT_SEALED: u8 = 2;

/// Decoding errors. Deliberately coarse: a hostile sender learns nothing
/// from which check failed, and the runtime just drops the datagram.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecodeError {
    /// Buffer ended before the structure was complete.
    Truncated,
    /// A tag byte, enum discriminant or fixed length byte was invalid.
    BadTag,
    /// A length field exceeded its hard limit.
    TooLarge,
    /// A digest violated its canonical-form invariants.
    BadDigest,
}

impl core::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "datagram truncated"),
            DecodeError::BadTag => write!(f, "invalid tag"),
            DecodeError::TooLarge => write!(f, "length field exceeds limit"),
            DecodeError::BadDigest => write!(f, "malformed digest"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// A bounds-checked read cursor over a borrowed datagram. Reads never
/// allocate; one past the end is [`DecodeError::Truncated`].
#[derive(Clone, Copy)]
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], DecodeError> {
        if self.0.len() < n {
            return Err(DecodeError::Truncated);
        }
        let (head, tail) = self.0.split_at(n);
        self.0 = tail;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<&'a [u8; N], DecodeError> {
        Ok(self.take(N)?.try_into().expect("took N bytes"))
    }

    fn u8(&mut self) -> Result<u8, DecodeError> {
        Ok(self.array::<1>()?[0])
    }

    fn u16(&mut self) -> Result<u16, DecodeError> {
        Ok(u16::from_be_bytes(*self.array()?))
    }

    fn u32(&mut self) -> Result<u32, DecodeError> {
        Ok(u32::from_be_bytes(*self.array()?))
    }

    fn u64(&mut self) -> Result<u64, DecodeError> {
        Ok(u64::from_be_bytes(*self.array()?))
    }

    /// Rejects trailing bytes: a legitimate sender never produces them.
    fn finish(self) -> Result<(), DecodeError> {
        if self.0.is_empty() {
            Ok(())
        } else {
            Err(DecodeError::BadTag)
        }
    }
}

fn put_digest(out: &mut BytesMut, digest: &Digest) {
    out.put_u32(digest.source_count() as u32);
    for (source, intervals) in digest.intervals() {
        out.put_u64(source.as_u64());
        out.put_u32(intervals.len() as u32);
        for &(lo, hi) in intervals {
            out.put_u64(lo);
            out.put_u64(hi);
        }
    }
}

/// The digest that ends a pull-request or push-reply: `r` is the rest of
/// the datagram. Its lengths, limits and end are checked before anything is
/// allocated; only then are the intervals copied out and checked for
/// canonical form.
fn get_digest(mut r: Reader<'_>) -> Result<Digest, DecodeError> {
    let n_sources = r.u32()? as usize;
    if n_sources > MAX_DIGEST_INTERVALS {
        return Err(DecodeError::TooLarge);
    }
    let mut walk = r;
    let mut total_intervals = 0usize;
    for _ in 0..n_sources {
        walk.take(8)?;
        let n_intervals = walk.u32()? as usize;
        total_intervals += n_intervals;
        if total_intervals > MAX_DIGEST_INTERVALS {
            return Err(DecodeError::TooLarge);
        }
        walk.take(16 * n_intervals)?;
    }
    walk.finish()?;
    let mut entries = Vec::with_capacity(n_sources);
    for _ in 0..n_sources {
        let source = ProcessId(r.u64()?);
        let n_intervals = r.u32()? as usize;
        let mut intervals = Vec::with_capacity(n_intervals);
        for _ in 0..n_intervals {
            intervals.push((r.u64()?, r.u64()?));
        }
        entries.push((source, intervals));
    }
    Digest::from_intervals(entries).map_err(|_| DecodeError::BadDigest)
}

fn put_port(out: &mut BytesMut, port: &PortRef) {
    match port {
        PortRef::None => out.put_u8(PORT_NONE),
        PortRef::Plain(p) => {
            out.put_u8(PORT_PLAIN);
            out.put_u16(*p);
        }
        PortRef::Sealed(sealed) => {
            out.put_u8(PORT_SEALED);
            out.put_u64(sealed.nonce);
            out.put_u8(sealed.ciphertext.len() as u8);
            out.put_slice(&sealed.ciphertext);
            out.put_slice(&sealed.tag);
        }
    }
}

/// A reply port. A sealed port's length byte must read 2, the only length
/// [`seal_port`](drum_crypto::seal::seal_port) writes: a port of any other
/// length could never open, so it is refused here rather than charged to
/// a budget and left unanswered.
fn get_port(r: &mut Reader<'_>) -> Result<PortRef, DecodeError> {
    match r.u8()? {
        PORT_NONE => Ok(PortRef::None),
        PORT_PLAIN => Ok(PortRef::Plain(r.u16()?)),
        PORT_SEALED => {
            let nonce = r.u64()?;
            if r.u8()? != 2 {
                return Err(DecodeError::BadTag);
            }
            Ok(PortRef::Sealed(SealedPort {
                nonce,
                ciphertext: *r.array()?,
                tag: *r.array()?,
            }))
        }
        _ => Err(DecodeError::BadTag),
    }
}

fn put_data_message(out: &mut BytesMut, msg: &DataMessage) {
    out.put_u64(msg.id.source.as_u64());
    out.put_u64(msg.id.seq);
    out.put_u32(msg.hops);
    out.put_u32(msg.payload.len() as u32);
    out.put_slice(&msg.payload);
    out.put_slice(&msg.auth.0);
}

/// One data message as the datagram carries it.
struct WireData<'a> {
    id: MessageId,
    hops: u32,
    payload: &'a [u8],
    auth: &'a [u8; 32],
}

impl WireData<'_> {
    /// Copies the message out of the datagram: the payload gets an
    /// allocation of its own, so a stored message pins its own bytes and
    /// nothing else of the datagram it arrived in.
    fn build(&self) -> DataMessage {
        DataMessage {
            id: self.id,
            hops: self.hops,
            payload: Bytes::copy_from_slice(self.payload),
            auth: AuthTag(*self.auth),
        }
    }
}

fn get_data_message<'a>(r: &mut Reader<'a>) -> Result<WireData<'a>, DecodeError> {
    let source = ProcessId(r.u64()?);
    let seq = r.u64()?;
    let hops = r.u32()?;
    let payload_len = r.u32()? as usize;
    if payload_len > MAX_PAYLOAD_LEN {
        return Err(DecodeError::TooLarge);
    }
    Ok(WireData {
        id: MessageId::new(source, seq),
        hops,
        payload: r.take(payload_len)?,
        auth: r.array()?,
    })
}

fn put_messages(out: &mut BytesMut, messages: &[DataMessage]) {
    out.put_u32(messages.len() as u32);
    for m in messages {
        put_data_message(out, m);
    }
}

/// The data messages that end a pull-reply or push-data datagram, minus
/// those `skip` names: `r` is the rest of the datagram. A first pass checks
/// every message and the datagram's end and marks the messages to keep;
/// only then does a second pass copy the kept ones out, into a vector of
/// exactly their number. A skipped message is checked, never built.
fn get_messages(
    mut r: Reader<'_>,
    skip: &mut impl FnMut(MessageId) -> bool,
) -> Result<Vec<DataMessage>, DecodeError> {
    let n = r.u32()? as usize;
    if n > MAX_MESSAGES_PER_DATAGRAM {
        return Err(DecodeError::TooLarge);
    }
    let mut keep = [0u64; MAX_MESSAGES_PER_DATAGRAM / 64];
    let mut kept = 0;
    let mut walk = r;
    for i in 0..n {
        if !skip(get_data_message(&mut walk)?.id) {
            keep[i / 64] |= 1 << (i % 64);
            kept += 1;
        }
    }
    walk.finish()?;
    let mut out = Vec::with_capacity(kept);
    for i in 0..n {
        let msg = get_data_message(&mut r)?;
        if keep[i / 64] & (1 << (i % 64)) != 0 {
            out.push(msg.build());
        }
    }
    Ok(out)
}

/// Encodes a [`GossipMessage`] into a datagram payload.
pub fn encode(msg: &GossipMessage) -> Bytes {
    let mut out = BytesMut::with_capacity(128);
    encode_into(msg, &mut out);
    out.freeze()
}

/// Encodes a [`GossipMessage`] into a caller-owned buffer.
///
/// The buffer is cleared first, so its allocation is reused across calls —
/// a sender fanning one message out to many recipients (or many messages in
/// one poll iteration) pays for the datagram bytes once instead of a fresh
/// allocation per `encode`. Output is byte-identical to [`encode`].
pub fn encode_into(msg: &GossipMessage, out: &mut BytesMut) {
    out.clear();
    encode_append(msg, out);
}

/// Appends the encoding of `msg` to `out`, leaving what `out` already
/// holds in place: how a sender writes each datagram straight into its
/// send arena.
pub(crate) fn encode_append(msg: &GossipMessage, out: &mut BytesMut) {
    match msg {
        GossipMessage::PullRequest {
            from,
            digest,
            reply_port,
            nonce,
        } => {
            out.put_u8(TAG_PULL_REQUEST);
            out.put_u64(from.as_u64());
            out.put_u64(*nonce);
            put_port(out, reply_port);
            put_digest(out, digest);
        }
        GossipMessage::PullReply { from, messages } => {
            out.put_u8(TAG_PULL_REPLY);
            out.put_u64(from.as_u64());
            put_messages(out, messages);
        }
        GossipMessage::PushOffer {
            from,
            reply_port,
            nonce,
        } => {
            out.put_u8(TAG_PUSH_OFFER);
            out.put_u64(from.as_u64());
            out.put_u64(*nonce);
            put_port(out, reply_port);
        }
        GossipMessage::PushReply {
            from,
            digest,
            data_port,
            nonce,
        } => {
            out.put_u8(TAG_PUSH_REPLY);
            out.put_u64(from.as_u64());
            out.put_u64(*nonce);
            put_port(out, data_port);
            put_digest(out, digest);
        }
        GossipMessage::PushData { from, messages } => {
            out.put_u8(TAG_PUSH_DATA);
            out.put_u64(from.as_u64());
            put_messages(out, messages);
        }
    }
}

/// Classifies a datagram from its leading tag byte without decoding it.
///
/// Returns `None` for empty datagrams, unknown tags, and oversized inputs —
/// exactly the inputs [`decode`] would reject on its first checks. A shard
/// event loop triaging a flood can use this to attribute hostile traffic by
/// kind before paying for a full decode; a `Some` result promises nothing
/// about the rest of the datagram.
pub fn peek_kind(bytes: &[u8]) -> Option<drum_core::message::MessageKind> {
    use drum_core::message::MessageKind;
    if bytes.len() > MAX_WIRE_LEN {
        return None;
    }
    match *bytes.first()? {
        TAG_PULL_REQUEST => Some(MessageKind::PullRequest),
        TAG_PULL_REPLY => Some(MessageKind::PullReply),
        TAG_PUSH_OFFER => Some(MessageKind::PushOffer),
        TAG_PUSH_REPLY => Some(MessageKind::PushReply),
        TAG_PUSH_DATA => Some(MessageKind::PushData),
        _ => None,
    }
}

/// Decodes a datagram payload into a [`GossipMessage`]:
/// [`decode_skipping`] with nothing skipped.
///
/// # Errors
///
/// Returns a [`DecodeError`] for any malformed input; decoding never
/// panics regardless of the bytes received.
pub fn decode(bytes: &[u8]) -> Result<GossipMessage, DecodeError> {
    decode_skipping(bytes, |_| false)
}

/// Decodes a datagram payload into a [`GossipMessage`], leaving out of a
/// pull-reply or push-data the data messages whose ids `skip` names.
///
/// The datagram is borrowed, never copied whole: each kept payload is
/// copied into an allocation of its own, so a message kept for rounds pins
/// its own bytes and not the datagram it came in. A skipped message is
/// checked like any other — `decode_skipping` fails exactly when
/// [`decode`] does — but never built, so a receiver that skips the ids it
/// has already seen pays no allocation for a duplicate. A datagram
/// rejected for its lengths, tags, limits or trailing bytes allocates
/// nothing, and neither does a control message without a digest entry.
///
/// # Errors
///
/// Returns a [`DecodeError`] for any malformed input; decoding never
/// panics regardless of the bytes received.
pub fn decode_skipping(
    bytes: &[u8],
    mut skip: impl FnMut(MessageId) -> bool,
) -> Result<GossipMessage, DecodeError> {
    if bytes.len() > MAX_WIRE_LEN {
        return Err(DecodeError::TooLarge);
    }
    let mut r = Reader(bytes);
    let tag = r.u8()?;
    let from = ProcessId(r.u64()?);
    Ok(match tag {
        TAG_PULL_REQUEST => {
            let nonce = r.u64()?;
            let reply_port = get_port(&mut r)?;
            GossipMessage::PullRequest {
                from,
                digest: get_digest(r)?,
                reply_port,
                nonce,
            }
        }
        TAG_PULL_REPLY => GossipMessage::PullReply {
            from,
            messages: get_messages(r, &mut skip)?,
        },
        TAG_PUSH_OFFER => {
            let nonce = r.u64()?;
            let reply_port = get_port(&mut r)?;
            r.finish()?;
            GossipMessage::PushOffer {
                from,
                reply_port,
                nonce,
            }
        }
        TAG_PUSH_REPLY => {
            let nonce = r.u64()?;
            let data_port = get_port(&mut r)?;
            GossipMessage::PushReply {
                from,
                digest: get_digest(r)?,
                data_port,
                nonce,
            }
        }
        TAG_PUSH_DATA => GossipMessage::PushData {
            from,
            messages: get_messages(r, &mut skip)?,
        },
        _ => return Err(DecodeError::BadTag),
    })
}

/// A packed, MTU-budgeted gossip frame: several whole [`GossipMessage`]s to
/// the same partner coalesced into one datagram, authenticated by a single
/// HMAC from the frame's *sender* (the relaying member) over the whole body.
///
/// **Retired from the runtime** (DESIGN.md §19): `NodeCore` neither builds
/// nor accepts frames — a TAG 6 datagram is a decode error on every port.
/// The frame items of this module ([`Frame`], [`FrameBuilder`],
/// [`decode_frame`], [`frame_signed_body`], [`is_frame`], the `FRAME_*`
/// constants) stay only because `benchmark/`'s codec and crypto probes
/// compile against them and [`crate::attack::fabricated_frame`] builds its
/// hostile bytes with them; a later `benchmark` change can drop both.
///
/// ```text
/// [tag=6 u8][sender u64][nonce u64][count u32]
///   count × ([len u32][encoded GossipMessage])
/// [frame auth tag, 32 bytes]
/// ```
///
/// The signed region is everything before the trailing tag (see
/// [`frame_signed_body`]); the tag is computed in the frame HMAC domain
/// ([`drum_crypto::auth::sign_frame_with`]), so it can never be replayed as
/// a data-message tag. Messages are carried whole — a frame changes how
/// bytes travel, never which gossip messages the receiver's engine sees —
/// and nesting is impossible: the inner decoder rejects the frame tag.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    /// The relaying member that built and signed the frame.
    pub sender: ProcessId,
    /// Sender-chosen nonce, bound into the frame tag.
    pub nonce: u64,
    /// The packed gossip messages, in packing order.
    pub messages: Vec<GossipMessage>,
    /// The frame HMAC over [`frame_signed_body`].
    pub auth: AuthTag,
}

/// Whether a datagram leads with the frame tag (cheap triage; promises
/// nothing about the rest of the bytes).
pub fn is_frame(bytes: &[u8]) -> bool {
    bytes.first() == Some(&TAG_FRAME) && bytes.len() <= MAX_WIRE_LEN
}

/// The signed region of a frame datagram: everything before the trailing
/// authentication tag. `None` if the bytes are too short to be a frame.
pub fn frame_signed_body(bytes: &[u8]) -> Option<&[u8]> {
    if bytes.len() < FRAME_HEADER_LEN + FRAME_TAG_LEN {
        return None;
    }
    Some(&bytes[..bytes.len() - FRAME_TAG_LEN])
}

/// Decodes a frame datagram. Purely structural — the caller must still
/// verify [`Frame::auth`] over [`frame_signed_body`] before trusting the
/// inner messages.
///
/// # Errors
///
/// Returns a [`DecodeError`] for any malformed input; decoding never
/// panics regardless of the bytes received.
pub fn decode_frame(bytes: &[u8]) -> Result<Frame, DecodeError> {
    if bytes.len() > MAX_WIRE_LEN {
        return Err(DecodeError::TooLarge);
    }
    if bytes.len() < FRAME_HEADER_LEN + FRAME_TAG_LEN {
        return Err(DecodeError::Truncated);
    }
    if bytes[0] != TAG_FRAME {
        return Err(DecodeError::BadTag);
    }
    let u64_at = |off: usize| u64::from_be_bytes(bytes[off..off + 8].try_into().expect("8 bytes"));
    let sender = ProcessId(u64_at(1));
    let nonce = u64_at(9);
    let count = u32::from_be_bytes(bytes[17..21].try_into().expect("4 bytes")) as usize;
    if count > MAX_FRAME_MESSAGES {
        return Err(DecodeError::TooLarge);
    }
    let body_end = bytes.len() - FRAME_TAG_LEN;
    let mut off = FRAME_HEADER_LEN;
    let mut messages = Vec::with_capacity(count.min(64));
    for _ in 0..count {
        if body_end - off < FRAME_ITEM_OVERHEAD {
            return Err(DecodeError::Truncated);
        }
        let len = u32::from_be_bytes(bytes[off..off + 4].try_into().expect("4 bytes")) as usize;
        off += FRAME_ITEM_OVERHEAD;
        if len > body_end - off {
            return Err(DecodeError::Truncated);
        }
        // Inner messages go through the ordinary decoder, which rejects the
        // frame tag itself — frames cannot nest.
        messages.push(decode(&bytes[off..off + len])?);
        off += len;
    }
    if off != body_end {
        // Trailing garbage inside the signed body: reject.
        return Err(DecodeError::BadTag);
    }
    let mut tag = [0u8; FRAME_TAG_LEN];
    tag.copy_from_slice(&bytes[body_end..]);
    Ok(Frame {
        sender,
        nonce,
        messages,
        auth: AuthTag(tag),
    })
}

/// Greedy MTU-budgeted packing of gossip messages into [`Frame`] datagrams.
///
/// A sender keeps one builder alive across rounds: [`push`](Self::push)
/// appends messages while they fit the byte budget,
/// [`finish_into`](Self::finish_into) seals the accumulated messages into
/// one signed frame and resets the builder. All internal buffers grow once
/// and are reused, so steady-state packing allocates nothing.
#[derive(Debug, Default)]
pub struct FrameBuilder {
    /// Length-prefixed encoded messages accumulated for the open frame.
    items: BytesMut,
    /// Scratch for encoding one candidate message.
    scratch: BytesMut,
    count: usize,
}

impl FrameBuilder {
    /// Creates an empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Messages accumulated in the open frame.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Whether the open frame holds no messages.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Encoded size of the frame [`finish_into`](Self::finish_into) would
    /// currently produce.
    pub fn wire_len(&self) -> usize {
        FRAME_HEADER_LEN + self.items.len() + FRAME_TAG_LEN
    }

    /// Tries to append `msg` to the open frame.
    ///
    /// Returns `false` — leaving the frame unchanged — when the frame is at
    /// [`MAX_FRAME_MESSAGES`], or when adding the message would push a
    /// *non-empty* frame over [`FRAME_BUDGET`] (or any frame over
    /// [`MAX_WIRE_LEN`]). The caller then finishes the open frame and
    /// retries. A message that alone exceeds the budget is accepted into an
    /// empty frame: messages are never split.
    pub fn push(&mut self, msg: &GossipMessage) -> bool {
        if self.count >= MAX_FRAME_MESSAGES {
            return false;
        }
        encode_into(msg, &mut self.scratch);
        let added = FRAME_ITEM_OVERHEAD + self.scratch.len();
        let would_be = self.wire_len() + added;
        if would_be > MAX_WIRE_LEN || (self.count > 0 && would_be > FRAME_BUDGET) {
            return false;
        }
        self.items.put_u32(self.scratch.len() as u32);
        self.items.put_slice(&self.scratch[..]);
        self.count += 1;
        true
    }

    /// Seals the open frame into `out` (cleared first) and resets the
    /// builder for the next frame. `sign` receives the signed body (all
    /// frame bytes before the trailing tag) and must return the frame tag
    /// (`drum_crypto::auth::sign_frame_with`). Returns how many messages
    /// the frame carries.
    pub fn finish_into<F>(
        &mut self,
        sender: ProcessId,
        nonce: u64,
        sign: F,
        out: &mut BytesMut,
    ) -> usize
    where
        F: FnOnce(&[u8]) -> AuthTag,
    {
        out.clear();
        out.put_u8(TAG_FRAME);
        out.put_u64(sender.as_u64());
        out.put_u64(nonce);
        out.put_u32(self.count as u32);
        out.put_slice(&self.items[..]);
        let tag = sign(&out[..]);
        out.put_slice(&tag.0);
        let packed = self.count;
        self.items.clear();
        self.count = 0;
        packed
    }

    /// Seals the open frame into `out` with an all-zero tag: the signed
    /// body is everything before the trailing [`FRAME_TAG_LEN`] bytes,
    /// which a caller would overwrite with the real tag. Resets the builder
    /// exactly like [`finish_into`](Self::finish_into) and returns the
    /// message count. Unused by the runtime; `benchmark/` times it.
    pub fn finish_unsigned_into(
        &mut self,
        sender: ProcessId,
        nonce: u64,
        out: &mut BytesMut,
    ) -> usize {
        self.finish_into(sender, nonce, |_| AuthTag::zero(), out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use drum_crypto::keys::SecretKey;

    fn sample_digest() -> Digest {
        let mut d = Digest::new();
        for (s, q) in [(1u64, 0u64), (1, 1), (1, 5), (9, 3)] {
            d.insert(MessageId::new(ProcessId(s), q));
        }
        d
    }

    fn sample_data(seq: u64) -> DataMessage {
        DataMessage {
            id: MessageId::new(ProcessId(3), seq),
            hops: 4,
            payload: Bytes::from(vec![7u8; 50]),
            auth: AuthTag([9u8; 32]),
        }
    }

    fn sealed_port() -> PortRef {
        let key = SecretKey::from_bytes([2u8; 32]);
        PortRef::Sealed(drum_crypto::seal::seal_port(&key, 77, 50123).unwrap())
    }

    fn round_trip(msg: GossipMessage) {
        let encoded = encode(&msg);
        let decoded = decode(&encoded).unwrap();
        assert_eq!(msg, decoded);
    }

    #[test]
    fn pull_request_round_trip() {
        round_trip(GossipMessage::PullRequest {
            from: ProcessId(5),
            digest: sample_digest(),
            reply_port: sealed_port(),
            nonce: 42,
        });
    }

    #[test]
    fn pull_request_with_plain_and_none_ports() {
        for port in [PortRef::None, PortRef::Plain(8080)] {
            round_trip(GossipMessage::PullRequest {
                from: ProcessId(5),
                digest: Digest::new(),
                reply_port: port,
                nonce: 0,
            });
        }
    }

    #[test]
    fn pull_reply_round_trip() {
        round_trip(GossipMessage::PullReply {
            from: ProcessId(1),
            messages: vec![sample_data(0), sample_data(1)],
        });
    }

    #[test]
    fn push_offer_round_trip() {
        round_trip(GossipMessage::PushOffer {
            from: ProcessId(2),
            reply_port: sealed_port(),
            nonce: 9,
        });
    }

    #[test]
    fn push_reply_round_trip() {
        round_trip(GossipMessage::PushReply {
            from: ProcessId(2),
            digest: sample_digest(),
            data_port: sealed_port(),
            nonce: 11,
        });
    }

    #[test]
    fn push_data_round_trip() {
        round_trip(GossipMessage::PushData {
            from: ProcessId(2),
            messages: vec![sample_data(7)],
        });
    }

    #[test]
    fn empty_messages_round_trip() {
        round_trip(GossipMessage::PullReply {
            from: ProcessId(1),
            messages: vec![],
        });
    }

    #[test]
    fn truncated_inputs_rejected() {
        let encoded = encode(&GossipMessage::PullRequest {
            from: ProcessId(5),
            digest: sample_digest(),
            reply_port: sealed_port(),
            nonce: 42,
        });
        for len in 0..encoded.len() {
            assert!(
                decode(&encoded[..len]).is_err(),
                "prefix of len {len} accepted"
            );
        }
    }

    #[test]
    fn trailing_garbage_rejected() {
        let mut bytes = encode(&GossipMessage::PushOffer {
            from: ProcessId(2),
            reply_port: PortRef::None,
            nonce: 0,
        })
        .to_vec();
        bytes.push(0);
        assert_eq!(decode(&bytes), Err(DecodeError::BadTag));
    }

    #[test]
    fn bad_tags_rejected() {
        let mut bytes = encode(&GossipMessage::PushOffer {
            from: ProcessId(2),
            reply_port: PortRef::None,
            nonce: 0,
        })
        .to_vec();
        bytes[0] = 200;
        assert_eq!(decode(&bytes), Err(DecodeError::BadTag));
    }

    /// A sealed port holds exactly two ciphertext bytes. One whose length
    /// byte says otherwise could never open, so it does not decode, with
    /// its bytes present in full after the length byte.
    #[test]
    fn a_sealed_port_whose_length_byte_is_not_2_is_a_decode_error() {
        let offer = |len: u8| {
            let mut out = BytesMut::new();
            out.put_u8(TAG_PUSH_OFFER);
            out.put_u64(2); // from
            out.put_u64(9); // nonce
            out.put_u8(PORT_SEALED);
            out.put_u64(77); // seal nonce
            out.put_u8(len);
            out.put_slice(&vec![0xA5; usize::from(len)]);
            out.put_slice(&[0; 32]); // tag
            out.to_vec()
        };
        assert!(decode(&offer(2)).is_ok());
        for len in [0, 1, 3, 32, 255] {
            assert_eq!(decode(&offer(len)), Err(DecodeError::BadTag), "{len}");
        }
    }

    #[test]
    fn oversized_counts_rejected() {
        // Hand-craft a pull-reply claiming 2^31 messages.
        let mut out = BytesMut::new();
        out.put_u8(TAG_PULL_REPLY);
        out.put_u64(1);
        out.put_u32(u32::MAX);
        assert_eq!(decode(&out.freeze()), Err(DecodeError::TooLarge));
    }

    #[test]
    fn oversized_datagram_rejected() {
        let huge = vec![0u8; MAX_WIRE_LEN + 1];
        assert_eq!(decode(&huge), Err(DecodeError::TooLarge));
    }

    #[test]
    fn non_canonical_digest_rejected() {
        // Overlapping intervals are invalid on the wire.
        let mut out = BytesMut::new();
        out.put_u8(TAG_PULL_REQUEST);
        out.put_u64(1); // from
        out.put_u64(0); // nonce
        out.put_u8(PORT_NONE);
        out.put_u32(1); // one source
        out.put_u64(7); // source id
        out.put_u32(2); // two intervals
        out.put_u64(0);
        out.put_u64(5);
        out.put_u64(3); // overlaps
        out.put_u64(9);
        assert_eq!(decode(&out.freeze()), Err(DecodeError::BadDigest));
    }

    #[test]
    fn error_display() {
        assert!(DecodeError::Truncated.to_string().contains("truncated"));
    }

    fn sign_test_frame(body: &[u8]) -> AuthTag {
        let key = SecretKey::from_bytes([5u8; 32]);
        drum_crypto::auth::sign_frame_with(&key.hmac_key(), 2, 77, body)
    }

    fn build_frame(messages: &[GossipMessage]) -> (Bytes, usize) {
        let mut fb = FrameBuilder::new();
        let mut frames = 0;
        let mut out = BytesMut::new();
        let mut last = Bytes::new();
        for m in messages {
            if !fb.push(m) {
                fb.finish_into(ProcessId(2), 77, sign_test_frame, &mut out);
                frames += 1;
                last = Bytes::copy_from_slice(&out[..]);
                assert!(fb.push(m), "message must fit an empty frame");
            }
        }
        if !fb.is_empty() {
            fb.finish_into(ProcessId(2), 77, sign_test_frame, &mut out);
            frames += 1;
            last = Bytes::copy_from_slice(&out[..]);
        }
        (last, frames)
    }

    #[test]
    fn frame_round_trip() {
        let msgs = vec![
            GossipMessage::PullReply {
                from: ProcessId(2),
                messages: vec![sample_data(0), sample_data(1)],
            },
            GossipMessage::PushData {
                from: ProcessId(2),
                messages: vec![sample_data(7)],
            },
        ];
        let (bytes, frames) = build_frame(&msgs);
        assert_eq!(frames, 1, "two small messages share one frame");
        let frame = decode_frame(&bytes).unwrap();
        assert_eq!(frame.sender, ProcessId(2));
        assert_eq!(frame.nonce, 77);
        assert_eq!(frame.messages, msgs);
        // The tag verifies over the signed body.
        let key = SecretKey::from_bytes([5u8; 32]);
        assert!(drum_crypto::auth::verify_frame_with(
            &key.hmac_key(),
            2,
            77,
            frame_signed_body(&bytes).unwrap(),
            &frame.auth,
        )
        .is_ok());
    }

    #[test]
    fn frame_greedy_fill_respects_budget() {
        // Enough small messages to overflow one budget's worth.
        let msgs: Vec<GossipMessage> = (0..64)
            .map(|q| GossipMessage::PushData {
                from: ProcessId(2),
                messages: vec![sample_data(q)],
            })
            .collect();
        let one = encode(&msgs[0]).len() + FRAME_ITEM_OVERHEAD;
        let per_frame = (FRAME_BUDGET - FRAME_HEADER_LEN - FRAME_TAG_LEN) / one;
        let (_, frames) = build_frame(&msgs);
        assert_eq!(frames, 64usize.div_ceil(per_frame));
        assert!(frames < 64, "packing must beat one datagram per message");

        // Every full frame stays within the budget.
        let mut fb = FrameBuilder::new();
        for m in &msgs {
            if !fb.push(m) {
                assert!(fb.wire_len() <= FRAME_BUDGET);
                let mut out = BytesMut::new();
                fb.finish_into(ProcessId(2), 77, sign_test_frame, &mut out);
                assert!(out.len() <= FRAME_BUDGET);
                assert!(fb.push(m));
            }
        }
    }

    #[test]
    fn oversized_message_gets_its_own_frame() {
        // One message bigger than the budget: accepted alone, never split.
        let big = GossipMessage::PullReply {
            from: ProcessId(2),
            messages: (0..40).map(sample_data).collect(),
        };
        assert!(encode(&big).len() > FRAME_BUDGET);
        let mut fb = FrameBuilder::new();
        assert!(fb.push(&big));
        // ...but nothing more fits once over budget.
        assert!(!fb.push(&GossipMessage::PushData {
            from: ProcessId(2),
            messages: vec![sample_data(0)],
        }));
        let mut out = BytesMut::new();
        assert_eq!(
            fb.finish_into(ProcessId(2), 1, sign_test_frame, &mut out),
            1
        );
        let frame = decode_frame(&out.freeze()).unwrap();
        assert_eq!(frame.messages, vec![big]);
    }

    #[test]
    fn frame_truncated_and_hostile_inputs_rejected() {
        let (bytes, _) = build_frame(&[GossipMessage::PushData {
            from: ProcessId(2),
            messages: vec![sample_data(0)],
        }]);
        for len in 0..bytes.len() {
            assert!(
                decode_frame(&bytes[..len]).is_err(),
                "frame prefix of len {len} accepted"
            );
        }
        // Trailing garbage shifts the tag window: the item walk no longer
        // lands exactly on the signed-body end.
        let mut padded = bytes.to_vec();
        padded.push(0);
        assert!(decode_frame(&padded).is_err());
        // Wrong leading tag.
        let mut wrong = bytes.to_vec();
        wrong[0] = TAG_PUSH_DATA;
        assert_eq!(decode_frame(&wrong), Err(DecodeError::BadTag));
        // Oversized count and oversized datagram.
        let mut out = BytesMut::new();
        out.put_u8(TAG_FRAME);
        out.put_u64(2);
        out.put_u64(0);
        out.put_u32(u32::MAX);
        out.put_slice(&[0u8; FRAME_TAG_LEN]);
        assert_eq!(decode_frame(&out.freeze()), Err(DecodeError::TooLarge));
        assert_eq!(
            decode_frame(&vec![TAG_FRAME; MAX_WIRE_LEN + 1]),
            Err(DecodeError::TooLarge)
        );
        // The ordinary decoder refuses frames (so frames cannot nest), and
        // peek_kind does not classify them as any gossip kind.
        assert_eq!(decode(&bytes), Err(DecodeError::BadTag));
        assert_eq!(peek_kind(&bytes), None);
        assert!(is_frame(&bytes));
        assert!(!is_frame(b""));
        assert!(!is_frame(&[TAG_PUSH_DATA]));
    }

    #[test]
    fn frame_with_corrupt_inner_message_rejected() {
        let (bytes, _) = build_frame(&[GossipMessage::PushData {
            from: ProcessId(2),
            messages: vec![sample_data(0)],
        }]);
        let mut corrupt = bytes.to_vec();
        // First inner byte (right after header + item length prefix).
        corrupt[FRAME_HEADER_LEN + FRAME_ITEM_OVERHEAD] = 200;
        assert!(decode_frame(&corrupt).is_err());
    }

    #[test]
    fn peek_kind_matches_full_decode() {
        use drum_core::message::MessageKind;
        let messages = [
            GossipMessage::PullRequest {
                from: ProcessId(5),
                digest: sample_digest(),
                reply_port: sealed_port(),
                nonce: 42,
            },
            GossipMessage::PullReply {
                from: ProcessId(1),
                messages: vec![sample_data(0)],
            },
            GossipMessage::PushOffer {
                from: ProcessId(2),
                reply_port: PortRef::None,
                nonce: 9,
            },
            GossipMessage::PushReply {
                from: ProcessId(2),
                digest: sample_digest(),
                data_port: sealed_port(),
                nonce: 11,
            },
            GossipMessage::PushData {
                from: ProcessId(2),
                messages: vec![sample_data(7)],
            },
        ];
        for msg in &messages {
            let bytes = encode(msg);
            assert_eq!(peek_kind(&bytes), Some(msg.kind()));
            // The peek only needs the first byte.
            assert_eq!(peek_kind(&bytes[..1]), Some(msg.kind()));
        }
        assert_eq!(peek_kind(&[]), None);
        assert_eq!(peek_kind(&[0]), None);
        assert_eq!(peek_kind(&[200]), None);
        assert_eq!(peek_kind(&vec![1u8; MAX_WIRE_LEN + 1]), None);
        // Tag byte alone decides — garbage after a valid tag still peeks.
        assert_eq!(
            peek_kind(&[TAG_PUSH_DATA, 0xFF, 0xFF]),
            Some(MessageKind::PushData)
        );
    }
}
