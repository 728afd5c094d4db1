//! Length-prefixed binary wire codec for the network runtime.
//!
//! Nothing in the workspace serializes through serde at runtime (the shim
//! is marker-only), so messages that cross a real byte stream use this
//! hand-rolled little-endian codec instead:
//!
//! ```text
//! frame    := len:u32le body:[u8; len]        (len ≤ MAX_FRAME)
//! body     := one encoded message (see each WireMessage impl)
//! ```
//!
//! The codec layer is **topology-agnostic and total**: any `u32` decodes
//! into a `PathId`-shaped field and any word run into a suspect set — the
//! protocol validation boundary (`validate_flood` / `validate_complete`)
//! is what rejects forged contents, exactly as it already does for
//! in-process adversaries. What the codec *does* enforce is structural
//! sanity: bounded frames, bounded node indices, known tags, and no
//! trailing bytes — every violation is a typed [`WireError`], never a
//! panic, so a Byzantine peer cannot wedge a reader loop.

use dbac_graph::{NodeId, NodeSet};
use std::io::{ErrorKind, Read, Write};

/// Protocol version byte exchanged in the connection handshake.
pub const WIRE_VERSION: u8 = 1;

/// Hard cap on a frame body, in bytes. An advertised length above this is
/// a framing error: the stream is unrecoverable and the connection closes.
pub const MAX_FRAME: usize = 1 << 20;

/// Typed decode / framing errors.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum WireError {
    /// The buffer ended before a fixed-size field (or a counted repetition)
    /// could be read.
    Truncated {
        /// Bytes the decoder needed next.
        needed: usize,
        /// Bytes actually available.
        available: usize,
    },
    /// Decoding succeeded but left unconsumed bytes in the frame.
    Trailing {
        /// Number of leftover bytes.
        extra: usize,
    },
    /// An enum tag byte outside the known range.
    UnknownTag {
        /// The offending tag.
        tag: u8,
    },
    /// A frame length prefix above [`MAX_FRAME`] (framing error — the
    /// stream is desynchronized and the connection must close).
    OversizeFrame {
        /// The advertised length.
        len: u64,
        /// The maximum allowed.
        max: u64,
    },
    /// A node index at or above the graph-layer `MAX_NODES` bound;
    /// constructing a [`NodeId`] from it would panic, so the decoder
    /// rejects it first.
    BadNodeId {
        /// The raw index from the wire.
        raw: u32,
    },
    /// Handshake magic bytes did not match.
    BadMagic {
        /// What arrived instead.
        got: [u8; 2],
    },
    /// Handshake version byte did not match [`WIRE_VERSION`].
    VersionMismatch {
        /// The peer's version.
        got: u8,
        /// Our version.
        want: u8,
    },
    /// The peer identified as a different node than the edge expects.
    PeerMismatch {
        /// The node id the peer claimed.
        got: u32,
        /// The node id the topology expects on this connection.
        want: u32,
    },
    /// An underlying transport I/O failure (kind only, to stay `Eq`).
    Io(ErrorKind),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated { needed, available } => {
                write!(f, "truncated: needed {needed} bytes, had {available}")
            }
            WireError::Trailing { extra } => write!(f, "{extra} trailing bytes after message"),
            WireError::UnknownTag { tag } => write!(f, "unknown message tag {tag:#04x}"),
            WireError::OversizeFrame { len, max } => {
                write!(f, "frame length {len} exceeds cap {max}")
            }
            WireError::BadNodeId { raw } => write!(f, "node index {raw} out of range"),
            WireError::BadMagic { got } => write!(f, "bad handshake magic {got:02x?}"),
            WireError::VersionMismatch { got, want } => {
                write!(f, "wire version {got} (expected {want})")
            }
            WireError::PeerMismatch { got, want } => {
                write!(f, "peer identified as node {got} (expected {want})")
            }
            WireError::Io(kind) => write!(f, "transport i/o error: {kind:?}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<std::io::Error> for WireError {
    fn from(e: std::io::Error) -> Self {
        WireError::Io(e.kind())
    }
}

/// A bounds-checked cursor over one frame body.
#[derive(Debug)]
pub struct WireReader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> WireReader<'a> {
    /// Wraps a frame body.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        WireReader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        if self.remaining() < n {
            return Err(WireError::Truncated { needed: n, available: self.remaining() });
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().expect("4 bytes")))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().expect("8 bytes")))
    }

    /// Reads an `f64` as its transparent bit pattern (NaN payloads and the
    /// `0.0`/`-0.0` distinction survive the wire bit-exactly).
    pub fn f64(&mut self) -> Result<f64, WireError> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Reads a node index and validates it against the graph-layer bound,
    /// so adversarial input can never reach the panicking `NodeId::new`.
    pub fn node_id(&mut self) -> Result<NodeId, WireError> {
        let raw = self.u32()?;
        if raw as usize >= dbac_graph::MAX_NODES {
            return Err(WireError::BadNodeId { raw });
        }
        Ok(NodeId::new(raw as usize))
    }

    /// Reads a [`NodeSet`] as its `NODE_WORDS` little-endian backing
    /// words (the width-honest form written by [`encode_node_set`]). The
    /// read is structural only — every bit pattern is a valid set.
    pub fn node_set(&mut self) -> Result<NodeSet, WireError> {
        let mut words = [0u64; dbac_graph::NODE_WORDS];
        for w in &mut words {
            *w = self.u64()?;
        }
        Ok(NodeSet::from_words(words))
    }

    /// Asserts the frame was consumed exactly.
    pub fn finish(self) -> Result<(), WireError> {
        match self.remaining() {
            0 => Ok(()),
            extra => Err(WireError::Trailing { extra }),
        }
    }
}

/// A message with a canonical binary wire form.
///
/// `encode`/`decode` must round-trip **byte-identically**: re-encoding a
/// decoded message yields the original bytes (the differential tests rely
/// on this being true even for NaN float payloads, where structural
/// equality is unavailable).
pub trait WireMessage: Sized {
    /// Appends the canonical encoding to `out`.
    fn encode(&self, out: &mut Vec<u8>);

    /// Decodes one message from the reader. Implementations must be total:
    /// any input yields `Ok` or a typed [`WireError`], never a panic.
    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError>;

    /// The canonical encoding as a fresh buffer.
    fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.encode(&mut out);
        out
    }

    /// Decodes a complete frame body, rejecting trailing bytes.
    fn from_bytes(buf: &[u8]) -> Result<Self, WireError> {
        let mut r = WireReader::new(buf);
        let msg = Self::decode(&mut r)?;
        r.finish()?;
        Ok(msg)
    }
}

/// Bare `u64` payload — used by the runtime's own gossip tests.
impl WireMessage for u64 {
    fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.to_le_bytes());
    }

    fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
        r.u64()
    }
}

/// Appends a [`NodeSet`]'s canonical wire form — its `NODE_WORDS`
/// little-endian backing words — to `out`. The fixed width keeps the
/// frame layout static per build; both endpoints share the binary, so
/// they always agree on it.
pub fn encode_node_set(set: NodeSet, out: &mut Vec<u8>) {
    for w in set.words() {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

/// Bytes a [`NodeSet`] occupies on the wire.
pub const NODE_SET_BYTES: usize = dbac_graph::NODE_WORDS * 8;

/// Writes one length-prefixed frame and flushes.
///
/// # Errors
///
/// [`WireError::OversizeFrame`] if `body` exceeds [`MAX_FRAME`];
/// [`WireError::Io`] on transport failure.
pub fn write_frame(w: &mut dyn Write, body: &[u8]) -> Result<(), WireError> {
    if body.len() > MAX_FRAME {
        return Err(WireError::OversizeFrame { len: body.len() as u64, max: MAX_FRAME as u64 });
    }
    // One contiguous buffer → one write syscall per frame; at ~1M messages
    // per run the prefix+body split costs more in syscalls than the copy.
    let mut frame = Vec::with_capacity(4 + body.len());
    frame.extend_from_slice(&(body.len() as u32).to_le_bytes());
    frame.extend_from_slice(body);
    w.write_all(&frame)?;
    w.flush()?;
    Ok(())
}

/// Pulls length-prefixed frames off a byte stream whose reads may time out
/// (both transports hand the reader loop a short read timeout so it can
/// poll its stop flag instead of blocking forever).
#[derive(Debug)]
pub struct FrameReader<R> {
    inner: R,
}

impl<R: Read> FrameReader<R> {
    /// Wraps a readable half.
    pub fn new(inner: R) -> Self {
        FrameReader { inner }
    }

    /// Reads the next frame body.
    ///
    /// Returns `Ok(None)` on clean end-of-stream (EOF at a frame boundary)
    /// or when `stop` turns true mid-wait. EOF *inside* a frame is
    /// [`WireError::Truncated`]; an advertised length above [`MAX_FRAME`]
    /// is [`WireError::OversizeFrame`] — both leave the stream
    /// desynchronized, so callers must close the connection on `Err`.
    pub fn read_frame(&mut self, stop: &dyn Fn() -> bool) -> Result<Option<Vec<u8>>, WireError> {
        let mut prefix = [0u8; 4];
        if !self.fill(&mut prefix, true, stop)? {
            return Ok(None);
        }
        let len = u32::from_le_bytes(prefix) as usize;
        if len > MAX_FRAME {
            return Err(WireError::OversizeFrame { len: len as u64, max: MAX_FRAME as u64 });
        }
        let mut body = vec![0u8; len];
        if !self.fill(&mut body, false, stop)? {
            return Ok(None);
        }
        Ok(Some(body))
    }

    /// Fills `buf`, retrying timeouts until `stop`. Returns `false` on a
    /// stop, or on EOF when `at_boundary` and nothing was read yet.
    fn fill(
        &mut self,
        buf: &mut [u8],
        at_boundary: bool,
        stop: &dyn Fn() -> bool,
    ) -> Result<bool, WireError> {
        let mut filled = 0;
        while filled < buf.len() {
            match self.inner.read(&mut buf[filled..]) {
                Ok(0) => {
                    if at_boundary && filled == 0 {
                        return Ok(false);
                    }
                    return Err(WireError::Truncated { needed: buf.len(), available: filled });
                }
                Ok(n) => filled += n,
                Err(e) if e.kind() == ErrorKind::Interrupted => {}
                Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                    if stop() {
                        return Ok(false);
                    }
                }
                Err(e) => return Err(WireError::Io(e.kind())),
            }
        }
        Ok(true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Cursor;

    const NEVER: fn() -> bool = || false;

    fn frame(body: &[u8]) -> Vec<u8> {
        let mut out = Vec::new();
        write_frame(&mut out, body).unwrap();
        out
    }

    #[test]
    fn frame_round_trip() {
        let stream = [frame(b"alpha"), frame(b""), frame(b"bravo")].concat();
        let mut fr = FrameReader::new(Cursor::new(stream));
        assert_eq!(fr.read_frame(&NEVER).unwrap().unwrap(), b"alpha");
        assert_eq!(fr.read_frame(&NEVER).unwrap().unwrap(), b"");
        assert_eq!(fr.read_frame(&NEVER).unwrap().unwrap(), b"bravo");
        assert_eq!(fr.read_frame(&NEVER).unwrap(), None, "clean EOF at boundary");
    }

    #[test]
    fn truncated_prefix_is_an_error() {
        // Two bytes of a four-byte prefix, then EOF.
        let mut fr = FrameReader::new(Cursor::new(vec![9u8, 0]));
        assert_eq!(
            fr.read_frame(&NEVER).unwrap_err(),
            WireError::Truncated { needed: 4, available: 2 }
        );
    }

    #[test]
    fn truncated_body_is_an_error() {
        let mut bytes = frame(b"abcdef");
        bytes.truncate(bytes.len() - 2);
        let mut fr = FrameReader::new(Cursor::new(bytes));
        assert_eq!(
            fr.read_frame(&NEVER).unwrap_err(),
            WireError::Truncated { needed: 6, available: 4 }
        );
    }

    #[test]
    fn oversize_prefix_is_rejected_before_allocation() {
        let mut bytes = (u32::MAX - 7).to_le_bytes().to_vec();
        bytes.extend_from_slice(b"garbage");
        let mut fr = FrameReader::new(Cursor::new(bytes));
        match fr.read_frame(&NEVER).unwrap_err() {
            WireError::OversizeFrame { len, max } => {
                assert_eq!(len, u64::from(u32::MAX - 7));
                assert_eq!(max, MAX_FRAME as u64);
            }
            other => panic!("expected oversize, got {other:?}"),
        }
    }

    #[test]
    fn write_frame_refuses_oversize_bodies() {
        let body = vec![0u8; MAX_FRAME + 1];
        let mut sink = Vec::new();
        assert!(matches!(write_frame(&mut sink, &body), Err(WireError::OversizeFrame { .. })));
        assert!(sink.is_empty(), "nothing written for a refused frame");
    }

    #[test]
    fn reader_primitives_and_trailing_check() {
        let mut body = Vec::new();
        body.push(7u8);
        body.extend_from_slice(&0xDEAD_BEEFu32.to_le_bytes());
        body.extend_from_slice(&1.5f64.to_bits().to_le_bytes());
        let mut r = WireReader::new(&body);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(r.f64().unwrap(), 1.5);
        r.finish().unwrap();

        let mut r = WireReader::new(&body);
        assert_eq!(r.u8().unwrap(), 7);
        assert_eq!(r.finish().unwrap_err(), WireError::Trailing { extra: 12 });
    }

    #[test]
    fn node_id_bound_is_enforced() {
        let max = dbac_graph::MAX_NODES as u32;
        let bytes = max.to_le_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.node_id().unwrap_err(), WireError::BadNodeId { raw: max });
        let bytes = (max - 1).to_le_bytes();
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.node_id().unwrap(), NodeId::new(max as usize - 1));
    }

    #[test]
    fn node_set_wire_round_trip() {
        let set: NodeSet =
            [0, 63, 64, 127, 128, dbac_graph::MAX_NODES - 1].into_iter().map(NodeId::new).collect();
        let mut bytes = Vec::new();
        encode_node_set(set, &mut bytes);
        assert_eq!(bytes.len(), NODE_SET_BYTES);
        let mut r = WireReader::new(&bytes);
        assert_eq!(r.node_set().unwrap(), set);
        r.finish().unwrap();

        let mut r = WireReader::new(&bytes[..NODE_SET_BYTES - 1]);
        assert!(matches!(r.node_set().unwrap_err(), WireError::Truncated { .. }));
    }

    #[test]
    fn u64_wire_round_trip() {
        for v in [0u64, 1, u64::MAX, 0x0123_4567_89AB_CDEF] {
            let bytes = v.to_bytes();
            assert_eq!(u64::from_bytes(&bytes).unwrap(), v);
        }
        assert_eq!(
            u64::from_bytes(&[1, 2, 3]).unwrap_err(),
            WireError::Truncated { needed: 8, available: 3 }
        );
        assert_eq!(u64::from_bytes(&[0; 9]).unwrap_err(), WireError::Trailing { extra: 1 });
    }
}
