//! Framed duplex connections with a connect/accept handshake.
//!
//! One loopback TCP connection (`std::net`) per *unordered* node pair
//! carries both directed edges of that pair: a fresh `127.0.0.1:0`
//! listener per connection, connect then accept, `TCP_NODELAY` on. Each
//! end is split into an owned writer half (held by the node's event loop)
//! and an owned reader half (pumped by a dedicated reader thread). The
//! reader has a short read timeout so reader loops can poll their stop
//! flag, and dropping a writer half-closes its socket, so the peer's
//! reader sees EOF while this end's reader stays open. A host that cannot
//! bind a loopback socket fails the run with a typed error.
//!
//! The handshake exchanges `magic(2) ‖ version(1) ‖ node-id(4, u32le)` in
//! both directions before any frame flows, so a peer that speaks the wrong
//! protocol, the wrong version, or claims the wrong identity is rejected
//! with a typed [`WireError`] before it can inject traffic.

use super::codec::{WireError, WIRE_VERSION};
use dbac_graph::NodeId;
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, TcpListener, TcpStream};
use std::time::{Duration, Instant};

/// Handshake magic bytes ("dbac").
pub const HANDSHAKE_MAGIC: [u8; 2] = [0xDB, 0xAC];

/// Read timeout applied to every reader half, so pump loops can poll their
/// stop flag between blocking reads.
const READ_TIMEOUT: Duration = Duration::from_millis(10);

/// Wall-clock budget for a 7-byte handshake reply to arrive.
const HANDSHAKE_DEADLINE: Duration = Duration::from_secs(5);

/// One end of an established duplex connection, split into owned halves.
#[derive(Debug)]
pub struct Duplex {
    /// The readable half (short read timeout pre-configured).
    pub reader: TcpStream,
    /// The writable half.
    pub writer: TcpWriter,
}

/// Write half of a loopback TCP connection. Dropping it half-closes the
/// socket, so the peer reads EOF at once although this end's reader (a
/// clone of the same socket) stays open.
#[derive(Debug)]
pub struct TcpWriter(TcpStream);

impl Write for TcpWriter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.write(buf)
    }

    fn flush(&mut self) -> std::io::Result<()> {
        self.0.flush()
    }
}

impl Drop for TcpWriter {
    fn drop(&mut self) {
        // The peer may already have closed; there is nothing to report.
        let _ = self.0.shutdown(Shutdown::Write);
    }
}

/// Creates a connected but not-yet-handshaken loopback TCP pair.
///
/// # Errors
///
/// [`WireError::Io`] if the socket layer fails, including when no
/// loopback socket can be bound.
pub fn duplex_pair() -> Result<(Duplex, Duplex), WireError> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    // Loopback connect completes through the kernel backlog without a
    // userspace accept, so connect-then-accept is safe sequentially.
    let connector = TcpStream::connect(addr)?;
    let (acceptor, _) = listener.accept()?;
    let mut ends = Vec::with_capacity(2);
    for stream in [connector, acceptor] {
        stream.set_nodelay(true)?;
        let reader = stream.try_clone()?;
        reader.set_read_timeout(Some(READ_TIMEOUT))?;
        ends.push(Duplex { reader, writer: TcpWriter(stream) });
    }
    let acceptor = ends.pop().expect("two ends");
    let connector = ends.pop().expect("two ends");
    Ok((connector, acceptor))
}

/// Writes this end's 7-byte hello: magic, version, node id.
///
/// # Errors
///
/// [`WireError::Io`] on transport failure.
pub fn send_hello(w: &mut dyn Write, me: NodeId) -> Result<(), WireError> {
    let mut hello = [0u8; 7];
    hello[..2].copy_from_slice(&HANDSHAKE_MAGIC);
    hello[2] = WIRE_VERSION;
    hello[3..].copy_from_slice(&(me.index() as u32).to_le_bytes());
    w.write_all(&hello)?;
    w.flush()?;
    Ok(())
}

/// Reads and validates the peer's hello, returning the node it claims to
/// be. Tolerates read timeouts up to a fixed deadline (the peer's hello is
/// in flight during sequential setup).
///
/// # Errors
///
/// [`WireError::BadMagic`], [`WireError::VersionMismatch`] or
/// [`WireError::BadNodeId`] on a malformed hello; [`WireError::Truncated`]
/// on EOF mid-hello; [`WireError::Io`] on transport failure or deadline.
pub fn recv_hello(r: &mut dyn Read) -> Result<NodeId, WireError> {
    let mut hello = [0u8; 7];
    let deadline = Instant::now() + HANDSHAKE_DEADLINE;
    let mut filled = 0;
    while filled < hello.len() {
        match r.read(&mut hello[filled..]) {
            Ok(0) => return Err(WireError::Truncated { needed: 7, available: filled }),
            Ok(n) => filled += n,
            Err(e) if e.kind() == ErrorKind::Interrupted => {}
            Err(e) if e.kind() == ErrorKind::WouldBlock || e.kind() == ErrorKind::TimedOut => {
                if Instant::now() >= deadline {
                    return Err(WireError::Io(ErrorKind::TimedOut));
                }
            }
            Err(e) => return Err(WireError::Io(e.kind())),
        }
    }
    if hello[..2] != HANDSHAKE_MAGIC {
        return Err(WireError::BadMagic { got: [hello[0], hello[1]] });
    }
    if hello[2] != WIRE_VERSION {
        return Err(WireError::VersionMismatch { got: hello[2], want: WIRE_VERSION });
    }
    let raw = u32::from_le_bytes(hello[3..].try_into().expect("4 bytes"));
    if raw as usize >= dbac_graph::MAX_NODES {
        return Err(WireError::BadNodeId { raw });
    }
    Ok(NodeId::new(raw as usize))
}

/// Establishes one handshaken duplex connection between nodes `u` (the
/// connector) and `v` (the acceptor): `u` sends its hello, `v` validates
/// it and replies, `u` validates the reply. Returns `(u_end, v_end)`.
///
/// # Errors
///
/// Any handshake [`WireError`], including [`WireError::PeerMismatch`] if
/// an end identifies as a node the edge does not expect.
pub fn establish(u: NodeId, v: NodeId) -> Result<(Duplex, Duplex), WireError> {
    let (mut u_end, mut v_end) = duplex_pair()?;
    send_hello(&mut u_end.writer, u)?;
    let claimed = recv_hello(&mut v_end.reader)?;
    if claimed != u {
        return Err(WireError::PeerMismatch {
            got: claimed.index() as u32,
            want: u.index() as u32,
        });
    }
    send_hello(&mut v_end.writer, v)?;
    let claimed = recv_hello(&mut u_end.reader)?;
    if claimed != v {
        return Err(WireError::PeerMismatch {
            got: claimed.index() as u32,
            want: v.index() as u32,
        });
    }
    Ok((u_end, v_end))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(i: usize) -> NodeId {
        NodeId::new(i)
    }

    #[test]
    fn idle_tcp_reader_times_out_as_would_block() {
        let (_a, mut b) = duplex_pair().expect("loopback pair");
        let started = Instant::now();
        let err = b.reader.read(&mut [0u8; 1]).expect_err("nothing was sent");
        assert!(
            matches!(err.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut),
            "a read timeout, not {err:?}"
        );
        // READ_TIMEOUT is 10 ms; the bound leaves room for a loaded host.
        assert!(started.elapsed() < Duration::from_secs(1), "the read does not block");
    }

    #[test]
    fn tcp_writer_drop_is_eof_for_the_peer_while_the_reader_lives() {
        let (a, mut b) = duplex_pair().expect("loopback pair");
        let Duplex { reader: _a_reader, mut writer } = a;
        writer.write_all(b"abc").unwrap();
        drop(writer);
        let mut got = Vec::new();
        // A timeout would be `WouldBlock` after READ_TIMEOUT, not `Ok(0)`.
        b.reader.read_to_end(&mut got).expect("EOF, not a read timeout");
        assert_eq!(got, b"abc", "buffered bytes, then EOF");
    }

    #[test]
    fn handshake_succeeds_over_loopback_tcp() {
        let (u_end, v_end) = establish(id(2), id(5)).expect("handshake");
        drop((u_end, v_end));
    }

    #[test]
    fn handshake_rejects_garbage() {
        // Bad magic.
        let mut bytes: &[u8] = &[0x00, 0x01, WIRE_VERSION, 0, 0, 0, 0];
        assert_eq!(recv_hello(&mut bytes).unwrap_err(), WireError::BadMagic { got: [0x00, 0x01] });
        // Wrong version.
        let mut bytes: &[u8] = &[0xDB, 0xAC, 99, 0, 0, 0, 0];
        assert_eq!(
            recv_hello(&mut bytes).unwrap_err(),
            WireError::VersionMismatch { got: 99, want: WIRE_VERSION }
        );
        // Node index out of range.
        let mut hello = vec![0xDB, 0xAC, WIRE_VERSION];
        hello.extend_from_slice(&4096u32.to_le_bytes());
        assert_eq!(
            recv_hello(&mut hello.as_slice()).unwrap_err(),
            WireError::BadNodeId { raw: 4096 }
        );
        // Truncated hello.
        let mut bytes: &[u8] = &[0xDB, 0xAC];
        assert_eq!(
            recv_hello(&mut bytes).unwrap_err(),
            WireError::Truncated { needed: 7, available: 2 }
        );
    }

    #[test]
    fn hello_round_trip_carries_the_node_id() {
        let mut buf = Vec::new();
        send_hello(&mut buf, id(42)).unwrap();
        assert_eq!(recv_hello(&mut buf.as_slice()).unwrap(), id(42));
    }
}
