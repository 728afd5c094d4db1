//! Network runtime: one event loop per node over framed byte streams.
//!
//! The third runtime of the workspace. Where [`crate::sim`] delivers
//! in-memory messages from a virtual-time queue and [`crate::threaded`]
//! clones them across crossbeam channels, this runtime **serializes every
//! message** through the length-prefixed binary codec
//! ([`codec::WireMessage`]) and moves the bytes over per-peer duplex
//! loopback TCP connections with a connect/accept handshake
//! ([`connection::establish`]). The codec and connection layers are
//! byte-real: frames, size caps, decode errors and handshake validation
//! all actually run.
//!
//! Architecture per run:
//!
//! * one **duplex connection** per unordered node pair with at least one
//!   directed edge, established and handshaken sequentially before any
//!   node starts;
//! * one **reader thread** per connection end, pumping frames into the
//!   owning node's inbox; a frame that fails to decode is booked as
//!   `rejected` on the run's [`StatsRegistry`] (and so in
//!   [`SimStats::messages_rejected`](crate::sim::SimStats::messages_rejected))
//!   and skipped — a framing-level error (oversize prefix, truncation)
//!   closes that connection, and neither ever wedges the node's event
//!   loop;
//! * one **node thread** per node: the shared wall-clock driver
//!   ([`Fleet::run`]) — the very loop, send gate, watchdog and straggler
//!   classification of the threaded runtime — framing messages where that
//!   runtime sends on a channel. The fate of the k-th message on an edge
//!   is therefore identical across all three runtimes, and a partitioned
//!   or panicked node degrades into the same typed
//!   [`Incomplete`](crate::threaded::Incomplete) reports.
//!
//! The node thread encodes frames in place into one buffer per peer and
//! writes each buffer once per inbox batch — after `on_start`, after up
//! to 65 arrivals, and before sleeping out a link's extra delay — or as
//! soon as it reaches 16 KiB, so a burst of small messages costs one
//! write, not one per frame; per-edge order is unchanged. Connection ends
//! close on drop: when a node thread exits, its peers' readers see EOF.

pub mod codec;
pub mod connection;

use crate::error::SimError;
use crate::fleet::{Connected, Fleet, Inbox, Wire};
use crate::stats::{MsgClass, StatsHandle, StatsRegistry};
use codec::{append_frame, FrameReader, WireError, WireMessage};
use connection::{establish, Duplex, TcpWriter};
use dbac_graph::{Digraph, NodeId};
use std::io::{Read, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Configuration for a network run.
#[derive(Clone, Copy, Debug)]
pub struct NetConfig {
    /// Wall-clock watchdog deadline: nodes still incomplete when it
    /// expires are reported per node, not errors.
    pub timeout: Duration,
}

impl Default for NetConfig {
    fn default() -> Self {
        NetConfig { timeout: Duration::from_secs(30) }
    }
}

/// A network execution: a [`Fleet`] whose [`run`](Fleet::run) is given a
/// [`NetConfig`] — every node on its own thread, every message through the
/// wire codec and a framed duplex connection. The report type is shared
/// with the threaded runtime; both degrade identically.
pub type Net<P> = Fleet<P>;

/// A peer buffer at least this long is written without waiting for the
/// flush, which bounds the memory a burst can hold per connection.
const FLUSH_BYTES: usize = 16 << 10;

/// One node's framed writers, indexed by peer (`None` where no connection
/// exists), each with the frames not yet written to it.
pub struct FramedOutlet {
    peers: Vec<Option<Peer>>,
}

struct Peer {
    writer: TcpWriter,
    /// Whole frames, in send order.
    pending: Vec<u8>,
}

impl Peer {
    fn new(writer: TcpWriter) -> Self {
        Peer { writer, pending: Vec::new() }
    }

    /// Writes every pending frame. The receiver may already have shut
    /// down; then the frames are lost with the connection.
    fn write_pending(&mut self) {
        let _ = self.writer.write_all(&self.pending).and_then(|()| self.writer.flush());
        self.pending.clear();
    }
}

impl FramedOutlet {
    fn write_all_pending(&mut self) {
        for peer in self.peers.iter_mut().flatten() {
            if !peer.pending.is_empty() {
                peer.write_pending();
            }
        }
    }
}

impl Drop for FramedOutlet {
    /// A node that panics mid-batch still sends what its finished
    /// activations queued, as it would had each written its own frames.
    fn drop(&mut self) {
        self.write_all_pending();
    }
}

impl<M: WireMessage + Send + 'static> Wire<M> for NetConfig {
    type Outlet = FramedOutlet;

    fn timeout(&self) -> Duration {
        self.timeout
    }

    /// Establishes one handshaken duplex connection per unordered pair
    /// with at least one directed edge, sequentially in this thread, and
    /// starts one reader thread per connection end.
    fn connect(
        self,
        graph: &Digraph,
        registry: &StatsRegistry,
        inboxes: Vec<Inbox<M>>,
        stop: &Arc<AtomicBool>,
    ) -> Result<Connected<FramedOutlet>, SimError> {
        let n = graph.node_count();
        let mut outlets: Vec<FramedOutlet> =
            (0..n).map(|_| FramedOutlet { peers: (0..n).map(|_| None).collect() }).collect();
        let mut readers: Vec<(NodeId, NodeId, std::net::TcpStream)> = Vec::new();
        for u in 0..n {
            for v in (u + 1)..n {
                let (u_id, v_id) = (NodeId::new(u), NodeId::new(v));
                if !graph.has_edge(u_id, v_id) && !graph.has_edge(v_id, u_id) {
                    continue;
                }
                let (u_end, v_end) = establish(u_id, v_id)
                    .map_err(|e| SimError::Transport { detail: format!("{u_id}<->{v_id}: {e}") })?;
                let Duplex { reader: u_reader, writer: u_writer } = u_end;
                let Duplex { reader: v_reader, writer: v_writer } = v_end;
                outlets[u].peers[v] = Some(Peer::new(u_writer));
                outlets[v].peers[u] = Some(Peer::new(v_writer));
                // Node u hears v on u's end of the pair, and vice versa.
                readers.push((u_id, v_id, u_reader));
                readers.push((v_id, u_id, v_reader));
            }
        }
        // Reader threads hold the only inbox senders once `inboxes` drops,
        // so a node whose connections all die sees its inbox disconnect —
        // starvation.
        let pumps = readers
            .into_iter()
            .map(|(owner, from, reader)| {
                let inbox = inboxes[owner.index()].clone();
                let stop = Arc::clone(stop);
                let stats = registry.register();
                std::thread::spawn(move || pump_frames(reader, from, &inbox, &stop, &stats))
            })
            .collect();
        Ok((outlets, pumps))
    }

    /// Frames `msg` into the peer's buffer, copies included. A body over
    /// [`MAX_FRAME`](codec::MAX_FRAME) is skipped, as `write_frame`
    /// refuses it.
    fn emit(outlet: &mut FramedOutlet, to: NodeId, msg: M, copies: u32) {
        let peer = outlet.peers[to.index()].as_mut().expect("edge has a connection");
        let start = peer.pending.len();
        let Ok(len) = append_frame(&mut peer.pending, &msg) else { return };
        for _ in 1..copies {
            peer.pending.extend_from_within(start..start + len);
        }
        if peer.pending.len() >= FLUSH_BYTES {
            peer.write_pending();
        }
    }

    fn flush(outlet: &mut FramedOutlet) {
        outlet.write_all_pending();
    }
}

/// The per-connection reader loop: pulls frames, decodes, forwards into
/// the owner's inbox. Total by construction — an undecodable frame is
/// booked as rejected (it has no classifiable payload, so it lands in the
/// [`MsgClass::Other`] bucket) and **skipped** (the loop keeps pumping),
/// while a framing-level error (oversize length prefix, mid-frame
/// truncation) also counts once and closes this connection; a socket
/// error (a reset at teardown, say) closes it and books nothing. A
/// Byzantine byte stream can therefore never wedge the peer's event loop.
fn pump_frames<M: WireMessage>(
    reader: impl Read,
    from: NodeId,
    inbox: &Inbox<M>,
    stop: &AtomicBool,
    stats: &StatsHandle,
) {
    // Buffer socket reads so a burst of small frames costs one syscall,
    // not two per frame. `BufReader` passes the transport's `WouldBlock`
    // read timeouts straight through when its buffer is empty, so the
    // stop-flag polling in `read_frame` keeps working.
    let mut frames = FrameReader::new(std::io::BufReader::with_capacity(1 << 16, reader));
    let stopped = || stop.load(Ordering::SeqCst);
    let mut body = Vec::new();
    loop {
        match frames.read_frame_into(&mut body, &stopped) {
            Ok(true) => match M::from_bytes(&body) {
                // Owner may already have shut down; ignore.
                Ok(msg) => {
                    let _ = inbox.send((from, msg));
                }
                Err(_) => stats.record_rejected(MsgClass::Other),
            },
            Ok(false) | Err(WireError::Io(_)) => break,
            Err(_) => {
                stats.record_rejected(MsgClass::Other);
                break;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{LinkFault, LinkFaultPlan};
    use crate::process::{Adversary, Context, Process, Silent};
    use crate::threaded::{Incomplete, IncompleteReason, Threaded, ThreadedConfig};
    use codec::{write_frame, WireReader, MAX_FRAME};
    use crossbeam::channel::unbounded;
    use dbac_graph::generators;
    use std::io::{Cursor, ErrorKind};
    use std::time::Instant;

    fn id(i: usize) -> NodeId {
        NodeId::new(i)
    }

    fn config(timeout_ms: u64) -> NetConfig {
        NetConfig { timeout: Duration::from_millis(timeout_ms) }
    }

    /// Collects one value from every in-neighbor, then is done.
    #[derive(Debug)]
    struct Collect {
        expected: usize,
        input: u64,
        heard: Vec<u64>,
    }

    impl Process for Collect {
        type Message = u64;
        fn on_start(&mut self, ctx: &mut Context<u64>) {
            ctx.broadcast(&self.input);
        }
        fn on_message(&mut self, _ctx: &mut Context<u64>, _from: NodeId, msg: u64) {
            self.heard.push(msg);
        }
    }

    #[test]
    fn net_clique_gossip_completes() {
        let g = Arc::new(generators::clique(4));
        let mut net = Net::new(g);
        for i in 0..4 {
            net.set_honest(id(i), Collect { expected: 3, input: i as u64, heard: Vec::new() });
        }
        let report = net.run(|p| p.heard.len() >= p.expected, config(10_000)).unwrap();
        assert!(report.incomplete.is_empty(), "{:?}", report.incomplete);
        assert_eq!(report.stats.messages_sent, 12);
        assert!(report.stats.messages_delivered >= 12);
        assert_eq!(report.stats.messages_rejected, 0, "honest peers encode cleanly");
        for p in report.nodes.iter().flatten() {
            assert!(p.heard.len() >= 3);
        }
    }

    #[test]
    fn net_with_byzantine_silent() {
        let g = Arc::new(generators::clique(3));
        let mut net = Net::new(g);
        net.set_honest(id(0), Collect { expected: 1, input: 0, heard: Vec::new() });
        net.set_honest(id(1), Collect { expected: 1, input: 1, heard: Vec::new() });
        net.set_byzantine(id(2), Box::new(Silent));
        let report = net.run(|p| p.heard.len() >= p.expected, NetConfig::default()).unwrap();
        assert!(report.incomplete.is_empty());
        assert!(report.nodes[0].is_some() && report.nodes[1].is_some());
        assert!(report.nodes[2].is_none(), "byzantine slot returns no process");
    }

    #[test]
    fn net_timeout_degrades_to_per_node_reports() {
        let g = Arc::new(generators::clique(2));
        let mut net = Net::new(g);
        for i in 0..2 {
            net.set_honest(id(i), Collect { expected: 99, input: 0, heard: Vec::new() });
        }
        let report = net.run(|p| p.heard.len() >= p.expected, config(300)).unwrap();
        assert_eq!(
            report.incomplete,
            vec![
                Incomplete { node: id(0), reason: IncompleteReason::Timeout },
                Incomplete { node: id(1), reason: IncompleteReason::Timeout },
            ]
        );
        for p in report.nodes.iter() {
            let p = p.as_ref().expect("partial state survives a timeout");
            assert_eq!(p.heard.len(), 1, "one exchange still happened");
        }
    }

    #[test]
    fn net_unassigned_node() {
        let g = Arc::new(generators::clique(2));
        let mut net: Net<Collect> = Net::new(g);
        net.set_honest(id(0), Collect { expected: 0, input: 0, heard: Vec::new() });
        let err = net.run(|_| true, NetConfig::default()).unwrap_err();
        assert_eq!(err, SimError::UnassignedNode { node: 1 });
    }

    #[test]
    fn net_omit_starves_only_the_cut_edge() {
        let g = Arc::new(generators::clique(3));
        let mut net = Net::new(g);
        for i in 0..3 {
            net.set_honest(id(i), Collect { expected: 2, input: i as u64, heard: Vec::new() });
        }
        net.set_link_faults(LinkFaultPlan::new(0).fault(id(0), id(1), LinkFault::Omit));
        let report = net.run(|p| p.heard.len() >= p.expected, config(700)).unwrap();
        assert_eq!(
            report.incomplete,
            vec![Incomplete { node: id(1), reason: IncompleteReason::Timeout }],
            "only the node behind the cut edge misses its quota"
        );
        assert_eq!(report.stats.messages_dropped, 1);
        assert_eq!(report.stats.messages_sent, 6);
        let starved = report.nodes[1].as_ref().unwrap();
        assert_eq!(starved.heard.len(), 1, "node 2's message still arrives");
    }

    #[test]
    fn net_duplicate_doubles_the_edge() {
        let g = Arc::new(generators::clique(2));
        let mut net = Net::new(g);
        net.set_honest(id(0), Collect { expected: 1, input: 7, heard: Vec::new() });
        net.set_honest(id(1), Collect { expected: 2, input: 8, heard: Vec::new() });
        net.set_link_faults(LinkFaultPlan::new(0).fault(
            id(0),
            id(1),
            LinkFault::Duplicate { prob: 1.0 },
        ));
        let report = net.run(|p| p.heard.len() >= p.expected, config(5_000)).unwrap();
        assert!(report.incomplete.is_empty());
        assert_eq!(report.stats.messages_duplicated, 1);
        assert_eq!(report.nodes[1].as_ref().unwrap().heard, vec![7, 7]);
    }

    /// Sends `count` numbered messages down every out-edge at start and
    /// echoes each one back shifted by `count`, so every edge carries
    /// `0..2·count` in order.
    #[derive(Debug)]
    struct Echo {
        count: u64,
        heard: Vec<(NodeId, u64)>,
    }

    impl Process for Echo {
        type Message = u64;
        fn on_start(&mut self, ctx: &mut Context<u64>) {
            for k in 0..self.count {
                ctx.broadcast(&k);
            }
        }
        fn on_message(&mut self, ctx: &mut Context<u64>, from: NodeId, msg: u64) {
            self.heard.push((from, msg));
            if msg < self.count {
                ctx.send(from, msg + self.count);
            }
        }
    }

    #[test]
    fn net_bursts_past_the_flush_cap_and_batch_keep_per_edge_order() {
        // 6,000 twelve-byte frames per edge from one `on_start` is 72 KB,
        // four times the per-peer cap, and far more than one batch of
        // arrivals is queued at each receiver.
        const COUNT: u64 = 6_000;
        let mut net = Net::new(Arc::new(generators::clique(3)));
        for i in 0..3 {
            net.set_honest(id(i), Echo { count: COUNT, heard: Vec::new() });
        }
        let quota = (2 * 2 * COUNT) as usize;
        let report = net.run(move |p| p.heard.len() >= quota, config(30_000)).unwrap();
        assert!(report.incomplete.is_empty(), "{:?}", report.incomplete);
        for (v, p) in report.nodes.iter().enumerate() {
            let p = p.as_ref().expect("honest");
            for u in (0..3).filter(|&u| u != v) {
                let edge = p.heard.iter().filter(|(from, _)| *from == id(u));
                assert!(
                    edge.map(|&(_, m)| m).eq(0..2 * COUNT),
                    "{u}->{v} out of order or incomplete"
                );
            }
        }
    }

    /// Panics before it sends anything.
    struct Grenade;

    impl Adversary<u64> for Grenade {
        fn on_start(&mut self, _ctx: &mut Context<u64>) {
            panic!("boom");
        }
        fn on_message(&mut self, _ctx: &mut Context<u64>, _from: NodeId, _msg: u64) {}
    }

    #[test]
    fn net_peer_panicking_in_on_start_starves_its_only_neighbour() {
        let mut net = Net::new(Arc::new(generators::clique(2)));
        net.set_byzantine(id(0), Box::new(Grenade));
        net.set_honest(id(1), Collect { expected: 1, input: 1, heard: Vec::new() });
        let started = Instant::now();
        let report = net.run(|p| p.heard.len() >= p.expected, config(30_000)).unwrap();
        assert_eq!(
            report.incomplete,
            vec![Incomplete { node: id(1), reason: IncompleteReason::Starved }],
            "the dead peer's connection closes, so node 1's inbox disconnects"
        );
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "the watchdog ends once every node thread has exited"
        );
    }

    #[test]
    fn threaded_peer_panicking_in_on_start_starves_its_only_neighbour() {
        let mut threaded = Threaded::new(Arc::new(generators::clique(2)));
        threaded.set_byzantine(id(0), Box::new(Grenade));
        threaded.set_honest(id(1), Collect { expected: 1, input: 1, heard: Vec::new() });
        let config = ThreadedConfig { timeout: Duration::from_secs(30), jitter_micros: 0, seed: 0 };
        let started = Instant::now();
        let report = threaded.run(|p| p.heard.len() >= p.expected, config).unwrap();
        assert_eq!(
            report.incomplete,
            vec![Incomplete { node: id(1), reason: IncompleteReason::Starved }],
            "the dead peer held the only sender to node 1's inbox"
        );
        assert!(
            started.elapsed() < Duration::from_secs(5),
            "the watchdog ends once every node thread has exited"
        );
    }

    // -- the outlet writes exactly the retired per-frame byte stream -------

    /// A message whose body is its bytes, so a script controls frame sizes.
    struct Blob(Vec<u8>);

    impl WireMessage for Blob {
        fn encode(&self, out: &mut Vec<u8>) {
            out.extend_from_slice(&self.0);
        }
        fn decode(r: &mut WireReader<'_>) -> Result<Self, WireError> {
            let mut body = Vec::with_capacity(r.remaining());
            while r.remaining() > 0 {
                body.push(r.u8()?);
            }
            Ok(Blob(body))
        }
    }

    #[test]
    fn outlet_bytes_equal_one_write_frame_per_copy() {
        const PEERS: usize = 3;
        let mut next = splitmix(0x0B1E7);
        let (ours, theirs): (Vec<_>, Vec<_>) =
            (0..PEERS).map(|_| connection::duplex_pair().expect("loopback pair")).unzip();
        let mut outlet =
            FramedOutlet { peers: ours.into_iter().map(|d| Some(Peer::new(d.writer))).collect() };
        // Drain every peer concurrently: a burst can outgrow a socket buffer.
        let received: Vec<_> =
            theirs.into_iter().map(|d| std::thread::spawn(move || drain(d.reader))).collect();
        // What the per-frame path wrote, and the bodies a reader must see.
        let mut expected = vec![Vec::new(); PEERS];
        let mut bodies: Vec<Vec<Vec<u8>>> = vec![Vec::new(); PEERS];
        let oversize_at = 40;
        let mut early_writes = 0;
        for step in 0..160 {
            let to = (next() % PEERS as u64) as usize;
            let copies = 1 + (next() % 3) as u32;
            let body: Vec<u8> = if step == oversize_at {
                vec![0xAB; MAX_FRAME + 1]
            } else {
                (0..next() % 6_000).map(|_| next() as u8).collect()
            };
            for _ in 0..copies {
                let refused = write_frame(&mut expected[to], &body).is_err();
                assert_eq!(refused, step == oversize_at);
                if !refused {
                    bodies[to].push(body.clone());
                }
            }
            <NetConfig as Wire<Blob>>::emit(&mut outlet, id(to), Blob(body), copies);
            let pending = outlet.peers[to].as_ref().unwrap().pending.len();
            assert!(pending < FLUSH_BYTES, "a full buffer is written at once");
            // Every accepted frame is at least its 4-byte prefix.
            early_writes += usize::from(pending == 0 && step != oversize_at);
            // Batch boundaries at random, about one every eight sends.
            if next() % 8 == 0 {
                <NetConfig as Wire<Blob>>::flush(&mut outlet);
            }
        }
        assert!(early_writes > 0, "the script crosses the cap inside a batch");
        <NetConfig as Wire<Blob>>::flush(&mut outlet);
        drop(outlet);
        for (to, got) in received.into_iter().enumerate() {
            let got = got.join().expect("drain");
            assert_eq!(got, expected[to], "peer {to}: bytes differ from per-frame writes");
            let mut frames = FrameReader::new(got.as_slice());
            let mut decoded = Vec::new();
            while let Some(body) = frames.read_frame(&|| false).unwrap() {
                decoded.push(body);
            }
            assert_eq!(decoded, bodies[to], "peer {to}: every frame decodes, in order");
        }
    }

    // -- adversarial byte streams never wedge the pump ---------------------

    /// A registry whose snapshot reports the pump's rejection count.
    fn ledger() -> Arc<StatsRegistry> {
        let registry = StatsRegistry::new(4);
        registry.note_transport_observed();
        registry
    }

    #[test]
    fn pump_skips_undecodable_frames_and_keeps_going() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &7u64.to_le_bytes()).unwrap();
        write_frame(&mut bytes, b"garbage").unwrap(); // wrong length for u64
        write_frame(&mut bytes, &9u64.to_le_bytes()).unwrap();
        let (tx, rx) = unbounded();
        let stop = AtomicBool::new(false);
        let registry = ledger();
        // The end of the bytes is EOF, which ends the pump.
        pump_frames::<u64>(Cursor::new(bytes), id(3), &tx, &stop, &registry.register());
        let got: Vec<(NodeId, u64)> = rx.try_iter().collect();
        assert_eq!(got, vec![(id(3), 7), (id(3), 9)], "good frames flow past the bad one");
        assert_eq!(registry.snapshot().messages_rejected(), 1);
    }

    #[test]
    fn pump_closes_connection_on_framing_error() {
        let (ours, theirs) = connection::duplex_pair().expect("loopback pair");
        let mut w = ours.writer;
        write_frame(&mut w, &1u64.to_le_bytes()).unwrap();
        // A length prefix far beyond MAX_FRAME desynchronizes the stream.
        w.write_all(&(MAX_FRAME as u32 * 2).to_le_bytes()).unwrap();
        w.write_all(&2u64.to_le_bytes()).unwrap();
        let (tx, rx) = unbounded();
        let stop = AtomicBool::new(false);
        let registry = ledger();
        // The writer stays alive: the pump must exit via the framing
        // error, not EOF — that is exactly the no-wedge guarantee.
        pump_frames::<u64>(theirs.reader, id(0), &tx, &stop, &registry.register());
        let got: Vec<(NodeId, u64)> = rx.try_iter().collect();
        assert_eq!(got, vec![(id(0), 1)], "frames before the error were delivered");
        assert_eq!(registry.snapshot().messages_rejected(), 1);
        drop(w);
    }

    /// Yields its bytes, then fails every read as a reset socket does.
    struct ResetAfter(Cursor<Vec<u8>>);

    impl Read for ResetAfter {
        fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
            match self.0.read(buf)? {
                0 => Err(ErrorKind::ConnectionReset.into()),
                n => Ok(n),
            }
        }
    }

    #[test]
    fn pump_ends_on_a_socket_error_without_booking_it() {
        let mut bytes = Vec::new();
        write_frame(&mut bytes, &7u64.to_le_bytes()).unwrap();
        let (tx, rx) = unbounded();
        let stop = AtomicBool::new(false);
        let registry = ledger();
        let reader = ResetAfter(Cursor::new(bytes));
        pump_frames::<u64>(reader, id(2), &tx, &stop, &registry.register());
        let got: Vec<(NodeId, u64)> = rx.try_iter().collect();
        assert_eq!(got, vec![(id(2), 7)], "the frame before the reset is delivered");
        let transport = registry.snapshot().transport;
        let total = transport.measured().expect("observed").total();
        assert_eq!(total, Default::default(), "a socket error books nothing");
    }

    /// Reads a TCP reader half to EOF, waiting out its read timeouts.
    fn drain(mut reader: std::net::TcpStream) -> Vec<u8> {
        let mut got = Vec::new();
        let mut buf = [0u8; 1 << 16];
        loop {
            match reader.read(&mut buf) {
                Ok(0) => return got,
                Ok(n) => got.extend_from_slice(&buf[..n]),
                Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
                Err(e) => panic!("read failed: {e}"),
            }
        }
    }

    /// A seeded SplitMix64 stream.
    fn splitmix(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
    }

    #[test]
    fn pump_survives_a_seeded_corrupt_prefix_corpus() {
        // Seeded corpus: random byte blobs framed as payloads plus raw
        // corrupt prefixes, in every case the pump terminates without
        // panicking and accounts each discarded frame.
        let mut next = splitmix(0x5EED);
        for _ in 0..64 {
            let mut bytes = Vec::new();
            let frames = (next() % 6) as usize;
            for _ in 0..frames {
                let len = (next() % 24) as usize;
                let body: Vec<u8> = (0..len).map(|_| (next() & 0xFF) as u8).collect();
                write_frame(&mut bytes, &body).unwrap();
            }
            // Tail: a corrupt raw prefix fragment, not a whole frame.
            let tail = (next() % 4) as usize;
            bytes.extend((0..tail).map(|_| (next() & 0xFF) as u8));
            let (tx, rx) = unbounded();
            let stop = AtomicBool::new(false);
            let registry = ledger();
            pump_frames::<u64>(Cursor::new(bytes), id(1), &tx, &stop, &registry.register());
            let delivered = rx.try_iter().count() as u64;
            let rejected = registry.snapshot().messages_rejected();
            assert!(
                delivered + rejected <= frames as u64 + 1,
                "every frame is either delivered or rejected (plus at most \
                 one rejection for the corrupt tail)"
            );
        }
    }
}
