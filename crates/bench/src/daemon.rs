//! The `dbacd` operator daemon: run a [`Scenario`] in a background
//! thread and serve its live [`StatsRegistry`] over a tiny
//! line-delimited JSON-over-TCP RPC.
//!
//! Protocol: the client sends one command per line — `stats`, `nodes`,
//! `progress` or `shutdown` — and receives exactly one JSON line back.
//! Responses:
//!
//! ```text
//! stats    → {"registry":{"sent":123,"delivered":120,...}}
//! nodes    → {"nodes":[{"node":0,"enqueued":9,"consumed":9,"queue_depth":0,"done":true},...]}
//! progress → {"running":true,"node_count":4,"nodes_done":1,"rounds_fired":12,"sent":123,"delivered":119}
//! shutdown → {"ok":true}          (stops the RPC listener, not the run)
//! ```
//!
//! The `stats` payload is exactly the registry-snapshot schema that
//! [`crate::trend::parse_registry_report`] reads, so a `stats.json`
//! captured from a live daemon parses with no translation step.
//!
//! A request line longer than 64 bytes is answered with
//! `{"error":"request too long"}` and the connection is closed; a client
//! that sends nothing is held open only until the listener stops.
//!
//! The daemon never interrupts the scenario: `shutdown` (or
//! [`Daemon::join`]) tears down the listener while the run proceeds to
//! its natural outcome, whose `sim_stats` is bit-for-bit the final
//! registry snapshot.

use dbac_core::error::RunError;
use dbac_core::scenario::sweep::json_escape;
use dbac_core::scenario::{Outcome, Scenario, StatsRegistry, StatsSnapshot};
use std::io::{ErrorKind, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The longest request line (newline included) the RPC reads; the four
/// commands are at most 8 bytes.
const MAX_REQUEST: usize = 64;

/// How long a read or write on a client socket may block before the
/// listener re-checks its stop flag (reads) or drops the peer (writes).
const CLIENT_POLL: Duration = Duration::from_millis(100);

/// A running scenario plus the RPC listener observing it.
pub struct Daemon {
    registry: Arc<StatsRegistry>,
    addr: SocketAddr,
    runner: JoinHandle<Result<Outcome, RunError>>,
    server: JoinHandle<()>,
    stop: Arc<AtomicBool>,
    finished: Arc<AtomicBool>,
}

impl Daemon {
    /// Starts `scenario` in a background thread with a fresh attached
    /// registry (any registry already attached to the scenario is
    /// honored instead) and binds the RPC listener on a loopback
    /// ephemeral port.
    ///
    /// # Errors
    ///
    /// Propagates listener bind failures; scenario validation errors
    /// surface later, from [`Daemon::join`].
    pub fn spawn(scenario: Scenario) -> std::io::Result<Daemon> {
        let registry = scenario.resolve_stats();
        let scenario = scenario.with_stats(Arc::clone(&registry));
        let listener = TcpListener::bind(("127.0.0.1", 0))?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let finished = Arc::new(AtomicBool::new(false));

        let run_finished = Arc::clone(&finished);
        let runner = std::thread::spawn(move || {
            let out = scenario.run();
            run_finished.store(true, Ordering::Release);
            out
        });

        let srv_registry = Arc::clone(&registry);
        let srv_stop = Arc::clone(&stop);
        let srv_finished = Arc::clone(&finished);
        let server = std::thread::spawn(move || {
            for conn in listener.incoming() {
                if srv_stop.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = conn else { break };
                // One client at a time: the RPC is a few bytes per line
                // and every handler is non-blocking on the run itself.
                serve_client(stream, &srv_registry, &srv_stop, &srv_finished);
                if srv_stop.load(Ordering::Acquire) {
                    break;
                }
            }
        });

        Ok(Daemon { registry, addr, runner, server, stop, finished })
    }

    /// The listener's address (loopback, ephemeral port).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The registry the running scenario writes into — the same totals
    /// the RPC serves, for in-process observers.
    #[must_use]
    pub fn registry(&self) -> &Arc<StatsRegistry> {
        &self.registry
    }

    /// Whether the scenario thread has produced its outcome.
    #[must_use]
    pub fn finished(&self) -> bool {
        self.finished.load(Ordering::Acquire)
    }

    /// Waits for the scenario to finish, tears down the RPC listener
    /// (hanging up on a client that is still connected), and returns the
    /// outcome.
    ///
    /// # Errors
    ///
    /// The scenario's own [`RunError`], if it failed.
    ///
    /// # Panics
    ///
    /// Panics if either background thread itself panicked.
    pub fn join(self) -> Result<Outcome, RunError> {
        let outcome = self.runner.join().expect("scenario thread panicked");
        self.stop.store(true, Ordering::Release);
        // Poke the accept loop so it observes the stop flag even with no
        // client connected; the listener may already be gone if a client
        // sent `shutdown`.
        if let Ok(mut poke) = TcpStream::connect(self.addr) {
            let _ = poke.write_all(b"shutdown\n");
        }
        self.server.join().expect("rpc thread panicked");
        outcome
    }
}

fn serve_client(
    mut stream: TcpStream,
    registry: &StatsRegistry,
    stop: &AtomicBool,
    finished: &AtomicBool,
) {
    if stream.set_read_timeout(Some(CLIENT_POLL)).is_err()
        || stream.set_write_timeout(Some(CLIENT_POLL)).is_err()
    {
        return;
    }
    // The request being read: kept across read timeouts, so an idle or
    // slow session survives them and only `stop` or the peer ends it.
    let mut line = Vec::new();
    let mut chunk = [0u8; MAX_REQUEST];
    while !stop.load(Ordering::Acquire) {
        let n = match stream.read(&mut chunk) {
            Ok(0) => return,
            Ok(n) => n,
            Err(e) => match e.kind() {
                ErrorKind::WouldBlock | ErrorKind::TimedOut | ErrorKind::Interrupted => continue,
                _ => return,
            },
        };
        for &byte in &chunk[..n] {
            line.push(byte);
            if byte != b'\n' {
                if line.len() < MAX_REQUEST {
                    continue;
                }
                let _ = stream.write_all(b"{\"error\":\"request too long\"}\n");
                // Close with a FIN, not an RST that could overtake the
                // reply: stop sending, then discard what the peer has
                // already sent, for one poll interval at most.
                let _ = stream.shutdown(Shutdown::Write);
                let until = Instant::now() + CLIENT_POLL;
                while Instant::now() < until && matches!(stream.read(&mut chunk), Ok(1..)) {}
                return;
            }
            let request = std::mem::take(&mut line);
            let reply = match String::from_utf8_lossy(&request).trim() {
                "" => continue,
                "stats" => stats_json(&registry.snapshot()),
                "nodes" => nodes_json(&registry.snapshot()),
                "progress" => progress_json(registry, finished.load(Ordering::Acquire)),
                "shutdown" => {
                    stop.store(true, Ordering::Release);
                    let _ = stream.write_all(b"{\"ok\":true}\n");
                    return;
                }
                other => format!("{{\"error\":\"unknown command '{}'\"}}", json_escape(other)),
            };
            if stream.write_all(reply.as_bytes()).is_err() || stream.write_all(b"\n").is_err() {
                return;
            }
        }
    }
}

/// The `stats` RPC payload — also the `stats.json` artifact schema and
/// the input to [`crate::trend::parse_registry_report`].
#[must_use]
pub fn stats_json(snapshot: &StatsSnapshot) -> String {
    let body = snapshot
        .to_kv()
        .into_iter()
        .map(|(k, v)| format!("\"{}\":{v}", json_escape(&k)))
        .collect::<Vec<_>>()
        .join(",");
    format!("{{\"registry\":{{{body}}}}}")
}

fn nodes_json(snapshot: &StatsSnapshot) -> String {
    match snapshot.nodes.measured() {
        None => "{\"nodes\":null}".to_string(),
        Some(nodes) => {
            let rows = nodes
                .iter()
                .enumerate()
                .map(|(i, n)| {
                    format!(
                        "{{\"node\":{i},\"enqueued\":{},\"consumed\":{},\
                         \"queue_depth\":{},\"done\":{}}}",
                        n.enqueued,
                        n.consumed,
                        n.queue_depth(),
                        n.done
                    )
                })
                .collect::<Vec<_>>()
                .join(",");
            format!("{{\"nodes\":[{rows}]}}")
        }
    }
}

fn progress_json(registry: &StatsRegistry, finished: bool) -> String {
    let snap = registry.snapshot();
    let nodes_done =
        snap.nodes.measured().map_or(0, |nodes| nodes.iter().filter(|n| n.done).count());
    format!(
        "{{\"running\":{},\"node_count\":{},\"nodes_done\":{nodes_done},\
         \"rounds_fired\":{},\"sent\":{},\"delivered\":{}}}",
        !finished,
        registry.node_count(),
        snap.protocol.rounds_fired,
        snap.messages_sent(),
        snap.messages_delivered(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trend::{parse_registry_report, Json};
    use dbac_core::scenario::ByzantineWitness;
    use dbac_graph::generators;
    use std::io::{BufRead, BufReader};
    use std::sync::mpsc;

    fn smoke_scenario() -> Scenario {
        Scenario::builder(generators::clique(4), 0)
            .inputs(vec![0.0, 10.0, 4.0, 6.0])
            .epsilon(0.5)
            .seed(9)
            .protocol(ByzantineWitness::default())
            .build()
            .expect("smoke scenario builds")
    }

    fn rpc(addr: SocketAddr, command: &str) -> String {
        let mut stream = TcpStream::connect(addr).expect("connect to daemon");
        stream.write_all(format!("{command}\n").as_bytes()).unwrap();
        let mut line = String::new();
        BufReader::new(stream).read_line(&mut line).expect("one reply line");
        line.trim_end().to_string()
    }

    #[test]
    fn daemon_serves_stats_and_progress_then_joins() {
        let daemon = Daemon::spawn(smoke_scenario()).expect("daemon binds");
        let addr = daemon.addr();

        let stats = rpc(addr, "stats");
        let report = parse_registry_report(&stats).expect("stats line is valid registry JSON");
        // The run may or may not have finished by now; either way the
        // totals are well-formed and the schema round-trips.
        assert!(report.contains_key("rounds_fired"), "schema carries protocol counters");

        let progress = rpc(addr, "progress");
        assert!(progress.starts_with("{\"running\":"), "progress replies: {progress}");
        assert!(progress.contains("\"node_count\":4"));

        let nodes = rpc(addr, "nodes");
        assert!(nodes.starts_with("{\"nodes\":"), "nodes replies: {nodes}");

        assert!(rpc(addr, "bogus").contains("unknown command"));

        let registry = Arc::clone(daemon.registry());
        let out = daemon.join().expect("smoke scenario converges");
        assert!(out.converged() && out.valid());
        assert_eq!(registry.snapshot(), out.sim_stats, "registry is the outcome's ground truth");

        // The final stats payload parses into exactly the outcome's kv.
        let final_report =
            parse_registry_report(&stats_json(&out.sim_stats)).expect("final schema");
        let expected: Vec<(String, u64)> = out.sim_stats.to_kv();
        assert_eq!(final_report.len(), expected.len());
        for (k, v) in expected {
            assert_eq!(final_report.get(&k), Some(&v), "counter {k}");
        }
    }

    #[test]
    fn an_unknown_command_is_echoed_back_escaped() {
        let daemon = Daemon::spawn(smoke_scenario()).expect("daemon binds");
        // A control character is escaped, not blanked: the reply is valid
        // JSON carrying exactly what the client sent.
        let reply = rpc(daemon.addr(), "st\u{1}ats");
        let mut error = None;
        Json::new(&reply)
            .object(&mut |json, key| {
                assert_eq!(key, "error");
                error = Some(json.string()?);
                Ok(())
            })
            .expect("error reply is valid JSON");
        assert_eq!(error.as_deref(), Some("unknown command 'st\u{1}ats'"));
        assert!(daemon.join().expect("run still completes").converged());
    }

    #[test]
    fn client_shutdown_stops_the_listener_but_not_the_run() {
        let daemon = Daemon::spawn(smoke_scenario()).expect("daemon binds");
        let addr = daemon.addr();
        assert_eq!(rpc(addr, "shutdown"), "{\"ok\":true}");
        let out = daemon.join().expect("run still completes");
        assert!(out.converged());
    }

    #[test]
    fn an_idle_client_does_not_wedge_join() {
        let daemon = Daemon::spawn(smoke_scenario()).expect("daemon binds");
        let addr = daemon.addr();
        // Connected, mid-request, then silent — and still answered after
        // sitting out several read timeouts.
        let mut idle = TcpStream::connect(addr).expect("connect to daemon");
        idle.write_all(b"prog").unwrap();
        std::thread::sleep(3 * CLIENT_POLL);
        idle.write_all(b"ress\n").unwrap();
        let mut idle = BufReader::new(idle);
        let mut reply = String::new();
        idle.read_line(&mut reply).expect("partial request survives timeouts");
        assert!(reply.starts_with("{\"running\":"), "progress replies: {reply}");

        let (done, joined) = mpsc::channel();
        std::thread::spawn(move || done.send(daemon.join().map(|out| out.converged())));
        let converged = joined
            .recv_timeout(Duration::from_secs(5))
            .expect("join returns while the idle client is still connected");
        assert_eq!(converged, Ok(true));
        // The daemon hung up on the idle session instead of waiting it out.
        reply.clear();
        assert_eq!(idle.read_line(&mut reply).unwrap_or(0), 0);
    }

    #[test]
    fn an_over_long_request_is_refused_and_the_daemon_keeps_serving() {
        let daemon = Daemon::spawn(smoke_scenario()).expect("daemon binds");
        let addr = daemon.addr();
        let reply = rpc(addr, &"x".repeat(64 * MAX_REQUEST));
        assert_eq!(reply, "{\"error\":\"request too long\"}");
        // A request of exactly the cap is still read (and is unknown).
        assert!(rpc(addr, &"y".repeat(MAX_REQUEST - 1)).contains("unknown command"));
        parse_registry_report(&rpc(addr, "stats")).expect("next client is served");
        assert!(daemon.join().expect("run still completes").converged());
    }
}
