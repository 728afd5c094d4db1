//! Thread-per-node runtime over crossbeam channels.
//!
//! The discrete-event simulator is the primary, deterministic runtime;
//! this runtime runs the *same* [`Process`](crate::process::Process) state
//! machines under genuine OS-level concurrency, with reliable unbounded
//! channels standing in for the paper's reliable asynchronous links. It
//! demonstrates that the protocol logic is event-driven and insensitive to
//! real interleavings, and it backs the crate's stress tests.
//!
//! The run itself is the shared wall-clock driver, [`Fleet::run`]; this
//! module contributes its configuration, its report types, and the channel
//! `Wire`. Two production-shaped properties distinguish the driver from
//! a toy harness:
//!
//! * **Graceful degradation.** A node that never completes — partitioned
//!   by a link-fault plan, starved, or panicked — does not abort the run.
//!   The watchdog deadline stops the network, every surviving node's final
//!   state is extracted, and the stragglers are reported per node in
//!   [`ThreadedReport::incomplete`] with a typed [`IncompleteReason`].
//! * **Chaos parity.** An optional
//!   [`LinkFaultPlan`](crate::chaos::LinkFaultPlan) interposes on the send
//!   path through the same send gate as the simulator, so the fate of the
//!   k-th message on an edge is identical in every runtime.

use crate::error::SimError;
use crate::fleet::{Connected, Fleet, Inbox, Wire};
use crate::sim::SimStats;
use crate::stats::StatsRegistry;
use dbac_graph::{Digraph, NodeId};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::sync::atomic::AtomicBool;
use std::sync::Arc;
use std::time::Duration;

/// Configuration for a threaded run.
#[derive(Clone, Copy, Debug)]
pub struct ThreadedConfig {
    /// Wall-clock watchdog deadline: nodes still incomplete when it expires
    /// are reported in [`ThreadedReport::incomplete`], not errors.
    pub timeout: Duration,
    /// Upper bound (exclusive) on the random per-send delay, in
    /// microseconds; 0 disables injected jitter.
    pub jitter_micros: u64,
    /// Seed for the per-thread jitter generators.
    pub seed: u64,
}

impl Default for ThreadedConfig {
    fn default() -> Self {
        ThreadedConfig { timeout: Duration::from_secs(30), jitter_micros: 50, seed: 0 }
    }
}

/// Why a node failed to complete within its watchdog deadline.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IncompleteReason {
    /// The node was still running (not yet `done`) when the deadline fired.
    Timeout,
    /// The node's thread panicked; its state is unrecoverable.
    Panicked,
    /// The node's inbox disconnected before the run was stopped, so it
    /// could no longer make progress.
    Starved,
}

impl IncompleteReason {
    /// Short display label.
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            IncompleteReason::Timeout => "timeout",
            IncompleteReason::Panicked => "panicked",
            IncompleteReason::Starved => "starved",
        }
    }
}

/// One honest node that did not complete, with its reason.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Incomplete {
    /// The straggler.
    pub node: NodeId,
    /// Why it never finished.
    pub reason: IncompleteReason,
}

/// The outcome of a wall-clock run ([`Threaded`] or
/// [`Net`](crate::net::Net)): per-node final states, per-node stragglers,
/// and transport totals.
#[derive(Debug)]
pub struct ThreadedReport<P> {
    /// Final process state per node: `None` for Byzantine slots and for
    /// honest nodes whose thread panicked. Honest nodes that merely timed
    /// out still surface their partial state here.
    pub nodes: Vec<Option<P>>,
    /// Honest nodes that failed to complete, in node order.
    pub incomplete: Vec<Incomplete>,
    /// The totals of the run's [`StatsRegistry`] transport ledger, read
    /// once after every thread has joined (`final_time` stays zero —
    /// wall-clock runs have no virtual clock).
    pub stats: SimStats,
}

/// A thread-per-node execution: a [`Fleet`] whose [`run`](Fleet::run) is
/// given a [`ThreadedConfig`]. Assign an actor to every node, then run.
pub type Threaded<P> = Fleet<P>;

/// One node's senders toward every inbox, with its seeded jitter.
pub struct ChannelOutlet<M> {
    me: NodeId,
    peers: Vec<Inbox<M>>,
    jitter_micros: u64,
    rng: SmallRng,
}

impl<M: Clone + Send + 'static> Wire<M> for ThreadedConfig {
    type Outlet = ChannelOutlet<M>;

    fn timeout(&self) -> Duration {
        self.timeout
    }

    fn connect(
        self,
        _graph: &Digraph,
        _registry: &StatsRegistry,
        inboxes: Vec<Inbox<M>>,
        _stop: &Arc<AtomicBool>,
    ) -> Result<Connected<Self::Outlet>, SimError> {
        let outlet = |i: usize| ChannelOutlet {
            me: NodeId::new(i),
            peers: inboxes.clone(),
            jitter_micros: self.jitter_micros,
            rng: SmallRng::seed_from_u64(self.seed ^ (i as u64).wrapping_mul(0x9E37)),
        };
        Ok(((0..inboxes.len()).map(outlet).collect(), Vec::new()))
    }

    fn emit(outlet: &mut Self::Outlet, to: NodeId, msg: M, copies: u32) {
        let mut send = |msg: M| {
            if outlet.jitter_micros > 0 {
                let jitter = outlet.rng.gen_range(0..outlet.jitter_micros);
                std::thread::sleep(Duration::from_micros(jitter));
            }
            let _ = outlet.peers[to.index()].send((outlet.me, msg));
        };
        for _ in 1..copies {
            send(msg.clone());
        }
        send(msg);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chaos::{LinkFault, LinkFaultPlan};
    use crate::process::{Context, Process, Silent};
    use dbac_graph::generators;

    fn id(i: usize) -> NodeId {
        NodeId::new(i)
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
    fn threaded_clique_gossip_completes() {
        let g = Arc::new(generators::clique(4));
        let mut t = Threaded::new(g);
        for i in 0..4 {
            t.set_honest(id(i), Collect { expected: 3, input: i as u64, heard: Vec::new() });
        }
        let report = t
            .run(
                |p| p.heard.len() >= p.expected,
                ThreadedConfig { timeout: Duration::from_secs(10), jitter_micros: 20, seed: 1 },
            )
            .unwrap();
        assert!(report.incomplete.is_empty());
        assert_eq!(report.stats.messages_sent, 12);
        assert!(report.stats.messages_delivered >= 12, "every broadcast reaches its target");
        for p in report.nodes.iter().flatten() {
            assert!(p.heard.len() >= 3);
        }
    }

    #[test]
    fn threaded_with_byzantine_silent() {
        let g = Arc::new(generators::clique(3));
        let mut t = Threaded::new(g);
        t.set_honest(id(0), Collect { expected: 1, input: 0, heard: Vec::new() });
        t.set_honest(id(1), Collect { expected: 1, input: 1, heard: Vec::new() });
        t.set_byzantine(id(2), Box::new(Silent));
        let report = t.run(|p| p.heard.len() >= p.expected, ThreadedConfig::default()).unwrap();
        assert!(report.incomplete.is_empty());
        assert!(report.nodes[0].is_some() && report.nodes[1].is_some());
        assert!(report.nodes[2].is_none(), "byzantine slot returns no process");
    }

    #[test]
    fn threaded_timeout_degrades_to_per_node_reports() {
        let g = Arc::new(generators::clique(2));
        let mut t = Threaded::new(g);
        for i in 0..2 {
            t.set_honest(id(i), Collect { expected: 99, input: 0, heard: Vec::new() });
        }
        let report = t
            .run(
                |p| p.heard.len() >= p.expected,
                ThreadedConfig { timeout: Duration::from_millis(50), jitter_micros: 0, seed: 0 },
            )
            .unwrap();
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
    fn threaded_unassigned_node() {
        let g = Arc::new(generators::clique(2));
        let mut t: Threaded<Collect> = Threaded::new(g);
        t.set_honest(id(0), Collect { expected: 0, input: 0, heard: Vec::new() });
        let err = t.run(|_| true, ThreadedConfig::default()).unwrap_err();
        assert_eq!(err, SimError::UnassignedNode { node: 1 });
    }

    #[test]
    fn threaded_panicked_node_is_reported_not_fatal() {
        /// Panics as soon as it hears anything.
        struct Grenade;
        impl Process for Grenade {
            type Message = u64;
            fn on_start(&mut self, ctx: &mut Context<u64>) {
                ctx.broadcast(&1);
            }
            fn on_message(&mut self, _ctx: &mut Context<u64>, _from: NodeId, _msg: u64) {
                panic!("boom");
            }
        }
        let g = Arc::new(generators::clique(2));
        let mut t = Threaded::new(g);
        t.set_honest(id(0), Grenade);
        t.set_honest(id(1), Grenade);
        let report = t
            .run(
                |_| false,
                ThreadedConfig { timeout: Duration::from_millis(200), jitter_micros: 0, seed: 0 },
            )
            .unwrap();
        assert_eq!(report.incomplete.len(), 2);
        assert!(report.incomplete.iter().all(|inc| inc.reason == IncompleteReason::Panicked));
        assert!(report.nodes.iter().all(Option::is_none));
    }

    #[test]
    fn threaded_omit_starves_only_the_cut_edge() {
        let g = Arc::new(generators::clique(3));
        let mut t = Threaded::new(g);
        for i in 0..3 {
            t.set_honest(id(i), Collect { expected: 2, input: i as u64, heard: Vec::new() });
        }
        t.set_link_faults(LinkFaultPlan::new(0).fault(id(0), id(1), LinkFault::Omit));
        let report = t
            .run(
                |p| p.heard.len() >= p.expected,
                ThreadedConfig { timeout: Duration::from_millis(300), jitter_micros: 0, seed: 0 },
            )
            .unwrap();
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
    fn threaded_duplicate_doubles_the_edge() {
        let g = Arc::new(generators::clique(2));
        let mut t = Threaded::new(g);
        t.set_honest(id(0), Collect { expected: 1, input: 7, heard: Vec::new() });
        t.set_honest(id(1), Collect { expected: 2, input: 8, heard: Vec::new() });
        t.set_link_faults(LinkFaultPlan::new(0).fault(
            id(0),
            id(1),
            LinkFault::Duplicate { prob: 1.0 },
        ));
        let report = t
            .run(
                |p| p.heard.len() >= p.expected,
                ThreadedConfig { timeout: Duration::from_secs(5), jitter_micros: 0, seed: 0 },
            )
            .unwrap();
        assert!(report.incomplete.is_empty());
        assert_eq!(report.stats.messages_duplicated, 1);
        assert_eq!(report.nodes[1].as_ref().unwrap().heard, vec![7, 7]);
    }
}
