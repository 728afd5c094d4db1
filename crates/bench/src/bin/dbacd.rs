//! `dbacd` — the live-stats operator daemon.
//!
//! Runs a scenario in a background thread while serving its
//! [`StatsRegistry`](dbac_core::scenario::StatsRegistry) over the
//! line-delimited JSON RPC of [`dbac_bench::daemon`] (`stats`, `nodes`,
//! `progress`, `shutdown` — one JSON line per command).
//!
//! Modes:
//!
//! * `--smoke [--json <path>]` (CI): runs the smoke scenario on all
//!   three runtimes, polling each daemon's RPC live until the run
//!   finishes, and verifies that the final registry snapshot equals
//!   `Outcome::sim_stats` bit-for-bit. With `--json`, writes the Sim
//!   arm's final snapshot in the registry-report schema, after reading
//!   it back through `trend::parse_registry_report`.
//! * `--serve` (operators): starts the smoke scenario on the threaded
//!   runtime with jitter, prints the RPC address, and serves until a
//!   client sends `shutdown` (the run itself always completes).
//!
//! Run: `cargo run --release -p dbac-bench --bin dbacd -- --smoke`

use dbac_bench::daemon::{stats_json, Daemon};
use dbac_bench::trend::parse_registry_report;
use dbac_core::scenario::{ByzantineWitness, Runtime, Scenario};
use dbac_graph::generators;
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

fn smoke_scenario(runtime: Runtime) -> Scenario {
    Scenario::builder(generators::clique(4), 0)
        .inputs(vec![0.0, 10.0, 4.0, 6.0])
        .epsilon(0.5)
        .seed(9)
        .runtime(runtime)
        .protocol(ByzantineWitness::default())
        .build()
        .expect("smoke scenario builds")
}

fn rpc(addr: SocketAddr, command: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect to dbacd");
    stream.write_all(command.as_bytes()).expect("send command");
    stream.write_all(b"\n").expect("send newline");
    let mut line = String::new();
    BufReader::new(stream).read_line(&mut line).expect("read reply");
    line.trim_end().to_string()
}

fn smoke(json_path: Option<&str>) {
    let runtimes = [
        ("sim", Runtime::Sim),
        ("threaded", Runtime::Threaded { timeout: Duration::from_secs(120), jitter_micros: 50 }),
        ("net", Runtime::net(Duration::from_secs(120))),
    ];
    let mut sim_stats_json = None;
    for (label, runtime) in runtimes {
        let daemon = Daemon::spawn(smoke_scenario(runtime)).expect("daemon binds");
        let addr = daemon.addr();

        // Poll the RPC while the run executes: every reply must be a
        // well-formed JSON line with monotone counters.
        let mut polls = 0u64;
        let mut last_sent = 0u64;
        loop {
            let stats = rpc(addr, "stats");
            let report = parse_registry_report(&stats).expect("stats line parses");
            let sent = report.get("sent").copied().unwrap_or(0);
            assert!(sent >= last_sent, "{label}: sent regressed {last_sent} -> {sent}");
            last_sent = sent;
            polls += 1;
            let progress = rpc(addr, "progress");
            assert!(progress.contains("\"node_count\":4"), "{label}: {progress}");
            if daemon.finished() {
                break;
            }
        }

        let registry = std::sync::Arc::clone(daemon.registry());
        let out = daemon.join().expect("smoke scenario converges");
        assert!(out.converged() && out.valid(), "{label}: smoke run must converge");
        assert_eq!(
            registry.snapshot(),
            out.sim_stats,
            "{label}: final registry snapshot must equal Outcome::sim_stats bit-for-bit"
        );
        println!(
            "{label:<9} polls {polls:>4}  sent {:>6}  delivered {:>6}  rounds {:>3}",
            out.sim_stats.messages_sent(),
            out.sim_stats.messages_delivered(),
            out.sim_stats.protocol.rounds_fired,
        );
        if label == "sim" {
            sim_stats_json = Some(stats_json(&out.sim_stats));
        }
    }
    if let Some(path) = json_path {
        let payload = sim_stats_json.expect("sim arm ran");
        parse_registry_report(&payload).expect("artifact round-trips through the schema");
        std::fs::write(path, payload + "\n").expect("write stats artifact");
        println!("wrote registry snapshot to {path}");
    }
    println!("dbacd smoke: all three runtimes served live stats and settled to their outcomes");
}

fn serve() {
    let runtime = Runtime::Threaded { timeout: Duration::from_secs(600), jitter_micros: 500 };
    let daemon = Daemon::spawn(smoke_scenario(runtime)).expect("daemon binds");
    println!("dbacd listening on {}", daemon.addr());
    println!("commands: stats | nodes | progress | shutdown (one JSON line per command)");
    match daemon.join() {
        Ok(out) => println!(
            "run finished: converged={} sent={} delivered={}",
            out.converged(),
            out.sim_stats.messages_sent(),
            out.sim_stats.messages_delivered()
        ),
        Err(e) => eprintln!("run failed: {e}"),
    }
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut json_path = None;
    let mut mode = None;
    let mut iter = args.iter();
    while let Some(arg) = iter.next() {
        match arg.as_str() {
            "--smoke" => mode = Some("smoke"),
            "--serve" => mode = Some("serve"),
            "--json" => {
                json_path = Some(iter.next().expect("--json requires a path").to_string());
            }
            other => {
                eprintln!("unknown argument '{other}'");
                eprintln!("usage: dbacd --smoke [--json <path>] | dbacd --serve");
                std::process::exit(2);
            }
        }
    }
    match mode {
        Some("serve") => serve(),
        _ => smoke(json_path.as_deref()),
    }
}
