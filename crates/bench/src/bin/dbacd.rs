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
//!   arm's final snapshot as the `stats` reply renders it
//!   ([`dbac_bench::json::registry`]), checked to parse back first.
//! * `--serve` (operators): starts the smoke scenario on the threaded
//!   runtime with jitter, prints the RPC address, and serves until a
//!   client sends `shutdown` (the run itself always completes).
//!
//! No arguments means `--smoke`. An unknown or repeated flag, both
//! modes at once, `--json` without a path, or `--json` with `--serve`
//! prints the usage line and exits with status 2.
//!
//! Run: `cargo run --release -p dbac-bench --bin dbacd -- --smoke`

use dbac_bench::daemon::Daemon;
use dbac_bench::json::{self, Json};
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
    let mut sim_stats = None;
    for (label, runtime) in runtimes {
        let daemon = Daemon::spawn(smoke_scenario(runtime)).expect("daemon binds");
        let addr = daemon.addr();

        // Poll the RPC while the run executes: every reply must be a
        // well-formed JSON line with monotone counters.
        let mut polls = 0u64;
        let mut last_sent = 0u64;
        loop {
            let stats = Json::parse(&rpc(addr, "stats")).expect("stats line parses");
            let sent = stats.get("registry").and_then(|r| r.get("sent")?.as_u64()).unwrap_or(0);
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
            sim_stats = Some(json::registry(&out.sim_stats));
        }
    }
    if let Some(path) = json_path {
        json::write(path, "registry snapshot", &sim_stats.expect("sim arm ran"));
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

/// What the command line asks for.
#[derive(Debug, PartialEq)]
enum Mode {
    /// Poll all three runtimes; write the Sim snapshot to the path, if any.
    Smoke(Option<String>),
    /// Serve one threaded run to operators.
    Serve,
}

/// Parses `dbacd`'s arguments: `[--smoke] [--json <path>]` or `--serve`,
/// each flag at most once. Anything else is an error naming the reason.
fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Mode, String> {
    let (mut serve, mut smoke, mut json_path) = (false, false, None);
    let mut args = args.into_iter();
    while let Some(arg) = args.next() {
        let repeated = match arg.as_str() {
            "--smoke" => std::mem::replace(&mut smoke, true),
            "--serve" => std::mem::replace(&mut serve, true),
            "--json" => json_path.replace(args.next().ok_or("--json requires a path")?).is_some(),
            other => return Err(format!("unknown argument '{other}'")),
        };
        if repeated {
            return Err(format!("'{arg}' given twice"));
        }
    }
    match (serve, smoke, json_path) {
        (false, _, path) => Ok(Mode::Smoke(path)),
        (true, false, None) => Ok(Mode::Serve),
        (true, true, _) => Err("--serve and --smoke are exclusive".into()),
        (true, false, Some(_)) => Err("--serve writes no artifact; --json needs --smoke".into()),
    }
}

fn main() {
    match parse_args(std::env::args().skip(1)) {
        Ok(Mode::Smoke(json_path)) => smoke(json_path.as_deref()),
        Ok(Mode::Serve) => serve(),
        Err(reason) => {
            eprintln!("{reason}\nusage: dbacd [--smoke] [--json <path>] | dbacd --serve");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::{parse_args, Mode};

    fn parse(args: &[&str]) -> Result<Mode, String> {
        parse_args(args.iter().map(|a| (*a).to_string()))
    }

    #[test]
    fn arguments_select_one_mode_or_fail() {
        assert_eq!(parse(&[]), Ok(Mode::Smoke(None)));
        assert_eq!(parse(&["--smoke"]), Ok(Mode::Smoke(None)));
        assert_eq!(parse(&["--smoke", "--json", "p"]), Ok(Mode::Smoke(Some("p".into()))));
        assert_eq!(parse(&["--json", "p", "--smoke"]), Ok(Mode::Smoke(Some("p".into()))));
        assert_eq!(parse(&["--serve"]), Ok(Mode::Serve));
        assert!(parse(&["--json"]).unwrap_err().contains("requires a path"));
        assert!(parse(&["--serve", "--json", "p"]).unwrap_err().contains("--json needs --smoke"));
        assert!(parse(&["--serve", "--smoke"]).unwrap_err().contains("exclusive"));
        assert!(parse(&["--smoke", "--smoke"]).unwrap_err().contains("twice"));
        assert!(parse(&["--json", "p", "--json", "q"]).unwrap_err().contains("twice"));
        assert!(parse(&["--sever"]).unwrap_err().contains("'--sever'"));
    }
}
