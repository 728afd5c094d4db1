//! JSON for every artifact and RPC reply the workspace writes or reads.
//!
//! One value type, [`Json`], with one compact [`Display`](fmt::Display)
//! and one total [`Json::parse`], plus the renderers that turn results
//! into it:
//!
//! * [`reduced`] — a seed-aggregated sweep report (`baseline_compare`,
//!   `chaos`, `net`): `{"groups":[{"group":…,"runs":…,"spread":{"n":…,
//!   "mean":…,…},…},…]}`;
//! * [`registry`], [`nodes`], [`progress`] and [`error`] — the replies of
//!   the `dbacd` RPC ([`crate::daemon`]); the `stats` reply is also the
//!   `stats.json` artifact;
//! * [`certificate`] and [`experiment`] — the `certify` and
//!   `scaling_iterative` artifacts.
//!
//! [`write()`] puts an artifact on disk. The serde shim has no JSON support
//! (see shims/README.md), and every schema here is this crate's own, so
//! the parser reads exactly what the writer emits, with whitespace
//! allowed between tokens.

use dbac_conditions::robustness::{CertificateRule, RobustnessCertificate};
use dbac_core::scenario::sweep::{ReducedCell, ReducedReport, Stats};
use dbac_core::scenario::{ClassCounters, MsgClass, NodeCounters, StatsRegistry, StatsSnapshot};
use std::fmt::{self, Write as _};

/// A JSON value. Objects keep their insertion order, and integers that
/// fit a `u64` stay exact.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// A non-negative integer, exact.
    U64(u64),
    /// Any other number. A non-finite value renders as `null`.
    F64(f64),
    /// A string.
    Str(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in insertion order.
    Object(Vec<(String, Json)>),
}

macro_rules! from {
    ($($t:ty => |$v:ident| $e:expr;)*) => {$(
        impl From<$t> for Json {
            fn from($v: $t) -> Json {
                $e
            }
        }
    )*};
}

from! {
    bool => |b| Json::Bool(b);
    u64 => |n| Json::U64(n);
    usize => |n| Json::U64(n as u64);
    u32 => |n| Json::U64(u64::from(n));
    f64 => |x| Json::F64(x);
    &str => |s| Json::Str(s.to_string());
}

impl Json {
    /// An object from `(key, value)` pairs, in order.
    pub fn object<K: Into<String>>(fields: impl IntoIterator<Item = (K, Json)>) -> Json {
        Json::Object(fields.into_iter().map(|(k, v)| (k.into(), v)).collect())
    }

    /// The value under `key` of an object (the first, if repeated).
    #[must_use]
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The integer, if this is one.
    #[must_use]
    pub fn as_u64(&self) -> Option<u64> {
        match *self {
            Json::U64(n) => Some(n),
            _ => None,
        }
    }

    /// The string, if this is one.
    #[must_use]
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    /// Parses one JSON value, surrounded by optional whitespace. Never
    /// panics: malformed input, trailing bytes and nesting deeper than
    /// 128 levels are all an `Err` naming the byte offset.
    ///
    /// # Errors
    ///
    /// Any input that is not exactly one JSON value.
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut parser = Parser { text, pos: 0 };
        let value = parser.value(0)?;
        parser.skip_ws();
        if parser.pos == text.len() {
            Ok(value)
        } else {
            Err(parser.error("trailing bytes"))
        }
    }
}

impl fmt::Display for Json {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Json::Null => f.write_str("null"),
            Json::Bool(b) => write!(f, "{b}"),
            Json::U64(n) => write!(f, "{n}"),
            Json::F64(x) if x.is_finite() => write!(f, "{x:?}"),
            Json::F64(_) => f.write_str("null"),
            Json::Str(s) => quote(f, s),
            Json::Array(items) => {
                f.write_char('[')?;
                for (i, item) in items.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    write!(f, "{item}")?;
                }
                f.write_char(']')
            }
            Json::Object(fields) => {
                f.write_char('{')?;
                for (i, (key, value)) in fields.iter().enumerate() {
                    if i > 0 {
                        f.write_char(',')?;
                    }
                    quote(f, key)?;
                    write!(f, ":{value}")?;
                }
                f.write_char('}')
            }
        }
    }
}

/// Writes `s` as a string literal: `"`, `\`, newline and tab escaped by
/// name, other control characters as `\u00xx`, everything else raw.
fn quote(f: &mut fmt::Formatter<'_>, s: &str) -> fmt::Result {
    f.write_char('"')?;
    for c in s.chars() {
        match c {
            '"' => f.write_str("\\\"")?,
            '\\' => f.write_str("\\\\")?,
            '\n' => f.write_str("\\n")?,
            '\t' => f.write_str("\\t")?,
            c if (c as u32) < 0x20 => write!(f, "\\u{:04x}", c as u32)?,
            c => f.write_char(c)?,
        }
    }
    f.write_char('"')
}

/// Arrays and objects nested deeper than this are refused, so hostile
/// input cannot exhaust the stack.
const MAX_DEPTH: usize = 128;

struct Parser<'a> {
    text: &'a str,
    pos: usize,
}

impl Parser<'_> {
    fn error(&self, what: &str) -> String {
        format!("{what} at byte {}", self.pos)
    }

    fn peek(&self) -> Option<u8> {
        self.text.as_bytes().get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while self.peek().is_some_and(|b| b.is_ascii_whitespace()) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> bool {
        let hit = self.peek() == Some(byte);
        self.pos += usize::from(hit);
        hit
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        self.skip_ws();
        if self.eat(byte) {
            Ok(())
        } else {
            Err(self.error(&format!("expected '{}'", byte as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<Json, String> {
        if depth > MAX_DEPTH {
            return Err(self.error("nesting too deep"));
        }
        self.skip_ws();
        match self.peek() {
            Some(b'{') => self
                .members(b'}', |p| {
                    let key = p.string()?;
                    p.expect(b':')?;
                    Ok((key, p.value(depth + 1)?))
                })
                .map(Json::Object),
            Some(b'[') => self.members(b']', |p| p.value(depth + 1)).map(Json::Array),
            Some(b'"') => self.string().map(Json::Str),
            Some(b'-' | b'0'..=b'9') => self.number(),
            _ => {
                for (word, value) in
                    [("null", Json::Null), ("true", Json::Bool(true)), ("false", Json::Bool(false))]
                {
                    if self.text[self.pos..].starts_with(word) {
                        self.pos += word.len();
                        return Ok(value);
                    }
                }
                Err(self.error("expected a value"))
            }
        }
    }

    /// The comma-separated members of an array or object, from its
    /// opening byte through `close`.
    fn members<T>(
        &mut self,
        close: u8,
        mut member: impl FnMut(&mut Self) -> Result<T, String>,
    ) -> Result<Vec<T>, String> {
        self.pos += 1;
        let mut out = Vec::new();
        self.skip_ws();
        if self.eat(close) {
            return Ok(out);
        }
        loop {
            out.push(member(self)?);
            self.skip_ws();
            if self.eat(close) {
                return Ok(out);
            }
            if !self.eat(b',') {
                return Err(self.error(&format!("expected ',' or '{}'", close as char)));
            }
        }
    }

    /// A string literal with the escapes [`quote`] writes.
    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote, backslash or control
            // byte whole: all three are ASCII, so the run ends on a char
            // boundary and non-ASCII text passes through unchanged.
            let rest = &self.text[self.pos..];
            let run = rest
                .bytes()
                .position(|b| b == b'"' || b == b'\\' || b < 0x20)
                .ok_or_else(|| self.error("unterminated string"))?;
            out.push_str(&rest[..run]);
            self.pos += run;
            match self.peek() {
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => self.pos += 1,
                _ => return Err(self.error("raw control character in string")),
            }
            let escaped = match self.peek() {
                Some(b'"') => '"',
                Some(b'\\') => '\\',
                Some(b'n') => '\n',
                Some(b't') => '\t',
                Some(b'u') => {
                    let hex = self.text.get(self.pos + 1..self.pos + 5);
                    let code = hex
                        .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                        .and_then(|h| u32::from_str_radix(h, 16).ok())
                        .and_then(char::from_u32)
                        .ok_or_else(|| self.error("bad \\u escape"))?;
                    self.pos += 4;
                    code
                }
                _ => return Err(self.error("bad escape")),
            };
            self.pos += 1;
            out.push(escaped);
        }
    }

    /// A number: [`Json::U64`] for an unsigned integer that fits,
    /// [`Json::F64`] for any other number Rust's `f64` parser accepts.
    fn number(&mut self) -> Result<Json, String> {
        let start = self.pos;
        let rest = self.text[start..].bytes();
        self.pos += rest.take_while(|b| b.is_ascii_digit() || b"+-.eE".contains(b)).count();
        let text = &self.text[start..self.pos];
        match text.parse::<u64>() {
            Ok(n) => Ok(Json::U64(n)),
            Err(_) => {
                text.parse().map(Json::F64).map_err(|_| format!("bad number at byte {start}"))
            }
        }
    }
}

/// Writes `value` to `path` as one line, after checking that the text
/// parses back, and says so on stdout as "`what` written to `path`".
///
/// # Panics
///
/// Panics if the file cannot be written, or if the text does not parse
/// back (a bug in this module).
pub fn write(path: &str, what: &str, value: &Json) {
    let text = value.to_string();
    Json::parse(&text).unwrap_or_else(|e| panic!("rendered JSON does not parse back: {e}"));
    std::fs::write(path, text + "\n").unwrap_or_else(|e| panic!("writing {path}: {e}"));
    println!("{what} written to {path}");
}

/// The distributional statistics of one metric. An empty batch (`n` = 0)
/// measured nothing, so every other field is `null` rather than zero.
#[must_use]
pub fn stats(s: &Stats) -> Json {
    let field = |x: f64| if s.n == 0 { Json::Null } else { Json::F64(x) };
    Json::object([
        ("n", s.n.into()),
        ("mean", field(s.mean)),
        ("median", field(s.median)),
        ("min", field(s.min)),
        ("max", field(s.max)),
        ("stddev", field(s.stddev)),
    ])
}

/// A seed-aggregated sweep report: one object per reduced group, in
/// report order, with its counts and the full [`stats`] of every metric.
#[must_use]
pub fn reduced(report: &ReducedReport) -> Json {
    let group = |c: &ReducedCell| {
        Json::object([
            ("group", c.group.as_str().into()),
            ("runs", c.runs.into()),
            ("errors", c.errors.into()),
            ("converged", c.converged.into()),
            ("valid", c.valid.into()),
            ("decided", c.all_decided.into()),
            ("spread", stats(&c.spread)),
            ("rounds_to_epsilon", stats(&c.rounds_to_epsilon)),
            ("messages", stats(&c.messages)),
            ("dropped", stats(&c.dropped)),
            ("wall_ns", stats(&c.wall_ns)),
        ])
    };
    Json::object([("groups", Json::Array(report.cells.iter().map(group).collect()))])
}

/// The `stats` RPC reply and `stats.json` artifact:
/// `{"registry":{<counter>:<total>,…}}`.
///
/// Counters a runtime did not measure are left out, never written as
/// zeros: transport totals and per-class counters (a class that stayed
/// all-zero is skipped) only with transport coverage, `nodes_done` and
/// `max_queue_depth` (the deepest sampled inbox) only with node coverage,
/// and `virtual_time` / `wall_nanos` only where recorded. The four
/// protocol counters are always present.
#[must_use]
pub fn registry(snapshot: &StatsSnapshot) -> Json {
    let counters = |c: &ClassCounters| {
        [
            ("sent", c.sent),
            ("delivered", c.delivered),
            ("dropped", c.dropped),
            ("duplicated", c.duplicated),
            ("corrupted", c.corrupted),
            ("rejected", c.rejected),
        ]
    };
    let mut kv: Vec<(String, u64)> = Vec::new();
    if let Some(t) = snapshot.transport.measured() {
        let total = t.total();
        kv.extend(counters(&total).map(|(k, v)| (k.to_string(), v)));
        kv.push(("undelivered".into(), total.undelivered()));
        for class in MsgClass::ALL.into_iter().filter(|&c| t.class(c) != &ClassCounters::default())
        {
            kv.extend(counters(t.class(class)).map(|(k, v)| (format!("{}_{k}", class.label()), v)));
        }
    }
    let p = &snapshot.protocol;
    kv.extend(
        [
            ("rounds_fired", p.rounds_fired),
            ("witness_completions", p.witness_completions),
            ("mc_firings", p.mc_firings),
            ("fra_marks", p.fra_marks),
        ]
        .map(|(k, v)| (k.to_string(), v)),
    );
    if let Some(nodes) = snapshot.nodes.measured() {
        kv.push(("nodes_done".into(), nodes.iter().filter(|n| n.done).count() as u64));
        let depth = nodes.iter().map(NodeCounters::queue_depth).max().unwrap_or(0);
        kv.push(("max_queue_depth".into(), depth));
    }
    kv.extend(snapshot.virtual_time.measured().map(|&vt| ("virtual_time".into(), vt)));
    kv.extend(snapshot.wall_nanos.measured().map(|&w| ("wall_nanos".into(), w)));
    Json::object([("registry", Json::object(kv.into_iter().map(|(k, v)| (k, v.into()))))])
}

/// The `nodes` RPC reply: one row per node, or `null` without node
/// coverage.
#[must_use]
pub fn nodes(snapshot: &StatsSnapshot) -> Json {
    let row = |(i, n): (usize, &NodeCounters)| {
        Json::object([
            ("node", i.into()),
            ("enqueued", n.enqueued.into()),
            ("consumed", n.consumed.into()),
            ("queue_depth", n.queue_depth().into()),
            ("done", n.done.into()),
        ])
    };
    let rows = snapshot.nodes.measured().map(|n| n.iter().enumerate().map(row).collect());
    Json::object([("nodes", rows.map_or(Json::Null, Json::Array))])
}

/// The `progress` RPC reply.
#[must_use]
pub fn progress(registry: &StatsRegistry, finished: bool) -> Json {
    let snap = registry.snapshot();
    let nodes_done =
        snap.nodes.measured().map_or(0, |nodes| nodes.iter().filter(|n| n.done).count());
    Json::object([
        ("running", (!finished).into()),
        ("node_count", registry.node_count().into()),
        ("nodes_done", nodes_done.into()),
        ("rounds_fired", snap.protocol.rounds_fired.into()),
        ("sent", snap.messages_sent().into()),
        ("delivered", snap.messages_delivered().into()),
    ])
}

/// An RPC error reply: `{"error":<message>}`.
#[must_use]
pub fn error(message: &str) -> Json {
    Json::object([("error", message.into())])
}

/// A robustness certificate: `n`, `r`, `s`, the rule's name and
/// parameters, and the per-node evidence.
#[must_use]
pub fn certificate(cert: &RobustnessCertificate) -> Json {
    let params: Vec<(&str, Json)> = match cert.rule {
        CertificateRule::Trivial | CertificateRule::StronglyConnected => vec![],
        CertificateRule::MinInDegree { min_in_degree } => {
            vec![("min_in_degree", min_in_degree.into())]
        }
        CertificateRule::CirculantPrefix { k } => vec![("k", k.into())],
        CertificateRule::LayeredExpander { layers, width } => {
            vec![("layers", layers.into()), ("width", width.into())]
        }
    };
    Json::object([
        ("n", cert.n.into()),
        ("r", cert.r.into()),
        ("s", cert.s.into()),
        ("rule", cert.rule.name().into()),
        ("params", Json::object(params)),
        ("evidence", Json::Array(cert.evidence.iter().map(|&e| e.into()).collect())),
    ])
}

/// An experiment artifact: `{"experiment":<name>,"max_nodes":<compiled
/// MAX_NODES>,…fields}`.
pub fn experiment(name: &str, fields: impl IntoIterator<Item = (&'static str, Json)>) -> Json {
    let header = [("experiment", name.into()), ("max_nodes", dbac_graph::MAX_NODES.into())];
    Json::object(header.into_iter().chain(fields))
}
