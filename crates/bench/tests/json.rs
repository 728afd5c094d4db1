//! The one JSON module, `dbac_bench::json`: string escaping, number
//! rendering, the total parser (malformed input is an `Err`, never a
//! panic), a seeded render → parse round trip, and the renderers' exact
//! schemas.

use dbac_bench::json::{certificate, reduced, registry, stats, Json};
use dbac_conditions::robustness::{CertificateRule, RobustnessCertificate};
use dbac_core::scenario::sweep::{ReducedCell, ReducedReport, Stats};
use dbac_core::scenario::{MsgClass, StatsRegistry};
use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};
use std::sync::Arc;

fn render(s: &str) -> String {
    Json::from(s).to_string()
}

#[test]
fn strings_escape_quote_backslash_and_controls_and_keep_non_ascii_raw() {
    assert_eq!(render("a\"b\\c"), r#""a\"b\\c""#);
    assert_eq!(render("line\nnext\ttab"), r#""line\nnext\ttab""#);
    assert_eq!(render("st\u{1}ats\u{1f}"), r#""st\u0001ats\u001f""#);
    assert_eq!(render("K₄ ε é"), "\"K₄ ε é\"");
    assert_eq!(Json::object([("k\"", Json::Null)]).to_string(), r#"{"k\"":null}"#);
}

#[test]
fn numbers_render_exactly_and_non_finite_as_null() {
    assert_eq!(Json::F64(f64::NAN).to_string(), "null");
    assert_eq!(Json::F64(f64::INFINITY).to_string(), "null");
    assert_eq!(Json::F64(f64::NEG_INFINITY).to_string(), "null");
    assert_eq!(Json::F64(0.5).to_string(), "0.5");
    assert_eq!(Json::F64(2.0).to_string(), "2.0");
    assert_eq!(Json::F64(1e-7).to_string(), "1e-7");
    assert_eq!(Json::U64(u64::MAX).to_string(), "18446744073709551615");
    assert_eq!(Json::parse("18446744073709551615"), Ok(Json::U64(u64::MAX)));
    // Past u64, or signed, or fractional: a float.
    assert_eq!(Json::parse("18446744073709551616"), Ok(Json::F64(18446744073709551616.0)));
    assert_eq!(Json::parse("-3"), Ok(Json::F64(-3.0)));
    assert_eq!(Json::parse("2.0"), Ok(Json::F64(2.0)));
    assert_eq!(Json::parse("1E+2"), Ok(Json::F64(100.0)));
}

#[test]
fn parses_nested_values_with_whitespace_and_escapes() {
    let v = Json::parse(" {\"a\" : [1, 2.5, null, true, false],\n \"b\\u00e9\\n\": {} } ").unwrap();
    let a = [Json::U64(1), Json::F64(2.5), Json::Null, Json::Bool(true), Json::Bool(false)];
    assert_eq!(v, Json::object([("a", Json::Array(a.to_vec())), ("bé\n", Json::Object(vec![]))]));
    assert_eq!(v.get("a").and_then(|a| a.get("x")), None);
    assert_eq!(v.get("missing"), None);
    assert_eq!(Json::parse("\"x\"").unwrap().as_str(), Some("x"));
    assert_eq!(Json::parse("7").unwrap().as_u64(), Some(7));
    assert_eq!(Json::parse("7.0").unwrap().as_u64(), None);
}

#[test]
fn malformed_input_is_an_error_not_a_panic() {
    let bad = [
        "",
        "{",
        "[1,",
        "{\"a\":1",
        "{\"a\" 1}",
        "{1:2}",
        "[1 2]",
        "[1,]",
        "1 2",
        "{} x",
        "nul",
        "tru",
        "\"abc",
        "\"a\\",
        "\"a\\q\"",
        "\"a\\/\"",
        "\"\\u00\"",
        "\"\\u12g4\"",
        "\"\\ud800\"",
        "\"raw\u{1}control\"",
        "-",
        "1e",
        "1e+",
        "1-2",
        ".5",
        "+1",
        "-inf",
    ];
    for text in bad {
        assert!(Json::parse(text).is_err(), "accepted {text:?}");
    }
    let deep = "[".repeat(100_000);
    assert!(Json::parse(&deep).unwrap_err().contains("too deep"));
    // Every proper prefix of a valid document fails cleanly.
    let doc = "{\"k\":[1,-2.5e3,\"é\\n\",{\"x\":null}],\"t\":true}";
    assert!(Json::parse(doc).is_ok());
    for (cut, _) in doc.char_indices().skip(1) {
        assert!(Json::parse(&doc[..cut]).is_err(), "accepted prefix {:?}", &doc[..cut]);
    }
}

fn random_string(rng: &mut SmallRng) -> String {
    const POOL: &[char] = &['a', 'Z', '"', '\\', '/', '\n', '\t', '\u{1}', '\u{1f}', 'é', '₄'];
    (0..rng.gen_range(0usize..8))
        .map(|_| match rng.gen_range(0u32..4) {
            0 => char::from_u32(rng.gen_range(0u32..0xd800)).unwrap_or('?'),
            _ => POOL[rng.gen_range(0..POOL.len())],
        })
        .collect()
}

fn random_value(rng: &mut SmallRng, depth: u32) -> Json {
    let kinds = if depth >= 3 { 5 } else { 7 };
    match rng.gen_range(0u32..kinds) {
        0 => Json::Null,
        1 => Json::Bool(rng.gen_bool(0.5)),
        2 => Json::U64(match rng.gen_range(0u32..3) {
            0 => u64::MAX,
            1 => rng.gen_range(0u64..10),
            _ => rng.next_u64(),
        }),
        3 => loop {
            let x = f64::from_bits(rng.next_u64());
            if x.is_finite() {
                break Json::F64(x);
            }
        },
        4 => Json::Str(random_string(rng)),
        5 => {
            Json::Array((0..rng.gen_range(0u32..4)).map(|_| random_value(rng, depth + 1)).collect())
        }
        _ => Json::Object(
            (0..rng.gen_range(0u32..4))
                .map(|_| (random_string(rng), random_value(rng, depth + 1)))
                .collect(),
        ),
    }
}

#[test]
fn rendered_values_parse_back_equal() {
    let mut rng = SmallRng::seed_from_u64(0x150d);
    for _ in 0..2000 {
        let value = random_value(&mut rng, 0);
        let text = value.to_string();
        assert_eq!(Json::parse(&text).as_ref(), Ok(&value), "{text}");
    }
}

fn stats_of(values: &[f64]) -> Stats {
    Stats::of(values.iter().copied())
}

#[test]
fn an_empty_batch_renders_nulls_not_zeros() {
    assert_eq!(
        stats(&stats_of(&[])).to_string(),
        r#"{"n":0,"mean":null,"median":null,"min":null,"max":null,"stddev":null}"#
    );
    assert_eq!(
        stats(&stats_of(&[1.0, 3.0])).to_string(),
        r#"{"n":2,"mean":2.0,"median":2.0,"min":1.0,"max":3.0,"stddev":1.0}"#
    );
    let report = ReducedReport {
        cells: vec![ReducedCell {
            group: "g".into(),
            coords: Arc::from(Vec::new()),
            seeds: vec![1],
            runs: 1,
            errors: 1,
            converged: 0,
            valid: 0,
            all_decided: 0,
            spread: stats_of(&[]),
            rounds_to_epsilon: stats_of(&[]),
            messages: stats_of(&[]),
            dropped: stats_of(&[]),
            wall_ns: stats_of(&[]),
        }],
    };
    let parsed = Json::parse(&reduced(&report).to_string()).unwrap();
    let Some(Json::Array(groups)) = parsed.get("groups") else { panic!("{parsed}") };
    assert_eq!(groups[0].get("errors").and_then(Json::as_u64), Some(1));
    assert_eq!(groups[0].get("wall_ns").and_then(|s| s.get("mean")), Some(&Json::Null));
}

fn registry_keys(reg: &StatsRegistry) -> Vec<String> {
    match registry(&reg.snapshot()).get("registry") {
        Some(Json::Object(counters)) => counters.iter().map(|(k, _)| k.clone()).collect(),
        other => panic!("no registry object: {other:?}"),
    }
}

#[test]
fn registry_schema_is_stable_and_skips_unmeasured() {
    let reg = StatsRegistry::new(2);
    // No transport or node coverage yet, and no virtual clock: only the
    // protocol counters and the live wall clock.
    assert_eq!(
        registry_keys(&reg),
        ["rounds_fired", "witness_completions", "mc_firings", "fra_marks", "wall_nanos"]
    );
    reg.note_transport_observed();
    reg.note_nodes_observed();
    reg.record_virtual_time(7);
    let h = reg.register();
    h.record_sent(MsgClass::Flood);
    let keys = registry_keys(&reg);
    for want in
        ["sent", "undelivered", "flood_sent", "nodes_done", "max_queue_depth", "virtual_time"]
    {
        assert!(keys.iter().any(|k| k == want), "missing {want}");
    }
    assert!(!keys.iter().any(|k| k == "crash_sent"), "all-zero class omitted");
    let text = registry(&reg.snapshot()).to_string();
    assert!(text.starts_with(r#"{"registry":{"sent":1,"delivered":0,"#), "{text}");
    let tail = r#""fra_marks":0,"nodes_done":0,"max_queue_depth":0,"virtual_time":7,"wall_nanos":"#;
    assert!(text.contains(tail), "{text}");
}

#[test]
fn certificates_carry_their_rule_parameters() {
    let cert = RobustnessCertificate {
        n: 5,
        r: 2,
        s: 2,
        rule: CertificateRule::LayeredExpander { layers: 3, width: 4 },
        evidence: vec![4, 4],
    };
    assert_eq!(
        certificate(&cert).to_string(),
        r#"{"n":5,"r":2,"s":2,"rule":"layered-expander","params":{"layers":3,"width":4},"evidence":[4,4]}"#
    );
    let trivial = RobustnessCertificate { rule: CertificateRule::Trivial, ..cert };
    assert_eq!(certificate(&trivial).get("params"), Some(&Json::Object(vec![])));
}
