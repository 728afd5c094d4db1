//! The report reader: a minimal JSON parser for the two artifact schemas
//! this workspace writes — the sweep report and the stats-registry
//! snapshot — shared by the `dbacd` smoke run and the sweep round-trip
//! tests.
//!
//! The workspace's serde shim has no JSON support (see shims/README.md),
//! and the report format is fully under our control:
//!
//! ```text
//! { "kernels": { "<name>": { "mean_ns": 1.0, ... }, ... } }
//! ```
//!
//! [`parse_report`] handles exactly that shape — objects, string keys, and
//! number values, with arbitrary whitespace; anything else is a hard
//! error. The scenario sweeps' raw and reduced reports
//! (`SweepReport::to_bench_json`, `ReducedReport::to_bench_json` in
//! `dbac_core::scenario::sweep`) emit this schema, and
//! [`parse_registry_report`] reads the daemon's `stats` payload the same
//! way. Nothing here times or gates anything: `perf/` is the only place
//! a nanosecond is recorded.

use std::collections::BTreeMap;

/// Mean nanoseconds per kernel (a sweep cell or seed group), keyed by name.
pub type Report = BTreeMap<String, f64>;

pub(crate) struct Json<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Json<'a> {
    pub(crate) fn new(text: &'a str) -> Self {
        Json { bytes: text.as_bytes(), pos: 0 }
    }

    fn skip_ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn expect(&mut self, c: u8) -> Result<(), String> {
        self.skip_ws();
        if self.bytes.get(self.pos) == Some(&c) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected '{}' at byte {}", c as char, self.pos))
        }
    }

    fn peek(&mut self) -> Option<u8> {
        self.skip_ws();
        self.bytes.get(self.pos).copied()
    }

    pub(crate) fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            // Copy the run up to the next quote or backslash whole: both
            // delimiters are ASCII, so the run of a UTF-8 input is UTF-8
            // and non-ASCII text passes through unchanged.
            let run = self.bytes[self.pos..]
                .iter()
                .position(|&b| b == b'"' || b == b'\\')
                .ok_or("unterminated string")?;
            let text = std::str::from_utf8(&self.bytes[self.pos..self.pos + run]);
            out.push_str(text.map_err(|e| e.to_string())?);
            self.pos += run + 1;
            if self.bytes[self.pos - 1] == b'"' {
                return Ok(out);
            }
            let Some(&esc) = self.bytes.get(self.pos) else {
                return Err("unterminated escape".into());
            };
            self.pos += 1;
            match esc {
                b'"' => out.push('"'),
                b'\\' => out.push('\\'),
                b'/' => out.push('/'),
                b'n' => out.push('\n'),
                b't' => out.push('\t'),
                b'u' => {
                    let hex =
                        self.bytes.get(self.pos..self.pos + 4).ok_or("truncated \\u escape")?;
                    self.pos += 4;
                    let code = u32::from_str_radix(
                        std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                        16,
                    )
                    .map_err(|e| e.to_string())?;
                    out.push(char::from_u32(code).ok_or("invalid \\u escape")?);
                }
                other => return Err(format!("unsupported escape '\\{}'", other as char)),
            }
        }
    }

    fn number(&mut self) -> Result<f64, String> {
        self.skip_ws();
        let start = self.pos;
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|b| b.is_ascii_digit() || matches!(b, b'-' | b'+' | b'.' | b'e' | b'E'))
        {
            self.pos += 1;
        }
        std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|e| e.to_string())?
            .parse()
            .map_err(|e| format!("bad number at byte {start}: {e}"))
    }

    /// Parses an object, calling `visit` per key (after which the cursor
    /// must stand past the key's value).
    pub(crate) fn object(
        &mut self,
        visit: &mut dyn FnMut(&mut Json<'a>, &str) -> Result<(), String>,
    ) -> Result<(), String> {
        self.expect(b'{')?;
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(());
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            visit(self, &key)?;
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(());
                }
                _ => return Err(format!("expected ',' or '}}' at byte {}", self.pos)),
            }
        }
    }
}

/// Extracts `name → mean_ns` from a sweep report.
///
/// # Errors
///
/// Any deviation from the report schema (unknown top-level keys,
/// non-numeric fields, a kernel without `mean_ns`, malformed JSON).
pub fn parse_report(text: &str) -> Result<Report, String> {
    let mut report = Report::new();
    let mut json = Json::new(text);
    json.object(&mut |j, key| {
        if key != "kernels" {
            return Err(format!("unexpected top-level key '{key}'"));
        }
        j.object(&mut |j, kernel| {
            let mut mean = None;
            j.object(&mut |j, field| {
                let value = j.number()?;
                if field == "mean_ns" {
                    mean = Some(value);
                }
                Ok(())
            })?;
            let mean = mean.ok_or_else(|| format!("kernel '{kernel}' lacks mean_ns"))?;
            report.insert(kernel.to_string(), mean);
            Ok(())
        })
    })?;
    Ok(report)
}

/// Counter totals from a stats-registry snapshot, keyed by counter name
/// (the keys of `StatsSnapshot::to_kv`).
pub type RegistryReport = BTreeMap<String, u64>;

/// Extracts `counter → total` from a registry-snapshot report:
///
/// ```text
/// { "registry": { "<counter>": 123, ... } }
/// ```
///
/// This is the `stats` RPC payload of the `dbacd` daemon and the
/// `stats.json` CI artifact; `dbacd --smoke` round-trips the artifact
/// through this parser before writing it.
///
/// # Errors
///
/// Any deviation from the schema (unknown top-level keys, negative or
/// fractional counters, malformed JSON).
pub fn parse_registry_report(text: &str) -> Result<RegistryReport, String> {
    let mut report = RegistryReport::new();
    let mut json = Json::new(text);
    json.object(&mut |j, key| {
        if key != "registry" {
            return Err(format!("unexpected top-level key '{key}'"));
        }
        j.object(&mut |j, counter| {
            let value = j.number()?;
            if value < 0.0 || value.fract() != 0.0 || value > u64::MAX as f64 {
                return Err(format!("counter '{counter}' is not a u64: {value}"));
            }
            report.insert(counter.to_string(), value as u64);
            Ok(())
        })
    })?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAMPLE: &str = r#"{
      "kernels": {
        "bw/K4/f0/none/eps1/fix1/sim": { "mean_ns": 100.0, "min_ns": 90.0, "max_ns": 120.0 },
        "bw/K4/f0/none/eps0.5/rand/net": { "mean_ns": 50.5, "min_ns": 48.0, "max_ns": 52.0 },
        "bw/K₄/ε=0.5 \"é\u00e9\"": { "mean_ns": 7.0 }
      }
    }"#;

    #[test]
    fn parses_the_report_schema() {
        let report = parse_report(SAMPLE).unwrap();
        assert_eq!(report.len(), 3);
        assert_eq!(report["bw/K4/f0/none/eps1/fix1/sim"], 100.0);
        assert_eq!(report["bw/K4/f0/none/eps0.5/rand/net"], 50.5);
        // Non-ASCII keys come back as written, raw or `\u`-escaped.
        assert_eq!(report["bw/K₄/ε=0.5 \"éé\""], 7.0);
    }

    #[test]
    fn rejects_malformed_reports() {
        assert!(parse_report("{").is_err());
        assert!(parse_report(r#"{"kernels": {"a": {"mean": 1}}}"#).is_err());
        assert!(parse_report(r#"{"other": {}}"#).is_err());
        assert!(parse_report(r#"{"kernels": {}}"#).unwrap().is_empty());
    }

    #[test]
    fn parses_the_registry_schema() {
        let report = parse_registry_report(
            r#"{ "registry": { "sent": 120, "delivered": 118, "rounds_fired": 12 } }"#,
        )
        .unwrap();
        assert_eq!(report.len(), 3);
        assert_eq!(report["sent"], 120);
        assert_eq!(report["rounds_fired"], 12);
    }

    #[test]
    fn rejects_malformed_registry_reports() {
        assert!(parse_registry_report(r#"{"kernels": {}}"#).is_err());
        assert!(parse_registry_report(r#"{"registry": {"sent": -1}}"#).is_err());
        assert!(parse_registry_report(r#"{"registry": {"sent": 1.5}}"#).is_err());
        assert!(parse_registry_report(r#"{"registry": {}}"#).unwrap().is_empty());
    }
}
