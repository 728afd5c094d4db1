//! Guard against re-growth: the pieces the runtimes share exist once.
//!
//! `fleet.rs` owns the actor enum, the send gate and the wall-clock node
//! loop; a second copy of any of them under `src/` — a fourth harness —
//! fails here mechanically rather than by eye in review.

use std::path::Path;

/// The non-test source of every file under `dir`: each file's text above
/// its first `#[cfg(test)]`.
fn product_source(dir: &Path, out: &mut String) {
    for entry in std::fs::read_dir(dir).expect("src is readable") {
        let path = entry.expect("dir entry").path();
        if path.is_dir() {
            product_source(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") {
            let text = std::fs::read_to_string(&path).expect("source is utf-8");
            out.push_str(text.split("#[cfg(test)]").next().unwrap_or_default());
        }
    }
}

#[test]
fn shared_pieces_are_stated_once() {
    let mut src = String::new();
    product_source(&Path::new(env!("CARGO_MANIFEST_DIR")).join("src"), &mut src);
    for (needle, what) in [
        ("enum Actor", "the honest-or-Byzantine actor enum"),
        (".decide(", "the LinkFaultPlan::decide call site (the send gate)"),
        ("recv_timeout", "the wall-clock node loop's receive"),
    ] {
        assert_eq!(src.matches(needle).count(), 1, "{what} must exist exactly once under src/");
    }
    assert_eq!(src.matches("struct Transport ").count(), 0, "a second ledger has come back");
}
