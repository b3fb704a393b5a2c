//! Committed benchmark numbers must describe the committed scenarios:
//! a `BENCH_serve.json` measured over fewer (or more) specs than
//! `scenarios/` holds is stale, and this check fails until it is
//! regenerated.

use std::path::Path;
use tadfa::sched::json;

#[test]
fn bench_serve_covers_every_committed_spec() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let specs = std::fs::read_dir(root.join("scenarios"))
        .expect("scenarios/ exists")
        .map(|e| e.unwrap().path())
        .filter(|p| {
            matches!(
                p.extension().and_then(|e| e.to_str()),
                Some("toml" | "json")
            )
        })
        .count();

    let path = root.join("BENCH_serve.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let doc = json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let measured = doc
        .get("metrics")
        .and_then(|m| m.get("scenarios"))
        .and_then(|v| v.as_f64())
        .expect("BENCH_serve.json has metrics.scenarios");
    assert_eq!(
        measured, specs as f64,
        "BENCH_serve.json was measured over {measured} scenario(s) but scenarios/ holds \
         {specs}; regenerate it with the tadfa-load serve and fleet sweeps"
    );
}
