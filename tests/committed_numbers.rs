//! Committed benchmark numbers must describe the committed code: a
//! `BENCH_serve.json` measured over fewer (or more) specs than
//! `scenarios/` holds is stale, and so is a `BENCH_solver.json` whose
//! suite digest this build no longer reproduces; these checks fail
//! until the file is regenerated.

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

/// The suite digest `BENCH_solver.json` records (the fold of every
/// standard-suite report fingerprint) must be this build's. A hashing
/// or analysis change that moves any report byte fails here, in the
/// tier-1 suite, not only in CI's `tadfa-bench compare` step.
#[test]
fn bench_solver_suite_digest_matches_this_build() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("BENCH_solver.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let doc = json::parse(&text).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let metrics = doc.get("metrics").expect("BENCH_solver.json has metrics");
    let digest = metrics
        .get("suite_digest")
        .and_then(|v| v.as_str())
        .expect("BENCH_solver.json has metrics.suite_digest");
    assert_eq!(
        digest,
        tadfa::sched::hex_fingerprint(tadfa_bench::suite_digest()),
        "suite digest drifted; regenerate BENCH_solver.json with the solver_kernels quickbench \
         only if the output change is intended"
    );
    let functions = metrics
        .get("suite_functions")
        .and_then(|v| v.as_f64())
        .expect("BENCH_solver.json has metrics.suite_functions");
    assert_eq!(functions, tadfa::workloads::standard_suite().len() as f64);
}
