//! Seeded-loop fuzzing of the request and scenario-spec parsers: byte
//! flips, truncations and splices of every committed spec and of valid
//! request lines, plus array/object nesting up to 100k levels deep.
//! Every case must come back `Ok` or a typed error. A panic fails its
//! test; a stack overflow aborts the whole test binary.
//!
//! (Seeded-loop style, as in `crates/ir/tests/parser_robustness.rs`:
//! the offline build has no proptest, so cases are drawn from the
//! workspace's deterministic `rand` stub.)

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::{Path, PathBuf};
use tadfa_sched::{load_spec, parse_spec_toml};
use tadfa_serve::parse_request;

/// Mutated cases per seed input.
const CASES: usize = 256;

/// Nesting depths tried: around the JSON cap, then far past any stack.
const DEPTHS: [usize; 6] = [1, 127, 128, 129, 1_000, 100_000];

/// Valid request lines covering every op and optional field.
const REQUESTS: [&str; 8] = [
    r#"{"id": 1, "op": "run-scenario", "scenario": "solo_baseline", "workers": 2, "deadline_ms": 5000}"#,
    r#"{"id": 2, "op": "analyze", "scenario": "solo_baseline", "source": "func @f(%0) {\nbb0:\n  ret %0\n}"}"#,
    r#"{"id": 3, "op": "analyze-module", "scenario": "octa_shard", "source": "func @leaf(%0) { } é"}"#,
    r#"{"id": 4, "op": "stats"}"#,
    r#"{"id": 5, "op": "reload"}"#,
    r#"{"id": 6, "op": "ping"}"#,
    r#"{"id": 7, "op": "shutdown"}"#,
    r#"{"id": 8, "op": "run-scenario", "scenario": "x", "deadline_ms": 1e3, "workers": [1, {"a": null}]}"#,
];

/// Every committed spec, `(path, bytes)`, sorted by path.
fn committed_specs() -> Vec<(PathBuf, Vec<u8>)> {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../scenarios");
    let mut specs: Vec<(PathBuf, Vec<u8>)> = std::fs::read_dir(&dir)
        .expect("scenario dir readable")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| {
            matches!(
                p.extension().and_then(|e| e.to_str()),
                Some("toml" | "json")
            )
        })
        .map(|p| {
            let bytes = std::fs::read(&p).expect("spec readable");
            (p, bytes)
        })
        .collect();
    specs.sort();
    assert!(specs.len() >= 5, "committed spec set present");
    specs
}

/// One to three random corruptions of `bytes`: a byte flip, a
/// truncation, or a splice of a slice of `donor` at a random offset.
fn mutate(rng: &mut StdRng, bytes: &[u8], donor: &[u8]) -> Vec<u8> {
    let mut out = bytes.to_vec();
    for _ in 0..rng.gen_range(1usize..4) {
        let at = rng.gen_range(0..out.len() + 1);
        match rng.gen_range(0u32..3) {
            0 if at < out.len() => out[at] = rng.gen_range(0u32..256) as u8,
            1 => out.truncate(at),
            _ if !donor.is_empty() => {
                let from = rng.gen_range(0..donor.len());
                let to = rng.gen_range(from..donor.len() + 1);
                let cut = rng.gen_range(at..out.len() + 1);
                out.splice(at..cut, donor[from..to].iter().copied());
            }
            _ => {}
        }
    }
    out
}

/// `n` unclosed `[`, `n` closed `[...]`, and `n` unclosed `{"a":`.
fn deep(n: usize) -> [String; 3] {
    [
        "[".repeat(n),
        format!("{}{}", "[".repeat(n), "]".repeat(n)),
        format!("{}1{}", r#"{"a":"#.repeat(n), "}".repeat(n)),
    ]
}

/// A spec file in the temp directory, removed on drop.
struct TempSpec(PathBuf);

impl TempSpec {
    fn new(name: &str) -> TempSpec {
        TempSpec(std::env::temp_dir().join(format!("tadfa-fuzz-{}-{name}", std::process::id())))
    }

    /// Writes `bytes` as the spec and loads it; `Ok` or a typed error.
    fn load(&self, bytes: &[u8]) {
        std::fs::write(&self.0, bytes).expect("temp spec writes");
        let _ = load_spec(&self.0);
    }
}

impl Drop for TempSpec {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.0);
    }
}

#[test]
fn mutated_request_lines_parse_or_fail_typed() {
    let mut rng = StdRng::seed_from_u64(0xF1);
    let specs = committed_specs();
    for (i, line) in REQUESTS.iter().enumerate() {
        let _ = parse_request(line);
        for case in 0..CASES {
            let donor = if case % 2 == 0 {
                REQUESTS[(i + case) % REQUESTS.len()].as_bytes()
            } else {
                &specs[case % specs.len()].1
            };
            let bytes = mutate(&mut rng, line.as_bytes(), donor);
            let _ = parse_request(&String::from_utf8_lossy(&bytes));
        }
    }
}

#[test]
fn mutated_toml_specs_parse_or_fail_typed() {
    let mut rng = StdRng::seed_from_u64(0xF2);
    let specs = committed_specs();
    for (path, bytes) in specs
        .iter()
        .filter(|(p, _)| p.extension().unwrap() == "toml")
    {
        let stem = path.file_stem().unwrap().to_str().unwrap();
        for case in 0..CASES {
            let donor = &specs[(case * 7) % specs.len()].1;
            let text = String::from_utf8_lossy(&mutate(&mut rng, bytes, donor)).into_owned();
            let _ = parse_spec_toml(&text, stem);
        }
    }
}

#[test]
fn mutated_json_specs_load_or_fail_typed() {
    let mut rng = StdRng::seed_from_u64(0xF3);
    let specs = committed_specs();
    let temp = TempSpec::new("mutated.json");
    for (_, bytes) in specs
        .iter()
        .filter(|(p, _)| p.extension().unwrap() == "json")
    {
        temp.load(bytes);
        for case in 0..CASES {
            let donor = &specs[(case * 5) % specs.len()].1;
            temp.load(&mutate(&mut rng, bytes, donor));
        }
    }
}

#[test]
fn deep_nesting_fails_typed_in_every_parser() {
    let temp = TempSpec::new("deep.json");
    for n in DEPTHS {
        for text in deep(n) {
            let _ = parse_request(&text);
            assert!(
                n <= tadfa_sched::json::MAX_DEPTH || tadfa_sched::json::parse(&text).is_err(),
                "{n} levels must be refused"
            );
            temp.load(format!(r#"{{"name": "deep", "x": {text}}}"#).as_bytes());
            let _ = parse_spec_toml(&format!("name = \"deep\"\nx = {text}\n"), "deep");
        }
    }
    // The request that overflowed the service's stack: 10,000 `[`.
    let e = parse_request(&"[".repeat(10_000)).unwrap_err();
    assert!(e.message.contains("nesting"), "{}", e.message);
}
