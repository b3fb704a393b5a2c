//! Seeded inputs: the spec set, the replay order and the fresh functions.
//!
//! Everything a workload sends is a pure function of its seed, so the
//! same seed yields a byte-identical request stream (see the tests).

use std::path::{Path, PathBuf};
use tadfa_sched::json;
use tadfa_workloads::{generate, GeneratorConfig};

/// The sessions `analyze-fresh` sends to, grouped by register-file
/// grid: the 8×8 ones (whole-grid 8-wide kernel) and the 6×6 ones
/// (general lane path). Every committed spec with one of these grids is
/// listed, so the stream spreads over as many solve caches as it can.
pub const FRESH_GRIDS: [&[&str]; 2] = [
    &["solo_baseline", "quad_generated_balanced"],
    &["dual_suite_coolest", "migrate_diurnal", "het_bursty_dvfs"],
];

/// Distinct functions `analyze-fresh` may send to one session: below
/// the solve cache's 4096-entry capacity, so no store is turned away.
pub const FRESH_PER_SESSION: usize = 4000;

/// Length of the `analyze-fresh` stream: requests alternate the two
/// grids, so the 8×8 grid, with two sessions, fills first.
pub const FRESH_POOL: usize = 2 * 2 * FRESH_PER_SESSION;

/// The register-pressure knobs of the committed generated specs
/// (`octa_shard` 6, `quad_generated_balanced` 8, `het_bursty_dvfs` 9,
/// the covert senders 10).
pub const FRESH_PRESSURES: [usize; 4] = [6, 8, 9, 10];

/// A small, fast, seedable generator (SplitMix64).
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        let mut r = Rng(seed ^ stream.wrapping_mul(0xA076_1D64_78BD_642F));
        r.next();
        r
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `lo..=hi`.
    pub fn range(&mut self, lo: usize, hi: usize) -> usize {
        lo + (self.next() % (hi - lo + 1) as u64) as usize
    }
}

/// One committed scenario spec and the fingerprint its golden records.
#[derive(Clone, Debug)]
pub struct Spec {
    pub stem: String,
    pub path: PathBuf,
    pub golden: String,
}

/// Every `scenarios/*.toml|json` spec, sorted by stem, each with its
/// golden fingerprint. Fails if a spec has no golden.
pub fn enumerate_specs(root: &Path) -> Result<Vec<Spec>, String> {
    let dir = root.join("scenarios");
    let entries = std::fs::read_dir(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut specs = Vec::new();
    for entry in entries {
        let path = entry.map_err(|e| e.to_string())?.path();
        let ext = path.extension().and_then(|e| e.to_str());
        if !path.is_file() || !matches!(ext, Some("toml") | Some("json")) {
            continue;
        }
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .ok_or_else(|| format!("{}: unreadable file name", path.display()))?
            .to_string();
        let golden_path = dir.join("golden").join(format!("{stem}.json"));
        let text = std::fs::read_to_string(&golden_path)
            .map_err(|e| format!("spec {stem} has no golden {}: {e}", golden_path.display()))?;
        let golden = json::parse(&text)
            .ok()
            .and_then(|d| d.get("fingerprint")?.as_str().map(str::to_string))
            .ok_or_else(|| format!("{}: no fingerprint", golden_path.display()))?;
        specs.push(Spec { stem, path, golden });
    }
    if specs.is_empty() {
        return Err(format!("no specs under {}", dir.display()));
    }
    specs.sort_by(|a, b| a.stem.cmp(&b.stem));
    Ok(specs)
}

/// The spec indices of replay round `round`: every spec once, in a
/// seeded shuffled order.
pub fn replay_round(seed: u64, round: u64, n: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    let mut rng = Rng::new(seed, 1 + round);
    for i in (1..n).rev() {
        order.swap(i, rng.range(0, i));
    }
    order
}

/// The `index`-th item of a stream made of shuffled rounds.
pub fn replay_item(seed: u64, index: usize, n: usize) -> usize {
    replay_round(seed, (index / n) as u64, n)[index % n]
}

/// A `run-scenario` request line.
pub fn run_scenario_line(id: u64, stem: &str) -> String {
    format!(
        "{{\"id\": {id}, \"op\": \"run-scenario\", \"scenario\": {}}}",
        json::escape(stem)
    )
}

/// One `analyze-fresh` request: the session it targets and the
/// function's `.tir` source.
#[derive(Clone, Debug)]
pub struct FreshFunction {
    pub session: &'static str,
    pub source: String,
}

/// The `index`-th fresh function, made the way the committed generated
/// specs make their tasks: `GeneratorConfig::default()` with a seeded
/// generator seed and one of the specs' pressures. Requests alternate
/// the two grids and, within a grid, its sessions in turn.
pub fn fresh_function(seed: u64, index: usize) -> FreshFunction {
    let mut rng = Rng::new(seed, 0xF8E5_0000 ^ index as u64);
    let cfg = GeneratorConfig {
        seed: rng.next(),
        pressure: FRESH_PRESSURES[rng.range(0, FRESH_PRESSURES.len() - 1)],
        ..GeneratorConfig::default()
    };
    FreshFunction {
        session: fresh_session(index),
        source: generate(&cfg).to_string(),
    }
}

/// The session the `index`-th fresh function goes to.
pub fn fresh_session(index: usize) -> &'static str {
    let grid = FRESH_GRIDS[index % FRESH_GRIDS.len()];
    grid[(index / FRESH_GRIDS.len()) % grid.len()]
}

/// An `analyze` request line.
pub fn analyze_line(id: u64, f: &FreshFunction) -> String {
    format!(
        "{{\"id\": {id}, \"op\": \"analyze\", \"scenario\": {}, \"source\": {}}}",
        json::escape(f.session),
        json::escape(&f.source)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn replay_stream(seed: u64) -> String {
        (0..50)
            .map(|i| run_scenario_line(i as u64, &format!("s{}", replay_item(seed, i, 11))))
            .collect::<Vec<_>>()
            .join("\n")
    }

    fn fresh_stream(seed: u64) -> String {
        (0..20)
            .map(|i| analyze_line(i as u64, &fresh_function(seed, i)))
            .collect::<Vec<_>>()
            .join("\n")
    }

    #[test]
    fn same_seed_gives_a_byte_identical_stream() {
        assert_eq!(replay_stream(7), replay_stream(7));
        assert_eq!(fresh_stream(7), fresh_stream(7));
        assert_ne!(replay_stream(7), replay_stream(8));
        assert_ne!(fresh_stream(7), fresh_stream(8));
    }

    #[test]
    fn every_round_holds_every_spec_once() {
        for round in 0..5 {
            let mut order = replay_round(3, round, 11);
            order.sort_unstable();
            assert_eq!(order, (0..11).collect::<Vec<_>>());
        }
    }

    #[test]
    fn fresh_functions_are_distinct_and_alternate_grids() {
        let fs: Vec<FreshFunction> = (0..40).map(|i| fresh_function(1, i)).collect();
        for (i, f) in fs.iter().enumerate() {
            assert!(FRESH_GRIDS[i % 2].contains(&f.session));
            assert!(tadfa_ir::parse_function(&f.source).is_ok());
        }
        let mut sources: Vec<&str> = fs.iter().map(|f| f.source.as_str()).collect();
        sources.sort_unstable();
        sources.dedup();
        assert_eq!(sources.len(), fs.len());
    }

    #[test]
    fn the_pool_fills_no_session_past_its_share() {
        let mut per_session = std::collections::BTreeMap::new();
        for i in 0..FRESH_POOL {
            *per_session.entry(fresh_session(i)).or_insert(0) += 1;
        }
        assert_eq!(per_session.len(), 5);
        assert!(per_session.values().all(|&n| n <= FRESH_PER_SESSION));
        assert_eq!(per_session.values().max(), Some(&FRESH_PER_SESSION));
    }
}
