//! The thermal-solve memo cache.
//!
//! The thermal DFA fixpoint is ~99% of an analysis call (allocation,
//! criticality ranking and upsampling are comparatively free), and its
//! result is a pure function of the *power profile* the allocated
//! function deposits on the analysis grid — which registers each
//! instruction touches, with what energy, for how long, in what control
//! flow — together with the grid's RC parameters and the DFA config.
//! When the same kernel appears repeatedly across a suite (replicated
//! benchmarks, policy sweeps over a fixed suite, re-analysis in an
//! optimization loop), every repetition re-runs an identical fixpoint.
//!
//! A [`SolveCache`] memoises those solves whole: the key is a 128-bit
//! hash of the power profile
//! ([`ThermalDfa::signature`](crate::ThermalDfa::signature), built on
//! [`tadfa_thermal::hashing`]), the value the complete
//! [`ThermalDfaResult`].
//!
//! Keys are exact bit patterns — there is no approximate mode — so only
//! bit-identical profiles share a key, and a cached answer is exactly
//! the answer the solver would produce: analyses run *with* the cache
//! are byte-identical to analyses run without it, which the engine's
//! determinism tests assert.
//!
//! The cache is sharded and lock-per-shard, so engine workers contend
//! only when they touch the same shard at the same instant; entries are
//! shared [`Arc`]s, so a hit clones a pointer, not the state vectors.
//! Insertion stops (lookups continue) once 4096 entries are resident,
//! bounding memory on unbounded streams — and every store
//! turned away at the capacity wall is counted
//! ([`CacheStats::rejected_stores`]), so a long-lived service can tell
//! "the working set fits" apart from "the cache silently stopped
//! absorbing new work" without guessing from hit rates.

use crate::codec::{ByteReader, ByteWriter, CodecError};
use crate::dfa::ThermalDfaResult;
use crate::summary::ThermalSummary;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Number of independently locked shards (power of two).
const SHARDS: usize = 16;

/// Maximum number of resident entries per map (fixpoint results and
/// summaries each). Large enough that a service session of a few
/// thousand distinct functions turns no store away.
const DEFAULT_CAPACITY: usize = 4096;

/// One sharded `key → Arc<V>` map with an atomic occupancy count — the
/// storage both of the cache's maps (results and summaries) use.
#[derive(Debug)]
struct ShardedMap<V> {
    shards: Vec<Mutex<HashMap<u128, Arc<V>>>>,
    /// Resident entries across all shards, maintained atomically so the
    /// capacity check on the store path never touches another shard's
    /// lock.
    len: AtomicUsize,
}

/// What [`ShardedMap::insert`] did with a value.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Insert {
    /// A new key: the value is now resident.
    New,
    /// The key was already resident; the first value stays.
    Resident,
    /// A new key turned away at the capacity wall.
    Full,
}

impl<V> ShardedMap<V> {
    fn new() -> ShardedMap<V> {
        ShardedMap {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
            len: AtomicUsize::new(0),
        }
    }

    fn shard(&self, key: u128) -> std::sync::MutexGuard<'_, HashMap<u128, Arc<V>>> {
        self.shards[(key as usize) & (SHARDS - 1)]
            .lock()
            .expect("cache shard poisoned")
    }

    fn get(&self, key: u128) -> Option<Arc<V>> {
        self.shard(key).get(&key).cloned()
    }

    /// Inserts `value` under `key` unless the key is resident (first
    /// wins) or [`DEFAULT_CAPACITY`] entries already are.
    fn insert(&self, key: u128, value: &Arc<V>) -> Insert {
        if self.len.load(Ordering::Relaxed) >= DEFAULT_CAPACITY {
            // Re-storing a key that is already resident is not a lost
            // insert, so only count genuinely new work turned away.
            return if self.shard(key).contains_key(&key) {
                Insert::Resident
            } else {
                Insert::Full
            };
        }
        match self.shard(key).entry(key) {
            std::collections::hash_map::Entry::Vacant(slot) => {
                slot.insert(Arc::clone(value));
                self.len.fetch_add(1, Ordering::Relaxed);
                Insert::New
            }
            std::collections::hash_map::Entry::Occupied(_) => Insert::Resident,
        }
    }

    fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    fn clear(&self) {
        for s in &self.shards {
            s.lock().expect("cache shard poisoned").clear();
        }
        self.len.store(0, Ordering::Relaxed);
    }
}

/// A sharded, thread-safe memo cache for thermal-DFA fixpoint solves.
///
/// # Examples
///
/// ```
/// use tadfa_core::{AnalysisGrid, SolveCache, ThermalDfa, ThermalDfaConfig};
/// use tadfa_ir::FunctionBuilder;
/// use tadfa_regalloc::{allocate_linear_scan, FirstFree, RegAllocConfig};
/// use tadfa_thermal::{Floorplan, PowerModel, RcParams, RegisterFile};
///
/// let mut b = FunctionBuilder::new("f");
/// let x = b.param();
/// let y = b.mul(x, x);
/// b.ret(Some(y));
/// let mut f = b.finish();
///
/// let rf = RegisterFile::new(Floorplan::grid(4, 4));
/// let alloc = allocate_linear_scan(
///     &mut f, &rf, &mut FirstFree, &RegAllocConfig::default()).unwrap();
/// let grid = AnalysisGrid::full(&rf, RcParams::default());
/// let dfa = ThermalDfa::new(&f, &alloc.assignment, &grid,
///                           PowerModel::default(), ThermalDfaConfig::default())?;
///
/// let cache = SolveCache::new();
/// let key = dfa.signature();
/// assert!(cache.fetch(key).is_none(), "cold");
/// cache.store(key, &std::sync::Arc::new(dfa.run()));
/// assert!(cache.fetch(key).is_some(), "warm");
/// assert_eq!(cache.stats().hits, 1);
/// # Ok::<(), tadfa_core::TadfaError>(())
/// ```
#[derive(Debug)]
pub struct SolveCache {
    results: ShardedMap<ThermalDfaResult>,
    /// Thermal summaries (the interprocedural memo), keyed in their own
    /// map: a function's summary and its whole-fixpoint result share
    /// the same signature key and must not collide. Summaries are far
    /// smaller than fixpoint results, so each map gets the full
    /// capacity.
    summaries: ShardedMap<ThermalSummary>,
    hits: AtomicU64,
    misses: AtomicU64,
    summary_hits: AtomicU64,
    summary_stores: AtomicU64,
    /// Stores turned away because the cache was at capacity.
    rejected: AtomicU64,
    /// Entries inserted through the preload path (disk warm-up) rather
    /// than solved here.
    preloaded: AtomicU64,
    /// When enabled, every genuinely new insertion is also appended
    /// here so a persistence tier can drain it to disk. `None` (the
    /// default) keeps the store path free of the extra lock.
    spill_log: Mutex<Option<Vec<SpillEntry>>>,
}

/// One cache insertion, captured for the persistence tier: which map it
/// went into, under which signature key, with the value itself.
#[derive(Clone, Debug)]
pub struct SpillEntry {
    /// The signature the value is cached under.
    pub key: u128,
    /// The cached value.
    pub value: SpillValue,
}

/// The payload of a [`SpillEntry`] — a whole fixpoint result or an
/// interprocedural summary, mirroring the cache's two keyed maps.
#[derive(Clone, Debug)]
pub enum SpillValue {
    /// A whole-fixpoint [`ThermalDfaResult`].
    Result(Arc<ThermalDfaResult>),
    /// An interprocedural [`ThermalSummary`].
    Summary(Arc<ThermalSummary>),
}

/// Record-kind tag for an encoded result entry.
const SPILL_KIND_RESULT: u8 = 0;
/// Record-kind tag for an encoded summary entry.
const SPILL_KIND_SUMMARY: u8 = 1;

impl SpillEntry {
    /// Serialises the entry (kind tag + key + value payload) with the
    /// exact-bits codec of [`crate::codec`].
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        match &self.value {
            SpillValue::Result(r) => {
                w.put_u8(SPILL_KIND_RESULT);
                w.put_u128(self.key);
                let mut bytes = w.into_bytes();
                bytes.extend_from_slice(&r.encode());
                bytes
            }
            SpillValue::Summary(s) => {
                w.put_u8(SPILL_KIND_SUMMARY);
                w.put_u128(self.key);
                let mut bytes = w.into_bytes();
                bytes.extend_from_slice(&s.encode());
                bytes
            }
        }
    }

    /// Decodes one entry from the bytes [`to_bytes`](Self::to_bytes)
    /// produced.
    ///
    /// # Errors
    ///
    /// Any [`CodecError`] on truncated, corrupted, or
    /// version-mismatched input — never panics, whatever the bytes.
    pub fn from_bytes(bytes: &[u8]) -> Result<SpillEntry, CodecError> {
        let mut r = ByteReader::new(bytes);
        let kind = r.get_u8()?;
        let key = r.get_u128()?;
        let payload = &bytes[bytes.len() - r.remaining()..];
        let value = match kind {
            SPILL_KIND_RESULT => SpillValue::Result(Arc::new(ThermalDfaResult::decode(payload)?)),
            SPILL_KIND_SUMMARY => SpillValue::Summary(Arc::new(ThermalSummary::decode(payload)?)),
            t => return Err(CodecError::BadTag(t)),
        };
        Ok(SpillEntry { key, value })
    }
}

impl Default for SolveCache {
    fn default() -> SolveCache {
        SolveCache::new()
    }
}

impl SolveCache {
    /// An empty cache.
    pub fn new() -> SolveCache {
        SolveCache {
            results: ShardedMap::new(),
            summaries: ShardedMap::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            summary_hits: AtomicU64::new(0),
            summary_stores: AtomicU64::new(0),
            rejected: AtomicU64::new(0),
            preloaded: AtomicU64::new(0),
            spill_log: Mutex::new(None),
        }
    }

    /// Turns on the spill log: from now on every genuinely new
    /// insertion (result or summary) is also recorded for
    /// [`drain_spill_log`](SolveCache::drain_spill_log) to collect.
    /// Idempotent; entries already resident are not back-filled.
    pub fn enable_spill_log(&self) {
        let mut log = self.spill_log.lock().expect("spill log poisoned");
        if log.is_none() {
            *log = Some(Vec::new());
        }
    }

    /// Takes every spill entry recorded since the last drain (empty
    /// when the log is disabled or nothing new was inserted).
    pub fn drain_spill_log(&self) -> Vec<SpillEntry> {
        self.spill_log
            .lock()
            .expect("spill log poisoned")
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
    }

    fn spill(&self, key: u128, value: SpillValue) {
        if let Some(log) = self.spill_log.lock().expect("spill log poisoned").as_mut() {
            log.push(SpillEntry { key, value });
        }
    }

    /// The fixpoint result cached under `key`, if present. Counts a hit
    /// or a miss either way.
    pub fn fetch(&self, key: u128) -> Option<Arc<ThermalDfaResult>> {
        let hit = self.results.get(key);
        let counter = if hit.is_some() {
            &self.hits
        } else {
            &self.misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        hit
    }

    /// Stores one fixpoint result. Once the cache is at capacity the
    /// store is rejected and counted ([`CacheStats::rejected_stores`])
    /// instead of inserted; concurrent stores of the same key keep the
    /// first (both are bit-identical anyway — a same-key re-store is
    /// neither an insertion nor a rejection).
    pub fn store(&self, key: u128, result: &Arc<ThermalDfaResult>) {
        if self.admit(self.results.insert(key, result)) {
            self.spill(key, SpillValue::Result(Arc::clone(result)));
        }
    }

    /// The thermal summary cached under `key`, if present. Counts a
    /// [`CacheStats::summary_hits`] hit; a miss is not an event (the
    /// caller flattens and stores, which
    /// [`CacheStats::summary_stores`] counts).
    pub fn fetch_summary(&self, key: u128) -> Option<Arc<ThermalSummary>> {
        let hit = self.summaries.get(key);
        if hit.is_some() {
            self.summary_hits.fetch_add(1, Ordering::Relaxed);
        }
        hit
    }

    /// Stores one thermal summary. Same capacity discipline as
    /// [`store`](SolveCache::store) (summaries have their own entry
    /// budget); only a genuinely new insertion counts as a
    /// [`CacheStats::summary_stores`].
    pub fn store_summary(&self, key: u128, summary: &Arc<ThermalSummary>) {
        if self.admit(self.summaries.insert(key, summary)) {
            self.summary_stores.fetch_add(1, Ordering::Relaxed);
            self.spill(key, SpillValue::Summary(Arc::clone(summary)));
        }
    }

    /// Counts a store turned away at capacity; `true` for a new entry.
    fn admit(&self, outcome: Insert) -> bool {
        if outcome == Insert::Full {
            self.rejected.fetch_add(1, Ordering::Relaxed);
        }
        outcome == Insert::New
    }

    /// Inserts a fixpoint result recovered from the persistence tier.
    /// Unlike [`store`](SolveCache::store) this touches neither the
    /// hit/miss counters nor the spill log (a preloaded entry must not
    /// be re-spilled to the segment it came from); it is counted in
    /// [`CacheStats::preloaded`] instead. Returns whether the entry
    /// was inserted (`false`: already resident or at capacity —
    /// silently, since warm-up is best-effort).
    pub fn preload(&self, key: u128, result: Arc<ThermalDfaResult>) -> bool {
        self.preload_entries([SpillEntry {
            key,
            value: SpillValue::Result(result),
        }]) == 1
    }

    /// Inserts a thermal summary recovered from the persistence tier —
    /// the summary counterpart of [`preload`](SolveCache::preload): no
    /// counter side effects beyond [`CacheStats::preloaded`], no spill
    /// log, no [`CacheStats::summary_stores`].
    pub fn preload_summary(&self, key: u128, summary: Arc<ThermalSummary>) -> bool {
        self.preload_entries([SpillEntry {
            key,
            value: SpillValue::Summary(summary),
        }]) == 1
    }

    /// Preloads a batch of recovered [`SpillEntry`] values — the bulk
    /// warm-recovery surface the persistence tier and the fleet
    /// supervisor use. First-wins, no spill log, counted in
    /// `preloaded`, per entry; duplicate keys in the batch (e.g.
    /// segment directories carrying records from several process
    /// lifetimes) collapse to the oldest occurrence. Returns how many
    /// entries were actually inserted.
    pub fn preload_entries(&self, entries: impl IntoIterator<Item = SpillEntry>) -> u64 {
        let mut inserted = 0u64;
        for entry in entries {
            let outcome = match &entry.value {
                SpillValue::Result(r) => self.results.insert(entry.key, r),
                SpillValue::Summary(s) => self.summaries.insert(entry.key, s),
            };
            if outcome == Insert::New {
                inserted += 1;
            }
        }
        self.preloaded.fetch_add(inserted, Ordering::Relaxed);
        inserted
    }

    /// Number of resident entries (approximate under concurrent
    /// insertion).
    pub fn len(&self) -> usize {
        self.results.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops every entry and zeroes the hit/miss counters.
    pub fn clear(&self) {
        self.results.clear();
        self.summaries.clear();
        self.hits.store(0, Ordering::Relaxed);
        self.misses.store(0, Ordering::Relaxed);
        self.summary_hits.store(0, Ordering::Relaxed);
        self.summary_stores.store(0, Ordering::Relaxed);
        self.rejected.store(0, Ordering::Relaxed);
        self.preloaded.store(0, Ordering::Relaxed);
        if let Some(log) = self.spill_log.lock().expect("spill log poisoned").as_mut() {
            log.clear();
        }
    }

    /// Hit/miss/rejected-store counters and occupancy.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            entries: self.len(),
            rejected_stores: self.rejected.load(Ordering::Relaxed),
            summary_hits: self.summary_hits.load(Ordering::Relaxed),
            summary_stores: self.summary_stores.load(Ordering::Relaxed),
            preloaded: self.preloaded.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time snapshot of a [`SolveCache`]'s counters.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that fell through to the solver.
    pub misses: u64,
    /// Entries resident.
    pub entries: usize,
    /// New-key stores turned away because the cache was at capacity —
    /// nonzero means the working set outgrew the cache and later
    /// repetitions of the rejected profiles re-solve from scratch.
    pub rejected_stores: u64,
    /// Summary lookups answered from the cache — each one is a callee
    /// whose trace was *not* re-flattened.
    pub summary_hits: u64,
    /// Summaries flattened and inserted — each distinct function body
    /// costs exactly one of these per cache lifetime.
    pub summary_stores: u64,
    /// Entries (results + summaries) warmed in from the persistence
    /// tier at startup rather than solved in this process.
    pub preloaded: u64,
}

impl CacheStats {
    /// Hits as a fraction of all lookups (`NaN` before any lookup).
    pub fn hit_rate(&self) -> f64 {
        self.hits as f64 / (self.hits + self.misses) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ThermalDfaConfig;
    use crate::dfa::ThermalDfa;
    use crate::grid::AnalysisGrid;
    use tadfa_ir::FunctionBuilder;
    use tadfa_regalloc::{allocate_linear_scan, FirstFree, RegAllocConfig};
    use tadfa_thermal::{Floorplan, PowerModel, RcParams, RegisterFile};

    fn solved() -> (u128, Arc<ThermalDfaResult>) {
        let mut b = FunctionBuilder::new("f");
        let x = b.param();
        let y = b.mul(x, x);
        b.ret(Some(y));
        let mut f = b.finish();
        let rf = RegisterFile::new(Floorplan::grid(4, 4));
        let alloc =
            allocate_linear_scan(&mut f, &rf, &mut FirstFree, &RegAllocConfig::default()).unwrap();
        let grid = AnalysisGrid::full(&rf, RcParams::default());
        let dfa = ThermalDfa::new(
            &f,
            &alloc.assignment,
            &grid,
            PowerModel::default(),
            ThermalDfaConfig::default(),
        )
        .unwrap();
        (dfa.signature(), Arc::new(dfa.run()))
    }

    #[test]
    fn miss_then_hit_round_trips() {
        let c = SolveCache::new();
        let (key, result) = solved();
        assert!(c.fetch(key).is_none());
        c.store(key, &result);
        let back = c.fetch(key).expect("warm");
        assert_eq!(back.residual_history, result.residual_history);
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.entries), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    /// A cache at capacity: `key` stored first, then filler keys
    /// (`key ^ (k << 64)`, disjoint from the low-bit keys the tests
    /// store next) up to [`DEFAULT_CAPACITY`].
    fn full_cache(key: u128, result: &Arc<ThermalDfaResult>) -> SolveCache {
        let c = SolveCache::new();
        c.store(key, result);
        for k in 1..DEFAULT_CAPACITY as u128 {
            c.store(key ^ (k << 64), result);
        }
        assert_eq!(c.len(), DEFAULT_CAPACITY);
        assert_eq!(c.stats().rejected_stores, 0);
        c
    }

    #[test]
    fn capacity_bounds_insertion_but_not_lookup() {
        let (key, result) = solved();
        let c = full_cache(key, &result);
        for k in 1..5u128 {
            c.store(key ^ k, &result);
        }
        assert_eq!(c.len(), DEFAULT_CAPACITY, "capacity respected");
        assert!(c.fetch(key).is_some());
        assert_eq!(c.stats().rejected_stores, 4, "each lost insert counted");
        // Re-storing the resident key at capacity is not a lost insert.
        c.store(key, &result);
        assert_eq!(c.stats().rejected_stores, 4);
    }

    /// The satellite contract: at capacity under concurrent stores, the
    /// cache keeps serving lookups, counts every rejected new-key store,
    /// and the first writer of the resident key wins.
    #[test]
    fn concurrent_stores_at_capacity_count_rejections() {
        let (key, result) = solved();
        let c = full_cache(key, &result);
        let resident = c.fetch(key).expect("resident before the store storm");

        const THREADS: u64 = 4;
        const STORES_PER_THREAD: u64 = 64;
        std::thread::scope(|scope| {
            for t in 0..THREADS {
                let c = &c;
                let result = &result;
                scope.spawn(move || {
                    for i in 0..STORES_PER_THREAD {
                        // Distinct keys per thread, all doomed: every
                        // capacity slot is already taken.
                        c.store(key ^ (1 + t * STORES_PER_THREAD + i) as u128, result);
                        // Lookups of the resident key keep being served.
                        assert!(c.fetch(key).is_some());
                    }
                });
            }
        });

        let s = c.stats();
        assert_eq!(c.len(), DEFAULT_CAPACITY, "capacity still respected");
        assert_eq!(s.rejected_stores, THREADS * STORES_PER_THREAD);
        assert_eq!(s.hits, 1 + THREADS * STORES_PER_THREAD);
        // First writer wins: the resident entry is still the original.
        let back = c.fetch(key).expect("still resident");
        assert!(Arc::ptr_eq(&back, &resident));
    }

    #[test]
    fn clear_resets_entries_and_counters() {
        let (key, result) = solved();
        let c = full_cache(key, &result);
        c.store(key ^ 1, &result);
        let _ = c.fetch(key);
        c.clear();
        assert!(c.is_empty());
        assert_eq!(
            c.stats(),
            CacheStats {
                hits: 0,
                misses: 0,
                entries: 0,
                rejected_stores: 0,
                summary_hits: 0,
                summary_stores: 0,
                preloaded: 0
            }
        );
    }

    #[test]
    fn summary_memo_counts_stores_once_and_hits_thereafter() {
        let c = SolveCache::new();
        let (key, _) = solved();
        assert!(c.fetch_summary(key).is_none(), "cold");
        let sum = {
            let mut b = FunctionBuilder::new("f");
            let x = b.param();
            let y = b.mul(x, x);
            b.ret(Some(y));
            let mut f = b.finish();
            let rf = RegisterFile::new(Floorplan::grid(4, 4));
            let alloc =
                allocate_linear_scan(&mut f, &rf, &mut FirstFree, &RegAllocConfig::default())
                    .unwrap();
            let grid = AnalysisGrid::full(&rf, RcParams::default());
            let dfa = ThermalDfa::new(
                &f,
                &alloc.assignment,
                &grid,
                PowerModel::default(),
                ThermalDfaConfig::default(),
            )
            .unwrap();
            Arc::new(dfa.summarize())
        };
        c.store_summary(key, &sum);
        c.store_summary(key, &sum); // re-store is not a second store
        assert!(c.fetch_summary(key).is_some());
        assert!(c.fetch_summary(key).is_some());
        let s = c.stats();
        assert_eq!((s.summary_stores, s.summary_hits), (1, 2));
        // The summary map is independent of the result map: same key,
        // no collision, no result entry.
        assert_eq!(s.entries, 0);
    }

    fn summarized() -> (u128, Arc<ThermalSummary>) {
        let mut b = FunctionBuilder::new("g");
        let x = b.param();
        let y = b.add(x, x);
        b.ret(Some(y));
        let mut f = b.finish();
        let rf = RegisterFile::new(Floorplan::grid(4, 4));
        let alloc =
            allocate_linear_scan(&mut f, &rf, &mut FirstFree, &RegAllocConfig::default()).unwrap();
        let grid = AnalysisGrid::full(&rf, RcParams::default());
        let dfa = ThermalDfa::new(
            &f,
            &alloc.assignment,
            &grid,
            PowerModel::default(),
            ThermalDfaConfig::default(),
        )
        .unwrap();
        (dfa.signature(), Arc::new(dfa.summarize()))
    }

    /// The persistence contract end-to-end in memory: new insertions
    /// land in the spill log, survive an encode/decode round trip with
    /// exact bits, and preload into a fresh cache where they serve
    /// ordinary hits.
    #[test]
    fn spill_log_round_trips_through_bytes_into_a_fresh_cache() {
        let c = SolveCache::new();
        c.enable_spill_log();
        let (rkey, result) = solved();
        let (skey, summary) = summarized();
        c.store(rkey, &result);
        c.store(rkey, &result); // re-store: no second spill entry
        c.store_summary(skey, &summary);
        let spilled = c.drain_spill_log();
        assert_eq!(spilled.len(), 2);
        assert!(c.drain_spill_log().is_empty(), "drain empties the log");

        let warm = SolveCache::new();
        for entry in &spilled {
            let bytes = entry.to_bytes();
            let back = SpillEntry::from_bytes(&bytes).expect("round trip");
            assert_eq!(back.key, entry.key);
            match back.value {
                SpillValue::Result(r) => assert!(warm.preload(back.key, r)),
                SpillValue::Summary(s) => assert!(warm.preload_summary(back.key, s)),
            }
        }
        assert_eq!(warm.stats().preloaded, 2);
        assert_eq!((warm.stats().hits, warm.stats().summary_stores), (0, 0));

        let r = warm.fetch(rkey).expect("preloaded result serves hits");
        // Exact bits survived the byte round trip.
        assert_eq!(
            r.peak_map().temps(),
            result.peak_map().temps(),
            "bit-identical peak map"
        );
        assert_eq!(r.residual_history, result.residual_history);
        assert_eq!(r.convergence, result.convergence);
        let s = warm.fetch_summary(skey).expect("preloaded summary");
        assert_eq!(s.signature(), summary.signature());
        assert_eq!(s.num_steps(), summary.num_steps());
        assert_eq!(warm.stats().hits, 1);
    }

    /// Preloading must not echo entries back into the spill log (they
    /// would be re-written to the segment they were just read from) and
    /// must not count as solver-side stores.
    #[test]
    fn preload_is_invisible_to_spill_log_and_store_counters() {
        let c = SolveCache::new();
        c.enable_spill_log();
        let (rkey, result) = solved();
        let (skey, summary) = summarized();
        assert!(c.preload(rkey, Arc::clone(&result)));
        assert!(!c.preload(rkey, result), "second preload: already resident");
        assert!(c.preload_summary(skey, summary));
        assert!(c.drain_spill_log().is_empty(), "preloads are not spilled");
        let s = c.stats();
        assert_eq!((s.preloaded, s.summary_stores, s.misses), (2, 0, 0));
    }

    /// Hostile bytes: every truncation prefix and a flipped kind tag
    /// decode to typed errors, never panics.
    #[test]
    fn corrupted_spill_bytes_decode_to_errors() {
        let (rkey, result) = solved();
        let entry = SpillEntry {
            key: rkey,
            value: SpillValue::Result(result),
        };
        let bytes = entry.to_bytes();
        for cut in 0..bytes.len().min(64) {
            assert!(SpillEntry::from_bytes(&bytes[..cut]).is_err());
        }
        let mut bad_kind = bytes.clone();
        bad_kind[0] = 9;
        assert!(matches!(
            SpillEntry::from_bytes(&bad_kind),
            Err(CodecError::BadTag(9))
        ));
        let mut trailing = bytes.clone();
        trailing.push(0);
        assert!(matches!(
            SpillEntry::from_bytes(&trailing),
            Err(CodecError::TrailingBytes(_))
        ));
    }
}
