//! The on-disk solve-cache tier: append-only, checksummed segments.
//!
//! A [`SegmentStore`] gives one scenario's
//! [`SolveCache`](tadfa_core::SolveCache) a life
//! beyond the process. New cache insertions (drained from the cache's
//! spill log after each request) are appended as framed records to the
//! current *segment file*; at startup every segment in the scenario's
//! directory is replayed and the decoded entries preloaded back into
//! the cache — so a restarted server answers its first golden replay
//! with cache hits, byte-identical to the run that populated the disk.
//!
//! ## Format
//!
//! Each segment file (`seg-NNNN.tadc`) is a 8-byte magic header
//! followed by length-prefixed records:
//!
//! ```text
//! "TADCSEG1"
//! [u32 payload_len | u64 fnv1a64(payload) | payload bytes]  × N
//! ```
//!
//! The payload is a [`SpillEntry`] in the exact-bits codec of
//! `tadfa_core::codec`. Appends go to a segment index no previous run
//! used, so interrupted writers can only ever damage the *tail* of
//! their own segment, never history.
//!
//! ## Corruption tolerance
//!
//! Disk contents are treated as untrusted input. The loader's
//! contract — exercised by the fault-injection suite — is *skip and
//! count, never trust, never panic*:
//!
//! * a zero-length or header-only file loads cleanly as empty;
//! * a checksum mismatch with intact framing skips that record and
//!   keeps reading (the damage is local);
//! * a torn frame (truncated length/checksum/payload, or an
//!   implausible length) abandons the rest of that segment — framing
//!   is gone, so everything after it is noise;
//! * a payload that checksums but does not decode (codec version
//!   bump, logic rot) is skipped and counted like a checksum miss.
//!
//! Every skipped record lands in [`LoadReport::records_skipped`],
//! surfaced by the server's `stats` response, so silent rot is
//! visible in production, not just in tests.

use std::fs::{self, File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use tadfa_core::{SpillEntry, SpillValue};

/// Magic bytes opening every segment file (format version in the tail
/// byte).
const MAGIC: &[u8; 8] = b"TADCSEG1";

/// File extension for segment files.
const SEGMENT_EXT: &str = "tadc";

/// Upper bound on a single record payload. Nothing the solver caches
/// is near this; a length prefix above it is corruption, not data, and
/// must not drive an allocation.
const MAX_RECORD_BYTES: u32 = 1 << 28;

/// FNV-1a 64 over raw bytes — the per-record checksum. (The hashing
/// crate's FNV-1a 128 keys exact-bit `f64` streams; records here are
/// opaque bytes, and 64 bits of detection is plenty for torn writes
/// and bit rot.)
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// What loading a scenario's segment directory found.
#[derive(Debug, Default)]
pub struct LoadReport {
    /// Decoded entries, in append order (oldest segment first). The
    /// caller preloads these into the scenario's solve cache.
    pub entries: Vec<SpillEntry>,
    /// Records that decoded and checksummed cleanly.
    pub records_loaded: u64,
    /// Records skipped: checksum mismatch, torn frame, or undecodable
    /// payload. Nonzero is survivable by design — the entry is simply
    /// re-solved on first use — but it is always *visible*.
    pub records_skipped: u64,
    /// Segment files visited.
    pub segments: u64,
}

/// Counters a long-lived store accumulates, for the `stats` response.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct PersistStats {
    /// Records recovered from disk at startup.
    pub loaded: u64,
    /// Records skipped at startup (corrupt/torn/undecodable).
    pub skipped: u64,
    /// Records appended by this process.
    pub appended: u64,
    /// Segment files present when the store opened (including the one
    /// this process appends to).
    pub segments: u64,
}

/// An append-only, checksummed, per-scenario segment store.
///
/// Writes go through an internal lock, so one store may be shared by
/// concurrent workers; loading happens once, in
/// [`open`](SegmentStore::open).
#[derive(Debug)]
pub struct SegmentStore {
    dir: PathBuf,
    writer: Mutex<BufWriter<File>>,
    loaded: u64,
    skipped: u64,
    segments: u64,
    appended: AtomicU64,
}

/// The segment files in `dir`, sorted by index (replay order).
fn sorted_segments(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut segment_paths: Vec<(u64, PathBuf)> = Vec::new();
    for entry in fs::read_dir(dir)? {
        let path = entry?.path();
        if path.extension().and_then(|e| e.to_str()) != Some(SEGMENT_EXT) {
            continue;
        }
        let idx = path
            .file_stem()
            .and_then(|s| s.to_str())
            .and_then(|s| s.strip_prefix("seg-"))
            .and_then(|s| s.parse::<u64>().ok());
        if let Some(idx) = idx {
            segment_paths.push((idx, path));
        }
    }
    segment_paths.sort();
    Ok(segment_paths)
}

impl SegmentStore {
    /// Opens (creating if needed) the segment directory for one
    /// scenario: replays every existing segment into a [`LoadReport`]
    /// and starts a fresh segment file for this process's appends.
    ///
    /// # Errors
    ///
    /// Only real I/O errors (unreadable directory, cannot create the
    /// new segment). Corrupt *contents* never error — they are skipped
    /// and counted, per the module contract.
    pub fn open(dir: &Path) -> std::io::Result<(SegmentStore, LoadReport)> {
        fs::create_dir_all(dir)?;
        let segment_paths = sorted_segments(dir)?;

        let mut report = LoadReport::default();
        for (_, path) in &segment_paths {
            load_segment(path, &mut report);
            report.segments += 1;
        }

        let next_idx = segment_paths.last().map_or(0, |(i, _)| i + 1);
        let new_path = dir.join(format!("seg-{next_idx:04}.{SEGMENT_EXT}"));
        let mut file = BufWriter::new(
            OpenOptions::new()
                .create_new(true)
                .append(true)
                .open(&new_path)?,
        );
        file.write_all(MAGIC)?;
        file.flush()?;

        let store = SegmentStore {
            dir: dir.to_path_buf(),
            writer: Mutex::new(file),
            loaded: report.records_loaded,
            skipped: report.records_skipped,
            segments: report.segments + 1,
            appended: AtomicU64::new(0),
        };
        Ok((store, report))
    }

    /// The directory this store reads and appends under.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Appends entries as checksummed records and flushes them to the
    /// OS. Flush (not fsync) is the durability point by design: the
    /// crash model this tier defends against is *process* death — the
    /// page cache survives a `kill -9` — and a torn tail from losing
    /// the whole machine is exactly what the corruption-tolerant
    /// loader absorbs.
    ///
    /// # Errors
    ///
    /// The underlying write/flush error, if the filesystem fails.
    pub fn append(&self, entries: &[SpillEntry]) -> std::io::Result<()> {
        if entries.is_empty() {
            return Ok(());
        }
        let mut w = self.writer.lock().expect("segment writer poisoned");
        for entry in entries {
            let payload = entry.to_bytes();
            let len = u32::try_from(payload.len()).expect("record under 4 GiB");
            w.write_all(&len.to_le_bytes())?;
            w.write_all(&fnv1a64(&payload).to_le_bytes())?;
            w.write_all(&payload)?;
        }
        w.flush()?;
        self.appended
            .fetch_add(entries.len() as u64, Ordering::Relaxed);
        Ok(())
    }

    /// The store's lifetime counters.
    pub fn stats(&self) -> PersistStats {
        PersistStats {
            loaded: self.loaded,
            skipped: self.skipped,
            appended: self.appended.load(Ordering::Relaxed),
            segments: self.segments,
        }
    }
}

/// Replays one segment file into `report`, skip-and-count on any
/// corruption. I/O errors reading the file abandon it like a torn
/// frame (counted, not raised) — a half-readable disk should degrade
/// a warm start, not prevent one.
fn load_segment(path: &Path, report: &mut LoadReport) {
    let mut bytes = Vec::new();
    match File::open(path).and_then(|mut f| f.read_to_end(&mut bytes)) {
        Ok(_) => {}
        Err(_) => {
            report.records_skipped += 1;
            return;
        }
    }
    if bytes.is_empty() {
        // A creat()ed-but-never-written segment: clean and empty.
        return;
    }
    if bytes.len() < MAGIC.len() || &bytes[..MAGIC.len()] != MAGIC {
        // Wrong magic: not ours (or the header itself was torn).
        report.records_skipped += 1;
        return;
    }
    let mut pos = MAGIC.len();
    loop {
        let rest = bytes.len() - pos;
        if rest == 0 {
            return; // clean end of segment
        }
        if rest < 4 + 8 {
            report.records_skipped += 1; // torn frame header
            return;
        }
        let len = u32::from_le_bytes(bytes[pos..pos + 4].try_into().expect("4"));
        let sum = u64::from_le_bytes(bytes[pos + 4..pos + 12].try_into().expect("8"));
        pos += 12;
        if len > MAX_RECORD_BYTES || (len as usize) > bytes.len() - pos {
            report.records_skipped += 1; // implausible or truncated payload
            return;
        }
        let payload = &bytes[pos..pos + len as usize];
        pos += len as usize;
        if fnv1a64(payload) != sum {
            // Local damage: framing is intact, keep reading.
            report.records_skipped += 1;
            continue;
        }
        match SpillEntry::from_bytes(payload) {
            Ok(entry) => {
                report.entries.push(entry);
                report.records_loaded += 1;
            }
            Err(_) => report.records_skipped += 1,
        }
    }
}

/// What a compaction pass over one segment directory found and did.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CompactReport {
    /// Distinct `(kind, key)` records kept (first occurrence wins —
    /// the same rule the cache's preload applies, and harmless either
    /// way because the solve is deterministic).
    pub unique: u64,
    /// Duplicate-key records dropped (later lifetimes re-solving and
    /// re-spilling what an earlier lifetime already persisted).
    pub duplicates: u64,
    /// Corrupt/undecodable records dropped (they were unreadable
    /// before compaction too — nothing loadable is lost).
    pub skipped: u64,
    /// Segment files present before compaction.
    pub segments_before: u64,
    /// Old segment files removed by [`compact_finish`].
    pub removed: u64,
}

/// The durable intermediate state between [`compact_write`] and
/// [`compact_finish`] — the crash-safety seam.
#[derive(Debug)]
pub struct CompactPlan {
    /// What phase one found.
    pub report: CompactReport,
    /// The pre-compaction segment files, still intact on disk.
    pub old_segments: Vec<PathBuf>,
    /// The freshly written compacted segment (`None` when there was
    /// nothing to write: no segments, or no decodable records).
    pub new_segment: Option<PathBuf>,
}

/// Phase one of compaction: read every segment in `dir`, drop
/// duplicate-key records (first occurrence wins), and write the
/// survivors as **one new segment** — via a `.tmp` file, fsynced, then
/// renamed to the next unused `seg-NNNN.tadc` index. The old segments
/// are untouched.
///
/// Crash contract (proved by the fault-injection suite): a crash
/// before the rename leaves only a `.tmp` file, which the loader
/// ignores (wrong extension) — the directory is exactly its
/// pre-compaction self. A crash after the rename but before
/// [`compact_finish`] leaves old and new segments side by side; every
/// record is then present at least once, the loader reads them all,
/// and the cache's first-wins preload collapses the duplicates. At no
/// point is pre-compaction data unreachable.
///
/// Must not run concurrently with a live appender on the same
/// directory (the fleet supervisor only compacts a worker that is
/// down; `tadfa-serve --compact-cache` runs instead of serving).
///
/// # Errors
///
/// Real I/O errors only (unreadable directory, failed write/fsync/
/// rename); corrupt record *contents* are skipped and counted.
pub fn compact_write(dir: &Path) -> std::io::Result<CompactPlan> {
    let segments = sorted_segments(dir)?;
    let mut report = CompactReport {
        segments_before: segments.len() as u64,
        ..CompactReport::default()
    };
    if segments.is_empty() {
        return Ok(CompactPlan {
            report,
            old_segments: Vec::new(),
            new_segment: None,
        });
    }
    let mut load = LoadReport::default();
    for (_, path) in &segments {
        load_segment(path, &mut load);
    }
    report.skipped = load.records_skipped;

    let mut seen = std::collections::HashSet::new();
    let mut kept: Vec<SpillEntry> = Vec::new();
    for entry in load.entries {
        let tag = match &entry.value {
            SpillValue::Result(_) => 0u8,
            SpillValue::Summary(_) => 1u8,
        };
        if seen.insert((tag, entry.key)) {
            kept.push(entry);
        } else {
            report.duplicates += 1;
        }
    }
    report.unique = kept.len() as u64;

    let old_segments: Vec<PathBuf> = segments.iter().map(|(_, p)| p.clone()).collect();
    if kept.is_empty() {
        // Nothing decodable to carry forward; finishing will just
        // remove the (empty or unreadable) old segments.
        return Ok(CompactPlan {
            report,
            old_segments,
            new_segment: None,
        });
    }

    let next_idx = segments.last().map_or(0, |(i, _)| i + 1);
    let final_path = dir.join(format!("seg-{next_idx:04}.{SEGMENT_EXT}"));
    let tmp_path = dir.join(format!("seg-{next_idx:04}.tmp"));
    {
        let mut w = BufWriter::new(File::create(&tmp_path)?);
        w.write_all(MAGIC)?;
        for entry in &kept {
            let payload = entry.to_bytes();
            let len = u32::try_from(payload.len()).expect("record under 4 GiB");
            w.write_all(&len.to_le_bytes())?;
            w.write_all(&fnv1a64(&payload).to_le_bytes())?;
            w.write_all(&payload)?;
        }
        w.flush()?;
        // Unlike the append path (process-crash model), compaction is
        // about to *delete* the only other copies — so the new segment
        // must survive machine death before the rename makes it real.
        w.get_ref().sync_all()?;
    }
    fs::rename(&tmp_path, &final_path)?;
    // Best-effort directory fsync so the rename itself is durable.
    if let Ok(d) = File::open(dir) {
        let _ = d.sync_all();
    }
    Ok(CompactPlan {
        report,
        old_segments,
        new_segment: Some(final_path),
    })
}

/// Phase two of compaction: remove the pre-compaction segments. Only
/// safe after [`compact_write`] returned — by then every surviving
/// record is durable in the new segment.
///
/// # Errors
///
/// The first removal error; segments already removed stay removed
/// (re-running compaction converges).
pub fn compact_finish(plan: &mut CompactPlan) -> std::io::Result<()> {
    for path in &plan.old_segments {
        fs::remove_file(path)?;
        plan.report.removed += 1;
    }
    plan.old_segments.clear();
    Ok(())
}

/// Full compaction of one scenario segment directory: [`compact_write`]
/// then [`compact_finish`].
///
/// # Errors
///
/// Any I/O error from either phase; the crash contract above bounds
/// the damage (data loss is impossible, leftover duplicates are not).
pub fn compact_dir(dir: &Path) -> std::io::Result<CompactReport> {
    let mut plan = compact_write(dir)?;
    compact_finish(&mut plan)?;
    Ok(plan.report)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_reference_vectors() {
        // Published FNV-1a 64 test vectors.
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn empty_directory_opens_with_one_fresh_segment() {
        let dir = tempdir("persist-empty");
        let (store, report) = SegmentStore::open(&dir).unwrap();
        assert_eq!(report.records_loaded, 0);
        assert_eq!(report.records_skipped, 0);
        assert_eq!(report.segments, 0);
        assert_eq!(store.stats().segments, 1);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_starts_a_new_segment_never_appends_to_old() {
        let dir = tempdir("persist-reopen");
        drop(SegmentStore::open(&dir).unwrap());
        drop(SegmentStore::open(&dir).unwrap());
        let mut names: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        names.sort();
        assert_eq!(names, vec!["seg-0000.tadc", "seg-0001.tadc"]);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compacting_an_empty_directory_is_a_no_op() {
        let dir = tempdir("compact-empty");
        fs::create_dir_all(&dir).unwrap();
        let report = compact_dir(&dir).unwrap();
        assert_eq!(report, CompactReport::default());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_collapses_empty_segments_and_ignores_tmp_files() {
        let dir = tempdir("compact-headers");
        // Three header-only segments from three past lifetimes.
        for _ in 0..3 {
            drop(SegmentStore::open(&dir).unwrap());
        }
        let report = compact_dir(&dir).unwrap();
        assert_eq!(report.segments_before, 3);
        assert_eq!(report.unique, 0);
        assert_eq!(report.removed, 3);
        // A stray .tmp (crash before rename) is invisible to open().
        fs::write(dir.join("seg-0099.tmp"), b"garbage").unwrap();
        let (_, load) = SegmentStore::open(&dir).unwrap();
        assert_eq!(load.records_skipped, 0, ".tmp files are not segments");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_skips_corrupt_records_without_erroring() {
        let dir = tempdir("compact-corrupt");
        fs::create_dir_all(&dir).unwrap();
        // A segment whose single record checksums but does not decode.
        let payload = b"not a spill entry";
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&fnv1a64(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        fs::write(dir.join("seg-0000.tadc"), &bytes).unwrap();
        let plan = compact_write(&dir).unwrap();
        assert_eq!(plan.report.skipped, 1);
        assert_eq!(plan.report.unique, 0);
        assert!(plan.new_segment.is_none(), "nothing decodable to rewrite");
        assert_eq!(plan.old_segments.len(), 1, "originals intact until finish");
        assert!(plan.old_segments[0].exists());
        let _ = fs::remove_dir_all(&dir);
    }

    /// A unique, collision-safe scratch dir under the target dir (no
    /// tempfile dependency; process id + a per-test name suffice).
    fn tempdir(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("tadfa-{}-{}", name, std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        dir
    }
}
