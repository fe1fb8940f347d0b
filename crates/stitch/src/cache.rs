//! The persistent, content-addressed component-database cache.
//!
//! The paper's 61–69% productivity gain rests on function optimization
//! being *one-time*: checkpoints are built once and reused across runs and
//! designs. [`DbCache`] is the mechanism that makes that real. A cache
//! directory holds:
//!
//! ```text
//! <root>/                the --db-dir PATH of every tool
//!   manifest.json        versioned index: key -> file + content hash
//!   objects/             one versioned checkpoint envelope per entry
//!   quarantine/          corrupted / stale entries moved aside, never lost
//! ```
//!
//! * **Keying** — [`cache_key`] hashes (component signature, device part,
//!   implementation-affecting `FlowConfig` knobs) through the stable FNV
//!   hasher, so any knob change that would alter a checkpoint changes the
//!   key and misses cleanly instead of serving a stale artifact.
//! * **Content addressing** — each object file name carries its key, and
//!   the manifest records the checkpoint's content hash (XXH64 of the
//!   payload bytes, [`pi_netlist::xxh64`]); on *every* lookup the bytes
//!   just read are hashed and compared against it before anything is
//!   served. The hash runs on raw bytes: UTF-8 is validated only where a
//!   payload is decoded, so a file that is not text is `corrupt`.
//! * **Decode once** — a verified payload is decoded at most once per
//!   process: a bounded process-wide memo keyed by (content hash, payload
//!   length) serves later lookups a clone, which shares the memoized
//!   module's copy-on-write storage instead of copying it. The memo is
//!   consulted only *after* the byte hash matched the manifest, so a file
//!   that rots on disk is still quarantined on its next lookup.
//! * **Atomicity** — objects and the manifest are written to a temp file
//!   and renamed into place, so a crash mid-write can at worst leave a
//!   stray temp file, never a half-written entry behind a valid name.
//! * **Self-healing** — truncated files, missing files, hash mismatches,
//!   stale format versions and undecodable manifests are *quarantined*
//!   (moved into `quarantine/`, dropped from the manifest) and reported as
//!   misses; the flow then rebuilds them. Corruption is never a panic and
//!   never an error the caller must handle.
//!
//! * **Cross-process safety** — every manifest read-modify-write runs
//!   under the advisory lock file (`manifest.lock`, see [`crate::lock`])
//!   and re-reads the on-disk manifest before applying its own mutation,
//!   so two processes sharing one cache directory can never silently drop
//!   each other's entries. Stale locks left by killed processes are
//!   detected (dead PID) and stolen; live contention is bounded by a
//!   timeout, never a deadlock.
//! * **Eviction** — with a byte budget ([`DbCache::open_with_budget`]),
//!   inserts that push the cache over budget evict least-recently-used
//!   entries (recency is a persisted logical generation counter, not wall
//!   clock) until it fits again; the entry being inserted is never the
//!   victim of its own insert.
//!
//! Every cache interaction emits telemetry under the `stitch::db_cache`
//! scope (hits with bytes loaded, misses, invalidations with a reason,
//! stores, budget evictions), so `--trace` output shows exactly what the
//! cache did.

use crate::lock::{LockFile, DEFAULT_LOCK_TIMEOUT};
use crate::StitchError;
use pi_netlist::{xxh64, Checkpoint, NetlistError, StableHasher, CHECKPOINT_FORMAT_VERSION};
use pi_obs::Obs;
use rayon::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// On-disk manifest format version; bumped when the manifest shape
/// changes. A mismatched manifest is quarantined wholesale and the cache
/// restarts empty (entries rebuild on demand). Version 2 added the
/// `generation` clock and per-entry `last_used` recency for LRU eviction;
/// version 3 changed `content_hash` from FNV-1a to XXH64.
pub const MANIFEST_VERSION: u32 = 3;

/// File names inside the cache root.
pub const MANIFEST_FILE: &str = "manifest.json";
const OBJECTS_DIR: &str = "objects";
const QUARANTINE_DIR: &str = "quarantine";

/// Telemetry scope every cache event is emitted under.
pub const CACHE_SCOPE: &str = "stitch::db_cache";

/// One manifest row: a cache key mapped to its verified object file.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct ManifestEntry {
    /// [`cache_key`] hex — the content-addressed identity of the entry.
    key: String,
    /// The component signature the checkpoint implements.
    signature: String,
    /// Object file name, relative to `objects/`.
    file: String,
    /// Expected [`Checkpoint::content_hash_hex`] of the payload.
    content_hash: String,
    /// [`CHECKPOINT_FORMAT_VERSION`] the entry was written with.
    format_version: u32,
    /// Device part the checkpoint targets.
    device: String,
    /// Serialized size, for the bytes-loaded telemetry and the eviction
    /// budget.
    bytes: u64,
    /// Logical recency: the manifest `generation` at the entry's last hit
    /// or store. Deterministic (no wall clock); orders LRU eviction.
    #[serde(default = "zero_u64")]
    last_used: u64,
}

fn zero_u64() -> u64 {
    0
}

/// The serialized manifest: versions, the logical clock, and the sorted
/// entry list.
#[derive(Debug, Clone, Serialize, Deserialize)]
struct Manifest {
    manifest_version: u32,
    format_version: u32,
    /// Monotonic logical clock; bumped on every hit/store and stamped into
    /// the touched entry's `last_used`.
    #[serde(default = "zero_u64")]
    generation: u64,
    entries: Vec<ManifestEntry>,
}

/// Result of a cache lookup. Invalidated entries have already been
/// quarantined; both `Miss` and `Invalidated` mean "build it".
#[derive(Debug)]
pub enum CacheLookup {
    /// Entry present, verified, loaded.
    Hit {
        checkpoint: Box<Checkpoint>,
        bytes: u64,
    },
    /// No entry under this key.
    Miss,
    /// Entry existed but failed verification and was quarantined.
    Invalidated { reason: &'static str },
}

/// Compute the cache key for a component: a stable hash of everything that
/// determines the pre-implemented artifact — the component signature, the
/// device part, and the caller's implementation-knob fingerprint (see
/// `FlowConfig::cache_fingerprint`). Hex, fixed width, filesystem-safe.
pub fn cache_key(signature: &str, device: &str, knobs_fingerprint: u64) -> String {
    let mut h = StableHasher::new();
    h.write_str(signature);
    h.write_str(device);
    h.write_u64(knobs_fingerprint);
    format!("{:016x}", h.finish())
}

/// Serialized payload bytes the decode memo may keep resident. A constant,
/// not a knob: the memo only trades memory for decode time, every caller
/// wants the same trade, and the whole five-network zoo is 25 MB.
const MEMO_BOUND_BYTES: u64 = 256 << 20;

/// Identity of a decoded payload: its content hash and byte length.
type PayloadId = (u64, u64);

/// Decoded checkpoints by payload identity, least-recently-used out once
/// the payload bytes they stand for exceed `bound`.
struct Memo {
    bound: u64,
    bytes: u64,
    clock: u64,
    slots: BTreeMap<PayloadId, (Checkpoint, u64)>,
}

impl Memo {
    const fn new(bound: u64) -> Memo {
        Memo {
            bound,
            bytes: 0,
            clock: 0,
            slots: BTreeMap::new(),
        }
    }

    fn get(&mut self, id: PayloadId) -> Option<Checkpoint> {
        self.clock += 1;
        let (cp, used) = self.slots.get_mut(&id)?;
        *used = self.clock;
        Some(cp.clone())
    }

    /// Keep `cp` unless it alone exceeds the bound; evict oldest-used
    /// entries until the rest fits.
    fn put(&mut self, id: PayloadId, cp: Checkpoint) {
        if id.1 > self.bound {
            return;
        }
        self.clock += 1;
        if self.slots.insert(id, (cp, self.clock)).is_none() {
            self.bytes += id.1;
        }
        while self.bytes > self.bound {
            let oldest = *self
                .slots
                .iter()
                .min_by_key(|(_, (_, used))| *used)
                .expect("over-bound memo is non-empty")
                .0;
            self.slots.remove(&oldest);
            self.bytes -= oldest.1;
        }
    }
}

static MEMO: Mutex<Memo> = Mutex::new(Memo::new(MEMO_BOUND_BYTES));
/// Payload decodes performed by this process on the hit path.
static DECODES: AtomicU64 = AtomicU64::new(0);

fn memo() -> std::sync::MutexGuard<'static, Memo> {
    // Every update leaves the memo valid, so a panicked holder is harmless.
    MEMO.lock().unwrap_or_else(|e| e.into_inner())
}

/// The read-only half of a lookup: read the object file's bytes, split the
/// envelope, verify the payload bytes against the manifest's content hash,
/// and only then serve the decoded checkpoint (from the memo when this
/// process has decoded these bytes before). Errors are the invalidation
/// reason; only a failed read is `missing_file`.
fn load_verified(root: &Path, entry: &ManifestEntry) -> Result<(Checkpoint, u64), &'static str> {
    let path = root.join(OBJECTS_DIR).join(&entry.file);
    let file = std::fs::read(path).map_err(|_| "missing_file")?;
    let payload = Checkpoint::versioned_payload(&file).map_err(|e| match e {
        NetlistError::FormatVersion { .. } => "stale_version",
        _ => "corrupt",
    })?;
    let decode = || Checkpoint::from_payload(payload).map_err(|_| "corrupt");
    let hash = xxh64(payload);
    if format!("{hash:016x}") != entry.content_hash {
        // Failure path only: decoding tells bytes that still form a
        // checkpoint (altered) from bytes that do not (truncated, torn).
        decode()?;
        return Err("hash_mismatch");
    }
    let id = (hash, payload.len() as u64);
    let bytes = file.len() as u64;
    if let Some(cp) = memo().get(id) {
        return Ok((cp, bytes));
    }
    // Decoded outside the lock: two threads missing at the same instant
    // both decode, and the second `put` replaces the first.
    let cp = decode()?;
    DECODES.fetch_add(1, Ordering::Relaxed);
    memo().put(id, cp.clone());
    Ok((cp, bytes))
}

/// Filesystem-safe rendering of a signature for an object file name:
/// ASCII alphanumerics, `_` and `-` pass through, everything else becomes
/// `_`. Lossy, which is why the name also carries the key.
fn sanitize(sig: &str) -> String {
    sig.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect()
}

/// A checkpoint ready to store: its object bytes and its manifest row.
struct Encoded {
    json: String,
    entry: ManifestEntry,
}

/// Encode `cp` for `key`: the versioned object bytes, hashed, and the
/// manifest row naming them. Pure, so a batch encodes in parallel.
fn encode_entry(key: &str, cp: &Checkpoint) -> Result<Encoded, StitchError> {
    let json = cp.to_versioned_json()?;
    let content_hash = xxh64(Checkpoint::versioned_payload(json.as_bytes())?);
    let mut prefix = sanitize(&cp.meta.signature);
    prefix.truncate(64);
    let entry = ManifestEntry {
        key: key.to_string(),
        signature: cp.meta.signature.clone(),
        file: format!("{prefix}-{key}.dcp.json"),
        content_hash: format!("{content_hash:016x}"),
        format_version: CHECKPOINT_FORMAT_VERSION,
        device: cp.meta.device.clone(),
        bytes: json.len() as u64,
        last_used: 0,
    };
    Ok(Encoded { json, entry })
}

/// Write-then-rename: the contents land under a temp name first, so a
/// crash can never leave a torn file behind the real name.
fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let tmp = path.with_file_name(format!(
        ".tmp.{}.{}",
        std::process::id(),
        path.file_name().and_then(|n| n.to_str()).unwrap_or("x")
    ));
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
}

/// Move a file into `<root>/quarantine/`, degrading to deletion if the
/// rename fails (cross-device, permissions); both outcomes take the bad
/// entry out of service.
fn quarantine_file(root: &Path, path: &Path, name: &str) {
    let qdir = root.join(QUARANTINE_DIR);
    let _ = std::fs::create_dir_all(&qdir);
    if std::fs::rename(path, qdir.join(name)).is_err() {
        let _ = std::fs::remove_file(path);
    }
}

/// A persistent component-checkpoint cache rooted at a directory.
#[derive(Debug)]
pub struct DbCache {
    root: PathBuf,
    entries: BTreeMap<String, ManifestEntry>,
    /// Logical recency clock mirrored from the manifest.
    generation: u64,
    /// Byte budget for the objects tier; `None` = unbounded.
    budget_bytes: Option<u64>,
    /// Bound on waiting for a live manifest lock holder.
    lock_timeout: Duration,
    /// Budget evictions performed by this handle (telemetry/stats).
    budget_evictions: u64,
}

impl DbCache {
    /// Open (or create) an unbounded cache at `root`. An undecodable or
    /// version-mismatched manifest is quarantined and the cache starts
    /// empty — opening never fails on corruption, only on real I/O errors
    /// such as an uncreatable directory.
    pub fn open(root: impl Into<PathBuf>, obs: &Obs) -> Result<DbCache, StitchError> {
        Self::open_with_budget(root, None, obs)
    }

    /// [`DbCache::open`] with an eviction budget: whenever an insert pushes
    /// the total serialized object bytes past `budget_bytes`, least-
    /// recently-used entries are evicted until the cache fits again.
    pub fn open_with_budget(
        root: impl Into<PathBuf>,
        budget_bytes: Option<u64>,
        obs: &Obs,
    ) -> Result<DbCache, StitchError> {
        let root = root.into();
        std::fs::create_dir_all(root.join(OBJECTS_DIR))?;
        let cache_obs = obs.scoped(CACHE_SCOPE);
        let mut cache = DbCache {
            root,
            entries: BTreeMap::new(),
            generation: 0,
            budget_bytes,
            lock_timeout: DEFAULT_LOCK_TIMEOUT,
            budget_evictions: 0,
        };
        cache.reload_manifest(&cache_obs);
        Ok(cache)
    }

    /// Override the bound on waiting for a live manifest lock holder.
    pub fn with_lock_timeout(mut self, timeout: Duration) -> Self {
        self.lock_timeout = timeout;
        self
    }

    /// Replace the in-memory index with the on-disk manifest (quarantining
    /// a rotten one). Called at open and at the start of every locked
    /// read-modify-write cycle, so concurrent writers always mutate the
    /// latest shared state instead of a stale private copy.
    fn reload_manifest(&mut self, cache_obs: &Obs) {
        let manifest_path = self.root.join(MANIFEST_FILE);
        self.entries.clear();
        if !manifest_path.exists() {
            return;
        }
        match std::fs::read_to_string(&manifest_path)
            .map_err(|e| e.to_string())
            .and_then(|text| serde_json::from_str::<Manifest>(&text).map_err(|e| e.to_string()))
        {
            Ok(manifest)
                if manifest.manifest_version == MANIFEST_VERSION
                    && manifest.format_version == CHECKPOINT_FORMAT_VERSION =>
            {
                self.generation = self.generation.max(manifest.generation);
                for e in manifest.entries {
                    self.entries.insert(e.key.clone(), e);
                }
            }
            Ok(_) => {
                quarantine_file(&self.root, &manifest_path, MANIFEST_FILE);
                if cache_obs.enabled() {
                    cache_obs.point(
                        "manifest_quarantined",
                        &[("reason", "stale_version".into())],
                    );
                }
            }
            Err(_) => {
                quarantine_file(&self.root, &manifest_path, MANIFEST_FILE);
                if cache_obs.enabled() {
                    cache_obs.point("manifest_quarantined", &[("reason", "corrupt".into())]);
                }
            }
        }
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    pub fn len(&self) -> usize {
        self.entries.len()
    }

    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub fn contains(&self, key: &str) -> bool {
        self.entries.contains_key(key)
    }

    /// All cached keys, sorted.
    pub fn keys(&self) -> impl Iterator<Item = &str> {
        self.entries.keys().map(|k| k.as_str())
    }

    /// The signature recorded for a key, if cached.
    pub fn signature_of(&self, key: &str) -> Option<&str> {
        self.entries.get(key).map(|e| e.signature.as_str())
    }

    /// Look up one key: [`DbCache::lookup_all`] on a batch of one.
    pub fn lookup(&mut self, key: &str, obs: &Obs) -> CacheLookup {
        self.lookup_all(&[key], obs).remove(0)
    }

    /// Look up a batch of keys. The results, the manifest and the
    /// telemetry are those of looking each key up in turn, at any thread
    /// count.
    ///
    /// Every distinct indexed key is read and verified once, in parallel
    /// (format version, then the payload bytes against the manifest's
    /// content hash — see [`load_verified`]); duplicates share the load.
    /// Then *one* locked manifest cycle applies every recency touch and
    /// every quarantine in key order, and the events are emitted in key
    /// order. Any verification failure quarantines the entry and reports
    /// `Invalidated` — corruption on disk can slow the next run down (it
    /// rebuilds), but can never crash it or feed it a wrong artifact.
    pub fn lookup_all<K: AsRef<str>>(&mut self, keys: &[K], obs: &Obs) -> Vec<CacheLookup> {
        let cache_obs = obs.scoped(CACHE_SCOPE);
        let distinct: BTreeMap<&str, &ManifestEntry> = keys
            .iter()
            .filter_map(|key| Some((key.as_ref(), self.entries.get(key.as_ref())?)))
            .collect();
        let root = &self.root;
        let mut loaded: BTreeMap<&str, _> = distinct
            .into_par_iter()
            .map(|(key, entry)| (key, load_verified(root, entry)))
            .collect::<Vec<_>>()
            .into_iter()
            .collect();
        let results: Vec<CacheLookup> = keys
            .iter()
            .map(|key| match loaded.get(key.as_ref()) {
                None => CacheLookup::Miss,
                Some(Ok((checkpoint, bytes))) => CacheLookup::Hit {
                    checkpoint: Box::new(checkpoint.clone()),
                    bytes: *bytes,
                },
                Some(&Err(reason)) => {
                    // Quarantined by this occurrence: the next one misses.
                    loaded.remove(key.as_ref());
                    CacheLookup::Invalidated { reason }
                }
            })
            .collect();

        // Best-effort, like every recovery step: LRU ordering is advisory
        // and a row left behind is re-invalidated by the next lookup, so a
        // lock timeout degrades to a skipped write, never a failed lookup.
        if results.iter().any(|r| !matches!(r, CacheLookup::Miss)) {
            let _ = self.mutate_locked(&cache_obs, |cache| {
                for (key, result) in keys.iter().zip(&results) {
                    let key = key.as_ref();
                    match result {
                        CacheLookup::Hit { .. } => {
                            let generation = cache.generation + 1;
                            if let Some(e) = cache.entries.get_mut(key) {
                                cache.generation = generation;
                                e.last_used = generation;
                            }
                        }
                        CacheLookup::Invalidated { .. } => {
                            if let Some(entry) = cache.entries.remove(key) {
                                let path = cache.root.join(OBJECTS_DIR).join(&entry.file);
                                if path.exists() {
                                    quarantine_file(&cache.root, &path, &entry.file);
                                }
                            }
                        }
                        CacheLookup::Miss => {}
                    }
                }
                Ok(())
            });
        }
        if cache_obs.enabled() {
            for (key, result) in keys.iter().zip(&results) {
                let key = key.as_ref();
                match result {
                    CacheLookup::Hit { checkpoint, bytes } => cache_obs.point(
                        "cache_hit",
                        &[
                            ("key", key.into()),
                            ("signature", checkpoint.meta.signature.as_str().into()),
                            ("bytes", (*bytes).into()),
                        ],
                    ),
                    CacheLookup::Miss => cache_obs.point("cache_miss", &[("key", key.into())]),
                    CacheLookup::Invalidated { reason } => cache_obs.point(
                        "cache_invalidate",
                        &[("key", key.into()), ("reason", (*reason).into())],
                    ),
                }
            }
        }
        results
    }

    /// Payload decodes this process has performed on the hit path. With
    /// the decode memo, repeat loads of the same bytes add nothing here:
    /// "distinct decodes < hits" is the memo working.
    pub fn decodes() -> u64 {
        DECODES.load(Ordering::Relaxed)
    }

    /// Serialized payload bytes whose decoded checkpoints the process-wide
    /// memo currently holds (bounded by a constant, LRU out).
    pub fn memo_bytes() -> u64 {
        memo().bytes
    }

    /// Insert (or replace) a checkpoint under a key: atomic object write,
    /// then a locked manifest read-merge-write (see [`crate::lock`]). On
    /// success the entry survives process death at any point, and entries
    /// concurrently inserted by other processes survive this write. With a
    /// budget configured, least-recently-used entries are evicted until
    /// the cache fits (the just-inserted entry is never its own victim).
    pub fn insert(&mut self, key: &str, cp: &Checkpoint, obs: &Obs) -> Result<(), StitchError> {
        self.store(encode_entry(key, cp)?, obs)
    }

    /// Insert a batch: [`DbCache::insert`] on each pair in turn, with two
    /// differences that leave the same files on disk. The checkpoints are
    /// encoded in parallel first. A key that occurs more than once is
    /// written once, with its last checkpoint — the one whose bytes a
    /// sequential run leaves behind — at the place of its last occurrence.
    pub fn insert_all(
        &mut self,
        items: &[(&str, &Checkpoint)],
        obs: &Obs,
    ) -> Result<(), StitchError> {
        let last: Vec<(&str, &Checkpoint)> = items
            .iter()
            .enumerate()
            .filter(|(i, (key, _))| items[i + 1..].iter().all(|(k, _)| k != key))
            .map(|(_, &item)| item)
            .collect();
        let encoded: Vec<Result<Encoded, StitchError>> = last
            .into_par_iter()
            .map(|(key, cp)| encode_entry(key, cp))
            .collect();
        for entry in encoded {
            self.store(entry?, obs)?;
        }
        Ok(())
    }

    /// Write one encoded object, then merge its manifest row under the
    /// lock (evicting to the budget), and report the store.
    fn store(&mut self, encoded: Encoded, obs: &Obs) -> Result<(), StitchError> {
        let Encoded { json, entry } = encoded;
        write_atomic(&self.root.join(OBJECTS_DIR).join(&entry.file), &json)?;
        let (key, signature, bytes) = (entry.key.clone(), entry.signature.clone(), entry.bytes);
        let key = key.as_str();
        let cache_obs = obs.scoped(CACHE_SCOPE);
        let evicted = self.mutate_locked(&cache_obs, move |cache| {
            cache.generation += 1;
            let mut entry = entry;
            entry.last_used = cache.generation;
            // Replacing a key whose signature changed leaves the old
            // object file orphaned; remove it so the objects dir mirrors
            // the manifest.
            if let Some(old) = cache.entries.insert(key.to_string(), entry) {
                if old.file != cache.entries[key].file {
                    let _ = std::fs::remove_file(cache.root.join(OBJECTS_DIR).join(&old.file));
                }
            }
            Ok(cache.enforce_budget(key))
        })?;
        if cache_obs.enabled() {
            cache_obs.point(
                "cache_store",
                &[
                    ("key", key.into()),
                    ("signature", signature.as_str().into()),
                    ("bytes", bytes.into()),
                ],
            );
            for victim in &evicted {
                cache_obs.point(
                    "cache_evict",
                    &[("key", victim.as_str().into()), ("reason", "budget".into())],
                );
            }
        }
        Ok(())
    }

    /// Evict LRU entries (excluding `keep`) until the object tier fits the
    /// budget. Runs inside a locked mutation; returns the victims' keys.
    fn enforce_budget(&mut self, keep: &str) -> Vec<String> {
        let Some(budget) = self.budget_bytes else {
            return Vec::new();
        };
        let mut evicted = Vec::new();
        loop {
            if self.total_bytes() <= budget {
                break;
            }
            // Oldest generation first; BTreeMap iteration makes the key
            // tie-break deterministic.
            let Some(victim) = self
                .entries
                .values()
                .filter(|e| e.key != keep)
                .min_by_key(|e| (e.last_used, e.key.clone()))
                .map(|e| e.key.clone())
            else {
                break; // only the protected entry left — over budget, kept
            };
            let entry = self.entries.remove(&victim).expect("victim exists");
            let _ = std::fs::remove_file(self.root.join(OBJECTS_DIR).join(&entry.file));
            self.budget_evictions += 1;
            evicted.push(victim);
        }
        evicted
    }

    /// Budget evictions performed through this handle so far.
    pub fn budget_evictions(&self) -> u64 {
        self.budget_evictions
    }

    /// Total serialized bytes of all indexed objects.
    pub fn total_bytes(&self) -> u64 {
        self.entries.values().map(|e| e.bytes).sum()
    }

    /// Remove a key and its object file. Returns whether it existed.
    pub fn evict(&mut self, key: &str, obs: &Obs) -> Result<bool, StitchError> {
        let cache_obs = obs.scoped(CACHE_SCOPE);
        let existed = self.mutate_locked(&cache_obs, |cache| {
            let Some(entry) = cache.entries.remove(key) else {
                return Ok(false);
            };
            let _ = std::fs::remove_file(cache.root.join(OBJECTS_DIR).join(&entry.file));
            Ok(true)
        })?;
        if existed && cache_obs.enabled() {
            cache_obs.point("cache_evict", &[("key", key.into())]);
        }
        Ok(existed)
    }

    /// One serialized manifest read-modify-write cycle: acquire the
    /// advisory lock, reload the on-disk manifest (another process may
    /// have written since we last read), apply `mutate`, persist
    /// atomically, release. This is the fix for the classic lost-update
    /// race: without the reload-under-lock, two processes interleaving
    /// write-then-rename silently drop each other's entries.
    fn mutate_locked<T>(
        &mut self,
        cache_obs: &Obs,
        mutate: impl FnOnce(&mut Self) -> Result<T, StitchError>,
    ) -> Result<T, StitchError> {
        let _lock = LockFile::acquire(&self.root, self.lock_timeout)?;
        self.reload_manifest(cache_obs);
        let out = mutate(self)?;
        self.persist_manifest()?;
        Ok(out)
    }

    /// Atomically rewrite `manifest.json` from the in-memory map. BTreeMap
    /// order keeps the bytes deterministic for identical contents.
    fn persist_manifest(&self) -> Result<(), StitchError> {
        let manifest = Manifest {
            manifest_version: MANIFEST_VERSION,
            format_version: CHECKPOINT_FORMAT_VERSION,
            generation: self.generation,
            entries: self.entries.values().cloned().collect(),
        };
        let json = serde_json::to_string_pretty(&manifest)
            .map_err(|e| NetlistError::Decode(e.to_string()))?;
        write_atomic(&self.root.join(MANIFEST_FILE), &json)?;
        #[cfg(test)]
        tests::MANIFEST_WRITES.with(|n| n.set(n.get() + 1));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_fabric::Pblock;
    use pi_netlist::{Cell, CellKind, CheckpointMeta, Endpoint, ModuleBuilder, StreamRole};

    fn checkpoint(sig: &str) -> Checkpoint {
        let mut b = ModuleBuilder::new(sig);
        let din = b.input("din", StreamRole::Source, 16);
        let dout = b.output("dout", StreamRole::Sink, 16);
        let c = b.cell(Cell::new("c", CellKind::full_slice()));
        b.connect("i", Endpoint::Port(din), [Endpoint::Cell(c)]);
        b.connect("o", Endpoint::Cell(c), [Endpoint::Port(dout)]);
        let m = b.finish().unwrap();
        Checkpoint {
            meta: CheckpointMeta {
                signature: sig.to_string(),
                fmax_mhz: 500.0,
                resources: m.resources(),
                pblock: Pblock::new(1, 4, 0, 4),
                device: "test-part".to_string(),
                latency_cycles: 10,
            },
            module: m,
        }
    }

    thread_local! {
        /// `manifest.json` rewrites performed on this test's thread.
        pub(super) static MANIFEST_WRITES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
    }

    fn tmp_root(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        std::env::temp_dir().join(format!(
            "pi_cache_{tag}_{}_{}",
            std::process::id(),
            N.fetch_add(1, Ordering::Relaxed)
        ))
    }

    #[test]
    fn insert_then_lookup_across_reopen() {
        let root = tmp_root("reopen");
        let obs = Obs::null();
        let cp = checkpoint("conv_k3s1p0co4__in1x16x16");
        let key = cache_key(&cp.meta.signature, "test-part", 7);
        {
            let mut cache = DbCache::open(&root, &obs).unwrap();
            assert!(matches!(cache.lookup(&key, &obs), CacheLookup::Miss));
            cache.insert(&key, &cp, &obs).unwrap();
            assert!(cache.contains(&key));
        }
        let mut cache = DbCache::open(&root, &obs).unwrap();
        assert_eq!(cache.len(), 1);
        match cache.lookup(&key, &obs) {
            CacheLookup::Hit { checkpoint, bytes } => {
                assert_eq!(checkpoint.meta.signature, cp.meta.signature);
                assert_eq!(checkpoint.content_hash(), cp.content_hash());
                assert!(bytes > 0);
            }
            other => panic!("expected hit, got {other:?}"),
        }
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn keys_separate_by_fingerprint_and_device() {
        let sig = "conv_k3s1p0co4__in1x16x16";
        let base = cache_key(sig, "test-part", 7);
        assert_eq!(base, cache_key(sig, "test-part", 7));
        assert_ne!(base, cache_key(sig, "test-part", 8));
        assert_ne!(base, cache_key(sig, "xcku5p-like", 7));
        assert_ne!(base, cache_key("other_sig", "test-part", 7));
    }

    #[test]
    fn corrupt_manifest_resets_empty_and_quarantines() {
        let root = tmp_root("badmanifest");
        let obs = Obs::null();
        std::fs::create_dir_all(&root).unwrap();
        std::fs::write(root.join(MANIFEST_FILE), "{ not a manifest").unwrap();
        let cache = DbCache::open(&root, &obs).unwrap();
        assert!(cache.is_empty());
        assert!(root.join(QUARANTINE_DIR).join(MANIFEST_FILE).exists());
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn budget_evicts_least_recently_used_first() {
        let root = tmp_root("budget");
        let obs = Obs::null();
        let a = checkpoint("sig_a");
        let b = checkpoint("sig_b");
        let c = checkpoint("sig_c");
        let one_size = a.to_versioned_json().unwrap().len() as u64;
        // Budget fits two entries but not three.
        let mut cache = DbCache::open_with_budget(&root, Some(one_size * 2 + 8), &obs).unwrap();
        let (ka, kb, kc) = (
            cache_key("sig_a", "test-part", 1),
            cache_key("sig_b", "test-part", 1),
            cache_key("sig_c", "test-part", 1),
        );
        cache.insert(&ka, &a, &obs).unwrap();
        cache.insert(&kb, &b, &obs).unwrap();
        // Touch `a` so `b` becomes the LRU victim.
        assert!(matches!(cache.lookup(&ka, &obs), CacheLookup::Hit { .. }));
        cache.insert(&kc, &c, &obs).unwrap();
        assert_eq!(cache.budget_evictions(), 1);
        assert!(cache.contains(&ka), "recently used entry survives");
        assert!(!cache.contains(&kb), "LRU entry evicted");
        assert!(cache.contains(&kc), "inserted entry never self-evicts");
        assert!(cache.total_bytes() <= one_size * 2 + 8);
        // A fresh handle sees the post-eviction state.
        let reopened = DbCache::open(&root, &obs).unwrap();
        assert_eq!(reopened.len(), 2);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_batch_is_one_manifest_cycle_and_duplicates_share_a_load() {
        let root = tmp_root("batch");
        let obs = Obs::null();
        let mut cache = DbCache::open(&root, &obs).unwrap();
        let keys: Vec<String> = (0..6)
            .map(|i| {
                let sig = format!("batch_sig_{i}");
                let key = cache_key(&sig, "test-part", 1);
                cache.insert(&key, &checkpoint(&sig), &obs).unwrap();
                key
            })
            .collect();
        // Nine lookups over six keys, the shape of resnet-small.
        let batch: Vec<&str> = [0, 1, 2, 1, 3, 4, 1, 5, 0]
            .iter()
            .map(|&i| keys[i].as_str())
            .collect();
        let writes = || MANIFEST_WRITES.with(|n| n.get());
        let before = writes();
        let results = cache.lookup_all(&batch, &obs);
        assert_eq!(writes() - before, 1, "one locked cycle per batch");
        assert!(results.iter().all(|r| matches!(r, CacheLookup::Hit { .. })));
        assert_eq!(
            cache.generation,
            6 + 9,
            "every occurrence is a recency touch"
        );
        // A batch that touches and quarantines nothing writes nothing.
        let before = writes();
        assert!(matches!(
            cache.lookup_all(&["absent"], &obs)[..],
            [CacheLookup::Miss]
        ));
        assert_eq!(writes(), before);
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn a_batch_insert_leaves_the_files_of_inserting_in_turn() {
        let obs = Obs::null();
        let a_first = checkpoint("sig_a");
        let mut a_last = checkpoint("sig_a");
        a_last.meta.fmax_mhz = 400.0;
        let b = checkpoint("sig_b");
        let (ka, kb) = (
            cache_key("sig_a", "test-part", 1),
            cache_key("sig_b", "test-part", 1),
        );
        let items = [
            (ka.as_str(), &a_first),
            (kb.as_str(), &b),
            (ka.as_str(), &a_last),
        ];
        let objects = |root: &Path| -> Vec<(String, Vec<u8>)> {
            let mut files: Vec<(String, Vec<u8>)> = std::fs::read_dir(root.join(OBJECTS_DIR))
                .unwrap()
                .map(|e| {
                    let path = e.unwrap().path();
                    let name = path.file_name().unwrap().to_string_lossy().into_owned();
                    (name, std::fs::read(&path).unwrap())
                })
                .collect();
            files.sort();
            files
        };
        let (in_turn, batch) = (tmp_root("in_turn"), tmp_root("batch_insert"));
        let mut cache = DbCache::open(&in_turn, &obs).unwrap();
        for (key, cp) in items {
            cache.insert(key, cp, &obs).unwrap();
        }
        let mut cache = DbCache::open(&batch, &obs).unwrap();
        let writes = || MANIFEST_WRITES.with(|n| n.get());
        let before = writes();
        cache.insert_all(&items, &obs).unwrap();
        assert_eq!(writes() - before, 2, "the repeated key is written once");
        assert_eq!(objects(&batch), objects(&in_turn));
        match cache.lookup(&ka, &obs) {
            CacheLookup::Hit { checkpoint, .. } => {
                assert_eq!(checkpoint.content_hash(), a_last.content_hash())
            }
            other => panic!("expected hit, got {other:?}"),
        }
        std::fs::remove_dir_all(&in_turn).ok();
        std::fs::remove_dir_all(&batch).ok();
    }

    #[test]
    fn memo_residency_never_exceeds_its_bound() {
        let one = 1000;
        let mut memo = Memo::new(3 * one);
        let cp = checkpoint("memo");
        for id in 0..4 {
            memo.put((id, one), cp.clone());
            assert!(memo.bytes <= memo.bound);
        }
        assert_eq!(memo.bytes, 3 * one);
        assert!(
            memo.get((0, one)).is_none(),
            "least recently used goes first"
        );
        // A touch protects an entry from the next eviction.
        assert!(memo.get((1, one)).is_some());
        memo.put((4, one), cp.clone());
        assert!(memo.get((1, one)).is_some());
        assert!(memo.get((2, one)).is_none());
        // An entry larger than the whole bound is not kept at all.
        memo.put((5, 3 * one + 1), cp);
        assert!(memo.get((5, 3 * one + 1)).is_none());
        assert_eq!(memo.bytes, 3 * one);
    }

    #[test]
    fn tiny_budget_keeps_the_newest_entry() {
        let root = tmp_root("tinybudget");
        let obs = Obs::null();
        let cp = checkpoint("solo");
        let key = cache_key("solo", "test-part", 1);
        let mut cache = DbCache::open_with_budget(&root, Some(1), &obs).unwrap();
        cache.insert(&key, &cp, &obs).unwrap();
        assert!(
            cache.contains(&key),
            "an insert must never evict itself even over budget"
        );
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn concurrent_handles_do_not_lose_each_others_entries() {
        // The lost-update bug: two handles (standing in for two processes)
        // each hold a private in-memory map; without reload-under-lock the
        // second insert's manifest write would drop the first's entry.
        let root = tmp_root("merge");
        let obs = Obs::null();
        let a = checkpoint("proc_a_sig");
        let b = checkpoint("proc_b_sig");
        let ka = cache_key("proc_a_sig", "test-part", 1);
        let kb = cache_key("proc_b_sig", "test-part", 1);
        let mut h1 = DbCache::open(&root, &obs).unwrap();
        let mut h2 = DbCache::open(&root, &obs).unwrap();
        h1.insert(&ka, &a, &obs).unwrap();
        h2.insert(&kb, &b, &obs).unwrap();
        let mut reopened = DbCache::open(&root, &obs).unwrap();
        assert!(
            matches!(reopened.lookup(&ka, &obs), CacheLookup::Hit { .. }),
            "h1's entry must survive h2's manifest write"
        );
        assert!(matches!(
            reopened.lookup(&kb, &obs),
            CacheLookup::Hit { .. }
        ));
        std::fs::remove_dir_all(&root).ok();
    }

    #[test]
    fn eviction_removes_entry_and_file() {
        let root = tmp_root("evict");
        let obs = Obs::null();
        let cp = checkpoint("fc_o10__in84");
        let key = cache_key(&cp.meta.signature, "test-part", 1);
        let mut cache = DbCache::open(&root, &obs).unwrap();
        cache.insert(&key, &cp, &obs).unwrap();
        assert!(cache.evict(&key, &obs).unwrap());
        assert!(!cache.evict(&key, &obs).unwrap());
        let reopened = DbCache::open(&root, &obs).unwrap();
        assert!(reopened.is_empty());
        let objects: Vec<_> = std::fs::read_dir(root.join(OBJECTS_DIR)).unwrap().collect();
        assert!(objects.is_empty(), "object file must be deleted");
        std::fs::remove_dir_all(&root).ok();
    }
}
