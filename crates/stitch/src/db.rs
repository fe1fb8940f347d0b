//! The database of pre-built checkpoints.
//!
//! In the paper this is a directory of DCP files produced once by the
//! function-optimization phase and reused across designs. Here it is an
//! in-memory map keyed by component signature, with save/load to a
//! directory of versioned checkpoint envelopes (the same file form the
//! persistent cache's `objects/` holds) so the "performed exactly once,
//! reused in several applications" workflow is real.

use crate::StitchError;
use pi_netlist::Checkpoint;
use rayon::prelude::*;
use std::collections::BTreeMap;
use std::path::Path;

/// A component-checkpoint database.
#[derive(Debug, Clone, Default)]
pub struct ComponentDb {
    by_signature: BTreeMap<String, Checkpoint>,
}

impl ComponentDb {
    pub fn new() -> Self {
        Self::default()
    }

    /// Insert (or replace) a checkpoint under its signature.
    pub fn insert(&mut self, checkpoint: Checkpoint) {
        self.by_signature
            .insert(checkpoint.meta.signature.clone(), checkpoint);
    }

    /// Component matching: exact signature lookup.
    pub fn get(&self, signature: &str) -> Option<&Checkpoint> {
        self.by_signature.get(signature)
    }

    /// Lookup that reports a flow-level error when missing.
    pub fn require(&self, signature: &str) -> Result<&Checkpoint, StitchError> {
        self.get(signature)
            .ok_or_else(|| StitchError::MissingComponent(signature.to_string()))
    }

    pub fn len(&self) -> usize {
        self.by_signature.len()
    }

    pub fn is_empty(&self) -> bool {
        self.by_signature.is_empty()
    }

    /// All stored signatures, sorted.
    pub fn signatures(&self) -> impl Iterator<Item = &str> {
        self.by_signature.keys().map(|s| s.as_str())
    }

    /// All stored checkpoints.
    pub fn checkpoints(&self) -> impl Iterator<Item = &Checkpoint> {
        self.by_signature.values()
    }

    /// Persist every checkpoint as `<dir>/<file stem>.dcp.json`, where the
    /// stem is the collision-free form of [`file_stem`]: distinct
    /// signatures always land in distinct files, even when sanitization
    /// maps them to the same readable prefix. Each file is the versioned
    /// envelope ([`Checkpoint::to_versioned_json`]), written atomically.
    pub fn save_dir(&self, dir: &Path) -> Result<(), StitchError> {
        std::fs::create_dir_all(dir)?;
        for (sig, cp) in &self.by_signature {
            let file = dir.join(format!("{}.dcp.json", file_stem(sig)));
            write_atomic(&file, &cp.to_versioned_json()?)?;
        }
        Ok(())
    }

    /// Load every `*.dcp.json` under a directory, decoding in parallel. A
    /// file written under a different `CHECKPOINT_FORMAT_VERSION` is a
    /// [`pi_netlist::NetlistError::FormatVersion`] error, never
    /// reinterpreted. With several bad files the error is that of the
    /// first in file-name order, whatever order the filesystem lists them.
    pub fn load_dir(dir: &Path) -> Result<ComponentDb, StitchError> {
        let mut paths = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            // A killed writer can leave a torn temp file behind.
            if path
                .file_name()
                .and_then(|n| n.to_str())
                .is_some_and(|n| n.ends_with(".dcp.json") && !n.starts_with(TMP_PREFIX))
            {
                paths.push(path);
            }
        }
        paths.sort();
        let checkpoints: Result<Vec<Checkpoint>, StitchError> = paths
            .par_iter()
            .map(|path| {
                let text = std::fs::read_to_string(path)?;
                Ok(Checkpoint::from_versioned_json(&text)?)
            })
            .collect();
        let mut db = ComponentDb::new();
        for checkpoint in checkpoints? {
            db.insert(checkpoint);
        }
        Ok(db)
    }
}

/// Filesystem-safe rendering of a signature: ASCII alphanumerics, `_` and
/// `-` pass through, everything else becomes `_`. Lossy — two signatures
/// can sanitize identically, which is why file names never consist of the
/// sanitized form alone (see [`file_stem`]).
pub(crate) fn sanitize(sig: &str) -> String {
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

/// Collision-free file stem for a signature: a length-capped sanitized
/// prefix for human readability plus the XXH64 hash of the *raw*
/// signature. Signatures like `pool_w2s2+relu` and `pool_w2s2_relu`
/// sanitize identically but hash apart, so `save_dir` can never silently
/// overwrite one with the other; the cap keeps arbitrarily long signatures
/// under the filesystem's name-length limit.
pub(crate) fn file_stem(sig: &str) -> String {
    let mut prefix = sanitize(sig);
    prefix.truncate(96); // sanitized text is pure ASCII, so this is safe
    format!("{prefix}-{:016x}", pi_netlist::xxh64(sig.as_bytes()))
}

/// Name prefix of [`write_atomic`]'s temp files.
const TMP_PREFIX: &str = ".tmp.";

/// Write-then-rename: the contents land under a temp name first, so a
/// crash can never leave a torn file behind the real name.
pub(crate) fn write_atomic(path: &Path, contents: &str) -> std::io::Result<()> {
    let tmp = path.with_file_name(format!(
        "{TMP_PREFIX}{}.{}",
        std::process::id(),
        path.file_name().and_then(|n| n.to_str()).unwrap_or("x")
    ));
    std::fs::write(&tmp, contents)?;
    std::fs::rename(&tmp, path)
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

    #[test]
    fn insert_and_lookup() {
        let mut db = ComponentDb::new();
        db.insert(checkpoint("conv_k5s1p0co6__in1x32x32"));
        assert_eq!(db.len(), 1);
        assert!(db.get("conv_k5s1p0co6__in1x32x32").is_some());
        assert!(db.get("missing").is_none());
        assert!(matches!(
            db.require("missing"),
            Err(StitchError::MissingComponent(_))
        ));
    }

    #[test]
    fn directory_round_trip() {
        let mut db = ComponentDb::new();
        db.insert(checkpoint("conv_k5s1p0co6__in1x32x32"));
        db.insert(checkpoint("pool_w2s2+relu__in6x28x28"));
        let dir = std::env::temp_dir().join(format!("pi_db_test_{}", std::process::id()));
        db.save_dir(&dir).unwrap();
        let back = ComponentDb::load_dir(&dir).unwrap();
        assert_eq!(back.len(), 2);
        assert!(back.get("pool_w2s2+relu__in6x28x28").is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn sanitize_collisions_do_not_overwrite_on_save() {
        // Both signatures sanitize to `pool_w2s2_relu__in6x28x28`; before
        // the content-hash suffix the second save clobbered the first.
        let sig_a = "pool_w2s2+relu__in6x28x28";
        let sig_b = "pool_w2s2_relu__in6x28x28";
        assert_eq!(sanitize(sig_a), sanitize(sig_b));
        assert_ne!(file_stem(sig_a), file_stem(sig_b));
        let mut db = ComponentDb::new();
        db.insert(checkpoint(sig_a));
        db.insert(checkpoint(sig_b));
        let dir = std::env::temp_dir().join(format!("pi_db_collide_{}", std::process::id()));
        db.save_dir(&dir).unwrap();
        let back = ComponentDb::load_dir(&dir).unwrap();
        assert_eq!(back.len(), 2, "colliding signatures must both persist");
        assert!(back.get(sig_a).is_some());
        assert!(back.get(sig_b).is_some());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn save_dir_writes_atomically_and_load_dir_skips_torn_temp_files() {
        let mut db = ComponentDb::new();
        db.insert(checkpoint("conv_k5s1p0co6__in1x32x32"));
        let dir = std::env::temp_dir().join(format!("pi_db_atomic_{}", std::process::id()));
        db.save_dir(&dir).unwrap();
        let names: Vec<String> = std::fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names.len(), 1, "{names:?}");
        assert!(!names[0].starts_with(TMP_PREFIX), "{names:?}");
        // What a writer killed mid-`write_atomic` leaves behind.
        let torn = dir.join(format!("{TMP_PREFIX}1.x.dcp.json"));
        std::fs::write(torn, "{\"format_ver").unwrap();
        assert_eq!(ComponentDb::load_dir(&dir).unwrap().len(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn load_dir_rejects_unversioned_and_stale_files() {
        use pi_netlist::{NetlistError, CHECKPOINT_FORMAT_VERSION};
        let cp = checkpoint("x");
        let dir = std::env::temp_dir().join(format!("pi_db_stale_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let file = dir.join("x.dcp.json");

        // The plain `Checkpoint` JSON `save_dir` wrote before the envelope.
        std::fs::write(&file, serde_json::to_string(&cp).unwrap()).unwrap();
        assert!(matches!(
            ComponentDb::load_dir(&dir),
            Err(StitchError::Netlist(NetlistError::Decode(_)))
        ));

        let stale = cp.to_versioned_json().unwrap().replacen(
            &format!("\"format_version\":{CHECKPOINT_FORMAT_VERSION}"),
            "\"format_version\":999",
            1,
        );
        std::fs::write(&file, stale).unwrap();
        assert!(matches!(
            ComponentDb::load_dir(&dir),
            Err(StitchError::Netlist(NetlistError::FormatVersion {
                found: 999,
                ..
            }))
        ));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn file_stems_stay_within_name_limits() {
        let long = "x".repeat(4096);
        let stem = file_stem(&long);
        assert!(stem.len() <= 96 + 17, "stem too long: {}", stem.len());
        assert_ne!(file_stem(&"x".repeat(4095)), stem);
    }

    #[test]
    fn replace_updates_existing() {
        let mut db = ComponentDb::new();
        let mut cp = checkpoint("x");
        db.insert(cp.clone());
        cp.meta.fmax_mhz = 999.0;
        db.insert(cp);
        assert_eq!(db.len(), 1);
        assert_eq!(db.get("x").unwrap().meta.fmax_mhz, 999.0);
    }
}
