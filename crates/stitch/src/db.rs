//! The database of pre-built checkpoints.
//!
//! In the paper this is a directory of DCP files produced once by the
//! function-optimization phase and reused across designs. Here it is an
//! in-memory map keyed by component signature. Its one on-disk form is
//! the verified cache ([`crate::DbCache`]), which is what makes the
//! "performed exactly once, reused in several applications" workflow
//! survive the process.

use crate::StitchError;
use pi_netlist::Checkpoint;
use std::collections::BTreeMap;

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
