//! Design checkpoints: serialized placed-and-routed modules plus metadata.
//!
//! Checkpoints are stored as JSON so the component database is inspectable
//! the way a directory of DCP files is — each file is a frozen, reusable,
//! relocatable implementation of one component.

use crate::hash::xxh64;
use crate::module::Module;
use pi_fabric::{Pblock, ResourceCount};
use serde::{Deserialize, Serialize};

/// On-disk checkpoint format version. Bump whenever the serialized shape
/// of [`Checkpoint`] (or anything it contains) changes incompatibly; the
/// component-database cache quarantines and rebuilds entries written by a
/// different version instead of trying to reinterpret them.
pub const CHECKPOINT_FORMAT_VERSION: u32 = 1;

/// Metadata recorded with a checkpoint at pre-implementation time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct CheckpointMeta {
    /// The component signature used for database matching, e.g.
    /// `conv_k5s1p0_ci1_co6_in32`. Produced by the synthesis generators and
    /// matched against DFG nodes by the stitcher.
    pub signature: String,
    /// Fmax achieved in standalone OOC implementation, MHz.
    pub fmax_mhz: f64,
    /// Logic resources of the module.
    pub resources: ResourceCount,
    /// The pblock the module was implemented in (absolute coordinates of the
    /// original implementation; relocation translates it).
    pub pblock: Pblock,
    /// Device catalog name the checkpoint targets — relocation is only valid
    /// on the same part.
    pub device: String,
    /// Pipeline latency of the component in clock cycles (for the latency
    /// model).
    pub latency_cycles: u64,
}

/// A checkpoint: metadata plus the locked module netlist.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Checkpoint {
    pub meta: CheckpointMeta,
    pub module: Module,
}

/// The versioned envelope the persistent component cache stores is a
/// textual frame around the [`Checkpoint::content_hash`] pre-image:
///
/// ```text
/// {"format_version":<decimal digits>,"checkpoint":<payload>}
/// ```
///
/// The format version rides *outside* the payload so stale entries are
/// detectable before (and independent of) decoding it, and the payload
/// bytes are exactly what the one deterministic serializer writes for the
/// checkpoint — a reader verifies a file by hashing that slice, without
/// decoding and re-encoding it.
const ENVELOPE_HEAD: &str = "{\"format_version\":";
const ENVELOPE_MID: &str = ",\"checkpoint\":";
const ENVELOPE_TAIL: &str = "}";

impl Checkpoint {
    /// Stable 64-bit content hash of this checkpoint: [`xxh64`] over the
    /// canonical JSON serialization. Equal checkpoints hash equal across
    /// runs and builds; the cache uses it for content addressing and
    /// corruption detection.
    pub fn content_hash(&self) -> u64 {
        xxh64(self.to_json().as_bytes())
    }

    /// [`Checkpoint::content_hash`] as the fixed-width hex form file names
    /// and manifests use.
    pub fn content_hash_hex(&self) -> String {
        format!("{:016x}", self.content_hash())
    }

    /// Serialize wrapped in the versioned envelope (the persistent-cache
    /// on-disk form): one encode, framed textually.
    pub fn to_versioned_json(&self) -> Result<String, crate::NetlistError> {
        Ok(format!(
            "{ENVELOPE_HEAD}{CHECKPOINT_FORMAT_VERSION}{ENVELOPE_MID}{}{ENVELOPE_TAIL}",
            self.to_json()
        ))
    }

    /// Split the versioned envelope and return its payload slice — the
    /// bytes [`Checkpoint::content_hash`] hashes, so `xxh64(payload)`
    /// verifies a stored file without decoding it (or even validating it
    /// as UTF-8). Bytes that are not exactly the frame
    /// [`Checkpoint::to_versioned_json`] writes are a decode error; a
    /// *different* version is the distinct
    /// [`crate::NetlistError::FormatVersion`] so callers can tell "stale"
    /// from "corrupt".
    pub fn versioned_payload(bytes: &[u8]) -> Result<&[u8], crate::NetlistError> {
        let malformed =
            || crate::NetlistError::Decode("not a versioned checkpoint envelope".to_string());
        let rest = bytes
            .strip_prefix(ENVELOPE_HEAD.as_bytes())
            .ok_or_else(malformed)?;
        let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
        let found: u32 = std::str::from_utf8(&rest[..digits])
            .ok()
            .and_then(|d| d.parse().ok())
            .ok_or_else(malformed)?;
        if found != CHECKPOINT_FORMAT_VERSION {
            return Err(crate::NetlistError::FormatVersion {
                found,
                want: CHECKPOINT_FORMAT_VERSION,
            });
        }
        rest[digits..]
            .strip_prefix(ENVELOPE_MID.as_bytes())
            .and_then(|payload| payload.strip_suffix(ENVELOPE_TAIL.as_bytes()))
            .ok_or_else(malformed)
    }

    /// Decode a payload slice (see [`Checkpoint::versioned_payload`]). This
    /// is where the bytes are first required to be UTF-8: invalid UTF-8 is
    /// a decode error like any other malformed payload.
    pub fn from_payload(payload: &[u8]) -> Result<Checkpoint, crate::NetlistError> {
        let text =
            std::str::from_utf8(payload).map_err(|e| crate::NetlistError::Decode(e.to_string()))?;
        serde_json::from_str(text).map_err(|e| crate::NetlistError::Decode(e.to_string()))
    }

    /// Deserialize the versioned envelope (see
    /// [`Checkpoint::versioned_payload`] for the frame and its errors).
    pub fn from_versioned_json(s: &str) -> Result<Checkpoint, crate::NetlistError> {
        Self::from_payload(Self::versioned_payload(s.as_bytes())?)
    }

    /// The canonical (unversioned) JSON serialization [`content_hash`]
    /// hashes: the envelope's `checkpoint` payload, without the version.
    ///
    /// [`content_hash`]: Checkpoint::content_hash
    fn to_json(&self) -> String {
        serde_json::to_string(self).expect("checkpoint serializes for hashing")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cell::{Cell, CellKind};
    use crate::module::ModuleBuilder;
    use crate::net::Endpoint;
    use crate::port::StreamRole;
    use pi_fabric::TileCoord;

    fn checkpoint() -> Checkpoint {
        let mut b = ModuleBuilder::new("conv1");
        let din = b.input("din", StreamRole::Source, 16);
        let dout = b.output("dout", StreamRole::Sink, 16);
        let c = b.cell(Cell::new("mac", CellKind::Dsp));
        b.connect("ni", Endpoint::Port(din), [Endpoint::Cell(c)]);
        b.connect("no", Endpoint::Cell(c), [Endpoint::Port(dout)]);
        let mut m = b.finish().unwrap();
        m.set_placement(crate::CellId(0), TileCoord::new(8, 3))
            .unwrap();
        m.pblock = Some(Pblock::new(1, 8, 0, 9));
        m.lock();
        Checkpoint {
            meta: CheckpointMeta {
                signature: "conv_k5s1p0_ci1_co6_in32".to_string(),
                fmax_mhz: 562.0,
                resources: m.resources(),
                pblock: Pblock::new(1, 8, 0, 9),
                device: "test-part".to_string(),
                latency_cycles: 21,
            },
            module: m,
        }
    }

    #[test]
    fn versioned_round_trip() {
        let cp = checkpoint();
        let json = cp.to_versioned_json().unwrap();
        assert!(json.contains("\"format_version\""));
        let back = Checkpoint::from_versioned_json(&json).unwrap();
        assert_eq!(back.meta.signature, cp.meta.signature);
        assert_eq!(back.content_hash(), cp.content_hash());
    }

    #[test]
    fn stale_format_version_is_its_own_error() {
        let cp = checkpoint();
        let json = cp.to_versioned_json().unwrap();
        let stale = json.replacen(
            &format!("\"format_version\":{CHECKPOINT_FORMAT_VERSION}"),
            "\"format_version\":999",
            1,
        );
        match Checkpoint::from_versioned_json(&stale) {
            Err(crate::NetlistError::FormatVersion { found: 999, want }) => {
                assert_eq!(want, CHECKPOINT_FORMAT_VERSION);
            }
            other => panic!("expected FormatVersion, got {other:?}"),
        }
        // A plain (unversioned) checkpoint is a decode error, not stale.
        assert!(matches!(
            Checkpoint::from_versioned_json(&cp.to_json()),
            Err(crate::NetlistError::Decode(_))
        ));
    }

    #[test]
    fn payload_slice_is_the_hash_pre_image_and_only_the_exact_frame_splits() {
        let cp = checkpoint();
        let json = cp.to_versioned_json().unwrap();
        let payload = Checkpoint::versioned_payload(json.as_bytes()).unwrap();
        assert_eq!(payload, cp.to_json().as_bytes());
        assert_eq!(xxh64(payload), cp.content_hash());
        // Equivalent JSON that is not the frame this build writes, a torn
        // tail (the frame still splits; the payload no longer decodes) and
        // a version no u32 holds are all decode errors.
        for bad in [
            json.replacen(':', ": ", 1),
            format!("{json}\n"),
            json[..json.len() - 1].to_string(),
            json.replacen("\"format_version\":", "\"format_version\":99999999999", 1),
            json.replacen("\"format_version\":1", "\"format_version\":", 1),
        ] {
            assert!(
                matches!(
                    Checkpoint::from_versioned_json(&bad),
                    Err(crate::NetlistError::Decode(_))
                ),
                "accepted {:?}...",
                &bad[..40]
            );
        }
        // A byte that is not UTF-8 leaves the frame splittable, but the
        // payload is a decode error.
        let mut bytes = json.into_bytes();
        let mid = bytes.len() / 2;
        bytes[mid] = 0xFF;
        let payload = Checkpoint::versioned_payload(&bytes).unwrap();
        assert!(matches!(
            Checkpoint::from_payload(payload),
            Err(crate::NetlistError::Decode(_))
        ));
    }

    #[test]
    fn content_hash_is_stable_and_content_sensitive() {
        let cp = checkpoint();
        assert_eq!(cp.content_hash(), cp.content_hash());
        assert_eq!(cp.content_hash_hex().len(), 16);
        let mut other = cp.clone();
        other.meta.fmax_mhz += 1.0;
        assert_ne!(cp.content_hash(), other.content_hash());
    }
}
