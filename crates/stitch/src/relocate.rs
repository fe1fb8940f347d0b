//! Relocation of locked placed-and-routed modules.
//!
//! The prerequisite the paper leans on: UltraScale resource columns repeat,
//! so a module implemented in one pblock can be stamped anywhere the column
//! pattern under it is identical. The check and the translation live here.

use crate::StitchError;
use pi_fabric::{Device, Pblock, TileCoord};
use pi_netlist::{Checkpoint, Module};

/// All column offsets (including 0) at which a checkpoint's pblock can be
/// legally placed on `device`, i.e. where the column pattern matches.
pub fn valid_anchor_columns(pblock: &Pblock, device: &Device) -> Vec<i32> {
    let mut offs = device.relocation_offsets(pblock.col_lo, pblock.col_hi);
    offs.push(0);
    offs.sort_unstable();
    offs
}

/// Relocate a checkpoint's module so its pblock's lower-left corner lands on
/// `target`. Validates device identity, grid bounds and columnar
/// compatibility; returns the translated, still-locked module.
pub fn relocate_to(
    checkpoint: &Checkpoint,
    device: &Device,
    target: TileCoord,
) -> Result<Module, StitchError> {
    if checkpoint.meta.device != device.name() {
        return Err(StitchError::DeviceMismatch {
            checkpoint: checkpoint.meta.signature.clone(),
            want: device.name().to_string(),
        });
    }
    let pb = checkpoint.meta.pblock;
    let dcol = i32::from(target.col) - i32::from(pb.col_lo);
    let drow = i32::from(target.row) - i32::from(pb.row_lo);
    if dcol != 0 && !device.columns_compatible(pb.col_lo, pb.col_hi, dcol) {
        return Err(StitchError::IncompatibleRelocation {
            component: checkpoint.meta.signature.clone(),
            dcol,
        });
    }
    let new_pb = pb
        .translated(dcol, drow)
        .ok_or_else(|| StitchError::IncompatibleRelocation {
            component: checkpoint.meta.signature.clone(),
            dcol,
        })?;
    new_pb.validate(device)?;
    let module = checkpoint.module.translated(dcol, drow).ok_or_else(|| {
        StitchError::IncompatibleRelocation {
            component: checkpoint.meta.signature.clone(),
            dcol,
        }
    })?;
    Ok(module)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_netlist::{Cell, CellKind, CheckpointMeta, Endpoint, ModuleBuilder, StreamRole};

    fn checkpoint(device: &Device) -> Checkpoint {
        let mut b = ModuleBuilder::new("comp");
        let din = b.input("din", StreamRole::Source, 16);
        let dout = b.output("dout", StreamRole::Sink, 16);
        let c0 = b.cell(Cell::new("s", CellKind::full_slice()));
        let c1 = b.cell(Cell::new("d", CellKind::Dsp));
        b.connect("i", Endpoint::Port(din), [Endpoint::Cell(c0)]);
        b.connect("m", Endpoint::Cell(c0), [Endpoint::Cell(c1)]);
        b.connect("o", Endpoint::Cell(c1), [Endpoint::Port(dout)]);
        let mut m = b.finish().unwrap();
        // Implemented in the first group: slice on col 1, DSP on col 8.
        m.set_placement(pi_netlist::CellId(0), TileCoord::new(1, 2))
            .unwrap();
        m.set_placement(pi_netlist::CellId(1), TileCoord::new(8, 2))
            .unwrap();
        m.ports_mut().unwrap()[0].partpin = Some(TileCoord::new(1, 0));
        m.ports_mut().unwrap()[1].partpin = Some(TileCoord::new(8, 0));
        m.pblock = Some(Pblock::new(1, 8, 0, 9));
        m.lock();
        Checkpoint {
            meta: CheckpointMeta {
                signature: "comp".to_string(),
                fmax_mhz: 500.0,
                resources: m.resources(),
                pblock: Pblock::new(1, 8, 0, 9),
                device: device.name().to_string(),
                latency_cycles: 5,
            },
            module: m,
        }
    }

    #[test]
    fn vertical_relocation_always_legal() {
        let device = Device::test_part();
        let cp = checkpoint(&device);
        let m = relocate_to(&cp, &device, TileCoord::new(1, 20)).unwrap();
        assert_eq!(
            m.cell(pi_netlist::CellId(0)).placement,
            Some(TileCoord::new(1, 22))
        );
        assert!(m.is_locked());
        // Internal structure preserved: relative offsets identical.
        assert_eq!(
            m.cell(pi_netlist::CellId(1)).placement,
            Some(TileCoord::new(8, 22))
        );
    }

    #[test]
    fn horizontal_relocation_respects_columns() {
        let device = Device::test_part();
        let cp = checkpoint(&device);
        // One full group right: cols 1..8 -> 18..25 (pattern repeats at +17).
        let ok = relocate_to(&cp, &device, TileCoord::new(18, 0)).unwrap();
        assert_eq!(
            ok.cell(pi_netlist::CellId(1)).placement,
            Some(TileCoord::new(25, 2))
        );
        // One column right lands the DSP cell on a CLB column: illegal.
        let err = relocate_to(&cp, &device, TileCoord::new(2, 0));
        assert!(matches!(
            err,
            Err(StitchError::IncompatibleRelocation { dcol: 1, .. })
        ));
    }

    #[test]
    fn out_of_bounds_rejected() {
        let device = Device::test_part();
        let cp = checkpoint(&device);
        assert!(relocate_to(&cp, &device, TileCoord::new(1, 1000)).is_err());
    }

    #[test]
    fn device_mismatch_rejected() {
        let device = Device::test_part();
        let other = Device::xcku5p_like();
        let cp = checkpoint(&device);
        assert!(matches!(
            relocate_to(&cp, &other, TileCoord::new(1, 0)),
            Err(StitchError::DeviceMismatch { .. })
        ));
    }

    #[test]
    fn anchor_columns_include_identity_and_group_shifts() {
        let device = Device::test_part();
        let cols = valid_anchor_columns(&Pblock::new(1, 8, 0, 9), &device);
        assert!(cols.contains(&0));
        assert!(cols.contains(&17));
        assert!(!cols.contains(&1));
    }
}
