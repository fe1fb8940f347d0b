//! Clock distribution model.
//!
//! UltraScale parts route clocks on a dedicated tree segmented by clock
//! region. Two effects matter to the flow:
//!
//! * **Skew**: registers in different clock regions see the clock at
//!   slightly different times; paths crossing regions lose margin. The OOC
//!   flow's `HD.CLK_SRC` constraint exists precisely so this is analyzable
//!   before the module is placed in its final region.
//! * **Insertion delay** is common-mode and cancels out of setup analysis,
//!   so the model only carries skew.

use crate::coords::TileCoord;
use crate::device::Device;

/// Worst-case skew between adjacent clock regions, picoseconds. Stacked
/// regions on the same vertical distribution spine track each other well;
/// the penalty is deliberately small but non-zero so region-crossing paths
/// rank worse than local ones.
pub const SKEW_PER_REGION_PS: f64 = 18.0;

/// Worst-case clock skew charged to a path between two placed points.
pub fn skew_ps(device: &Device, a: TileCoord, b: TileCoord) -> f64 {
    let ra = device.clock_region_of(a);
    let rb = device.clock_region_of(b);
    f64::from(ra.abs_diff(rb)) * SKEW_PER_REGION_PS
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn skew_is_zero_within_a_region() {
        let d = Device::xcku5p_like();
        let a = TileCoord::new(1, 0);
        let b = TileCoord::new(60, 63);
        assert_eq!(skew_ps(&d, a, b), 0.0);
    }

    #[test]
    fn skew_grows_with_region_distance() {
        let d = Device::xcku5p_like();
        let a = TileCoord::new(1, 0);
        let near = TileCoord::new(1, 64); // next region
        let far = TileCoord::new(1, 447); // last region
        assert_eq!(skew_ps(&d, a, near), SKEW_PER_REGION_PS);
        assert!(skew_ps(&d, a, far) > skew_ps(&d, a, near));
        // Symmetric.
        assert_eq!(skew_ps(&d, far, a), skew_ps(&d, a, far));
    }
}
