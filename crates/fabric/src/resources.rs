//! Aggregate resource accounting shared by pblocks, utilization reports and
//! synthesis cost models.

use crate::site::SiteCapacity;
use serde::{Deserialize, Serialize};
use std::ops::{Add, AddAssign};

/// Counts of FPGA logic resources. Used both for capacities (how much a
/// region offers) and demands (how much a netlist needs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ResourceCount {
    pub luts: u64,
    pub ffs: u64,
    pub brams: u64,
    pub dsps: u64,
    pub urams: u64,
    pub ios: u64,
}

impl ResourceCount {
    pub const ZERO: ResourceCount = ResourceCount {
        luts: 0,
        ffs: 0,
        brams: 0,
        dsps: 0,
        urams: 0,
        ios: 0,
    };

    /// Build from per-site capacity times a multiplier.
    pub fn from_capacity(cap: SiteCapacity, count: u64) -> Self {
        ResourceCount {
            luts: u64::from(cap.luts) * count,
            ffs: u64::from(cap.ffs) * count,
            brams: u64::from(cap.brams) * count,
            dsps: u64::from(cap.dsps) * count,
            urams: u64::from(cap.urams) * count,
            ios: u64::from(cap.ios) * count,
        }
    }

    /// True when `self` fits within `capacity` on every resource class.
    pub fn fits_in(&self, capacity: &ResourceCount) -> bool {
        self.luts <= capacity.luts
            && self.ffs <= capacity.ffs
            && self.brams <= capacity.brams
            && self.dsps <= capacity.dsps
            && self.urams <= capacity.urams
            && self.ios <= capacity.ios
    }

    /// Utilization of `self` against `total`, as a percentage per class.
    /// Classes with zero capacity report 0%.
    pub fn percent_of(&self, total: &ResourceCount) -> ResourcePercent {
        fn pct(used: u64, cap: u64) -> f64 {
            if cap == 0 {
                0.0
            } else {
                100.0 * used as f64 / cap as f64
            }
        }
        ResourcePercent {
            luts: pct(self.luts, total.luts),
            ffs: pct(self.ffs, total.ffs),
            brams: pct(self.brams, total.brams),
            dsps: pct(self.dsps, total.dsps),
            urams: pct(self.urams, total.urams),
            ios: pct(self.ios, total.ios),
        }
    }

    /// Saturating element-wise subtraction.
    pub fn saturating_sub(&self, other: &ResourceCount) -> ResourceCount {
        ResourceCount {
            luts: self.luts.saturating_sub(other.luts),
            ffs: self.ffs.saturating_sub(other.ffs),
            brams: self.brams.saturating_sub(other.brams),
            dsps: self.dsps.saturating_sub(other.dsps),
            urams: self.urams.saturating_sub(other.urams),
            ios: self.ios.saturating_sub(other.ios),
        }
    }

    /// Scale every class by a rational factor, rounding up (used by the
    /// monolithic-synthesis overhead model).
    pub fn scale_ceil(&self, num: u64, den: u64) -> ResourceCount {
        let s = |v: u64| v.saturating_mul(num).div_ceil(den);
        ResourceCount {
            luts: s(self.luts),
            ffs: s(self.ffs),
            brams: s(self.brams),
            dsps: s(self.dsps),
            urams: s(self.urams),
            ios: s(self.ios),
        }
    }
}

impl Add for ResourceCount {
    type Output = ResourceCount;
    fn add(self, rhs: ResourceCount) -> ResourceCount {
        ResourceCount {
            luts: self.luts + rhs.luts,
            ffs: self.ffs + rhs.ffs,
            brams: self.brams + rhs.brams,
            dsps: self.dsps + rhs.dsps,
            urams: self.urams + rhs.urams,
            ios: self.ios + rhs.ios,
        }
    }
}

impl AddAssign for ResourceCount {
    fn add_assign(&mut self, rhs: ResourceCount) {
        *self = *self + rhs;
    }
}

impl std::iter::Sum for ResourceCount {
    fn sum<I: Iterator<Item = ResourceCount>>(iter: I) -> Self {
        iter.fold(ResourceCount::ZERO, |a, b| a + b)
    }
}

/// Percent utilization per resource class.
#[derive(Debug, Clone, Copy, Default, PartialEq, Serialize, Deserialize)]
pub struct ResourcePercent {
    pub luts: f64,
    pub ffs: f64,
    pub brams: f64,
    pub dsps: f64,
    pub urams: f64,
    pub ios: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::site::SiteKind;

    #[test]
    fn capacity_multiplication() {
        let r = ResourceCount::from_capacity(SiteKind::Slice.capacity(), 10);
        assert_eq!(r.luts, 80);
        assert_eq!(r.ffs, 160);
    }

    #[test]
    fn fits_and_percent() {
        let cap = ResourceCount {
            luts: 100,
            ffs: 200,
            brams: 4,
            dsps: 2,
            urams: 0,
            ios: 0,
        };
        let used = ResourceCount {
            luts: 50,
            ffs: 100,
            brams: 4,
            dsps: 0,
            urams: 0,
            ios: 0,
        };
        assert!(used.fits_in(&cap));
        let pct = used.percent_of(&cap);
        assert!((pct.luts - 50.0).abs() < 1e-9);
        assert!((pct.brams - 100.0).abs() < 1e-9);
        assert_eq!(pct.urams, 0.0);
        let over = ResourceCount { brams: 5, ..used };
        assert!(!over.fits_in(&cap));
    }

    #[test]
    fn scale_ceil_rounds_up() {
        let r = ResourceCount {
            luts: 10,
            ffs: 0,
            brams: 1,
            dsps: 0,
            urams: 0,
            ios: 0,
        };
        let s = r.scale_ceil(110, 100);
        assert_eq!(s.luts, 11);
        assert_eq!(s.brams, 2); // 1.1 rounds up
    }

    #[test]
    fn sum_over_iterator() {
        let parts = vec![
            ResourceCount {
                luts: 1,
                ..ResourceCount::ZERO
            },
            ResourceCount {
                luts: 2,
                dsps: 3,
                ..ResourceCount::ZERO
            },
        ];
        let total: ResourceCount = parts.into_iter().sum();
        assert_eq!(total.luts, 3);
        assert_eq!(total.dsps, 3);
    }
}
