//! The paper's published numbers, used for side-by-side comparison in every
//! experiment. These are *citations*, not measurements of this codebase.

/// Fig. 1a/1b: the motivation experiment's reported gains (percent) of the
/// RapidWright flow over the Vivado flow, per kernel.
pub struct Fig1Ref {
    pub kernel: &'static str,
    pub compile_gain_pct: f64,
    pub fmax_gain_pct: f64,
}

pub const FIG1: [Fig1Ref; 4] = [
    Fig1Ref {
        kernel: "MM",
        compile_gain_pct: 5.0,
        fmax_gain_pct: 19.0,
    },
    Fig1Ref {
        kernel: "OP",
        compile_gain_pct: 18.0,
        fmax_gain_pct: 33.0,
    },
    Fig1Ref {
        kernel: "RC",
        compile_gain_pct: 37.0,
        fmax_gain_pct: 9.0,
    },
    Fig1Ref {
        kernel: "SM",
        compile_gain_pct: 7.0,
        fmax_gain_pct: 8.0,
    },
];

/// Table I reference values as printed in the paper. (The LeNet row is
/// internally inconsistent with the paper's own per-layer counts — see
/// EXPERIMENTS.md.)
pub struct Table1Ref {
    pub network: &'static str,
    pub conv_layers: &'static str,
    pub conv_weights: &'static str,
    pub conv_macs: &'static str,
    pub fc_layers: &'static str,
    pub fc_weights: &'static str,
    pub fc_macs: &'static str,
    pub total_weights: &'static str,
    pub total_macs: &'static str,
}

pub const TABLE1: [Table1Ref; 2] = [
    Table1Ref {
        network: "LeNet-5",
        conv_layers: "2",
        conv_weights: "26 K",
        conv_macs: "1.9 M",
        fc_layers: "2",
        fc_weights: "406 K",
        fc_macs: "405 K",
        total_weights: "431 K",
        total_macs: "2.3 M",
    },
    Table1Ref {
        network: "VGG-16",
        conv_layers: "16",
        conv_weights: "14.7 M",
        conv_macs: "15.3 G",
        fc_layers: "3",
        fc_weights: "124 M",
        fc_macs: "124 M",
        total_weights: "138 M",
        total_macs: "15.5 G",
    },
];

/// Table II reference: (LUTs, FFs, BRAMs, DSPs) with the paper's
/// percentages in parentheses.
pub struct Table2Ref {
    pub row: &'static str,
    pub luts: &'static str,
    pub ffs: &'static str,
    pub brams: &'static str,
    pub dsps: &'static str,
}

pub const TABLE2: [Table2Ref; 4] = [
    Table2Ref {
        row: "LeNet (classic)",
        luts: "32021 (9.65%)",
        ffs: "8538 (1.29%)",
        brams: "463 (21.44%)",
        dsps: "144 (5.21%)",
    },
    Table2Ref {
        row: "LeNet (pre-impl)",
        luts: "29491 (8.89%)",
        ffs: "8442 (1.26%)",
        brams: "457 (21.16%)",
        dsps: "144 (5.21%)",
    },
    Table2Ref {
        row: "VGG-16 (classic)",
        luts: "282870 (85.28%)",
        ffs: "215763 (32.53%)",
        brams: "854 (38.54%)",
        dsps: "2116 (76.66%)",
    },
    Table2Ref {
        row: "VGG-16 (pre-impl)",
        luts: "261321 (78.79%)",
        ffs: "180754 (27.25%)",
        brams: "786 (36.39%)",
        dsps: "2123 (76.92%)",
    },
];

/// Fig. 6: design-generation times. The paper gives pre-implemented times
/// and productivity gains; baselines are implied.
pub struct Fig6Ref {
    pub network: &'static str,
    pub preimpl_min: f64,
    pub productivity_gain_pct: f64,
    pub stitch_share_pct: f64,
}

pub const FIG6: [Fig6Ref; 2] = [
    Fig6Ref {
        network: "LeNet-5",
        preimpl_min: 16.54,
        productivity_gain_pct: 69.0,
        stitch_share_pct: 5.0,
    },
    Fig6Ref {
        network: "VGG-16",
        preimpl_min: 52.87,
        productivity_gain_pct: 61.0,
        stitch_share_pct: 9.0,
    },
];

/// Table III: LeNet performance exploration (frequency MHz, latency ns).
pub struct Table3Ref {
    pub row: &'static str,
    pub freq_mhz: f64,
    pub latency_ns: f64,
}

pub const TABLE3: [Table3Ref; 8] = [
    Table3Ref {
        row: "Full Network",
        freq_mhz: 375.0,
        latency_ns: 249.7,
    },
    Table3Ref {
        row: "Conv1",
        freq_mhz: 562.0,
        latency_ns: 37.33,
    },
    Table3Ref {
        row: "Pool1+ReLU1",
        freq_mhz: 633.0,
        latency_ns: 12.93,
    },
    Table3Ref {
        row: "Conv2",
        freq_mhz: 475.0,
        latency_ns: 63.46,
    },
    Table3Ref {
        row: "Pool2+ReLU",
        freq_mhz: 588.0,
        latency_ns: 22.51,
    },
    Table3Ref {
        row: "FC1",
        freq_mhz: 497.0,
        latency_ns: 49.32,
    },
    Table3Ref {
        row: "FC2",
        freq_mhz: 543.0,
        latency_ns: 25.05,
    },
    Table3Ref {
        row: "Our work",
        freq_mhz: 437.0,
        latency_ns: 249.10,
    },
];

/// Fig. 7: VGG performance exploration (frequency MHz, latency ms).
pub struct Fig7Ref {
    pub row: &'static str,
    pub freq_mhz: f64,
    pub latency_ms: f64,
}

pub const FIG7: [Fig7Ref; 14] = [
    Fig7Ref {
        row: "VGG (baseline)",
        freq_mhz: 200.0,
        latency_ms: 55.13,
    },
    Fig7Ref {
        row: "Component 1",
        freq_mhz: 367.0,
        latency_ms: 1.54,
    },
    Fig7Ref {
        row: "Component 2",
        freq_mhz: 475.0,
        latency_ms: 0.021,
    },
    Fig7Ref {
        row: "Component 3",
        freq_mhz: 341.0,
        latency_ms: 4.32,
    },
    Fig7Ref {
        row: "Component 4",
        freq_mhz: 461.0,
        latency_ms: 0.034,
    },
    Fig7Ref {
        row: "Component 5",
        freq_mhz: 326.0,
        latency_ms: 3.97,
    },
    Fig7Ref {
        row: "Component 6",
        freq_mhz: 454.0,
        latency_ms: 0.035,
    },
    Fig7Ref {
        row: "Component 7",
        freq_mhz: 313.0,
        latency_ms: 4.3,
    },
    Fig7Ref {
        row: "Component 8",
        freq_mhz: 432.0,
        latency_ms: 0.041,
    },
    Fig7Ref {
        row: "Component 9",
        freq_mhz: 308.0,
        latency_ms: 4.56,
    },
    Fig7Ref {
        row: "Component 10",
        freq_mhz: 300.0,
        latency_ms: 1.62,
    },
    Fig7Ref {
        row: "Component 11",
        freq_mhz: 300.0,
        latency_ms: 1.62,
    },
    Fig7Ref {
        row: "Component 12",
        freq_mhz: 375.0,
        latency_ms: 0.91,
    },
    Fig7Ref {
        row: "Our work",
        freq_mhz: 243.0,
        latency_ms: 56.67,
    },
];

/// Table IV: VGG-16 comparison with state-of-the-art accelerators. All rows
/// except "this repo" are literature citations in the paper as well.
pub struct Table4Ref {
    pub work: &'static str,
    pub fpga: &'static str,
    pub freq_mhz: &'static str,
    pub precision: &'static str,
    pub dsp_util: &'static str,
    pub latency_ms: &'static str,
}

pub const TABLE4: [Table4Ref; 3] = [
    Table4Ref {
        work: "Caffeine [19] (cited)",
        fpga: "Xilinx KU460",
        freq_mhz: "200",
        precision: "fixed 16",
        dsp_util: "38%",
        latency_ms: "-",
    },
    Table4Ref {
        work: "McDanel et al. [12] (cited)",
        fpga: "VC707",
        freq_mhz: "170",
        precision: "fixed 16",
        dsp_util: "4%",
        latency_ms: "2.28",
    },
    Table4Ref {
        work: "Paper's own",
        fpga: "Kintex KU060",
        freq_mhz: "263",
        precision: "fixed 16",
        dsp_util: "76%",
        latency_ms: "42.68",
    },
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_tables_have_expected_shapes() {
        assert_eq!(FIG1.len(), 4);
        assert_eq!(TABLE2.len(), 4);
        assert_eq!(TABLE3.len(), 8);
        assert_eq!(FIG7.len(), 14);
        // The paper's own Table III claim: our-work frequency is the row
        // the 1.75x headline refers to.
        assert_eq!(TABLE3[7].freq_mhz, 437.0);
    }
}
