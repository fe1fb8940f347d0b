//! Circuit generators — the synthesis front-end of the toolflow.
//!
//! Real flows synthesize HDL; here, parameterized generators elaborate each
//! CNN component (and the four motivation kernels) directly into site-level
//! netlists whose resource counts, connectivity locality and combinational
//! depths follow the same scaling laws as the RTL architectures the paper
//! describes:
//!
//! * **Convolution** (§IV-A, Fig. 4a): line buffers feeding a window shift
//!   register, a systolic array of DSP MACs per output-channel lane, an
//!   adder tree whose combinational depth grows with `log2(k²·C_in)`, and a
//!   requantizing output stage.
//! * **Max-pool** (Fig. 4c): per-channel comparator trees behind a shift
//!   register and a small controller.
//! * **ReLU**: a thin element-wise stage that fuses into its producer.
//! * **Fully-connected**: implemented as a convolution with kernel = input
//!   size (exactly the paper's choice), folded onto a smaller MAC array.
//! * **Memory controller** (Fig. 5): address generation + FIFO queues at
//!   every component boundary that needs re-tiling.
//!
//! Two synthesis modes reproduce the paper's observed resource behaviour:
//! OOC component synthesis is area-optimized by pblock pressure, while
//! monolithic synthesis pays a documented overhead (global control
//! replication, fanout buffering, conservative BRAM inference) and inserts
//! I/O buffers — see [`cost`] for the constants.

pub mod cle;
pub mod component;
pub mod conv;
pub mod cost;
pub mod eltwise;
pub mod emit;
pub mod fc;
pub mod flat;
pub mod kernels;
pub mod memctrl;
pub mod pool;

pub use component::synth_component;
pub use flat::synth_network_flat;
pub use kernels::{synth_kernel, KernelKind};

use serde::{Deserialize, Serialize};

/// Synthesis mode: the axis Table II's comparison varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum SynthMode {
    /// Out-of-context component synthesis: no I/O buffers, area-optimized
    /// under pblock pressure.
    Ooc,
    /// Traditional full-design synthesis: I/O buffers inserted, global
    /// overhead applied.
    Monolithic,
}

/// Options threaded through every generator.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct SynthOptions {
    pub mode: SynthMode,
    /// Datapath width in bits (the paper evaluates fixed-16).
    pub data_width: u16,
    /// Store weights in on-chip ROM (the paper's LeNet choice) instead of
    /// streaming them from off-chip (its VGG choice).
    pub weights_on_chip: bool,
}

impl SynthOptions {
    /// The paper's LeNet configuration.
    pub fn lenet_like() -> Self {
        SynthOptions {
            mode: SynthMode::Ooc,
            data_width: 16,
            weights_on_chip: true,
        }
    }

    /// The paper's VGG configuration.
    pub fn vgg_like() -> Self {
        SynthOptions {
            mode: SynthMode::Ooc,
            data_width: 16,
            weights_on_chip: false,
        }
    }

    pub fn monolithic(mut self) -> Self {
        self.mode = SynthMode::Monolithic;
        self
    }
}

impl Default for SynthOptions {
    fn default() -> Self {
        SynthOptions {
            mode: SynthMode::Ooc,
            data_width: 16,
            weights_on_chip: true,
        }
    }
}

/// Errors from the generators.
#[derive(Debug)]
pub enum SynthError {
    /// Underlying CNN graph problem.
    Cnn(pi_cnn::CnnError),
    /// Netlist construction failed (a generator bug).
    Netlist(pi_netlist::NetlistError),
}

impl std::fmt::Display for SynthError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SynthError::Cnn(e) => write!(f, "synthesis: {e}"),
            SynthError::Netlist(e) => write!(f, "synthesis netlist: {e}"),
        }
    }
}

impl std::error::Error for SynthError {}

impl From<pi_cnn::CnnError> for SynthError {
    fn from(e: pi_cnn::CnnError) -> Self {
        SynthError::Cnn(e)
    }
}

impl From<pi_netlist::NetlistError> for SynthError {
    fn from(e: pi_netlist::NetlistError) -> Self {
        SynthError::Netlist(e)
    }
}
