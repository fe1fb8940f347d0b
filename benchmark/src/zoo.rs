//! The network zoo: the four bundled descriptors plus VGG-16, each with
//! the synthesis options and fusion granularity the repository's own
//! experiments run it under. The descriptor *text* is the benchmark
//! input; importing it is the first step of every timed op.

use pi_cnn::graph::Granularity;
use pi_cnn::Network;
use pi_flow::FlowConfig;
use pi_model::ModelFormat;
use pi_synth::SynthOptions;

pub struct Net {
    /// `Network::name` the descriptor declares; keys `expected.json`.
    pub name: &'static str,
    pub text: String,
    pub format: ModelFormat,
    pub synth: SynthOptions,
    pub granularity: Granularity,
}

impl Net {
    /// Descriptor text -> network, through the same frontend the CLI and
    /// the daemon use for this dialect.
    pub fn import(&self) -> Result<Network, String> {
        match self.format {
            ModelFormat::Archdef => pi_cnn::parse_archdef(&self.text).map_err(|e| e.to_string()),
            format => pi_model::import(&self.text, format)
                .map(|imp| imp.network)
                .map_err(|e| e.to_string()),
        }
    }

    /// The flow configuration every op of this network runs under: the
    /// program's default seed sweep `[1, 2, 3]` (the baseline uses the
    /// first). The benchmark seed deliberately does not reach the flow
    /// seeds: it would change the *work* an op does (cold VGG-16 moved
    /// 8.8-11.8 s and 137-191 MHz over seeds 1-10), which no bound on a
    /// timing could then tell from a regression.
    pub fn config(&self) -> FlowConfig {
        FlowConfig::new()
            .with_synth(self.synth)
            .with_granularity(self.granularity)
    }
}

fn bundled(name: &'static str, text: &str, format: ModelFormat, synth: SynthOptions) -> Net {
    Net {
        name,
        text: text.to_string(),
        format,
        synth,
        granularity: Granularity::Layer,
    }
}

pub fn lenet() -> Net {
    bundled(
        "lenet5",
        include_str!("../../models/lenet.json"),
        ModelFormat::Json,
        SynthOptions::lenet_like(),
    )
}

/// VGG-16 enters as archdef text (rendered from the built-in constructor,
/// re-parsed by every op) at block granularity with streamed weights.
pub fn vgg16() -> Net {
    Net {
        name: "vgg16",
        text: pi_cnn::archdef::to_archdef(&pi_cnn::models::vgg16()),
        format: ModelFormat::Archdef,
        synth: SynthOptions::vgg_like(),
        granularity: Granularity::Block,
    }
}

/// All five networks, smallest first. The first three also run the flat
/// (monolithic) flow; AlexNet and VGG-16 need streamed weights and are
/// far beyond its time budget.
pub fn zoo() -> Vec<Net> {
    vec![
        lenet(),
        bundled(
            "cifar10-quick",
            include_str!("../../models/cifar10_quick.prototxt"),
            ModelFormat::Prototxt,
            SynthOptions::lenet_like(),
        ),
        bundled(
            "resnet-small",
            include_str!("../../models/resnet_small.json"),
            ModelFormat::Json,
            SynthOptions::lenet_like(),
        ),
        bundled(
            "alexnet-like",
            include_str!("../../models/alexnet.json"),
            ModelFormat::Json,
            SynthOptions::vgg_like(),
        ),
        vgg16(),
    ]
}

/// How many of [`zoo`]'s networks the flat flow runs.
pub const FLAT_NETS: usize = 3;
