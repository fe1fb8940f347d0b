//! Latency reporting and flow-vs-flow comparison — the numbers every table
//! and figure of the evaluation prints. Nothing is modelled here: each
//! component's depth, frame cycles and width are read from the rate model
//! ([`pi_cnn::cycles::ComponentRate`]) and only summed and converted to
//! time at the design's clock.

use crate::FlowError;
use pi_cnn::cycles::{self, ComponentRate};
use pi_cnn::graph::{Component, Granularity, Network};
use pi_stitch::ComponentDb;
use serde::Serialize;
use std::time::Duration;

/// Latency of one component at the system clock.
#[derive(Debug, Clone, Serialize)]
pub struct ComponentLatency {
    pub name: String,
    /// Pipeline fill depth, cycles.
    pub depth_cycles: u64,
    /// Cycles to stream one frame through this component's engines.
    pub frame_cycles: u64,
    /// MAC units serving this component.
    pub dsps: u64,
}

/// The latency model outputs for a full accelerator.
#[derive(Debug, Clone, Serialize)]
pub struct LatencyReport {
    pub per_component: Vec<ComponentLatency>,
    /// Σ pipeline depths — the Table III "latency" figure.
    pub pipeline_cycles: u64,
    pub pipeline_ns: f64,
    /// Frame latency of the streaming pipeline: the bottleneck stage plus
    /// the fill — the Fig. 7 / Table IV figure.
    pub frame_cycles: u64,
    pub frame_ms: f64,
    /// Clock everything runs at.
    pub fmax_mhz: f64,
}

impl LatencyReport {
    fn build(
        components: &[Component],
        rates: &[ComponentRate],
        fmax_mhz: f64,
        extra_pipeline_cycles: u64,
    ) -> LatencyReport {
        let per_component: Vec<ComponentLatency> = components
            .iter()
            .zip(rates)
            .map(|(comp, rate)| ComponentLatency {
                name: comp.name.clone(),
                depth_cycles: rate.depth_cycles,
                frame_cycles: rate.frame_cycles,
                dsps: rate.dsps,
            })
            .collect();
        let pipeline_cycles: u64 =
            per_component.iter().map(|c| c.depth_cycles).sum::<u64>() + extra_pipeline_cycles;
        let bottleneck = per_component
            .iter()
            .map(|c| c.frame_cycles)
            .max()
            .unwrap_or(0);
        let frame_cycles = bottleneck + pipeline_cycles;
        LatencyReport {
            per_component,
            pipeline_cycles,
            pipeline_ns: cycles::latency_ns(pipeline_cycles, fmax_mhz),
            frame_cycles,
            frame_ms: cycles::latency_ms(frame_cycles, fmax_mhz),
            fmax_mhz,
        }
    }

    /// Latency of an assembled design: engine widths come from the
    /// checkpoints actually used, so a component `db` does not hold is an
    /// error, not a latency.
    pub fn for_assembled(
        network: &Network,
        granularity: Granularity,
        db: &ComponentDb,
        fmax_mhz: f64,
        extra_pipeline_cycles: u64,
    ) -> Result<LatencyReport, FlowError> {
        let components = network.components(granularity)?;
        let mut rates = cycles::component_rates(network, &components)?;
        for (comp, rate) in components.iter().zip(&mut rates) {
            let checkpoint = db.require(&comp.signature(network))?;
            *rate = rate.at_width(checkpoint.meta.resources.dsps);
        }
        Ok(Self::build(
            &components,
            &rates,
            fmax_mhz,
            extra_pipeline_cycles,
        ))
    }

    /// Latency of the monolithic design: same engines (the generators are
    /// shared), at the widths the model sizes them to.
    pub fn for_monolithic(
        network: &Network,
        granularity: Granularity,
        fmax_mhz: f64,
    ) -> Result<LatencyReport, FlowError> {
        let components = network.components(granularity)?;
        let rates = cycles::component_rates(network, &components)?;
        Ok(Self::build(&components, &rates, fmax_mhz, 0))
    }
}

/// Side-by-side comparison of the two flows on the same network — the
/// digest Table II / Fig. 6 / Table III-level summaries are printed from.
#[derive(Debug, Clone, Serialize)]
pub struct FlowComparison {
    pub network: String,
    pub baseline_fmax_mhz: f64,
    pub preimpl_fmax_mhz: f64,
    pub fmax_ratio: f64,
    pub baseline_time_s: f64,
    pub preimpl_time_s: f64,
    /// The paper's headline: 1 − preimpl/baseline.
    pub productivity_gain: f64,
    pub baseline_latency_ms: f64,
    pub preimpl_latency_ms: f64,
    pub baseline_power_mw: f64,
    pub preimpl_power_mw: f64,
}

/// Clock at which the two flows' power is compared. Comparing each design
/// at its own Fmax would charge the faster design for its headroom; the
/// paper's "lower power" claim is about the same function at the same rate,
/// which is what a fixed operating clock captures.
pub const POWER_COMPARISON_MHZ: f64 = 200.0;

impl FlowComparison {
    pub fn new(
        network: &str,
        baseline: &crate::baseline::BaselineReport,
        preimpl: &crate::arch_opt::PreImplReport,
    ) -> FlowComparison {
        let bt = baseline.total_time();
        let pt = preimpl.total_time();
        let power_at = |report: &pi_pnr::CompileReport| {
            pi_pnr::power::estimate(
                &report.resources,
                report.total_wirelength,
                POWER_COMPARISON_MHZ,
            )
            .total_mw()
        };
        FlowComparison {
            network: network.to_string(),
            baseline_fmax_mhz: baseline.compile.timing.fmax_mhz,
            preimpl_fmax_mhz: preimpl.compile.timing.fmax_mhz,
            fmax_ratio: preimpl.compile.timing.fmax_mhz / baseline.compile.timing.fmax_mhz,
            baseline_time_s: bt.as_secs_f64(),
            preimpl_time_s: pt.as_secs_f64(),
            productivity_gain: productivity_gain(bt, pt),
            baseline_latency_ms: baseline.latency.frame_ms,
            preimpl_latency_ms: preimpl.latency.frame_ms,
            baseline_power_mw: power_at(&baseline.compile),
            preimpl_power_mw: power_at(&preimpl.compile),
        }
    }
}

/// Productivity improvement, as the paper quotes it (69 % for LeNet).
pub fn productivity_gain(baseline: Duration, preimpl: Duration) -> f64 {
    let b = baseline.as_secs_f64();
    if b == 0.0 {
        return 0.0;
    }
    1.0 - preimpl.as_secs_f64() / b
}

impl std::fmt::Display for FlowComparison {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "network: {}", self.network)?;
        writeln!(
            f,
            "  Fmax       baseline {:7.1} MHz | pre-impl {:7.1} MHz ({:.2}x)",
            self.baseline_fmax_mhz, self.preimpl_fmax_mhz, self.fmax_ratio
        )?;
        writeln!(
            f,
            "  gen time   baseline {:7.2} s   | pre-impl {:7.2} s   ({:.0}% productivity gain)",
            self.baseline_time_s,
            self.preimpl_time_s,
            self.productivity_gain * 100.0
        )?;
        writeln!(
            f,
            "  latency    baseline {:7.2} ms  | pre-impl {:7.2} ms",
            self.baseline_latency_ms, self.preimpl_latency_ms
        )?;
        write!(
            f,
            "  power      baseline {:7.0} mW  | pre-impl {:7.0} mW",
            self.baseline_power_mw, self.preimpl_power_mw
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn productivity_gain_matches_definition() {
        let g = productivity_gain(Duration::from_secs(100), Duration::from_secs(31));
        assert!((g - 0.69).abs() < 1e-9);
        assert_eq!(
            productivity_gain(Duration::ZERO, Duration::from_secs(1)),
            0.0
        );
    }

    #[test]
    fn assembled_latency_of_a_missing_checkpoint_is_an_error() {
        let network = pi_cnn::models::lenet5();
        let err = LatencyReport::for_assembled(
            &network,
            Granularity::Layer,
            &ComponentDb::new(),
            400.0,
            0,
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                FlowError::Stitch(pi_stitch::StitchError::MissingComponent(_))
            ),
            "{err}"
        );
    }

    #[test]
    fn monolithic_latency_for_lenet() {
        let network = pi_cnn::models::lenet5();
        let r = LatencyReport::for_monolithic(&network, Granularity::Layer, 400.0).unwrap();
        assert_eq!(r.per_component.len(), 6);
        // Pipeline latency in the hundreds-of-ns band of Table III.
        assert!(
            (100.0..2000.0).contains(&r.pipeline_ns),
            "pipeline {} ns",
            r.pipeline_ns
        );
        // Frame latency well under a millisecond for LeNet.
        assert!(r.frame_ms < 5.0);
    }

    #[test]
    fn vgg_frame_latency_in_paper_band() {
        let network = pi_cnn::models::vgg16();
        let r = LatencyReport::for_monolithic(&network, Granularity::Block, 200.0).unwrap();
        // Paper Fig. 7: baseline VGG 55 ms at 200 MHz. Same order here.
        assert!(
            (20.0..150.0).contains(&r.frame_ms),
            "frame {} ms",
            r.frame_ms
        );
    }
}
