//! The traditional flow: monolithic synthesis of the whole network, then
//! full placement, physical optimization and routing — the comparison
//! baseline of every experiment. Its result faces the same judge as the
//! assembled arm's ([`pi_stitch::check_design`]): a design the router left
//! over capacity is [`FlowError::DrcFailed`], never a report.

use crate::config::FlowConfig;
use crate::report::LatencyReport;
use crate::FlowError;
use pi_cnn::graph::Network;
use pi_fabric::Device;
use pi_netlist::{Design, Module};
use pi_pnr::{compile_flat_obs, CompileReport};
use pi_synth::synth_network_flat;
use std::time::Duration;

/// Report from the baseline flow.
#[derive(Debug, Clone)]
pub struct BaselineReport {
    pub compile: CompileReport,
    pub latency: LatencyReport,
}

impl BaselineReport {
    /// Total implementation time: the sum of Vivado's opt/place/phys-opt/
    /// route phases, exactly the measure the paper uses for the baseline.
    pub fn total_time(&self) -> Duration {
        self.compile.phases.total()
    }
}

/// Physical-optimization passes of the baseline's full implementation run.
const BASELINE_PHYS_OPT_PASSES: usize = 4;

/// Run the full baseline: monolithic synthesis + full implementation.
/// Returns the implemented design (wrapped flat) and its report, the
/// network judge's error ([`Network::validate`]) when the graph is
/// rejected, or
/// [`FlowError::DrcFailed`] when the design check finds a violation. The
/// backend phases report under `pnr::compile` / `pnr::place` /
/// `pnr::route`, plus a `flow::baseline` summary, through the sink the
/// config carries.
pub fn run_baseline_flow(
    network: &Network,
    device: &Device,
    cfg: &FlowConfig,
) -> Result<(Design, BaselineReport), FlowError> {
    cfg.apply_parallelism();
    network.validate()?;
    // The first seed of the component sweep also seeds the baseline.
    let seed = cfg.seeds.first().copied().unwrap_or(1);
    let base = cfg.obs().scoped("flow::baseline").with_seed(seed);
    let mut module: Module = synth_network_flat(network, cfg.granularity, &cfg.synth.monolithic())?;
    let compile_opts = pi_pnr::compile::CompileOptions {
        place: pi_pnr::PlaceOptions {
            seed,
            effort: cfg.baseline_effort,
            region: None,
        },
        route: cfg.route,
        phys_opt_passes: BASELINE_PHYS_OPT_PASSES,
    };
    let span = base.span("baseline");
    let compile = compile_flat_obs(&mut module, device, &compile_opts, cfg.obs())?;
    span.end();
    let latency = LatencyReport::for_monolithic(network, cfg.granularity, compile.timing.fmax_mhz)?;
    if base.enabled() {
        base.point(
            "baseline_done",
            &[
                ("fmax_mhz", compile.timing.fmax_mhz.into()),
                ("overused_tiles", compile.route_stats.overused_tiles.into()),
                (
                    "wallclock_total_s",
                    compile.phases.total().as_secs_f64().into(),
                ),
            ],
        );
    }
    let design = Design::flat(format!("{}_baseline", network.name), device.name(), module);
    let violations = pi_stitch::check_design(&design, device)?;
    if !violations.is_empty() {
        return Err(FlowError::DrcFailed(violations));
    }
    Ok((design, BaselineReport { compile, latency }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_cnn::models;

    #[test]
    fn baseline_implements_toy_network() {
        let device = Device::xcku5p_like();
        let network = models::toy();
        let (design, report) = run_baseline_flow(&network, &device, &FlowConfig::new()).unwrap();
        assert!(design.instances()[0].module.fully_placed());
        assert!(report.compile.timing.fmax_mhz > 50.0);
        assert!(report.compile.route_stats.overused_tiles == 0);
        assert!(report.total_time() > Duration::ZERO);
        // Monolithic synthesis inserted I/O buffers.
        assert_eq!(report.compile.resources.ios, 2);
    }
}
