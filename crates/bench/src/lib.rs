//! Experiment harness: everything needed to regenerate the paper's tables
//! and figures.
//!
//! Each experiment lives in [`experiments`] as a function returning a
//! rendered markdown [`Section`]; `all_experiments` runs the full set and
//! writes `EXPERIMENTS.md`. Heavyweight intermediate results (component
//! databases, flow runs) are cached in a [`Ctx`] so the experiments do not
//! repeat work.

pub mod experiments;
pub mod paper;

use pi_cnn::graph::Granularity;
use pi_cnn::Network;
use pi_fabric::Device;
use pi_flow::{
    build_component_db, run_baseline_flow, run_pre_implemented_flow, BaselineReport,
    ComponentBuildReport, FlowConfig, FlowError, PreImplReport,
};
use pi_netlist::Design;
use pi_obs::{Event, EventSink, FanoutSink, FileSink, MemorySink, Obs};
use pi_stitch::{ComponentDb, Violation};
use pi_synth::SynthOptions;
use std::sync::Arc;

/// One rendered experiment.
#[derive(Debug, Clone)]
pub struct Section {
    /// Paper artifact id, e.g. "Fig. 6".
    pub id: String,
    pub title: String,
    /// Markdown body (tables + commentary).
    pub body: String,
}

impl Section {
    pub fn render(&self) -> String {
        format!("## {} — {}\n\n{}\n", self.id, self.title, self.body)
    }
}

/// A network's full set of flow artifacts.
pub struct NetworkRun {
    pub network: Network,
    pub granularity: Granularity,
    pub db: ComponentDb,
    pub component_reports: Vec<ComponentBuildReport>,
    pub db_build_time: std::time::Duration,
    pub preimpl_design: Design,
    pub preimpl: PreImplReport,
    /// The monolithic arm, or why it delivered no legal design
    /// ([`baseline_arm`]).
    pub baseline: Result<BaselineReport, String>,
}

/// Shared, lazily-built experiment context. Everything is seeded and
/// deterministic.
///
/// The context owns the run's telemetry: a [`MemorySink`] is always
/// attached (so experiments can fold a [`Ctx::run_report`]), and
/// [`Ctx::new`] additionally tees the stream to a JSON-Lines file when the
/// process was started with `--trace <path>`.
pub struct Ctx {
    lenet: Option<NetworkRun>,
    vgg: Option<NetworkRun>,
    sink: Arc<MemorySink>,
    obs: Obs,
}

impl Default for Ctx {
    fn default() -> Self {
        Self::traced_to(None)
    }
}

/// Standard evaluation device (see DESIGN.md for the calibration notes).
pub fn device() -> Device {
    Device::xcku5p_like()
}

fn run_network(network: Network, cfg: &FlowConfig) -> NetworkRun {
    let device = device();
    let t0 = std::time::Instant::now();
    let (db, component_reports) =
        build_component_db(&network, &device, cfg).expect("component DB builds");
    let db_build_time = t0.elapsed();

    let (preimpl_design, preimpl) =
        run_pre_implemented_flow(&network, &db, &device, cfg).expect("pre-implemented flow");

    let baseline = baseline_arm(&network, &device, cfg);

    NetworkRun {
        network,
        granularity: cfg.granularity,
        db,
        component_reports,
        db_build_time,
        preimpl_design,
        preimpl,
        baseline,
    }
}

/// Run the monolithic arm, or say why it delivered no legal design
/// ([`no_legal_design`]).
pub fn baseline_arm(
    network: &Network,
    device: &Device,
    cfg: &FlowConfig,
) -> Result<BaselineReport, String> {
    match run_baseline_flow(network, device, cfg) {
        Ok((_, report)) => Ok(report),
        Err(FlowError::DrcFailed(v)) => Err(no_legal_design(&v, cfg)),
        Err(e) => panic!("baseline flow: {e}"),
    }
}

/// How the tables print a design the judge rejected for track capacity
/// alone: "no legal design: N tiles over capacity after I iterations". Any
/// other violation is a harness failure.
pub fn no_legal_design(violations: &[Violation], cfg: &FlowConfig) -> String {
    let over_capacity = |v: &Violation| matches!(v, Violation::TileOverCapacity { .. });
    assert!(
        violations.iter().all(over_capacity),
        "design failed DRC: {violations:?}"
    );
    let tiles = if violations.len() == 1 {
        "tile"
    } else {
        "tiles"
    };
    let (over, iters) = (violations.len(), cfg.route.max_iters);
    format!("no legal design: {over} {tiles} over capacity after {iters} iterations")
}

impl Ctx {
    /// Build a context, honoring a `--trace <path>` flag anywhere in the
    /// process arguments.
    pub fn new() -> Self {
        let mut argv = std::env::args().skip(1);
        let mut trace = None;
        while let Some(a) = argv.next() {
            if a == "--trace" {
                trace = argv.next();
            }
        }
        Self::traced_to(trace)
    }

    /// Build a context with an explicit trace destination (`None` keeps the
    /// telemetry in memory only).
    fn traced_to(trace: Option<String>) -> Self {
        let sink = Arc::new(MemorySink::new());
        let obs = match &trace {
            Some(path) => {
                let file = FileSink::create(path).unwrap_or_else(|e| panic!("--trace {path}: {e}"));
                let tee: Vec<Arc<dyn EventSink>> = vec![sink.clone(), Arc::new(file)];
                Obs::new(Arc::new(FanoutSink::new(tee)))
            }
            None => Obs::new(sink.clone()),
        };
        Ctx {
            lenet: None,
            vgg: None,
            sink,
            obs,
        }
    }

    /// The telemetry handle every flow run in this context reports through.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Everything recorded so far, in emission order.
    pub fn events(&self) -> Vec<Event> {
        self.sink.snapshot()
    }

    /// A [`FlowConfig`] wired to this context's telemetry stream, with the
    /// harness' standard DSE width (seeds 1–3).
    pub fn config(&self, granularity: Granularity, synth: SynthOptions) -> FlowConfig {
        FlowConfig::new()
            .with_synth(synth)
            .with_granularity(granularity)
            .with_seeds([1, 2, 3])
            .with_obs(self.obs.clone())
    }

    /// Full `flowstat` run report of everything recorded so far.
    pub fn run_report(&self) -> pi_obs::agg::RunReport {
        pi_obs::agg::RunReport::from_events(&self.events())
    }

    /// LeNet-5 runs (layer granularity, weights in ROM — the paper's
    /// configuration).
    pub fn lenet(&mut self) -> &NetworkRun {
        if self.lenet.is_none() {
            eprintln!("[ctx] building LeNet-5 runs (both flows)...");
            let cfg = self.config(Granularity::Layer, SynthOptions::lenet_like());
            self.lenet = Some(run_network(pi_cnn::models::lenet5(), &cfg));
        }
        self.lenet.as_ref().expect("just built")
    }

    /// VGG-16 runs (block granularity, streamed weights — the paper's
    /// configuration). The baseline implementation takes ~30 s in release.
    pub fn vgg(&mut self) -> &NetworkRun {
        if self.vgg.is_none() {
            eprintln!("[ctx] building VGG-16 runs (both flows; ~1 min)...");
            let cfg = self.config(Granularity::Block, SynthOptions::vgg_like());
            self.vgg = Some(run_network(pi_cnn::models::vgg16(), &cfg));
        }
        self.vgg.as_ref().expect("just built")
    }
}

/// Render a markdown table.
pub fn md_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = String::new();
    out.push_str("| ");
    out.push_str(&headers.join(" | "));
    out.push_str(" |\n|");
    for _ in headers {
        out.push_str("---|");
    }
    out.push('\n');
    for row in rows {
        out.push_str("| ");
        out.push_str(&row.join(" | "));
        out.push_str(" |\n");
    }
    out
}

/// Seconds with sensible precision.
pub fn fmt_s(d: std::time::Duration) -> String {
    let s = d.as_secs_f64();
    if s < 0.1 {
        format!("{:.1} ms", s * 1000.0)
    } else {
        format!("{s:.2} s")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn markdown_table_renders() {
        let t = md_table(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert!(t.contains("| a | b |"));
        assert!(t.contains("| 1 | 2 |"));
        assert!(t.lines().count() == 3);
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_s(std::time::Duration::from_millis(50)), "50.0 ms");
        assert_eq!(fmt_s(std::time::Duration::from_secs(2)), "2.00 s");
    }
}
