//! The unified flow configuration.
//!
//! [`FlowConfig`] is the single knob surface for both flows: one
//! builder-style struct carries everything the function-optimization,
//! architecture-optimization and baseline phases need, plus the telemetry
//! handle every engine below them reports through. Callers build one
//! config and hand it to [`crate::build_component_db`],
//! [`crate::run_pre_implemented_flow`] and [`crate::run_baseline_flow`],
//! which read the fields they need directly.
//!
//! # Wire format
//!
//! `pi-serve` compile jobs carry their whole configuration as JSON: a
//! client serializes its config with [`FlowConfig::to_json`], the daemon
//! reconstructs it with [`FlowConfig::from_json`] and runs the flow under
//! it. The wire form is the struct's derived `serde` form — every field
//! in declaration order, enums lowercase, unset options `null` — so a new
//! knob is a new field and nothing else, and `from_json(to_json(c))`
//! reproduces `c` exactly, including its
//! [`FlowConfig::cache_fingerprint`] (property-tested in
//! `tests/config_roundtrip.rs`).
//!
//! Two things deliberately do not cross the wire: the telemetry sink and
//! the report capture. They are process-local plumbing — each side
//! installs its own — and serializing them would make identical jobs hash
//! differently. Unknown keys are rejected (a typo in a job must fail
//! loudly, not silently run under defaults) and integers are range-checked
//! against their field's type; missing keys take the documented defaults
//! so old clients keep working when knobs are added.

use pi_cnn::graph::Granularity;
use pi_netlist::StableHasher;
use pi_obs::agg::RunReport;
use pi_obs::{EventSink, FanoutSink, MemorySink, Obs};
use pi_pnr::RouteOptions;
use pi_stitch::ComponentPlacerOptions;
use pi_synth::{SynthMode, SynthOptions};
use serde::{Deserialize, Serialize};
use std::path::PathBuf;
use std::sync::Arc;

/// Configuration for the whole flow (both phases and the baseline), plus
/// the telemetry sink. Build one with the `with_*` methods:
///
/// ```
/// use pi_flow::FlowConfig;
/// use pi_cnn::graph::Granularity;
///
/// let cfg = FlowConfig::new()
///     .with_granularity(Granularity::Layer)
///     .with_seeds([1, 2, 3]);
/// assert_eq!(cfg.seeds, vec![1, 2, 3]);
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct FlowConfig {
    /// Synthesis options for component (OOC) synthesis. The baseline flow
    /// derives its monolithic variant from this automatically.
    pub synth: SynthOptions,
    pub granularity: Granularity,
    /// Placement seeds explored per component (the DSE axis); the first
    /// seed also seeds the baseline's placement.
    pub seeds: Vec<u64>,
    /// Fraction of pblock capacity a component may use.
    pub pblock_utilization: f64,
    /// Placement effort for component (OOC) placement.
    pub effort: f64,
    pub route: RouteOptions,
    /// Eq. 1–3 component-placer options for the architecture phase.
    pub placer: ComponentPlacerOptions,
    /// Placement effort for the monolithic baseline (vendor default
    /// effort; higher than the per-component effort because the whole
    /// design is placed at once).
    pub baseline_effort: f64,
    /// Worker threads for the parallel regions (component builds, seed
    /// sweeps). `None` defers to the process default: the `PI_THREADS`
    /// environment variable if set, else
    /// `std::thread::available_parallelism()`. `Some(1)` forces the
    /// sequential path. Results and telemetry streams are identical at
    /// every value — only wall-clock time changes.
    pub threads: Option<usize>,
    /// Root of the persistent component-database cache. When set,
    /// [`crate::build_component_db_cached`] consults it before
    /// pre-implementing anything and persists what it builds, making the
    /// paper's "one-time" function optimization real across runs. `None`
    /// keeps everything in memory.
    pub db_dir: Option<PathBuf>,
    /// Size budget (serialized bytes) for the persistent cache; inserts
    /// beyond it evict least-recently-used entries. `None` = unbounded.
    ///
    /// Deliberately excluded from [`FlowConfig::cache_fingerprint`]: the
    /// budget decides which entries *stay cached*, never what a checkpoint
    /// contains.
    pub db_budget_bytes: Option<u64>,
    /// Static-analysis policy. When set, the flow entry points run the
    /// relevant `pi-lint` passes at stage boundaries (network at every
    /// entry, database after function optimization, composed design after
    /// — never instead of — the physical DRC) and fail with
    /// [`crate::FlowError::LintFailed`] when the gate trips. `None` (the
    /// default) runs no lints; the flow's legality verdicts (the network
    /// judge at every entry, the module judge on every netlist it
    /// implements, `check_checkpoint` at admission, `check_design` on the
    /// design) run either way.
    ///
    /// Deliberately excluded from [`FlowConfig::cache_fingerprint`]:
    /// linting observes checkpoints, it never changes what they contain.
    pub lint: Option<pi_lint::LintConfig>,
    #[serde(skip)]
    obs: Obs,
    /// In-process event capture installed by
    /// [`FlowConfig::with_report_capture`]; feeds
    /// [`FlowConfig::run_report`].
    #[serde(skip)]
    capture: Option<Arc<MemorySink>>,
}

impl Default for FlowConfig {
    fn default() -> Self {
        FlowConfig {
            synth: SynthOptions::default(),
            granularity: Granularity::Layer,
            seeds: vec![1, 2, 3],
            pblock_utilization: 0.7,
            effort: 2.0,
            route: RouteOptions::default(),
            placer: ComponentPlacerOptions::default(),
            baseline_effort: 6.0,
            threads: None,
            db_dir: None,
            db_budget_bytes: None,
            lint: None,
            obs: Obs::null(),
            capture: None,
        }
    }
}

impl FlowConfig {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn with_synth(mut self, synth: SynthOptions) -> Self {
        self.synth = synth;
        self
    }

    pub fn with_granularity(mut self, granularity: Granularity) -> Self {
        self.granularity = granularity;
        self
    }

    pub fn with_seeds(mut self, seeds: impl IntoIterator<Item = u64>) -> Self {
        self.seeds = seeds.into_iter().collect();
        self
    }

    pub fn with_pblock_utilization(mut self, utilization: f64) -> Self {
        self.pblock_utilization = utilization;
        self
    }

    pub fn with_effort(mut self, effort: f64) -> Self {
        self.effort = effort;
        self
    }

    pub fn with_route(mut self, route: RouteOptions) -> Self {
        self.route = route;
        self
    }

    pub fn with_placer(mut self, placer: ComponentPlacerOptions) -> Self {
        self.placer = placer;
        self
    }

    pub fn with_baseline_effort(mut self, effort: f64) -> Self {
        self.baseline_effort = effort;
        self
    }

    /// Pin the number of worker threads the parallel regions use.
    /// `with_threads(1)` forces fully sequential execution. Never changes
    /// results or telemetry content — determinism is by construction.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads);
        self
    }

    /// Apply the `threads` knob to the process-global scheduler. A `None`
    /// knob leaves the ambient default (the `PI_THREADS` environment
    /// variable, else `available_parallelism()`) untouched. Flow entry
    /// points call this before their first parallel region.
    pub fn apply_parallelism(&self) {
        if let Some(threads) = self.threads {
            rayon::set_num_threads(threads);
        }
    }

    /// Root directory of the persistent component-database cache.
    pub fn with_db_dir(mut self, dir: impl Into<PathBuf>) -> Self {
        self.db_dir = Some(dir.into());
        self
    }

    /// Byte budget for the persistent cache (LRU eviction beyond it).
    pub fn with_db_budget_bytes(mut self, bytes: u64) -> Self {
        self.db_budget_bytes = Some(bytes);
        self
    }

    /// Enable stage-boundary linting under the given policy (see the
    /// `lint` field).
    pub fn with_lint(mut self, lint: pi_lint::LintConfig) -> Self {
        self.lint = Some(lint);
        self
    }

    /// Stable fingerprint of every knob that affects what a pre-implemented
    /// checkpoint *is*: synthesis options, granularity, the seed sweep,
    /// pblock utilization, placement effort and routing options. Combined
    /// with the component signature and device part by
    /// [`pi_stitch::cache_key`] (the part's name also keys its track
    /// capacity), it keys the persistent cache —
    /// change any of these knobs and every lookup misses cleanly instead of
    /// serving a checkpoint built under different rules.
    ///
    /// Deliberately excluded: `threads` (scheduling never changes results),
    /// the telemetry sink, `db_dir` itself, and the architecture-phase /
    /// baseline knobs (`placer`, `baseline_effort`), neither of which
    /// influences the checkpoint artifact.
    pub fn cache_fingerprint(&self) -> u64 {
        let mut h = StableHasher::new();
        h.write_str(match self.synth.mode {
            SynthMode::Ooc => "ooc",
            SynthMode::Monolithic => "monolithic",
        });
        h.write_u16(self.synth.data_width);
        h.write_bool(self.synth.weights_on_chip);
        h.write_str(match self.granularity {
            Granularity::Layer => "layer",
            Granularity::Block => "block",
        });
        h.write_usize(self.seeds.len());
        for &s in &self.seeds {
            h.write_u64(s);
        }
        h.write_f64(self.pblock_utilization);
        h.write_f64(self.effort);
        h.write_usize(self.route.max_iters);
        h.finish()
    }

    /// Route telemetry into `sink`. Every engine the flow calls (annealer,
    /// router, phys-opt, component placer) reports through it. Replaces
    /// any capture installed by [`FlowConfig::with_report_capture`] — when
    /// combining the two, install the capture last.
    pub fn with_sink(mut self, sink: Arc<dyn EventSink>) -> Self {
        self.obs = Obs::new(sink);
        self.capture = None;
        self
    }

    /// Use an existing telemetry handle (shares its sequence counter —
    /// useful when several flows must interleave into one stream). Replaces
    /// any capture installed by [`FlowConfig::with_report_capture`].
    pub fn with_obs(mut self, obs: Obs) -> Self {
        self.obs = obs;
        self.capture = None;
        self
    }

    /// The telemetry handle this config carries.
    pub fn obs(&self) -> &Obs {
        &self.obs
    }

    /// Capture every event of the runs this config drives into an
    /// in-process buffer, so [`FlowConfig::run_report`] can fold them into
    /// a [`RunReport`] afterwards. Composes with an already-installed sink
    /// (the stream is teed, preserving one shared sequence counter), so
    /// `--trace` recording and report capture see the identical stream.
    /// Call this *after* `with_sink`/`with_obs`; installing either later
    /// replaces the capture.
    pub fn with_report_capture(mut self) -> Self {
        let capture = Arc::new(MemorySink::new());
        self.obs = if self.obs.enabled() {
            Obs::new(Arc::new(FanoutSink::new(vec![
                self.obs.sink_handle(),
                capture.clone(),
            ])))
        } else {
            Obs::new(capture.clone())
        };
        self.capture = Some(capture);
        self
    }

    /// Events captured so far (empty without
    /// [`FlowConfig::with_report_capture`]).
    pub fn captured_events(&self) -> Vec<pi_obs::Event> {
        self.capture
            .as_ref()
            .map(|c| c.snapshot())
            .unwrap_or_default()
    }

    /// Fold everything captured so far into a [`RunReport`]. `None`
    /// without [`FlowConfig::with_report_capture`].
    pub fn run_report(&self) -> Option<RunReport> {
        self.capture
            .as_ref()
            .map(|c| RunReport::from_events(&c.snapshot()))
    }

    /// The derived wire form as a compact JSON string (see the module docs
    /// for what is deliberately excluded). Key order is field order, so
    /// equal configs serialize byte-identically — the property `pi-serve`
    /// job IDs rely on.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("config serializes")
    }

    /// Rebuild a config from [`FlowConfig::to_json`] output. The result
    /// carries no telemetry sink (install one with
    /// [`FlowConfig::with_sink`] / [`FlowConfig::with_report_capture`]
    /// after deserializing).
    pub fn from_json(text: &str) -> Result<FlowConfig, String> {
        let cfg: FlowConfig = serde_json::from_str(text).map_err(|e| format!("config: {e}"))?;
        cfg.validate()?;
        Ok(cfg)
    }

    /// The checks a decoded config must pass beyond its field types (run
    /// by every reader of the wire form).
    pub fn validate(&self) -> Result<(), String> {
        if self.threads == Some(0) {
            return Err("config: threads must be at least 1".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_obs::MemorySink;

    #[test]
    fn threads_knob_defaults_to_ambient() {
        // `None` must leave the process default alone; `apply_parallelism`
        // on the default config is therefore a no-op (important: flow entry
        // points call it unconditionally).
        let cfg = FlowConfig::new();
        assert_eq!(cfg.threads, None);
        cfg.apply_parallelism();
        assert_eq!(FlowConfig::new().with_threads(3).threads, Some(3));
    }

    #[test]
    fn fingerprint_tracks_implementation_knobs_only() {
        let base = FlowConfig::new();
        let fp = base.cache_fingerprint();
        // Stable across calls and across equivalent configs.
        assert_eq!(fp, FlowConfig::new().cache_fingerprint());
        // Every implementation knob moves it.
        assert_ne!(fp, base.clone().with_seeds([1, 2]).cache_fingerprint());
        assert_ne!(
            fp,
            base.clone()
                .with_pblock_utilization(0.8)
                .cache_fingerprint()
        );
        assert_ne!(fp, base.clone().with_effort(3.0).cache_fingerprint());
        assert_ne!(
            fp,
            base.clone()
                .with_granularity(Granularity::Block)
                .cache_fingerprint()
        );
        assert_ne!(
            fp,
            base.clone()
                .with_synth(pi_synth::SynthOptions::vgg_like())
                .cache_fingerprint()
        );
        let mut route = base.route;
        route.max_iters += 1;
        assert_ne!(fp, base.clone().with_route(route).cache_fingerprint());
        // Scheduling, telemetry and the cache location itself do not.
        assert_eq!(fp, base.clone().with_threads(4).cache_fingerprint());
        assert_eq!(fp, base.clone().with_db_dir("/tmp/x").cache_fingerprint());
        assert_eq!(
            fp,
            base.clone()
                .with_sink(Arc::new(MemorySink::new()))
                .cache_fingerprint()
        );
    }

    #[test]
    fn default_config_is_silent() {
        assert!(!FlowConfig::new().obs().enabled());
    }

    #[test]
    fn sink_enables_telemetry() {
        let sink = Arc::new(MemorySink::new());
        let cfg = FlowConfig::new().with_sink(sink.clone());
        assert!(cfg.obs().enabled());
        cfg.obs().point("p", &[]);
        assert_eq!(sink.len(), 1);
    }

    #[test]
    fn report_capture_tees_and_folds() {
        let sink = Arc::new(MemorySink::new());
        let cfg = FlowConfig::new()
            .with_sink(sink.clone())
            .with_report_capture();
        cfg.obs().scoped("x").counter("c", 2);
        assert_eq!(sink.len(), 1, "original sink still sees events");
        let report = cfg.run_report().expect("capture installed");
        assert_eq!(report.events, 1);
        assert_eq!(report.counters["x:c"].sum, 2);
        assert_eq!(cfg.captured_events().len(), 1);
    }

    #[test]
    fn report_capture_works_without_a_sink() {
        let cfg = FlowConfig::new().with_report_capture();
        assert!(cfg.obs().enabled());
        cfg.obs().scoped("x").gauge("g", 1.5);
        assert_eq!(cfg.run_report().expect("capture installed").events, 1);
    }

    #[test]
    fn later_sink_replaces_the_capture() {
        assert!(FlowConfig::new().run_report().is_none());
        let cfg = FlowConfig::new()
            .with_report_capture()
            .with_sink(Arc::new(MemorySink::new()));
        assert!(cfg.run_report().is_none(), "capture no longer wired");
        assert!(cfg.captured_events().is_empty());
    }
}
