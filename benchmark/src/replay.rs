//! The traced run's stage-by-stage replays: one op of a workload driven
//! through the public functions the flow itself calls, in the flow's
//! order, with one span per call and the work counts taken from the
//! functions' own return values (`PlaceStats`, `RouteStats`, cache
//! lookups).
//!
//! The replays mirror `build_component_db_cached`, `build_component` and
//! `run_pre_implemented_flow` under the configuration the benchmark uses
//! (no Fmax target, planned partition pins, no lint gate, no FIFO
//! auto-sizing). `tests/replay_fidelity.rs` pins them to the program:
//! replayed checkpoints hash equal to `build_component_db`'s and the
//! replayed assembly's summary equals `run_pre_implemented_flow`'s.
//!
//! Some stages only exist *inside* a public function (`compose` places
//! and relocates, `route_assembled` runs STA, `run_baseline_flow`
//! synthesizes). Those are timed by a separate call after the op (a
//! *probe*) and recorded as derived children of the enclosing span, so
//! the replayed op's wall time stays the program's own.

use crate::metrics::Values;
use crate::trace::Tracer;
use crate::zoo::Net;
use pi_cnn::graph::Component;
use pi_cnn::Network;
use pi_fabric::Device;
use pi_flow::{
    pipeline_top_nets, plan_partpins, run_baseline_flow, size_pblock, BaselineReport, FlowConfig,
    FlowError, LatencyReport, PreImplReport,
};
use pi_model::ModelFormat;
use pi_netlist::{Checkpoint, CheckpointMeta, Design, Module};
use pi_obs::Obs;
use pi_pnr::{
    place_module_obs, route_assembled_obs, route_module_obs, sta_design, sta_module, PlaceOptions,
};
use pi_stitch::{
    cache_key, compose_obs, place_components, relocate_to, CacheLookup, ComponentDb,
    ComposeOptions, DbCache,
};
use pi_synth::{synth_component, synth_network_flat};
use std::path::Path;
use std::time::Instant;

/// What a replay writes into: the span recorder, the running counts, and
/// the telemetry handle handed to the program (a `MemorySink` in the
/// traced run, so `obs.events_per_op` can be counted).
pub struct Replay<'a> {
    pub tr: &'a mut Tracer,
    pub counts: &'a mut Values,
    pub obs: &'a Obs,
    pub device: &'a Device,
}

/// Running count of components whose seed sweep kept one seed — the
/// numerator of `flow.seed_useful_ratio` (seeds kept / seeds evaluated).
pub const SEEDS_KEPT: &str = "flow.seeds_kept";

fn diverged(what: &str) -> FlowError {
    FlowError::ComponentUnsatisfiable {
        component: what.to_string(),
        reason: "replay diverged from the program".to_string(),
    }
}

impl Replay<'_> {
    /// Time `f` as a span; an early `?` return still closes it.
    fn span<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.tr.open(name);
        let out = f(self);
        self.tr.close(id);
        out
    }

    /// Descriptor text -> network, as the op's first span.
    pub fn import(&mut self, net: &Net) -> Result<Network, String> {
        let name = match net.format {
            ModelFormat::Archdef => "cnn.parse_archdef",
            _ => "model.import",
        };
        self.span(name, |_| net.import())
    }

    /// `build_component` for one component: synthesize, size the pblock,
    /// then per seed plan pins, anneal, re-plan, route and time; keep the
    /// best-Fmax seed, lock, wrap as a checkpoint.
    fn build_component(
        &mut self,
        network: &Network,
        component: &Component,
        cfg: &FlowConfig,
    ) -> Result<Checkpoint, FlowError> {
        let (device, obs) = (self.device, self.obs);
        let proto = self.span("synth.component", |_| {
            synth_component(network, component, &cfg.synth)
        })?;
        self.counts.add("synth.component_ops", 1.0);
        let need = proto.resources();
        let pblock = self.span("flow.size_pblock", |_| {
            size_pblock(&need, device, cfg.pblock_utilization)
        })?;
        let mut best: Option<(f64, Module)> = None;
        for &seed in &cfg.seeds {
            let mut m = proto.clone();
            m.pblock = Some(pblock);
            self.span("flow.plan_partpins", |_| plan_partpins(&mut m, &pblock))?;
            let place = self.span("pnr.place_module", |_| {
                let opts = PlaceOptions {
                    seed,
                    effort: cfg.effort,
                    region: Some(pblock),
                };
                place_module_obs(&mut m, device, &opts, obs)
            })?;
            self.counts.add("pnr.anneal_moves", place.moves as f64);
            self.counts
                .add("pnr.anneal_accepted", place.accepted as f64);
            self.span("flow.plan_partpins", |_| plan_partpins(&mut m, &pblock))?;
            let (route, congestion) = self.span("pnr.route_module", |_| {
                route_module_obs(&mut m, device, &cfg.route, &obs.with_seed(seed))
            })?;
            self.counts
                .add("pnr.astar_expansions", route.expansions as f64);
            self.counts
                .add("pnr.route_iterations", route.iterations as f64);
            let timing = self.span("pnr.sta_module", |_| {
                sta_module(&m, device, Some(&congestion))
            })?;
            self.counts.add("flow.seeds_tried", 1.0);
            if best.as_ref().is_none_or(|(b, _)| timing.fmax_mhz > *b) {
                best = Some((timing.fmax_mhz, m));
            }
        }
        self.counts.add(SEEDS_KEPT, 1.0);
        let (fmax_mhz, mut module) = best.ok_or_else(|| diverged("no placement seeds supplied"))?;
        module.clock_prerouted = true;
        module.lock();
        let meta = CheckpointMeta {
            signature: component.signature(network),
            fmax_mhz,
            resources: need,
            pblock,
            device: device.name().to_string(),
            latency_cycles: pi_cnn::cycles::component_pipeline_depth(network, component)?,
        };
        Ok(Checkpoint { meta, module })
    }

    /// `build_component_db_cached` against `db_dir`: open the cache, look
    /// every component up, build the misses, persist them. On an empty
    /// directory this is the cold function-optimization phase; on a
    /// populated one it is the warm load.
    pub fn component_db(
        &mut self,
        network: &Network,
        cfg: &FlowConfig,
        db_dir: &Path,
    ) -> Result<ComponentDb, FlowError> {
        self.span("flow.function_opt", |this| {
            let (device, obs) = (this.device, this.obs);
            let components =
                this.span("cnn.components", |_| network.components(cfg.granularity))?;
            let mut cache = this.span("stitch.cache_open", |_| DbCache::open(db_dir, obs))?;
            let fingerprint = cfg.cache_fingerprint();
            let mut db = ComponentDb::new();
            let mut missing: Vec<(&Component, String)> = Vec::new();
            for c in &components {
                let key = cache_key(&c.signature(network), device.name(), fingerprint);
                match this.span("stitch.cache_lookup", |_| cache.lookup(&key, obs)) {
                    CacheLookup::Hit { checkpoint, bytes } => {
                        this.counts.add("stitch.cache_hits", 1.0);
                        this.counts.add("stitch.cache_bytes_loaded", bytes as f64);
                        db.insert(*checkpoint);
                    }
                    CacheLookup::Miss => {
                        this.counts.add("stitch.cache_misses", 1.0);
                        missing.push((c, key));
                    }
                    CacheLookup::Invalidated { .. } => {
                        this.counts.add("stitch.cache_misses", 1.0);
                        this.counts.add("stitch.cache_invalidations", 1.0);
                        missing.push((c, key));
                    }
                }
            }
            for (component, key) in missing {
                let cp = this.build_component(network, component, cfg)?;
                this.span("stitch.cache_insert", |_| cache.insert(&key, &cp, obs))?;
                db.insert(cp);
            }
            Ok(db)
        })
    }

    /// Probe the serialization layer on every checkpoint of `db`:
    /// `to_versioned_json`, `from_versioned_json` and `content_hash` are
    /// what `DbCache::insert` / `lookup` spend their time in, but run
    /// inside them. Call it outside any op.
    pub fn probe_checkpoints(&mut self, db: &ComponentDb) -> Result<(), FlowError> {
        for cp in db.checkpoints() {
            let json = self.span("netlist.dcp_encode", |_| cp.to_versioned_json())?;
            self.counts.add("netlist.dcp_mb", json.len() as f64 / 1e6);
            let back = self.span("netlist.dcp_decode", |_| {
                Checkpoint::from_versioned_json(&json)
            })?;
            let hash = self.span("netlist.content_hash", |_| back.content_hash());
            if hash != cp.content_hash() {
                return Err(diverged("checkpoint round-trip changed its hash"));
            }
        }
        Ok(())
    }

    /// `run_pre_implemented_flow`: extract, match, compose (place,
    /// relocate, stitch), pipeline the long links, route the
    /// inter-component nets, check the design, model the latency.
    pub fn assemble(
        &mut self,
        network: &Network,
        db: &ComponentDb,
        cfg: &FlowConfig,
    ) -> Result<(Design, PreImplReport), FlowError> {
        let (device, obs) = (self.device, self.obs);
        let t0 = Instant::now();
        let mut stitch_time = t0.elapsed();
        let (design, compose, compile, extra_cycles) = self.span("flow.arch_opt", |this| {
            let opts = ComposeOptions {
                granularity: cfg.granularity,
                placer: cfg.placer,
            };
            let (mut design, compose) = this.span("stitch.compose", |_| {
                compose_obs(network, db, device, &opts, obs)
            })?;
            let extra = this.span("flow.pipeline_top_nets", |_| pipeline_top_nets(&mut design));
            stitch_time = t0.elapsed();
            let compile = this.span("pnr.route_assembled", |_| {
                route_assembled_obs(&mut design, device, &cfg.route, obs)
            })?;
            let violations = this.span("stitch.check_design", |_| {
                pi_stitch::check_design(&design, device)
            })?;
            if !violations.is_empty() {
                return Err(FlowError::DrcFailed(violations));
            }
            Ok((design, compose, compile, extra))
        })?;
        let route_time = t0.elapsed() - stitch_time;
        self.counts
            .add("stitch.stitched_nets", compose.stitched_nets as f64);
        self.counts.add(
            "pnr.assembled_expansions",
            compile.route_stats.expansions as f64,
        );
        self.counts.add(
            "pnr.overused_tiles",
            compile.route_stats.overused_tiles as f64,
        );

        let latency = LatencyReport::for_assembled(
            network,
            cfg.granularity,
            db,
            compile.timing.fmax_mhz,
            extra_cycles,
        )?;
        let report = PreImplReport {
            compose,
            compile,
            stitch_time,
            route_time,
            latency,
            run_report: None,
            lint: None,
        };
        Ok((design, report))
    }

    /// Probes for the stages that only run inside `compose` and
    /// `route_assembled`: component placement, relocation and design STA
    /// are called once more on their own and attached as derived children
    /// of the spans the last [`Replay::assemble`] recorded. Call it
    /// outside the op.
    pub fn probe_assembly(
        &mut self,
        network: &Network,
        db: &ComponentDb,
        cfg: &FlowConfig,
        design: &Design,
        report: &PreImplReport,
    ) -> Result<(), FlowError> {
        let device = self.device;
        let compose_span = self.tr.last("stitch.compose").expect("assemble ran");
        let route_span = self.tr.last("pnr.route_assembled").expect("assemble ran");
        let components = network.components(cfg.granularity)?;
        let checkpoints: Vec<&Checkpoint> = components
            .iter()
            .map(|c| db.require(&c.signature(network)))
            .collect::<Result<_, _>>()?;
        let edges = component_edges(network, &components);
        let t = Instant::now();
        let placement = place_components(&checkpoints, &edges, device, &cfg.placer)?;
        let place_s = t.elapsed().as_secs_f64();
        if placement.anchors != report.compose.placement.anchors {
            return Err(diverged("component placement"));
        }
        let t = Instant::now();
        for (cp, anchor) in checkpoints.iter().zip(&placement.anchors) {
            std::hint::black_box(relocate_to(cp, device, *anchor)?);
        }
        let relocate_s = t.elapsed().as_secs_f64();
        self.tr
            .derived(compose_span, "stitch.place_components", place_s);
        self.tr.derived(compose_span, "stitch.relocate", relocate_s);
        // Without the router's congestion map (route_assembled keeps it),
        // so each hop's congestion term is skipped: an estimate.
        let t = Instant::now();
        std::hint::black_box(sta_design(design, device, None)?);
        self.tr
            .derived(route_span, "pnr.sta_design", t.elapsed().as_secs_f64());
        Ok(())
    }

    /// `run_baseline_flow`, read back through `CompileReport.phases`.
    pub fn flat(
        &mut self,
        network: &Network,
        cfg: &FlowConfig,
    ) -> Result<(Design, BaselineReport), FlowError> {
        let cfg = cfg.clone().with_obs(self.obs.clone());
        let device = self.device;
        let (design, report) = self.span("flow.baseline", |_| {
            run_baseline_flow(network, device, &cfg)
        })?;
        let span = self.tr.last("flow.baseline").expect("just recorded");
        let phases = &report.compile.phases;
        for (name, d) in [
            ("pnr.flat_place", phases.place_design),
            ("pnr.flat_phys_opt", phases.phys_opt_design),
            ("pnr.flat_route", phases.route_design),
        ] {
            self.tr.derived(span, name, d.as_secs_f64());
        }
        self.counts
            .add("pnr.flat_moves", report.compile.place_stats.moves as f64);
        self.counts.add(
            "pnr.flat_expansions",
            report.compile.route_stats.expansions as f64,
        );
        Ok((design, report))
    }
}

impl Replay<'_> {
    /// Probe for the monolithic synthesis inside `run_baseline_flow`,
    /// attached to the span the last [`Replay::flat`] recorded. Call it
    /// outside the op.
    pub fn probe_flat(&mut self, network: &Network, cfg: &FlowConfig) -> Result<(), FlowError> {
        let span = self.tr.last("flow.baseline").expect("flat ran");
        let t = Instant::now();
        std::hint::black_box(synth_network_flat(
            network,
            cfg.granularity,
            &cfg.synth.monolithic(),
        )?);
        self.tr
            .derived(span, "synth.flat", t.elapsed().as_secs_f64());
        Ok(())
    }
}

/// Component-adjacency edges of a network, in the order `compose`
/// derives them: one `(producer, consumer)` pair per distinct
/// cross-component graph edge.
fn component_edges(network: &Network, components: &[Component]) -> Vec<(usize, usize)> {
    let mut owner = std::collections::HashMap::new();
    for (ci, comp) in components.iter().enumerate() {
        for node in &comp.nodes {
            owner.insert(*node, ci);
        }
    }
    let mut edges: Vec<(usize, usize)> = Vec::new();
    for (a, b) in network.edges() {
        if let (Some(&ca), Some(&cb)) = (owner.get(a), owner.get(b)) {
            if ca != cb && !edges.contains(&(ca, cb)) {
                edges.push((ca, cb));
            }
        }
    }
    edges
}
