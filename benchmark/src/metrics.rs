//! The benchmark's vocabulary — workload and metric names with their
//! units — plus the small statistics it reports them with.
//!
//! `BENCHMARK.json` at the repository root declares the same names with
//! directions and regression bounds; the full run and `repeat.sh --quick`
//! fail when the two lists drift apart.

use std::collections::BTreeMap;

/// Workloads, in the order the full run executes them.
pub const WORKLOADS: [&str; 5] = [
    "cold_vgg16",
    "warm_zoo",
    "assemble_zoo",
    "flat_zoo",
    "serve_mix",
];

/// End-to-end metrics `(name, unit)`, reported by every workload with
/// tracing off.
pub const END_TO_END: [(&str, &str); 7] = [
    ("setup_s", "s"),
    ("e2e_s", "s"),
    ("e2e_tail_s", "s"),
    ("jobs_per_s", "1/s"),
    ("cpu_s_per_op", "s"),
    ("fmax_mhz", "MHz"),
    ("frames_per_s", "1/s"),
];

/// Per-layer metrics `(name, unit)`, reported by the traced run. The
/// prefix is the crate (layer) the number belongs to. A layer that is not
/// on a workload's path reports 0 there — that *is* the "none" prediction
/// of the README's layer table.
pub const PER_LAYER: [(&str, &str); 69] = [
    ("fabric.device_build_ms", "ms"),
    ("model.import_us", "us"),
    ("cnn.parse_archdef_us", "us"),
    ("cnn.components_us", "us"),
    ("synth.component_s", "s"),
    ("synth.component_ops", "count"),
    ("synth.flat_s", "s"),
    ("flow.function_opt_s", "s"),
    ("flow.size_pblock_s", "s"),
    ("flow.plan_partpins_s", "s"),
    ("flow.seeds_tried", "count"),
    ("flow.seed_useful_ratio", "ratio"),
    ("flow.arch_opt_s", "s"),
    ("flow.pipeline_top_nets_us", "us"),
    ("flow.baseline_s", "s"),
    ("pnr.place_module_s", "s"),
    ("pnr.anneal_moves", "count"),
    ("pnr.anneal_accepted", "count"),
    ("pnr.anneal_accept_ratio", "ratio"),
    ("pnr.anneal_moves_per_s", "1/s"),
    ("pnr.route_module_s", "s"),
    ("pnr.astar_expansions", "count"),
    ("pnr.route_iterations", "count"),
    ("pnr.expansions_per_s", "1/s"),
    ("pnr.sta_module_s", "s"),
    ("pnr.route_assembled_s", "s"),
    ("pnr.sta_design_s", "s"),
    ("pnr.assembled_expansions", "count"),
    ("pnr.overused_tiles", "count"),
    ("pnr.flat_place_s", "s"),
    ("pnr.flat_phys_opt_s", "s"),
    ("pnr.flat_route_s", "s"),
    ("pnr.flat_moves", "count"),
    ("pnr.flat_expansions", "count"),
    ("netlist.dcp_encode_s", "s"),
    ("netlist.dcp_decode_s", "s"),
    ("netlist.content_hash_s", "s"),
    ("netlist.dcp_mb", "MB"),
    ("stitch.cache_open_s", "s"),
    ("stitch.cache_lookup_s", "s"),
    ("stitch.cache_lookup_mb_per_s", "MB/s"),
    ("stitch.cache_insert_s", "s"),
    ("stitch.cache_hits", "count"),
    ("stitch.cache_misses", "count"),
    ("stitch.cache_invalidations", "count"),
    ("stitch.cache_bytes_loaded", "bytes"),
    ("stitch.place_components_s", "s"),
    ("stitch.relocate_s", "s"),
    ("stitch.compose_s", "s"),
    ("stitch.check_design_s", "s"),
    ("stitch.stitched_nets", "count"),
    ("serve.healthz_rtt_ms", "ms"),
    ("serve.submit_ms", "ms"),
    ("serve.result_fetch_ms", "ms"),
    ("serve.spec_encode_us", "us"),
    ("serve.hit_ms", "ms"),
    ("serve.warm_ms", "ms"),
    ("serve.cold_ms", "ms"),
    ("serve.solo_warm_ms", "ms"),
    ("serve.polls_per_job", "count"),
    ("serve.coalesced", "count"),
    ("serve.rejected", "count"),
    ("serve.cache_hits", "count"),
    ("serve.cache_misses", "count"),
    ("obs.trace_overhead_ratio", "ratio"),
    ("obs.events_per_op", "count"),
    ("obs.layer_coverage_ratio", "ratio"),
    ("obs.replay_op_s", "s"),
    ("obs.reference_op_s", "s"),
];

/// Per-layer metrics that count work rather than time: two runs of the
/// same tree and seed must report them *equal* (`repeat.sh`).
pub const WORK_COUNTERS: [&str; 20] = [
    "synth.component_ops",
    "flow.seeds_tried",
    "flow.seed_useful_ratio",
    "pnr.anneal_moves",
    "pnr.anneal_accepted",
    "pnr.anneal_accept_ratio",
    "pnr.astar_expansions",
    "pnr.route_iterations",
    "pnr.assembled_expansions",
    "pnr.overused_tiles",
    "pnr.flat_moves",
    "pnr.flat_expansions",
    "netlist.dcp_mb",
    "stitch.cache_hits",
    "stitch.cache_misses",
    "stitch.cache_invalidations",
    "stitch.cache_bytes_loaded",
    "stitch.stitched_nets",
    "serve.cache_misses",
    "obs.events_per_op",
];

/// End-to-end metrics that are a pure function of the tree and the seed.
pub const DETERMINISTIC: [&str; 2] = ["fmax_mhz", "frames_per_s"];

/// Named values of one run; missing names read as 0.
#[derive(Debug, Clone, Default)]
pub struct Values(pub BTreeMap<&'static str, f64>);

impl Values {
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    pub fn add(&mut self, name: &'static str, value: f64) {
        *self.0.entry(name).or_insert(0.0) += value;
    }

    pub fn get(&self, name: &str) -> f64 {
        self.0.get(name).copied().unwrap_or(0.0)
    }
}

/// `a / b`, or 0 when nothing was measured.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b > 0.0 {
        a / b
    } else {
        0.0
    }
}

pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    ratio(samples.iter().sum(), samples.len() as f64)
}

/// The highest percentile that still has ten samples beyond it, as
/// `(value, percentile)`. With fewer than twenty samples no tail can be
/// told from noise and `centre` stands in (percentile 50).
///
/// A fixed p90 was tried and dropped: over the 60-80 jobs a `serve_mix`
/// run completes it is the eighth-slowest job, which lands among the few
/// jobs queued behind a 1.1 s VGG job and moved 36 % between runs; the
/// eleventh-slowest sits in the dense cold-build cluster (7-20 %).
pub fn tail(samples: &[f64], centre: f64) -> (f64, f64) {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        n if n < 20 => (centre, 50.0),
        n => (s[n - 11], 100.0 * (n - 10) as f64 / n as f64),
    }
}

pub fn geomean(values: &[f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    (values.iter().map(|v| v.ln()).sum::<f64>() / values.len() as f64).exp()
}

/// User + system CPU seconds this process (all threads) has consumed,
/// from `/proc/self/stat`. Linux reports these in clock ticks of 1/100 s
/// on every supported configuration (`USER_HZ`).
pub fn cpu_seconds() -> f64 {
    const USER_HZ: f64 = 100.0;
    let stat = std::fs::read_to_string("/proc/self/stat").unwrap_or_default();
    // Fields after the parenthesised command name, which may hold spaces.
    let rest = stat.rsplit_once(')').map(|(_, r)| r).unwrap_or("");
    let mut fields = rest.split_whitespace().skip(11);
    let ticks = |f: Option<&str>| f.and_then(|t| t.parse::<f64>().ok()).unwrap_or(0.0);
    let utime = ticks(fields.next());
    let stime = ticks(fields.next());
    (utime + stime) / USER_HZ
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(tail(&s, 50.5), (90.0, 90.0));
        assert_eq!(tail(&s[..5], 3.0), (3.0, 50.0));
        assert_eq!(median(&s), 50.5);
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(&PER_LAYER).map(|m| m.0).collect();
        names.extend(WORKLOADS);
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n);
        for c in WORK_COUNTERS {
            assert!(PER_LAYER.iter().any(|m| m.0 == c), "{c}");
        }
    }
}
