//! Runs every experiment and writes EXPERIMENTS.md at the workspace root.
//!
//! Usage: `cargo run -p pi-bench --release --bin all_experiments`
use std::fmt::Write as _;

fn main() {
    let started = std::time::Instant::now();
    let mut ctx = pi_bench::Ctx::new();
    let sections = pi_bench::experiments::all(&mut ctx);

    let mut out = String::new();
    out.push_str(
        "# EXPERIMENTS — paper vs. measured\n\n\
         Reproduction of every table and figure from *\"Exploring a Layer-based\n\
         Pre-implemented Flow for Mapping CNN on FPGA\"* (IPPS 2021) on the pure-Rust\n\
         toolflow in this repository. Regenerate with:\n\n\
         ```\n\
         cargo run -p pi-bench --release --bin all_experiments\n\
         ```\n\n\
         Absolute numbers come from this repository's device/delay models (the\n\
         substrate is a simulator, not the authors' Vivado + xcku5p testbed); the\n\
         comparisons to read are the *shapes*: who wins, by roughly what factor,\n\
         and which trends the paper reports. Known calibration offsets and paper\n\
         inconsistencies are noted inline under each artifact. All runs are\n\
         seeded and deterministic.\n\n\
         Test triage (seed repository): the only failures ever observed in the\n\
         seed tier-1 suite were build failures from the package registry being\n\
         unreachable in the build environment, not logic defects; all external\n\
         crates are now vendored as offline stand-ins under `vendor/`, and the\n\
         full workspace test suite passes with zero failures. The vendored\n\
         `rayon` stand-in runs a real worker pool (thread count from\n\
         `PI_THREADS`, default all cores); results and telemetry streams are\n\
         identical at every thread count, because parallel maps return in\n\
         input index order and per-item events are buffered and flushed in\n\
         that same order.\n\n",
    );
    for s in &sections {
        out.push_str(&s.render());
        out.push('\n');
    }
    let _ = writeln!(
        out,
        "---\nGenerated in {:.1} s on {} threads.",
        started.elapsed().as_secs_f64(),
        std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1)
    );

    // Workspace root = two levels above this crate's manifest.
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("workspace root exists")
        .to_path_buf();
    let path = root.join("EXPERIMENTS.md");
    std::fs::write(&path, &out).expect("EXPERIMENTS.md is writable");
    // Deterministic flowstat profile of everything the run emitted.
    let flowstat_path = root.join("target").join("experiments.flowstat.txt");
    let _ = std::fs::create_dir_all(root.join("target"));
    let _ = std::fs::write(&flowstat_path, ctx.run_report().render_text());
    println!("{out}");
    eprintln!("wrote {} and {}", path.display(), flowstat_path.display());
}
