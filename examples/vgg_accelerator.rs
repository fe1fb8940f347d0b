//! VGG-16 end to end: the paper's large benchmark.
//!
//! The monolithic baseline takes ~30 s; pass `--full` to run it, otherwise
//! only the pre-implemented flow runs.
//!
//! ```text
//! cargo run --release --example vgg_accelerator -- --full
//! ```

use preimpl_cnn::prelude::*;

fn main() {
    let full = std::env::args().any(|a| a == "--full");
    let device = Device::xcku5p_like();
    let network = preimpl_cnn::cnn::models::vgg16();

    // Pre-implement the conv blocks / pools / FCs (block granularity — the
    // paper's VGG component split).
    let cfg = FlowConfig::new()
        .with_synth(SynthOptions::vgg_like())
        .with_granularity(Granularity::Block)
        .with_seeds([1, 2]);
    let t = std::time::Instant::now();
    let (db, reports) = build_component_db(&network, &device, &cfg).expect("db builds");
    println!(
        "\n{} components pre-implemented in {:.1} s:",
        db.len(),
        t.elapsed().as_secs_f64()
    );
    for r in &reports {
        println!(
            "  {:50} {:6.0} MHz  {:6} LUTs {:4} DSPs",
            truncate(&r.name, 50),
            r.fmax_mhz,
            r.resources.luts,
            r.resources.dsps
        );
    }

    let (design, pre) =
        run_pre_implemented_flow(&network, &db, &device, &cfg).expect("flow succeeds");
    let util = design.utilization(&device);
    println!(
        "\nassembled VGG-16: Fmax {:.0} MHz, frame latency {:.2} ms, \
         {:.1}% LUTs / {:.1}% DSPs, generated in {:.0} ms",
        pre.compile.timing.fmax_mhz,
        pre.latency.frame_ms,
        util.luts,
        util.dsps,
        pre.total_time().as_secs_f64() * 1000.0
    );

    if full {
        println!("\nrunning the monolithic baseline (~30 s)...");
        match run_baseline_flow(&network, &device, &cfg) {
            Ok((_, base)) => println!("{}", FlowComparison::new(&network.name, &base, &pre)),
            // The flat arm can fail the design check: the router could not
            // bring every tile within the device's track capacity.
            Err(e) => println!("baseline: no legal design ({e})"),
        }
    } else {
        println!("\n(pass --full to also run the ~30 s monolithic baseline)");
    }
}

fn truncate(s: &str, n: usize) -> &str {
    &s[..s.len().min(n)]
}
