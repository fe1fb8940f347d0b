//! LeNet-5 end to end: the paper's first benchmark.
//!
//! Builds the component database (conv1 / pool1+relu1 / conv2 / pool2+relu2
//! / fc1 / fc2), persists it to disk as a directory of DCP files, reloads
//! it — the "performed exactly once, reused in several applications"
//! workflow — then generates the accelerator and compares it with the
//! monolithic baseline.
//!
//! ```text
//! cargo run --release --example lenet_accelerator
//! ```

use preimpl_cnn::prelude::*;

fn main() {
    let device = Device::xcku5p_like();
    let network = preimpl_cnn::cnn::models::lenet5();

    // Function optimization with a seed sweep (the paper's performance
    // exploration). The same config later drives the architecture phase and
    // the monolithic baseline (which derives its synthesis mode itself).
    let cfg = FlowConfig::new()
        .with_synth(SynthOptions::lenet_like())
        .with_seeds([1, 2, 3]);
    let (db, reports) = build_component_db(&network, &device, &cfg).expect("db builds");
    println!("pre-implemented components (Table III exploration):");
    for r in &reports {
        println!(
            "  {:14} {:6.0} MHz  latency {:3} cycles  (explored {} seeds in {:?})",
            r.name, r.fmax_mhz, r.latency_cycles, r.seeds_tried, r.build_time
        );
    }

    // Persist and reload the database — checkpoints are inspectable JSON
    // DCPs on disk.
    let dir = std::env::temp_dir().join("preimpl_cnn_lenet_db");
    db.save_dir(&dir).expect("db saves");
    let db = ComponentDb::load_dir(&dir).expect("db reloads");
    println!(
        "\ndatabase persisted to {} ({} checkpoints)",
        dir.display(),
        db.len()
    );

    // Generate the accelerator.
    let (design, pre) =
        run_pre_implemented_flow(&network, &db, &device, &cfg).expect("pre-implemented flow");
    println!(
        "\nassembled: Fmax {:.0} MHz, pipeline {:.0} ns, frame {:.3} ms, \
         stitching was {:.0}% of the {:.1} ms generation",
        pre.compile.timing.fmax_mhz,
        pre.latency.pipeline_ns,
        pre.latency.frame_ms,
        pre.stitch_share() * 100.0,
        pre.total_time().as_secs_f64() * 1000.0,
    );

    // Traditional baseline for the Fig. 6 / Table III comparison.
    let (_, base) = run_baseline_flow(&network, &device, &cfg).expect("baseline flow");
    println!("\n{}", FlowComparison::new(&network.name, &base, &pre));
    assert!(design.fully_routed());
}
