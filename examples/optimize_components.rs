//! The paper's future work, implemented: iteratively re-optimize the
//! slowest component of the database (the one that bounds the assembled
//! frequency), then re-generate the accelerator and verify it with the
//! design-rule checker.
//!
//! ```text
//! cargo run --release --example optimize_components
//! ```

use preimpl_cnn::flow::improve_slowest;
use preimpl_cnn::prelude::*;
use preimpl_cnn::stitch::check_design;

fn main() {
    let device = Device::xcku5p_like();
    let network = preimpl_cnn::cnn::models::lenet5();

    // A deliberately shallow first pass: one placement seed per component.
    let cfg = FlowConfig::new()
        .with_synth(SynthOptions::lenet_like())
        .with_seeds([1]);
    let (mut db, reports) = build_component_db(&network, &device, &cfg).expect("db builds");
    let floor = |db: &ComponentDb| {
        db.checkpoints()
            .map(|cp| cp.meta.fmax_mhz)
            .fold(f64::INFINITY, f64::min)
    };
    println!("after the single-seed pass:");
    for r in &reports {
        println!("  {:14} {:6.0} MHz", r.name, r.fmax_mhz);
    }
    let before = floor(&db);
    println!("slowest component: {before:.0} MHz");

    // "We are planning to investigate optimization approaches to improve
    // the performance of components during the function optimization
    // stage" — three targeted rounds on whatever is slowest.
    let improvements = improve_slowest(&mut db, &network, &device, &cfg, 3).expect("rounds run");
    println!(
        "\ntargeted re-exploration made {} improvement(s):",
        improvements.len()
    );
    for imp in &improvements {
        println!(
            "  {:14} -> {:6.0} MHz ({} seeds)",
            imp.name, imp.fmax_mhz, imp.seeds_tried
        );
    }
    let after = floor(&db);
    println!("slowest component: {before:.0} -> {after:.0} MHz");
    assert!(after >= before);

    // Regenerate and verify.
    let (design, report) =
        run_pre_implemented_flow(&network, &db, &device, &cfg).expect("flow succeeds");
    let violations = check_design(&design, &device).expect("drc runs");
    println!(
        "\nassembled: {:.0} MHz, DRC violations: {}",
        report.compile.timing.fmax_mhz,
        violations.len()
    );
    assert!(violations.is_empty());
}
