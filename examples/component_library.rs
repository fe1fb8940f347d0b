//! Working with the component database directly: its on-disk form, matching,
//! relocation validity and manual composition — the RapidWright-level API
//! the flow is built on.
//!
//! ```text
//! cargo run --release --example component_library
//! ```

use preimpl_cnn::prelude::*;
use preimpl_cnn::stitch::{relocate_to, valid_anchor_columns};

fn main() {
    let device = Device::xcku5p_like();
    let network = preimpl_cnn::cnn::models::lenet5();
    let dir = std::env::temp_dir().join("preimpl_cnn_library_demo");
    let cfg = FlowConfig::new().with_seeds([1]).with_db_dir(&dir);
    let (db, _, _) = build_component_db_cached(&network, &device, &cfg).expect("db builds");

    // The database is keyed by component signature: kind + parameters +
    // input shape, everything that determines the hardware.
    println!("database signatures:");
    for sig in db.signatures() {
        println!("  {sig}");
    }

    // Pick the first convolution and explore where it can be relocated.
    let conv_sig = db
        .signatures()
        .find(|s| s.starts_with("conv"))
        .expect("lenet has convs")
        .to_string();
    let cp = db.get(&conv_sig).expect("just listed");
    let pb = cp.meta.pblock;
    let cols = valid_anchor_columns(&pb, &device);
    println!(
        "\n'{}' implemented in pblock {} ({}x{} tiles, {:.0} MHz)",
        conv_sig,
        pb,
        pb.width(),
        pb.height(),
        cp.meta.fmax_mhz
    );
    println!(
        "  column-compatible anchor offsets: {} positions, e.g. {:?}",
        cols.len(),
        &cols[..cols.len().min(6)]
    );

    // Relocate two replicas and stitch them into a two-stage design by hand
    // (what `compose_obs` automates).
    let a = relocate_to(cp, &device, TileCoord::new(pb.col_lo, 0)).expect("relocates");
    let drow = i32::from(pb.height()).max(8);
    let b = relocate_to(cp, &device, TileCoord::new(pb.col_lo, drow as u16)).expect("relocates");
    let mut design = Design::new(
        "twin_conv",
        device.name(),
        preimpl_cnn::netlist::DesignKind::Assembled,
    );
    let ia = design.add_instance("conv_a", a);
    let ib = design.add_instance("conv_b", b);
    let (dout, _) = design
        .instance(ia)
        .module
        .port_by_name("dout")
        .expect("port");
    let (din, _) = design
        .instance(ib)
        .module
        .port_by_name("din")
        .expect("port");
    design
        .connect_top("a_to_b", (ia, dout), vec![(ib, din)], 16)
        .expect("stitches");

    let report = preimpl_cnn::pnr::route_assembled_obs(
        &mut design,
        &device,
        &preimpl_cnn::pnr::RouteOptions::default(),
        &Obs::null(),
    )
    .expect("routes");
    println!(
        "\nhand-stitched twin-conv design: {:.0} MHz, {} unrouted nets left, \
         routed in {:?}",
        report.timing.fmax_mhz,
        design.unrouted_nets(),
        report.phases.route_design
    );

    // The on-disk form: one versioned JSON checkpoint per cache entry,
    // named by signature and cache key, indexed by `manifest.json`.
    let objects = dir.join("objects");
    println!("\ncheckpoints under {}:", objects.display());
    let mut files: Vec<String> = std::fs::read_dir(&objects)
        .expect("readable")
        .filter_map(|e| Some(e.ok()?.file_name().to_string_lossy().into_owned()))
        .collect();
    files.sort();
    for f in files {
        println!("  {f}");
    }
}
