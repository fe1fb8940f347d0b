//! Criterion benches for the RapidWright-analog layer: relocation,
//! component placement and full composition — the operations whose speed is
//! the pre-implemented flow's entire productivity story.

use criterion::{criterion_group, criterion_main, Criterion};
use pi_cnn::graph::Granularity;
use pi_fabric::{Device, TileCoord};
use pi_flow::{build_component_db, FlowConfig};
use pi_obs::Obs;
use pi_stitch::{compose_obs, place_components, ComponentPlacerOptions, ComposeOptions};

fn bench_stitching(c: &mut Criterion) {
    let device = Device::xcku5p_like();
    let network = pi_cnn::models::lenet5();
    let cfg = FlowConfig::new().with_seeds([1]);
    let (db, _) = build_component_db(&network, &device, &cfg).expect("db builds");

    // Relocation of the largest LeNet component.
    let biggest = db
        .checkpoints()
        .max_by_key(|cp| cp.meta.pblock.area())
        .expect("db non-empty")
        .clone();
    c.bench_function("stitch/relocate_largest_component", |b| {
        b.iter(|| {
            pi_stitch::relocate_to(&biggest, &device, TileCoord::new(66, 8)).expect("relocates")
        })
    });

    // Component placement (Eq. 1-3 + retry loop) over the LeNet chain.
    let comps = network.components(Granularity::Layer).expect("components");
    let sigs: Vec<String> = comps.iter().map(|c| c.signature(&network)).collect();
    let cps: Vec<&pi_netlist::Checkpoint> =
        sigs.iter().map(|s| db.get(s).expect("in db")).collect();
    let edges: Vec<(usize, usize)> = (0..cps.len() - 1).map(|i| (i, i + 1)).collect();
    c.bench_function("stitch/place_components_lenet", |b| {
        b.iter(|| {
            place_components(&cps, &edges, &device, &ComponentPlacerOptions::default())
                .expect("places")
        })
    });

    // Full composition (Algorithm 1).
    c.bench_function("stitch/compose_lenet", |b| {
        b.iter(|| {
            compose_obs(
                &network,
                &db,
                &device,
                &ComposeOptions::default(),
                &Obs::null(),
            )
            .expect("composes")
        })
    });
}

criterion_group!(benches, bench_stitching);
criterion_main!(benches);
