//! Criterion benches for the implementation backend: placer, router, STA
//! and the phys_opt pass, at component and network scale.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use pi_cnn::graph::Granularity;
use pi_fabric::{Device, Pblock};
use pi_obs::Obs;
use pi_pnr::{place_module_obs, route_module_obs, sta_module, PlaceOptions, RouteOptions};
use pi_synth::{synth_component, synth_network_flat, SynthOptions};

fn lenet_component(idx: usize) -> pi_netlist::Module {
    let network = pi_cnn::models::lenet5();
    let comps = network.components(Granularity::Layer).expect("components");
    synth_component(&network, &comps[idx], &SynthOptions::lenet_like()).expect("synthesizes")
}

fn bench_placer(c: &mut Criterion) {
    let device = Device::xcku5p_like();
    let conv1 = lenet_component(0);
    let pblock = Pblock::new(1, 64, 0, 63);
    c.bench_function("place/lenet_conv1_in_pblock", |b| {
        b.iter_batched(
            || conv1.clone(),
            |mut m| {
                m.pblock = Some(pblock);
                place_module_obs(
                    &mut m,
                    &device,
                    &PlaceOptions {
                        seed: 1,
                        effort: 1.0,
                        region: Some(pblock),
                    },
                    &Obs::null(),
                )
                .expect("places")
            },
            BatchSize::LargeInput,
        )
    });

    let flat = synth_network_flat(
        &pi_cnn::models::lenet5(),
        Granularity::Layer,
        &SynthOptions::lenet_like().monolithic(),
    )
    .expect("synthesizes");
    let mut group = c.benchmark_group("place/lenet_monolithic");
    group.sample_size(10);
    group.bench_function("effort_1", |b| {
        b.iter_batched(
            || flat.clone(),
            |mut m| {
                place_module_obs(
                    &mut m,
                    &device,
                    &PlaceOptions {
                        seed: 1,
                        effort: 1.0,
                        region: None,
                    },
                    &Obs::null(),
                )
                .expect("places")
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

fn bench_router_and_sta(c: &mut Criterion) {
    let device = Device::xcku5p_like();
    let mut placed = lenet_component(0);
    let pblock = Pblock::new(1, 64, 0, 63);
    placed.pblock = Some(pblock);
    place_module_obs(
        &mut placed,
        &device,
        &PlaceOptions {
            seed: 1,
            effort: 1.0,
            region: Some(pblock),
        },
        &Obs::null(),
    )
    .expect("places");

    c.bench_function("route/lenet_conv1", |b| {
        b.iter_batched(
            || placed.clone(),
            |mut m| {
                route_module_obs(&mut m, &device, &RouteOptions::default(), &Obs::null())
                    .expect("routes")
            },
            BatchSize::LargeInput,
        )
    });

    let mut routed = placed.clone();
    let (_, congestion) =
        route_module_obs(&mut routed, &device, &RouteOptions::default(), &Obs::null())
            .expect("routes");
    c.bench_function("sta/lenet_conv1", |b| {
        b.iter(|| sta_module(&routed, &device, Some(&congestion)).expect("sta"))
    });
}

criterion_group!(benches, bench_placer, bench_router_and_sta);
criterion_main!(benches);
