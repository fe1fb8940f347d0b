//! Criterion benches for the supporting substrates: fixed-point inference,
//! synthesis elaboration and checkpoint serialization.

use criterion::{criterion_group, criterion_main, Criterion};
use pi_cnn::graph::Granularity;
use pi_cnn::infer::{forward, Weights};
use pi_cnn::Tensor;
use pi_synth::{synth_component, synth_network_flat, SynthOptions};

fn bench_inference(c: &mut Criterion) {
    let network = pi_cnn::models::lenet5();
    let weights = Weights::random(&network, 7).expect("weights");
    let input = Tensor::zeros(1, 32, 32);
    c.bench_function("infer/lenet_forward", |b| {
        b.iter(|| forward(&network, &weights, &input).expect("forward"))
    });

    let tiny = pi_cnn::models::vgg_tiny();
    let tweights = Weights::random(&tiny, 7).expect("weights");
    let tinput = Tensor::zeros(3, 32, 32);
    c.bench_function("infer/vgg_tiny_forward", |b| {
        b.iter(|| forward(&tiny, &tweights, &tinput).expect("forward"))
    });
}

fn bench_synthesis(c: &mut Criterion) {
    let network = pi_cnn::models::lenet5();
    let comps = network.components(Granularity::Layer).expect("components");
    c.bench_function("synth/lenet_conv1_component", |b| {
        b.iter(|| synth_component(&network, &comps[0], &SynthOptions::lenet_like()).expect("synth"))
    });
    let mut group = c.benchmark_group("synth/monolithic");
    group.sample_size(10);
    group.bench_function("lenet_flat", |b| {
        b.iter(|| {
            synth_network_flat(
                &network,
                Granularity::Layer,
                &SynthOptions::lenet_like().monolithic(),
            )
            .expect("synth")
        })
    });
    group.finish();
}

fn bench_checkpoints(c: &mut Criterion) {
    let network = pi_cnn::models::lenet5();
    let comps = network.components(Granularity::Layer).expect("components");
    let module = synth_component(&network, &comps[0], &SynthOptions::lenet_like()).expect("synth");
    let cp = pi_netlist::Checkpoint {
        meta: pi_netlist::CheckpointMeta {
            signature: comps[0].signature(&network),
            fmax_mhz: 500.0,
            resources: module.resources(),
            pblock: pi_fabric::Pblock::new(1, 64, 0, 63),
            device: "xcku5p-like".to_string(),
            latency_cycles: 34,
        },
        module,
    };
    let json = cp.to_json().expect("serializes");
    c.bench_function("dcp/serialize_conv1", |b| {
        b.iter(|| cp.to_json().expect("serializes"))
    });
    c.bench_function("dcp/deserialize_conv1", |b| {
        b.iter(|| pi_netlist::Checkpoint::from_json(&json).expect("parses"))
    });
}

criterion_group!(benches, bench_inference, bench_synthesis, bench_checkpoints);
criterion_main!(benches);
