//! Property-based and integration tests of the `pi-lint` pass manager:
//! injected defects are always caught, the bundled models lint clean, and
//! reports render byte-identically regardless of worker-thread count.

use preimpl_cnn::cnn::archdef::to_archdef;
use preimpl_cnn::lint::{LintConfig, LintEngine};
use preimpl_cnn::netlist::{Cell, CellKind, Endpoint, ModuleBuilder, StreamRole};
use preimpl_cnn::prelude::*;
use proptest::prelude::*;

fn engine() -> LintEngine {
    LintEngine::new(LintConfig::new())
}

/// A clean N-stage registered pipeline module: `din -> c0 -> … -> dout`.
fn chain_module(stages: usize, defect: Defect) -> preimpl_cnn::netlist::Module {
    let mut b = ModuleBuilder::new("chain");
    let din = b.input("din", StreamRole::Source, 8);
    let out_width = if matches!(defect, Defect::WidenOutput) {
        16
    } else {
        8
    };
    let dout = b.output("dout", StreamRole::Sink, out_width);
    let cells: Vec<_> = (0..stages)
        .map(|i| b.cell(Cell::new(format!("c{i}"), CellKind::full_slice())))
        .collect();
    if !matches!(defect, Defect::CutInputNet) {
        b.connect("n_in", Endpoint::Port(din), [Endpoint::Cell(cells[0])]);
    }
    for i in 1..stages {
        b.connect(
            format!("n{i}"),
            Endpoint::Cell(cells[i - 1]),
            [Endpoint::Cell(cells[i])],
        );
    }
    match defect {
        Defect::CutOutputNet => {}
        Defect::DoubleDriveOutput => {
            b.connect(
                "n_out_a",
                Endpoint::Cell(cells[stages - 1]),
                [Endpoint::Port(dout)],
            );
            b.connect("n_out_b", Endpoint::Cell(cells[0]), [Endpoint::Port(dout)]);
        }
        Defect::WidenOutput => {
            // An 8-bit producer port driving the 16-bit output through a
            // port-to-port feedthrough module would be caught at the
            // design level; inside one module the mismatch is between the
            // input and output port of a direct feedthrough net.
            b.connect(
                "n_out",
                Endpoint::Cell(cells[stages - 1]),
                [Endpoint::Port(dout)],
            );
            b.connect("thru", Endpoint::Port(din), [Endpoint::Port(dout)]);
        }
        Defect::CombLoop => {
            b.connect(
                "n_out",
                Endpoint::Cell(cells[stages - 1]),
                [Endpoint::Port(dout)],
            );
            let x = b.cell(Cell::new("loop_x", CellKind::full_slice()).combinational());
            let y = b.cell(Cell::new("loop_y", CellKind::full_slice()).combinational());
            b.connect("l0", Endpoint::Cell(x), [Endpoint::Cell(y)]);
            b.connect("l1", Endpoint::Cell(y), [Endpoint::Cell(x)]);
            // Keep the loop reachable so PL0106 does not fire instead.
            b.connect("l2", Endpoint::Cell(cells[0]), [Endpoint::Cell(x)]);
        }
        Defect::CutInputNet => {
            b.connect(
                "n_out",
                Endpoint::Cell(cells[stages - 1]),
                [Endpoint::Port(dout)],
            );
        }
    }
    b.finish().expect("module builds")
}

#[derive(Debug, Clone, Copy)]
enum Defect {
    CutInputNet,
    CutOutputNet,
    DoubleDriveOutput,
    WidenOutput,
    CombLoop,
}

impl Defect {
    fn expected_code(self) -> &'static str {
        match self {
            Defect::CutInputNet => "PL0102",
            Defect::CutOutputNet => "PL0103",
            Defect::DoubleDriveOutput => "PL0101",
            Defect::WidenOutput => "PL0104",
            Defect::CombLoop => "PL0105",
        }
    }
}

const DEFECTS: [Defect; 5] = [
    Defect::CutInputNet,
    Defect::CutOutputNet,
    Defect::DoubleDriveOutput,
    Defect::WidenOutput,
    Defect::CombLoop,
];

proptest! {
    /// Every injected netlist defect class is caught with its stable
    /// code, at any pipeline depth.
    #[test]
    fn injected_netlist_defects_always_caught(
        stages in 2usize..8,
        defect_idx in 0usize..DEFECTS.len(),
    ) {
        let defect = DEFECTS[defect_idx];
        let m = chain_module(stages, defect);
        let report = engine().lint_module("module:chain", &m, &Obs::null());
        let codes: Vec<_> = report.diagnostics.iter().map(|d| d.code).collect();
        prop_assert!(
            codes.contains(&defect.expected_code()),
            "{defect:?} must raise {}: got {codes:?}",
            defect.expected_code()
        );
    }

    /// Corrupting one layer parameter of a bundled model always raises a
    /// graph-family diagnostic: an oversized kernel breaks shape
    /// propagation (PL0201), a zeroed parameter is degenerate (PL0205).
    #[test]
    fn shape_corrupted_archdef_always_caught(
        pick in 0usize..100,
        zero_idx in 0usize..2,
    ) {
        let zero = zero_idx == 1;
        let text = to_archdef(&models::lenet5());
        let conv_lines: Vec<usize> = text
            .lines()
            .enumerate()
            .filter(|(_, l)| l.starts_with("conv "))
            .map(|(i, _)| i)
            .collect();
        let target = conv_lines[pick % conv_lines.len()];
        let corrupted: String = text
            .lines()
            .enumerate()
            .map(|(i, l)| {
                if i == target {
                    let mut l = l.to_string();
                    let from = l.find("kernel=").expect("conv line has kernel");
                    let end = l[from..].find(' ').map(|e| from + e).unwrap_or(l.len());
                    let with = if zero { "kernel=0" } else { "kernel=999" };
                    l.replace_range(from..end, with);
                    l + "\n"
                } else {
                    l.to_string() + "\n"
                }
            })
            .collect();
        let network = parse_archdef_lenient(&corrupted).expect("still syntactically valid");
        let report = engine().lint_network(&network, Granularity::Layer, &Obs::null());
        let codes: Vec<_> = report.diagnostics.iter().map(|d| d.code).collect();
        let expected = if zero { "PL0205" } else { "PL0201" };
        prop_assert!(
            codes.contains(&expected),
            "corrupting line {target} must raise {expected}: got {codes:?}"
        );
    }
}

#[test]
fn bundled_models_lint_clean_at_both_granularities() {
    let e = engine();
    for network in [models::lenet5(), models::vgg16(), models::alexnet_like()] {
        for granularity in [Granularity::Layer, Granularity::Block] {
            let report = e.lint_network(&network, granularity, &Obs::null());
            assert!(
                report.is_clean() && report.warnings() == 0,
                "{} at {granularity:?}: {}",
                network.name,
                report.render_text()
            );
        }
    }
}

/// Pre-implement a small network once for the checkpoint-family tests.
fn smoke_db() -> (Device, Network, ComponentDb) {
    let device = Device::xcku5p_like();
    let network =
        parse_archdef("network smoke\ninput 1x16x16\nconv c kernel=3 out=4\nfc f out=8\n").unwrap();
    let cfg = FlowConfig::new().with_seeds([1]);
    let (db, _) = build_component_db(&network, &device, &cfg).unwrap();
    (device, network, db)
}

#[test]
fn synthesized_db_lints_clean_and_contract_breaks_are_caught() {
    let (device, network, db) = smoke_db();
    let e = engine();
    let clean = e.lint_db_for_network(
        &network,
        Granularity::Layer,
        &db,
        Some(&device),
        &Obs::null(),
    );
    assert!(
        clean.is_clean() && clean.warnings() == 0,
        "{}",
        clean.render_text()
    );

    let cp = db.checkpoints().next().unwrap().clone();

    // Unlocked checkpoint (the API cannot produce one; emulate an
    // upstream bug through the serde envelope).
    let mut json = serde_json::to_value(&cp);
    json["module"]["locked"] = serde_json::Value::Bool(false);
    let unlocked: Checkpoint = serde_json::from_value(json).unwrap();
    let report = e.lint_checkpoint(&unlocked, Some(&device), &Obs::null());
    let codes: Vec<_> = report.diagnostics.iter().map(|d| d.code).collect();
    assert!(codes.contains(&"PL0302"), "{codes:?}");

    // Partition pin off the pblock boundary ring.
    let mut json = serde_json::to_value(&cp);
    json["module"]["locked"] = serde_json::Value::Bool(false);
    let mut m: Module = serde_json::from_value(json["module"].clone()).unwrap();
    let pb = m.pblock.expect("checkpoint module has a pblock");
    let interior = preimpl_cnn::fabric::TileCoord::new(pb.col_lo + 1, pb.row_lo + 1);
    m.ports_mut().unwrap()[0].partpin = Some(interior);
    m.lock();
    let mut broken = cp.clone();
    broken.module = m;
    let report = e.lint_checkpoint(&broken, Some(&device), &Obs::null());
    let codes: Vec<_> = report.diagnostics.iter().map(|d| d.code).collect();
    assert!(codes.contains(&"PL0304"), "{codes:?}");

    // Wrong target device in the metadata.
    let mut wrong = cp.clone();
    wrong.meta.device = "some-other-part".to_string();
    let report = e.lint_checkpoint(&wrong, Some(&device), &Obs::null());
    let codes: Vec<_> = report.diagnostics.iter().map(|d| d.code).collect();
    assert!(codes.contains(&"PL0306"), "{codes:?}");

    // Model next to measurement: an envelope whose recorded latency or
    // DSP count is not what the rate model says of the component it
    // serves (one field perturbed through the serde envelope).
    for (field, origin) in [
        (vec!["latency_cycles"], "/latency_cycles"),
        (vec!["resources", "dsps"], "/dsps"),
    ] {
        let mut json = serde_json::to_value(&cp);
        let mut slot = &mut json["meta"];
        for key in &field {
            slot = &mut slot[*key];
        }
        let serde_json::Value::U64(measured) = *slot else {
            panic!("{field:?} is not an integer: {slot:?}");
        };
        *slot = serde_json::Value::U64(measured + 1);
        let mut drifted = db.clone();
        drifted.insert(serde_json::from_value(json).unwrap());
        let report = e.lint_db_for_network(
            &network,
            Granularity::Layer,
            &drifted,
            Some(&device),
            &Obs::null(),
        );
        assert!(
            report.diagnostics.iter().any(|d| d.code == "PL0307"
                && d.origin.ends_with(origin)
                && d.message.contains("rate model")),
            "{field:?}: {}",
            report.render_text()
        );
    }
}

#[test]
fn lint_reports_render_byte_identically_across_thread_counts() {
    let (device, network, db) = smoke_db();
    let e = engine();
    let mut renders = Vec::new();
    for threads in [1usize, 4] {
        rayon::set_num_threads(threads);
        let mut report = e.lint_db_for_network(
            &network,
            Granularity::Layer,
            &db,
            Some(&device),
            &Obs::null(),
        );
        report.merge(e.lint_network(&models::vgg16(), Granularity::Layer, &Obs::null()));
        renders.push((report.render_text(), report.render_json()));
    }
    assert_eq!(
        renders[0], renders[1],
        "lint output depends on thread count"
    );
}

/// Lint a JSON model descriptor through the engine's model pass.
fn lint_descriptor(text: &str) -> (Option<Network>, LintReport) {
    engine().lint_model(
        text,
        preimpl_cnn::model::ModelFormat::Json,
        Granularity::Layer,
        &Obs::null(),
    )
}

#[test]
fn model_descriptor_defects_raise_the_pl015x_family() {
    // PL0150: unknown op is an error, located at the node, with the
    // nearest supported op suggested.
    let (net, report) = lint_descriptor(
        r#"{
  "name": "x",
  "input": {"name": "input", "shape": [1, 8, 8]},
  "nodes": [{"name": "c", "op": "Convolve", "inputs": ["input"]}],
  "outputs": ["c"]
}"#,
    );
    assert!(net.is_none());
    assert!(report.gate(false), "PL0150 must deny by default");
    let d = &report.diagnostics[0];
    assert_eq!(d.code, "PL0150");
    assert!(d.origin.starts_with("model:nodes[0]"), "{}", d.origin);
    assert!(
        d.message.contains("Conv"),
        "no suggestion in {:?}",
        d.message
    );

    // PL0151: a BatchNorm that cannot fold into a producing Conv is a
    // warning — the import still succeeds (BN treated as identity).
    let (net, report) = lint_descriptor(
        r#"{
  "name": "x",
  "input": {"name": "input", "shape": [1, 8, 8]},
  "nodes": [
    {"name": "r", "op": "Relu", "inputs": ["input"]},
    {"name": "bn", "op": "BatchNormalization", "inputs": ["r"]},
    {"name": "f", "op": "Gemm", "inputs": ["bn"], "attrs": {"out": 4}}
  ],
  "outputs": ["f"]
}"#,
    );
    assert!(net.is_some());
    assert!(!report.gate(false) && report.gate(true), "PL0151 warns");
    assert!(report.diagnostics.iter().any(|d| d.code == "PL0151"));

    // PL0152: joining branches with different channel counts is an error
    // located at the join node.
    let (net, report) = lint_descriptor(
        r#"{
  "name": "x",
  "input": {"name": "input", "shape": [1, 8, 8]},
  "nodes": [
    {"name": "a", "op": "Conv", "inputs": ["input"], "attrs": {"kernel": 1, "out": 2}},
    {"name": "b", "op": "Conv", "inputs": ["input"], "attrs": {"kernel": 1, "out": 3}},
    {"name": "j", "op": "Add", "inputs": ["a", "b"]}
  ],
  "outputs": ["j"]
}"#,
    );
    assert!(net.is_none());
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == "PL0152")
        .expect("join mismatch raised");
    assert!(d.origin.contains("nodes[2]"), "{}", d.origin);

    // PL0153: structural malformation (a dangling edge) is an error
    // located at the referencing field.
    let (net, report) = lint_descriptor(
        r#"{
  "name": "x",
  "input": {"name": "input", "shape": [1, 8, 8]},
  "nodes": [{"name": "r", "op": "Relu", "inputs": ["ghost"]}],
  "outputs": ["r"]
}"#,
    );
    assert!(net.is_none());
    let d = report
        .diagnostics
        .iter()
        .find(|d| d.code == "PL0153")
        .expect("dangling edge raised");
    assert!(d.origin.contains("inputs"), "{}", d.origin);

    // Every PL015x code sits in the registry with the right default.
    for (code, level) in [
        ("PL0150", Level::Deny),
        ("PL0151", Level::Warn),
        ("PL0152", Level::Deny),
        ("PL0153", Level::Deny),
    ] {
        let c = preimpl_cnn::lint::lookup(code).expect(code);
        assert_eq!(c.default, level, "{code}");
    }
}

#[test]
fn bundled_descriptors_lint_clean_through_the_model_pass() {
    let dir = std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("models");
    let e = engine();
    for entry in std::fs::read_dir(&dir).unwrap() {
        let path = entry.unwrap().path();
        let format = preimpl_cnn::model::ModelFormat::from_path(&path).expect("known extension");
        let text = std::fs::read_to_string(&path).unwrap();
        let (net, report) = e.lint_model(&text, format, Granularity::Layer, &Obs::null());
        assert!(net.is_some(), "{} failed to import", path.display());
        assert!(
            report.is_clean() && report.warnings() == 0,
            "{}: {}",
            path.display(),
            report.render_text()
        );
    }
}

#[test]
fn flow_lint_gate_is_clean_on_smoke_network() {
    let (device, network, db) = smoke_db();
    let cfg = FlowConfig::new()
        .with_seeds([1])
        .with_lint(LintConfig::new().with_deny_warnings(true));
    let (design, report) = run_pre_implemented_flow(&network, &db, &device, &cfg).unwrap();
    assert!(design.fully_routed());
    let lint = report.lint.as_ref().expect("lint ran");
    assert!(lint.is_clean(), "{}", lint.render_text());
    assert!(report.deterministic_summary().contains("\"lint\""));
}
