//! Architecture composition — the paper's Algorithm 1.
//!
//! BFS the network DFG and match each fused component against the
//! checkpoint database ([`compose_obs`]), then assemble ([`assemble_obs`],
//! the one assembly every design goes through): choose a legal location
//! for each checkpoint (component placer), relocate the locked module
//! there, and create the inter-component nets between the source/sink
//! interfaces. The output is an assembled [`Design`] whose only unrouted
//! nets are the stitched ones — ready for final inter-component routing.

use crate::db::ComponentDb;
use crate::placer::{place_components_obs, ComponentPlacerOptions, PlacementOutcome};
use crate::relocate::relocate_to;
use crate::StitchError;
use pi_cnn::graph::{ComponentEdge, Granularity, Network};
use pi_fabric::Device;
use pi_netlist::{Checkpoint, Design, DesignKind, InstId};
use pi_obs::Obs;

/// Options for composition.
#[derive(Debug, Clone, Copy)]
pub struct ComposeOptions {
    pub granularity: Granularity,
    pub placer: ComponentPlacerOptions,
}

impl Default for ComposeOptions {
    fn default() -> Self {
        ComposeOptions {
            granularity: Granularity::Layer,
            placer: ComponentPlacerOptions::default(),
        }
    }
}

/// What composition produced, for reports.
#[derive(Debug, Clone)]
pub struct ComposeReport {
    pub component_signatures: Vec<String>,
    pub placement: PlacementOutcome,
    /// Inter-component nets created by stitching.
    pub stitched_nets: usize,
}

/// Algorithm 1: compose a CNN accelerator from pre-built checkpoints:
/// extract the network's components, match each to its checkpoint, and
/// hand them to [`assemble_obs`] as instances named after the components,
/// linked by the component graph. The telemetry handle is threaded into
/// the component placer (`stitch::placer` events) and receives the
/// stitched-net count (`stitch::compose`).
pub fn compose_obs(
    network: &Network,
    db: &ComponentDb,
    device: &Device,
    opts: &ComposeOptions,
    obs: &Obs,
) -> Result<(Design, ComposeReport), StitchError> {
    // Component extraction (components() walks the DFG in topological
    // order — Algorithm 1's queue-based discovery, refined so producers
    // always precede consumers even across branches).
    let components = network.components(opts.granularity)?;
    let signatures: Vec<String> = components.iter().map(|c| c.signature(network)).collect();

    // Component matching: every node of the graph must resolve to a
    // pre-built checkpoint.
    let instances: Vec<(&str, &Checkpoint)> = components
        .iter()
        .zip(&signatures)
        .map(|(c, sig)| Ok((c.name.as_str(), db.require(sig)?)))
        .collect::<Result<_, StitchError>>()?;

    let links = network.component_edges(&components);
    let (design, placement) = assemble_obs(
        format!("{}_assembled", network.name),
        &instances,
        &links,
        device,
        &opts.placer,
        obs,
    )?;
    let stitched_nets = design.top_nets().len();
    Ok((
        design,
        ComposeReport {
            component_signatures: signatures,
            placement,
            stitched_nets,
        },
    ))
}

/// Assemble a design named `name` from pre-implemented checkpoints: place
/// the `instances` (instance name, checkpoint) with the component placer
/// (Eq. 1–3) over the `links` between them, relocate
/// each locked module to its anchor, and stitch the links. The result's
/// only unrouted nets are the stitched ones.
///
/// Stitching creates the inter-component stream nets (the FIFO links of
/// the paper's Fig. 5), one per source instance: a chain yields one
/// single-sink net per link, a fanout source drives all its consumers
/// through one multi-sink net (the router's Steiner decomposition handles
/// the tree), and a join receives its second operand on `din2`
/// ([`ComponentEdge::port`]). Telemetry: `stitch::placer` events and the
/// `stitch::compose` stitched-net count.
pub fn assemble_obs(
    name: String,
    instances: &[(&str, &Checkpoint)],
    links: &[ComponentEdge],
    device: &Device,
    placer: &ComponentPlacerOptions,
    obs: &Obs,
) -> Result<(Design, PlacementOutcome), StitchError> {
    let checkpoints: Vec<&Checkpoint> = instances.iter().map(|&(_, cp)| cp).collect();
    let edges: Vec<(usize, usize)> = links.iter().map(|e| (e.source, e.sink)).collect();
    let placement = place_components_obs(&checkpoints, &edges, device, placer, obs)?;

    // Relocation + instantiation.
    let mut design = Design::new(name, device.name(), DesignKind::Assembled);
    for (&(inst, cp), anchor) in instances.iter().zip(&placement.anchors) {
        design.add_instance(inst, relocate_to(cp, device, *anchor)?);
    }

    for ca in 0..instances.len() {
        let mut sinks: Vec<_> = links.iter().filter(|e| e.source == ca).collect();
        if sinks.is_empty() {
            continue;
        }
        sinks.sort_unstable_by_key(|e| e.sink);
        let src_inst = InstId(ca as u32);
        let (src_port, sw) = {
            let (pid, p) = design
                .instance(src_inst)
                .module
                .port_by_name("dout")
                .ok_or_else(|| {
                    StitchError::MissingComponent(format!("{}: no dout port", instances[ca].0))
                })?;
            (pid, p.width)
        };
        let mut sink_pins = Vec::with_capacity(sinks.len());
        let mut sink_names = Vec::with_capacity(sinks.len());
        for link in sinks {
            let cb = link.sink;
            let want = link.port().ok_or_else(|| {
                StitchError::MissingComponent(format!(
                    "{}: {} input streams, components accept at most two",
                    instances[cb].0,
                    links.iter().filter(|e| e.sink == cb).count()
                ))
            })?;
            let dst_inst = InstId(cb as u32);
            let (dst_port, _) = design
                .instance(dst_inst)
                .module
                .port_by_name(want)
                .ok_or_else(|| {
                    StitchError::MissingComponent(format!(
                        "{}: no {want} port (second input stream requires a join component)",
                        instances[cb].0
                    ))
                })?;
            sink_pins.push((dst_inst, dst_port));
            sink_names.push(instances[cb].0);
        }
        design.connect_top(
            format!("link_{}_{}", instances[ca].0, sink_names.join("+")),
            (src_inst, src_port),
            sink_pins,
            sw,
        )?;
    }
    if obs.enabled() {
        obs.scoped("stitch::compose")
            .counter("stitched_nets", design.top_nets().len() as u64);
    }
    Ok((design, placement))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_cnn::models;
    use pi_fabric::Pblock;
    use pi_netlist::{CheckpointMeta, StreamRole};
    use pi_synth::{synth_component, SynthOptions};

    /// Build a database for the toy network the way the flow would: real
    /// synthesized components, hand-placed into tight pblocks and locked.
    fn toy_db(device: &Device, network: &Network) -> ComponentDb {
        let comps = network.components(Granularity::Layer).unwrap();
        let mut db = ComponentDb::new();
        for comp in &comps {
            let mut m = synth_component(network, comp, &SynthOptions::lenet_like()).unwrap();
            let pb = Pblock::new(1, 16, 0, 59);
            m.pblock = Some(pb);
            pi_pnr::place_module_obs(
                &mut m,
                device,
                &pi_pnr::PlaceOptions {
                    seed: 7,
                    effort: 0.5,
                    region: Some(pb),
                },
                &Obs::null(),
            )
            .unwrap();
            // Partition pins on the pblock boundary.
            let n_ports = m.ports().len();
            {
                let ports = m.ports_mut().unwrap();
                for (i, port) in ports.iter_mut().enumerate() {
                    let row = (i * 59 / n_ports.max(1)) as u16;
                    port.partpin = Some(pi_fabric::TileCoord::new(
                        if port.role == StreamRole::Source || port.role == StreamRole::Clock {
                            1
                        } else {
                            16
                        },
                        row,
                    ));
                }
            }
            let _ = pi_pnr::route_module_obs(
                &mut m,
                device,
                &pi_pnr::RouteOptions::default(),
                &Obs::null(),
            )
            .unwrap();
            m.lock();
            db.insert(pi_netlist::Checkpoint {
                meta: CheckpointMeta {
                    signature: comp.signature(network),
                    fmax_mhz: 500.0,
                    resources: m.resources(),
                    pblock: pb,
                    device: device.name().to_string(),
                    latency_cycles: 8,
                },
                module: m,
            });
        }
        db
    }

    /// The stitched top nets are exactly the component graph: one
    /// `(source instance, sink instance, sink port)` pin per
    /// [`Network::component_edges`] link.
    fn assert_stitched_the_component_graph(network: &Network, design: &Design) {
        let components = network.components(Granularity::Layer).unwrap();
        let mut graph: Vec<(usize, usize, &str)> = network
            .component_edges(&components)
            .iter()
            .map(|e| (e.source, e.sink, e.port().unwrap()))
            .collect();
        graph.sort_unstable();
        let mut stitched: Vec<(usize, usize, &str)> = design
            .top_nets()
            .iter()
            .flat_map(|net| {
                net.sinks.iter().map(|&(inst, pid)| {
                    let port = design.instance(inst).module.port(pid).name.as_str();
                    (net.source.0 .0 as usize, inst.0 as usize, port)
                })
            })
            .collect();
        stitched.sort_unstable();
        assert_eq!(stitched, graph);
    }

    #[test]
    fn composes_toy_network_end_to_end() {
        let device = Device::xcku5p_like();
        let network = models::toy();
        let db = toy_db(&device, &network);
        let (design, report) = compose_obs(
            &network,
            &db,
            &device,
            &ComposeOptions::default(),
            &Obs::null(),
        )
        .unwrap();
        // toy: conv / pool+relu / fc -> 3 instances, 2 stitched links.
        assert_eq!(design.instances().len(), 3);
        assert_eq!(report.stitched_nets, 2);
        assert_eq!(design.top_nets().len(), 2);
        assert_stitched_the_component_graph(&network, &design);
        assert!(design.validate().is_ok());
        // All instances locked (pre-implemented), only top nets unrouted.
        for inst in design.instances() {
            assert!(inst.module.is_locked());
        }
        assert_eq!(design.unrouted_nets(), 2);
    }

    #[test]
    fn composes_branching_resnet_and_routes_it() {
        let device = Device::xcku5p_like();
        let network = models::resnet_small();
        let db = toy_db(&device, &network);
        let (mut design, report) = compose_obs(
            &network,
            &db,
            &device,
            &ComposeOptions::default(),
            &Obs::null(),
        )
        .unwrap();
        // 9 components: conv1+relu1 / (conv{b}a+relu{b}a / conv{b}b /
        // add{b}+relu{b}b) x2 / pool1 / fc1.
        assert_eq!(design.instances().len(), 9);
        // 10 component edges collapse onto 8 source-grouped nets, two of
        // which fan out to two sinks (the skip connections).
        assert_eq!(report.stitched_nets, 8);
        let multi = design
            .top_nets()
            .iter()
            .filter(|n| n.sinks.len() == 2)
            .count();
        assert_eq!(multi, 2);
        assert_stitched_the_component_graph(&network, &design);
        assert!(design.validate().is_ok());
        // Joins receive both operands: each add component has its din and
        // din2 pins among the net sinks.
        let joined: usize = design
            .top_nets()
            .iter()
            .flat_map(|n| n.sinks.iter())
            .filter(|&&(inst, pid)| design.instance(inst).module.port(pid).name == "din2")
            .count();
        assert_eq!(joined, 2);
        // The assembled branching design routes end-to-end.
        let route = pi_pnr::route_assembled_obs(
            &mut design,
            &device,
            &pi_pnr::RouteOptions::default(),
            &Obs::null(),
        )
        .unwrap();
        assert_eq!(route.route_stats.routed_nets, 8);
        assert!(design.fully_routed());
    }

    #[test]
    fn missing_component_is_reported() {
        let device = Device::xcku5p_like();
        let network = models::toy();
        let db = ComponentDb::new();
        match compose_obs(
            &network,
            &db,
            &device,
            &ComposeOptions::default(),
            &Obs::null(),
        ) {
            Err(StitchError::MissingComponent(sig)) => {
                assert!(sig.starts_with("conv"), "unexpected first miss: {sig}")
            }
            other => panic!("expected MissingComponent, got {other:?}"),
        }
    }

    #[test]
    fn composed_design_routes_incrementally() {
        let device = Device::xcku5p_like();
        let network = models::toy();
        let db = toy_db(&device, &network);
        let (mut design, _) = compose_obs(
            &network,
            &db,
            &device,
            &ComposeOptions::default(),
            &Obs::null(),
        )
        .unwrap();
        let report = pi_pnr::route_assembled_obs(
            &mut design,
            &device,
            &pi_pnr::RouteOptions::default(),
            &Obs::null(),
        )
        .unwrap();
        // Only the stitched nets were routed.
        assert_eq!(report.route_stats.routed_nets, 2);
        assert!(design.fully_routed());
        assert!(report.timing.fmax_mhz > 100.0);
    }
}
