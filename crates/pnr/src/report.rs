//! Human-readable reports: utilization tables, the routing summary and
//! the ASCII floorplan that reproduces the paper's Fig. 8 (the chip with
//! labelled component pblocks).

use pi_fabric::{Device, ResourceCount};
use pi_netlist::Design;

/// Render a design's component floorplan as an ASCII sketch of the device,
/// one letter per instance (paper Fig. 8). `width` is the sketch width in
/// characters; height follows the device aspect ratio.
pub fn floorplan_sketch(design: &Design, device: &Device, width: usize) -> String {
    let width = width.clamp(16, 200);
    let height = (width as f64 * f64::from(device.rows()) / f64::from(device.cols()) / 2.2)
        .round()
        .max(8.0) as usize;
    let mut grid = vec![vec!['.'; width]; height];

    // Mark I/O columns (fabric discontinuities).
    for col in 0..device.cols() {
        if device
            .column_kind(col)
            .map(|k| k.is_discontinuity())
            .unwrap_or(false)
        {
            let x = (usize::from(col) * width) / usize::from(device.cols());
            for row in grid.iter_mut() {
                row[x.min(width - 1)] = '|';
            }
        }
    }

    // Paint every instance's pblock with its letter.
    let letters: Vec<char> = ('A'..='Z').chain('a'..='z').collect();
    let mut legend = String::new();
    for (i, inst) in design.instances().iter().enumerate() {
        let Some(pb) = inst.module.pblock else {
            continue;
        };
        let ch = letters[i % letters.len()];
        let x0 = (usize::from(pb.col_lo) * width) / usize::from(device.cols());
        let x1 = (usize::from(pb.col_hi) * width) / usize::from(device.cols());
        // Screen rows run top-down; device rows bottom-up.
        let y0 = height - 1 - (usize::from(pb.row_hi) * height) / usize::from(device.rows());
        let y1 = height - 1 - (usize::from(pb.row_lo) * height) / usize::from(device.rows());
        for row in grid.iter_mut().take(y1.min(height - 1) + 1).skip(y0) {
            for cell in row.iter_mut().take(x1.min(width - 1) + 1).skip(x0) {
                *cell = ch;
            }
        }
        legend.push_str(&format!(
            "  {ch} = {} ({}x{} @ X{}Y{})\n",
            inst.name,
            pb.width(),
            pb.height(),
            pb.col_lo,
            pb.row_lo
        ));
    }

    let mut out = String::with_capacity(height * (width + 1) + legend.len());
    for row in &grid {
        out.extend(row.iter());
        out.push('\n');
    }
    out.push_str(&legend);
    out
}

/// Render a resource utilization table against a device's capacity.
pub fn utilization_table(used: &ResourceCount, device: &Device) -> String {
    let totals = device.totals();
    let pct = used.percent_of(&totals);
    let mut out = String::new();
    out.push_str(&format!(
        "{:<10} {:>10} {:>12} {:>8}\n",
        "resource", "used", "available", "util"
    ));
    for (name, u, t, p) in [
        ("LUTs", used.luts, totals.luts, pct.luts),
        ("FFs", used.ffs, totals.ffs, pct.ffs),
        ("BRAMs", used.brams, totals.brams, pct.brams),
        ("DSPs", used.dsps, totals.dsps, pct.dsps),
        ("URAMs", used.urams, totals.urams, pct.urams),
        ("IOs", used.ios, totals.ios, pct.ios),
    ] {
        out.push_str(&format!("{name:<10} {u:>10} {t:>12} {p:>7.2}%\n"));
    }
    out
}

/// Render a routing summary: net counts, wirelength, the router's work
/// metric (A* expansions) and the optimization counters (Steiner segments,
/// criticality-driven re-routes, parallel-merge conflicts).
pub fn routing_summary(stats: &crate::route::RouteStats) -> String {
    let mut out = format!(
        "routing: {} nets ({} trivial), wirelength {}, {} iterations, {} expansions\n",
        stats.routed_nets, stats.trivial_nets, stats.wirelength, stats.iterations, stats.expansions
    );
    out.push_str(&format!(
        "  steiner segments {}, criticality re-routes {}, merge conflicts {}\n",
        stats.steiner_segments, stats.criticality_reroutes, stats.parallel_conflicts
    ));
    if stats.overused_tiles > 0 {
        out.push_str(&format!(
            "  WARNING: {} tiles remain overused\n",
            stats.overused_tiles
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use pi_fabric::Pblock;
    use pi_netlist::{Cell, CellKind, DesignKind, Endpoint, ModuleBuilder, StreamRole};

    fn two_instance_design(device: &Device) -> Design {
        let mut design = Design::new("d", device.name(), DesignKind::Assembled);
        for (i, (pb_col, pb_row)) in [(1u16, 0u16), (66, 224)].iter().enumerate() {
            let mut b = ModuleBuilder::new(format!("m{i}"));
            let din = b.input("din", StreamRole::Source, 8);
            let dout = b.output("dout", StreamRole::Sink, 8);
            let c = b.cell(Cell::new("c", CellKind::full_slice()));
            b.connect("i", Endpoint::Port(din), [Endpoint::Cell(c)]);
            b.connect("o", Endpoint::Cell(c), [Endpoint::Port(dout)]);
            let mut m = b.finish().expect("builds");
            m.pblock = Some(Pblock::new(*pb_col, pb_col + 31, *pb_row, pb_row + 63));
            design.add_instance(format!("inst{i}"), m);
        }
        design
    }

    #[test]
    fn floorplan_contains_all_instances_and_legend() {
        let device = Device::xcku5p_like();
        let design = two_instance_design(&device);
        let sketch = floorplan_sketch(&design, &device, 64);
        assert!(sketch.contains('A'));
        assert!(sketch.contains('B'));
        assert!(sketch.contains("A = inst0"));
        assert!(sketch.contains("B = inst1"));
        // The I/O columns show as separators.
        assert!(sketch.contains('|'));
    }

    #[test]
    fn floorplan_respects_vertical_orientation() {
        // inst0 sits at the device bottom => it must appear on a LOWER
        // screen line than inst1 (which sits higher on the chip).
        let device = Device::xcku5p_like();
        let design = two_instance_design(&device);
        let sketch = floorplan_sketch(&design, &device, 64);
        let first_a = sketch
            .lines()
            .position(|l| l.contains('A'))
            .expect("A drawn");
        let first_b = sketch
            .lines()
            .position(|l| l.contains('B'))
            .expect("B drawn");
        assert!(first_b < first_a, "B (higher rows) must render above A");
    }

    #[test]
    fn utilization_table_lists_all_classes() {
        let device = Device::test_part();
        let used = ResourceCount {
            luts: 100,
            ffs: 50,
            brams: 2,
            dsps: 1,
            urams: 0,
            ios: 0,
        };
        let t = utilization_table(&used, &device);
        for label in ["LUTs", "FFs", "BRAMs", "DSPs", "URAMs", "IOs"] {
            assert!(t.contains(label), "missing {label}");
        }
        assert!(t.contains("100"));
    }

    #[test]
    fn routing_summary_renders() {
        let stats = crate::route::RouteStats {
            routed_nets: 12,
            trivial_nets: 2,
            wirelength: 340,
            overused_tiles: 1,
            iterations: 3,
            expansions: 9000,
            steiner_segments: 7,
            criticality_reroutes: 4,
            parallel_conflicts: 1,
        };
        let r = routing_summary(&stats);
        assert!(r.contains("12 nets"));
        assert!(r.contains("steiner segments 7"));
        assert!(r.contains("criticality re-routes 4"));
        assert!(r.contains("merge conflicts 1"));
        assert!(r.contains("WARNING: 1 tiles"));
    }
}
