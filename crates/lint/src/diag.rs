//! Diagnostics data model: lint codes, severities, levels, waivers and
//! the per-run [`LintConfig`].
//!
//! Every finding any pass can emit has a stable code in [`REGISTRY`]
//! (`PL01xx` netlist, `PL02xx` CNN dataflow graph, `PL03xx`
//! checkpoint/database/physical). Codes are append-only: renumbering
//! would silently invalidate waiver files and CI greps downstream. A
//! retired code's number is never reused (`PL0140` / `PL0141` policed the
//! star router PR 15 deleted; naming them is now "unknown lint code").

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// How serious a rendered finding is. Derived from the effective
/// [`Level`] of the finding's code: `Deny` renders as an error, `Warn`
/// as a warning, `Allow` suppresses the finding entirely.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Advisory; does not fail a lint gate unless `--deny-warnings`.
    Warning,
    /// Hard error; always fails the lint gate.
    Error,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Severity::Warning => write!(f, "warning"),
            Severity::Error => write!(f, "error"),
        }
    }
}

/// Per-code policy knob, rustc-style: `allow` drops findings, `warn`
/// reports without failing, `deny` makes them errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "lowercase")]
pub enum Level {
    /// Suppress findings with this code (still counted as "allowed").
    Allow,
    /// Report as a warning.
    Warn,
    /// Report as an error.
    Deny,
}

/// One registered lint: stable code, human name, default level and a
/// one-line summary for `pilint codes`.
#[derive(Debug, Clone, Copy)]
pub struct LintCode {
    /// Stable identifier, e.g. `PL0103`.
    pub code: &'static str,
    /// Kebab-case name, e.g. `floating-output`.
    pub name: &'static str,
    /// Level applied when the config has no override.
    pub default: Level,
    /// One-line description.
    pub summary: &'static str,
}

/// Every lint the engine can emit, ordered by code.
pub const REGISTRY: &[LintCode] = &[
    // ---- PL00xx: lint-configuration hygiene ----
    LintCode {
        code: "PL0001",
        name: "unused-waiver",
        default: Level::Warn,
        summary: "a waiver entry matched no finding in this run — the defect \
                  it was written for is gone (or the origin prefix is stale) \
                  and the waiver now only masks future regressions",
    },
    // ---- PL01xx: netlist structure ----
    LintCode {
        code: "PL0101",
        name: "multi-driven",
        default: Level::Deny,
        summary: "a module output port is sunk by more than one net, or an \
                  instance input port is driven by more than one top-level net",
    },
    LintCode {
        code: "PL0102",
        name: "dangling-input",
        default: Level::Warn,
        summary: "an input port drives no net inside the module",
    },
    LintCode {
        code: "PL0103",
        name: "floating-output",
        default: Level::Warn,
        summary: "an output port is driven by no net inside the module",
    },
    LintCode {
        code: "PL0104",
        name: "width-mismatch",
        default: Level::Deny,
        summary: "endpoint port widths disagree with each other or with the \
                  net that connects them",
    },
    LintCode {
        code: "PL0105",
        name: "combinational-loop",
        default: Level::Deny,
        summary: "a cycle through unregistered cells (Tarjan SCC over the \
                  combinational subgraph)",
    },
    LintCode {
        code: "PL0106",
        name: "unreachable-cells",
        default: Level::Warn,
        summary: "cells with no connectivity path to any module port \
                  (dead-logic elimination candidates)",
    },
    LintCode {
        code: "PL0107",
        name: "fanout-hotspot",
        default: Level::Warn,
        summary: "a net's endpoint count exceeds the configured fan-out \
                  threshold",
    },
    // ---- PL015x: model-descriptor import (pi-model findings) ----
    LintCode {
        code: "PL0150",
        name: "unsupported-op",
        default: Level::Deny,
        summary: "a model descriptor uses an operator the flow cannot map \
                  (the message carries the nearest supported spelling)",
    },
    LintCode {
        code: "PL0151",
        name: "unfoldable-batchnorm",
        default: Level::Warn,
        summary: "a BatchNormalization does not exclusively follow a Conv, \
                  so it cannot fold into the conv weights and is treated as \
                  identity",
    },
    LintCode {
        code: "PL0152",
        name: "join-channel-mismatch",
        default: Level::Deny,
        summary: "an element-wise join merges streams with different channel \
                  counts",
    },
    LintCode {
        code: "PL0153",
        name: "model-malformed",
        default: Level::Deny,
        summary: "any other malformed-descriptor defect: syntax error, \
                  dangling edge, duplicate name, missing attribute",
    },
    // ---- PL016x: telemetry trace streams (pi-obs JSONL) ----
    LintCode {
        code: "PL0160",
        name: "trace-span-imbalance",
        default: Level::Deny,
        summary: "a telemetry stream's span tree is unbalanced: a span_end \
                  with no matching open span, or a span still open at end of \
                  stream",
    },
    LintCode {
        code: "PL0161",
        name: "trace-seq-regression",
        default: Level::Deny,
        summary: "event sequence numbers are not strictly increasing — the \
                  stream was reordered, truncated-and-respliced, or merged \
                  without renumbering",
    },
    // ---- PL02xx: CNN dataflow graph ----
    LintCode {
        code: "PL0201",
        name: "shape-mismatch",
        default: Level::Deny,
        summary: "tensor-shape propagation failed: a layer rejects its input \
                  shape or predecessors disagree on the interface shape",
    },
    LintCode {
        code: "PL0202",
        name: "orphan-node",
        default: Level::Deny,
        summary: "a graph node is unreachable from the input layer",
    },
    LintCode {
        code: "PL0203",
        name: "dfg-cycle",
        default: Level::Deny,
        summary: "the dataflow graph contains a cycle",
    },
    LintCode {
        code: "PL0204",
        name: "input-misplaced",
        default: Level::Deny,
        summary: "the graph has no input layer, several input layers, or an \
                  input layer with predecessors",
    },
    LintCode {
        code: "PL0205",
        name: "degenerate-layer",
        default: Level::Deny,
        summary: "a layer parameter is degenerate (zero kernel, stride, \
                  window, channel or feature count)",
    },
    LintCode {
        code: "PL0206",
        name: "bandwidth-exceeded",
        default: Level::Warn,
        summary: "a component-boundary tensor exceeds the per-frame memory \
                  controller cycle budget",
    },
    LintCode {
        code: "PL0207",
        name: "bare-elementwise",
        default: Level::Warn,
        summary: "an element-wise layer forms its own component instead of \
                  fusing, wasting a memory controller",
    },
    // ---- PL03xx: checkpoints, component database, physical DRC ----
    LintCode {
        code: "PL0301",
        name: "missing-component",
        default: Level::Deny,
        summary: "a network component's signature has no checkpoint in the \
                  component database",
    },
    LintCode {
        code: "PL0302",
        name: "checkpoint-unlocked",
        default: Level::Deny,
        summary: "a checkpointed module is not locked (placement and routing \
                  must be frozen before reuse)",
    },
    LintCode {
        code: "PL0303",
        name: "pblock-contract",
        default: Level::Deny,
        summary: "a checkpoint breaks its pblock contract: module pblock \
                  absent or different from the envelope, or placed cells \
                  outside it",
    },
    LintCode {
        code: "PL0304",
        name: "partpin-contract",
        default: Level::Deny,
        summary: "a stream port has no partition pin or its pin is off the \
                  pblock boundary ring",
    },
    LintCode {
        code: "PL0305",
        name: "clock-contract",
        default: Level::Deny,
        summary: "a checkpoint has no clock port or its clock tree is not \
                  pre-routed",
    },
    LintCode {
        code: "PL0306",
        name: "device-mismatch",
        default: Level::Deny,
        summary: "checkpoints disagree about the target device, or differ \
                  from the device being linted against",
    },
    LintCode {
        code: "PL0307",
        name: "meta-mismatch",
        default: Level::Deny,
        summary: "checkpoint envelope metadata disagrees with the module it \
                  wraps (resource counts, non-positive Fmax) or with the rate \
                  model of the component it serves (latency cycles, DSPs)",
    },
    LintCode {
        code: "PL0308",
        name: "incomplete-impl",
        default: Level::Deny,
        summary: "a checkpointed module is not fully placed and routed",
    },
    // ---- PL031x: physical DRC (folded from stitch::verify) ----
    LintCode {
        code: "PL0310",
        name: "drc-unplaced-cell",
        default: Level::Deny,
        summary: "a cell in an assembled design has no placement",
    },
    LintCode {
        code: "PL0311",
        name: "drc-wrong-site",
        default: Level::Deny,
        summary: "a cell is placed on an incompatible or out-of-bounds site",
    },
    LintCode {
        code: "PL0312",
        name: "drc-site-conflict",
        default: Level::Deny,
        summary: "two cells are placed on the same site",
    },
    LintCode {
        code: "PL0313",
        name: "drc-outside-pblock",
        default: Level::Deny,
        summary: "a placed cell lies outside its instance's pblock",
    },
    LintCode {
        code: "PL0314",
        name: "drc-pblock-overlap",
        default: Level::Deny,
        summary: "two instance pblocks overlap",
    },
    LintCode {
        code: "PL0315",
        name: "drc-partpin-off-pblock",
        default: Level::Deny,
        summary: "a partition pin is off its pblock boundary",
    },
    LintCode {
        code: "PL0316",
        name: "drc-route-off-grid",
        default: Level::Deny,
        summary: "a routed net uses a tile outside the device grid",
    },
    LintCode {
        code: "PL0317",
        name: "drc-not-locked",
        default: Level::Deny,
        summary: "an assembled instance is not locked",
    },
    LintCode {
        code: "PL0318",
        name: "drc-unrouted",
        default: Level::Deny,
        summary: "a top-level net in an assembled design has no route",
    },
    // ---- PL04xx: streaming dataflow analysis (fixpoint FIFO/rate model) ----
    LintCode {
        code: "PL0400",
        name: "potential-deadlock",
        default: Level::Deny,
        summary: "a reconvergent join's early operand cannot buffer the path \
                  latency skew within the link FIFO capacity — backpressure \
                  reaches the shared producer and the pipeline deadlocks",
    },
    LintCode {
        code: "PL0401",
        name: "undersized-fifo",
        default: Level::Warn,
        summary: "a stream link needs a deeper FIFO than the configured \
                  capacity (the message carries the computed minimum depth)",
    },
    LintCode {
        code: "PL0402",
        name: "rate-mismatch",
        default: Level::Deny,
        summary: "a producer's tokens per frame disagree with what the \
                  consumer port expects (SDF balance violation)",
    },
    LintCode {
        code: "PL0403",
        name: "analysis-diverged",
        default: Level::Warn,
        summary: "the fixpoint dataflow analysis widened to top before \
                  stabilizing (usually a graph cycle): FIFO bounds and \
                  deadlock-freedom could not be proven",
    },
];

/// Look a code up in [`REGISTRY`].
pub fn lookup(code: &str) -> Option<&'static LintCode> {
    REGISTRY.iter().find(|c| c.code == code)
}

/// One finding. Ordering (and therefore rendered output) is fully
/// determined by `(code, origin, message)` so reports are byte-identical
/// regardless of the schedule that produced the findings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Registry code, e.g. `PL0104`.
    pub code: &'static str,
    /// Effective severity after config levels are applied.
    pub severity: Severity,
    /// Where the finding is anchored, e.g. `module:conv1/port:din`.
    pub origin: String,
    /// Human-readable description of this specific finding.
    pub message: String,
}

impl Diagnostic {
    /// Build a finding with the registry-default severity; the engine
    /// re-derives severity from the config when it finalizes a pass.
    pub fn new(code: &'static str, origin: impl Into<String>, message: impl Into<String>) -> Self {
        let severity = match lookup(code).map(|c| c.default) {
            Some(Level::Deny) => Severity::Error,
            _ => Severity::Warning,
        };
        Diagnostic {
            code,
            severity,
            origin: origin.into(),
            message: message.into(),
        }
    }

    /// The deterministic sort key.
    pub fn sort_key(&self) -> (&'static str, &str, &str) {
        (self.code, &self.origin, &self.message)
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}[{}]: {}\n  --> {}",
            self.severity, self.code, self.message, self.origin
        )
    }
}

/// A waiver suppresses matching findings without changing the code's
/// level for everything else. `origin_prefix == "*"` matches any origin.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(deny_unknown_fields)]
pub struct Waiver {
    /// Registry code the waiver applies to.
    pub code: String,
    /// Origin prefix to match, or `*` for all origins.
    pub origin_prefix: String,
}

impl Waiver {
    /// Does this waiver suppress the given finding?
    pub fn matches(&self, d: &Diagnostic) -> bool {
        self.code == d.code
            && (self.origin_prefix == "*" || d.origin.starts_with(&self.origin_prefix))
    }
}

/// Parse a waiver file: one `CODE ORIGIN_PREFIX` pair per line, `#`
/// starts a comment, blank lines ignored. Unknown codes are errors so a
/// typo cannot silently waive nothing.
pub fn parse_waivers(text: &str) -> Result<Vec<Waiver>, String> {
    let mut waivers = Vec::new();
    for (lineno, raw) in text.lines().enumerate() {
        let line = raw.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let code = parts.next().unwrap_or("");
        let prefix = parts
            .next()
            .ok_or_else(|| format!("waiver line {}: expected CODE ORIGIN_PREFIX", lineno + 1))?;
        if parts.next().is_some() {
            return Err(format!(
                "waiver line {}: trailing tokens after ORIGIN_PREFIX",
                lineno + 1
            ));
        }
        if lookup(code).is_none() {
            return Err(format!(
                "waiver line {}: unknown lint code {code}",
                lineno + 1
            ));
        }
        waivers.push(Waiver {
            code: code.to_string(),
            origin_prefix: prefix.to_string(),
        });
    }
    Ok(waivers)
}

/// Per-run lint policy: level overrides, waivers and the warning gate.
/// Policy never enters `FlowConfig::cache_fingerprint`, since linting
/// cannot change what a checkpoint contains. The numeric thresholds the
/// passes check against are not policy: they are the constants the
/// synthesizer and stitcher actually build with.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
#[serde(default, deny_unknown_fields)]
pub struct LintConfig {
    /// Per-code level overrides; codes not present use registry defaults.
    pub levels: BTreeMap<String, Level>,
    /// Waivers applied before levels.
    pub waivers: Vec<Waiver>,
    /// Treat surviving warnings as gate failures.
    pub deny_warnings: bool,
}

impl LintConfig {
    /// A config with registry-default levels and no waivers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Override one code's level (rustc `-A` / `-W` / `-D` equivalent).
    pub fn with_level(mut self, code: impl Into<String>, level: Level) -> Self {
        self.levels.insert(code.into(), level);
        self
    }

    /// Shorthand for [`Self::with_level`] with [`Level::Allow`].
    pub fn allow(self, code: impl Into<String>) -> Self {
        self.with_level(code, Level::Allow)
    }

    /// Shorthand for [`Self::with_level`] with [`Level::Warn`].
    pub fn warn(self, code: impl Into<String>) -> Self {
        self.with_level(code, Level::Warn)
    }

    /// Shorthand for [`Self::with_level`] with [`Level::Deny`].
    pub fn deny(self, code: impl Into<String>) -> Self {
        self.with_level(code, Level::Deny)
    }

    /// Install waivers (replacing any previous set).
    pub fn with_waivers(mut self, waivers: Vec<Waiver>) -> Self {
        self.waivers = waivers;
        self
    }

    /// Make surviving warnings trip the gate.
    pub fn with_deny_warnings(mut self, deny: bool) -> Self {
        self.deny_warnings = deny;
        self
    }

    /// Effective level for a code: override, else registry default,
    /// else `Warn` for codes the registry does not know.
    pub fn level_of(&self, code: &str) -> Level {
        if let Some(l) = self.levels.get(code) {
            return *l;
        }
        lookup(code).map(|c| c.default).unwrap_or(Level::Warn)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_is_sorted_and_unique() {
        for pair in REGISTRY.windows(2) {
            assert!(
                pair[0].code < pair[1].code,
                "registry out of order: {} before {}",
                pair[0].code,
                pair[1].code
            );
        }
    }

    #[test]
    fn lookup_finds_every_code() {
        for c in REGISTRY {
            assert_eq!(lookup(c.code).unwrap().name, c.name);
        }
        assert!(lookup("PL9999").is_none());
    }

    #[test]
    fn levels_override_defaults() {
        let cfg = LintConfig::new().allow("PL0101").deny("PL0102");
        assert_eq!(cfg.level_of("PL0101"), Level::Allow);
        assert_eq!(cfg.level_of("PL0102"), Level::Deny);
        assert_eq!(cfg.level_of("PL0103"), Level::Warn);
        assert_eq!(cfg.level_of("PL0104"), Level::Deny);
    }

    #[test]
    fn waiver_parsing_and_matching() {
        let text = "# comment\nPL0107 module:conv1  # trailing comment\nPL0104 *\n";
        let waivers = parse_waivers(text).unwrap();
        assert_eq!(waivers.len(), 2);
        let d = Diagnostic::new("PL0107", "module:conv1/net:x", "big fanout");
        assert!(waivers[0].matches(&d));
        let other = Diagnostic::new("PL0107", "module:fc1/net:x", "big fanout");
        assert!(!waivers[0].matches(&other));
        let w = Diagnostic::new("PL0104", "anything", "w");
        assert!(waivers[1].matches(&w));
    }

    #[test]
    fn waiver_parse_errors() {
        assert!(parse_waivers("PL0104").is_err(), "missing prefix");
        assert!(parse_waivers("PL9999 *").is_err(), "unknown code");
        assert!(parse_waivers("PL0104 * extra").is_err(), "trailing token");
    }

    #[test]
    fn diagnostic_display_is_rustc_style() {
        let d = Diagnostic::new("PL0101", "module:m/port:q", "driven twice");
        assert_eq!(
            d.to_string(),
            "error[PL0101]: driven twice\n  --> module:m/port:q"
        );
    }
}
