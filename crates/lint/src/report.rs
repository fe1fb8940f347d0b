//! [`LintReport`]: the finalized, deterministic result of one or more
//! lint passes, with rustc-style text and stable JSON renderers.

use crate::diag::{Diagnostic, Level, LintConfig, Severity};
use serde::Serialize;
use std::collections::BTreeSet;

/// Findings of one code: an entry of a report's `by_code` summary, also
/// the shape of the lint section of the flow's deterministic summary.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CodeCount {
    pub code: &'static str,
    pub count: usize,
}

impl From<(&'static str, usize)> for CodeCount {
    fn from((code, count): (&'static str, usize)) -> Self {
        CodeCount { code, count }
    }
}

/// The wire form of a [`LintReport`] (`pilint --json`).
#[derive(Serialize)]
struct ReportJson<'a> {
    diagnostics: &'a [Diagnostic],
    summary: SummaryJson,
}

#[derive(Serialize)]
struct SummaryJson {
    errors: usize,
    warnings: usize,
    waived: usize,
    allowed: usize,
    deduped: usize,
    by_code: Vec<CodeCount>,
}

/// The outcome of running lint passes under one [`LintConfig`].
///
/// Diagnostics are sorted by `(code, origin, message)` and deduplicated,
/// so two reports built from the same findings render byte-identically
/// no matter what schedule produced them.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct LintReport {
    /// Surviving findings, sorted and deduplicated.
    pub diagnostics: Vec<Diagnostic>,
    /// Findings suppressed by a waiver.
    pub waived: usize,
    /// Findings suppressed because their code's level is `Allow`.
    pub allowed: usize,
    /// Repeated findings at the same `(code, origin)` location collapsed
    /// into the first one (distinct messages included — a location is one
    /// defect however many ways a pass describes it).
    pub deduped: usize,
    /// `(code, origin_prefix)` of every waiver that matched at least one
    /// finding, across all merged passes — the input to
    /// [`Self::audit_waivers`].
    pub used_waivers: BTreeSet<(String, String)>,
}

impl LintReport {
    /// An empty (clean) report.
    pub fn new() -> Self {
        Self::default()
    }

    /// Apply a config to raw findings: waive, drop `Allow`ed codes,
    /// re-derive severities from effective levels, then sort + dedup.
    pub fn from_raw(raw: Vec<Diagnostic>, config: &LintConfig) -> Self {
        let mut report = LintReport::new();
        for mut d in raw {
            if let Some(w) = config.waivers.iter().find(|w| w.matches(&d)) {
                report.waived += 1;
                report
                    .used_waivers
                    .insert((w.code.clone(), w.origin_prefix.clone()));
                continue;
            }
            match config.level_of(d.code) {
                Level::Allow => report.allowed += 1,
                Level::Warn => {
                    d.severity = Severity::Warning;
                    report.diagnostics.push(d);
                }
                Level::Deny => {
                    d.severity = Severity::Error;
                    report.diagnostics.push(d);
                }
            }
        }
        report.normalize();
        report
    }

    /// Restore the sorted/deduplicated invariant after edits or merges:
    /// sort by the full key, then collapse findings sharing a
    /// `(code, origin)` location — the first (message-sorted) survivor
    /// speaks for the location, the rest count as `deduped`.
    fn normalize(&mut self) {
        self.diagnostics
            .sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
        let before = self.diagnostics.len();
        self.diagnostics
            .dedup_by(|a, b| a.code == b.code && a.origin == b.origin);
        self.deduped += before - self.diagnostics.len();
    }

    /// Fold another report into this one.
    pub fn merge(&mut self, other: LintReport) {
        self.diagnostics.extend(other.diagnostics);
        self.waived += other.waived;
        self.allowed += other.allowed;
        self.deduped += other.deduped;
        self.used_waivers.extend(other.used_waivers);
        self.normalize();
    }

    /// Flag waivers that matched nothing (`PL0001`). Call this once, on
    /// the fully merged report of a run — a waiver is "used" if *any*
    /// merged pass consumed it, so auditing per-pass would cry wolf.
    pub fn audit_waivers(&mut self, config: &LintConfig) {
        for w in &config.waivers {
            let key = (w.code.clone(), w.origin_prefix.clone());
            if self.used_waivers.contains(&key) {
                continue;
            }
            let d = Diagnostic::new(
                "PL0001",
                format!("waiver:{}:{}", w.code, w.origin_prefix),
                format!(
                    "waiver `{} {}` matched no finding — remove it (stale \
                     waivers mask future regressions)",
                    w.code, w.origin_prefix
                ),
            );
            match config.level_of("PL0001") {
                Level::Allow => self.allowed += 1,
                level => {
                    let mut d = d;
                    d.severity = if level == Level::Deny {
                        Severity::Error
                    } else {
                        Severity::Warning
                    };
                    self.diagnostics.push(d);
                }
            }
        }
        self.normalize();
    }

    /// Number of error-severity findings.
    pub fn errors(&self) -> usize {
        self.diagnostics
            .iter()
            .filter(|d| d.severity == Severity::Error)
            .count()
    }

    /// Number of warning-severity findings.
    pub fn warnings(&self) -> usize {
        self.diagnostics.len() - self.errors()
    }

    /// No surviving findings at all.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
    }

    /// Does this report trip a lint gate? Errors always do; warnings
    /// only under `deny_warnings`.
    pub fn gate(&self, deny_warnings: bool) -> bool {
        self.errors() > 0 || (deny_warnings && self.warnings() > 0)
    }

    /// Per-code finding counts, in code order.
    pub fn by_code(&self) -> Vec<(&'static str, usize)> {
        let mut counts: Vec<(&'static str, usize)> = Vec::new();
        for d in &self.diagnostics {
            match counts.last_mut() {
                Some((code, n)) if *code == d.code => *n += 1,
                _ => counts.push((d.code, 1)),
            }
        }
        counts
    }

    /// One-line summary, also the last line of [`Self::render_text`].
    pub fn summary_line(&self) -> String {
        let mut line = format!(
            "lint: {} errors, {} warnings ({} findings, {} waived, {} allowed",
            self.errors(),
            self.warnings(),
            self.diagnostics.len(),
            self.waived,
            self.allowed
        );
        if self.deduped > 0 {
            line.push_str(&format!(", {} deduped", self.deduped));
        }
        line.push(')');
        line
    }

    /// rustc-style text rendering: one block per finding, then the
    /// summary line.
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        for d in &self.diagnostics {
            out.push_str(&d.to_string());
            out.push('\n');
        }
        out.push_str(&self.summary_line());
        out.push('\n');
        out
    }

    /// Stable JSON rendering (pretty-printed). Byte-identical for equal
    /// reports: diagnostics are pre-sorted and the summary map uses a
    /// fixed key order.
    pub fn render_json(&self) -> String {
        let json = ReportJson {
            diagnostics: &self.diagnostics,
            summary: SummaryJson {
                errors: self.errors(),
                warnings: self.warnings(),
                waived: self.waived,
                allowed: self.allowed,
                deduped: self.deduped,
                by_code: self.by_code().into_iter().map(CodeCount::from).collect(),
            },
        };
        serde_json::to_string_pretty(&json).expect("lint report serializes")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::diag::{parse_waivers, Diagnostic, LintConfig};

    fn raw() -> Vec<Diagnostic> {
        vec![
            Diagnostic::new("PL0107", "module:b/net:n", "fan-out 80 exceeds 64"),
            Diagnostic::new("PL0101", "module:a/port:q", "sunk twice"),
            Diagnostic::new("PL0101", "module:a/port:q", "sunk twice"),
            Diagnostic::new("PL0102", "module:a/port:din", "drives nothing"),
        ]
    }

    #[test]
    fn from_raw_sorts_dedups_and_applies_levels() {
        let r = LintReport::from_raw(raw(), &LintConfig::new());
        assert_eq!(r.diagnostics.len(), 3, "duplicate collapsed");
        assert_eq!(r.diagnostics[0].code, "PL0101");
        assert_eq!(r.errors(), 1);
        assert_eq!(r.warnings(), 2);
        assert!(r.gate(false));
    }

    #[test]
    fn allow_and_waive_suppress() {
        let cfg = LintConfig::new()
            .allow("PL0102")
            .with_waivers(parse_waivers("PL0107 module:b").unwrap());
        let r = LintReport::from_raw(raw(), &cfg);
        assert_eq!(r.allowed, 1);
        assert_eq!(r.waived, 1);
        assert_eq!(r.diagnostics.len(), 1);
    }

    #[test]
    fn deny_warnings_gates_clean_errors() {
        let cfg = LintConfig::new().allow("PL0101");
        let r = LintReport::from_raw(raw(), &cfg);
        assert_eq!(r.errors(), 0);
        assert!(!r.gate(false));
        assert!(r.gate(true));
    }

    #[test]
    fn same_location_findings_collapse() {
        let raw = vec![
            Diagnostic::new("PL0107", "module:b/net:n", "fan-out 80 exceeds 64"),
            Diagnostic::new("PL0107", "module:b/net:n", "fan-out 81 exceeds 64"),
            Diagnostic::new("PL0107", "module:c/net:n", "fan-out 90 exceeds 64"),
        ];
        let r = LintReport::from_raw(raw, &LintConfig::new());
        assert_eq!(r.diagnostics.len(), 2, "{r:?}");
        assert_eq!(r.deduped, 1);
        assert!(r.diagnostics[0].message.contains("fan-out 80"), "{r:?}");
        assert!(
            r.summary_line().contains("1 deduped"),
            "{}",
            r.summary_line()
        );
    }

    #[test]
    fn unused_waivers_are_flagged_after_merge() {
        let cfg = LintConfig::new()
            .with_waivers(parse_waivers("PL0107 module:b\nPL0104 module:never\n").unwrap());
        let mut a = LintReport::from_raw(raw(), &cfg);
        assert_eq!(a.waived, 1);
        let b = LintReport::from_raw(Vec::new(), &cfg);
        a.merge(b);
        a.audit_waivers(&cfg);
        let unused: Vec<_> = a
            .diagnostics
            .iter()
            .filter(|d| d.code == "PL0001")
            .collect();
        assert_eq!(unused.len(), 1, "{a:?}");
        assert!(unused[0].origin.contains("PL0104"), "{unused:?}");
        assert_eq!(unused[0].severity, Severity::Warning);
        // Allowing PL0001 silences the audit instead.
        let lax = LintConfig::new()
            .allow("PL0001")
            .with_waivers(parse_waivers("PL0104 module:never\n").unwrap());
        let mut c = LintReport::from_raw(Vec::new(), &lax);
        c.audit_waivers(&lax);
        assert!(c.is_clean(), "{c:?}");
        assert_eq!(c.allowed, 1);
    }

    #[test]
    fn merge_keeps_order_and_counts() {
        let cfg = LintConfig::new();
        let mut a = LintReport::from_raw(raw(), &cfg);
        let b = LintReport::from_raw(
            vec![Diagnostic::new("PL0103", "module:z/port:out", "floating")],
            &cfg,
        );
        a.merge(b);
        assert_eq!(a.diagnostics.len(), 4);
        let codes: Vec<_> = a.diagnostics.iter().map(|d| d.code).collect();
        assert_eq!(codes, vec!["PL0101", "PL0102", "PL0103", "PL0107"]);
    }

    #[test]
    fn renderings_are_deterministic() {
        let cfg = LintConfig::new();
        let a = LintReport::from_raw(raw(), &cfg);
        let mut shuffled = raw();
        shuffled.reverse();
        let b = LintReport::from_raw(shuffled, &cfg);
        assert_eq!(a.render_text(), b.render_text());
        assert_eq!(a.render_json(), b.render_json());
        assert!(a.render_text().contains("lint: 1 errors, 2 warnings"));
        assert!(a.render_json().contains("\"by_code\""));
    }
}
