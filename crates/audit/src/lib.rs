//! `waso-audit` — the workspace's static invariant auditor.
//!
//! The determinism contract (CBAS/CBAS-ND solves are bit-identical
//! across serial, pool widths 1–8, and the decomposition composite) and the serving no-panic contract ("never a
//! hang, typed errors keep the connection") are enforced dynamically by
//! the proptest suites — which sample a sliver of the code per run. This
//! crate is the static half: token-level pattern rules plus a
//! call-graph-aware interprocedural layer (panic reachability,
//! lock-graph cycles, determinism taint) over the workspace's own
//! sources, with named rules, `file:line` diagnostics, call-chain
//! witnesses, and justified opt-outs.
//!
//! See [`rules`] for the rule table and suppression grammar. Scoping is
//! by path ([`SCOPES`]): determinism rules bind the solver hot-path
//! crates, the no-panic rule roots at the serving crate and the graph
//! I/O module, the lock rule binds the shared-pool executor. The interprocedural rules
//! additionally read the *whole corpus* ([`CORPUS`]) so a panic three
//! crates away from a serve dispatch path is still attributed to it.
//!
//! ```no_run
//! let report = waso_audit::audit_workspace(std::path::Path::new(".")).unwrap();
//! for d in &report.diagnostics {
//!     println!("{d}");
//! }
//! assert!(report.diagnostics.is_empty(), "invariant violations");
//! ```

pub mod callgraph;
pub mod items;
pub mod json;
pub mod lexer;
pub mod rules;

use std::io;
use std::path::{Path, PathBuf};

use json::Json;
pub use rules::{audit_source, Diagnostic, RuleId};

/// Schema id stamped into `--format json` reports.
pub const REPORT_SCHEMA: &str = "waso-audit-report/v1";

/// Where each rule applies, as workspace-relative path prefixes (a
/// prefix naming a directory covers every `.rs` file under it).
///
/// * `D1`/`D2`/`D3` bind the solver hot-path crates: order-dependent
///   accumulation, ambient entropy, or an unseeded RNG stream anywhere
///   in `algos`/`core`/`graph` can silently break bit-identity.
/// * `P2` roots the serving crate — connection handling and dispatch
///   must answer typed errors, never panic — and the graph I/O module,
///   whose read/write paths serve user-supplied files. Its scope names
///   the root set (every fn in those files), and reachability walks the
///   whole corpus from there.
/// * `L2` binds the shared-pool executor, where the slot/stage lock
///   family lives; it follows lock summaries through calls and flags
///   sends performed under a held guard.
pub const SCOPES: &[(RuleId, &[&str])] = &[
    (
        RuleId::D1,
        &["crates/algos/src", "crates/core/src", "crates/graph/src"],
    ),
    (
        RuleId::D2,
        &["crates/algos/src", "crates/core/src", "crates/graph/src"],
    ),
    (
        RuleId::D3,
        &["crates/algos/src", "crates/core/src", "crates/graph/src"],
    ),
    (RuleId::P2, &["crates/serve/src", "crates/graph/src/io.rs"]),
    (
        RuleId::L2,
        &["crates/algos/src/exec.rs", "crates/algos/src/exec"],
    ),
];

/// The corpus the interprocedural rules read: every crate on a solve or
/// serve path, plus the session facade. Bench/stats/dataset tooling and
/// this crate itself stay out — they are not reachable from the
/// contracts and would only add name-resolution ambiguity. So does the
/// `waso-solve` CLI (`src/bin`): a terminal front-end whose free fns
/// (`run`, `parse_args`) would otherwise alias serve's under worst-case
/// name resolution, and whose abort-on-bad-input behaviour is its
/// documented interface, not a serve-path defect.
pub const CORPUS: &[&str] = &[
    "crates/algos/src",
    "crates/core/src",
    "crates/exact/src",
    "crates/graph/src",
    "crates/serve/src",
    "src/lib.rs",
    "src/session.rs",
];

/// The rules whose scope covers `rel_path` (workspace-relative, forward
/// slashes), in declaration order.
pub fn rules_for(rel_path: &str) -> Vec<RuleId> {
    let mut out = Vec::new();
    for &(rule, prefixes) in SCOPES {
        let hit = prefixes.iter().any(|p| {
            rel_path == *p || rel_path.strip_prefix(p).is_some_and(|r| r.starts_with('/'))
        });
        if hit && !out.contains(&rule) {
            out.push(rule);
        }
    }
    out
}

/// The outcome of a workspace audit.
#[derive(Debug, Default)]
pub struct AuditReport {
    /// Violations, sorted by (file, line, rule). Empty means clean.
    pub diagnostics: Vec<Diagnostic>,
    /// How many files had at least one active rule.
    pub files_audited: usize,
}

/// Audits every file in scope under `root` (the workspace root). Rules
/// are assigned per file via [`SCOPES`].
pub fn audit_workspace(root: &Path) -> io::Result<AuditReport> {
    audit_workspace_rules(root, &[])
}

/// [`audit_workspace`] with a rule restriction (empty = all rules):
/// `--rule D1,P2` audits only those even where others would also apply.
/// The whole [`CORPUS`] is loaded regardless, because interprocedural
/// rules need out-of-scope files as call-graph context.
pub fn audit_workspace_rules(root: &Path, restrict: &[RuleId]) -> io::Result<AuditReport> {
    let mut files: Vec<PathBuf> = Vec::new();
    for prefix in CORPUS {
        let path = root.join(prefix);
        if path.is_dir() {
            collect_rs_files(&path, &mut files)?;
        } else if path.is_file() {
            files.push(path);
        }
    }
    files.sort();
    files.dedup();

    let mut corpus: Vec<(String, String)> = Vec::with_capacity(files.len());
    let mut files_audited = 0usize;
    for file in &files {
        let rel = relative_label(root, file);
        let mut rules = rules_for(&rel);
        if !restrict.is_empty() {
            rules.retain(|r| restrict.contains(r));
        }
        if !rules.is_empty() {
            files_audited += 1;
        }
        corpus.push((rel, std::fs::read_to_string(file)?));
    }

    let restrict = restrict.to_vec();
    let diagnostics = rules::audit_corpus(&corpus, &move |rel| {
        let mut rules = rules_for(rel);
        if !restrict.is_empty() {
            rules.retain(|r| restrict.contains(r));
        }
        rules
    });
    Ok(AuditReport {
        diagnostics,
        files_audited,
    })
}

/// Renders a report as the `waso-audit-report/v1` JSON document.
pub fn report_to_json(report: &AuditReport) -> Json {
    let diags = report
        .diagnostics
        .iter()
        .map(|d| {
            let mut fields = vec![
                ("file".to_string(), Json::str(&d.file)),
                ("line".to_string(), Json::num(u64::from(d.line))),
                ("rule".to_string(), Json::str(d.rule.as_str())),
                ("message".to_string(), Json::str(&d.message)),
            ];
            if !d.chain.is_empty() {
                fields.push((
                    "chain".to_string(),
                    Json::Arr(d.chain.iter().map(Json::str).collect()),
                ));
            }
            Json::Obj(fields)
        })
        .collect();
    Json::Obj(vec![
        ("schema".to_string(), Json::str(REPORT_SCHEMA)),
        (
            "files_audited".to_string(),
            Json::num(report.files_audited as u64),
        ),
        (
            "violations".to_string(),
            Json::num(report.diagnostics.len() as u64),
        ),
        ("diagnostics".to_string(), Json::Arr(diags)),
    ])
}

/// Recursively collects `.rs` files, sorted so the audit (like
/// everything else here) is a pure function of the tree.
fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)?
        .map(|e| e.map(|e| e.path()))
        .collect::<io::Result<_>>()?;
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs_files(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// `file` relative to `root`, with forward slashes — the label
/// diagnostics carry and scope prefixes match against.
fn relative_label(root: &Path, file: &Path) -> String {
    let rel = file.strip_prefix(root).unwrap_or(file);
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy())
        .collect::<Vec<_>>()
        .join("/")
}

/// Walks upward from `start` to the first directory whose `Cargo.toml`
/// declares `[workspace]` — how the binary finds the tree to audit when
/// invoked from a subdirectory.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(Path::to_path_buf);
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scope_assignment_matches_prefixes() {
        assert_eq!(
            rules_for("crates/algos/src/engine.rs"),
            vec![RuleId::D1, RuleId::D2, RuleId::D3]
        );
        assert_eq!(
            rules_for("crates/algos/src/exec/shared.rs"),
            vec![RuleId::D1, RuleId::D2, RuleId::D3, RuleId::L2]
        );
        assert_eq!(
            rules_for("crates/algos/src/exec.rs"),
            vec![RuleId::D1, RuleId::D2, RuleId::D3, RuleId::L2]
        );
        assert_eq!(rules_for("crates/serve/src/server.rs"), vec![RuleId::P2]);
        // The graph I/O module is additionally under the no-panic rule.
        assert_eq!(
            rules_for("crates/graph/src/io.rs"),
            vec![RuleId::D1, RuleId::D2, RuleId::D3, RuleId::P2]
        );
        assert_eq!(rules_for("crates/bench/src/lib.rs"), Vec::<RuleId>::new());
        // A sibling file must not match a directory prefix by accident.
        assert_eq!(
            rules_for("crates/algos/src/execution.rs"),
            vec![RuleId::D1, RuleId::D2, RuleId::D3]
        );
    }
}
