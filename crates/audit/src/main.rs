//! The `waso-audit` binary: the CI gate and local pre-commit check.
//!
//! ```text
//! waso-audit --workspace [--root DIR] [--rule IDS]... [--format FMT]
//! waso-audit [--rule IDS]... [--format FMT] FILE...
//! waso-audit --list-rules
//! ```
//!
//! `--workspace` audits every file the rule scopes cover (finding the
//! workspace root upward from the current directory, or from `--root`).
//! Explicit `FILE` arguments are audited under *all* rules (restricted
//! by `--rule`), regardless of scope — handy for fixtures and editors.
//!
//! Exit status: 0 clean, 1 violations, 2 usage or I/O error.

use std::path::PathBuf;
use std::process::ExitCode;

use waso_audit::{
    audit_source, audit_workspace_rules, find_workspace_root, report_to_json, AuditReport, RuleId,
    SCOPES,
};

#[derive(PartialEq)]
enum Format {
    Text,
    Json,
}

struct Args {
    workspace: bool,
    root: Option<PathBuf>,
    rules: Vec<RuleId>,
    list_rules: bool,
    format: Format,
    files: Vec<PathBuf>,
}

fn usage() -> &'static str {
    "usage: waso-audit --workspace [--root DIR] [--rule IDS]... [--format FMT]\n\
     \u{20}      waso-audit [--rule IDS]... [--format FMT] FILE...\n\
     \u{20}      waso-audit --list-rules\n\
     \n\
     \u{20} --rule IDS    comma-separated rule ids, repeatable: --rule P2,L2,D3\n\
     \u{20} --format FMT  `text` (default) or `json` (a waso-audit-report/v1 document)\n\
     \n\
     exit codes: 0 clean, 1 violations, 2 usage or I/O error\n\
     rules: D1 D2 D3 P2 L2 (SUP always runs); see --list-rules"
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workspace: false,
        root: None,
        rules: Vec::new(),
        list_rules: false,
        format: Format::Text,
        files: Vec::new(),
    };
    let mut it = std::env::args().skip(1);
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--workspace" => args.workspace = true,
            "--root" => {
                let dir = it.next().ok_or("--root needs a directory argument")?;
                args.root = Some(PathBuf::from(dir));
            }
            "--rule" => {
                let ids = it.next().ok_or("--rule needs a rule id argument")?;
                for id in ids.split(',') {
                    let id = id.trim();
                    let rule = RuleId::parse(id).ok_or_else(|| format!("unknown rule `{id}`"))?;
                    if !args.rules.contains(&rule) {
                        args.rules.push(rule);
                    }
                }
            }
            "--format" => {
                let fmt = it.next().ok_or("--format needs `text` or `json`")?;
                args.format = match fmt.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    other => return Err(format!("unknown format `{other}` (text|json)")),
                };
            }
            "--list-rules" => args.list_rules = true,
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with('-') => {
                return Err(format!("unknown flag `{other}`"));
            }
            file => args.files.push(PathBuf::from(file)),
        }
    }
    if !args.list_rules && !args.workspace && args.files.is_empty() {
        return Err("nothing to audit: pass --workspace or files".to_string());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(msg) => {
            if !msg.is_empty() {
                eprintln!("waso-audit: {msg}");
            }
            eprintln!("{}", usage());
            return ExitCode::from(2);
        }
    };

    if args.list_rules {
        for rule in RuleId::CHECKABLE.into_iter().chain([RuleId::Sup]) {
            let scope: Vec<&str> = SCOPES
                .iter()
                .filter(|(r, _)| *r == rule)
                .flat_map(|(_, p)| p.iter().copied())
                .collect();
            let scope = if scope.is_empty() {
                "(always on)".to_string()
            } else {
                scope.join(", ")
            };
            println!("{rule}  {}\n    scope: {scope}", rule.describe());
        }
        return ExitCode::SUCCESS;
    }

    let mut report = AuditReport::default();

    if args.workspace {
        let root = match args.root.clone().or_else(|| {
            std::env::current_dir()
                .ok()
                .and_then(|d| find_workspace_root(&d))
        }) {
            Some(r) => r,
            None => {
                eprintln!("waso-audit: no workspace root found (try --root)");
                return ExitCode::from(2);
            }
        };
        match audit_workspace_rules(&root, &args.rules) {
            Ok(r) => {
                report.diagnostics.extend(r.diagnostics);
                report.files_audited += r.files_audited;
            }
            Err(e) => {
                eprintln!("waso-audit: {}: {e}", root.display());
                return ExitCode::from(2);
            }
        }
    }

    for file in &args.files {
        let src = match std::fs::read_to_string(file) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("waso-audit: {}: {e}", file.display());
                return ExitCode::from(2);
            }
        };
        let rules: Vec<RuleId> = if args.rules.is_empty() {
            RuleId::CHECKABLE.to_vec()
        } else {
            args.rules.clone()
        };
        report.files_audited += 1;
        report
            .diagnostics
            .extend(audit_source(&file.display().to_string(), &src, &rules));
    }
    report
        .diagnostics
        .sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));

    match args.format {
        Format::Text => {
            for d in &report.diagnostics {
                println!("{d}");
            }
            println!(
                "waso-audit: {} violation(s) across {} file(s) audited",
                report.diagnostics.len(),
                report.files_audited
            );
        }
        Format::Json => println!("{}", report_to_json(&report).render()),
    }

    if report.diagnostics.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
