//! Integration tests: each rule against a known-bad and known-clean
//! fixture (exact rule ids and line numbers), the suppression grammar's
//! accept and reject paths, the binary's exit-code contract, and the
//! meta-test that the auditor runs clean on the workspace it ships in.

use std::path::{Path, PathBuf};
use std::process::Command;

use waso_audit::json::Json;
use waso_audit::{audit_source, audit_workspace, report_to_json, rules, RuleId};

fn fixture_path(name: &str) -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/fixtures")
        .join(name)
}

/// Audits a fixture and reduces each diagnostic to `(line, rule)` — the
/// shape every expectation below asserts exactly.
fn audit_fixture(name: &str, rules: &[RuleId]) -> Vec<(u32, RuleId)> {
    let path = fixture_path(name);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("reading fixture {}: {e}", path.display()));
    audit_source(name, &src, rules)
        .into_iter()
        .map(|d| (d.line, d.rule))
        .collect()
}

#[test]
fn d1_bad_fixture_flags_every_hash_container() {
    assert_eq!(
        audit_fixture("d1_bad.rs", &[RuleId::D1]),
        vec![
            (1, RuleId::D1), // HashMap in the use list
            (1, RuleId::D1), // HashSet in the use list
            (4, RuleId::D1), // HashMap type annotation
            (4, RuleId::D1), // HashMap::new()
            (5, RuleId::D1), // HashSet::new()
        ]
    );
}

#[test]
fn d1_clean_fixture_passes() {
    assert_eq!(audit_fixture("d1_clean.rs", &[RuleId::D1]), vec![]);
}

#[test]
fn d2_bad_fixture_flags_clocks_and_entropy() {
    assert_eq!(
        audit_fixture("d2_bad.rs", &[RuleId::D2]),
        vec![
            (1, RuleId::D2),  // SystemTime in the use list
            (4, RuleId::D2),  // Instant::now()
            (5, RuleId::D2),  // SystemTime::now()
            (10, RuleId::D2), // thread_rng()
        ]
    );
}

#[test]
fn d2_does_not_flag_bare_instant() {
    // `Instant` alone (line 1 of the fixture, and the `t0.elapsed()`
    // call) is fine — only the `Instant::now` path is a clock source.
    let diags = audit_fixture("d2_bad.rs", &[RuleId::D2]);
    assert_eq!(diags.iter().filter(|(line, _)| *line == 6).count(), 0);
}

#[test]
fn d2_clean_fixture_passes() {
    assert_eq!(audit_fixture("d2_clean.rs", &[RuleId::D2]), vec![]);
}

#[test]
fn p2_calls_bad_fixture_flags_each_panic_class() {
    // Every fn of a rooted file is a root, so a panic in its own body is
    // reachable at depth 0.
    assert_eq!(
        audit_fixture("p2_calls_bad.rs", &[RuleId::P2]),
        vec![
            (2, RuleId::P2),  // .unwrap()
            (6, RuleId::P2),  // .expect(…)
            (10, RuleId::P2), // panic!
            (14, RuleId::P2), // todo!
        ]
    );
}

#[test]
fn p2_calls_clean_fixture_passes_including_test_module() {
    // The clean fixture deliberately unwraps and panics inside a
    // `#[cfg(test)]` module — the skip mask must cover it.
    assert_eq!(audit_fixture("p2_calls_clean.rs", &[RuleId::P2]), vec![]);
}

#[test]
fn l2_pairs_bad_fixture_flags_the_inverted_indexed_acquisition() {
    // `drain` takes plan → slots[_]; `heal` takes slots[_] → plan. The
    // indexed locks normalize to one family, so the two orders form a
    // 2-cycle, reported at its first edge's witness in `drain`.
    assert_eq!(
        audit_fixture("l2_pairs_bad.rs", &[RuleId::L2]),
        vec![(6, RuleId::L2)]
    );
}

#[test]
fn l2_pairs_clean_fixture_passes() {
    assert_eq!(audit_fixture("l2_pairs_clean.rs", &[RuleId::L2]), vec![]);
}

#[test]
fn l2_io_read_with_arguments_is_not_a_lock() {
    // `fill` holds `plan` across `src.read(&mut buf)`, and `scan` takes
    // `src.read()` before `plan`. Were the argument-taking io read a
    // lock, the two fns would form a `Store.plan` ↔ `Store.src` cycle.
    assert_eq!(audit_fixture("l2_io_read_clean.rs", &[RuleId::L2]), vec![]);
}

#[test]
fn p2_bad_fixture_flags_indexing_and_unwrap_on_dispatch_paths() {
    assert_eq!(
        audit_fixture("p2_bad.rs", &[RuleId::P2]),
        vec![
            (4, RuleId::P2),  // jobs[job]
            (10, RuleId::P2), // digits.unwrap()
        ]
    );
}

#[test]
fn p2_clean_fixture_passes_through_shield_and_test_mask() {
    // Typed errors, an unwrap inside catch_unwind (barrier), and an
    // unwrap inside `#[cfg(test)]` (skip mask) — all clean.
    assert_eq!(audit_fixture("p2_clean.rs", &[RuleId::P2]), vec![]);
}

/// The acceptance shape: a panic two calls deep from a serve dispatch
/// fn, across a file boundary, reported at the panic site with the full
/// witness chain. Only `p2_root.rs` is P2-rooted; the helpers are pure
/// call-graph context.
#[test]
fn p2_chain_crosses_files_and_names_the_full_chain() {
    let corpus: Vec<(String, String)> = ["p2_root.rs", "p2_helpers.rs"]
        .iter()
        .map(|name| {
            let src = std::fs::read_to_string(fixture_path(name)).unwrap();
            (name.to_string(), src)
        })
        .collect();
    let diags = rules::audit_corpus(&corpus, &|rel| {
        if rel == "p2_root.rs" {
            vec![RuleId::P2]
        } else {
            Vec::new()
        }
    });
    assert_eq!(diags.len(), 1, "exactly the one reachable panic: {diags:?}");
    let d = &diags[0];
    assert_eq!(
        (d.file.as_str(), d.line, d.rule),
        ("p2_helpers.rs", 9, RuleId::P2)
    );
    assert_eq!(d.chain, vec!["dispatch", "prepare", "decode"]);
    assert!(
        d.message.contains("chain: dispatch → prepare → decode"),
        "diagnostic renders the witness chain: {}",
        d.message
    );
    assert!(
        d.message.contains("reachable from serve fn `dispatch`"),
        "diagnostic names the root: {}",
        d.message
    );
}

#[test]
fn l2_bad_fixture_flags_the_cycle_and_the_send_under_lock() {
    let path = fixture_path("l2_bad.rs");
    let src = std::fs::read_to_string(&path).unwrap();
    let diags = audit_source("l2_bad.rs", &src, &[RuleId::L2]);
    let shape: Vec<(u32, RuleId)> = diags.iter().map(|d| (d.line, d.rule)).collect();
    assert_eq!(
        shape,
        vec![
            (15, RuleId::L2), // cycle, reported at the a→b witness
            (27, RuleId::L2), // send under Pair.a's guard
        ]
    );
    let cycle = &diags[0];
    assert_eq!(cycle.chain, vec!["Pair::forward", "Pair::backward"]);
    assert!(
        cycle.message.contains("`Pair.a` → `Pair.b`")
            && cycle.message.contains("`Pair.b` → `Pair.a`"),
        "cycle message shows both edges: {}",
        cycle.message
    );
    assert!(
        diags[1]
            .message
            .contains("lock `Pair.a` (acquired line 26)"),
        "send diagnostic names the held lock: {}",
        diags[1].message
    );
}

#[test]
fn l2_clean_fixture_passes_with_consistent_order_and_early_drop() {
    assert_eq!(audit_fixture("l2_clean.rs", &[RuleId::L2]), vec![]);
}

#[test]
fn d3_bad_fixture_flags_unseeded_stream_and_ambient_read() {
    assert_eq!(
        audit_fixture("d3_bad.rs", &[RuleId::D3]),
        vec![
            (4, RuleId::D3), // seed_from_u64 without a seed-rooted arg
            (8, RuleId::D3), // env::var
        ]
    );
}

#[test]
fn d3_clean_fixture_passes_through_the_seedy_fixpoint() {
    assert_eq!(audit_fixture("d3_clean.rs", &[RuleId::D3]), vec![]);
}

#[test]
fn justified_suppressions_silence_their_rules() {
    assert_eq!(
        audit_fixture("suppress.rs", &[RuleId::D1, RuleId::D2]),
        vec![]
    );
}

#[test]
fn suppression_hygiene_is_itself_audited() {
    assert_eq!(
        audit_fixture("sup_bad.rs", &[RuleId::D1, RuleId::P2]),
        vec![
            (1, RuleId::Sup), // reasonless
            (4, RuleId::Sup), // unknown rule id
            (7, RuleId::Sup), // suppresses nothing
        ]
    );
}

#[test]
fn binary_exits_nonzero_on_bad_fixture_and_names_the_rule() {
    let out = Command::new(env!("CARGO_BIN_EXE_waso-audit"))
        .arg(fixture_path("d1_bad.rs"))
        .output()
        .unwrap_or_else(|e| panic!("running waso-audit: {e}"));
    assert_eq!(out.status.code(), Some(1), "bad fixture must exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("D1"), "diagnostics name the rule: {stdout}");
    assert!(
        stdout.contains("d1_bad.rs:1"),
        "diagnostics carry file:line: {stdout}"
    );
}

#[test]
fn binary_exits_zero_on_clean_fixture() {
    let out = Command::new(env!("CARGO_BIN_EXE_waso-audit"))
        .arg(fixture_path("d1_clean.rs"))
        .output()
        .unwrap_or_else(|e| panic!("running waso-audit: {e}"));
    assert_eq!(out.status.code(), Some(0), "clean fixture must exit 0");
}

fn workspace_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .map(Path::to_path_buf)
        .unwrap_or_else(|| panic!("crates/audit has a workspace two levels up"))
}

/// The auditor's reason to exist: the workspace it ships in holds its
/// own invariants — under the *full* rule set, interprocedural rules
/// included. Any reintroduced HashMap in a solver crate, unwrap on a
/// serving path, or panic newly reachable from a dispatch fn fails this
/// test before it reaches CI.
#[test]
fn workspace_is_audit_clean() {
    let root = workspace_root();
    let report =
        audit_workspace(&root).unwrap_or_else(|e| panic!("auditing {}: {e}", root.display()));
    assert!(
        report.files_audited > 20,
        "scope collapsed — only {} files audited",
        report.files_audited
    );
    let rendered: Vec<String> = report.diagnostics.iter().map(ToString::to_string).collect();
    assert!(
        rendered.is_empty(),
        "workspace invariant violations:\n{}",
        rendered.join("\n")
    );
}

#[test]
fn rule_flag_accepts_comma_separated_lists() {
    // P2 restricted in: findings. P2 excluded (D2 only): clean exit.
    let out = Command::new(env!("CARGO_BIN_EXE_waso-audit"))
        .args(["--rule", "D2,P2"])
        .arg(fixture_path("p2_calls_bad.rs"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(1));
    assert!(String::from_utf8_lossy(&out.stdout).contains("P2"));

    let out = Command::new(env!("CARGO_BIN_EXE_waso-audit"))
        .args(["--rule", "D2"])
        .arg(fixture_path("p2_calls_bad.rs"))
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0), "P2 findings were not requested");

    let out = Command::new(env!("CARGO_BIN_EXE_waso-audit"))
        .args(["--rule", "D2,bogus"])
        .arg(fixture_path("p2_calls_bad.rs"))
        .output()
        .unwrap();
    assert_eq!(
        out.status.code(),
        Some(2),
        "unknown rule id is a usage error"
    );
}

/// `--format json` output — from an in-process report *and* from the
/// binary run against the real workspace — validates against the
/// committed `audit-report.schema.json`, and round-trips through the
/// parser.
#[test]
fn json_report_validates_against_the_committed_schema() {
    let schema_text = std::fs::read_to_string(workspace_root().join("audit-report.schema.json"))
        .expect("committed schema");
    let schema = Json::parse(&schema_text).expect("schema parses");

    // A report with findings (chains included), via the library.
    let src = std::fs::read_to_string(fixture_path("p2_bad.rs")).unwrap();
    let report = waso_audit::AuditReport {
        diagnostics: audit_source("p2_bad.rs", &src, &[RuleId::P2]),
        files_audited: 1,
    };
    assert!(!report.diagnostics.is_empty());
    let doc = report_to_json(&report);
    validate(&schema, &doc).expect("fixture report matches the schema");
    assert_eq!(Json::parse(&doc.render()).unwrap(), doc, "round-trips");

    // The real workspace, via the binary.
    let out = Command::new(env!("CARGO_BIN_EXE_waso-audit"))
        .args(["--workspace", "--format", "json", "--root"])
        .arg(workspace_root())
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(0));
    let doc = Json::parse(&String::from_utf8_lossy(&out.stdout)).expect("binary emits JSON");
    validate(&schema, &doc).expect("workspace report matches the schema");
    assert_eq!(
        doc.get("schema").and_then(Json::as_str),
        Some("waso-audit-report/v1")
    );
}

/// A deliberately small JSON Schema checker covering exactly the
/// features `audit-report.schema.json` uses: type, const, enum,
/// required, properties, additionalProperties:false, items, minimum,
/// minItems. Validating with anything richer would mean a dependency.
fn validate(schema: &Json, value: &Json) -> Result<(), String> {
    if let Some(c) = schema.get("const") {
        if c != value {
            return Err(format!("const mismatch: wanted {c:?}, got {value:?}"));
        }
    }
    if let Some(options) = schema.get("enum").and_then(Json::as_arr) {
        if !options.iter().any(|o| o == value) {
            return Err(format!("{value:?} not in enum {options:?}"));
        }
    }
    if let Some(t) = schema.get("type").and_then(Json::as_str) {
        let ok = match t {
            "object" => matches!(value, Json::Obj(_)),
            "array" => matches!(value, Json::Arr(_)),
            "string" => matches!(value, Json::Str(_)),
            "integer" => value.as_u64().is_some(),
            other => return Err(format!("unsupported schema type {other:?}")),
        };
        if !ok {
            return Err(format!("{value:?} is not of type {t}"));
        }
    }
    if let Some(min) = schema.get("minimum").and_then(Json::as_u64) {
        if value.as_u64().is_some_and(|v| v < min) {
            return Err(format!("{value:?} below minimum {min}"));
        }
    }
    if let Json::Obj(fields) = value {
        if let Some(required) = schema.get("required").and_then(Json::as_arr) {
            for key in required {
                let key = key.as_str().ok_or("required entries are strings")?;
                if value.get(key).is_none() {
                    return Err(format!("missing required field {key:?}"));
                }
            }
        }
        let props = schema.get("properties");
        for (key, field_value) in fields {
            match props.and_then(|p| p.get(key)) {
                Some(sub) => {
                    validate(sub, field_value).map_err(|e| format!("in field {key:?}: {e}"))?
                }
                None => {
                    if schema.get("additionalProperties") == Some(&Json::Bool(false)) {
                        return Err(format!("unexpected field {key:?}"));
                    }
                }
            }
        }
    }
    if let Json::Arr(items) = value {
        if let Some(min) = schema.get("minItems").and_then(Json::as_u64) {
            if (items.len() as u64) < min {
                return Err(format!("array shorter than minItems {min}"));
            }
        }
        if let Some(sub) = schema.get("items") {
            for (i, item) in items.iter().enumerate() {
                validate(sub, item).map_err(|e| format!("at index {i}: {e}"))?;
            }
        }
    }
    Ok(())
}
