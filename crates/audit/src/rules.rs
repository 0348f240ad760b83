//! The audited invariants: rule definitions, the suppression grammar,
//! and the per-file audit pass.
//!
//! | Rule | Contract |
//! |------|----------|
//! | `D1` | No unordered `HashMap`/`HashSet` in determinism-scoped crates — iteration order leaks into accumulation order and breaks bit-identity. |
//! | `D2` | No entropy/clock sources (`thread_rng`, `from_entropy`, `SystemTime`, `Instant::now`) — randomness flows from seeded `mix_seed` streams, time from the `StopState` deadline plumbing. |
//! | `D3` | Determinism taint (interprocedural): every RNG construction must derive from a `mix_seed`-rooted source, and memo-keyed solve paths must not read ambient state (`env::var`) — solves are memoized as pure functions of (instance, spec, seed). |
//! | `P2` | Panic reachability (interprocedural): no function in a rooted file (the serving crate, the graph I/O module) may reach a panic-class call (`unwrap`/`expect`/`panic!`/`todo!`/`unimplemented!`/`unreachable!`) — or panic-capable slice indexing in a rooted file or the executor/session scope — directly or through the call graph; `catch_unwind` is a barrier. Every fallible path answers with a typed protocol error. Diagnostics carry the full call chain. |
//! | `L2` | Lock-graph cycles (interprocedural): per-fn held-lock summaries propagate through calls; any cycle in the global acquisition-order graph is flagged — two functions taking the same pair of locks in opposite order is a 2-cycle — as is a lock held across a channel `.send(…)` (a bounded-channel deadlock risk). |
//! | `SUP` | The suppression grammar itself: every `audit:allow` must name known rules, carry a written reason, and actually suppress something. |
//!
//! Suppressions: `// audit:allow(D1): reason` covers its own line and
//! the next; `// audit:allow-file(D2): reason` covers the whole file.
//! `#[cfg(test)]` items and `#[test]` functions are skipped wholesale —
//! the contracts bind shipping code, and tests assert panics on purpose.
//!
//! `D1`/`D2` are per-file token passes. `P2`/`L2`/`D3` are
//! interprocedural: they run over a whole *corpus* of files at once
//! (see [`audit_corpus`]), building the item tree and call graph from
//! [`crate::items`]/[`crate::callgraph`] and computing fixpoints over
//! it. Their diagnostics may land in files outside the rule's root
//! scope (a serve-reachable panic in `src/session.rs` is still a `P2`
//! finding *at the panic site*), and suppression there works as usual.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt;

use crate::callgraph::{CallGraph, FileIndex};
use crate::lexer::{lex, Lexed, Tok};

/// A rule's identity, as printed in diagnostics and named in
/// suppressions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum RuleId {
    /// Determinism: no unordered hash containers.
    D1,
    /// Determinism: no ambient entropy or clock sources.
    D2,
    /// Determinism taint: RNG constructions must be seed-rooted; no
    /// ambient-state reads in memo-keyed solve paths (interprocedural).
    D3,
    /// Panic reachability: no serve-scope fn may transitively reach a
    /// panic-class call or panic-capable indexing (interprocedural).
    P2,
    /// Lock-graph cycles and lock-held-across-send (interprocedural).
    L2,
    /// Suppression hygiene (always on; not user-selectable as a scope).
    Sup,
}

impl RuleId {
    /// Every scope-assignable rule (excludes `SUP`, which always runs).
    pub const CHECKABLE: [RuleId; 5] = [RuleId::D1, RuleId::D2, RuleId::D3, RuleId::P2, RuleId::L2];

    /// The interprocedural rules: they need the whole corpus, not one
    /// file at a time.
    pub const INTERPROCEDURAL: [RuleId; 3] = [RuleId::P2, RuleId::L2, RuleId::D3];

    pub fn as_str(self) -> &'static str {
        match self {
            RuleId::D1 => "D1",
            RuleId::D2 => "D2",
            RuleId::D3 => "D3",
            RuleId::P2 => "P2",
            RuleId::L2 => "L2",
            RuleId::Sup => "SUP",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "D1" => Some(RuleId::D1),
            "D2" => Some(RuleId::D2),
            "D3" => Some(RuleId::D3),
            "P2" => Some(RuleId::P2),
            "L2" => Some(RuleId::L2),
            "SUP" => Some(RuleId::Sup),
            _ => None,
        }
    }

    /// One-line description for `--list-rules` and the README table.
    pub fn describe(self) -> &'static str {
        match self {
            RuleId::D1 => {
                "no unordered HashMap/HashSet in determinism-scoped crates \
                 (use BTreeMap/BTreeSet or a sorted Vec)"
            }
            RuleId::D2 => {
                "no entropy/clock sources (thread_rng, from_entropy, SystemTime, \
                 Instant::now) — seed randomness via mix_seed, time via StopState"
            }
            RuleId::D3 => {
                "RNG constructions must derive from a mix_seed-rooted source, and \
                 memo-keyed solve paths must not read ambient state (env::var)"
            }
            RuleId::P2 => {
                "no fn in a rooted file (serve, graph I/O) may reach a panic-class \
                 call or panic-capable indexing, directly or through calls; \
                 diagnostics carry the call chain"
            }
            RuleId::L2 => {
                "no cycles in the interprocedural lock-order graph; no lock held \
                 across a channel send (bounded-channel deadlock risk)"
            }
            RuleId::Sup => "suppressions must name known rules, give a reason, and be used",
        }
    }
}

impl fmt::Display for RuleId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One violation (or suppression-hygiene problem) at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    pub rule: RuleId,
    pub message: String,
    /// For interprocedural rules: the witness call chain (qualified fn
    /// names, root first). Empty for token-level rules. The rendered
    /// chain is already part of `message`; this field feeds the JSON
    /// report.
    pub chain: Vec<String>,
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: {}: {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// A parsed `audit:allow` comment.
#[derive(Debug)]
struct Suppression {
    line: u32,
    rules: Vec<RuleId>,
    file_wide: bool,
    used: bool,
}

/// Audits one file's source under the given rules (plus `SUP`, always).
/// `file` is the label diagnostics carry; the caller decides scoping.
///
/// Interprocedural rules run against the single-file corpus: the file
/// is its own root scope, which is exactly what fixtures and editor
/// invocations want.
pub fn audit_source(file: &str, src: &str, rules: &[RuleId]) -> Vec<Diagnostic> {
    let files = [(file.to_string(), src.to_string())];
    let rules = rules.to_vec();
    audit_corpus(&files, &|_| rules.clone())
}

/// Audits a corpus of files as one unit. Per-file rules run on each
/// file under `rules_for_file(rel)`; interprocedural rules (P2/L2/D3)
/// see the *whole* corpus as call-graph context and use
/// `rules_for_file` only to decide each rule's root/fact scope.
/// Suppressions and hygiene apply per file at the end, over both kinds
/// of findings.
pub fn audit_corpus(
    files: &[(String, String)],
    rules_for_file: &dyn Fn(&str) -> Vec<RuleId>,
) -> Vec<Diagnostic> {
    // Phase 1: per-file artifacts.
    let mut indexes: Vec<FileIndex> = Vec::with_capacity(files.len());
    let mut active: Vec<Vec<RuleId>> = Vec::with_capacity(files.len());
    for (rel, src) in files {
        let lexed = lex(src);
        let skip = test_skip_mask(&lexed);
        indexes.push(FileIndex::build(rel.clone(), lexed, skip));
        active.push(rules_for_file(rel));
    }

    // Phase 2: token-level passes.
    let mut raw: Vec<Vec<Diagnostic>> = vec![Vec::new(); files.len()];
    for (fi, index) in indexes.iter().enumerate() {
        let (file, lexed, skip) = (index.rel.as_str(), &index.lexed, &index.skip);
        for &rule in &active[fi] {
            match rule {
                RuleId::D1 => d1_hash_containers(file, lexed, skip, &mut raw[fi]),
                RuleId::D2 => d2_entropy_clocks(file, lexed, skip, &mut raw[fi]),
                RuleId::D3 | RuleId::P2 | RuleId::L2 | RuleId::Sup => {}
            }
        }
    }

    // Phase 3: interprocedural passes over the whole corpus.
    let global: Vec<RuleId> = RuleId::INTERPROCEDURAL
        .into_iter()
        .filter(|r| active.iter().any(|a| a.contains(r)))
        .collect();
    if !global.is_empty() {
        let graph = CallGraph::build(&indexes);
        let in_scope =
            |fi: usize, rule: RuleId| -> bool { active.get(fi).is_some_and(|a| a.contains(&rule)) };
        if global.contains(&RuleId::P2) {
            p2_panic_reachability(&indexes, &graph, &|fi| in_scope(fi, RuleId::P2), &mut raw);
        }
        if global.contains(&RuleId::L2) {
            l2_lock_graph(&indexes, &graph, &|fi| in_scope(fi, RuleId::L2), &mut raw);
        }
        if global.contains(&RuleId::D3) {
            d3_determinism_taint(&indexes, &graph, &|fi| in_scope(fi, RuleId::D3), &mut raw);
        }
    }

    // Phase 4: suppressions + hygiene, per file.
    let mut diags: Vec<Diagnostic> = Vec::new();
    for (fi, index) in indexes.iter().enumerate() {
        let file = index.rel.as_str();
        let (mut sups, malformed) = parse_suppressions(file, &index.lexed);
        diags.extend(malformed);
        // A line suppression covers its own line and the next, a file
        // suppression the whole file.
        for d in std::mem::take(&mut raw[fi]) {
            let mut suppressed = false;
            for sup in sups.iter_mut() {
                let covers = sup.file_wide || sup.line == d.line || sup.line + 1 == d.line;
                if covers && sup.rules.contains(&d.rule) {
                    sup.used = true;
                    suppressed = true;
                    // Keep scanning: overlapping suppressions all count
                    // as used rather than racing for the first match.
                }
            }
            if !suppressed {
                diags.push(d);
            }
        }
        // Hygiene: a suppression that suppressed nothing is stale —
        // unless it names rules that did not run here, in which case we
        // cannot tell and stay quiet. Interprocedural rules count as
        // "run" for every corpus file once they ran at all.
        let ran: Vec<RuleId> = active[fi]
            .iter()
            .copied()
            .chain(global.iter().copied())
            .collect();
        for sup in &sups {
            if !sup.used && sup.rules.iter().all(|r| ran.contains(r)) {
                diags.push(Diagnostic {
                    file: file.to_string(),
                    line: sup.line,
                    rule: RuleId::Sup,
                    message: format!(
                        "unused suppression for {} — nothing on this or the next line trips it; remove it",
                        sup.rules
                            .iter()
                            .map(|r| r.as_str())
                            .collect::<Vec<_>>()
                            .join(",")
                    ),
                    chain: Vec::new(),
                });
            }
        }
    }

    diags.sort_by(|a, b| (&a.file, a.line, a.rule).cmp(&(&b.file, b.line, b.rule)));
    diags
}

/// Parses every `audit:allow` comment; malformed ones become `SUP`
/// diagnostics immediately.
fn parse_suppressions(file: &str, lexed: &Lexed) -> (Vec<Suppression>, Vec<Diagnostic>) {
    let mut sups = Vec::new();
    let mut diags = Vec::new();
    let sup_diag = |line: u32, message: String| Diagnostic {
        file: file.to_string(),
        line,
        rule: RuleId::Sup,
        message,
        chain: Vec::new(),
    };
    for &(line, ref text) in &lexed.comments {
        let Some(pos) = text.find("audit:allow") else {
            continue;
        };
        let rest = &text[pos + "audit:allow".len()..];
        let (file_wide, rest) = match rest.strip_prefix("-file") {
            Some(r) => (true, r),
            None => (false, rest),
        };
        let Some(rest) = rest.strip_prefix('(') else {
            diags.push(sup_diag(
                line,
                "malformed suppression: expected `audit:allow(RULE, …): reason`".to_string(),
            ));
            continue;
        };
        let Some(close) = rest.find(')') else {
            diags.push(sup_diag(
                line,
                "malformed suppression: missing `)` after the rule list".to_string(),
            ));
            continue;
        };
        let mut rules = Vec::new();
        let mut bad = false;
        for name in rest[..close].split(',') {
            let name = name.trim();
            match RuleId::parse(name) {
                Some(RuleId::Sup) | None => {
                    diags.push(sup_diag(
                        line,
                        format!("unknown rule `{name}` in suppression"),
                    ));
                    bad = true;
                }
                Some(r) => rules.push(r),
            }
        }
        if bad {
            continue;
        }
        let after = &rest[close + 1..];
        let reason = after.strip_prefix(':').map(str::trim);
        match reason {
            Some(r) if !r.is_empty() => sups.push(Suppression {
                line,
                rules,
                file_wide,
                used: false,
            }),
            _ => diags.push(sup_diag(
                line,
                "suppression without a written reason: every `audit:allow` must \
                 justify itself as `audit:allow(RULE): reason`"
                    .to_string(),
            )),
        }
    }
    (sups, diags)
}

/// Marks every token inside a `#[test]` or `#[cfg(test)]`-gated item.
/// Heuristic: an attribute whose token list contains the identifier
/// `test` but not `not` gates the following item (`#[cfg(not(test))]`
/// stays audited). The item extends to its closing `}` or `;`.
pub(crate) fn test_skip_mask(lexed: &Lexed) -> Vec<bool> {
    let toks = &lexed.tokens;
    let mut skip = vec![false; toks.len()];
    let mut i = 0usize;
    while i < toks.len() {
        if lexed.punct(i) != Some(b'#') || lexed.punct(i + 1) != Some(b'[') {
            i += 1;
            continue;
        }
        // Find the attribute's closing `]`.
        let mut depth = 0usize;
        let mut j = i + 1;
        let mut close = None;
        while j < toks.len() {
            match lexed.punct(j) {
                Some(b'[') => depth += 1,
                Some(b']') => {
                    depth -= 1;
                    if depth == 0 {
                        close = Some(j);
                        break;
                    }
                }
                _ => {}
            }
            j += 1;
        }
        let Some(close) = close else { break };
        let attr = &toks[i + 2..close];
        let has = |name: &str| {
            attr.iter()
                .any(|t| matches!(&t.tok, Tok::Ident(s) if s == name))
        };
        if !has("test") || has("not") {
            i = close + 1;
            continue;
        }
        // Skip from the attribute through the gated item: forward to the
        // first `{` (then its match) or `;`, whichever comes first.
        let mut k = close + 1;
        let mut end = toks.len();
        while k < toks.len() {
            match lexed.punct(k) {
                Some(b';') => {
                    end = k + 1;
                    break;
                }
                Some(b'{') => {
                    let mut braces = 0usize;
                    while k < toks.len() {
                        match lexed.punct(k) {
                            Some(b'{') => braces += 1,
                            Some(b'}') => {
                                braces -= 1;
                                if braces == 0 {
                                    break;
                                }
                            }
                            _ => {}
                        }
                        k += 1;
                    }
                    end = (k + 1).min(toks.len());
                    break;
                }
                _ => k += 1,
            }
        }
        for s in skip.iter_mut().take(end).skip(i) {
            *s = true;
        }
        i = end;
    }
    skip
}

fn push(raw: &mut Vec<Diagnostic>, file: &str, line: u32, rule: RuleId, message: String) {
    raw.push(Diagnostic {
        file: file.to_string(),
        line,
        rule,
        message,
        chain: Vec::new(),
    });
}

/// D1: any `HashMap`/`HashSet` identifier in code position. Conservative
/// on purpose — a lookup-only map is flagged too, because the next edit
/// that iterates it will not be; provably lookup-only uses opt out with
/// a justified suppression, everything else moves to ordered containers.
fn d1_hash_containers(file: &str, lexed: &Lexed, skip: &[bool], raw: &mut Vec<Diagnostic>) {
    for (i, t) in lexed.tokens.iter().enumerate() {
        if skip[i] {
            continue;
        }
        if let Tok::Ident(s) = &t.tok {
            if s == "HashMap" || s == "HashSet" {
                push(
                    raw,
                    file,
                    t.line,
                    RuleId::D1,
                    format!(
                        "`{s}` iterates in instance-randomized order, which breaks the \
                         bit-identity contract; use BTree{}/a sorted Vec, or justify with \
                         `audit:allow(D1)`",
                        &s[4..]
                    ),
                );
            }
        }
    }
}

/// D2: ambient entropy/clock sources. `Instant::now` matches as the
/// token triple; the other names are single identifiers.
fn d2_entropy_clocks(file: &str, lexed: &Lexed, skip: &[bool], raw: &mut Vec<Diagnostic>) {
    for (i, t) in lexed.tokens.iter().enumerate() {
        if skip[i] {
            continue;
        }
        let Tok::Ident(s) = &t.tok else { continue };
        let name: &str = match s.as_str() {
            "thread_rng" | "from_entropy" | "SystemTime" => s,
            "Instant"
                if lexed.punct(i + 1) == Some(b':')
                    && lexed.punct(i + 2) == Some(b':')
                    && lexed.ident(i + 3) == Some("now") =>
            {
                "Instant::now"
            }
            _ => continue,
        };
        push(
            raw,
            file,
            t.line,
            RuleId::D2,
            format!(
                "`{name}` is an ambient entropy/clock source; randomness must flow from \
                 seeded mix_seed streams and time from the StopState deadline plumbing"
            ),
        );
    }
}

/// Reconstructs the receiver path of a lock call, walking backwards from
/// the `.` before `lock`/`read`/`write`. Index expressions normalize to
/// `[_]` so `self.slots[i]` and `self.slots[j]` are the same lock family.
fn lock_path(lexed: &Lexed, dot: usize) -> String {
    let mut parts: Vec<String> = Vec::new();
    let mut j = dot; // at the `.`
    loop {
        if j == 0 {
            break;
        }
        j -= 1;
        match &lexed.tokens[j].tok {
            Tok::Ident(s) => {
                parts.push(s.clone());
                // A `::`, `.` or `[` may continue the path to the left.
                if j >= 2 && lexed.punct(j - 1) == Some(b':') && lexed.punct(j - 2) == Some(b':') {
                    parts.push("::".to_string());
                    j -= 2;
                } else if j >= 1 && lexed.punct(j - 1) == Some(b'.') {
                    parts.push(".".to_string());
                    j -= 1;
                } else {
                    break;
                }
            }
            Tok::Punct(b']') => {
                // Walk back over the index expression to its `[`.
                let mut depth = 0usize;
                loop {
                    match lexed.punct(j) {
                        Some(b']') => depth += 1,
                        Some(b'[') => {
                            depth -= 1;
                            if depth == 0 {
                                break;
                            }
                        }
                        _ => {}
                    }
                    if j == 0 {
                        break;
                    }
                    j -= 1;
                }
                parts.push("[_]".to_string());
                if j == 0 {
                    break;
                }
                // The `[` must follow the indexed expression directly.
                match lexed.tokens[j - 1].tok {
                    Tok::Ident(_) | Tok::Punct(b']') => {}
                    _ => break,
                }
            }
            _ => break,
        }
    }
    parts.reverse();
    parts.concat()
}

// ---------------------------------------------------------------------
// Interprocedural passes (P2 / L2 / D3)
// ---------------------------------------------------------------------

/// Paths whose *slice-indexing* counts as a P2 panic fact, beyond the
/// rule's own root scope: the executor hot loops and the session facade
/// that serve dispatches into. Panic-class calls (`unwrap`, `panic!`, …)
/// are base facts corpus-wide; indexing is scoped here so that guarded
/// hot-path indexing elsewhere in the solver crates does not drown the
/// signal.
pub const P2_INDEX_SCOPE: &[&str] = &[
    "crates/serve/src",
    "src/session.rs",
    "crates/algos/src/exec.rs",
    "crates/algos/src/exec",
];

fn path_under(rel: &str, prefixes: &[&str]) -> bool {
    prefixes
        .iter()
        .any(|p| rel == *p || rel.strip_prefix(p).is_some_and(|r| r.starts_with('/')))
}

/// One panic-capable site inside a function.
struct PanicFact {
    line: u32,
    what: String,
}

/// P2: panic reachability. Roots are every non-test fn in files where
/// P2 is in scope; edges are the call graph minus `catch_unwind`
/// barriers; facts are panic-class tokens anywhere in the corpus plus
/// slice indexing inside [`P2_INDEX_SCOPE`]. Each reachable fact yields
/// one diagnostic *at the fact site* carrying a shortest witness chain
/// from a root — so a justified suppression at the site covers every
/// chain into it.
fn p2_panic_reachability(
    files: &[FileIndex],
    graph: &CallGraph,
    rooted: &dyn Fn(usize) -> bool,
    raw: &mut [Vec<Diagnostic>],
) {
    // Per-fn panic facts.
    let mut facts: Vec<Vec<PanicFact>> = (0..graph.fns.len()).map(|_| Vec::new()).collect();
    for (id, node) in graph.fns.iter().enumerate() {
        let file = &files[node.file];
        let index_scope = rooted(node.file) || path_under(&file.rel, P2_INDEX_SCOPE);
        let item = &file.tree.fns[node.item];
        let Some((open, close)) = item.body else {
            continue;
        };
        for idx in open..=close.min(file.lexed.tokens.len().saturating_sub(1)) {
            if file.owner[idx] != Some(node.item)
                || file.skip[idx]
                || file.barriered.get(idx).copied().unwrap_or(false)
            {
                continue;
            }
            if let Some(what) = panic_fact_at(&file.lexed, idx, index_scope) {
                facts[id].push(PanicFact {
                    line: file.lexed.tokens[idx].line,
                    what,
                });
            }
        }
    }

    // BFS from all roots at once over non-barriered edges; the parent
    // array reconstructs one shortest witness chain per reached fn.
    let mut parent: Vec<Option<usize>> = vec![None; graph.fns.len()];
    let mut reached: Vec<bool> = vec![false; graph.fns.len()];
    let mut queue: std::collections::VecDeque<usize> = (0..graph.fns.len())
        .filter(|&id| rooted(graph.fns[id].file))
        .collect();
    for &id in &queue {
        reached[id] = true;
    }
    while let Some(id) = queue.pop_front() {
        for call in &graph.fns[id].calls {
            if call.barriered || reached[call.callee] {
                continue;
            }
            reached[call.callee] = true;
            parent[call.callee] = Some(id);
            queue.push_back(call.callee);
        }
    }

    for (id, node) in graph.fns.iter().enumerate() {
        if !reached[id] || facts[id].is_empty() {
            continue;
        }
        // Witness chain root → … → this fn.
        let mut chain_ids = vec![id];
        let mut cur = id;
        while let Some(p) = parent[cur] {
            chain_ids.push(p);
            cur = p;
        }
        chain_ids.reverse();
        let chain: Vec<String> = chain_ids
            .iter()
            .map(|&f| graph.qualified(files, f))
            .collect();
        let rendered = chain.join(" → ");
        let root = &chain[0];
        for fact in &facts[id] {
            raw[node.file].push(Diagnostic {
                file: files[node.file].rel.clone(),
                line: fact.line,
                rule: RuleId::P2,
                message: format!(
                    "{what} is reachable from serve fn `{root}` (chain: {rendered}) — \
                     no dispatch/park/cancel path may panic; return a typed error or \
                     shield the subtree with catch_unwind",
                    what = fact.what
                ),
                chain: chain.clone(),
            });
        }
    }
}

/// Classifies the token at `idx` as a panic-capable site, if it is one.
fn panic_fact_at(lexed: &Lexed, idx: usize, index_scope: bool) -> Option<String> {
    if let Some(s) = lexed.ident(idx) {
        let method = (s == "unwrap" || s == "expect")
            && idx > 0
            && lexed.punct(idx - 1) == Some(b'.')
            && lexed.punct(idx + 1) == Some(b'(');
        if method {
            return Some(format!("`.{s}()`"));
        }
        let mac = matches!(s, "panic" | "todo" | "unimplemented" | "unreachable")
            && lexed.punct(idx + 1) == Some(b'!');
        if mac {
            return Some(format!("`{s}!`"));
        }
        return None;
    }
    if index_scope && lexed.punct(idx) == Some(b'[') && idx > 0 {
        // An index expression: `expr[…]` — `[` directly after an
        // identifier, `]`, or `)`. Types, attributes, and `vec![…]`
        // all have other predecessors.
        let indexes = matches!(
            lexed.tokens[idx - 1].tok,
            Tok::Ident(_) | Tok::Punct(b']') | Tok::Punct(b')')
        );
        if !indexes {
            return None;
        }
        // `[..]` (the full-range borrow) cannot panic; any other index
        // or sub-range can.
        if lexed.punct(idx + 1) == Some(b'.')
            && lexed.punct(idx + 2) == Some(b'.')
            && lexed.punct(idx + 3) == Some(b']')
        {
            return None;
        }
        return Some("panic-capable slice/array indexing `…[…]`".to_string());
    }
    None
}

/// One lock acquisition and the token range its guard is live for —
/// from the `.lock()`/`.read()`/`.write()` call to the end of the
/// binding's block (or `drop(guard)`), or to the end of the statement
/// for an unbound temporary guard.
struct LockLive {
    name: String,
    line: u32,
    start: usize,
    end: usize,
}

/// L2: propagate per-fn held-lock summaries through the call graph,
/// build the global acquisition-order graph, and flag (a) any cycle in
/// it and (b) a lock guard lexically held across a channel `.send(…)`
/// in files where L2 is in scope.
fn l2_lock_graph(
    files: &[FileIndex],
    graph: &CallGraph,
    scoped: &dyn Fn(usize) -> bool,
    raw: &mut [Vec<Diagnostic>],
) {
    // Per-fn acquisitions with lexical guard live ranges.
    let mut lives: Vec<Vec<LockLive>> = Vec::with_capacity(graph.fns.len());
    for node in &graph.fns {
        lives.push(lock_live_ranges(&files[node.file], node.item));
    }

    // Fixpoint: summary(f) = direct acquisitions ∪ summaries of callees.
    let mut summary: Vec<BTreeSet<String>> = vec![BTreeSet::new(); graph.fns.len()];
    for (id, fn_lives) in lives.iter().enumerate() {
        for l in fn_lives {
            summary[id].insert(l.name.clone());
        }
    }
    loop {
        let mut changed = false;
        for id in 0..graph.fns.len() {
            for call in &graph.fns[id].calls {
                if call.callee == id {
                    continue;
                }
                let add: Vec<String> = summary[call.callee]
                    .difference(&summary[id])
                    .cloned()
                    .collect();
                if !add.is_empty() {
                    changed = true;
                    summary[id].extend(add);
                }
            }
        }
        if !changed {
            break;
        }
    }

    // Order edges: a → b means "b acquired while a's guard is live",
    // with one deterministic witness per edge. Direct edges come from a
    // nested acquisition; transitive edges from a call whose summary
    // acquires, made while a guard is live.
    let mut edges: BTreeMap<(String, String), LockOrderWitness> = BTreeMap::new();
    for (id, fn_lives) in lives.iter().enumerate() {
        let fn_q = graph.qualified(files, id);
        let file = graph.fns[id].file;
        for held in fn_lives {
            for inner in fn_lives {
                if inner.name != held.name && inner.start > held.start && inner.start < held.end {
                    edges
                        .entry((held.name.clone(), inner.name.clone()))
                        .or_insert_with(|| LockOrderWitness {
                            fn_q: fn_q.clone(),
                            file,
                            line: inner.line,
                            via: None,
                        });
                }
            }
            for call in &graph.fns[id].calls {
                if call.tok <= held.start || call.tok >= held.end {
                    continue;
                }
                let callee_q = graph.qualified(files, call.callee);
                for m in &summary[call.callee] {
                    if *m != held.name {
                        edges
                            .entry((held.name.clone(), m.clone()))
                            .or_insert_with(|| LockOrderWitness {
                                fn_q: fn_q.clone(),
                                file,
                                line: call.line,
                                via: Some(callee_q.clone()),
                            });
                    }
                }
            }
        }
    }

    // Cycle detection over the lock-name digraph (DFS with path stack;
    // each distinct cycle reported once, at its first edge's witness).
    let nodes: BTreeSet<&String> = edges.keys().flat_map(|(a, b)| [a, b]).collect();
    let adj: BTreeMap<&String, Vec<&String>> = {
        let mut m: BTreeMap<&String, Vec<&String>> = BTreeMap::new();
        for (a, b) in edges.keys() {
            m.entry(a).or_default().push(b);
        }
        m
    };
    let mut seen_cycles: BTreeSet<Vec<String>> = BTreeSet::new();
    for &start in &nodes {
        let mut path: Vec<&String> = vec![start];
        let mut stack: Vec<std::vec::IntoIter<&String>> =
            vec![adj.get(start).cloned().unwrap_or_default().into_iter()];
        while let Some(iter) = stack.last_mut() {
            match iter.next() {
                None => {
                    stack.pop();
                    path.pop();
                }
                Some(next) => {
                    if let Some(pos) = path.iter().position(|&n| n == next) {
                        // A cycle: normalize (rotate to the smallest
                        // element) to dedupe across start nodes.
                        let cycle: Vec<String> =
                            path[pos..].iter().map(|s| s.to_string()).collect();
                        let min = cycle
                            .iter()
                            .enumerate()
                            .min_by_key(|(_, s)| s.as_str())
                            .map(|(i, _)| i)
                            .unwrap_or(0);
                        let mut norm = cycle[min..].to_vec();
                        norm.extend_from_slice(&cycle[..min]);
                        if seen_cycles.insert(norm.clone()) {
                            report_lock_cycle(files, &edges, &norm, raw);
                        }
                    } else if path.len() < 16 {
                        path.push(next);
                        stack.push(adj.get(next).cloned().unwrap_or_default().into_iter());
                    }
                }
            }
        }
    }

    // Lock held across a channel send, lexically, in scoped files.
    for (id, node) in graph.fns.iter().enumerate() {
        if !scoped(node.file) {
            continue;
        }
        l2_send_under_lock(files, graph, id, &lives[id], raw);
    }
}

/// Provenance for one lock-order edge: which fn established it, where,
/// and (for transitive edges) through which callee's summary.
struct LockOrderWitness {
    fn_q: String,
    file: usize,
    line: u32,
    via: Option<String>,
}

fn report_lock_cycle(
    files: &[FileIndex],
    edges: &BTreeMap<(String, String), LockOrderWitness>,
    cycle: &[String],
    raw: &mut [Vec<Diagnostic>],
) {
    let mut parts: Vec<String> = Vec::new();
    let mut chain: Vec<String> = Vec::new();
    let mut first: Option<(usize, u32)> = None;
    for (i, a) in cycle.iter().enumerate() {
        let b = &cycle[(i + 1) % cycle.len()];
        if let Some(w) = edges.get(&(a.clone(), b.clone())) {
            let site = format!("{}:{}", files[w.file].rel, w.line);
            parts.push(match &w.via {
                Some(v) => format!(
                    "`{a}` → `{b}` ({fq} holds `{a}` across a call to {v}, {site})",
                    fq = w.fn_q
                ),
                None => format!("`{a}` → `{b}` ({fq}, {site})", fq = w.fn_q),
            });
            chain.push(w.fn_q.clone());
            if first.is_none() {
                first = Some((w.file, w.line));
            }
        }
    }
    let Some((file, line)) = first else { return };
    chain.dedup();
    raw[file].push(Diagnostic {
        file: files[file].rel.clone(),
        line,
        rule: RuleId::L2,
        message: format!(
            "lock-order cycle: {} — opposite acquisition orders deadlock under contention; \
             pick one global order",
            parts.join("; ")
        ),
        chain,
    });
}

/// A `path.lock()`/`path.read()`/`path.write()` acquisition at token
/// `idx`, with the lock name qualified by the owning impl type so
/// `self.state` in two different types stays two different locks. The
/// argument list must be empty: that is what tells a sync primitive
/// from `io::Read::read(&mut buf)`.
fn lock_acquisition_at(file: &FileIndex, item: usize, idx: usize) -> Option<(String, u32)> {
    let lexed = &file.lexed;
    let kind = lexed.ident(idx)?;
    if !matches!(kind, "lock" | "read" | "write") {
        return None;
    }
    if lexed.punct(idx.wrapping_sub(1)) != Some(b'.')
        || lexed.punct(idx + 1) != Some(b'(')
        || lexed.punct(idx + 2) != Some(b')')
    {
        return None;
    }
    let path = lock_path(lexed, idx - 1);
    if path.is_empty() {
        return None;
    }
    let fn_item = &file.tree.fns[item];
    let name = match (path.strip_prefix("self."), &fn_item.self_type) {
        (Some(rest), Some(ty)) => format!("{ty}.{rest}"),
        _ => path,
    };
    Some((name, lexed.tokens[idx].line))
}

/// Every lock acquisition of fn `item` with its guard's lexical live
/// range (end-exclusive token index).
fn lock_live_ranges(file: &FileIndex, item: usize) -> Vec<LockLive> {
    let lexed = &file.lexed;
    let Some((open, close)) = file.tree.fns[item].body else {
        return Vec::new();
    };
    let close = close.min(lexed.tokens.len().saturating_sub(1));
    let mut out = Vec::new();
    for idx in open..=close {
        if file.owner[idx] != Some(item) || file.skip[idx] {
            continue;
        }
        let Some((name, line)) = lock_acquisition_at(file, item, idx) else {
            continue;
        };
        out.push(LockLive {
            name,
            line,
            start: idx,
            end: guard_live_end(file, idx, open, close),
        });
    }
    out
}

/// Where the guard acquired at token `idx` dies: the end of the
/// binding's block (or an explicit `drop(guard)`), or the end of the
/// statement when the guard is an unbound temporary.
fn guard_live_end(file: &FileIndex, idx: usize, open: usize, close: usize) -> usize {
    let lexed = &file.lexed;
    // Find the binding: scan back to the statement start; `let [mut] g
    // =` binds the guard to `g`.
    let mut stmt_start = idx;
    while stmt_start > open {
        match lexed.punct(stmt_start - 1) {
            Some(b';') | Some(b'{') | Some(b'}') => break,
            _ => stmt_start -= 1,
        }
    }
    let guard: Option<&str> = match lexed.ident(stmt_start) {
        Some("let") => lexed
            .ident(stmt_start + 1)
            .filter(|s| *s != "mut")
            .or_else(|| lexed.ident(stmt_start + 2)),
        _ => None,
    };
    let mut depth = 0i32;
    let mut j = idx + 1;
    while j <= close {
        match lexed.punct(j) {
            Some(b'{') => depth += 1,
            Some(b'}') => {
                depth -= 1;
                if depth < 0 {
                    return j; // the binding's block closed
                }
            }
            Some(b';') if guard.is_none() && depth == 0 => return j, // temporary dies
            _ => {}
        }
        if let (Some(g), Some("drop")) = (guard, lexed.ident(j)) {
            if lexed.punct(j + 1) == Some(b'(') && lexed.ident(j + 2) == Some(g) {
                return j;
            }
        }
        j += 1;
    }
    close + 1
}

/// Flags a `.send(` made while a lock guard is lexically live in fn
/// `id` — on a bounded channel the send can block holding the lock.
fn l2_send_under_lock(
    files: &[FileIndex],
    graph: &CallGraph,
    id: usize,
    lives: &[LockLive],
    raw: &mut [Vec<Diagnostic>],
) {
    let node = &graph.fns[id];
    let file = &files[node.file];
    let lexed = &file.lexed;
    for held in lives {
        for j in held.start + 1..held.end {
            if file.skip[j]
                || lexed.ident(j) != Some("send")
                || lexed.punct(j.wrapping_sub(1)) != Some(b'.')
                || lexed.punct(j + 1) != Some(b'(')
            {
                continue;
            }
            raw[node.file].push(Diagnostic {
                file: file.rel.clone(),
                line: lexed.tokens[j].line,
                rule: RuleId::L2,
                message: format!(
                    "lock `{name}` (acquired line {line}) is held across this `.send(…)` \
                     — on a bounded channel the send blocks while holding the lock, a \
                     deadlock in waiting; drop the guard before sending",
                    name = held.name,
                    line = held.line
                ),
                chain: Vec::new(),
            });
        }
    }
}

/// D3: determinism taint. Every RNG construction
/// (`seed_from_u64`/`from_seed`/`from_rng`) in a D3-scoped file must
/// mention a seed-rooted source in its argument list: an identifier
/// containing `seed` (`mix_seed`, `sample_seed`, a `seed` parameter) or
/// a call to a *seed-deriving* fn — the fixpoint closure of "named
/// `…seed…` or calls a seed-deriving fn". Ambient-state reads
/// (`env::var` & friends) in scoped files are violations outright:
/// solve results are memo-keyed by (instance, spec, seed) and must not
/// depend on state outside that key.
fn d3_determinism_taint(
    files: &[FileIndex],
    graph: &CallGraph,
    scoped: &dyn Fn(usize) -> bool,
    raw: &mut [Vec<Diagnostic>],
) {
    // Fixpoint: the seed-deriving fns.
    let mut seedy: Vec<bool> = graph
        .fns
        .iter()
        .map(|n| {
            files[n.file].tree.fns[n.item]
                .name
                .to_ascii_lowercase()
                .contains("seed")
        })
        .collect();
    loop {
        let mut changed = false;
        for id in 0..graph.fns.len() {
            if seedy[id] {
                continue;
            }
            if graph.fns[id].calls.iter().any(|c| seedy[c.callee]) {
                seedy[id] = true;
                changed = true;
            }
        }
        if !changed {
            break;
        }
    }
    let seedy_names: BTreeSet<String> = graph
        .fns
        .iter()
        .enumerate()
        .filter(|&(id, _)| seedy[id])
        .map(|(_, n)| files[n.file].tree.fns[n.item].name.clone())
        .collect();

    for (fi, file) in files.iter().enumerate() {
        if !scoped(fi) {
            continue;
        }
        let lexed = &file.lexed;
        for idx in 0..lexed.tokens.len() {
            if file.skip[idx] {
                continue;
            }
            let Some(name) = lexed.ident(idx) else {
                continue;
            };
            // Ambient reads: `env::var`, `env::var_os`, `env::vars`,
            // `env::args`.
            if name == "env"
                && lexed.punct(idx + 1) == Some(b':')
                && lexed.punct(idx + 2) == Some(b':')
                && matches!(
                    lexed.ident(idx + 3),
                    Some("var") | Some("var_os") | Some("vars") | Some("args")
                )
            {
                let what = lexed.ident(idx + 3).unwrap_or("var");
                raw[fi].push(Diagnostic {
                    file: file.rel.clone(),
                    line: lexed.tokens[idx].line,
                    rule: RuleId::D3,
                    message: format!(
                        "ambient-state read `env::{what}(…)` in a memo-keyed solve path — \
                         solves are memoized as pure functions of (instance, spec, seed); \
                         plumb the value through the spec instead"
                    ),
                    chain: Vec::new(),
                });
                continue;
            }
            // RNG constructions. `fn seed_from_u64(` is a declaration,
            // not a construction — its params are not seed arguments.
            if !matches!(name, "seed_from_u64" | "from_seed" | "from_rng")
                || lexed.punct(idx + 1) != Some(b'(')
                || (idx >= 1 && lexed.ident(idx - 1) == Some("fn"))
            {
                continue;
            }
            let args = paren_range(lexed, idx + 1);
            let seed_rooted = args.clone().any(|j| {
                lexed.ident(j).is_some_and(|s| {
                    s.to_ascii_lowercase().contains("seed") || seedy_names.contains(s)
                })
            });
            if !seed_rooted {
                raw[fi].push(Diagnostic {
                    file: file.rel.clone(),
                    line: lexed.tokens[idx].line,
                    rule: RuleId::D3,
                    message: format!(
                        "RNG construction `{name}(…)` does not derive from a \
                         mix_seed-rooted source — every stream must mix from the solve \
                         seed (mix_seed/sample_seed or a seed parameter) so results \
                         replay bit-identically"
                    ),
                    chain: Vec::new(),
                });
            }
        }
    }
}

/// Token indices strictly inside the parens opening at `open`.
fn paren_range(lexed: &Lexed, open: usize) -> std::ops::Range<usize> {
    let mut depth = 0usize;
    let mut j = open;
    while j < lexed.tokens.len() {
        match lexed.punct(j) {
            Some(b'(') => depth += 1,
            Some(b')') => {
                depth -= 1;
                if depth == 0 {
                    return open + 1..j;
                }
            }
            _ => {}
        }
        j += 1;
    }
    open + 1..lexed.tokens.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(src: &str, rules: &[RuleId]) -> Vec<Diagnostic> {
        audit_source("test.rs", src, rules)
    }

    #[test]
    fn d1_flags_hash_containers_and_honours_suppressions() {
        let src = "use std::collections::HashMap;\n\
                   // audit:allow(D1): membership-only, never iterated\n\
                   fn f(m: HashMap<u32, u32>) {}\n";
        let diags = run(src, &[RuleId::D1]);
        assert_eq!(diags.len(), 1);
        assert_eq!((diags[0].line, diags[0].rule), (1, RuleId::D1));
    }

    #[test]
    fn p2_ignores_non_panicking_cousins() {
        let src = "fn f(x: Option<u32>) -> u32 { x.unwrap_or_else(|| 0) }\n\
                   fn g(x: Option<u32>) -> u32 { x.unwrap_or(1) }\n";
        assert!(run(src, &[RuleId::P2]).is_empty());
    }

    #[test]
    fn cfg_test_items_are_skipped_but_not_cfg_not_test() {
        let src = "#[cfg(test)]\nmod tests {\n fn f() { x.unwrap(); }\n}\n\
                   #[cfg(not(test))]\nfn g() { y.unwrap(); }\n";
        let diags = run(src, &[RuleId::P2]);
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].line, 6);
    }

    #[test]
    fn unused_and_unreasoned_suppressions_are_flagged() {
        let src = "// audit:allow(D1): nothing here trips D1\nfn f() {}\n\
                   // audit:allow(P2)\nfn g() { x.unwrap(); }\n";
        let diags = run(src, &[RuleId::D1, RuleId::P2]);
        let rules: Vec<_> = diags.iter().map(|d| (d.line, d.rule)).collect();
        // Line 1: unused D1 suppression. Line 3: reasonless suppression
        // (which therefore does not suppress line 4's unwrap).
        assert_eq!(
            rules,
            vec![(1, RuleId::Sup), (3, RuleId::Sup), (4, RuleId::P2)]
        );
    }

    #[test]
    fn file_wide_suppression_covers_everything() {
        let src = "// audit:allow-file(D1): generator crate, all sets sorted before use\n\
                   use std::collections::HashSet;\nfn f(s: HashSet<u32>) {}\n";
        assert!(run(src, &[RuleId::D1]).is_empty());
    }
}
