//! The six project-specific lints.
//!
//! All passes work on the [`FileModel`] token stream; none of them look at
//! comment or string contents, and all of them skip `#[cfg(test)]` /
//! `#[test]` code and attribute interiors. See the README "Static analysis"
//! section for the rule statements and the annotation grammar.

use std::path::Path;

use crate::lexer::{Tok, TokKind};
use crate::model::{FileModel, FnItem};
use crate::report::Finding;

pub const PANIC_FREEDOM: &str = "panic-freedom";
pub const CHECKPOINT_COVERAGE: &str = "checkpoint-coverage";
pub const LOCK_DISCIPLINE: &str = "lock-discipline";
pub const HOT_PATH_ALLOC: &str = "hot-path-alloc";
pub const SPAN_COVERAGE: &str = "span-coverage";
pub const DEGRADATION_EVENTS: &str = "degradation-events";

/// Keywords that can directly precede `[` without forming an index
/// expression (`let [a, b] = ...`, `return [x]`, `in [1, 2]`, ...).
const NON_POSTFIX_KEYWORDS: &[&str] = &[
    "let", "mut", "ref", "in", "return", "if", "else", "match", "move", "box", "dyn", "impl", "as",
    "break", "continue", "where", "unsafe", "loop", "while", "for", "use", "pub", "const",
    "static", "await", "yield",
];

const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// L1 — panic-freedom. Flags `.unwrap()`, `.expect(...)` and the panic
/// macro family anywhere in non-test code; flags `[]`-indexing inside
/// `Result`-returning functions when `check_indexing` is set for the module
/// (the orchestration surface, where a slice panic would bypass the typed
/// error contract — dense numeric kernels access elements through
/// bounds-checked `Index` impls as their documented contract and are
/// covered by `hot-path-alloc` instead).
pub fn panic_freedom(model: &FileModel, file: &Path, check_indexing: bool) -> Vec<Finding> {
    let toks = model.tokens();
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if model.in_test(i) || model.in_attr(i) {
            continue;
        }
        let t = &toks[i];
        // `.unwrap(` / `.expect(`
        if t.kind == TokKind::Ident
            && (t.text == "unwrap" || t.text == "expect")
            && i > 0
            && toks[i - 1].is_punct('.')
            && toks.get(i + 1).is_some_and(|n| n.is_punct('('))
        {
            out.push(Finding::new(
                PANIC_FREEDOM,
                file,
                t.line,
                t.col,
                format!(
                    "`.{}()` on a solver path — return a typed error (`?` / `ok_or_else` / \
                     `unwrap_or_else(|e| e.into_inner())` for mutex poison) instead",
                    t.text
                ),
            ));
            continue;
        }
        // panic!/unreachable!/todo!/unimplemented!
        if t.kind == TokKind::Ident
            && PANIC_MACROS.contains(&t.text.as_str())
            && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
        {
            out.push(Finding::new(
                PANIC_FREEDOM,
                file,
                t.line,
                t.col,
                format!("`{}!` on a solver path — use the error taxonomy", t.text),
            ));
            continue;
        }
        // Postfix `[` — index expressions in Result-returning functions.
        if check_indexing && t.is_punct('[') && i > 0 {
            let prev = &toks[i - 1];
            let postfix = match prev.kind {
                TokKind::Ident => !NON_POSTFIX_KEYWORDS.contains(&prev.text.as_str()),
                TokKind::Punct => prev.is_punct(')') || prev.is_punct(']'),
                _ => false,
            };
            if !postfix {
                continue;
            }
            let Some(f) = model.enclosing_fn(i) else {
                continue;
            };
            if f.in_test || !returns_result(toks, f) {
                continue;
            }
            out.push(Finding::new(
                PANIC_FREEDOM,
                file,
                t.line,
                t.col,
                format!(
                    "`[]`-indexing in `{}`, a Result-returning solver path — use `.get()` with a \
                     typed error, or iterate",
                    f.name
                ),
            ));
        }
    }
    out
}

fn returns_result(toks: &[Tok], f: &FnItem) -> bool {
    toks[f.ret.0..f.ret.1].iter().any(|t| t.is_ident("Result"))
}

/// L2 — checkpoint coverage. In any non-test function taking `&RunControl`,
/// every *outermost* `for`/`while`/`loop` body
/// must contain a `checkpoint*` call somewhere inside it (nested positions
/// count: the contract is one cooperative stop-test per outer iteration).
pub fn checkpoint_coverage(model: &FileModel, file: &Path) -> Vec<Finding> {
    let toks = model.tokens();
    let mut out = Vec::new();
    for f in &model.fns {
        if f.in_test {
            continue;
        }
        if !toks[f.params.0..f.params.1]
            .iter()
            .any(|t| t.is_ident("RunControl"))
        {
            continue;
        }
        let Some((body_open, body_close)) = f.body else {
            continue;
        };
        // Collect loops (keyword index + body range) inside this fn only —
        // nested fns get their own pass (they only matter if they also take
        // `&RunControl`).
        let nested_fn_bodies: Vec<(usize, usize)> = model
            .fns
            .iter()
            .filter(|g| g.kw_idx != f.kw_idx)
            .filter_map(|g| g.body)
            .filter(|&(s, e)| s > body_open && e <= body_close)
            .collect();
        let mut loops: Vec<(usize, (usize, usize))> = Vec::new();
        let mut i = body_open + 1;
        while i < body_close {
            if nested_fn_bodies.iter().any(|&(s, e)| i >= s && i < e) {
                i += 1;
                continue;
            }
            let t = &toks[i];
            if t.kind == TokKind::Ident
                && (t.text == "for" || t.text == "while" || t.text == "loop")
            {
                if let Some(body) = loop_body(toks, &model.matching, i, body_close) {
                    loops.push((i, body));
                }
            }
            i += 1;
        }
        for &(kw, (open, close)) in &loops {
            let covered = toks[open..close]
                .iter()
                .any(|t| t.kind == TokKind::Ident && t.text.starts_with("checkpoint"));
            if covered {
                continue;
            }
            let outermost = !loops
                .iter()
                .any(|&(other_kw, (s, e))| other_kw != kw && kw > s && kw < e);
            if !outermost {
                continue; // the enclosing loop carries the finding
            }
            out.push(Finding::new(
                CHECKPOINT_COVERAGE,
                file,
                toks[kw].line,
                toks[kw].col,
                format!(
                    "`{}` loop in `{}` (takes &RunControl) never calls `checkpoint`: \
                     cancellation/deadline would not be observed here",
                    toks[kw].text, f.name
                ),
            ));
        }
    }
    out
}

/// L5 — span coverage. A checkpoint-carrying loop is by definition a solver
/// hot path (it opted into the cooperative stop protocol), so it must also
/// run under an observability span or `--trace` silently loses its wall
/// time. In any non-test function taking `RunControl`, every *outermost*
/// `for`/`while`/`loop` whose body calls `checkpoint*` must have a
/// `span!(...)` open — either inside the loop body or anywhere in the
/// enclosing function body (entry spans cover all their loops).
pub fn span_coverage(model: &FileModel, file: &Path) -> Vec<Finding> {
    let toks = model.tokens();
    let mut out = Vec::new();
    for f in &model.fns {
        if f.in_test {
            continue;
        }
        if !toks[f.params.0..f.params.1]
            .iter()
            .any(|t| t.is_ident("RunControl"))
        {
            continue;
        }
        let Some((body_open, body_close)) = f.body else {
            continue;
        };
        let nested_fn_bodies: Vec<(usize, usize)> = model
            .fns
            .iter()
            .filter(|g| g.kw_idx != f.kw_idx)
            .filter_map(|g| g.body)
            .filter(|&(s, e)| s > body_open && e <= body_close)
            .collect();
        let fn_has_span = (body_open..body_close)
            .filter(|&i| !nested_fn_bodies.iter().any(|&(s, e)| i >= s && i < e))
            .any(|i| is_span_open(toks, i));
        if fn_has_span {
            continue;
        }
        let mut loops: Vec<(usize, (usize, usize))> = Vec::new();
        let mut i = body_open + 1;
        while i < body_close {
            if nested_fn_bodies.iter().any(|&(s, e)| i >= s && i < e) {
                i += 1;
                continue;
            }
            let t = &toks[i];
            if t.kind == TokKind::Ident
                && (t.text == "for" || t.text == "while" || t.text == "loop")
            {
                if let Some(body) = loop_body(toks, &model.matching, i, body_close) {
                    loops.push((i, body));
                }
            }
            i += 1;
        }
        for &(kw, (open, close)) in &loops {
            let checkpoints = toks[open..close]
                .iter()
                .any(|t| t.kind == TokKind::Ident && t.text.starts_with("checkpoint"));
            if !checkpoints {
                continue;
            }
            let outermost = !loops
                .iter()
                .any(|&(other_kw, (s, e))| other_kw != kw && kw > s && kw < e);
            if !outermost {
                continue; // the enclosing loop carries the finding
            }
            out.push(Finding::new(
                SPAN_COVERAGE,
                file,
                toks[kw].line,
                toks[kw].col,
                format!(
                    "checkpoint-carrying `{}` loop in `{}` runs outside any span: open a \
                     `vamor_obs::span!` here (or at the function entry) so `--trace` accounts \
                     for this hot path",
                    toks[kw].text, f.name
                ),
            ));
        }
    }
    out
}

/// Recognizes a span opening at token `i`: the `span` ident of a `span!`
/// macro invocation (bare or path-qualified — the macro name is the last
/// path segment either way).
fn is_span_open(toks: &[Tok], i: usize) -> bool {
    toks[i].is_ident("span") && toks.get(i + 1).is_some_and(|n| n.is_punct('!'))
}

/// Finds the `{` opening a loop body, skipping parenthesized/bracketed
/// groups in the header (closures, `vec![..]`, tuple patterns). Struct
/// literals are illegal in loop headers, so the first brace at group depth
/// zero is the body.
fn loop_body(
    toks: &[Tok],
    matching: &std::collections::HashMap<usize, usize>,
    kw: usize,
    limit: usize,
) -> Option<(usize, usize)> {
    let mut i = kw + 1;
    while i < limit {
        let t = &toks[i];
        if t.is_punct('{') {
            let close = *matching.get(&i)?;
            return Some((i, close + 1));
        }
        if t.is_punct('(') || t.is_punct('[') {
            i = *matching.get(&i)? + 1;
            continue;
        }
        if t.is_punct(';') {
            return None;
        }
        i += 1;
    }
    None
}

/// L3 — lock discipline over the cache mutexes:
///
/// - the shift cache's one factor-map mutex, `entries`;
/// - the session shared state: the budget `ledger` and the session
///   `registry` are *leaf* locks — holding either while acquiring the other
///   (in any order) is a violation, because the budget's eviction callbacks
///   and the session's quarantine path each take one lock and must never be
///   entered under the other.
///
/// For every mutex: re-acquiring it while its guard is held is a violation
/// (self-deadlock), and calling a *caller-supplied* callback (any parameter
/// of the enclosing function) while a guard is held is a violation (user
/// code must never run under a cache lock).
///
/// Acquisitions are recognized as `<field>.lock(` and as the
/// `lock_entries(`/`lock_ledger(`/`lock_registry(` poison-recovering
/// helpers.
pub fn lock_discipline(model: &FileModel, file: &Path) -> Vec<Finding> {
    let toks = model.tokens();
    let mut out = Vec::new();
    let acquisitions: Vec<(usize, &'static str)> = (0..toks.len())
        .filter(|&i| !model.in_test(i))
        .filter_map(|i| acquisition_at(toks, i).map(|f| (i, f)))
        .collect();
    for &(i, field) in &acquisitions {
        let Some(f) = model.enclosing_fn(i) else {
            continue;
        };
        let end = guard_live_end(model, i, f);
        for &(j, other) in &acquisitions {
            if j <= i || j >= end {
                continue;
            }
            if other == field {
                out.push(Finding::new(
                    LOCK_DISCIPLINE,
                    file,
                    toks[j].line,
                    toks[j].col,
                    format!(
                        "`{other}` mutex re-acquired while its guard is still held (self-deadlock)"
                    ),
                ));
            } else if is_leaf_lock(field) && is_leaf_lock(other) {
                out.push(Finding::new(
                    LOCK_DISCIPLINE,
                    file,
                    toks[j].line,
                    toks[j].col,
                    format!(
                        "`{other}` acquired while holding `{field}`: the session `registry` and \
                         budget `ledger` are leaf locks and must never nest"
                    ),
                ));
            }
        }
        // Calls into caller-supplied code while the guard is held.
        let params = callable_params(toks, f);
        let mut j = i + 1;
        while j < end {
            let t = &toks[j];
            if t.kind == TokKind::Ident
                && params.contains(&t.text.as_str())
                && toks.get(j + 1).is_some_and(|n| n.is_punct('('))
                && !toks.get(j.wrapping_sub(1)).is_some_and(|p| p.is_punct('.'))
            {
                out.push(Finding::new(
                    LOCK_DISCIPLINE,
                    file,
                    t.line,
                    t.col,
                    format!(
                        "caller-supplied `{}` invoked while the `{}` guard is held: user code must \
                         never run under a cache lock",
                        t.text, field
                    ),
                ));
            }
            j += 1;
        }
    }
    out
}

/// Recognizes a mutex acquisition at token `i`, returning the field name.
fn acquisition_at(toks: &[Tok], i: usize) -> Option<&'static str> {
    let t = &toks[i];
    if t.kind != TokKind::Ident {
        return None;
    }
    match t.text.as_str() {
        "lock_entries" if toks.get(i + 1).is_some_and(|n| n.is_punct('(')) => Some("entries"),
        "lock_ledger" if toks.get(i + 1).is_some_and(|n| n.is_punct('(')) => Some("ledger"),
        "lock_registry" if toks.get(i + 1).is_some_and(|n| n.is_punct('(')) => Some("registry"),
        "lock"
            if toks.get(i + 1).is_some_and(|n| n.is_punct('('))
                && i >= 2
                && toks[i - 1].is_punct('.') =>
        {
            match toks[i - 2].text.as_str() {
                "entries" => Some("entries"),
                "ledger" => Some("ledger"),
                "registry" => Some("registry"),
                _ => None,
            }
        }
        _ => None,
    }
}

/// The session-era leaf locks: any nesting among them is a violation.
fn is_leaf_lock(field: &str) -> bool {
    matches!(field, "ledger" | "registry")
}

/// Methods that return the guard itself (or it, recovered from poison) —
/// a chain that continues past these with any *other* method projects out
/// of the guard, so the guard is a statement-scoped temporary.
const GUARD_PASSTHROUGH: &[&str] = &["unwrap", "expect", "unwrap_or_else"];

/// Token index one past the end of the guard's live range: end of the
/// enclosing statement for a temporary guard, end of the enclosing block
/// (or an explicit `drop(name)`) for a `let`-bound guard.
fn guard_live_end(model: &FileModel, acq: usize, f: &FnItem) -> usize {
    let toks = model.tokens();
    let (body_open, body_close) = f.body.unwrap_or((0, toks.len()));
    // Statement start: walk back to the nearest `;`, `{` or `}`.
    let mut s = acq;
    while s > body_open {
        let t = &toks[s - 1];
        if t.is_punct(';') || t.is_punct('{') || t.is_punct('}') {
            break;
        }
        s -= 1;
    }
    let let_bound = toks.get(s).is_some_and(|t| t.is_ident("let"));
    // Does the binding hold the guard, or a projection out of it? Walk the
    // method chain after `lock(...)`: passthrough methods keep the guard,
    // anything further (`.len()`, `.get(..)`) consumes it within the
    // statement.
    let mut chain = model
        .matching
        .get(&(acq + 1))
        .map(|&close| close + 1)
        .unwrap_or(acq + 1);
    while toks.get(chain).is_some_and(|t| t.is_punct('.'))
        && toks
            .get(chain + 1)
            .is_some_and(|t| GUARD_PASSTHROUGH.contains(&t.text.as_str()))
        && toks.get(chain + 2).is_some_and(|t| t.is_punct('('))
    {
        chain = model
            .matching
            .get(&(chain + 2))
            .map(|&close| close + 1)
            .unwrap_or(chain + 3);
    }
    let projected = toks.get(chain).is_some_and(|t| t.is_punct('.'));
    if !let_bound || projected {
        // Temporary: dies at the end of this statement. A statement headed
        // by `if`/`if let`/`match`/`while` has no `;` of its own: its
        // temporaries live through its blocks (edition 2021) and die at the
        // close of the last one, `else` chains included.
        let block_stmt = toks
            .get(s)
            .is_some_and(|t| ["if", "match", "while", "else"].contains(&t.text.as_str()));
        let mut j = acq;
        while j < body_close {
            if toks[j].is_punct(';') {
                return j;
            }
            if toks[j].is_punct('{') || toks[j].is_punct('(') || toks[j].is_punct('[') {
                if let Some(&close) = model.matching.get(&j) {
                    if block_stmt
                        && toks[j].is_punct('{')
                        && !toks.get(close + 1).is_some_and(|t| t.is_ident("else"))
                    {
                        return close + 1;
                    }
                    j = close + 1;
                    continue;
                }
            }
            j += 1;
        }
        return body_close;
    }
    // `let [mut] name = ...`: guard name is the identifier before `=`.
    let name: Option<String> = toks[s..acq]
        .iter()
        .take_while(|t| !t.is_punct('='))
        .filter(|t| t.kind == TokKind::Ident && t.text != "let" && t.text != "mut")
        .last()
        .map(|t| t.text.clone());
    // Enclosing block: innermost `{` containing the statement.
    let mut block_close = body_close;
    let mut best = usize::MAX;
    for (&open, &close) in &model.matching {
        if toks[open].is_punct('{') && open < s && close > acq && close - open < best {
            best = close - open;
            block_close = close;
        }
    }
    // An explicit `drop(name)` ends the range early.
    if let Some(name) = name {
        let mut j = acq;
        while j + 2 < block_close {
            if toks[j].is_ident("drop") && toks[j + 1].is_punct('(') && toks[j + 2].is_ident(&name)
            {
                return j;
            }
            j += 1;
        }
    }
    block_close
}

/// Parameter names of `f` (candidate caller-supplied callbacks).
fn callable_params<'a>(toks: &'a [Tok], f: &FnItem) -> Vec<&'a str> {
    let mut names = Vec::new();
    let mut depth = 0i32;
    let mut expect_name = true;
    for i in f.params.0..f.params.1 {
        let t = &toks[i];
        if t.is_punct('(') || t.is_punct('[') || t.is_punct('<') || t.is_punct('{') {
            depth += 1;
        } else if t.is_punct(')') || t.is_punct(']') || t.is_punct('>') || t.is_punct('}') {
            depth -= 1;
        } else if depth == 0 && t.is_punct(',') {
            expect_name = true;
        } else if depth == 0 && expect_name && t.kind == TokKind::Ident {
            if t.text == "mut" || t.text == "self" {
                continue;
            }
            if toks.get(i + 1).is_some_and(|n| n.is_punct(':')) {
                names.push(t.text.as_str());
            }
            expect_name = false;
        }
    }
    names
}

/// L4 — hot-path allocation. Inside `*_into` kernels (the allocation-free
/// contract surface), flags `Vec::new`/`Vec::with_capacity`, `vec![...]`,
/// `.clone()` and `.to_vec()`.
pub fn hot_path_alloc(model: &FileModel, file: &Path) -> Vec<Finding> {
    let toks = model.tokens();
    let mut out = Vec::new();
    for f in &model.fns {
        if f.in_test || !f.name.ends_with("_into") {
            continue;
        }
        let Some((open, close)) = f.body else {
            continue;
        };
        for i in open..close {
            if model.in_test(i) || model.in_attr(i) {
                continue;
            }
            let t = &toks[i];
            if t.kind != TokKind::Ident {
                continue;
            }
            let msg = match t.text.as_str() {
                "Vec"
                    if toks.get(i + 1).is_some_and(|n| n.is_punct(':'))
                        && toks.get(i + 2).is_some_and(|n| n.is_punct(':'))
                        && toks
                            .get(i + 3)
                            .is_some_and(|n| n.is_ident("new") || n.is_ident("with_capacity")) =>
                {
                    Some(format!(
                        "`Vec::{}` allocates inside `{}` — `*_into` kernels must write through \
                         their caller-provided buffers",
                        toks[i + 3].text,
                        f.name
                    ))
                }
                "vec" if toks.get(i + 1).is_some_and(|n| n.is_punct('!')) => Some(format!(
                    "`vec![...]` allocates inside `{}` — `*_into` kernels must write through \
                     their caller-provided buffers",
                    f.name
                )),
                "clone" | "to_vec"
                    if i > 0
                        && toks[i - 1].is_punct('.')
                        && toks.get(i + 1).is_some_and(|n| n.is_punct('(')) =>
                {
                    Some(format!(
                        "`.{}()` allocates inside `{}` — borrow or reuse the caller's buffer",
                        t.text, f.name
                    ))
                }
                _ => None,
            };
            if let Some(message) = msg {
                out.push(Finding::new(HOT_PATH_ALLOC, file, t.line, t.col, message));
            }
        }
    }
    out
}

/// Counter names of the degradation-ladder vocabulary. An increment of one
/// of these is where a degradation is first *detected* — the place the
/// numerical-health event stream must hear about it.
const DEGRADATION_COUNTERS: &[&str] = &[
    "escalations",
    "reselections",
    "dense_fallback",
    "pivot_escalations",
    "dense_fallbacks",
    "adi_shift_reselections",
    "adi_nonconverged",
    "pivot_recoveries",
];

/// L6 — degradation-events. Every degradation *construction* site (a
/// statement bumping a degradation counter by a literal, e.g.
/// `escalations += 1` or `recovery.dense_fallback = true`) must emit the
/// matching `vamor_obs::Event::Degradation` in the same enclosing block,
/// so the run-report degradation timeline can never silently diverge from
/// `ReductionStats::degradation`. Aggregation sites that *copy* counters
/// already evented at their source (`stats.degradation.x += diag.x`) have
/// a non-literal right-hand side and are skipped by construction;
/// zero-initializations (`= 0`) and `let` bindings are not degradations.
pub fn degradation_events(model: &FileModel, file: &Path) -> Vec<Finding> {
    let toks = model.tokens();
    let mut out = Vec::new();
    for i in 0..toks.len() {
        if model.in_test(i) || model.in_attr(i) {
            continue;
        }
        let t = &toks[i];
        if t.kind != TokKind::Ident || !DEGRADATION_COUNTERS.contains(&t.text.as_str()) {
            continue;
        }
        // The counter must be the assignment target: `counter += <lit>`,
        // or `counter = true` / `counter = <nonzero int lit>`.
        let bumped = match (toks.get(i + 1), toks.get(i + 2)) {
            (Some(plus), Some(eq)) if plus.is_punct('+') && eq.is_punct('=') => toks
                .get(i + 3)
                .is_some_and(|v| v.kind == TokKind::Literal || v.is_ident("true")),
            (Some(eq), Some(v)) if eq.is_punct('=') && !v.is_punct('=') => {
                v.is_ident("true")
                    || (v.kind == TokKind::Literal
                        && v.text.starts_with(|c: char| c.is_ascii_digit())
                        && !v.text.starts_with('0'))
            }
            _ => false,
        };
        if !bumped {
            continue;
        }
        // `let mut escalations = 1;` binds, it does not degrade: walk back
        // to the statement head and skip bindings.
        let mut j = i;
        let mut is_binding = false;
        while j > 0 {
            j -= 1;
            let p = &toks[j];
            if p.is_punct(';') || p.is_punct('{') || p.is_punct('}') {
                break;
            }
            if p.is_ident("let") {
                is_binding = true;
                break;
            }
        }
        if is_binding {
            continue;
        }
        // The matching event emission must live in the same innermost
        // block as the bump — "somewhere in the function" would let one
        // event cover two distinct rungs.
        let block = model
            .matching
            .iter()
            .filter(|&(&open, &close)| toks[open].is_punct('{') && open < i && i < close)
            .max_by_key(|&(&open, _)| open);
        let covered = match block {
            Some((&open, &close)) => (open..close).any(|k| toks[k].is_ident("Degradation")),
            None => false,
        };
        if !covered {
            out.push(Finding::new(
                DEGRADATION_EVENTS,
                file,
                t.line,
                t.col,
                format!(
                    "degradation counter `{}` is bumped without an `Event::Degradation` \
                     emission in the same block — emit \
                     `vamor_obs::event!(vamor_obs::Event::Degradation {{ .. }})` next to the \
                     bump so the run-report timeline matches `ReductionStats::degradation`",
                    t.text
                ),
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::FileModel;
    use std::path::Path;

    fn run<F: Fn(&FileModel, &Path) -> Vec<Finding>>(src: &str, f: F) -> Vec<Finding> {
        let model = FileModel::parse(src);
        f(&model, Path::new("t.rs"))
    }

    #[test]
    fn panic_freedom_skips_tests_and_flags_code() {
        let src = r#"
            fn bad() { x.unwrap(); y.expect("no"); panic!("boom"); }
            #[cfg(test)]
            mod tests {
                #[test]
                fn ok() { x.unwrap(); }
            }
        "#;
        let f = run(src, |m, p| panic_freedom(m, p, false));
        assert_eq!(f.len(), 3);
        assert!(f.iter().all(|x| x.line == 2));
    }

    #[test]
    fn indexing_only_in_result_fns() {
        let src = r#"
            fn infallible(v: &[f64]) -> f64 { v[0] }
            fn fallible(v: &[f64]) -> Result<f64> { Ok(v[0]) }
        "#;
        let f = run(src, |m, p| panic_freedom(m, p, true));
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 3);
        assert!(f[0].message.contains("fallible"));
    }

    #[test]
    fn checkpoint_coverage_outermost_rule() {
        let src = r#"
            fn sweep(control: &RunControl) -> Result<()> {
                for i in 0..n {
                    control.checkpoint("sweep")?;
                    for j in 0..m { work(i, j); }
                }
                while busy() { spin(); }
                Ok(())
            }
            fn uncontrolled() { for i in 0..n { work(i); } }
        "#;
        let f = run(src, checkpoint_coverage);
        assert_eq!(f.len(), 1);
        assert_eq!(f[0].line, 7);
        assert!(f[0].message.contains("while"));
    }

    #[test]
    fn span_coverage_flags_unspanned_checkpoint_loops() {
        let src = r#"
            fn sweep(control: &RunControl) -> Result<()> {
                for i in 0..n {
                    control.checkpoint("sweep")?;
                }
                for j in 0..m { work(j); }
                Ok(())
            }
            fn plain(v: &[f64]) { for x in v { checkpoint_free(x); } }
        "#;
        let f = run(src, span_coverage);
        assert_eq!(f.len(), 1, "{f:?}");
        assert_eq!(f[0].line, 3);
        assert!(f[0].message.contains("sweep"));
        assert!(f[0].message.contains("span"));
    }

    #[test]
    fn span_coverage_entry_or_loop_span_covers() {
        let src = r#"
            fn entry_span(control: &RunControl) -> Result<()> {
                let _s = vamor_obs::span!("sweep");
                for i in 0..n { control.checkpoint("sweep")?; }
                Ok(())
            }
            fn loop_span(control: &RunControl) -> Result<()> {
                for i in 0..n {
                    let _s = span!("step");
                    control.checkpoint("step")?;
                }
                Ok(())
            }
        "#;
        assert!(run(src, span_coverage).is_empty());
    }

    #[test]
    fn span_coverage_ignores_nested_fn_spans() {
        let src = r#"
            fn outer(control: &RunControl) -> Result<()> {
                fn helper() { let _s = span!("inner"); }
                while running() { control.checkpoint("outer")?; }
                Ok(())
            }
        "#;
        let f = run(src, span_coverage);
        assert_eq!(f.len(), 1, "{f:?}");
        assert!(f[0].message.contains("outer"));
    }

    #[test]
    fn lock_discipline_order_and_callbacks() {
        let src = r#"
            fn good(&self) {
                let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
                evict(&mut entries);
            }
            fn nested_leaves(&self) {
                let l = self.ledger.lock().unwrap_or_else(|e| e.into_inner());
                let r = self.registry.lock().unwrap_or_else(|e| e.into_inner());
            }
            fn callback<F: Fn()>(&self, factor: F) {
                let g = self.entries.lock().unwrap_or_else(|e| e.into_inner());
                factor();
            }
            fn temporary_guard_dies_at_statement_end<F: Fn()>(&self, factor: F) {
                let n = self.entries.lock().unwrap_or_else(|e| e.into_inner()).len();
                factor();
            }
        "#;
        let f = run(src, lock_discipline);
        assert_eq!(f.len(), 2, "{f:?}");
        assert!(f[0].message.contains("leaf locks"));
        assert_eq!(f[0].line, 8);
        assert!(f[1].message.contains("factor"));
        assert_eq!(f[1].line, 12);
    }

    #[test]
    fn lock_discipline_drop_ends_liveness() {
        let src = r#"
            fn ok(&self) {
                let a = self.entries.lock().unwrap_or_else(|e| e.into_inner());
                drop(a);
                let b = self.entries.lock().unwrap_or_else(|e| e.into_inner());
            }
        "#;
        assert!(run(src, lock_discipline).is_empty());
    }

    #[test]
    fn hot_alloc_flags_into_kernels_only() {
        let src = r#"
            fn matvec_into(&self, x: &V, y: &mut V) { let t = x.clone(); let v = vec![0.0; 4]; }
            fn matvec(&self, x: &V) -> V { x.clone() }
        "#;
        let f = run(src, hot_path_alloc);
        assert_eq!(f.len(), 2);
        assert!(f.iter().all(|x| x.line == 2));
    }

    #[test]
    fn degradation_events_pairs_bumps_with_emissions() {
        // Evented bump, aggregation copy, binding, and zero-reset: clean.
        let clean = r#"
            fn recover() {
                let mut escalations = 0usize;
                if singular {
                    escalations += 1;
                    vamor_obs::event!(vamor_obs::Event::Degradation {
                        rung: vamor_obs::event::DegradationRung::PivotEscalation,
                        detail: tau,
                    });
                }
                stats.pivot_escalations += recovery.escalations;
                recovery.escalations = other.escalations;
            }
        "#;
        assert!(run(clean, degradation_events).is_empty());

        // Silent bumps must flag — including `= true` and `= 2`.
        let dirty = r#"
            fn recover() {
                if singular { escalations += 1; }
                recovery.dense_fallback = true;
                recovery.escalations = 2;
            }
        "#;
        let f = run(dirty, degradation_events);
        assert_eq!(f.len(), 3, "{f:?}");

        // One event cannot cover a bump in a *different* block.
        let sibling = r#"
            fn recover() {
                if a { escalations += 1; }
                if b { vamor_obs::event!(vamor_obs::Event::Degradation { rung, detail }); }
            }
        "#;
        assert_eq!(run(sibling, degradation_events).len(), 1);

        // Test code is exempt.
        let test_only = r#"
            #[cfg(test)]
            mod tests {
                #[test]
                fn t() { escalations += 1; }
            }
        "#;
        assert!(run(test_only, degradation_events).is_empty());
    }
}
