//! The token/call-graph rule families: D (determinism), P (panic
//! surface) and L008 (`#[must_use]` on builder/score types).
//!
//! Where L001–L007 (`rules.rs`) are file-scoped, these rules follow the
//! same-crate call graph (`callgraph.rs`) over the extracted items
//! (`items.rs`), scoped by `lint.toml`:
//!
//! * **D001** — no iteration over `HashMap`/`HashSet` in functions
//!   reachable from the configured determinism roots (`[determinism]
//!   roots`). Hash iteration order varies per process; result-affecting
//!   paths must use `BTreeMap` or sorted vecs.
//! * **D002** — no `Instant::now` / `SystemTime` / `RandomState` in
//!   result-affecting crates (`[rule.D002] exempt_crates` carves out
//!   the observability layers).
//! * **D003** — no float `.sum()` / `.product()` in functions reachable
//!   from the same determinism roots: reductions go through the blessed
//!   `prvm-par` fixed-order fold or an explicit sequential loop whose
//!   order is visible in the source.
//! * **D004** — no branching on worker count (`global_threads`,
//!   `.threads()`, `available_parallelism`) outside `crates/par`
//!   (`[rule.D004] home_crate`).
//! * **D005** — event handlers stay inline: no `Pool` use, `spawn`/
//!   `sleep` calls, or blocking `.recv()`/`.lock()`/`.wait()` reachable
//!   from the kernel event-handler roots (`[rule.D005] roots`). The
//!   discrete-event kernel's virtual clock only advances between
//!   events; a handler that blocks or forks work onto real threads
//!   reintroduces wall-clock nondeterminism the kernel exists to
//!   remove. Delays are modelled by scheduling future events instead.
//! * **P001** — panic-surface report: every panicking construct
//!   (`unwrap`/`expect`, panic-family macros, slice indexing, integer
//!   division by a non-literal) reachable from a `pub fn` of the
//!   configured root crates, with the offending call chain in the
//!   finding. It reads the panic-site detector L001/L004/L005 share
//!   (`rules::panic_sites`) and widens their file-local view to a
//!   whole-crate one; the `assert!` family and everything inside its
//!   arguments is excluded by design (contract panics, covered by
//!   L005's documentation rule).
//! * **L008** — the types listed in `[rule.L008] types` must carry
//!   `#[must_use]`: score books, registry handles, fault-plan builders
//!   and bench configs are all values that only matter if consumed.

use crate::callgraph::CallGraph;
use crate::config::{Config, DETERMINISM};
use crate::items::{FnItem, Items};
use crate::lex::{Kind, Token};
use crate::rules::{self, Finding, PanicKind};
use crate::scan::SourceFile;
use std::collections::BTreeMap;

/// Methods whose hash-container receivers leak iteration order.
const HASH_ITER_METHODS: [&str; 9] = [
    "iter",
    "iter_mut",
    "keys",
    "values",
    "values_mut",
    "into_iter",
    "into_keys",
    "into_values",
    "drain",
];

/// Run all token/call-graph rules.
pub fn check(
    files: &[SourceFile],
    items: &Items,
    graph: &CallGraph,
    cfg: &Config,
    out: &mut Vec<Finding>,
) {
    let excerpts = Excerpts::new(files);
    d001_no_hash_iteration(items, graph, cfg, &excerpts, out);
    d002_no_wall_clock(items, cfg, &excerpts, out);
    d003_no_float_reductions(items, graph, cfg, &excerpts, out);
    d004_no_thread_count_branching(items, cfg, &excerpts, out);
    d005_handlers_stay_inline(items, graph, cfg, &excerpts, out);
    p001_panic_surface(items, graph, cfg, &excerpts, out);
    l008_must_use_types(items, cfg, &excerpts, out);
}

/// Source files by path, for finding excerpts.
struct Excerpts<'a> {
    files: BTreeMap<&'a str, &'a SourceFile>,
}

impl<'a> Excerpts<'a> {
    fn new(files: &'a [SourceFile]) -> Self {
        Excerpts {
            files: files.iter().map(|f| (f.rel.as_str(), f)).collect(),
        }
    }

    fn line(&self, rel: &str, line: usize) -> String {
        self.files
            .get(rel)
            .map_or_else(String::new, |f| f.excerpt(line))
    }
}

/// Fn ids matching the configured roots (by qualified or bare name),
/// optionally restricted to the configured crates.
fn resolve_roots(items: &Items, roots: &[String], crates: &[String]) -> Vec<usize> {
    items
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| !f.in_test)
        .filter(|(_, f)| crates.is_empty() || crates.iter().any(|c| c == &f.krate))
        .filter(|(_, f)| roots.iter().any(|r| r == &f.qual || r == &f.name))
        .map(|(id, _)| id)
        .collect()
}

/// The `[determinism]` roots D001 and D003 share.
fn determinism_roots(items: &Items, cfg: &Config) -> Vec<usize> {
    resolve_roots(
        items,
        cfg.list(DETERMINISM, "roots"),
        cfg.list(DETERMINISM, "crates"),
    )
}

/// Type of the value feeding a `.method(…)` chain or a `for … in`
/// head: a plain local/param, or a `self.field` projection.
fn value_type<'a>(f: &'a FnItem, items: &'a Items, body: &[Token], at: usize) -> Option<String> {
    let tok = body.get(at)?;
    if tok.kind != Kind::Ident {
        return None;
    }
    // `self . field` — type comes from the impl's struct definition.
    if at >= 2 && body[at - 1].is_punct('.') && body[at - 2].is_ident("self") {
        let self_ty = f.self_type.as_deref()?;
        return items.field_type(self_ty, &tok.text).map(str::to_string);
    }
    // A chain base of `self` with a field projection just ahead
    // (`self.vals.iter()…` resolved from the left end).
    if tok.is_ident("self")
        && body.get(at + 1).is_some_and(|t| t.is_punct('.'))
        && body.get(at + 2).is_some_and(|t| t.kind == Kind::Ident)
    {
        let self_ty = f.self_type.as_deref()?;
        return items
            .field_type(self_ty, &body[at + 2].text)
            .map(str::to_string);
    }
    f.types.get(&tok.text).cloned()
}

fn is_hash_type(ty: &str) -> bool {
    ty.contains("HashMap") || ty.contains("HashSet")
}

fn is_float_type(ty: &str) -> bool {
    ty.contains("f64") || ty.contains("f32")
}

fn push(
    out: &mut Vec<Finding>,
    excerpts: &Excerpts,
    rule: &'static str,
    rel: &str,
    line: usize,
    hint: &'static str,
    detail: String,
) {
    out.push(Finding {
        rule,
        rel: rel.to_string(),
        line,
        excerpt: excerpts.line(rel, line),
        hint,
        detail,
    });
}

/// D001: hash-container iteration on determinism-critical paths.
fn d001_no_hash_iteration(
    items: &Items,
    graph: &CallGraph,
    cfg: &Config,
    excerpts: &Excerpts,
    out: &mut Vec<Finding>,
) {
    let roots = determinism_roots(items, cfg);
    if roots.is_empty() {
        return;
    }
    let reach = graph.reach(&roots);
    for (id, f) in items.fns.iter().enumerate() {
        if !reach.contains(id) || f.in_test {
            continue;
        }
        for site in hash_iteration_sites(f, items) {
            push(
                out,
                excerpts,
                "D001",
                &f.rel,
                site,
                "hash iteration order is nondeterministic on a result-affecting path: use BTreeMap/BTreeSet or a sorted vec",
                format!("reachable via {}", reach.chain(items, id)),
            );
        }
    }
}

/// Lines inside `f` where a known hash container is iterated.
fn hash_iteration_sites(f: &FnItem, items: &Items) -> Vec<usize> {
    let body = &f.body;
    let mut sites = Vec::new();
    for i in 0..body.len() {
        // `recv . method (` where method leaks iteration order.
        if body[i].kind == Kind::Ident
            && HASH_ITER_METHODS.contains(&body[i].text.as_str())
            && i >= 2
            && body[i - 1].is_punct('.')
            && body.get(i + 1).is_some_and(|t| t.is_punct('('))
        {
            if let Some(ty) = value_type(f, items, body, i - 2) {
                if is_hash_type(&ty) {
                    sites.push(body[i].line);
                }
            }
        }
        // `for pat in [&[mut]] head {` — direct iteration.
        if body[i].is_ident("in") {
            let mut j = i + 1;
            while body
                .get(j)
                .is_some_and(|t| t.is_punct('&') || t.is_ident("mut"))
            {
                j += 1;
            }
            // `self . field {` or `head {`.
            let head = if body.get(j).is_some_and(|t| t.is_ident("self"))
                && body.get(j + 1).is_some_and(|t| t.is_punct('.'))
            {
                j + 2
            } else {
                j
            };
            if body.get(head + 1).is_some_and(|t| t.is_punct('{')) {
                if let Some(ty) = value_type(f, items, body, head) {
                    if is_hash_type(&ty) {
                        sites.push(body[head].line);
                    }
                }
            }
        }
    }
    sites.sort_unstable();
    sites.dedup();
    sites
}

/// D002: wall-clock and randomized-hash constructors in covered crates.
fn d002_no_wall_clock(items: &Items, cfg: &Config, excerpts: &Excerpts, out: &mut Vec<Finding>) {
    let exempt = cfg.list("D002", "exempt_crates");
    for f in &items.fns {
        if f.in_test || exempt.iter().any(|c| c == &f.krate) {
            continue;
        }
        let body = &f.body;
        for i in 0..body.len() {
            let bad = (body[i].is_ident("Instant")
                && body.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && body.get(i + 2).is_some_and(|t| t.is_punct(':'))
                && body.get(i + 3).is_some_and(|t| t.is_ident("now")))
                || body[i].is_ident("SystemTime")
                || body[i].is_ident("RandomState");
            if bad {
                push(
                    out,
                    excerpts,
                    "D002",
                    &f.rel,
                    body[i].line,
                    "wall-clock reads and randomized hashers belong in the observability layer: route through prvm-obs (timeline::stamp) or move the code to an exempt scope",
                    format!("in {}", f.qual),
                );
            }
        }
    }
}

/// D003: float reductions on hot paths.
fn d003_no_float_reductions(
    items: &Items,
    graph: &CallGraph,
    cfg: &Config,
    excerpts: &Excerpts,
    out: &mut Vec<Finding>,
) {
    let roots = determinism_roots(items, cfg);
    if roots.is_empty() {
        return;
    }
    let reach = graph.reach(&roots);
    for (id, f) in items.fns.iter().enumerate() {
        if !reach.contains(id) || f.in_test {
            continue;
        }
        let body = &f.body;
        for i in 0..body.len() {
            if !(body[i].is_ident("sum") || body[i].is_ident("product"))
                || !body.get(i.wrapping_sub(1)).is_some_and(|t| t.is_punct('.'))
            {
                continue;
            }
            // `.sum::<f64>()` — explicit float turbofish.
            let turbofish_float = body.get(i + 1).is_some_and(|t| t.is_punct(':'))
                && body.get(i + 2).is_some_and(|t| t.is_punct(':'))
                && body.get(i + 3).is_some_and(|t| t.is_punct('<'))
                && body
                    .get(i + 4)
                    .is_some_and(|t| t.is_ident("f64") || t.is_ident("f32"));
            // Bare `.sum()` whose receiver chain starts from a value of
            // known float element type.
            let bare_float = body.get(i + 1).is_some_and(|t| t.is_punct('('))
                && chain_base(body, i.saturating_sub(2))
                    .and_then(|b| value_type(f, items, body, b))
                    .is_some_and(|ty| is_float_type(&ty));
            if turbofish_float || bare_float {
                push(
                    out,
                    excerpts,
                    "D003",
                    &f.rel,
                    body[i].line,
                    "float reduction on a hot path: use the prvm-par fixed-order fold or an explicit sequential loop so the summation order is pinned",
                    format!("reachable via {}", reach.chain(items, id)),
                );
            }
        }
    }
}

/// Walk a method chain leftwards from `r` (the token just before the
/// final `.`) to the base value: skips balanced groups, `.name` links
/// and `path::` segments. Returns the base ident's index.
fn chain_base(body: &[Token], mut r: usize) -> Option<usize> {
    loop {
        let t = body.get(r)?;
        match t.text.as_str() {
            ")" | "]" => {
                // Skip the balanced group, then the callee name if any.
                let open = match t.text.as_str() {
                    ")" => "(",
                    _ => "[",
                };
                let mut depth = 0i32;
                loop {
                    let u = body.get(r)?;
                    if u.text == t.text {
                        depth += 1;
                    } else if u.text == open {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    r = r.checked_sub(1)?;
                }
                r = r.checked_sub(1)?;
            }
            _ if t.kind == Kind::Ident => {
                let Some(prev) = r.checked_sub(1).and_then(|p| body.get(p)) else {
                    return Some(r);
                };
                if prev.is_punct('.') {
                    r = r.checked_sub(2)?;
                } else if prev.is_punct(':') {
                    // `path::seg` — step over the `::`.
                    r = r.checked_sub(3)?;
                } else {
                    return Some(r);
                }
            }
            _ => return None,
        }
    }
}

/// D004: worker-count branching outside the parallel runtime.
fn d004_no_thread_count_branching(
    items: &Items,
    cfg: &Config,
    excerpts: &Excerpts,
    out: &mut Vec<Finding>,
) {
    let home = cfg.list("D004", "home_crate");
    let exempt = cfg.list("D004", "exempt_crates");
    for f in &items.fns {
        if f.in_test || home.contains(&f.krate) || exempt.contains(&f.krate) {
            continue;
        }
        let body = &f.body;
        for i in 0..body.len() {
            let bad = body[i].is_ident("global_threads")
                || body[i].is_ident("available_parallelism")
                || (body[i].is_ident("threads")
                    && body.get(i.wrapping_sub(1)).is_some_and(|t| t.is_punct('.'))
                    && body.get(i + 1).is_some_and(|t| t.is_punct('(')));
            if bad {
                push(
                    out,
                    excerpts,
                    "D004",
                    &f.rel,
                    body[i].line,
                    "worker-count decisions live in crates/par: branching on thread count elsewhere forks behaviour between runs at different -j",
                    format!("in {}", f.qual),
                );
            }
        }
    }
}

/// Methods that park the calling thread until someone else acts.
const D005_BLOCKING_METHODS: [&str; 5] = ["recv", "recv_timeout", "lock", "wait", "wait_timeout"];

/// D005: no thread spawning or blocking reachable from event handlers.
fn d005_handlers_stay_inline(
    items: &Items,
    graph: &CallGraph,
    cfg: &Config,
    excerpts: &Excerpts,
    out: &mut Vec<Finding>,
) {
    let roots = resolve_roots(items, cfg.list("D005", "roots"), cfg.list("D005", "crates"));
    if roots.is_empty() {
        return;
    }
    let reach = graph.reach(&roots);
    for (id, f) in items.fns.iter().enumerate() {
        if !reach.contains(id) || f.in_test {
            continue;
        }
        let body = &f.body;
        for i in 0..body.len() {
            let t = &body[i];
            if t.kind != Kind::Ident {
                continue;
            }
            let call_open = body.get(i + 1).is_some_and(|n| n.is_punct('('));
            let method_recv = body.get(i.wrapping_sub(1)).is_some_and(|p| p.is_punct('.'));
            let what = if t.is_ident("Pool") {
                Some("worker-pool use")
            } else if (t.is_ident("spawn") || t.is_ident("sleep")) && call_open {
                Some("spawn/sleep call")
            } else if D005_BLOCKING_METHODS.contains(&t.text.as_str()) && method_recv && call_open {
                Some("blocking call")
            } else {
                None
            };
            if let Some(what) = what {
                push(
                    out,
                    excerpts,
                    "D005",
                    &f.rel,
                    t.line,
                    "event handlers run inline on the kernel's virtual clock: model delays by scheduling future events, move parallel work outside the kernel, or justify the site in lint.toml",
                    format!("{what} reachable via {}", reach.chain(items, id)),
                );
            }
        }
    }
}

/// P001: panic-surface reachability from the public API of the
/// configured crates.
fn p001_panic_surface(
    items: &Items,
    graph: &CallGraph,
    cfg: &Config,
    excerpts: &Excerpts,
    out: &mut Vec<Finding>,
) {
    let root_crates = cfg.list("P001", "root_crates");
    let exempt_files = cfg.list("P001", "exempt_files");
    let roots: Vec<usize> = items
        .fns
        .iter()
        .enumerate()
        .filter(|(_, f)| f.is_pub && !f.in_test && root_crates.iter().any(|c| c == &f.krate))
        .map(|(id, _)| id)
        .collect();
    if roots.is_empty() {
        return;
    }
    let reach = graph.reach(&roots);
    let mut seen = std::collections::BTreeSet::new();
    for (id, f) in items.fns.iter().enumerate() {
        if !reach.contains(id) || f.in_test {
            continue;
        }
        if exempt_files.iter().any(|e| f.rel.ends_with(e.as_str())) {
            continue;
        }
        let sites = rules::panic_sites(&f.body, &f.types)
            .into_iter()
            .filter(|s| !s.in_assert && s.kind != PanicKind::Assert);
        for site in sites {
            let (line, what) = (site.line, site.kind.label());
            if seen.insert((f.rel.clone(), line, what)) {
                push(
                    out,
                    excerpts,
                    "P001",
                    &f.rel,
                    line,
                    "panicking construct reachable from the public API: return an error, use .get()/checked ops, or justify the audited invariant in lint.toml",
                    format!("{what} reachable via {}", reach.chain(items, id)),
                );
            }
        }
    }
}

/// L008: the configured builder/score types must be `#[must_use]`.
fn l008_must_use_types(items: &Items, cfg: &Config, excerpts: &Excerpts, out: &mut Vec<Finding>) {
    let wanted = cfg.list("L008", "types");
    for ty in &items.types {
        if ty.is_pub && wanted.iter().any(|w| w == &ty.name) && !ty.must_use {
            push(
                out,
                excerpts,
                "L008",
                &ty.rel,
                ty.line,
                "builder/score types only matter when consumed: add #[must_use] so a dropped value warns",
                format!("type {}", ty.name),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items;
    use crate::scan::SourceFile;

    fn run_on(krate: &str, src: &str, cfg: &Config) -> Vec<(String, usize, String)> {
        let file = SourceFile::scan(
            format!("crates/{krate}/src/lib.rs"),
            krate.to_string(),
            false,
            src,
        );
        let files = vec![file];
        let items = items::extract(&files);
        let graph = CallGraph::build(&items);
        let mut out = Vec::new();
        check(&files, &items, &graph, cfg, &mut out);
        out.into_iter()
            .map(|f| (f.rule.to_string(), f.line, f.detail))
            .collect()
    }

    fn base_cfg() -> Config {
        let mut cfg = Config::default();
        cfg.set(DETERMINISM, "roots", &["entry"]);
        cfg.set("D002", "exempt_crates", &["obs", "bench"]);
        cfg.set("D004", "home_crate", &["par"]);
        cfg.set("D004", "exempt_crates", &["bench", "cli"]);
        cfg.set("P001", "root_crates", &["core"]);
        cfg.set("L008", "types", &["ScoreBook"]);
        cfg
    }

    #[test]
    fn d001_flags_hash_iteration_reachable_from_roots() {
        let src = "\
use std::collections::HashMap;
pub fn entry(map: HashMap<u32, u32>) { helper(&map); }
fn helper(map: &HashMap<u32, u32>) {
    for (k, v) in map.iter() { drop((k, v)); }
}
fn unreachable_fn(map: &HashMap<u32, u32>) {
    for (k, v) in map.iter() { drop((k, v)); }
}
";
        let fired = run_on("x", src, &base_cfg());
        let d001: Vec<_> = fired.iter().filter(|f| f.0 == "D001").collect();
        assert_eq!(d001.len(), 1, "{fired:?}");
        assert_eq!(d001[0].1, 4);
        assert!(d001[0].2.contains("entry → helper"), "{:?}", d001[0].2);
    }

    #[test]
    fn d001_flags_direct_for_loops_and_self_fields() {
        let src = "\
use std::collections::HashSet;
pub struct S { seen: HashSet<u64> }
impl S {
    pub fn entry(&self) {
        for v in &self.seen { drop(v); }
    }
}
";
        let mut cfg = base_cfg();
        cfg.set(DETERMINISM, "roots", &["S::entry"]);
        let fired = run_on("x", src, &cfg);
        assert!(fired.iter().any(|f| f.0 == "D001" && f.1 == 5), "{fired:?}");
    }

    #[test]
    fn d001_ignores_btree_and_unreached_code() {
        let src = "\
use std::collections::BTreeMap;
pub fn entry(map: BTreeMap<u32, u32>) {
    for (k, v) in map.iter() { drop((k, v)); }
}
";
        let fired = run_on("x", src, &base_cfg());
        assert!(fired.iter().all(|f| f.0 != "D001"), "{fired:?}");
    }

    #[test]
    fn d002_flags_wall_clock_outside_exempt_crates() {
        let src = "pub fn f() { let t = std::time::Instant::now(); drop(t); }\n";
        let fired = run_on("sim", src, &base_cfg());
        assert!(fired.iter().any(|f| f.0 == "D002"), "{fired:?}");
        // Observability crates are exempt by scope.
        let fired = run_on("obs", src, &base_cfg());
        assert!(fired.iter().all(|f| f.0 != "D002"), "{fired:?}");
        // Mentions of the Instant *type* (not ::now) are fine.
        let typed = "pub fn record(start: Instant, end: Instant) { drop((start, end)); }\n";
        let fired = run_on("sim", typed, &base_cfg());
        assert!(fired.iter().all(|f| f.0 != "D002"), "{fired:?}");
    }

    #[test]
    fn d003_flags_float_reductions_on_hot_paths() {
        let src = "\
pub fn entry(xs: Vec<f64>) -> f64 {
    let explicit: f64 = xs.iter().sum::<f64>();
    let bare: f64 = xs.iter().sum();
    explicit + bare
}
pub fn counts(ns: Vec<u64>) -> u64 { ns.iter().sum::<u64>() }
";
        let fired = run_on("x", src, &base_cfg());
        let d003: Vec<_> = fired.iter().filter(|f| f.0 == "D003").collect();
        assert_eq!(d003.len(), 2, "{fired:?}");
        assert_eq!(d003[0].1, 2);
        assert_eq!(d003[1].1, 3);
    }

    #[test]
    fn d004_flags_thread_count_branching_outside_par() {
        let src = "pub fn f(pool: &Pool) -> bool { pool.threads() > 1 }\n";
        assert!(run_on("sim", src, &base_cfg())
            .iter()
            .any(|f| f.0 == "D004"));
        assert!(run_on("par", src, &base_cfg())
            .iter()
            .all(|f| f.0 != "D004"));
        assert!(run_on("cli", src, &base_cfg())
            .iter()
            .all(|f| f.0 != "D004"));
        // `set_global_threads` must not match `global_threads`.
        let setter = "pub fn f() { set_global_threads(2); }\n";
        assert!(run_on("sim", setter, &base_cfg())
            .iter()
            .all(|f| f.0 != "D004"));
    }

    #[test]
    fn d005_flags_spawn_and_blocking_reachable_from_handlers() {
        let src = "\
pub struct D;
impl D {
    pub fn on_scan(&mut self) { self.drain(); }
    fn drain(&mut self) {
        let pool = Pool::new(2);
        pool.spawn(drop);
    }
    pub fn on_sample(&mut self, rx: &Receiver<u32>) {
        let _ = rx.recv();
    }
}
pub fn elsewhere(rx: &Receiver<u32>) { let _ = rx.recv(); }
";
        let mut cfg = base_cfg();
        cfg.set("D005", "roots", &["on_scan", "on_sample"]);
        cfg.set("D005", "crates", &["sim"]);
        let fired = run_on("sim", src, &cfg);
        let d005: Vec<_> = fired.iter().filter(|f| f.0 == "D005").collect();
        // Pool::new + pool.spawn via on_scan → drain, rx.recv in
        // on_sample; `elsewhere` is not a handler and stays unflagged.
        assert_eq!(d005.len(), 3, "{fired:?}");
        assert!(d005.iter().any(|f| f.1 == 5 && f.2.contains("worker-pool")));
        assert!(d005
            .iter()
            .any(|f| f.1 == 6 && f.2.contains("D::on_scan → D::drain")));
        assert!(d005.iter().any(|f| f.1 == 9 && f.2.contains("blocking")));
    }

    #[test]
    fn d005_allows_scheduling_and_plain_compute() {
        let src = "\
pub struct D;
impl D {
    pub fn on_scan(&mut self, kernel: &mut Kernel) {
        kernel.schedule_in(300, 5);
        let receiver = self.pick();
        drop(receiver);
    }
    fn pick(&self) -> u32 { 7 }
}
";
        let mut cfg = base_cfg();
        cfg.set("D005", "roots", &["on_scan"]);
        cfg.set("D005", "crates", &["sim"]);
        let fired = run_on("sim", src, &cfg);
        assert!(fired.iter().all(|f| f.0 != "D005"), "{fired:?}");
    }

    #[test]
    fn p001_reports_constructs_with_call_chains() {
        let src = "\
pub fn api(v: &[u64], i: usize) -> u64 { inner(v, i) }
fn inner(v: &[u64], i: usize) -> u64 {
    if v.is_empty() { panic!(\"empty\"); }
    v[i]
}
fn not_reached(v: &[u64]) -> u64 { v[0] }
";
        let fired = run_on("core", src, &base_cfg());
        let p: Vec<_> = fired.iter().filter(|f| f.0 == "P001").collect();
        // panic! at line 3 and v[i] at line 4; v[0] at 6 is unreached
        // from any pub fn — but `not_reached` resolves nothing… it IS
        // unreachable, so exactly two findings.
        assert_eq!(p.len(), 2, "{fired:?}");
        assert!(p.iter().any(|f| f.1 == 3 && f.2.contains("api → inner")));
        assert!(p.iter().any(|f| f.1 == 4));
    }

    #[test]
    fn p001_skips_assert_macros_and_tests() {
        let src = "\
pub fn api(n: usize) -> usize {
    assert!(n > 0, \"contract\");
    debug_assert_eq!(n % 2, 0);
    n
}
#[cfg(test)]
mod tests {
    #[test]
    fn t() { Vec::<u8>::new()[0]; }
}
";
        let fired = run_on("core", src, &base_cfg());
        assert!(fired.iter().all(|f| f.0 != "P001"), "{fired:?}");
    }

    #[test]
    fn p001_integer_division_needs_known_int_divisor() {
        let src = "\
pub fn mean(total: u64, n: u64) -> u64 { total / n }
pub fn halve(total: u64) -> u64 { total / 2 }
pub fn ratio(a: f64, b: f64) -> f64 { a / b }
";
        let fired = run_on("core", src, &base_cfg());
        let p: Vec<_> = fired.iter().filter(|f| f.0 == "P001").collect();
        assert_eq!(p.len(), 1, "{fired:?}");
        assert_eq!(p[0].1, 1);
        assert!(p[0].2.contains("integer division"));
    }

    #[test]
    fn l008_requires_must_use_on_listed_types() {
        let src = "pub struct ScoreBook { n: u32 }\npub struct Other;\n";
        let fired = run_on("core", src, &base_cfg());
        assert!(fired.iter().any(|f| f.0 == "L008" && f.1 == 1), "{fired:?}");
        let ok = "#[must_use]\npub struct ScoreBook { n: u32 }\n";
        let fired = run_on("core", ok, &base_cfg());
        assert!(fired.iter().all(|f| f.0 != "L008"), "{fired:?}");
    }
}
