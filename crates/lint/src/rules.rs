//! The file-scoped lint rules L001–L007, and the panic-site detector
//! they share with P001.
//!
//! The rules read the same two layers as the D/P families: the token
//! stream (`lex.rs`), where comment and literal text are whole tokens a
//! code pattern never matches, and the item table (`items.rs`), which
//! owns the test-code mark, fn bodies, signature lines and `# Panics`
//! docs. Each rule reports a line at most once. Rules are scoped by
//! crate and file as documented in DESIGN.md §8:
//!
//! * **L001** — no `unwrap()` / `expect()` outside tests and binary targets.
//! * **L002** — no lossy `as` numeric casts in `core` / `model`
//!   (`crates/model/src/units.rs` is the sanctioned conversion layer and
//!   is exempt).
//! * **L003** — no raw `f64` resource arithmetic in `core` / `sim` that
//!   bypasses the `units.rs` newtypes.
//! * **L004** — no unchecked slice indexing in the hot paths
//!   (`graph.rs`, `pagerank.rs`, `placer.rs`).
//! * **L005** — every `pub fn` in `core` that can panic documents a
//!   `# Panics` section.
//! * **L006** — in files that use `crossbeam::channel`, no bare blocking
//!   `.recv()` and no panicking `.send(…).unwrap()` outside tests: a
//!   peer's death must surface as a typed error, not a hang or a panic
//!   (DESIGN.md §9).
//! * **L007** — non-trivial `pub fn`s on the hot paths (`graph.rs`,
//!   `pagerank.rs`, `placer.rs`) must open a profiling span
//!   (`Span::enter` / `Span::timed`) so `--trace` timelines and phase
//!   histograms cover them (DESIGN.md §11); trivial accessors are
//!   exempt by size, deliberately span-free helpers via lint.toml.

use crate::items::{FnItem, Items};
use crate::lex::{Kind, Token};
use crate::scan::SourceFile;
use std::collections::{BTreeMap, BTreeSet};

/// A single lint finding.
#[derive(Debug)]
pub struct Finding {
    /// Rule identifier, e.g. `"L001"`.
    pub rule: &'static str,
    /// Workspace-relative path.
    pub rel: String,
    /// 1-based line number.
    pub line: usize,
    /// The raw source line (trimmed), for allowlist matching and display.
    pub excerpt: String,
    /// Actionable fix hint.
    pub hint: &'static str,
    /// Rule-specific context, e.g. the offending call chain for P001.
    /// Empty for the file-scoped rules.
    pub detail: String,
}

const NUMERIC_TYPES: [&str; 15] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize", "f32",
    "f64", "NodeId",
];

const INT_TYPES: [&str; 12] = [
    "u8", "u16", "u32", "u64", "u128", "usize", "i8", "i16", "i32", "i64", "i128", "isize",
];

/// Macros that always panic when reached.
const PANIC_MACROS: [&str; 4] = ["panic", "unreachable", "todo", "unimplemented"];

/// Assertion macros. Their argument lists are contract checks, so sites
/// inside them are marked `in_assert`; the `debug_` forms vanish in
/// release builds and are not sites themselves.
const ASSERT_MACROS: [&str; 6] = [
    "assert",
    "assert_eq",
    "assert_ne",
    "debug_assert",
    "debug_assert_eq",
    "debug_assert_ne",
];

/// Unit newtype constructors that L003 watches for float input.
const UNIT_CTORS: [&str; 3] = ["Mhz", "MemMib", "DiskGb"];

/// Files on the placement hot path, shared by L004 and L007.
const HOT_FILES: [&str; 3] = [
    "core/src/graph.rs",
    "core/src/pagerank.rs",
    "core/src/placer.rs",
];

/// Body lines holding code above which a hot-path `pub fn` is no longer
/// a trivial accessor and L007 requires a span.
const L007_TRIVIAL_LINES: usize = 12;

/// What makes a panic site panic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PanicKind {
    /// `.unwrap(…)` / `.expect(…)`.
    Unwrap,
    /// `panic!`, `unreachable!`, `todo!`, `unimplemented!`.
    Macro,
    /// `assert!`, `assert_eq!`, `assert_ne!`.
    Assert,
    /// `expr[…]`.
    Index,
    /// `a / n` where `n` is a value of known integer type.
    IntDiv,
}

impl PanicKind {
    /// The construct's name in P001 details.
    pub fn label(self) -> &'static str {
        match self {
            PanicKind::Unwrap => "unwrap/expect",
            PanicKind::Macro => "panic macro",
            PanicKind::Assert => "assertion",
            PanicKind::Index => "slice indexing",
            PanicKind::IntDiv => "integer division",
        }
    }
}

/// One panicking construct.
#[derive(Debug, Clone, Copy)]
pub struct PanicSite {
    /// 1-based line.
    pub line: usize,
    pub kind: PanicKind,
    /// Inside the argument list of an assertion macro.
    pub in_assert: bool,
}

/// Every panicking construct in `code`, a token slice without trivia.
/// `types` maps value names to type text; only integer division reads
/// it, so file-wide scans pass an empty map.
pub fn panic_sites(code: &[Token], types: &BTreeMap<String, String>) -> Vec<PanicSite> {
    let mut sites = Vec::new();
    // One past the end of the outermost enclosing assertion's arguments.
    let mut assert_end = 0usize;
    for (i, t) in code.iter().enumerate() {
        let prev = i.checked_sub(1).and_then(|p| code.get(p));
        let next = code.get(i + 1);
        let in_assert = i < assert_end;
        let is_macro = t.kind == Kind::Ident && next.is_some_and(|n| n.is_punct('!'));
        let kind = if is_macro && ASSERT_MACROS.contains(&t.text.as_str()) {
            assert_end = assert_end.max(group_end(code, i + 2));
            (!t.text.starts_with("debug_")).then_some(PanicKind::Assert)
        } else if is_macro && PANIC_MACROS.contains(&t.text.as_str()) {
            Some(PanicKind::Macro)
        } else if (t.is_ident("unwrap") || t.is_ident("expect"))
            && prev.is_some_and(|p| p.is_punct('.'))
            && next.is_some_and(|n| n.is_punct('('))
        {
            Some(PanicKind::Unwrap)
        } else if t.is_punct('[') && prev.is_some_and(ends_indexable) {
            Some(PanicKind::Index)
        } else if t.is_punct('/')
            && prev.is_some_and(ends_indexable)
            && next.is_some_and(|n| {
                n.kind == Kind::Ident
                    && types
                        .get(&n.text)
                        .is_some_and(|ty| INT_TYPES.contains(&ty.as_str()))
            })
        {
            // Division by a value of known integer type can panic on
            // zero; literal divisors are exempt.
            Some(PanicKind::IntDiv)
        } else {
            None
        };
        if let Some(kind) = kind {
            sites.push(PanicSite {
                line: t.line,
                kind,
                in_assert,
            });
        }
    }
    sites
}

/// Can an expression end with `t`, so that a following `[` indexes it?
/// Numbers can (`self.0[i]`); keywords that precede a type or pattern
/// (`&mut [T]`, `for [a, b] in`, `impl X for [T]`, `let [a, b] =`)
/// cannot.
fn ends_indexable(t: &Token) -> bool {
    let keyword = matches!(
        t.text.as_str(),
        "in" | "as"
            | "mut"
            | "return"
            | "break"
            | "else"
            | "if"
            | "match"
            | "dyn"
            | "impl"
            | "for"
            | "let"
            | "where"
    );
    t.kind == Kind::Ident && !keyword
        || t.kind == Kind::Number
        || t.is_punct(')')
        || t.is_punct(']')
}

/// Index one past the end of the group starting at `open` (which must
/// be a delimiter token); `open` itself when it is not a delimiter.
fn group_end(code: &[Token], open: usize) -> usize {
    let Some(t) = code.get(open) else {
        return open;
    };
    let (o, c) = match t.text.as_str() {
        "(" => ('(', ')'),
        "[" => ('[', ']'),
        "{" => ('{', '}'),
        _ => return open,
    };
    let mut depth = 0i32;
    for (j, u) in code.iter().enumerate().skip(open) {
        if u.is_punct(o) {
            depth += 1;
        } else if u.is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return j + 1;
            }
        }
    }
    code.len()
}

/// Do the tokens from `i` on have exactly the texts `pat`?
fn seq_at(code: &[Token], i: usize, pat: &[&str]) -> bool {
    code.get(i..i + pat.len())
        .is_some_and(|w| w.iter().zip(pat).all(|(t, p)| t.text == *p))
}

/// One file, prepared for the rules.
struct Scan<'a> {
    file: &'a SourceFile,
    items: &'a Items,
    /// The file's tokens without whitespace and comments.
    tokens: Vec<Token>,
    /// Panic sites outside test code.
    sites: Vec<PanicSite>,
    /// The file's bare-`pub` fns outside test code.
    api_fns: Vec<&'a FnItem>,
}

impl Scan<'_> {
    /// Lines outside test code where `pred(code, i)` holds.
    fn lines_at(&self, pred: impl Fn(&[Token], usize) -> bool) -> BTreeSet<usize> {
        (0..self.tokens.len())
            .filter(|&i| pred(&self.tokens, i))
            .map(|i| self.tokens[i].line)
            .filter(|&line| !self.items.in_test(&self.file.rel, line))
            .collect()
    }

    /// Lines of the panic sites of one kind.
    fn site_lines(&self, kind: PanicKind) -> BTreeSet<usize> {
        self.sites
            .iter()
            .filter(|s| s.kind == kind)
            .map(|s| s.line)
            .collect()
    }

    fn is_hot(&self) -> bool {
        HOT_FILES.iter().any(|h| self.file.rel.ends_with(h))
    }
}

/// Run L001–L007 against `file`, appending findings to `out`.
pub fn check(file: &SourceFile, items: &Items, out: &mut Vec<Finding>) {
    let tokens: Vec<Token> = file
        .tokens
        .iter()
        .filter(|t| !t.kind.is_trivia())
        .cloned()
        .collect();
    let sites = panic_sites(&tokens, &BTreeMap::new())
        .into_iter()
        .filter(|s| !items.in_test(&file.rel, s.line))
        .collect();
    let api_fns = items
        .fns
        .iter()
        .filter(|f| f.rel == file.rel && f.is_api && !f.in_test)
        .collect();
    let scan = Scan {
        file,
        items,
        tokens,
        sites,
        api_fns,
    };
    let found = [
        (
            "L001",
            l001_no_unwrap(&scan),
            "propagate the error (`?`, `ok_or`, `match`) or justify the invariant in lint.toml",
        ),
        (
            "L002",
            l002_no_lossy_cast(&scan),
            "use From/TryFrom or the units.rs conversions instead of a lossy `as` cast",
        ),
        (
            "L003",
            l003_no_raw_resource_math(&scan),
            "route the conversion through units.rs (`as_f64`, `fraction_of`, `from_f64_*`)",
        ),
        (
            "L004",
            l004_no_unchecked_index(&scan),
            "prefer iterators/zip, `.get()`, or an audited accessor with a documented bound",
        ),
        (
            "L005",
            l005_panics_documented(&scan),
            "add a `# Panics` doc section (or remove the panic path)",
        ),
        (
            "L006",
            l006_no_bare_channel_ops(&scan),
            "use recv_timeout / handle the SendError as a typed error (the peer may be dead), or justify the blocking site in lint.toml",
        ),
        (
            "L007",
            l007_hot_paths_open_spans(&scan),
            "open a profiling span (`Span::enter(\"…\")`) so --trace covers this hot-path function, or justify the span-free site in lint.toml",
        ),
    ];
    for (rule, lines, hint) in found {
        out.extend(lines.into_iter().map(|line| Finding {
            rule,
            rel: file.rel.clone(),
            line,
            excerpt: file.excerpt(line),
            hint,
            detail: String::new(),
        }));
    }
}

/// L001: `unwrap()` / `expect()` are reserved for tests and binaries.
fn l001_no_unwrap(s: &Scan) -> BTreeSet<usize> {
    if s.file.is_bin {
        return BTreeSet::new();
    }
    s.site_lines(PanicKind::Unwrap)
}

/// L002: lossy `as` numeric casts in `core` / `model`.
fn l002_no_lossy_cast(s: &Scan) -> BTreeSet<usize> {
    let krate = s.file.krate.as_str();
    if !(krate == "core" || krate == "model") || s.file.rel.ends_with("units.rs") {
        return BTreeSet::new();
    }
    s.lines_at(|code, i| {
        code[i].is_ident("as")
            && code
                .get(i + 1)
                .is_some_and(|t| t.kind == Kind::Ident && NUMERIC_TYPES.contains(&t.text.as_str()))
    })
}

/// L003: raw `f64` resource arithmetic bypassing the unit newtypes:
/// `.get() as f64`, `.0 as f64`, or a unit constructor on a line that
/// casts `as u64`.
fn l003_no_raw_resource_math(s: &Scan) -> BTreeSet<usize> {
    let krate = s.file.krate.as_str();
    if !(krate == "core" || krate == "sim") {
        return BTreeSet::new();
    }
    let mut lines = s.lines_at(|code, i| {
        seq_at(code, i, &[".", "get", "(", ")", "as", "f64"])
            || seq_at(code, i, &[".", "0", "as", "f64"])
    });
    let ctors = s.lines_at(|code, i| {
        code[i].kind == Kind::Ident
            && UNIT_CTORS.contains(&code[i].text.as_str())
            && code.get(i + 1).is_some_and(|t| t.is_punct('('))
    });
    let casts = s.lines_at(|code, i| seq_at(code, i, &["as", "u64"]));
    lines.extend(ctors.intersection(&casts));
    lines
}

/// L004: unchecked slice indexing in the hot paths.
fn l004_no_unchecked_index(s: &Scan) -> BTreeSet<usize> {
    if !s.is_hot() {
        return BTreeSet::new();
    }
    s.site_lines(PanicKind::Index)
}

/// L005: public `core` functions that can panic must say so.
fn l005_panics_documented(s: &Scan) -> BTreeSet<usize> {
    if s.file.krate != "core" {
        return BTreeSet::new();
    }
    let panicky = [PanicKind::Unwrap, PanicKind::Macro, PanicKind::Assert];
    s.api_fns
        .iter()
        .filter(|f| !f.doc_panics)
        .filter(|f| {
            panic_sites(&f.body, &f.types)
                .iter()
                .any(|site| panicky.contains(&site.kind))
        })
        .map(|f| f.line)
        .collect()
}

/// L006: bare channel operations in files that speak `crossbeam::channel`.
/// A blocking `.recv()` hangs forever when the peer dies and a
/// `.send(…).unwrap()` panics; both must become typed errors or timeouts.
fn l006_no_bare_channel_ops(s: &Scan) -> BTreeSet<usize> {
    let uses_channels =
        (0..s.tokens.len()).any(|i| seq_at(&s.tokens, i, &["crossbeam", ":", ":", "channel"]));
    if !uses_channels {
        return BTreeSet::new();
    }
    let mut lines = s.lines_at(|code, i| seq_at(code, i, &[".", "recv", "(", ")"]));
    let sends = s.lines_at(|code, i| seq_at(code, i, &[".", "send", "("]));
    lines.extend(sends.intersection(&s.site_lines(PanicKind::Unwrap)));
    lines
}

/// L007: non-trivial public functions on the hot paths must open a
/// profiling span, so per-worker timelines and phase histograms see
/// them. Size is the number of body lines holding code (not comments or
/// literal text); functions at or under [`L007_TRIVIAL_LINES`] read as
/// accessors and are exempt.
fn l007_hot_paths_open_spans(s: &Scan) -> BTreeSet<usize> {
    if !s.is_hot() {
        return BTreeSet::new();
    }
    s.api_fns
        .iter()
        .filter(|f| {
            let code_lines: BTreeSet<usize> = f
                .body
                .iter()
                .filter(|t| !t.kind.is_literal_text())
                .map(|t| t.line)
                .collect();
            code_lines.len() > L007_TRIVIAL_LINES
        })
        .filter(|f| {
            !(0..f.body.len()).any(|i| {
                seq_at(&f.body, i, &["Span", ":", ":", "enter"])
                    || seq_at(&f.body, i, &["Span", ":", ":", "timed"])
            })
        })
        .map(|f| f.line)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::items;

    fn file(rel: &str, src: &str) -> SourceFile {
        let krate = rel.split('/').nth(1).unwrap_or("").to_string();
        SourceFile::scan(rel.to_string(), krate, false, src)
    }

    /// `rule:line` for every finding on `file`, in report order.
    fn fired(file: SourceFile) -> Vec<String> {
        let files = [file];
        let items = items::extract(&files);
        let mut out = Vec::new();
        check(&files[0], &items, &mut out);
        out.iter()
            .map(|f| format!("{}:{}", f.rule, f.line))
            .collect()
    }

    fn rules_fired(rel: &str, src: &str) -> Vec<String> {
        fired(file(rel, src))
    }

    #[test]
    fn l001_fires_outside_tests_only() {
        let src = "fn a() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn b() { y.expect(\"e\"); }\n}\n";
        assert_eq!(rules_fired("crates/sim/src/engine.rs", src), ["L001:1"]);
    }

    #[test]
    fn l001_skips_bins() {
        let mut f = file("crates/cli/src/main.rs", "fn a() { x.unwrap(); }\n");
        f.is_bin = true;
        assert!(fired(f).is_empty());
    }

    #[test]
    fn l002_catches_numeric_casts_in_core_and_model_only() {
        let src = "fn a(n: u64) -> usize { n as usize }\n";
        assert_eq!(rules_fired("crates/core/src/table.rs", src), ["L002:1"]);
        assert_eq!(rules_fired("crates/model/src/pm.rs", src), ["L002:1"]);
        assert!(rules_fired("crates/traces/src/gen.rs", src).is_empty());
        assert!(rules_fired("crates/model/src/units.rs", src).is_empty());
    }

    #[test]
    fn l002_ignores_non_cast_as_tokens() {
        let src = "use std::fmt as f;\nfn a() { assert_eq!(1, 1); }\n";
        assert!(rules_fired("crates/core/src/graph.rs", src)
            .iter()
            .all(|r| !r.starts_with("L002")));
    }

    #[test]
    fn l003_catches_raw_resource_math() {
        let src = "fn a(m: Mhz) -> f64 { m.get() as f64 }\nfn b(x: f64) -> Mhz { Mhz(x.round() as u64) }\n";
        let fired = rules_fired("crates/sim/src/engine.rs", src);
        assert!(fired.contains(&"L003:1".to_string()));
        assert!(fired.contains(&"L003:2".to_string()));
    }

    #[test]
    fn l004_flags_indexing_in_hot_paths_only() {
        let src = "fn a(v: &[u64], i: usize) -> u64 { v[i] }\n";
        assert!(rules_fired("crates/core/src/pagerank.rs", src).contains(&"L004:1".to_string()));
        assert!(rules_fired("crates/core/src/table.rs", src)
            .iter()
            .all(|r| !r.starts_with("L004")));
    }

    #[test]
    fn l004_ignores_attributes_array_types_and_macros() {
        let src = "#[derive(Debug)]\nfn a(v: &[u64]) -> Vec<u64> { vec![0; 4] }\n";
        assert!(rules_fired("crates/core/src/graph.rs", src)
            .iter()
            .all(|r| !r.starts_with("L004")));
    }

    #[test]
    fn l005_requires_panics_section() {
        let undocumented =
            "/// Does things.\npub fn a(x: Option<u32>) -> u32 {\n    x.expect(\"present\")\n}\n";
        assert!(
            rules_fired("crates/core/src/bpru.rs", undocumented).contains(&"L005:2".to_string())
        );
        let documented = "/// Does things.\n///\n/// # Panics\n/// Panics when absent.\n#[must_use]\npub fn a(x: Option<u32>) -> u32 {\n    x.expect(\"present\")\n}\n";
        assert!(rules_fired("crates/core/src/bpru.rs", documented)
            .iter()
            .all(|r| !r.starts_with("L005")));
    }

    #[test]
    fn l006_flags_bare_channel_ops_in_channel_files_only() {
        let src = "use crossbeam::channel::{Receiver, Sender};\n\
                   fn a(rx: &Receiver<u32>) { let _ = rx.recv(); }\n\
                   fn b(tx: &Sender<u32>) { tx.send(1).unwrap(); }\n";
        let fired = rules_fired("crates/testbed/src/x.rs", src);
        assert!(fired.contains(&"L006:2".to_string()), "{fired:?}");
        assert!(fired.contains(&"L006:3".to_string()), "{fired:?}");

        // recv_timeout and fallible sends are the sanctioned forms.
        let ok = "use crossbeam::channel::Receiver;\n\
                  fn a(rx: &Receiver<u32>, d: std::time::Duration) { let _ = rx.recv_timeout(d); }\n\
                  fn b(tx: &crossbeam::channel::Sender<u32>) -> Result<(), ()> { tx.send(1).map_err(|_| ()) }\n";
        assert!(rules_fired("crates/testbed/src/x.rs", ok)
            .iter()
            .all(|r| !r.starts_with("L006")));

        // Files that never import crossbeam channels are exempt.
        let nochan = "fn a(rx: &Mailbox) { let _ = rx.recv(); }\n";
        assert!(rules_fired("crates/sim/src/x.rs", nochan)
            .iter()
            .all(|r| !r.starts_with("L006")));

        // Test modules may block freely.
        let in_test = "use crossbeam::channel::Receiver;\n\
                       #[cfg(test)]\nmod tests {\n    fn a(rx: &Receiver<u32>) { let _ = rx.recv(); }\n}\n";
        assert!(rules_fired("crates/testbed/src/x.rs", in_test)
            .iter()
            .all(|r| !r.starts_with("L006")));
    }

    #[test]
    fn l007_requires_spans_in_long_hot_path_pub_fns() {
        let long_body: String = (0..16).map(|i| format!("    let x{i} = {i};\n")).collect();
        let bare = format!("pub fn work(v: &mut Vec<u64>) {{\n{long_body}}}\n");
        assert!(rules_fired("crates/core/src/pagerank.rs", &bare).contains(&"L007:1".to_string()));

        // The same function outside the hot files is exempt…
        assert!(rules_fired("crates/core/src/table.rs", &bare)
            .iter()
            .all(|r| !r.starts_with("L007")));

        // …as is a spanned version, whether via enter or timed…
        for span in [
            "let _s = Span::enter(\"work\");",
            "Span::timed(\"work\", || 1);",
        ] {
            let spanned = format!("pub fn work() {{\n    {span}\n{long_body}}}\n");
            assert!(
                rules_fired("crates/core/src/pagerank.rs", &spanned)
                    .iter()
                    .all(|r| !r.starts_with("L007")),
                "{span}"
            );
        }

        // …and a trivial accessor stays under the size threshold.
        let accessor = "pub fn len(&self) -> usize {\n    self.nodes.len()\n}\n";
        assert!(rules_fired("crates/core/src/graph.rs", accessor)
            .iter()
            .all(|r| !r.starts_with("L007")));

        // Private functions are the callee side; only the pub surface
        // must be covered.
        let private = format!("fn helper(v: &mut Vec<u64>) {{\n{long_body}}}\n");
        assert!(rules_fired("crates/core/src/placer.rs", &private)
            .iter()
            .all(|r| !r.starts_with("L007")));
    }

    #[test]
    fn l005_ignores_debug_asserts_and_calm_bodies() {
        let src = "/// Fine.\npub fn a(x: u32) -> u32 {\n    debug_assert!(x > 0);\n    x + 1\n}\n";
        assert!(rules_fired("crates/core/src/profile.rs", src)
            .iter()
            .all(|r| !r.starts_with("L005")));
    }

    #[test]
    fn comments_never_fire() {
        let src = "fn a() {\n    let x = 1; // x.unwrap() v[0]\n    let y = /* z as f64 */ 2;\n}\n";
        assert!(rules_fired("crates/core/src/graph.rs", src).is_empty());
    }

    #[test]
    fn string_contents_never_fire_but_code_beside_them_does() {
        let src = "fn a() { foo(\"x.unwrap()\"); bar.unwrap(); }\n";
        assert_eq!(rules_fired("crates/sim/src/engine.rs", src), ["L001:1"]);
    }

    #[test]
    fn raw_strings_and_escapes_never_fire() {
        let src = "fn a() { let s = r#\"as u64 \"quoted\"\"#; s.expect(\"\\\" as f64\"); }\n";
        assert_eq!(rules_fired("crates/core/src/table.rs", src), ["L001:1"]);
    }

    #[test]
    fn lifetimes_are_not_char_literals() {
        let src = "fn f<'a>(x: &'a str) -> char { 'x' }\nfn g(x: &[u8]) -> u8 { x[0] }\n";
        assert_eq!(rules_fired("crates/core/src/graph.rs", src), ["L004:2"]);
    }

    #[test]
    fn nested_block_comments_never_fire() {
        let src = "fn a() {\n    /* outer /* inner */ x.unwrap()\n    still */ b.unwrap();\n}\n";
        assert_eq!(rules_fired("crates/sim/src/engine.rs", src), ["L001:3"]);
    }

    #[test]
    fn multiline_strings_keep_line_numbers() {
        let src = "fn a() {\n    let s = \"x.unwrap()\n    y.unwrap()\"; z.unwrap();\n    w.unwrap();\n}\n";
        assert_eq!(
            rules_fired("crates/sim/src/engine.rs", src),
            ["L001:3", "L001:4"]
        );
    }

    #[test]
    fn doc_comments_never_fire() {
        let src = "/// x.unwrap() and v[0]\n//! y.expect(\"e\")\n/** z as u64 */\nfn a() {}\n";
        assert!(rules_fired("crates/core/src/graph.rs", src).is_empty());
    }

    #[test]
    fn cfg_test_region_ends_at_its_close_brace() {
        let src = "fn a() { x.unwrap(); }\n#[cfg(test)]\nmod tests {\n    fn b() {\n        y.unwrap();\n    }\n}\nfn c() { z.unwrap(); }\n";
        assert_eq!(
            rules_fired("crates/sim/src/engine.rs", src),
            ["L001:1", "L001:8"]
        );
    }

    #[test]
    fn cfg_test_on_statement_does_not_swallow_file() {
        let src = "#[cfg(test)]\nuse foo::bar;\nfn c() { z.unwrap(); }\n";
        assert_eq!(rules_fired("crates/sim/src/engine.rs", src), ["L001:3"]);
    }

    #[test]
    fn unwrap_inside_an_assertion_still_fires_l001() {
        let src = "fn a(x: Option<u32>) {\n    assert!(x.unwrap() > 0);\n}\n";
        assert_eq!(rules_fired("crates/sim/src/engine.rs", src), ["L001:2"]);
    }

    #[test]
    fn slice_types_and_patterns_are_not_indexes() {
        let src = "impl Foo for [u64] {\n    fn f(&self) {}\n}\nfn g(pairs: &[[u8; 2]]) {\n    for [a, b] in pairs {\n        let [c, d] = [*a, *b];\n        drop((c, d));\n    }\n}\n";
        assert!(rules_fired("crates/core/src/graph.rs", src).is_empty());
    }

    #[test]
    fn l002_fires_on_casts_outside_fns() {
        let src =
            "const N: usize = 4u64 as usize;\n#[cfg(test)]\nconst M: usize = 4u64 as usize;\n";
        assert_eq!(rules_fired("crates/core/src/table.rs", src), ["L002:1"]);
    }

    #[test]
    fn l005_reads_docs_through_attributes_and_skips_restricted_fns() {
        let src = "/// # Panics\n/// When absent.\n#[inline]\n#[must_use]\npub fn a(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\npub(crate) fn b(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\npub fn c(v: &[u32]) -> u32 {\n    assert_eq!(v.len(), 1);\n    v[0]\n}\n";
        assert_eq!(
            rules_fired("crates/core/src/bpru.rs", src),
            ["L001:6", "L001:9", "L005:11"]
        );
    }

    #[test]
    fn l007_counts_lines_holding_code() {
        // Twelve code lines (braces count; comment-only lines and lines
        // inside a string literal do not) stay trivial; one more line
        // needs a span.
        let body = "    if a {\n        b();\n    }\n    // note\n    let s = \"x\n\n\";\n    c();\n    d();\n    e();\n    f();\n    g();\n    h();\n    i();\n";
        let trivial = format!("pub fn work(a: bool) {{\n{body}}}\n");
        assert!(rules_fired("crates/core/src/placer.rs", &trivial).is_empty());
        let long = format!("pub fn work(a: bool) {{\n{body}    k();\n}}\n");
        assert_eq!(rules_fired("crates/core/src/placer.rs", &long), ["L007:1"]);
    }
}
