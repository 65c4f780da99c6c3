//! `--self-test`: prove the engine still catches seeded violations.
//!
//! Writes a synthetic workspace into a temp directory with deliberate
//! violations for every rule (L001–L008, D001–D005, P001), runs the
//! full lint pipeline on it with an empty allowlist, and fails unless
//! the findings are exactly the pinned `(rule, file, line)` set: every
//! rule fires, at its seeded line and nowhere else. This is the
//! acceptance check that a refactor of the lexer/item/call-graph stack
//! cannot silently lobotomise a rule or shift its sites: CI runs it next
//! to the clean-tree check, so "zero findings" always means "zero
//! findings from a detector that demonstrably detects".

use std::path::{Path, PathBuf};

/// The findings the seeded tree must produce, as sorted `RULE file:line`.
const EXPECTED: &[&str] = &[
    "D001 crates/core/src/pagerank.rs:7",
    "D002 crates/sim/src/lib.rs:2",
    "D003 crates/core/src/pagerank.rs:10",
    "D004 crates/sim/src/lib.rs:3",
    "D005 crates/sim/src/lib.rs:10",
    "L001 crates/core/src/pagerank.rs:13",
    "L002 crates/core/src/pagerank.rs:22",
    "L003 crates/sim/src/lib.rs:4",
    "L004 crates/core/src/pagerank.rs:11",
    "L005 crates/core/src/pagerank.rs:5",
    "L006 crates/testbed/src/lib.rs:4",
    "L007 crates/core/src/pagerank.rs:5",
    "L008 crates/core/src/lib.rs:3",
    "P001 crates/core/src/pagerank.rs:11",
    "P001 crates/core/src/pagerank.rs:13",
];

const SELFTEST_TOML: &str = "\
[determinism]
roots = pagerank
crates = core

[rule.D002]
exempt_crates = obs, bench, testbed, solver, cli, lint

[rule.D004]
home_crate = par
exempt_crates = bench, cli, testbed, lint

[rule.D005]
roots = handle
crates = sim

[rule.P001]
root_crates = core, sim

[rule.L008]
types = ScoreBook
";

/// Hot-path file seeding L001/L002/L004/L005/L007 and D001/D003/P001.
const CORE_PAGERANK: &str = r#"//! Seeded violations: every line here is a deliberate lint target.
use std::collections::HashMap;

/// Undocumented panic paths; deliberately lacks the panic doc section.
pub fn pagerank(map: &HashMap<u64, f64>, xs: &[f64], v: &[u64], i: usize) -> f64 {
    let mut acc = 0.0;
    for (_k, val) in map.iter() {
        acc += val;
    }
    let partial: f64 = xs.iter().sum::<f64>();
    let picked = v[i];
    let opt: Option<u64> = v.first().copied();
    let forced = opt.unwrap();
    let a = acc + partial;
    let b = a * 2.0;
    let c = b - 1.0;
    let d = c.max(0.0);
    let e = d.min(1.0e9);
    let f = e + 0.5;
    let g = f * f;
    let h = g.sqrt();
    h + picked as f64 + forced as f64
}
"#;

const CORE_LIB: &str = "\
pub mod pagerank;

pub struct ScoreBook {
    pub scores: Vec<f64>,
}
";

/// Sim crate seeding D002, D004, D005 and L003.
const SIM_LIB: &str = "\
pub fn simulate(pool: &Pool, m: Mhz) -> f64 {
    let started = std::time::Instant::now();
    let wide = pool.threads() > 1;
    let raw = m.get() as f64;
    drop((started, wide));
    raw
}

pub fn handle(pool: &Pool) {
    pool.spawn(drop);
}
";

/// Testbed crate seeding L006.
const TESTBED_LIB: &str = "\
use crossbeam::channel::Receiver;

pub fn pump(rx: &Receiver<u32>) {
    let _ = rx.recv();
}
";

/// Run the self-test; `Ok(())` when the seeded tree produced exactly
/// the pinned findings.
pub fn run() -> Result<(), String> {
    let root = std::env::temp_dir().join(format!("prvm-lint-selftest-{}", std::process::id()));
    let result = seeded_run(&root);
    let _ = std::fs::remove_dir_all(&root); // best-effort cleanup
    let fired = result?;
    if fired != EXPECTED {
        return Err(format!(
            "self-test FAILED: the seeded tree must produce exactly {EXPECTED:?}, got {fired:?}"
        ));
    }
    let mut rules: Vec<&str> = EXPECTED.iter().filter_map(|s| s.get(..4)).collect();
    rules.dedup();
    println!(
        "prvm-lint: self-test ok — all {} rules fired at their {} seeded sites",
        rules.len(),
        EXPECTED.len()
    );
    Ok(())
}

/// Write the seeded tree and lint it; returns the findings as sorted
/// `RULE file:line`.
fn seeded_run(root: &Path) -> Result<Vec<String>, String> {
    write(root, "lint.toml", SELFTEST_TOML)?;
    write(root, "crates/core/src/lib.rs", CORE_LIB)?;
    write(root, "crates/core/src/pagerank.rs", CORE_PAGERANK)?;
    write(root, "crates/sim/src/lib.rs", SIM_LIB)?;
    write(root, "crates/testbed/src/lib.rs", TESTBED_LIB)?;
    let report = crate::run_lint(root, &root.join("lint.toml"))?;
    let mut fired: Vec<String> = report
        .findings
        .iter()
        .map(|f| format!("{} {}:{}", f.rule, f.rel, f.line))
        .collect();
    fired.sort();
    Ok(fired)
}

fn write(root: &Path, rel: &str, text: &str) -> Result<(), String> {
    let path: PathBuf = root.join(rel);
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeded_tree_trips_every_rule() {
        let root =
            std::env::temp_dir().join(format!("prvm-lint-selftest-unit-{}", std::process::id()));
        let result = seeded_run(&root);
        let _ = std::fs::remove_dir_all(&root);
        let fired = result.expect("seeded run");
        assert_eq!(fired, EXPECTED);
        for (rule, _) in crate::output::CATALOG {
            assert!(
                EXPECTED.iter().any(|e| e.starts_with(rule)),
                "{rule} has no seeded site"
            );
        }
    }
}
