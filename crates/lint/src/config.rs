//! `lint.toml` parsing: rule configuration sections plus the allowlist.
//!
//! The file stays hand-parseable (no TOML dependency) with two line
//! shapes:
//!
//! ```text
//! [rule.D004]                      # opens a rule's config section
//! home_crate = par                 # comma-separated value list
//!
//! L004 | crates/core/src/graph.rs | &self.nodes[ix(id)] | reason…
//! ```
//!
//! Pipe lines are allowlist entries wherever they appear; `key = v, v`
//! lines belong to the most recent section header. Scoped roots and
//! exemptions therefore live next to the exceptions they justify, and
//! rules never hardcode paths. Besides the per-rule `[rule.XXX]`
//! sections there is one shared section, `[determinism]`: the roots and
//! crates that both D001 and D003 scope themselves to.

use crate::allowlist::{self, Entry};
use std::collections::BTreeMap;

/// The section D001 and D003 share: result-affecting entry points
/// (`roots`) and the crates they are resolved in (`crates`).
pub const DETERMINISM: &str = "determinism";

/// Parsed rule configuration: `section → key → values`, where a
/// section is a rule id or [`DETERMINISM`].
#[derive(Debug, Default)]
pub struct Config {
    sections: BTreeMap<String, BTreeMap<String, Vec<String>>>,
}

impl Config {
    /// The value list for `section.key`, empty when absent.
    pub fn list(&self, section: &str, key: &str) -> &[String] {
        self.sections
            .get(section)
            .and_then(|s| s.get(key))
            .map_or(&[], Vec::as_slice)
    }

    /// Membership test against `rule.key`.
    #[cfg(test)]
    pub fn contains(&self, rule: &str, key: &str, value: &str) -> bool {
        self.list(rule, key).iter().any(|v| v == value)
    }

    #[cfg(test)]
    pub fn set(&mut self, rule: &str, key: &str, values: &[&str]) {
        self.sections.entry(rule.to_string()).or_default().insert(
            key.to_string(),
            values.iter().map(|v| (*v).to_string()).collect(),
        );
    }
}

/// Parse the full `lint.toml`: config sections and allowlist entries.
pub fn parse(text: &str) -> Result<(Config, Vec<Entry>), String> {
    let mut config = Config::default();
    let mut entries = Vec::new();
    let mut section: Option<String> = None;
    for (n, raw) in text.lines().enumerate() {
        let line = raw.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        if let Some(header) = line.strip_prefix('[').and_then(|l| l.strip_suffix(']')) {
            let rule = header
                .strip_prefix("rule.")
                .or((header == DETERMINISM).then_some(header))
                .ok_or_else(|| {
                    format!(
                        "lint.toml:{}: section `[{header}]` must be `[rule.XXX]` or `[{DETERMINISM}]`",
                        n + 1
                    )
                })?;
            section = Some(rule.to_string());
            config.sections.entry(rule.to_string()).or_default();
            continue;
        }
        if line.contains('|') {
            entries.push(allowlist::parse_entry(line, n + 1)?);
            continue;
        }
        if let Some((key, values)) = line.split_once('=') {
            let Some(rule) = &section else {
                return Err(format!(
                    "lint.toml:{}: `key = values` outside any section",
                    n + 1
                ));
            };
            let key = key.trim();
            if matches!(rule.as_str(), "D001" | "D003") && matches!(key, "roots" | "crates") {
                // A per-rule copy would be silently ignored.
                return Err(format!(
                    "lint.toml:{}: D001/D003 `{key}` live in the shared [{DETERMINISM}] section",
                    n + 1
                ));
            }
            let values: Vec<String> = values
                .split(',')
                .map(str::trim)
                .filter(|v| !v.is_empty())
                .map(str::to_string)
                .collect();
            config
                .sections
                .get_mut(rule)
                .expect("section inserted at header")
                .insert(key.to_string(), values);
            continue;
        }
        return Err(format!(
            "lint.toml:{}: expected a section header, `key = values`, or a \
             `RULE | file | substring | reason` allowlist line",
            n + 1
        ));
    }
    allowlist::check_duplicates(&entries)?;
    Ok((config, entries))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sections_and_allowlist_coexist() {
        let text = "\
# comment
[determinism]
roots = pagerank, ProfileGraph::build
crates = core

[rule.D002]
exempt_crates = obs, bench

L004 | crates/core/src/graph.rs | nodes[ix(id)] | audited accessor
";
        let (cfg, entries) = parse(text).unwrap();
        assert_eq!(
            cfg.list(DETERMINISM, "roots"),
            ["pagerank", "ProfileGraph::build"]
        );
        assert!(cfg.contains("D002", "exempt_crates", "obs"));
        assert!(!cfg.contains("D002", "exempt_crates", "core"));
        assert_eq!(entries.len(), 1);
        assert_eq!(entries[0].rule, "L004");
    }

    #[test]
    fn malformed_lines_are_rejected() {
        assert!(parse("[wrong-section]\n").is_err());
        assert!(parse("key = value\n").is_err()); // outside a section
        assert!(parse("free text\n").is_err());
        assert!(parse("L001 | a | b\n").is_err()); // 3 fields
        assert!(parse("[rule.D003]\nroots = pagerank\n").is_err()); // shared section
    }

    #[test]
    fn missing_keys_read_as_empty() {
        let (cfg, _) = parse("[rule.D004]\n").unwrap();
        assert!(cfg.list("D004", "roots").is_empty());
        assert!(cfg.list("P001", "root_crates").is_empty());
    }
}
