//! One source file as the rules see it: the lossless token stream every
//! rule reads, plus the raw lines that finding excerpts and allowlist
//! matching quote.

use crate::lex::{self, Token};

/// A lexed source file.
#[derive(Debug)]
pub struct SourceFile {
    /// Path relative to the workspace root, with forward slashes.
    pub rel: String,
    /// Crate directory name under `crates/` (e.g. `core`, `sim`).
    pub krate: String,
    /// True for binary targets (`src/main.rs`, `src/bin/*`, or any file of
    /// a crate without `src/lib.rs`).
    pub is_bin: bool,
    /// Raw source lines, 0-indexed (line numbers in findings are 1-based).
    pub lines: Vec<String>,
    /// The lossless token stream; trees, items and rules are built on it.
    pub tokens: Vec<Token>,
}

impl SourceFile {
    /// Lex `text` and keep its raw lines.
    pub fn scan(rel: String, krate: String, is_bin: bool, text: &str) -> Self {
        SourceFile {
            rel,
            krate,
            is_bin,
            lines: text.split('\n').map(str::to_string).collect(),
            tokens: lex::lex(text),
        }
    }

    /// The trimmed raw text of 1-based `line` (empty past the end).
    pub fn excerpt(&self, line: usize) -> String {
        self.lines
            .get(line.wrapping_sub(1))
            .map_or_else(String::new, |l| l.trim().to_string())
    }
}
