#![forbid(unsafe_code)]
//! # simlint — in-tree determinism & hygiene static analysis
//!
//! The netsim engine promises bit-reproducible runs; every figure in
//! EXPERIMENTS.md depends on it. This crate is the enforcement arm of
//! that contract: a dependency-free lint pass over the workspace's own
//! sources, run both as a binary (`cargo run -p simlint`) and as a
//! regular `#[test]` so plain `cargo test` keeps the tree clean.
//!
//! It deliberately avoids `syn`/full parsing (the build must work with
//! zero network access). Instead, [`source::MaskedSource`] blanks
//! comment and literal bodies (line structure preserved), and
//! [`items`] builds a brace-matched **item tree** — modules, fns, impl
//! blocks, `use` declarations, with spans, visibility and
//! `#[cfg(test)]` state — over the masked text. Rules are token-level
//! checks that consult the tree to know *where* a token sits, which
//! makes each rule a *conservative heuristic*; see the per-rule docs
//! for exactly what is matched.
//!
//! ## Rules
//!
//! | rule id           | what it enforces |
//! |-------------------|------------------|
//! | `determinism`     | no wall-clock/entropy (`Instant::now`, `SystemTime`, `thread_rng`, `from_entropy`) and no unordered containers (`HashMap`/`HashSet`) in `netsim`, `core`, `transports`, `trace` non-test code |
//! | `panic_hygiene`   | no `unwrap()` / `expect(...)` / `panic!` in library code (binaries, benches and tests may) |
//! | `float_cmp`       | no `==` / `!=` against a floating-point literal |
//! | `forbid_unsafe`   | every crate root starts with `#![forbid(unsafe_code)]` |
//! | `hot_path_alloc`  | no `Box::new` / `Vec::new` / `vec![` / `to_vec()` between hot-path fence pragmas in `netsim` and `transports` library code (the per-event engine path and the per-ACK sender path must reuse pooled/scratch buffers) |
//! | `shared_mut`      | no `static mut`, `Cell`/`RefCell`, `Mutex`/`RwLock`, atomics in the determinism crates — the sharded engine communicates via messages only |
//! | `event_order`     | only the engine's enqueue helpers may push the event heap; the `(time, seq)` FIFO tie-break is engine-internal |
//! | `unit_safety`     | public fns in `netsim`/`core`/`transports` take `SimTime`/`SimDuration`/`Rate` newtypes, not raw `u64`/`f64`, when the parameter name denotes a time or rate |
//! | `rto_common`      | no hand-rolled `TIMER_RTO` arm/service blocks outside `transports::common` |
//! | `assert_msg`      | every `assert!` / `debug_assert!` in the determinism crates carries a message string naming the violated invariant (`assert_eq!`/`assert_ne!` print both operands already and are exempt) |
//! | `pragma_hygiene`  | an `allow(...)` pragma that suppresses nothing (or names an unknown rule/directive) is itself a violation |
//! | `paper_constants` | λ_LCP = 0.1 < λ_HCP = 0.17 (Eq. 3) and the 1-ACK-per-2-LCP-packets constant match DESIGN.md |
//! | `trace_schema`    | every `TraceEvent` variant has a `kind()` arm and a JSONL encoder arm in `encode_into`, the one encoder (`crates/trace/src/event.rs`) |
//!
//! ## Pragmas
//!
//! A violation on a line carrying `// simlint: allow(<rule>)` is
//! suppressed; an *own-line* pragma suppresses the line directly below
//! it (rustfmt splits long lines, so the pragma rides above). Pragmas
//! are recognized only in real comments — pragma-shaped text inside a
//! string literal does nothing. Per-line and per-rule; `allow(all)` is
//! intentionally not supported — name the rule you are overriding. A
//! pragma that suppresses nothing is flagged by `pragma_hygiene`
//! (escape hatch: include `pragma_hygiene` in the same `allow(...)`).
//!
//! ## The gate
//!
//! [`lint_workspace`] is the whole gate: the CLI, `scripts/check.sh` and
//! the `workspace_is_clean` test all run it and fail on any violation.

use std::fmt;
use std::path::{Path, PathBuf};

pub mod items;
pub mod output;
pub mod rules;
pub mod source;
pub mod walk;

pub use items::ItemTree;
pub use rules::{Findings, Rule, ALL_RULES, RULE_TABLE};
pub use source::MaskedSource;

/// One finding.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Violation {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Which rule fired.
    pub rule: Rule,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.rule.id(), self.message)
    }
}

/// How a file participates in the rule set.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct FileClass {
    /// Crate directory name under `crates/` (e.g. "netsim"), if any.
    pub in_determinism_scope: bool,
    /// Library (non-bin, non-test, non-bench, non-example) source.
    pub is_library: bool,
    /// Crate root (`src/lib.rs`, or `src/main.rs` for pure binaries).
    pub is_crate_root: bool,
}

/// Crates whose non-test code must be free of wall-clock randomness and
/// unordered-container iteration (the simulation result path).
pub const DETERMINISM_CRATES: &[&str] = &["netsim", "core", "transports", "trace"];

/// Classify a workspace-relative path (forward slashes).
pub fn classify(rel_path: &str) -> FileClass {
    let parts: Vec<&str> = rel_path.split('/').collect();
    let crate_name = if parts.len() >= 2 && parts[0] == "crates" { Some(parts[1]) } else { None };
    let under_src = parts.len() >= 3 && parts.get(2) == Some(&"src");
    let is_bin = rel_path.contains("/src/bin/") || rel_path.ends_with("/main.rs");
    let is_library = under_src && !is_bin;
    let is_crate_root =
        under_src && parts.len() == 4 && (parts[3] == "lib.rs" || parts[3] == "main.rs");
    let in_determinism_scope =
        is_library && crate_name.is_some_and(|c| DETERMINISM_CRATES.contains(&c));
    FileClass { in_determinism_scope, is_library, is_crate_root }
}

/// Lint a single file's contents. `rel_path` is the workspace-relative
/// path used both for scoping and reporting.
pub fn lint_source(rel_path: &str, content: &str) -> Vec<Violation> {
    let class = classify(rel_path);
    let masked = MaskedSource::new(content);
    let mut findings = Findings::new();
    for rule in ALL_RULES {
        rule.check(rel_path, class, &masked, &mut findings);
    }
    findings.violations
}

/// Lint every workspace source file under `root`, plus the cross-file
/// paper-constant checks. Output is sorted (file, line, rule, message)
/// so reports are deterministic. The tree passes iff this is empty.
pub fn lint_workspace(root: &Path) -> Result<Vec<Violation>, String> {
    let mut files = walk::rust_sources(&root.join("crates"))?;
    files.sort();
    let mut out = Vec::new();
    for path in &files {
        let rel = relative_to(path, root);
        let content =
            std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        out.extend(lint_source(&rel, &content));
    }
    rules::check_paper_constants(root, &mut out);
    rules::check_trace_schema(root, &mut out);
    output::sort_violations(&mut out);
    Ok(out)
}

fn relative_to(path: &Path, root: &Path) -> String {
    let rel: PathBuf = path.strip_prefix(root).unwrap_or(path).to_path_buf();
    // Normalize to forward slashes for stable reporting across hosts.
    rel.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

/// Locate the workspace root from a starting directory by looking for
/// the top-level `Cargo.toml` containing `[workspace]`.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start.to_path_buf());
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d);
            }
        }
        dir = d.parent().map(|p| p.to_path_buf());
    }
    None
}
