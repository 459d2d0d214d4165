//! The rule set. Per-file rules are token-level checks over masked
//! source (comments and literal bodies blanked — see [`crate::source`]),
//! sharpened by the brace-matched item tree ([`crate::items`]) so a rule
//! knows *where* a token sits: inside which fn, behind which
//! `#[cfg(test)]`, in which signature.

use std::collections::BTreeSet;
use std::path::Path;

use crate::source::{Directive, MaskedSource};
use crate::{FileClass, Violation};

/// Identifier of a lint rule.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Rule {
    /// Wall-clock / entropy / unordered containers in engine-path crates.
    Determinism,
    /// `unwrap()` / `expect(` / `panic!` in library code.
    PanicHygiene,
    /// `==` / `!=` against a float literal.
    FloatCmp,
    /// Crate roots must carry `#![forbid(unsafe_code)]`.
    ForbidUnsafe,
    /// No allocation constructors inside `// simlint: hot-path` fences
    /// in `netsim` and `transports` (the per-event and per-ACK paths).
    HotPathAlloc,
    /// No shared-mutability primitives in DETERMINISM_CRATES: the
    /// planned sharded engine may only communicate via messages.
    SharedMut,
    /// Only the engine's own enqueue helpers may push to the event heap;
    /// everything else goes through the public `Ctx` API so the
    /// `(time, seq)` tie-break survives.
    EventOrder,
    /// Public fn signatures must use the time/rate newtypes instead of
    /// raw `u64`/`f64` where the parameter name says it is one.
    UnitSafety,
    /// No hand-rolled `TIMER_RTO` arm/service blocks outside
    /// `transports::common` (locks in the PR 4 dedupe).
    RtoCommon,
    /// `assert!` / `debug_assert!` in determinism crates must carry a
    /// message string: a bare boolean tells a crash report nothing.
    AssertMsg,
    /// An `allow(...)` pragma that suppresses nothing is itself a
    /// violation, so dead pragmas cannot pile up.
    PragmaHygiene,
    /// Paper constants must match DESIGN.md (checked workspace-wide).
    PaperConstants,
    /// Every `TraceEvent` variant must have a JSONL encoder arm
    /// (checked workspace-wide).
    TraceSchema,
}

/// Every per-file rule, in execution order. `pragma_hygiene` must run
/// last: it audits the suppressions the other rules recorded.
pub const ALL_RULES: &[Rule] = &[
    Rule::Determinism,
    Rule::PanicHygiene,
    Rule::FloatCmp,
    Rule::ForbidUnsafe,
    Rule::HotPathAlloc,
    Rule::SharedMut,
    Rule::EventOrder,
    Rule::UnitSafety,
    Rule::RtoCommon,
    Rule::AssertMsg,
    Rule::PragmaHygiene,
];

/// The complete rule table (per-file + workspace-level), for
/// `--list-rules` and the DESIGN.md §12 sync check.
pub const RULE_TABLE: &[Rule] = &[
    Rule::Determinism,
    Rule::PanicHygiene,
    Rule::FloatCmp,
    Rule::ForbidUnsafe,
    Rule::HotPathAlloc,
    Rule::SharedMut,
    Rule::EventOrder,
    Rule::UnitSafety,
    Rule::RtoCommon,
    Rule::AssertMsg,
    Rule::PragmaHygiene,
    Rule::PaperConstants,
    Rule::TraceSchema,
];

impl Rule {
    /// Stable rule id used in output and `allow(...)` pragmas.
    pub fn id(self) -> &'static str {
        match self {
            Rule::Determinism => "determinism",
            Rule::PanicHygiene => "panic_hygiene",
            Rule::FloatCmp => "float_cmp",
            Rule::ForbidUnsafe => "forbid_unsafe",
            Rule::HotPathAlloc => "hot_path_alloc",
            Rule::SharedMut => "shared_mut",
            Rule::EventOrder => "event_order",
            Rule::UnitSafety => "unit_safety",
            Rule::RtoCommon => "rto_common",
            Rule::AssertMsg => "assert_msg",
            Rule::PragmaHygiene => "pragma_hygiene",
            Rule::PaperConstants => "paper_constants",
            Rule::TraceSchema => "trace_schema",
        }
    }

    /// Resolve a rule id (as written in an `allow(...)` pragma).
    pub fn from_id(id: &str) -> Option<Rule> {
        RULE_TABLE.iter().copied().find(|r| r.id() == id)
    }

    /// One-line description for `--list-rules`.
    pub fn describe(self) -> &'static str {
        match self {
            Rule::Determinism => {
                "no wall-clock/entropy sources or unordered containers in engine-path crates"
            }
            Rule::PanicHygiene => "no unwrap()/expect()/panic! in library code",
            Rule::FloatCmp => "no ==/!= against a floating-point literal",
            Rule::ForbidUnsafe => "every crate root carries #![forbid(unsafe_code)]",
            Rule::HotPathAlloc => {
                "no allocation constructors inside hot-path fences in netsim and transports"
            }
            Rule::SharedMut => {
                "no shared-mutability primitives in determinism crates; shards talk via messages"
            }
            Rule::EventOrder => {
                "only engine enqueue helpers push the event heap; the (time, seq) tie-break is sacred"
            }
            Rule::UnitSafety => {
                "public fns take SimTime/SimDuration/Rate newtypes, not raw u64/f64 time or rate"
            }
            Rule::RtoCommon => {
                "no hand-rolled TIMER_RTO handling outside transports::common"
            }
            Rule::AssertMsg => {
                "assert!/debug_assert! in determinism crates carry a message naming the invariant"
            }
            Rule::PragmaHygiene => "an allow(...) pragma that suppresses nothing is a violation",
            Rule::PaperConstants => "paper constants match DESIGN.md (lambda pair, EWD ACK ratio)",
            Rule::TraceSchema => "every TraceEvent variant has a kind() arm and a JSONL encoder arm",
        }
    }

    /// Run this rule over one masked file.
    pub fn check(self, rel_path: &str, class: FileClass, src: &MaskedSource, f: &mut Findings) {
        match self {
            Rule::Determinism => check_determinism(rel_path, class, src, f),
            Rule::PanicHygiene => check_panic_hygiene(rel_path, class, src, f),
            Rule::FloatCmp => check_float_cmp(rel_path, class, src, f),
            Rule::ForbidUnsafe => check_forbid_unsafe(rel_path, class, src, f),
            Rule::HotPathAlloc => check_hot_path_alloc(rel_path, class, src, f),
            Rule::SharedMut => check_shared_mut(rel_path, class, src, f),
            Rule::EventOrder => check_event_order(rel_path, class, src, f),
            Rule::UnitSafety => check_unit_safety(rel_path, class, src, f),
            Rule::RtoCommon => check_rto_common(rel_path, class, src, f),
            Rule::AssertMsg => check_assert_msg(rel_path, class, src, f),
            Rule::PragmaHygiene => check_pragma_hygiene(rel_path, class, src, f),
            Rule::PaperConstants | Rule::TraceSchema => {}
        }
    }
}

/// Violations accumulated over one file, plus which `allow(...)` pragma
/// entries actually suppressed something — `pragma_hygiene` audits the
/// rest.
#[derive(Default)]
pub struct Findings {
    pub violations: Vec<Violation>,
    used_allows: BTreeSet<(usize, String)>,
}

impl Findings {
    pub fn new() -> Self {
        Self::default()
    }

    fn push(
        &mut self,
        src: &MaskedSource,
        rel_path: &str,
        line_no: usize,
        rule: Rule,
        message: String,
    ) {
        if let Some(pragma_line) = src.allow_pragma_line(line_no, rule.id()) {
            self.used_allows.insert((pragma_line, rule.id().to_owned()));
            return;
        }
        self.violations.push(Violation { file: rel_path.to_owned(), line: line_no, rule, message });
    }
}

fn is_ident_char(c: char) -> bool {
    c.is_alphanumeric() || c == '_'
}

/// Find `needle` in `line` at identifier boundaries (the char before the
/// match and the char after must not be identifier characters).
fn token_positions(line: &str, needle: &str) -> Vec<usize> {
    let mut found = Vec::new();
    let mut from = 0;
    while let Some(pos) = line[from..].find(needle) {
        let at = from + pos;
        let before_ok = line[..at].chars().next_back().is_none_or(|c| !is_ident_char(c));
        let after_ok = line[at + needle.len()..].chars().next().is_none_or(|c| !is_ident_char(c));
        if before_ok && after_ok {
            found.push(at);
        }
        from = at + needle.len();
    }
    found
}

/// Is there an identifier `name` immediately followed (modulo spaces) by
/// `next_ch` on this line? Used for `unwrap(` / `expect(` / `panic!`.
fn ident_followed_by(line: &str, name: &str, next_ch: char) -> bool {
    let mut from = 0;
    while let Some(pos) = line[from..].find(name) {
        let at = from + pos;
        let before_ok = line[..at].chars().next_back().is_none_or(|c| !is_ident_char(c));
        let rest = &line[at + name.len()..];
        let follows = rest.trim_start().starts_with(next_ch);
        let boundary = rest.chars().next().is_none_or(|c| !is_ident_char(c));
        if before_ok && boundary && follows {
            return true;
        }
        from = at + name.len();
    }
    false
}

/// Tokens that leak wall-clock time or process entropy into results,
/// plus the unordered containers whose iteration order is per-process.
const NONDETERMINISM_TOKENS: &[(&str, &str)] = &[
    ("Instant", "std::time::Instant reads the wall clock"),
    ("SystemTime", "std::time::SystemTime reads the wall clock"),
    ("thread_rng", "thread_rng draws process entropy"),
    ("from_entropy", "from_entropy draws process entropy"),
    ("HashMap", "HashMap iteration order is per-process; use BTreeMap"),
    ("HashSet", "HashSet iteration order is per-process; use BTreeSet"),
];

fn check_determinism(rel_path: &str, class: FileClass, src: &MaskedSource, f: &mut Findings) {
    if !class.in_determinism_scope {
        return;
    }
    for (idx, line) in src.lines.iter().enumerate() {
        let line_no = idx + 1;
        if src.is_test(line_no) {
            continue;
        }
        for &(tok, why) in NONDETERMINISM_TOKENS {
            if !token_positions(line, tok).is_empty() {
                f.push(src, rel_path, line_no, Rule::Determinism, format!("`{tok}`: {why}"));
            }
        }
    }
}

fn check_panic_hygiene(rel_path: &str, class: FileClass, src: &MaskedSource, f: &mut Findings) {
    if !class.is_library {
        return;
    }
    for (idx, line) in src.lines.iter().enumerate() {
        let line_no = idx + 1;
        if src.is_test(line_no) {
            continue;
        }
        if ident_followed_by(line, "unwrap", '(') {
            f.push(
                src,
                rel_path,
                line_no,
                Rule::PanicHygiene,
                "unwrap() in library code; handle the None/Err or annotate why it cannot occur"
                    .into(),
            );
        }
        if ident_followed_by(line, "expect", '(') {
            f.push(
                src,
                rel_path,
                line_no,
                Rule::PanicHygiene,
                "expect() in library code; handle the None/Err or annotate why it cannot occur"
                    .into(),
            );
        }
        if ident_followed_by(line, "panic", '!') {
            f.push(
                src,
                rel_path,
                line_no,
                Rule::PanicHygiene,
                "panic! in library code; return an error or annotate the invariant".into(),
            );
        }
    }
}

/// A float literal token: starts with a digit, contains a `.` between
/// digits (`1.0`, `0.17`, `1_000.5`) or carries an f32/f64 suffix.
fn is_float_literal(tok: &str) -> bool {
    if tok.is_empty() || !tok.starts_with(|c: char| c.is_ascii_digit()) {
        return false;
    }
    let has_dot = tok.contains('.');
    let has_suffix = tok.ends_with("f32") || tok.ends_with("f64");
    let body: String =
        tok.trim_end_matches("f32").trim_end_matches("f64").chars().filter(|&c| c != '_').collect();
    if !(has_dot || has_suffix) {
        return false;
    }
    body.chars().all(|c| c.is_ascii_digit() || c == '.' || c == 'e' || c == '-')
}

/// The token just right of byte position `at` in `line`.
fn token_right(line: &str, at: usize) -> String {
    line[at..].trim_start().chars().take_while(|&c| is_ident_char(c) || c == '.').collect()
}

/// The token just left of byte position `at` in `line`.
fn token_left(line: &str, at: usize) -> String {
    let left = line[..at].trim_end();
    let rev: String = left.chars().rev().take_while(|&c| is_ident_char(c) || c == '.').collect();
    rev.chars().rev().collect()
}

fn check_float_cmp(rel_path: &str, class: FileClass, src: &MaskedSource, f: &mut Findings) {
    if !class.is_library {
        return;
    }
    for (idx, line) in src.lines.iter().enumerate() {
        let line_no = idx + 1;
        if src.is_test(line_no) {
            continue;
        }
        let bytes = line.as_bytes();
        for i in 0..bytes.len().saturating_sub(1) {
            let two = &line[i..(i + 2).min(line.len())];
            let is_eq = two == "==" || two == "!=";
            if !is_eq {
                continue;
            }
            // Exclude <=, >=, ===, =>, pattern arms and compound ops.
            let prev = line[..i].chars().next_back();
            let next = line[i + 2..].chars().next();
            if matches!(
                prev,
                Some('<' | '>' | '=' | '!' | '+' | '-' | '*' | '/' | '%' | '&' | '|' | '^')
            ) || matches!(next, Some('='))
            {
                continue;
            }
            let lhs = token_left(line, i);
            let rhs = token_right(line, i + 2);
            if is_float_literal(&lhs) || is_float_literal(&rhs) {
                f.push(
                    src,
                    rel_path,
                    line_no,
                    Rule::FloatCmp,
                    format!(
                        "float compared with `{two}` (`{}` {two} `{}`); use an epsilon or integer representation",
                        if lhs.is_empty() { "…" } else { &lhs },
                        if rhs.is_empty() { "…" } else { &rhs },
                    ),
                );
            }
        }
    }
}

fn check_forbid_unsafe(rel_path: &str, class: FileClass, src: &MaskedSource, f: &mut Findings) {
    if !class.is_crate_root {
        return;
    }
    let compact: String = src.masked.chars().filter(|c| !c.is_whitespace()).collect();
    if !compact.contains("#![forbid(unsafe_code)]") {
        f.push(
            src,
            rel_path,
            1,
            Rule::ForbidUnsafe,
            "crate root is missing `#![forbid(unsafe_code)]`".into(),
        );
    }
}

/// Allocation constructors that must not appear on the per-event engine
/// path or the per-ACK sender path: each would hit the global allocator
/// once per simulated event. The pool / scratch-buffer reuse in
/// `engine.rs` and the in-place scoreboard of `tcp_base.rs` exist
/// precisely to avoid these; this rule keeps later edits from quietly
/// regressing them.
fn hot_path_alloc_hit(line: &str) -> Option<&'static str> {
    if !token_positions(line, "Box::new").is_empty() {
        return Some("Box::new");
    }
    if !token_positions(line, "Vec::new").is_empty() {
        return Some("Vec::new");
    }
    if ident_followed_by(line, "vec", '!') {
        return Some("vec!");
    }
    if ident_followed_by(line, "to_vec", '(') {
        return Some("to_vec()");
    }
    None
}

fn check_hot_path_alloc(rel_path: &str, class: FileClass, src: &MaskedSource, f: &mut Findings) {
    let fenced_crate =
        ["crates/netsim/", "crates/transports/"].iter().any(|c| rel_path.starts_with(c));
    if !fenced_crate || !class.is_library {
        return;
    }
    // Fence markers are pragmas (parsed from real comments only — a
    // string literal containing the marker text cannot open a fence).
    let mut fences = src
        .pragmas
        .iter()
        .filter(|p| matches!(p.directive, Directive::HotPathOpen | Directive::HotPathClose));
    let mut next_fence = fences.next();
    let mut fence_open_at: Option<usize> = None;
    for (idx, _) in src.lines.iter().enumerate() {
        let line_no = idx + 1;
        if let Some(p) = next_fence {
            if p.line == line_no {
                fence_open_at = match p.directive {
                    Directive::HotPathOpen => Some(line_no),
                    _ => None,
                };
                next_fence = fences.next();
                continue;
            }
        }
        if fence_open_at.is_none() || src.is_test(line_no) {
            continue;
        }
        if let Some(tok) = hot_path_alloc_hit(&src.lines[idx]) {
            f.push(
                src,
                rel_path,
                line_no,
                Rule::HotPathAlloc,
                format!(
                    "`{tok}` allocates inside a hot-path fence; reuse a pooled or scratch buffer"
                ),
            );
        }
    }
    // An unclosed fence is almost certainly a typo'd end marker — and it
    // would silently extend the banned region to end-of-file.
    if let Some(open_line) = fence_open_at {
        f.push(
            src,
            rel_path,
            open_line,
            Rule::HotPathAlloc,
            "hot-path fence is never closed by a hot-path-end marker".into(),
        );
    }
}

/// Shared-mutability primitives: each one lets two shards observe the
/// same memory, which the planned sharded PDES engine forbids (shards
/// exchange messages; merge order is deterministic).
const SHARED_MUT_TOKENS: &[&str] = &[
    "Cell",
    "RefCell",
    "UnsafeCell",
    "OnceCell",
    "LazyCell",
    "Mutex",
    "RwLock",
    "Condvar",
    "OnceLock",
    "LazyLock",
];

/// Any identifier on the line starting with `Atomic` (AtomicU64, …).
fn atomic_ident(line: &str) -> Option<String> {
    let mut chars = line.char_indices().peekable();
    while let Some((i, c)) = chars.next() {
        if !is_ident_char(c) || c.is_ascii_digit() {
            continue;
        }
        if i > 0 && line[..i].chars().next_back().is_some_and(is_ident_char) {
            continue;
        }
        let ident: String = line[i..].chars().take_while(|&c| is_ident_char(c)).collect();
        if ident.starts_with("Atomic") && ident.len() > "Atomic".len() {
            return Some(ident);
        }
        for _ in 1..ident.chars().count() {
            chars.next();
        }
    }
    None
}

fn check_shared_mut(rel_path: &str, class: FileClass, src: &MaskedSource, f: &mut Findings) {
    if !class.in_determinism_scope {
        return;
    }
    for (idx, line) in src.lines.iter().enumerate() {
        let line_no = idx + 1;
        if src.is_test(line_no) {
            continue;
        }
        for &tok in SHARED_MUT_TOKENS {
            if !token_positions(line, tok).is_empty() {
                f.push(
                    src,
                    rel_path,
                    line_no,
                    Rule::SharedMut,
                    format!(
                        "`{tok}` is shared mutable state; shards may only communicate via messages"
                    ),
                );
            }
        }
        if let Some(atomic) = atomic_ident(line) {
            f.push(
                src,
                rel_path,
                line_no,
                Rule::SharedMut,
                format!(
                    "`{atomic}` is shared mutable state; shards may only communicate via messages"
                ),
            );
        }
        for at in token_positions(line, "static") {
            if token_right(line, at + "static".len()) == "mut" {
                f.push(
                    src,
                    rel_path,
                    line_no,
                    Rule::SharedMut,
                    "`static mut` is shared mutable state; shards may only communicate via messages"
                        .into(),
                );
            }
        }
    }
}

/// The file that drives the event loop (and may requeue entries). It is
/// the only netsim module besides `sched.rs` on this list on purpose: the
/// concerns split out of it (`pfc.rs`, `telemetry.rs`, `sanitizer.rs`,
/// `topology.rs`, ...) are `impl Simulator` blocks that reach the queue
/// through `schedule`, so every event's `(time, seq)` key is minted in
/// one place and this rule has one file to read.
const ENGINE_FILE: &str = "crates/netsim/src/engine.rs";
/// The file that owns the queue implementations (heap oracle + calendar).
const SCHED_FILE: &str = "crates/netsim/src/sched.rs";
/// Fns inside `engine.rs` allowed to push the queue: the enqueue helper,
/// and the one that pushes a `TxDone` under the `(time, seq)` key minted
/// for it at transmit time (both keep the seq assignment that makes
/// same-timestamp delivery FIFO).
const ENGINE_PUSH_FNS: &[&str] = &["schedule", "push_tx_done"];
/// Fns inside `sched.rs` allowed to push: the `EventQueue::push`
/// implementations plus the internal redistribution helpers that move
/// entries between tiers without minting new `(time, seq)` keys.
const SCHED_PUSH_FNS: &[&str] = &["push", "promote", "rewind"];

fn check_event_order(rel_path: &str, class: FileClass, src: &MaskedSource, f: &mut Findings) {
    if !class.in_determinism_scope {
        return;
    }
    // Which fns (if any) in this file are sanctioned event-queue pushers.
    let sanctioned: Option<&[&str]> = if rel_path == ENGINE_FILE {
        Some(ENGINE_PUSH_FNS)
    } else if rel_path == SCHED_FILE {
        Some(SCHED_PUSH_FNS)
    } else {
        None
    };
    for (idx, line) in src.lines.iter().enumerate() {
        let line_no = idx + 1;
        if src.is_test(line_no) {
            continue;
        }
        if sanctioned.is_none() {
            for tok in ["BinaryHeap", "QEntry"] {
                if !token_positions(line, tok).is_empty() {
                    f.push(
                        src,
                        rel_path,
                        line_no,
                        Rule::EventOrder,
                        format!(
                            "`{tok}` outside the scheduler core: the event queue and its (time, seq) tie-break live in netsim's sched/engine; schedule via the Ctx API"
                        ),
                    );
                }
            }
        }
        for tok in ["heap.push", "queue.push"] {
            if token_positions(line, tok).is_empty() {
                continue;
            }
            let fn_name = src.items.enclosing_fn(line_no).map(|i| i.name.as_str());
            let allowed = sanctioned.is_some_and(|fns| fn_name.is_some_and(|n| fns.contains(&n)));
            if !allowed {
                f.push(
                    src,
                    rel_path,
                    line_no,
                    Rule::EventOrder,
                    format!(
                        "direct event-queue push in `{}`: only the scheduler core's sanctioned fns (engine: {}; sched: {}) may push, so every event gets its (time, seq) tie-break",
                        fn_name.unwrap_or("<file scope>"),
                        ENGINE_PUSH_FNS.join("/"),
                        SCHED_PUSH_FNS.join("/"),
                    ),
                );
            }
        }
    }
}

/// Files that *define* the unit newtypes are exempt from `unit_safety`
/// (their constructors necessarily take the raw representation).
const UNIT_SAFETY_EXEMPT: &[&str] = &["crates/netsim/src/time.rs", "crates/netsim/src/units.rs"];

/// Map a raw-typed parameter name to the newtype it should be using.
fn unit_suggestion(name: &str) -> Option<&'static str> {
    const TIME_SUFFIXES: &[&str] = &["_ns", "_us", "_ms", "_nanos", "_micros", "_millis", "_secs"];
    const TIME_EXACT: &[&str] =
        &["at", "now", "rtt", "deadline", "timeout", "interval", "delay", "elapsed"];
    const RATE_SUFFIXES: &[&str] = &["_bps", "_mbps", "_gbps"];
    if TIME_SUFFIXES.iter().any(|s| name.ends_with(s)) || TIME_EXACT.contains(&name) {
        return Some("netsim::time::SimTime / SimDuration");
    }
    if RATE_SUFFIXES.iter().any(|s| name.ends_with(s)) || name == "rate" {
        return Some("netsim::units::Rate");
    }
    None
}

fn check_unit_safety(rel_path: &str, class: FileClass, src: &MaskedSource, f: &mut Findings) {
    if !class.is_library || UNIT_SAFETY_EXEMPT.contains(&rel_path) {
        return;
    }
    let in_scope = ["crates/netsim/", "crates/core/", "crates/transports/"]
        .iter()
        .any(|p| rel_path.starts_with(p));
    if !in_scope {
        return;
    }
    for item in src.items.fns() {
        if !item.is_pub || item.cfg_test || src.is_test(item.decl_line) {
            continue;
        }
        for p in &item.params {
            if p.ty != "u64" && p.ty != "f64" {
                continue;
            }
            if let Some(suggest) = unit_suggestion(&p.name) {
                f.push(
                    src,
                    rel_path,
                    item.decl_line,
                    Rule::UnitSafety,
                    format!(
                        "pub fn `{}` takes `{}: {}`; use `{suggest}` so the unit is type-checked",
                        item.name, p.name, p.ty
                    ),
                );
            }
        }
    }
}

/// Files allowed to arm/service RTO timers directly: `common.rs` owns
/// the shared machinery; `tcp_base.rs` owns the per-flow state machine
/// it drives.
const RTO_OWNER_FILES: &[&str] =
    &["crates/transports/src/common.rs", "crates/transports/src/tcp_base.rs"];

fn check_rto_common(rel_path: &str, class: FileClass, src: &MaskedSource, f: &mut Findings) {
    if !rel_path.starts_with("crates/transports/src/")
        || !class.is_library
        || RTO_OWNER_FILES.contains(&rel_path)
    {
        return;
    }
    for (idx, line) in src.lines.iter().enumerate() {
        let line_no = idx + 1;
        if src.is_test(line_no) {
            continue;
        }
        if ident_followed_by(line, "rto_token", '(') {
            f.push(
                src,
                rel_path,
                line_no,
                Rule::RtoCommon,
                "hand-rolled RTO token; arm the timer via transports::common::arm_rto".into(),
            );
        }
        if line.contains(".on_rto(") {
            f.push(
                src,
                rel_path,
                line_no,
                Rule::RtoCommon,
                "direct on_rto call skips the stale-generation check; use transports::common::service_rto"
                    .into(),
            );
        }
        let trimmed = line.trim_start();
        let is_use_line = trimmed.starts_with("use ") || trimmed.starts_with("pub use ");
        for at in token_positions(line, "TIMER_RTO") {
            if is_use_line {
                continue;
            }
            let right = line[at + "TIMER_RTO".len()..].trim_start();
            let left = line[..at].trim_end();
            let in_match_arm = right.starts_with("=>");
            let in_comparison = right.starts_with("==")
                || right.starts_with("!=")
                || left.ends_with("==")
                || left.ends_with("!=");
            if !(in_match_arm || in_comparison) {
                f.push(
                    src,
                    rel_path,
                    line_no,
                    Rule::RtoCommon,
                    "hand-rolled TIMER_RTO handling; route through transports::common::{arm_rto, service_rto}"
                        .into(),
                );
            }
        }
    }
}

/// Does the `assert!`-family invocation opening right of `(line_idx,
/// from)` carry a message string? Scans the masked lines from the
/// macro's own delimiter, tracking bracket depth; a message is present
/// iff a `"` appears after a depth-1 comma (masking keeps the quote
/// delimiters, so a string literal anywhere in the trailing arguments —
/// plain or format — is visible as its quotes). `assert_eq!`-style
/// two-argument macros never reach here: the caller token-matches only
/// `assert` / `debug_assert` at identifier boundaries.
fn assert_has_message(lines: &[String], line_idx: usize, from: usize) -> bool {
    let mut depth = 0i32;
    let mut opened = false;
    let mut past_first_comma = false;
    for (li, line) in lines.iter().enumerate().skip(line_idx) {
        let text = if li == line_idx { &line[from..] } else { line.as_str() };
        for c in text.chars() {
            match c {
                '(' | '[' | '{' => {
                    depth += 1;
                    opened = true;
                }
                ')' | ']' | '}' => {
                    depth -= 1;
                    if opened && depth == 0 {
                        return false;
                    }
                }
                ',' if depth == 1 => past_first_comma = true,
                '"' if past_first_comma => return true,
                _ => {}
            }
        }
        // The macro bang was never followed by a delimiter on this or
        // the starting line: nothing to scan.
        if !opened && li > line_idx {
            return false;
        }
    }
    false
}

fn check_assert_msg(rel_path: &str, class: FileClass, src: &MaskedSource, f: &mut Findings) {
    if !class.in_determinism_scope {
        return;
    }
    for (idx, line) in src.lines.iter().enumerate() {
        let line_no = idx + 1;
        if src.is_test(line_no) {
            continue;
        }
        for name in ["assert", "debug_assert"] {
            for at in token_positions(line, name) {
                let after = at + name.len();
                if !line[after..].trim_start().starts_with('!') {
                    continue;
                }
                if !assert_has_message(&src.lines, idx, after) {
                    f.push(
                        src,
                        rel_path,
                        line_no,
                        Rule::AssertMsg,
                        format!(
                            "`{name}!` without a message; say which invariant broke (and with what values)"
                        ),
                    );
                }
            }
        }
    }
}

fn check_pragma_hygiene(rel_path: &str, _class: FileClass, src: &MaskedSource, f: &mut Findings) {
    for p in &src.pragmas {
        if src.is_test(p.line) {
            continue;
        }
        match &p.directive {
            Directive::Allow(rules) => {
                for r in rules {
                    // `allow(pragma_hygiene)` is the documented escape
                    // hatch for keeping a currently-unused pragma.
                    if r == Rule::PragmaHygiene.id() {
                        continue;
                    }
                    if Rule::from_id(r).is_none() {
                        f.push(
                            src,
                            rel_path,
                            p.line,
                            Rule::PragmaHygiene,
                            format!("`allow({r})`: unknown rule id"),
                        );
                    } else if !f.used_allows.contains(&(p.line, r.clone())) {
                        f.push(
                            src,
                            rel_path,
                            p.line,
                            Rule::PragmaHygiene,
                            format!("`allow({r})` suppresses nothing; remove the stale pragma"),
                        );
                    }
                }
            }
            Directive::Unknown(text) => {
                f.push(
                    src,
                    rel_path,
                    p.line,
                    Rule::PragmaHygiene,
                    format!("unknown simlint directive `{text}`"),
                );
            }
            Directive::HotPathOpen | Directive::HotPathClose => {}
        }
    }
}

/// Parse `pub const NAME: ty = value;` out of masked-free raw text.
fn const_value(text: &str, name: &str) -> Option<f64> {
    let pos = text.find(&format!("const {name}:"))?;
    let rest = &text[pos..];
    let eq = rest.find('=')?;
    let semi = rest.find(';')?;
    if semi <= eq {
        return None;
    }
    let value_text: String =
        rest[eq + 1..semi].chars().filter(|&c| c.is_ascii_digit() || c == '.').collect();
    value_text.parse().ok()
}

/// Rule `paper_constants`: λ_LCP = 0.1 < λ_HCP = 0.17 (Eq. 3 of the
/// paper, encoded in `crates/core/src/ecn.rs`) and the EWD receiver's
/// 1-low-priority-ACK-per-2-LCP-packets constant
/// (`LCP_PACKETS_PER_ACK = 2` in `crates/core/src/lcp.rs`), both of
/// which DESIGN.md documents as normative.
pub fn check_paper_constants(root: &Path, out: &mut Vec<Violation>) {
    let ecn_path = "crates/core/src/ecn.rs";
    let lcp_path = "crates/core/src/lcp.rs";
    let mut fail = |file: &str, message: String| {
        out.push(Violation { file: file.to_owned(), line: 1, rule: Rule::PaperConstants, message });
    };

    match std::fs::read_to_string(root.join(ecn_path)) {
        Ok(text) => {
            let hi = const_value(&text, "LAMBDA_HIGH");
            let lo = const_value(&text, "LAMBDA_LOW");
            match (hi, lo) {
                (Some(hi), Some(lo)) => {
                    // Integer-scaled comparison: the float_cmp rule applies
                    // to us too.
                    let (hi_m, lo_m) = ((hi * 1000.0) as i64, (lo * 1000.0) as i64);
                    if hi_m != 170 {
                        fail(ecn_path, format!("LAMBDA_HIGH = {hi}, paper Eq. 3 requires 0.17"));
                    }
                    if lo_m != 100 {
                        fail(ecn_path, format!("LAMBDA_LOW = {lo}, paper Eq. 3 requires 0.1"));
                    }
                    if lo_m >= hi_m {
                        fail(
                            ecn_path,
                            format!("LAMBDA_LOW ({lo}) must stay below LAMBDA_HIGH ({hi})"),
                        );
                    }
                }
                _ => fail(ecn_path, "LAMBDA_HIGH / LAMBDA_LOW constants not found".into()),
            }
        }
        Err(e) => fail(ecn_path, format!("unreadable: {e}")),
    }

    match std::fs::read_to_string(root.join(lcp_path)) {
        Ok(text) => match const_value(&text, "LCP_PACKETS_PER_ACK") {
            Some(v) => {
                if v as i64 != 2 {
                    fail(
                        lcp_path,
                        format!("LCP_PACKETS_PER_ACK = {v}, EWD requires 1 ACK per 2 LCP packets"),
                    );
                }
            }
            None => fail(lcp_path, "LCP_PACKETS_PER_ACK constant not found".into()),
        },
        Err(e) => fail(lcp_path, format!("unreadable: {e}")),
    }

    // PptConfig's defaults must be wired to the named ecn constants, not
    // re-encoded as literals that could drift independently.
    let cfg_path = "crates/core/src/config.rs";
    match std::fs::read_to_string(root.join(cfg_path)) {
        Ok(text) => {
            let masked = MaskedSource::new(&text);
            for name in ["LAMBDA_HIGH", "LAMBDA_LOW"] {
                let referenced =
                    masked.lines.iter().enumerate().any(|(i, l)| {
                        !masked.is_test(i + 1) && !token_positions(l, name).is_empty()
                    });
                if !referenced {
                    fail(
                        cfg_path,
                        format!("PptConfig must derive its lambda defaults from ecn::{name}"),
                    );
                }
            }
        }
        Err(e) => fail(cfg_path, format!("unreadable: {e}")),
    }
}

/// Rule `trace_schema`: every variant of the `TraceEvent` enum must have
/// a matching `TraceEvent::<Variant>` encoder arm inside `encode_into`
/// (`crates/trace/src/event.rs`), the one encoder every JSONL stream goes
/// through. A variant without an arm would compile fine — the match is
/// total only because the rustc exhaustiveness check covers the *enum*,
/// not the JSONL schema — but its events would be missing from every
/// events.jsonl on disk.
pub fn check_trace_schema(root: &Path, out: &mut Vec<Violation>) {
    let path = "crates/trace/src/event.rs";
    let mut fail = |line: usize, message: String| {
        out.push(Violation { file: path.to_owned(), line, rule: Rule::TraceSchema, message });
    };
    let text = match std::fs::read_to_string(root.join(path)) {
        Ok(t) => t,
        Err(e) => {
            fail(1, format!("unreadable: {e}"));
            return;
        }
    };
    let masked = MaskedSource::new(&text);

    // Variants: lines at brace depth 1 inside `pub enum TraceEvent`
    // starting with an uppercase identifier.
    let mut variants: Vec<(usize, String)> = Vec::new();
    let mut in_enum = false;
    let mut depth = 0i32;
    for (idx, line) in masked.lines.iter().enumerate() {
        if !in_enum {
            if line.contains("enum") && !token_positions(line, "TraceEvent").is_empty() {
                in_enum = true;
                depth = 0;
            } else {
                continue;
            }
        } else if depth == 1 {
            let trimmed = line.trim_start();
            if trimmed.starts_with(|c: char| c.is_ascii_uppercase()) {
                let name: String = trimmed.chars().take_while(|&c| is_ident_char(c)).collect();
                variants.push((idx + 1, name));
            }
        }
        for c in line.chars() {
            match c {
                '{' => depth += 1,
                '}' => depth -= 1,
                _ => {}
            }
        }
        if depth == 0 && line.contains('}') {
            break;
        }
    }
    if variants.is_empty() {
        fail(1, "no `pub enum TraceEvent` variants found".into());
        return;
    }

    // Brace-counted body of a named fn: from the first line holding
    // `needle` as whole tokens (so `fn encode_into` is not
    // `fn encode_into_text`) until depth returns to zero. Works for free fns
    // and for methods nested inside an impl block.
    let fn_body = |needle: &str| -> Option<&[String]> {
        let start = masked.lines.iter().position(|l| !token_positions(l, needle).is_empty())?;
        let mut depth = 0i32;
        let mut opened = false;
        for (off, line) in masked.lines[start..].iter().enumerate() {
            for c in line.chars() {
                match c {
                    '{' => {
                        depth += 1;
                        opened = true;
                    }
                    '}' => depth -= 1,
                    _ => {}
                }
            }
            if opened && depth == 0 {
                return Some(&masked.lines[start..start + off + 1]);
            }
        }
        Some(&masked.lines[start..])
    };

    // Every variant needs an arm in both halves of the schema: `kind()`
    // (the stable event-kind string, used for filtering and the SAMPLES
    // gallery) and `encode_into` (the JSONL encoder). `Sample`/`Profile`
    // style additions that only patch one of the two are exactly the
    // drift this rule exists to catch.
    for (fn_name, missing_what) in [
        ("fn kind", "kind() arm; its event-kind string would be unnameable"),
        ("fn encode_into", "encoder arm in encode_into; events.jsonl would drop it"),
    ] {
        let Some(body) = fn_body(fn_name) else {
            fail(1, format!("`{fn_name}` not found"));
            continue;
        };
        for (line_no, v) in &variants {
            let needle = format!("TraceEvent::{v}");
            let covered = body.iter().any(|l| !token_positions(l, &needle).is_empty());
            if !covered {
                fail(*line_no, format!("`{needle}` has no {missing_what}"));
            }
        }
    }
}
