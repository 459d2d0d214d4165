//! Fixture-driven proof that each rule fires on a violation and is
//! suppressed by its `// simlint: allow(<rule>)` pragma — plus the gate
//! test that keeps the real workspace clean.

use std::path::Path;

use simlint::{classify, lint_source, Baseline, Rule};

fn fixture(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("fixtures").join(name);
    std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("fixture {} unreadable: {e}", path.display()))
}

fn lines_for(violations: &[simlint::Violation], rule: Rule) -> Vec<usize> {
    violations.iter().filter(|v| v.rule == rule).map(|v| v.line).collect()
}

#[test]
fn determinism_rule_fires_and_respects_pragma() {
    let src = fixture("determinism.rs");
    // In scope: a library file of an engine-path crate.
    let v = lint_source("crates/netsim/src/fixture.rs", &src);
    let lines = lines_for(&v, Rule::Determinism);
    // `use std::collections::HashMap`, `use std::time::Instant`, the two
    // bad fn bodies and signatures fire; the pragma'd pair and the
    // #[cfg(test)] block do not.
    assert!(lines.contains(&2), "use HashMap must fire: {v:?}");
    assert!(lines.contains(&3), "use Instant must fire: {v:?}");
    assert!(lines.contains(&6), "Instant::now() must fire: {v:?}");
    assert!(lines.contains(&10), "HashMap::new() must fire: {v:?}");
    assert!(!lines.contains(&13), "pragma line must be suppressed: {v:?}");
    assert!(!lines.contains(&14), "pragma line must be suppressed: {v:?}");
    assert!(!lines.iter().any(|&l| l >= 17), "cfg(test) block is exempt: {v:?}");

    // Out of scope: same content in a non-engine crate is clean.
    let v = lint_source("crates/workloads/src/fixture.rs", &src);
    assert!(lines_for(&v, Rule::Determinism).is_empty());
}

#[test]
fn panic_hygiene_rule_fires_and_respects_pragma() {
    let src = fixture("panic_hygiene.rs");
    let v = lint_source("crates/stats/src/fixture.rs", &src);
    let lines = lines_for(&v, Rule::PanicHygiene);
    assert!(lines.contains(&3), "unwrap() must fire: {v:?}");
    assert!(lines.contains(&7), "expect() must fire: {v:?}");
    assert!(lines.contains(&11), "panic! must fire: {v:?}");
    assert!(!lines.contains(&16), "pragma line must be suppressed: {v:?}");
    assert!(!lines.contains(&20), "unwrap_or / unwrap_or_default are fine: {v:?}");
    assert!(!lines.iter().any(|&l| l >= 23), "cfg(test) block is exempt: {v:?}");

    // Binaries are exempt.
    let v = lint_source("crates/pptlab/src/main.rs", &src);
    assert!(lines_for(&v, Rule::PanicHygiene).is_empty());
}

#[test]
fn float_cmp_rule_fires_and_respects_pragma() {
    let src = fixture("float_cmp.rs");
    let v = lint_source("crates/core/src/fixture.rs", &src);
    let lines = lines_for(&v, Rule::FloatCmp);
    assert!(lines.contains(&3), "x == 1.0 must fire: {v:?}");
    assert!(lines.contains(&7), "0.17 != x must fire: {v:?}");
    assert!(!lines.contains(&11), "pragma line must be suppressed: {v:?}");
    assert!(!lines.contains(&15), "integer == is fine: {v:?}");
    assert!(!lines.contains(&19), "<= and >= are fine: {v:?}");
}

#[test]
fn hot_path_alloc_rule_fires_and_respects_pragma() {
    let src = fixture("hot_path_alloc.rs");
    let v = lint_source("crates/netsim/src/fixture.rs", &src);
    let lines = lines_for(&v, Rule::HotPathAlloc);
    // Box::new / Vec::new / vec![ / to_vec() inside the fence fire; the
    // allocation before the fence (line 4), the pragma'd line (13) and
    // the one after the close marker (19) do not.
    assert_eq!(lines, vec![9, 10, 11, 12], "fenced allocations must fire: {v:?}");

    // The TCP-family sender path is fenced the same way.
    let v = lint_source("crates/transports/src/fixture.rs", &src);
    assert_eq!(lines_for(&v, Rule::HotPathAlloc), vec![9, 10, 11, 12], "transports: {v:?}");

    // Out of scope: the same content outside netsim and transports is clean.
    let v = lint_source("crates/ppt/src/fixture.rs", &src);
    assert!(lines_for(&v, Rule::HotPathAlloc).is_empty());

    // Non-library netsim files (tests, benches) are exempt.
    let v = lint_source("crates/netsim/tests/fixture.rs", &src);
    assert!(lines_for(&v, Rule::HotPathAlloc).is_empty());

    // An unclosed fence is itself a violation, reported at the opener —
    // a typo'd end marker must not silently extend the banned region.
    let unclosed = "// simlint: hot-path\npub fn f() {}\n";
    let v = lint_source("crates/netsim/src/fixture.rs", unclosed);
    assert_eq!(lines_for(&v, Rule::HotPathAlloc), vec![1], "unclosed fence must fire: {v:?}");
}

#[test]
fn forbid_unsafe_rule_checks_crate_roots_only() {
    let bare = "pub fn f() {}\n";
    let v = lint_source("crates/foo/src/lib.rs", bare);
    assert!(
        v.iter().any(|v| v.rule == Rule::ForbidUnsafe),
        "crate root without the attribute must fire: {v:?}"
    );

    let good = "#![forbid(unsafe_code)]\npub fn f() {}\n";
    let v = lint_source("crates/foo/src/lib.rs", good);
    assert!(v.iter().all(|v| v.rule != Rule::ForbidUnsafe), "attribute satisfies: {v:?}");

    // Non-root files don't need the attribute.
    let v = lint_source("crates/foo/src/inner.rs", bare);
    assert!(v.iter().all(|v| v.rule != Rule::ForbidUnsafe));
}

#[test]
fn comments_and_strings_cannot_fire_rules() {
    let src = "#![forbid(unsafe_code)]\n\
               // HashMap::new() and Instant::now() and x.unwrap() in prose\n\
               pub const DOC: &str = \"panic! == 1.0 HashMap\";\n";
    let v = lint_source("crates/netsim/src/lib.rs", src);
    assert!(v.is_empty(), "masked text must not fire: {v:?}");
}

#[test]
fn classification_matches_layout() {
    assert!(classify("crates/netsim/src/engine.rs").in_determinism_scope);
    assert!(classify("crates/core/src/ecn.rs").in_determinism_scope);
    assert!(!classify("crates/workloads/src/dist.rs").in_determinism_scope);
    assert!(!classify("crates/netsim/tests/engine_props.rs").is_library);
    assert!(!classify("crates/pptlab/src/main.rs").is_library);
    assert!(classify("crates/pptlab/src/main.rs").is_crate_root);
    assert!(classify("crates/netsim/src/lib.rs").is_crate_root);
    assert!(!classify("crates/netsim/src/rng.rs").is_crate_root);
}

#[test]
fn paper_constants_fire_on_drift() {
    let tmp = std::env::temp_dir().join(format!("simlint-selftest-{}", std::process::id()));
    let core_src = tmp.join("crates/core/src");
    std::fs::create_dir_all(&core_src).expect("mkdir fixture tree");
    std::fs::write(
        core_src.join("ecn.rs"),
        "pub const LAMBDA_HIGH: f64 = 0.20;\npub const LAMBDA_LOW: f64 = 0.1;\n",
    )
    .expect("write ecn fixture");
    std::fs::write(core_src.join("lcp.rs"), "pub const LCP_PACKETS_PER_ACK: u32 = 3;\n")
        .expect("write lcp fixture");
    // Lambda defaults re-encoded as literals instead of the ecn constants.
    std::fs::write(core_src.join("config.rs"), "pub fn lambda_high() -> f64 { 0.17 }\n")
        .expect("write config fixture");

    let mut out = Vec::new();
    simlint::rules::check_paper_constants(&tmp, &mut out);
    assert!(
        out.iter().any(|v| v.rule == Rule::PaperConstants && v.message.contains("LAMBDA_HIGH")),
        "drifted LAMBDA_HIGH must fire: {out:?}"
    );
    assert!(
        out.iter()
            .any(|v| v.rule == Rule::PaperConstants && v.message.contains("LCP_PACKETS_PER_ACK")),
        "drifted LCP_PACKETS_PER_ACK must fire: {out:?}"
    );
    assert!(
        out.iter()
            .any(|v| v.rule == Rule::PaperConstants && v.message.contains("ecn::LAMBDA_HIGH")),
        "config.rs not wired to ecn constants must fire: {out:?}"
    );
    std::fs::remove_dir_all(&tmp).ok();
}

#[test]
fn trace_schema_fires_on_missing_encoder_arm() {
    let tmp = std::env::temp_dir().join(format!("simlint-traceschema-{}", std::process::id()));
    let trace_src = tmp.join("crates/trace/src");
    std::fs::create_dir_all(&trace_src).expect("mkdir fixture tree");
    let broken = "\
pub enum TraceEvent {
    FlowStart { flow: u64 },
    Orphan { flow: u64 },
}

impl TraceEvent {
    pub fn kind(&self) -> &'static str {
        match self {
            TraceEvent::FlowStart { .. } => \"flow_start\",
            TraceEvent::Orphan { .. } => \"orphan\",
        }
    }
}

pub fn encode_line(out: &mut String, at: u64, ev: &TraceEvent) {
    match ev {
        TraceEvent::FlowStart { flow } => {}
        _ => {}
    }
}
";
    std::fs::write(trace_src.join("event.rs"), broken).expect("write event fixture");
    let mut out = Vec::new();
    simlint::rules::check_trace_schema(&tmp, &mut out);
    assert!(
        out.iter().any(|v| v.rule == Rule::TraceSchema && v.message.contains("Orphan")),
        "variant without an encoder arm must fire: {out:?}"
    );
    assert!(
        !out.iter().any(|v| v.message.contains("FlowStart")),
        "encoded variant must not fire: {out:?}"
    );

    // A variant with an encoder arm but no kind() arm must also fire —
    // both halves of the schema are checked independently.
    let kindless = broken.replace("            TraceEvent::Orphan { .. } => \"orphan\",\n", "");
    let kindless = kindless.replace("_ => {}", "TraceEvent::Orphan { flow } => {}");
    std::fs::write(trace_src.join("event.rs"), kindless).expect("write kindless fixture");
    let mut out = Vec::new();
    simlint::rules::check_trace_schema(&tmp, &mut out);
    assert!(
        out.iter().any(|v| v.rule == Rule::TraceSchema
            && v.message.contains("Orphan")
            && v.message.contains("kind()")),
        "variant without a kind() arm must fire: {out:?}"
    );

    // Fixed: every variant has both arms → clean.
    let fixed = broken.replace("_ => {}", "TraceEvent::Orphan { flow } => {}");
    std::fs::write(trace_src.join("event.rs"), fixed).expect("write fixed fixture");
    let mut out = Vec::new();
    simlint::rules::check_trace_schema(&tmp, &mut out);
    assert!(out.is_empty(), "complete encoder must be clean: {out:?}");
    std::fs::remove_dir_all(&tmp).ok();
}

#[test]
fn masking_cannot_hide_or_host_violations() {
    let src = fixture("masking.rs");
    let v = lint_source("crates/netsim/src/fixture.rs", &src);
    let det = lines_for(&v, Rule::Determinism);
    // Tokens inside raw strings (4, 5), the nested block comment (7) and
    // the escaped-newline continuation (8–9) must not fire…
    for hidden in [4usize, 5, 7, 8, 9] {
        assert!(!det.contains(&hidden), "line {hidden} is literal/comment text: {v:?}");
    }
    // …while the real code after them fires at exactly the right lines —
    // proving the continuation did not shift line numbers.
    assert_eq!(det, vec![11, 12], "code after the literals must fire: {v:?}");
    assert!(lines_for(&v, Rule::PanicHygiene).is_empty(), "panic! only in literals: {v:?}");
}

#[test]
fn shared_mut_rule_fires_and_respects_pragma() {
    let pos = fixture("shared_mut_pos.rs");
    let v = lint_source("crates/netsim/src/fixture.rs", &pos);
    let lines = lines_for(&v, Rule::SharedMut);
    assert_eq!(lines, vec![2, 3, 4, 7, 8, 9, 12], "uses, fields and static mut: {v:?}");

    // Out of determinism scope the same content is clean.
    let v = lint_source("crates/workloads/src/fixture.rs", &pos);
    assert!(lines_for(&v, Rule::SharedMut).is_empty());

    let neg = fixture("shared_mut_neg.rs");
    let v = lint_source("crates/netsim/src/fixture.rs", &neg);
    assert!(lines_for(&v, Rule::SharedMut).is_empty(), "owned/pragma'd/test state: {v:?}");
    assert!(lines_for(&v, Rule::PragmaHygiene).is_empty(), "the pragma is used: {v:?}");
}

#[test]
fn event_order_rule_fires_and_respects_engine_allowlist() {
    let pos = fixture("event_order_pos.rs");
    let v = lint_source("crates/netsim/src/fixture.rs", &pos);
    let lines = lines_for(&v, Rule::EventOrder);
    assert!(lines.contains(&2), "BinaryHeap use outside engine: {v:?}");
    assert!(lines.contains(&5), "BinaryHeap field outside engine: {v:?}");
    assert!(lines.contains(&10), "heap.push outside engine: {v:?}");

    // The identical enqueue helpers are legal only inside engine.rs.
    let neg = fixture("event_order_neg.rs");
    let v = lint_source("crates/netsim/src/engine.rs", &neg);
    assert!(lines_for(&v, Rule::EventOrder).is_empty(), "schedule/push_tx_done may push: {v:?}");
    let v = lint_source("crates/netsim/src/fixture.rs", &neg);
    assert!(!lines_for(&v, Rule::EventOrder).is_empty(), "same code elsewhere fires");

    // Inside engine.rs, a push from any other fn still fires.
    let rogue = "pub struct E { heap: std::collections::BinaryHeap<u64> }\n\
                 impl E {\n    pub fn sneak(&mut self) {\n        self.heap.push(1);\n    }\n}\n";
    let v = lint_source("crates/netsim/src/engine.rs", rogue);
    assert_eq!(
        lines_for(&v, Rule::EventOrder),
        vec![4],
        "push outside schedule/push_tx_done: {v:?}"
    );

    // The modules split out of engine.rs are ordinary netsim files: they
    // reach the queue through `schedule`, never by minting a `QEntry`.
    let sibling = fixture("event_order_sibling.rs");
    let v = lint_source("crates/netsim/src/pfc.rs", &sibling);
    let lines = lines_for(&v, Rule::EventOrder);
    assert!(lines.contains(&3) && lines.contains(&7), "QEntry in a sibling module: {v:?}");
    assert!(lines.contains(&8), "queue.push in a sibling module: {v:?}");
    assert!(!lines.contains(&13), "calling schedule is the sanctioned path: {v:?}");
}

#[test]
fn unit_safety_rule_fires_on_raw_typed_signatures() {
    let pos = fixture("unit_safety_pos.rs");
    let v = lint_source("crates/transports/src/fixture.rs", &pos);
    let lines = lines_for(&v, Rule::UnitSafety);
    assert!(lines.contains(&2), "deadline: u64 must fire: {v:?}");
    assert!(lines.contains(&6), "rate_bps: f64 / gap_ns: u64 must fire: {v:?}");
    assert!(lines.contains(&13), "timeout_us: u64 in an impl must fire: {v:?}");

    // Out of scope crates and the newtype-defining files are exempt.
    let v = lint_source("crates/workloads/src/fixture.rs", &pos);
    assert!(lines_for(&v, Rule::UnitSafety).is_empty());
    let v = lint_source("crates/netsim/src/time.rs", &pos);
    assert!(lines_for(&v, Rule::UnitSafety).is_empty(), "newtype constructors are exempt");

    let neg = fixture("unit_safety_neg.rs");
    let v = lint_source("crates/transports/src/fixture.rs", &neg);
    assert!(lines_for(&v, Rule::UnitSafety).is_empty(), "newtyped/private/byte-count: {v:?}");
}

#[test]
fn rto_common_rule_fires_outside_owner_files() {
    let pos = fixture("rto_common_pos.rs");
    let v = lint_source("crates/transports/src/fixture.rs", &pos);
    let lines = lines_for(&v, Rule::RtoCommon);
    assert!(!lines.contains(&2), "the use line is allowed: {v:?}");
    assert!(lines.contains(&5), "rto_token( call must fire: {v:?}");
    assert!(lines.contains(&9), "Token {{ kind: TIMER_RTO }} must fire: {v:?}");
    assert!(lines.contains(&13), ".on_rto( call must fire: {v:?}");

    // The owner files may do all of this.
    let v = lint_source("crates/transports/src/common.rs", &pos);
    assert!(lines_for(&v, Rule::RtoCommon).is_empty(), "common.rs owns the machinery");
    let v = lint_source("crates/transports/src/tcp_base.rs", &pos);
    assert!(lines_for(&v, Rule::RtoCommon).is_empty(), "tcp_base.rs owns the state machine");

    let neg = fixture("rto_common_neg.rs");
    let v = lint_source("crates/transports/src/fixture.rs", &neg);
    assert!(lines_for(&v, Rule::RtoCommon).is_empty(), "match arms and compares: {v:?}");
}

#[test]
fn assert_msg_rule_fires_on_messageless_asserts() {
    let src = fixture("assert_msg.rs");
    let v = lint_source("crates/netsim/src/fixture.rs", &src);
    let lines = lines_for(&v, Rule::AssertMsg);
    // The bare single-line asserts (2, 3) and the bare multi-line one
    // (11) fire; messaged asserts, assert_eq!, the pragma'd line and the
    // #[cfg(test)] block do not.
    assert_eq!(lines, vec![2, 3, 11], "bare asserts must fire: {v:?}");
    assert!(lines_for(&v, Rule::PragmaHygiene).is_empty(), "the allow pragma is used: {v:?}");

    // Out of determinism scope the same content is clean.
    let v = lint_source("crates/workloads/src/fixture.rs", &src);
    assert!(lines_for(&v, Rule::AssertMsg).is_empty());
}

#[test]
fn pragma_hygiene_rule_fires_on_stale_and_malformed_pragmas() {
    let pos = fixture("pragma_hygiene_pos.rs");
    let v = lint_source("crates/netsim/src/fixture.rs", &pos);
    let lines = lines_for(&v, Rule::PragmaHygiene);
    assert!(lines.contains(&3), "allow(determinism) suppressing nothing must fire: {v:?}");
    assert!(lines.contains(&6), "allow(no_such_rule) must fire: {v:?}");
    assert!(lines.contains(&11), "typo'd directive must fire: {v:?}");
    assert_eq!(lines.len(), 3, "exactly the three bad pragmas: {v:?}");

    let neg = fixture("pragma_hygiene_neg.rs");
    let v = lint_source("crates/netsim/src/fixture.rs", &neg);
    assert!(lines_for(&v, Rule::PragmaHygiene).is_empty(), "used/escaped/test pragmas: {v:?}");
    assert!(lines_for(&v, Rule::Determinism).is_empty(), "all Instants suppressed: {v:?}");
}

/// The ratchet: baseline counts may only decrease. A regression fails
/// the gate, an improvement demands a rewrite, and the rewrite refuses
/// to raise any existing entry.
#[test]
fn baseline_counts_can_only_decrease() {
    // Three real violations from the shared_mut fixture struct body.
    let all = lint_source("crates/netsim/src/fixture.rs", &fixture("shared_mut_pos.rs"));
    let all: Vec<_> = all.into_iter().filter(|v| v.rule == Rule::SharedMut).collect();
    assert_eq!(all.len(), 7);

    // Adopt them; at the recorded count the gate is clean.
    let base = Baseline::from_violations(&all);
    assert!(base.apply(&all).is_clean());

    // Fixing some makes the baseline stale: the gate demands a ratchet.
    let fewer = &all[..2];
    let out = base.apply(fewer);
    assert!(!out.is_clean() && !out.stale.is_empty(), "improvement must force a rewrite");

    // Ratcheting down succeeds and locks in the lower count…
    let lower = Baseline::ratcheted_from(&base, fewer).expect("ratchet down");
    assert!(lower.apply(fewer).is_clean());
    let out = lower.apply(&all[..3]);
    assert!(!out.is_clean() && !out.regressions.is_empty(), "2 -> 3 is a regression");

    // …and the rewrite path refuses to raise the entry back up.
    assert!(Baseline::ratcheted_from(&lower, &all[..3]).is_err(), "counts may only decrease");
}

fn workspace_root() -> &'static Path {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("simlint lives at <root>/crates/simlint")
}

/// THE gate: the real workspace must be clean after the baseline is
/// applied. This is what wires simlint into plain `cargo test` — the
/// exact pass the CLI and scripts/check.sh run.
#[test]
fn workspace_is_clean() {
    let outcome = simlint::gate(workspace_root()).expect("lint workspace");
    assert!(outcome.is_clean(), "simlint gate failed:\n{}", simlint::output::render_text(&outcome));
}

/// Machine-readable output must be byte-identical across runs over the
/// same tree (CI runs the pass twice and diffs).
#[test]
fn reports_are_deterministic() {
    let root = workspace_root();
    let a = simlint::gate(root).expect("first pass");
    let b = simlint::gate(root).expect("second pass");
    assert_eq!(simlint::output::render_json(&a), simlint::output::render_json(&b));
    assert_eq!(simlint::output::render_sarif(&a), simlint::output::render_sarif(&b));
}
