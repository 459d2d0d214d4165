//! The benchmark's own tests: a smoke scale (≤ 20 flows per experiment,
//! debug build) that drives every workload through both passes and every
//! kernel once, and the checks that keep the benchmark honest about its
//! names and its surface.
//!
//! Run with `benchmarks/run.sh --self-test`, which builds `pptlab` first;
//! the tests that spawn it say so when it is missing.

use std::path::{Path, PathBuf};

use crate::json::Json;
use crate::kernels::{self, KernelBudget};
use crate::measure::{self, Budget};
use crate::metrics::{self, END_TO_END, PER_LAYER, RUN_SECONDS};
use crate::traced;
use crate::workload::{self, Scale};

fn pptlab() -> PathBuf {
    measure::locate_pptlab().unwrap_or_else(|e| panic!("{e} (run benchmarks/run.sh --self-test)"))
}

#[test]
fn every_workload_runs_untraced_at_smoke_scale() {
    let pptlab = pptlab();
    for w in &workload::ALL {
        let r = measure::end_to_end(w, 42, Scale::Smoke, Budget::Reps(2), Some(&pptlab))
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert!(r.correct(), "{}: {:?}", w.name, r.problems);
        assert_eq!(r.attempted, 2 * w.flows_per_rep(Scale::Smoke) as u64, "{}", w.name);
        assert_eq!(r.failed, 0, "{}", w.name);
        for m in &END_TO_END {
            let s = r.stat(m.name);
            assert!(s.median > 0.0 && s.median.is_finite(), "{} {} = {}", w.name, m.name, s.median);
        }
    }
}

#[test]
fn another_seed_passes_the_checks_and_keeps_the_fcts() {
    // Shifting the whole scenario in time must not move an FCT.
    for w in workload::ALL.iter().filter(|w| w.door != workload::Door::Cli) {
        let a = measure::end_to_end(w, 42, Scale::Smoke, Budget::Reps(1), None).unwrap();
        let b = measure::end_to_end(w, 7, Scale::Smoke, Budget::Reps(1), None).unwrap();
        assert!(a.correct() && b.correct(), "{}: {:?} {:?}", w.name, a.problems, b.problems);
        assert_eq!(a.digest, b.digest, "{}: the seed changed the simulated outcome", w.name);
    }
}

#[test]
fn traced_pass_emits_every_per_layer_metric() {
    let pptlab = pptlab();
    let kernel_values = kernels::run_all(&KernelBudget::smoke());
    assert!(kernel_values.iter().all(|(name, v)| *v > 0.0 && metrics::layer(name).is_some()));
    for w in &workload::ALL {
        let r = traced::per_layer(w, 42, Scale::Smoke, &pptlab, &kernel_values)
            .unwrap_or_else(|e| panic!("{}: {e}", w.name));
        assert!(r.correct(), "{}: {:?}", w.name, r.problems);
        let names: Vec<&str> = r.values.iter().map(|(n, _)| *n).collect();
        let table: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, table, "{}", w.name);
        let value = |name: &str| r.values.iter().find(|(n, _)| *n == name).unwrap().1;
        assert!(r.values.iter().all(|(_, v)| v.is_finite()), "{}", w.name);
        assert!(value("netsim.engine.events") > 0.0, "{}", w.name);
        assert!(value("netsim.engine.run_ms") > 0.0, "{}", w.name);
        assert!(value("netsim.engine.deliver_count") > 0.0, "{}", w.name);
        assert_eq!(value("transports.completion_ratio"), 1.0, "{}", w.name);
        // Spans nest: every child lies inside its parent.
        for s in &r.spans.spans {
            if let Some(p) = s.parent {
                let parent = &r.spans.spans[p];
                assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns, "{}", s.name);
                assert_eq!(parent.rep, s.rep);
            }
        }
        if w.name == "observed_ppt" {
            assert!(value("trace.events_emitted") > 0.0 && value("trace.jsonl_mb") > 0.0);
            assert!(value("netsim.telemetry.samples") > 0.0);
        }
    }
}

fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// `BENCHMARK.json` and the binary must name the same things.
#[test]
fn names_match_benchmark_json() {
    let path = repo_root().join("BENCHMARK.json");
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{}: {e}", path.display()));
    let doc = Json::parse(&text).expect("BENCHMARK.json parses");
    let mut keys: Vec<&str> = doc.as_obj().iter().map(|(k, _)| k.as_str()).collect();
    keys.sort_unstable();
    assert_eq!(keys, ["command", "end_to_end", "paths", "per_layer", "run_seconds", "workloads"]);
    assert_eq!(doc.get("run_seconds").and_then(Json::as_f64), Some(RUN_SECONDS as f64));

    let names = |key: &str| -> Vec<String> {
        doc.get(key)
            .unwrap()
            .as_arr()
            .iter()
            .map(|e| e.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect()
    };
    assert_eq!(names("workloads"), workload::ALL.iter().map(|w| w.name).collect::<Vec<_>>());
    assert_eq!(names("end_to_end"), END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>());
    assert_eq!(names("per_layer"), PER_LAYER.iter().map(|m| m.name).collect::<Vec<_>>());
    // Units, directions, bounds and reasons too: the file is generated.
    assert_eq!(doc, crate::metrics::benchmark_json(), "regenerate with `pptbench benchmark-json`");
    assert!(text.len() <= 64 * 1024);
}

/// ROADMAP items 2–3 will change or delete these, and a change that
/// claims a gain may not edit the benchmark — so the benchmark must not
/// use them. Spelled in halves so this list does not match itself.
#[test]
fn sources_avoid_the_surface_about_to_change() {
    let forbidden: Vec<String> = [
        ("Ack", "Hdr"),
        ("Data", "Hdr"),
        ("Queue", "Kind"),
        ("set_queue", "_kind"),
        ("pop_", "batch"),
        ("mean_batch", "_len"),
        ("sample_", "link"),
        ("sample_", "port"),
        ("Sampler", "Id"),
        ("PPT_", "SANITIZE"),
        ("PPT_", "SWITCH"),
        ("PPT_", "QUEUE"),
        ("PPT_", "FLOWS"),
        ("PPT_", "SEED"),
        ("PPT_", "JOBS"),
        ("PPT_", "DUMP_DIR"),
        ("bench", "::"),
        ("Heap", "Queue"),
        ("measure", "_cpu"),
    ]
    .iter()
    .map(|(a, b)| format!("{a}{b}"))
    .collect();
    let src = Path::new(env!("CARGO_MANIFEST_DIR")).join("src");
    let mut checked = 0;
    for entry in std::fs::read_dir(&src).unwrap() {
        let path = entry.unwrap().path();
        let text = std::fs::read_to_string(&path).unwrap();
        for name in &forbidden {
            assert!(!text.contains(name.as_str()), "{} uses {name}", path.display());
        }
        checked += 1;
    }
    assert!(checked >= 10, "expected the benchmark's sources under {}", src.display());
    let manifest = std::fs::read_to_string(src.join("../Cargo.toml")).unwrap();
    assert!(!manifest.contains("crates/bench"), "the bench crate's lib is going away");
}
