//! Engine perf smoke: time the hot path and the sweep runner, appending
//! one machine-readable JSON line per invocation to `BENCH_engine.json`
//! at the workspace root (override with `BENCH_ENGINE_OUT=<path>`, or
//! `BENCH_ENGINE_OUT=-` to print without writing).
//!
//! Tracked series: events/sec and ns/event of a fixed pinned-seed run,
//! the packet-pool hit rate, sanitizer and telemetry overhead ratios, a
//! per-event-kind wall-clock profile from the engine self-profiler, and
//! serial-vs-parallel sweep wall-clock. The baseline (calendar queue) /
//! heap-oracle / sanitized / telemetry passes are interleaved in rotating
//! order within each
//! measurement round (after a discarded warmup of each) so the overhead
//! ratios compare like against like — back-to-back blocks drift with
//! cache and frequency state and have produced impossible sub-1.0
//! ratios. On a busy box the cross-run ratios stay noisy even so; the
//! `sampler_dispatch_share` field (sample-kind ns over total dispatch
//! ns, from one profiled run) is the drift-immune sampler-cost number.
//!
//! Timings are informational (nothing gates on absolute numbers) but the
//! JSONL file is the perf trajectory across PRs — run via
//! `scripts/check.sh` or `cargo run --release -p bench --bin bench_engine`.

use std::time::Instant;

use ppt::harness::{run_experiment_with, Experiment, Scheme, TopoKind};
use ppt::netsim::{QueueKind, SanLevel, SimDuration, TelemetryConfig};
use ppt::sweep::SweepSpec;
use ppt::trace::JsonObject;
use ppt::workloads::{all_to_all, SizeDistribution, WorkloadSpec};

/// Sampling interval for the telemetry variant: the 10 µs cadence the
/// overhead budget in ISSUE/ROADMAP is stated against.
const TELEMETRY_INTERVAL_US: u64 = 10;

/// The phase label stamped on the emitted line. Read in exactly one
/// place so every field of a line carries the same phase — milestone
/// entries set `BENCH_ENGINE_PHASE`, everything else is "post-refactor".
fn phase_label() -> String {
    std::env::var("BENCH_ENGINE_PHASE").unwrap_or_else(|_| "post-refactor".into())
}

/// The transport driven through the scenario. `BENCH_ENGINE_SCHEME`
/// switches it (and is echoed as the `scheme` field) so milestone rows
/// for a new transport measure that transport's hot path; the default
/// stays DCTCP so the long-running trajectory keeps comparing like
/// against like.
fn scheme_under_test() -> (Scheme, String) {
    let id = std::env::var("BENCH_ENGINE_SCHEME").unwrap_or_else(|_| "dctcp".into());
    let scheme = match id.as_str() {
        "dctcp" => Scheme::Dctcp,
        "ppt" => Scheme::Ppt,
        "powertcp" => Scheme::PowerTcp,
        other => panic!("BENCH_ENGINE_SCHEME: unknown scheme '{other}' (dctcp | ppt | powertcp)"),
    };
    (scheme, id)
}

/// The fixed engine scenario: big enough to amortize setup, small enough
/// to finish in about a second even on a loaded CI core.
fn engine_scenario() -> Experiment {
    let topo = TopoKind::Star { n: 8, rate_gbps: 10, delay_us: 20 };
    let spec = WorkloadSpec::new(SizeDistribution::web_search(), 0.5, topo.edge_rate(), 400, 42);
    let flows = all_to_all(topo.hosts(), &spec);
    Experiment::new(topo, scheme_under_test().0, flows)
}

/// The engine configurations measured against each other.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Variant {
    /// The plain hot path (calendar queue, the engine default).
    Baseline,
    /// The `BinaryHeap` oracle queue: same events, same dispatch order —
    /// the ratio against baseline is the calendar queue's measured win.
    HeapQueue,
    /// simsan at its default per-epoch cadence (audit every 4096 events);
    /// the ratio against baseline is tracked against the ~10% budget of
    /// DESIGN.md §13.
    Sanitized,
    /// The telemetry sampler at `TELEMETRY_INTERVAL_US` (no profiler —
    /// profiling itself costs two `Instant::now` per event and would
    /// pollute the sampler-overhead number); budget ≤3%, DESIGN.md §14.
    Telemetry,
}

impl Variant {
    const ALL: [Variant; 4] =
        [Variant::Baseline, Variant::HeapQueue, Variant::Sanitized, Variant::Telemetry];
}

struct EngineNumbers {
    events: u64,
    wall_ns: u64,
    pool_hits: u64,
    pool_misses: u64,
}

/// One timed run of the scenario under `variant`, with the variant's
/// sanity checks applied to the outcome.
fn run_variant(exp: &Experiment, variant: Variant) -> EngineNumbers {
    let t0 = Instant::now();
    let outcome = run_experiment_with(exp, |t| match variant {
        Variant::Baseline => {}
        Variant::HeapQueue => t.sim.set_queue_kind(QueueKind::Heap),
        Variant::Sanitized => t.sim.set_sanitizer(SanLevel::PerEpoch),
        Variant::Telemetry => t.sim.enable_telemetry(TelemetryConfig::new(
            SimDuration::from_micros(TELEMETRY_INTERVAL_US),
        )),
    });
    let wall_ns = t0.elapsed().as_nanos() as u64;
    match variant {
        Variant::Baseline => {}
        Variant::HeapQueue => assert_eq!(
            outcome.sim.queue_kind(),
            QueueKind::Heap,
            "heap variant must run on the oracle queue"
        ),
        Variant::Sanitized => assert!(
            outcome.sim.san_violations().is_empty(),
            "bench scenario must be violation-free: {:?}",
            outcome.sim.san_violations()
        ),
        Variant::Telemetry => {
            let samples = outcome.sim.telemetry().map(|t| t.samples_taken()).unwrap_or(0);
            assert!(samples > 0, "telemetry variant must take samples");
        }
    }
    let pool = outcome.sim.pool_stats();
    EngineNumbers {
        events: outcome.report.events,
        wall_ns,
        pool_hits: pool.recycled,
        pool_misses: pool.fresh,
    }
}

/// Interleaved measurement: each variant's best wall-clock plus the
/// per-round overhead ratios of the sanitized and telemetry variants
/// against that same round's baseline.
struct Measurement {
    best: [EngineNumbers; 4],
    /// Median of per-round `heap / baseline` wall-clock ratios: how much
    /// slower the BinaryHeap oracle is than the calendar queue (>1 means
    /// the calendar queue wins).
    heap_queue_ratio: f64,
    /// Median of per-round `sanitized / baseline` wall-clock ratios.
    simsan_overhead: f64,
    /// Minimum of those ratios: the cleanest-round lower bound.
    simsan_overhead_floor: f64,
    /// Median of per-round `telemetry / baseline` wall-clock ratios.
    telemetry_overhead: f64,
    /// Minimum of those ratios: the cleanest-round lower bound.
    telemetry_overhead_floor: f64,
}

/// Median of a small sample (ties broken toward the lower middle).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(|a, b| a.partial_cmp(b).expect("ratios are finite"));
    xs[xs.len() / 2]
}

/// Measure every variant interleaved: one discarded warmup of each, then
/// `runs` rounds of baseline → heap → sanitized → telemetry. Interleaving means
/// a slow patch of the machine hits all three variants roughly equally
/// instead of biasing whichever back-to-back block ran during it — the
/// bug that once produced an impossible 0.81× sanitizer "overhead" in
/// BENCH_engine.json. Overheads are medians of *within-round* ratios
/// (each round's variants share machine conditions, so the ratio cancels
/// drift that independent minima cannot); absolute ns/event numbers keep
/// the best-of-runs minimum, the least-noise point estimator.
fn measure_interleaved(runs: u32) -> Measurement {
    let exp = engine_scenario();
    for variant in Variant::ALL {
        run_variant(&exp, variant); // warmup, discarded
    }
    let mut best: [Option<EngineNumbers>; 4] = [None, None, None, None];
    let mut heap_ratios = Vec::new();
    let mut san_ratios = Vec::new();
    let mut telem_ratios = Vec::new();
    for round in 0..runs as usize {
        let mut round_wall = [0u64; 4];
        // Rotate the in-round order: under load that drifts monotonically
        // across a round, a fixed order would systematically tax whichever
        // variant always ran last.
        for i in 0..Variant::ALL.len() {
            let slot = (round + i) % Variant::ALL.len();
            let n = run_variant(&exp, Variant::ALL[slot]);
            round_wall[slot] = n.wall_ns;
            if best[slot].as_ref().map(|b| n.wall_ns < b.wall_ns).unwrap_or(true) {
                best[slot] = Some(n);
            }
        }
        let base = round_wall[0].max(1) as f64;
        heap_ratios.push(round_wall[1] as f64 / base);
        san_ratios.push(round_wall[2] as f64 / base);
        telem_ratios.push(round_wall[3] as f64 / base);
    }
    let floor = |xs: &[f64]| xs.iter().copied().fold(f64::INFINITY, f64::min);
    let m = Measurement {
        best: best.map(|slot| slot.expect("at least one measured run")),
        heap_queue_ratio: median(&mut heap_ratios),
        simsan_overhead_floor: floor(&san_ratios),
        telemetry_overhead_floor: floor(&telem_ratios),
        simsan_overhead: median(&mut san_ratios),
        telemetry_overhead: median(&mut telem_ratios),
    };
    // Differential sanity: both queues must dispatch the exact same
    // schedule (the byte-level check lives in tests/determinism.rs and
    // scripts/check.sh; event counts are the cheap in-bench guard).
    assert_eq!(
        m.best[0].events, m.best[1].events,
        "calendar and heap queues must dispatch identical event counts"
    );
    m
}

/// One profiled run: telemetry with the wall-clock self-profiler on,
/// returning the per-event-kind breakdown as a raw JSON array plus the
/// sampler's share of total dispatch time. The share is the cleanest
/// sampler-cost number available on a shared box: numerator and
/// denominator come from the *same* run, so machine drift between runs
/// cancels exactly (unlike the cross-run overhead ratios). Run outside
/// the timed loop — profiling is excluded from the overhead numbers just
/// as it is from the determinism goldens.
fn profile_breakdown() -> (String, f64) {
    let exp = engine_scenario();
    let cfg = TelemetryConfig::new(SimDuration::from_micros(TELEMETRY_INTERVAL_US)).with_prof();
    let outcome = run_experiment_with(&exp, |t| t.sim.enable_telemetry(cfg));
    let rows = outcome
        .sim
        .telemetry()
        .and_then(|t| t.prof_breakdown())
        .expect("profiled run must expose a breakdown");
    let mut arr = String::from("[");
    let mut total_ns = 0u64;
    let mut sample_ns = 0u64;
    for (i, (kind, count, ns)) in rows.iter().enumerate() {
        if i > 0 {
            arr.push(',');
        }
        arr.push_str(
            &JsonObject::new()
                .str("kind", kind.as_str())
                .u64("count", *count)
                .u64("total_ns", *ns)
                .finish(),
        );
        total_ns += ns;
        if kind.as_str() == "sample" {
            sample_ns = *ns;
        }
    }
    arr.push(']');
    (arr, sample_ns as f64 / total_ns.max(1) as f64)
}

/// An 8-point grid (2 schemes x 2 loads x 2 seeds) timed at a given
/// worker count. Same spec both times, so the serial/parallel wall-clock
/// ratio is the sweep layer's scaling on this machine.
fn measure_sweep(jobs: usize) -> u64 {
    let topo = TopoKind::Star { n: 6, rate_gbps: 10, delay_us: 20 };
    let t0 = Instant::now();
    let results = SweepSpec::new()
        .jobs(jobs)
        .grid(
            topo,
            &[Scheme::Ppt, Scheme::Dctcp],
            &SizeDistribution::web_search(),
            &[0.4, 0.6],
            150,
            &[42, 7],
        )
        .run();
    let wall_ns = t0.elapsed().as_nanos() as u64;
    assert_eq!(results.len(), 8, "sweep grid must produce 8 points");
    wall_ns
}

fn main() {
    let m = measure_interleaved(7);
    let [engine, heap, sanitized, telemetry] = &m.best;
    let ns_per_event = engine.wall_ns as f64 / engine.events.max(1) as f64;
    let events_per_sec = engine.events as f64 * 1e9 / engine.wall_ns.max(1) as f64;
    let pool_total = engine.pool_hits + engine.pool_misses;
    let pool_hit_rate =
        if pool_total == 0 { 0.0 } else { engine.pool_hits as f64 / pool_total as f64 };

    let ns_per_event_heap = heap.wall_ns as f64 / heap.events.max(1) as f64;
    let ns_per_event_sanitized = sanitized.wall_ns as f64 / sanitized.events.max(1) as f64;
    // The telemetry run's event count includes the sample dispatches
    // themselves; the wall-clock overhead ratios are end-to-end.
    let ns_per_event_telemetry = telemetry.wall_ns as f64 / telemetry.events.max(1) as f64;

    let (profile, sampler_share) = profile_breakdown();

    let sweep_serial_ns = measure_sweep(1);
    let sweep_parallel_ns = measure_sweep(4);
    let cores = std::thread::available_parallelism().map(|n| n.get() as u64).unwrap_or(1);

    let doc = JsonObject::new()
        .str("bench", "engine")
        .str("phase", &phase_label())
        .str("scheme", &scheme_under_test().1)
        .str("queue", "calendar")
        .u64("cores", cores)
        .u64("engine_events", engine.events)
        .u64("engine_wall_ns", engine.wall_ns)
        .f64("ns_per_event", ns_per_event)
        .f64("events_per_sec", events_per_sec)
        .f64("pool_hit_rate", pool_hit_rate)
        .f64("ns_per_event_heap", ns_per_event_heap)
        .f64("heap_queue_ratio", m.heap_queue_ratio)
        .f64("ns_per_event_sanitized", ns_per_event_sanitized)
        .f64("simsan_overhead", m.simsan_overhead)
        .f64("simsan_overhead_floor", m.simsan_overhead_floor)
        .u64("telemetry_interval_us", TELEMETRY_INTERVAL_US)
        .u64("telemetry_events", telemetry.events)
        .f64("ns_per_event_telemetry", ns_per_event_telemetry)
        .f64("telemetry_overhead", m.telemetry_overhead)
        .f64("telemetry_overhead_floor", m.telemetry_overhead_floor)
        .f64("sampler_dispatch_share", sampler_share)
        .raw("profile", &profile)
        .u64("sweep_points", 8)
        .u64("sweep_serial_ns", sweep_serial_ns)
        .u64("sweep_jobs4_ns", sweep_parallel_ns)
        .f64("sweep_speedup", sweep_serial_ns as f64 / sweep_parallel_ns.max(1) as f64)
        .finish();
    println!("{doc}");

    // Append to the tracked perf trajectory unless asked not to.
    let out = std::env::var("BENCH_ENGINE_OUT").unwrap_or_default();
    if out == "-" {
        return;
    }
    let path = if out.is_empty() {
        // crates/bench -> crates -> workspace root
        std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
            .parent()
            .and_then(std::path::Path::parent)
            .expect("bench lives at <root>/crates/bench")
            .join("BENCH_engine.json")
    } else {
        std::path::PathBuf::from(out)
    };
    use std::io::Write;
    let appended = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .and_then(|mut f| writeln!(f, "{doc}"));
    match appended {
        Ok(()) => eprintln!("appended to {}", path.display()),
        Err(e) => eprintln!("warning: could not append to {}: {e}", path.display()),
    }
}
