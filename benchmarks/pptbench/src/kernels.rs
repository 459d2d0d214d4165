//! Kernels: one layer at a time, driven through its public interface,
//! independent of the workload being measured.
//!
//! Packets carry `NoPayload` and trace events are captured from a real
//! run — never protocol header literals, whose layout ROADMAP item 2 is
//! about to change. Each kernel reports the median of its batches, so a
//! descheduled batch does not move the figure.

use std::hint::black_box;
use std::time::{Duration, Instant};

use ppt::core::{AlphaEstimator, LcpAckClock, MinTracker, MirrorTagger, DEFAULT_G};
use ppt::harness::{
    run_experiment, run_experiment_traced, run_experiment_with, Experiment, Scheme, TopoKind,
};
use ppt::netsim::queue::PrioQueues;
use ppt::netsim::sched::{CalendarQueue, EventQueue, QEntry};
use ppt::netsim::switch::enqueue_policy;
use ppt::netsim::{
    FlowId, HostId, NoPayload, Packet, PortCounters, SanLevel, SimDuration, SimTime, SwitchConfig,
    TelemetryConfig, MSS_BYTES,
};
use ppt::stats::FctStats;
use ppt::sweep::SweepSpec;
use ppt::trace::{encode_line, LogHistogram, TraceEvent};
use ppt::transports::IntervalSet;
use ppt::workloads::{all_to_all, FlowSpec, Pcg32, SizeDistribution, WorkloadSpec};

use crate::metrics::median;
use crate::procfs;

/// How long each kernel may run. `Duration::ZERO` runs every kernel for
/// exactly one batch (the smoke tests).
#[derive(Clone, Copy)]
pub struct KernelBudget {
    pub per_kernel: Duration,
    /// Rounds of each interleaved overhead comparison.
    pub rounds: usize,
    /// Flows of the small star the overhead comparisons run.
    pub overhead_flows: usize,
    /// Bytes of the single long flow of the per-scheme kernels.
    pub long_flow_bytes: u64,
    /// Flows per point of the 8-point sweep-speedup grid.
    pub sweep_flows: usize,
}

impl KernelBudget {
    /// Sized so the whole kernel suite takes about a third of `seconds`.
    pub fn for_seconds(seconds: f64) -> Self {
        KernelBudget {
            per_kernel: Duration::from_secs_f64((seconds / 100.0).clamp(0.02, 0.3)),
            rounds: 5,
            overhead_flows: 30,
            long_flow_bytes: 4_000_000,
            sweep_flows: 3_000,
        }
    }

    #[cfg(test)]
    pub fn smoke() -> Self {
        KernelBudget {
            per_kernel: Duration::ZERO,
            rounds: 1,
            overhead_flows: 5,
            long_flow_bytes: 100_000,
            sweep_flows: 20,
        }
    }
}

/// Nanoseconds per operation: `batch(ops)` performs `ops` operations;
/// batches repeat until the budget is spent and the median batch wins.
fn ns_per_op(budget: Duration, ops: u64, mut batch: impl FnMut(u64)) -> f64 {
    let started = Instant::now();
    let mut samples = Vec::new();
    loop {
        let t0 = Instant::now();
        batch(ops);
        samples.push(t0.elapsed().as_nanos() as f64 / ops as f64);
        if started.elapsed() >= budget {
            return median(&samples);
        }
    }
}

// ---------------------------------------------------------------- netsim

/// The hold model on the engine's calendar queue: pop the earliest entry,
/// push one a realistic delta later, at a fixed occupancy. Deltas follow
/// the engine's own mix — 1.2 µs serialisations, 20 µs propagations — and,
/// with `far`, a quarter of pushes are 10 ms RTO timers that land in the
/// overflow tier.
fn sched_hold(budget: Duration, occupancy: usize, far: bool) -> f64 {
    let mut q: CalendarQueue<u32> = CalendarQueue::new();
    let mut rng = Pcg32::seed_from_u64(occupancy as u64);
    let mut seq = 0u64;
    let mut delta = move || match rng.gen_index(8) {
        0 | 1 if far => 10_000_000,
        0..=4 => 1_200,
        _ => 20_000,
    };
    for i in 0..occupancy {
        q.push(QEntry { at: SimTime(delta() * (1 + i as u64 % 4)), seq, ev: i as u32 });
        seq += 1;
    }
    ns_per_op(budget, 100_000, |ops| {
        for _ in 0..ops {
            let e = q.pop().expect("occupancy is constant");
            q.push(QEntry { at: SimTime(e.at.as_nanos() + delta()), seq, ev: e.ev });
            seq += 1;
        }
        black_box(q.len());
    })
}

fn packet(i: u64, priority: u8) -> Packet<NoPayload> {
    Packet::data(FlowId(i), HostId(0), HostId(1), MSS_BYTES, NoPayload).with_priority(priority)
}

fn queue_push_pop(budget: Duration) -> f64 {
    let mut q: PrioQueues<NoPayload> = PrioQueues::new();
    ns_per_op(budget, 64 * 500, |ops| {
        for round in 0..ops / 64 {
            for i in 0..64 {
                q.push(packet(round * 64 + i, (i % 8) as u8));
            }
            while let Some(p) = q.pop() {
                black_box(p.wire_bytes);
            }
        }
    })
}

/// `enqueue_policy` at three buffer regimes of a DCTCP port: below the
/// marking threshold, above it (every arrival is CE-marked), and full
/// (every arrival takes the overflow path). One pop per admitted packet
/// keeps the backlog where the regime needs it.
fn switch_enqueue(budget: Duration, regime: &str) -> f64 {
    const BUFFER: u64 = 120_000;
    const K: u64 = 60_000;
    let cfg = SwitchConfig::dctcp(BUFFER, K);
    let mut q: PrioQueues<NoPayload> = PrioQueues::new();
    let mut counters = PortCounters::default();
    let backlog = match regime {
        "under" => 0,
        "mark" => K + 15_000,
        _ => BUFFER,
    };
    let mut next = 0u64;
    while q.total_bytes() + 1500 <= backlog {
        q.push(packet(next, 0));
        next += 1;
    }
    let ns = ns_per_op(budget, 50_000, |ops| {
        for _ in 0..ops {
            next += 1;
            let outcome = enqueue_policy(&cfg, &mut q, &mut counters, packet(next, 0));
            if matches!(outcome, ppt::netsim::EnqueueOutcome::Queued { .. }) {
                black_box(q.pop());
            }
        }
    });
    match regime {
        "under" => assert_eq!(counters.marked + counters.dropped, 0, "under: marked or dropped"),
        "mark" => assert!(counters.marked > 0 && counters.dropped == 0, "mark: {counters:?}"),
        _ => assert!(counters.dropped > 0 && counters.enqueued == 0, "full: {counters:?}"),
    }
    ns
}

// ------------------------------------------------------------ transports

const SEG: u64 = MSS_BYTES as u64;

/// In-order reassembly: each insert extends the single covered prefix.
fn interval_inorder(budget: Duration) -> f64 {
    ns_per_op(budget, 2_000, |ops| {
        let mut set = IntervalSet::new();
        for i in 0..ops {
            set.insert(i * SEG, (i + 1) * SEG);
        }
        assert_eq!(set.range_count(), 1);
    })
}

/// PPT's dual-loop pattern: HCP fills from the head while LCP sends from
/// the tail, and every eighth tail segment is lost, so the set fragments.
fn interval_tailfirst(budget: Duration) -> f64 {
    ns_per_op(budget, 2_000, |ops| {
        let mut set = IntervalSet::new();
        let total = ops;
        for i in 0..ops / 2 {
            set.insert(i * SEG, (i + 1) * SEG);
            let tail = total - 1 - i;
            if tail % 8 != 0 {
                set.insert(tail * SEG, (tail + 1) * SEG);
            }
        }
        assert!(set.range_count() > 8);
    })
}

/// `first_gap` on a scoreboard with every other segment missing.
fn first_gap_fragmented(budget: Duration) -> f64 {
    let mut set = IntervalSet::new();
    let segments = 1_000u64;
    for i in (0..segments).step_by(2) {
        set.insert(i * SEG, (i + 1) * SEG);
    }
    let limit = segments * SEG;
    ns_per_op(budget, 20_000, |ops| {
        for i in 0..ops {
            black_box(set.first_gap((i % segments) * SEG, limit));
        }
    })
}

fn scheme_of(id: &str) -> Scheme {
    match id {
        "dctcp" => Scheme::Dctcp,
        "ppt" => Scheme::Ppt,
        "hpcc" => Scheme::Hpcc,
        "powertcp" => Scheme::PowerTcp,
        "swift" => Scheme::Swift,
        "ndp" => Scheme::Ndp,
        "homa" => Scheme::Homa,
        other => panic!("no kernel for scheme {other}"),
    }
}

/// One long flow between two hosts on one switch: the engine does the
/// same work per packet whatever the scheme, so the difference between
/// schemes *is* the transport. Returns `(ns per packet, events per
/// packet)`.
fn scheme_per_packet(budget: Duration, id: &str, bytes: u64) -> (f64, f64) {
    let topo = TopoKind::Star { n: 2, rate_gbps: 10, delay_us: 20 };
    let flow = FlowSpec {
        src: 0,
        dst: 1,
        size_bytes: bytes,
        start: SimTime::ZERO,
        first_write_bytes: bytes,
    };
    let exp = Experiment::new(topo, scheme_of(id), vec![flow]);
    let packets = bytes.div_ceil(SEG);
    let mut events = 0u64;
    let ns = ns_per_op(budget, packets, |_| {
        let outcome = run_experiment(&exp);
        assert_eq!(outcome.report.flows_completed, 1, "{id}: long flow did not complete");
        events = outcome.report.events;
    });
    (ns, events as f64 / packets as f64)
}

// ------------------------------------------------------------------ core

fn core_alpha_round(budget: Duration) -> f64 {
    let mut est = AlphaEstimator::new(DEFAULT_G);
    ns_per_op(budget, 20_000, |ops| {
        for i in 0..ops {
            for k in 0..10 {
                est.on_ack(SEG, if (i + k) % 3 == 0 { SEG } else { 0 });
            }
            black_box(est.end_of_round());
        }
    })
}

fn core_min_tracker(budget: Duration) -> f64 {
    let mut tracker = MinTracker::new(ppt::core::DEFAULT_MIN_WINDOW);
    let mut rng = Pcg32::seed_from_u64(1);
    ns_per_op(budget, 100_000, |ops| {
        for _ in 0..ops {
            black_box(tracker.push(rng.next_f64()));
        }
    })
}

fn core_ack_clock(budget: Duration) -> f64 {
    let mut clock = LcpAckClock::new();
    ns_per_op(budget, 200_000, |ops| {
        for i in 0..ops {
            black_box(clock.on_data(i % 7 == 0));
        }
    })
}

fn core_tagger(budget: Duration) -> f64 {
    let tagger = MirrorTagger::default();
    ns_per_op(budget, 200_000, |ops| {
        for i in 0..ops {
            let sent = black_box(i * 4_096 % 2_000_000);
            black_box(tagger.hcp_priority(i % 5 == 0, sent) + tagger.lcp_priority(false, sent));
        }
    })
}

// ------------------------------------------------- trace, workloads, stats

fn small_star(flows: usize, scheme: Scheme) -> Experiment {
    let topo = TopoKind::Star { n: 8, rate_gbps: 10, delay_us: 20 };
    let spec = WorkloadSpec::new(SizeDistribution::web_search(), 0.5, topo.edge_rate(), flows, 42);
    Experiment::new(topo, scheme, all_to_all(topo.hosts(), &spec))
}

/// Events of a real traced PPT run, to encode again and again.
fn captured_events(flows: usize) -> Vec<(u64, TraceEvent)> {
    let (_, trace) = run_experiment_traced(&small_star(flows, Scheme::Ppt));
    let mut events = trace.events;
    events.truncate(50_000);
    assert!(!events.is_empty(), "traced run emitted no events");
    events
}

fn trace_encode_line(budget: Duration, events: &[(u64, TraceEvent)]) -> f64 {
    let mut out = String::new();
    ns_per_op(budget, events.len() as u64, |_| {
        out.clear();
        for (at, ev) in events {
            encode_line(&mut out, *at, ev);
            out.push('\n');
        }
        black_box(out.len());
    })
}

fn trace_hist_record(budget: Duration) -> f64 {
    let mut hist = LogHistogram::new();
    let mut rng = Pcg32::seed_from_u64(2);
    ns_per_op(budget, 200_000, |ops| {
        for _ in 0..ops {
            hist.record(rng.next_u64() >> 40);
        }
        black_box(hist.count());
    })
}

fn workloads_sample(budget: Duration) -> f64 {
    let dist = SizeDistribution::web_search();
    let mut rng = Pcg32::seed_from_u64(3);
    ns_per_op(budget, 100_000, |ops| {
        for _ in 0..ops {
            black_box(dist.sample(&mut rng));
        }
    })
}

fn workloads_generate(budget: Duration) -> f64 {
    const FLOWS: usize = 5_000;
    let spec = WorkloadSpec::new(
        SizeDistribution::web_search(),
        0.5,
        ppt::netsim::Rate::gbps(40),
        FLOWS,
        4,
    );
    ns_per_op(budget, FLOWS as u64, |_| {
        black_box(all_to_all(144, &spec).len());
    })
}

fn stats_summary(budget: Duration) -> f64 {
    const FLOWS: u64 = 5_000;
    let dist = SizeDistribution::web_search();
    let mut rng = Pcg32::seed_from_u64(5);
    let mut stats = FctStats::new();
    for _ in 0..FLOWS {
        let size = dist.sample(&mut rng);
        stats.push(size, SimTime::ZERO, SimTime(size * 2 + rng.gen_range(100_000)));
    }
    ns_per_op(budget, FLOWS, |_| {
        black_box(stats.summary());
    })
}

// ------------------------------------------------------- whole-run ratios

/// Sanitizer and telemetry overheads as medians of within-round ratios
/// against that round's plain run, with the in-round order rotating —
/// `bench_engine`'s method: back-to-back blocks drift with the machine
/// and have produced impossible sub-1.0 overheads.
fn observer_overheads(b: &KernelBudget) -> (f64, f64) {
    let exp = small_star(b.overhead_flows, Scheme::Dctcp);
    let run = |variant: usize| {
        let t0 = Instant::now();
        let outcome = run_experiment_with(&exp, |t| match variant {
            1 => t.sim.set_sanitizer(SanLevel::PerEpoch),
            2 => t.sim.enable_telemetry(TelemetryConfig::new(SimDuration::from_micros(10))),
            _ => {}
        });
        assert!(outcome.sim.san_violations().is_empty(), "kernel scenario violates an invariant");
        t0.elapsed().as_secs_f64()
    };
    let (mut san, mut tel) = (Vec::new(), Vec::new());
    for round in 0..b.rounds {
        let mut wall = [0.0f64; 3];
        for i in 0..3 {
            let slot = (round + i) % 3;
            wall[slot] = run(slot);
        }
        san.push(wall[1] / wall[0]);
        tel.push(wall[2] / wall[0]);
    }
    (median(&san), median(&tel))
}

/// Serial over parallel wall of an 8-point grid with one worker and with
/// as many as the machine has (informational on a shared box). Memcached
/// flows, so no point is one elephant and the eight cost about the same.
fn sweep_speedup(b: &KernelBudget) -> f64 {
    let grid = || {
        SweepSpec::new().grid(
            TopoKind::Star { n: 6, rate_gbps: 10, delay_us: 20 },
            &[Scheme::Ppt, Scheme::Dctcp],
            &SizeDistribution::memcached_w1(),
            &[0.4, 0.6],
            b.sweep_flows,
            &[42, 7],
        )
    };
    let time = |jobs: usize| {
        let t0 = Instant::now();
        assert_eq!(grid().jobs(jobs).run().len(), 8);
        t0.elapsed().as_secs_f64()
    };
    let serial = time(1);
    serial / time(procfs::nproc().max(2))
}

/// Spawn → exit of `pptlab schemes`: process start, argument parsing and
/// output, with no simulation at all.
pub fn pptlab_startup_ms(pptlab: &std::path::Path, spawns: usize) -> Result<f64, String> {
    let mut walls = Vec::new();
    for _ in 0..spawns.max(1) {
        let mut cmd = std::process::Command::new(pptlab);
        cmd.arg("schemes");
        let run = procfs::run_child(cmd).map_err(|e| format!("spawn pptlab: {e}"))?;
        if !run.status.success() {
            return Err(format!("`pptlab schemes` exited with {}", run.status));
        }
        walls.push(run.wall_s * 1e3);
    }
    Ok(median(&walls))
}

/// Run every kernel once and return `(metric name, value)` pairs.
pub fn run_all(b: &KernelBudget) -> Vec<(String, f64)> {
    let t = b.per_kernel;
    let mut out: Vec<(String, f64)> = Vec::new();
    let mut put = |name: &str, v: f64| out.push((name.to_string(), v));

    put("netsim.sched.hold_ns.occ64", sched_hold(t, 64, false));
    put("netsim.sched.hold_ns.occ4096", sched_hold(t, 4096, false));
    put("netsim.sched.far_ns", sched_hold(t, 4096, true));
    put("netsim.queue.push_pop_ns", queue_push_pop(t));
    for regime in ["under", "mark", "full"] {
        put(&format!("netsim.switch.enqueue_ns.{regime}"), switch_enqueue(t, regime));
    }
    put("transports.common.interval_insert_ns.inorder", interval_inorder(t));
    put("transports.common.interval_insert_ns.tailfirst", interval_tailfirst(t));
    put("transports.common.first_gap_ns.fragmented", first_gap_fragmented(t));
    for id in crate::metrics::KERNEL_SCHEMES {
        let (ns, events) = scheme_per_packet(t, id, b.long_flow_bytes);
        put(&format!("transports.{id}.ns_per_pkt"), ns);
        put(&format!("transports.{id}.events_per_pkt"), events);
    }
    put("core.alpha_round_ns", core_alpha_round(t));
    put("core.min_tracker_ns", core_min_tracker(t));
    put("core.ack_clock_ns", core_ack_clock(t));
    put("core.tagger_ns", core_tagger(t));
    let events = captured_events(b.overhead_flows.min(20));
    put("trace.encode_line_ns", trace_encode_line(t, &events));
    put("trace.hist_record_ns", trace_hist_record(t));
    put("workloads.sample_ns", workloads_sample(t));
    put("workloads.gen_ns_per_flow", workloads_generate(t));
    put("stats.fct.summary_ns_per_flow", stats_summary(t));
    let (san, tel) = observer_overheads(b);
    put("netsim.sanitizer.overhead_ratio", san);
    put("netsim.telemetry.overhead_ratio", tel);
    put("ppt.sweep.speedup_jobs2", sweep_speedup(b));
    out
}
