//! Observability layer: trace determinism, the paper's LCP invariants as
//! seen through the event stream, the zero-cost disabled path, and
//! abnormal-stop reporting.

use ppt::harness::{
    collect_metrics, run_experiment, run_experiment_traced, Experiment, Scheme, TopoKind,
};
use ppt::netsim::{SimTime, StopReason, TraceEvent};
use ppt::stats::analyze_lcp;
use ppt::workloads::{all_to_all, SizeDistribution, WorkloadSpec};

fn websearch_experiment(seed: u64, flows: usize, load: f64) -> Experiment {
    let topo = TopoKind::Star { n: 5, rate_gbps: 10, delay_us: 20 };
    let spec =
        WorkloadSpec::new(SizeDistribution::web_search(), load, topo.edge_rate(), flows, seed);
    Experiment::new(topo, Scheme::Ppt, all_to_all(topo.hosts(), &spec))
}

/// Same seed ⇒ byte-identical events.jsonl, twice in the same process.
#[test]
fn traced_websearch_run_is_byte_identical() {
    let (_, first) = run_experiment_traced(&websearch_experiment(42, 50, 0.5));
    let (_, second) = run_experiment_traced(&websearch_experiment(42, 50, 0.5));
    let a = first.to_jsonl();
    assert!(!a.is_empty(), "traced run produced no events");
    assert_eq!(a, second.to_jsonl(), "event stream is nondeterministic");
    assert!(a.contains(r#""ev":"lcp_opened""#), "PPT run never opened an LCP loop");
    assert!(a.contains(r#""ev":"flow_complete""#));
    // Every line is one JSON object with the shared prefix.
    for line in a.lines() {
        assert!(line.starts_with(r#"{"at":"#) && line.ends_with('}'), "bad line: {line}");
    }
}

/// Every packet a switch loses is in the stream: with tenth-size buffers,
/// each scheme's `drop` and `evict` lines add up to its switches' dropped
/// count, and the `evict` lines alone to its push-out evictions.
#[test]
fn every_switch_loss_is_a_drop_or_an_evict_line() {
    let (mut drops, mut evicts) = (0, 0);
    for scheme in Scheme::all() {
        let mut exp = websearch_experiment(42, 40, 0.6);
        exp.scheme = scheme.clone();
        exp.env = exp.env.scale_buffers(0.1);
        let (outcome, data) = run_experiment_traced(&exp);
        let lines = |kind| data.events.iter().filter(|(_, ev)| ev.kind() == kind).count() as u64;
        let (c, name) = (&outcome.counters, scheme.name());
        assert_eq!(lines("drop") + lines("evict"), c.dropped, "{name}: a loss left no line");
        assert_eq!(lines("evict"), c.evicted, "{name}");
        (drops, evicts) = (drops + lines("drop"), evicts + lines("evict"));
    }
    assert!(
        drops > 0 && evicts > 0,
        "the workload must overflow: {drops} drops, {evicts} evictions"
    );
}

/// Tracing must not perturb the simulation: the traced and untraced runs
/// of one experiment report identical results.
#[test]
fn tracing_does_not_change_the_run() {
    let plain = run_experiment(&websearch_experiment(7, 40, 0.5));
    let (traced, data) = run_experiment_traced(&websearch_experiment(7, 40, 0.5));
    assert!(!data.events.is_empty());
    assert_eq!(plain.report.events, traced.report.events);
    assert_eq!(plain.report.end_time, traced.report.end_time);
    assert_eq!(plain.report.flows_completed, traced.report.flows_completed);
    let fcts = |o: &ppt::harness::Outcome| -> Vec<(u64, u64)> {
        o.fct.records().iter().map(|r| (r.size_bytes, r.fct.as_nanos())).collect()
    };
    assert_eq!(fcts(&plain), fcts(&traced));
}

/// The disabled path really is disabled: a raw simulator without a sink
/// reports no tracing and yields no sink to take.
#[test]
fn no_sink_means_no_trace() {
    use ppt::netsim::{star, Rate, RunLimits, SimDuration, StopReason, SwitchConfig};
    use ppt::transports::{install, DctcpHcp, DctcpTransport, Proto, TcpCfg};
    let mut topo = star::<Proto>(
        3,
        Rate::gbps(10),
        SimDuration::from_micros(20),
        SwitchConfig::dctcp(200_000, 30_000),
    );
    let cfg = TcpCfg::new(topo.base_rtt);
    install(&mut topo, || DctcpTransport::new(cfg.clone(), DctcpHcp, ()));
    topo.sim.add_flow(topo.hosts[0], topo.hosts[2], 500_000, SimTime::ZERO, 1);
    assert!(!topo.sim.trace_enabled());
    let report = topo.sim.run(RunLimits { max_time: SimTime(20_000_000), max_events: 4_100 });
    assert_eq!((report.stop, report.flows_completed), (StopReason::AllFlowsDone, 1));
    assert!(topo.sim.take_trace_sink().is_none());
}

/// §4.2: the LCP never reacts to its own congestion signal — an
/// ECE-marked LCP ACK must not trigger a new packet.
#[test]
fn ece_marked_lcp_acks_are_ignored() {
    let (_, data) = run_experiment_traced(&websearch_experiment(42, 80, 0.8));
    let mut acks = 0usize;
    let mut ece = 0usize;
    for (_, ev) in &data.events {
        if let TraceEvent::LcpAck { ece: marked, sent_new, .. } = *ev {
            acks += 1;
            if marked {
                ece += 1;
                assert!(!sent_new, "an ECE-marked LCP ACK triggered a new packet");
            }
        }
    }
    assert!(acks > 0, "no LCP ACKs in a websearch PPT run");
    // The analyzer must agree with the raw scan.
    let rtt = TopoKind::Star { n: 5, rate_gbps: 10, delay_us: 20 }.base_rtt();
    let report = analyze_lcp(&data.events, rtt);
    assert_eq!(report.lcp_acks, acks);
    assert_eq!(report.ece_acks, ece);
    assert_eq!(report.ece_ignored, ece, "analyzer saw a reacted-to ECE ack");
}

/// The trigger × close-reason table accounts for every loop and every
/// LCP send of a run exactly once.
#[test]
fn lcp_cause_table_accounts_for_every_loop_and_send() {
    let (_, data) = run_experiment_traced(&websearch_experiment(42, 60, 0.6));
    let rtt = TopoKind::Star { n: 5, rate_gbps: 10, delay_us: 20 }.base_rtt();
    let report = analyze_lcp(&data.events, rtt);
    let cells = || report.by_cause.iter().flatten();
    let sends = data.events.iter().filter(|(_, ev)| matches!(ev, TraceEvent::LcpSend { .. }));
    assert!(!report.loops.is_empty(), "PPT run never opened an LCP loop");
    assert_eq!(cells().map(|c| c.loops).sum::<usize>(), report.loops.len());
    assert_eq!(cells().map(|c| c.sends).sum::<usize>(), sends.count());
    assert!(report.render().contains("by trigger x close"), "{}", report.render());
}

/// Fig 16's mechanism: with EWD on, the LCP send volume roughly halves
/// each RTT.
#[test]
fn ewd_halves_the_per_rtt_lcp_send_volume() {
    let topo = TopoKind::Star { n: 3, rate_gbps: 10, delay_us: 20 };
    let spec = WorkloadSpec::new(SizeDistribution::web_search(), 0.3, topo.edge_rate(), 1, 9);
    let mut flows = all_to_all(topo.hosts(), &spec);
    // One large flow: big enough for a multi-RTT first-window LCP.
    flows.truncate(1);
    flows[0].size_bytes = 2_000_000;
    flows[0].first_write_bytes = flows[0].size_bytes;
    let (_, data) = run_experiment_traced(&Experiment::new(topo, Scheme::Ppt, flows));
    let report = analyze_lcp(&data.events, topo.base_rtt());
    assert!(report.opened_flow_start >= 1, "case-1 loop never opened");
    assert!(report.ewd_ratios >= 1, "no consecutive RTT windows with LCP traffic");
    assert!(
        report.ewd_halving_ratio > 0.25 && report.ewd_halving_ratio < 0.75,
        "per-RTT send ratio {} is not ≈ 0.5",
        report.ewd_halving_ratio
    );
}

/// The layered variants are observable through the same lens as PPT:
/// their loops appear in the event stream with a trigger and a close
/// reason, and case 2 is labelled as such (delay- and U-triggered opens
/// are not flow-start opens). And telemetry sees the windows of every
/// scheme built on `DctcpFlowTx`, layered or not.
#[test]
fn layered_variants_expose_their_lcp_loops_and_windows() {
    use ppt::harness::TelemetrySpec;
    use ppt::netsim::SimDuration;
    let schemes = [
        Scheme::SwiftPpt,
        Scheme::HpccPpt,
        Scheme::Ppt,
        Scheme::Dctcp,
        Scheme::Hpcc,
        Scheme::PowerTcp,
        Scheme::Swift,
        Scheme::Pias,
        Scheme::Rc3,
        Scheme::Hypothetical(1.0),
    ];
    for scheme in schemes {
        let name = scheme.name();
        let layered = matches!(scheme, Scheme::SwiftPpt | Scheme::HpccPpt);
        let mut exp = websearch_experiment(42, 60, 0.5)
            .with_telemetry(TelemetrySpec::new(SimDuration::from_micros(10)));
        exp.scheme = scheme;
        let (outcome, data) = run_experiment_traced(&exp);
        assert_eq!(outcome.report.stop, StopReason::AllFlowsDone, "{name}");
        if layered {
            let report = analyze_lcp(&data.events, exp.topo.base_rtt());
            assert!(!report.loops.is_empty(), "{name}: no LCP loop in the trace");
            assert!(report.opened_queue_buildup >= 1, "{name}: no case-2 open");
            assert_eq!(report.still_open, 0, "{name}: a loop outlived its flow");
            assert!(
                report.loops.iter().all(|l| l.close_reason.is_some()),
                "{name}: a loop closed without a reason"
            );
            assert!(report.lcp_acks > 0, "{name}: no LCP ACK events");
        }
        let telemetry = outcome.sim.telemetry().expect("telemetry enabled");
        for series in ["cc.cwnd_bytes", "cc.inflight_bytes"] {
            let s = telemetry.series_named(series).expect(series);
            assert!(s.points().any(|p| p.value > 0.0), "{name}: {series} is flat zero");
        }
    }
}

/// `LcpFold` fed live beside the run equals `analyze_lcp` over the stream
/// that run captured, on each HCP the one LCP policy rides beside; and a
/// sink teed beside the fold captures the traced door's stream.
#[test]
fn lcp_fold_fed_live_equals_the_analysis_of_the_captured_stream() {
    use ppt::harness::run_experiment_into;
    use ppt::stats::LcpFold;
    use ppt::trace::MemorySink;
    for scheme in [Scheme::Ppt, Scheme::SwiftPpt, Scheme::HpccPpt] {
        let name = scheme.name();
        let mut exp = websearch_experiment(42, 60, 0.5);
        exp.scheme = scheme;
        let rtt = exp.topo.base_rtt();
        let (_, (captured, fold)) =
            run_experiment_into(&exp, (MemorySink::new(), LcpFold::default()));
        let live = fold.finish(rtt);
        assert!(!live.loops.is_empty() && live.lcp_acks > 0, "{name}: no LCP activity");
        let after = analyze_lcp(captured.events(), rtt);
        assert_eq!(format!("{live:?}"), format!("{after:?}"), "{name}");
        assert_eq!(captured.events(), run_experiment_traced(&exp).1.events(), "{name}");
    }
}

/// Stop reasons: a run cut short by `max_time` reports `MaxTime` and is
/// abnormal; a completed run reports `AllFlowsDone` and is not.
#[test]
fn stop_reasons_classify_runs() {
    let normal = run_experiment(&websearch_experiment(3, 20, 0.3));
    assert_eq!(normal.report.stop, StopReason::AllFlowsDone);
    assert!(!normal.report.is_abnormal());

    let mut exp = websearch_experiment(3, 20, 0.3);
    exp.max_time = SimTime(1_000); // 1µs: nothing can finish
    let cut = run_experiment(&exp);
    assert_eq!(cut.report.stop, StopReason::MaxTime);
    assert!(cut.report.is_abnormal());
    assert!(cut.report.flows_completed < cut.report.flows_total);
}

/// The metrics registry distills a run deterministically.
#[test]
fn metrics_cover_engine_flows_and_switches() {
    let outcome = run_experiment(&websearch_experiment(42, 30, 0.4));
    let m = collect_metrics(&outcome);
    assert_eq!(m.counter("flows.total"), outcome.report.flows_total as u64);
    assert_eq!(m.counter("flows.completed"), outcome.report.flows_completed as u64);
    assert_eq!(m.counter("engine.events"), outcome.report.events);
    assert_eq!(m.counter("engine.stop.all_flows_done"), 1);
    assert!(m.counter("switch.total.enqueued") > 0);
    assert!(m.counter("links.tx_bytes") > 0);
    let json = m.to_json();
    assert!(json.starts_with('{') && json.trim_end().ends_with('}'));
    assert!(json.contains("\"counters\"") && json.contains("\"gauges\""));

    let again = collect_metrics(&run_experiment(&websearch_experiment(42, 30, 0.4)));
    assert_eq!(json, again.to_json(), "metrics are nondeterministic");
}
