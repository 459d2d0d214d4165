//! simsan selftest suite: every corruption class the runtime invariant
//! sanitizer (DESIGN.md §13) promises to catch must actually be caught —
//! with the right violation kind — and a fully sanitized run must be
//! byte-identical to an unsanitized one (zero observer effect).
//!
//! The corruption hooks are compiled behind netsim's `simsan-selftest`
//! feature (enabled here via ppt's dev-dependencies); release builds
//! never contain them.

use ppt::harness::{
    run_experiment_traced, run_experiment_traced_with, run_experiment_with, Experiment, Scheme,
    TopoKind,
};
use ppt::netsim::{
    FaultSchedule, FlowId, HostId, RunLimits, SanLevel, SanViolation, SimTime, Simulator,
    StopReason,
};
use ppt::trace::SanCheck;
use ppt::transports::Proto;
use ppt::workloads::{all_to_all, SizeDistribution, WorkloadSpec};

// Small on purpose: this suite runs ~36 full experiments (two per scheme
// for byte-identity, two per corruption class) on a debug build, so the
// scenario is sized to still exercise queue contention and ECN marking at
// load 0.5 while keeping the whole file in tier-1 time budget.
fn small_exp(scheme: Scheme, seed: u64) -> Experiment {
    let topo = TopoKind::Star { n: 5, rate_gbps: 10, delay_us: 20 };
    let spec = WorkloadSpec::new(SizeDistribution::web_search(), 0.5, topo.edge_rate(), 15, seed);
    Experiment::new(topo, scheme, all_to_all(topo.hosts(), &spec))
}

/// The small PPT experiment the corruption classes are seeded into.
fn ppt() -> Experiment {
    small_exp(Scheme::Ppt, 11)
}

/// Run `exp` with the sanitizer on at its default per-epoch cadence,
/// verify the clean run is violation-free, corrupt the quiescent simulator
/// through a selftest hook, run again, and return what the sanitizer
/// reported. Per-epoch is enough for every corruption class: the pop-path
/// checks (tie-break, phantom TxDone) observe every event regardless of
/// cadence, and the ledger classes are caught by the end-of-run audit that
/// every level performs.
fn corrupted_run(
    exp: Experiment,
    corrupt: impl FnOnce(&mut Simulator<Proto>),
) -> (StopReason, Vec<SanViolation>) {
    let outcome = run_experiment_with(&exp, |t| t.sim.set_sanitizer(SanLevel::PerEpoch));
    assert_eq!(outcome.report.stop, StopReason::AllFlowsDone, "clean run must finish");
    assert!(outcome.sim.san_violations().is_empty(), "clean run must be violation-free");
    let mut sim = outcome.sim;
    corrupt(&mut sim);
    // About twice the events and time the clean run took; the corrupted
    // resume stops long before.
    let report = sim.run(RunLimits { max_time: SimTime(100_000_000), max_events: 135_000 });
    (report.stop, sim.san_violations().to_vec())
}

fn assert_caught(stop: StopReason, violations: &[SanViolation], check: SanCheck) {
    assert_eq!(stop, StopReason::SanViolation, "corruption must abort the run: {violations:?}");
    assert!(
        violations.iter().any(|v| v.check == check),
        "expected a {} violation, got {violations:?}",
        check.as_str()
    );
}

#[test]
fn pool_leak_is_caught() {
    let (stop, v) = corrupted_run(ppt(), |sim| sim.corrupt_pool_leak());
    assert_caught(stop, &v, SanCheck::PoolConservation);
}

#[test]
fn pool_double_free_is_caught() {
    let (stop, v) = corrupted_run(ppt(), |sim| sim.corrupt_pool_double_free());
    assert_caught(stop, &v, SanCheck::PoolConservation);
}

#[test]
fn tie_break_reorder_is_caught() {
    let (stop, v) = corrupted_run(ppt(), |sim| sim.corrupt_tie_break());
    assert_caught(stop, &v, SanCheck::TieBreak);
}

/// A queue that loses an entry: the run is stopped with events queued,
/// the hook discards the front one, and the resumed run's first pop is not
/// the least key simsan saw pushed.
#[test]
fn lost_queue_entry_is_caught() {
    let mut exp = ppt();
    exp.max_time = SimTime(200_000);
    let (outcome, _) =
        run_experiment_traced_with(&exp, |t| t.sim.set_sanitizer(SanLevel::PerEpoch));
    assert_eq!(outcome.report.stop, StopReason::MaxTime, "the run must stop with work queued");
    assert!(outcome.sim.san_violations().is_empty(), "clean run must be violation-free");
    let mut sim = outcome.sim;
    sim.corrupt_queue_loss();
    let report = sim.run(RunLimits { max_time: SimTime(6_000_000), max_events: 8_200 });
    assert_caught(report.stop, sim.san_violations(), SanCheck::EventOrder);
}

#[test]
fn queue_counter_skew_is_caught() {
    let (stop, v) = corrupted_run(ppt(), |sim| sim.corrupt_queue_counter(HostId(0), 512));
    assert_caught(stop, &v, SanCheck::QueueAccounting);
}

#[test]
fn phantom_tx_done_is_caught() {
    let (stop, v) = corrupted_run(ppt(), |sim| sim.corrupt_phantom_tx_done(HostId(0)));
    assert_caught(stop, &v, SanCheck::LinkOccupancy);
}

#[test]
fn second_live_rto_timer_is_caught() {
    let (stop, v) = corrupted_run(ppt(), |sim| sim.corrupt_rto_double_arm(FlowId(0)));
    assert_caught(stop, &v, SanCheck::TransportConservation);
}

#[test]
fn unattributed_fault_drop_is_caught() {
    let (stop, v) =
        corrupted_run(ppt().with_faults(FaultSchedule::new(3).with_data_loss(0.01)), |sim| {
            sim.corrupt_fault_attribution()
        });
    assert_caught(stop, &v, SanCheck::FaultAttribution);
}

/// An ingress account booked one MTU that no queued packet makes up: the
/// recount of queued packets by their `ingress` stamp catches it — and
/// nothing else does, since one MTU is below XOFF and the headroom.
#[test]
fn pfc_state_out_of_step_is_caught() {
    let mut exp = ppt();
    exp.env.pfc = true;
    let (stop, v) = corrupted_run(exp, |sim| sim.corrupt_pfc_state());
    assert_caught(stop, &v, SanCheck::PfcState);
    let got: Vec<_> = v.iter().map(|v| (v.check, v.subject, v.expected, v.actual)).collect();
    let port0 = 1 << 32; // switch 0, port 0
    assert_eq!(got, [(SanCheck::PfcState, port0, 0, 1_500)]);
}

/// A window sender is retired by the ACK that finishes it, nearly always
/// with its RTO timer still in the event queue (a Memcached flow is done
/// long before a timeout could fire). Retiring must tell the ledger the
/// timer is given up, and its fire must then be dropped without a word: a
/// sender that skips the first leaves one timer held per flow at the
/// end-of-run audit, one that skips the second disarms a timer the ledger
/// no longer knows. Every event is audited.
#[test]
fn retired_senders_leave_the_rto_ledger_balanced() {
    for scheme in [Scheme::Ppt, Scheme::Dctcp] {
        let name = scheme.name();
        let topo = TopoKind::Star { n: 5, rate_gbps: 10, delay_us: 20 };
        let dist = SizeDistribution::memcached_w1();
        let spec = WorkloadSpec::new(dist, 0.5, topo.edge_rate(), 300, 11);
        let exp = Experiment::new(topo, scheme, all_to_all(topo.hosts(), &spec));
        let outcome = run_experiment_with(&exp, |t| t.sim.set_sanitizer(SanLevel::PerEvent));
        assert_eq!(outcome.report.stop, StopReason::AllFlowsDone, "{name}: the queue must drain");
        assert_eq!(outcome.report.flows_completed, 300, "{name}");
        assert!(
            outcome.sim.san_violations().is_empty(),
            "{name}: no timer may be held, or disarmed twice: {:?}",
            outcome.sim.san_violations()
        );
    }
}

/// Zero observer effect, across every transport family: a sanitized run
/// (per-epoch, the recommended/CI cadence) must produce a byte-identical
/// event stream and identical per-flow FCTs to the same run unsanitized —
/// and must still complete every scheme normally. Per-event invisibility
/// is covered (for PPT) by `all_cadences_are_invisible_for_ppt`; a debug
/// per-event audit over ten schemes is too slow for the tier-1 suite.
#[test]
fn sanitized_runs_are_byte_identical_across_schemes() {
    let schemes = [
        Scheme::Dctcp,
        Scheme::Tcp10,
        Scheme::Halfback,
        Scheme::ExpressPass,
        Scheme::Ppt,
        Scheme::Rc3,
        Scheme::Pias,
        Scheme::Homa,
        Scheme::Aeolus,
        Scheme::Ndp,
    ];
    for scheme in schemes {
        let name = scheme.name();
        let (plain_outcome, plain_trace) = run_experiment_traced(&small_exp(scheme.clone(), 11));
        let (san_outcome, san_trace) = run_experiment_traced_with(&small_exp(scheme, 11), |t| {
            t.sim.set_sanitizer(SanLevel::PerEpoch)
        });

        assert_eq!(
            san_outcome.report.stop,
            StopReason::AllFlowsDone,
            "{name}: sanitized run must complete normally"
        );
        assert!(
            san_outcome.sim.san_violations().is_empty(),
            "{name}: clean run must be violation-free: {:?}",
            san_outcome.sim.san_violations()
        );
        assert_eq!(
            plain_trace.to_jsonl(),
            san_trace.to_jsonl(),
            "{name}: sanitizer perturbed the event stream"
        );
        let fcts = |o: &ppt::harness::Outcome| -> Vec<(u64, u64)> {
            o.fct.records().iter().map(|r| (r.size_bytes, r.fct.as_nanos())).collect()
        };
        assert_eq!(fcts(&plain_outcome), fcts(&san_outcome), "{name}: sanitizer perturbed FCTs");
        assert_eq!(
            plain_outcome.report.events, san_outcome.report.events,
            "{name}: sanitizer changed the event count"
        );
    }
}

/// The epoch and at-end cadences must be equally invisible (they share
/// the observation path and differ only in audit frequency).
#[test]
fn all_cadences_are_invisible_for_ppt() {
    let (_, plain) = run_experiment_traced(&small_exp(Scheme::Ppt, 11));
    for level in [SanLevel::PerEvent, SanLevel::PerEpoch, SanLevel::AtEnd] {
        let (outcome, trace) =
            run_experiment_traced_with(&small_exp(Scheme::Ppt, 11), |t| t.sim.set_sanitizer(level));
        assert_eq!(outcome.report.stop, StopReason::AllFlowsDone);
        assert_eq!(
            plain.to_jsonl(),
            trace.to_jsonl(),
            "cadence {level:?} perturbed the event stream"
        );
    }
}
