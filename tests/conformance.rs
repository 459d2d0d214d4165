//! Scheme conformance: one shared invariant battery that every registered
//! scheme must pass. New transports are covered by construction — add the
//! scheme to [`registered_schemes`] (a test below holds it against
//! `Scheme::all`) and the battery runs it through:
//!
//! 1. completion — every flow finishes and the run stops on its own;
//! 2. no starvation — every flow's FCT is positive and finite (no flow is
//!    parked until the wall clock rescues it);
//! 3. cumulative-ACK monotonicity — the run is sanitized, and simsan's
//!    ACK ledger checks every TCP-family `AckAdvance` note on observation
//!    (regressions are violations at any audit cadence), alongside the
//!    engine-side conservation ledger for the non-TCP schemes;
//! 4. digest stability — the per-flow FCT series is byte-identical across
//!    reruns, across `jobs = 1` vs `jobs = 4`, and across both event-queue
//!    implementations (calendar default vs the `BinaryHeap` oracle).

use ppt::harness::{run_experiment_with, Experiment, Scheme, TopoKind};
use ppt::netsim::{QueueKind, SanLevel, StopReason};
use ppt::sweep::run_points;
use ppt::workloads::{all_to_all, SizeDistribution, WorkloadSpec};

/// Every scheme the conformance battery gates: the paper's baselines plus
/// the ROADMAP additions, one entry per distinct transport. Ablation
/// variants (`ppt-no*`, fill/cap fractions) share their parent's code
/// paths; `Hypothetical` needs the two-pass oracle runner and has its own
/// determinism test.
fn registered_schemes() -> Vec<Scheme> {
    vec![
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
        Scheme::Hpcc,
        Scheme::Swift,
        Scheme::PowerTcp,
    ]
}

/// The shared workload: small enough that 13 schemes x several runs stay
/// test-tier, busy enough that scheduling, ECN/INT and retransmission
/// paths all fire.
fn experiment(scheme: Scheme) -> Experiment {
    let topo = TopoKind::Star { n: 5, rate_gbps: 10, delay_us: 20 };
    let spec = WorkloadSpec::new(SizeDistribution::web_search(), 0.5, topo.edge_rate(), 40, 42);
    let flows = all_to_all(topo.hosts(), &spec);
    Experiment::new(topo, scheme, flows)
}

/// One battery run: per-flow `(size, fct_ns)` series under the given
/// queue, optionally sanitized at the per-event cadence.
fn battery_run(scheme: Scheme, queue: QueueKind, sanitize: bool) -> Vec<(u64, u64)> {
    let name = scheme.name();
    let outcome = run_experiment_with(&experiment(scheme), |t| {
        t.sim.set_queue_kind(queue);
        if sanitize {
            // Per-epoch cadence: the ACK-monotonicity ledger is checked on
            // every note regardless of cadence; the epoch audit sweeps the
            // queue-accounting ledger often enough without per-event cost.
            t.sim.set_sanitizer(SanLevel::PerEpoch);
        }
    });

    // 1. completion: the run ends because the work is done, and every
    //    flow made it.
    assert_eq!(outcome.report.stop, StopReason::AllFlowsDone, "{name}: abnormal stop");
    assert_eq!(
        outcome.report.flows_completed, outcome.report.flows_total,
        "{name}: not all flows completed"
    );
    assert_eq!(outcome.completion_ratio, 1.0, "{name}: completion ratio");

    // 2. no starvation: every flow has a positive, finite FCT — nothing
    //    sat parked until a limit expired.
    let records = outcome.fct.records();
    assert_eq!(records.len(), outcome.report.flows_total, "{name}: missing FCT records");
    for r in records {
        let fct = r.fct.as_nanos();
        assert!(fct > 0, "{name}: zero FCT for a {}B flow", r.size_bytes);
        assert!(
            fct < outcome.report.end_time.0,
            "{name}: flow starved ({}B took {fct} ns)",
            r.size_bytes
        );
    }

    // 3. cumulative-ACK monotonicity (and the rest of the simsan ledger):
    //    the per-event audit saw every AckAdvance note.
    assert!(
        outcome.sim.san_violations().is_empty(),
        "{name}: sanitizer violations {:?}",
        outcome.sim.san_violations()
    );

    records.iter().map(|r| (r.size_bytes, r.fct.as_nanos())).collect()
}

/// The full battery, scheme by scheme. Digest stability leg: the sanitized
/// calendar run, the plain calendar rerun, and the heap-oracle run must
/// produce byte-identical per-flow FCT series (this also re-proves that
/// the sanitizer and the queue implementation are both invisible).
#[test]
fn every_registered_scheme_passes_the_battery() {
    for scheme in registered_schemes() {
        let name = scheme.name();
        let sanitized = battery_run(scheme.clone(), QueueKind::Calendar, true);
        let plain = battery_run(scheme.clone(), QueueKind::Calendar, false);
        assert_eq!(sanitized, plain, "{name}: FCTs changed across reruns / under simsan");
        let heap = battery_run(scheme, QueueKind::Heap, false);
        assert_eq!(plain, heap, "{name}: FCTs differ between calendar and heap queues");
    }
}

/// Worker-count leg: running the whole registry through the shared sweep
/// runner on one worker and on four must give identical FCT series per
/// scheme. Workers only partition the scheme list — per-run state lives in
/// each `Simulator` — so any divergence here is shared mutable state.
#[test]
fn battery_results_are_identical_for_jobs_1_and_4() {
    let schemes = registered_schemes();
    let digests = |jobs: usize| {
        run_points(schemes.len(), jobs, |i| {
            battery_run(schemes[i].clone(), QueueKind::Calendar, false)
        })
    };
    let serial = digests(1);
    let parallel = digests(4);
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(s, p, "{}: diverged between jobs=1 and jobs=4", schemes[i].name());
    }
}

/// The registry above and the harness's own scheme list (`Scheme::all`)
/// cannot drift: any scheme the harness knows must be here (ablation
/// variants map to their parent transport), so adding a transport without
/// conformance coverage fails this test, not code review.
#[test]
fn registry_covers_every_harness_scheme_family() {
    let covered = registered_schemes();
    let family_of = |s: &Scheme| -> Scheme {
        match s {
            Scheme::PptNoLcpEcn
            | Scheme::PptNoEwd
            | Scheme::PptNoScheduling
            | Scheme::PptNoIdentification
            | Scheme::PptFill(_) => Scheme::Ppt,
            Scheme::Rc3BufferCap(_) => Scheme::Rc3,
            // Layered variants ride on their base transport's battery
            // coverage plus their own dedicated tests.
            Scheme::HpccPpt => Scheme::Hpcc,
            Scheme::SwiftPpt => Scheme::Swift,
            Scheme::Hypothetical(_) => Scheme::Dctcp,
            other => other.clone(),
        }
    };
    for scheme in &Scheme::all() {
        let fam = family_of(scheme);
        assert!(
            covered.contains(&fam),
            "{} (family {}) is not covered by the conformance registry",
            scheme.name(),
            fam.name()
        );
    }
}
