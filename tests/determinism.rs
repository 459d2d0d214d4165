//! Reproducibility: identical seeds must give bit-identical results, and
//! different seeds must actually differ. Every number in EXPERIMENTS.md
//! rests on this property.

use ppt::harness::{run_experiment, Experiment, Scheme, TopoKind};
use ppt::workloads::{all_to_all, SizeDistribution, WorkloadSpec};

fn fcts(scheme: Scheme, seed: u64) -> Vec<(u64, u64)> {
    let topo = TopoKind::Star { n: 5, rate_gbps: 10, delay_us: 20 };
    let spec = WorkloadSpec::new(SizeDistribution::web_search(), 0.5, topo.edge_rate(), 50, seed);
    let flows = all_to_all(topo.hosts(), &spec);
    let outcome = run_experiment(&Experiment::new(topo, scheme, flows));
    outcome.fct.records().iter().map(|r| (r.size_bytes, r.fct.as_nanos())).collect()
}

#[test]
fn same_seed_same_fcts_for_ppt() {
    assert_eq!(fcts(Scheme::Ppt, 42), fcts(Scheme::Ppt, 42));
}

#[test]
fn same_seed_same_fcts_for_every_family() {
    for scheme in [Scheme::Dctcp, Scheme::Rc3, Scheme::Homa, Scheme::Ndp, Scheme::Hpcc] {
        let name = scheme.name();
        assert_eq!(fcts(scheme.clone(), 7), fcts(scheme, 7), "{name} is nondeterministic");
    }
}

#[test]
fn different_seed_different_workload() {
    assert_ne!(fcts(Scheme::Ppt, 1), fcts(Scheme::Ppt, 2));
}

#[test]
fn two_pass_hypothetical_is_deterministic() {
    assert_eq!(fcts(Scheme::Hypothetical(1.0), 5), fcts(Scheme::Hypothetical(1.0), 5));
}

/// FNV-1a 64-bit: a tiny, dependency-free, stable digest for golden files.
fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The four pinned `(scheme, seed, trace digest, FCT digest)` goldens.
/// A plain run must reproduce these, and so must a sanitized one, whose
/// simsan checks every event-queue pop against the keys pushed — see
/// `pinned_seed_goldens_hold_on_the_heap_oracle_queue`.
///
/// The trace halves of the TCP-family goldens in this file were re-pinned
/// once, when a flow went from one RTO timer per pump to one live timer:
/// `TraceEvent::Timer` lines disappeared, every FCT half stayed the old
/// constant, and the NDP and Homa rows (no `tcp_base`; `TxDone` writes no
/// trace event) did not move — DESIGN.md §10.1 has the old → new table.
/// The NDP and Homa rows moved once, both halves, when every
/// receiver-driven sender got the retry (DESIGN.md §16): a sender its
/// receiver never answers probes it, and a completed receiver answers
/// `Done`.
const PINNED_GOLDENS: [(Scheme, u64, u64, u64); 4] = [
    (Scheme::Ppt, 42u64, 0xe9a4_e439_ac56_fe20_u64, 0x544f_c7e6_370c_f276_u64),
    (Scheme::Dctcp, 42, 0xf04a_9831_60e9_08d5, 0xdfbd_16a2_71d0_99be),
    (Scheme::Ndp, 7, 0x7acd_8402_dead_c899, 0xb3aa_baec_50cc_3ebd),
    (Scheme::Homa, 7, 0xc53b_7f40_97a1_92b5, 0x3dc3_da6d_a116_c414),
];

/// Install simsan at its per-epoch cadence when `sanitize` is set. Its
/// pop check (each pop the least key pushed and not yet popped) runs on
/// every event whatever the cadence, so a sanitized golden holds the event
/// queue to its `(time, seq)` contract over the whole run.
fn sanitize_if(sanitize: bool) -> impl Fn(&mut ppt::netsim::Topology<ppt::transports::Proto>) {
    move |t| {
        if sanitize {
            t.sim.set_sanitizer(ppt::netsim::SanLevel::PerEpoch);
        }
    }
}

/// A sanitized run must record no violation.
fn assert_clean(outcome: &ppt::harness::Outcome, name: &str) {
    let violations = outcome.sim.san_violations();
    assert!(violations.is_empty(), "{name}: simsan violations {violations:?}");
}

/// (trace JSONL hash, FCT digest) of one traced experiment, under simsan
/// when `sanitize` is set (which must then stay silent).
fn experiment_digests_on(exp: &Experiment, sanitize: bool) -> (u64, u64) {
    use ppt::harness::run_experiment_traced_with;
    let (outcome, trace) = run_experiment_traced_with(exp, sanitize_if(sanitize));
    assert_clean(&outcome, &exp.scheme.name());
    let trace_hash = fnv1a64(trace.to_jsonl().as_bytes());
    let mut fct_buf = String::new();
    for r in outcome.fct.records() {
        fct_buf.push_str(&format!("{},{}\n", r.size_bytes, r.fct.as_nanos()));
    }
    (trace_hash, fnv1a64(fct_buf.as_bytes()))
}

/// The shared pinned-golden experiment: 5-host star, websearch at 0.5
/// load, 60 flows.
fn golden_experiment(scheme: Scheme, seed: u64) -> Experiment {
    let topo = TopoKind::Star { n: 5, rate_gbps: 10, delay_us: 20 };
    let spec = WorkloadSpec::new(SizeDistribution::web_search(), 0.5, topo.edge_rate(), 60, seed);
    let flows = all_to_all(topo.hosts(), &spec);
    Experiment::new(topo, scheme, flows)
}

/// (trace JSONL hash, FCT digest) for one pinned-seed traced run, under
/// simsan when `sanitize` is set.
fn golden_digests_on(scheme: Scheme, seed: u64, sanitize: bool) -> (u64, u64) {
    experiment_digests_on(&golden_experiment(scheme, seed), sanitize)
}

/// (trace JSONL hash, FCT digest) of the production path: no sanitizer.
fn golden_digests(scheme: Scheme, seed: u64) -> (u64, u64) {
    golden_digests_on(scheme, seed, false)
}

/// Golden equivalence: the engine must reproduce the pre-refactor event
/// stream and FCTs byte-identically. These digests were pinned against the
/// heap-of-owned-packets engine (before the PacketPool/CSR refactor); any
/// change to event ordering, packet mutation, or trace emission shows up
/// here as a digest mismatch.
#[test]
fn pinned_seed_goldens_are_byte_identical() {
    // The PPT trace digest was re-pinned when `LcpCloseReason::NoLpAcks`
    // landed: loops that expire without ever seeing an LP ACK now
    // serialize as "no_lp_acks" instead of "expired". Event ordering and
    // FCTs did not move (the FCT digest is unchanged).
    for (scheme, seed, want_trace, want_fct) in PINNED_GOLDENS {
        let name = scheme.name();
        let (trace_hash, fct_hash) = golden_digests(scheme, seed);
        assert_eq!(
            (trace_hash, fct_hash),
            (want_trace, want_fct),
            "{name} seed {seed}: digests drifted (got trace={trace_hash:#018x} fct={fct_hash:#018x})"
        );
    }
}

/// The pinned goldens under simsan: every event-queue pop of the four runs
/// is checked against the shadow of the keys pushed (the heap oracle's
/// contract, on real workloads rather than only on the randomized unit
/// sequences in `netsim::sched`), and the digests must not move.
#[test]
fn pinned_seed_goldens_hold_on_the_heap_oracle_queue() {
    for (scheme, seed, want_trace, want_fct) in PINNED_GOLDENS {
        let name = scheme.name();
        let (trace_hash, fct_hash) = golden_digests_on(scheme, seed, true);
        assert_eq!(
            (trace_hash, fct_hash),
            (want_trace, want_fct),
            "{name} seed {seed}: sanitized digests diverged from pinned goldens \
             (got trace={trace_hash:#018x} fct={fct_hash:#018x})"
        );
    }
}

/// Pinned goldens for the two PR-10 additions, each asserted under simsan
/// (its event-order shadow checks every pop here too).
///
/// `POWERTCP_GOLDEN`: the standard golden workload on `Scheme::PowerTcp` —
/// pins the INT echo path, the power computation, and the window law.
/// `PFC_GOLDEN`: the same workload on `Scheme::Ppt` with `env.pfc` set —
/// pins the pause/resume machinery (per-ingress accounts, threshold
/// crossings, one frame to the one neighbour that filled the account,
/// lossless admission) end to end. Its run retransmits, so it moved with
/// `RECOVERY_GOLDENS` when the scoreboard ring replaced the retransmission
/// queue.
const POWERTCP_GOLDEN: (u64, u64) = (0xbb9e_33ec_99e0_819c, 0x70df_3d3a_e6c6_bb2c);
const PFC_GOLDEN: (u64, u64) = (0xb886_9142_c5be_5660, 0xf7ac_2e0a_905a_a3f6);

/// The two layered variants on the same workload: pins `Ppt` beside a
/// non-DCTCP HCP — the delay and U triggers, INT stamping under an LCP,
/// and the layer's trace events. CHANGES.md (PR 12) records the digests
/// these replaced and why each moved; their trace halves moved once more,
/// with the push-out schemes below, when evictions became `evict` lines.
const SWIFT_PPT_GOLDEN: (u64, u64) = (0x55d2_9434_df09_f48b, 0xda84_0dca_6138_af26);
const HPCC_PPT_GOLDEN: (u64, u64) = (0x3173_66d9_569b_8b74, 0xda13_9266_6fca_688a);

/// Golden digests for the PFC switch mode: the pinned workload with PFC
/// backpressure layered over PPT's switch config.
fn pfc_golden_digests_on(seed: u64, sanitize: bool) -> (u64, u64) {
    let mut exp = golden_experiment(Scheme::Ppt, seed);
    exp.env.pfc = true;
    experiment_digests_on(&exp, sanitize)
}

#[test]
fn powertcp_and_pfc_mode_goldens_hold_on_both_queues() {
    let ptcp = golden_digests_on(Scheme::PowerTcp, 42, true);
    assert_eq!(
        ptcp, POWERTCP_GOLDEN,
        "PowerTCP digests drifted (got trace={:#018x} fct={:#018x})",
        ptcp.0, ptcp.1
    );
    let pfc = pfc_golden_digests_on(42, true);
    assert_eq!(
        pfc, PFC_GOLDEN,
        "PFC-mode digests drifted (got trace={:#018x} fct={:#018x})",
        pfc.0, pfc.1
    );
}

#[test]
fn layered_ppt_goldens_hold_on_both_queues() {
    for (scheme, want) in [(Scheme::SwiftPpt, SWIFT_PPT_GOLDEN), (Scheme::HpccPpt, HPCC_PPT_GOLDEN)]
    {
        let name = scheme.name();
        let got = golden_digests_on(scheme, 42, true);
        assert_eq!(
            got, want,
            "{name} digests drifted (got trace={:#018x} fct={:#018x})",
            got.0, got.1
        );
    }
}

/// The other `Window<H, L>` schemes on the standard golden workload, seed
/// 42: `(scheme, trace digest, FCT digest)`. The FCT halves were recorded
/// while PIAS and the oracle were endpoints of their own and did not move
/// when they became policies; the trace halves (and `POWERTCP_GOLDEN`'s)
/// were re-pinned then, because the one endpoint traces `retransmit` /
/// `alpha_update` / `cwnd_update` for every scheme — DESIGN.md §16 has the
/// old → new table. The oracle's trace half, and RC3's two below, moved
/// again when push-out evictions became `evict` lines (CHANGES.md). None of these runs retransmits
/// (`goldens_outside_the_recovery_set_retransmit_nothing`).
const TCP_FAMILY_GOLDENS: [(Scheme, u64, u64); 4] = [
    (Scheme::Pias, 0xe375_9eda_6539_3692, 0xc536_1551_6b57_5840),
    (Scheme::Hypothetical(1.0), 0xd1f7_4b5e_df62_e819, 0x42f9_74b5_c50a_d376),
    (Scheme::Hpcc, 0x6d95_b77d_3bca_e73d, 0x5080_094a_2793_6673),
    (Scheme::Swift, 0x280e_b376_ef42_4065, 0x4bd7_2920_2e41_6a44),
];

/// The `Window<H, L>` goldens that retransmit, with `PFC_GOLDEN` and the
/// fault golden: the only ones a change to loss recovery may move. All six
/// were re-pinned once, when the scoreboard ring replaced the
/// retransmission queue; DESIGN.md §16, "Loss recovery", has the old → new
/// table.
const RECOVERY_GOLDENS: [(Scheme, u64, u64); 4] = [
    (Scheme::Tcp10, 0xfd44_6e3e_4f65_a126, 0xe33d_ea56_8385_381e),
    (Scheme::Halfback, 0xf10a_3fa3_903b_ef02, 0xb9e6_e5b9_f591_d917),
    (Scheme::Rc3, 0xeca8_72f4_94a8_98b1, 0x91fc_eaed_d058_6fac),
    (Scheme::Rc3BufferCap(0.5), 0xc520_a27a_72b7_cf44, 0xc201_b64d_1ccd_980a),
];

#[test]
fn tcp_family_goldens_hold_on_both_queues() {
    for (scheme, want_trace, want_fct) in TCP_FAMILY_GOLDENS.into_iter().chain(RECOVERY_GOLDENS) {
        let name = scheme.name();
        let got = golden_digests_on(scheme, 42, true);
        assert_eq!(
            got,
            (want_trace, want_fct),
            "{name} digests drifted (got trace={:#018x} fct={:#018x})",
            got.0,
            got.1
        );
    }
}

/// The golden protocol for loss recovery: only goldens whose runs
/// retransmit may move when `tcp_base` changes how it repairs loss, and
/// those are listed apart (`RECOVERY_GOLDENS`, `PFC_GOLDEN`, the fault
/// golden). Every other pinned golden must not send a single
/// retransmission, or a recovery change could move it unannounced.
#[test]
fn goldens_outside_the_recovery_set_retransmit_nothing() {
    use ppt::harness::run_experiment_traced;
    use ppt::trace::TraceEvent;
    let pinned = PINNED_GOLDENS.map(|(scheme, seed, ..)| (scheme, seed));
    let at_42 = [Scheme::PowerTcp, Scheme::SwiftPpt, Scheme::HpccPpt]
        .into_iter()
        .chain(TCP_FAMILY_GOLDENS.map(|(scheme, ..)| scheme))
        .map(|scheme| (scheme, 42));
    for (scheme, seed) in pinned.into_iter().chain(at_42) {
        let name = scheme.name();
        let (_, trace) = run_experiment_traced(&golden_experiment(scheme, seed));
        let resent =
            trace.events.iter().filter(|(_, ev)| matches!(ev, TraceEvent::Retransmit { .. }));
        assert_eq!(resent.count(), 0, "{name} seed {seed}: a pinned golden retransmits");
    }
}

/// The new goldens also hold across the parallel sweep layer: jobs 1 and
/// jobs 4 reproduce the same digests (PFC pause state and INT telemetry
/// live entirely inside each `Simulator`).
#[test]
fn powertcp_and_pfc_mode_goldens_for_any_job_count() {
    use ppt::sweep::run_points;
    let digests = |jobs: usize| {
        run_points(2, jobs, |i| match i {
            0 => golden_digests(Scheme::PowerTcp, 42),
            _ => pfc_golden_digests_on(42, false),
        })
    };
    let serial = digests(1);
    assert_eq!(serial, digests(4), "PR-10 goldens diverged between jobs=1 and jobs=4");
    assert_eq!(serial, vec![POWERTCP_GOLDEN, PFC_GOLDEN]);
}

/// (trace hash, FCT digest) for the pinned fault-injection golden on
/// `scheme`: 1% data loss plus a host-0 uplink outage from 100 µs to
/// 600 µs. The run must retransmit, or it would not pin the recovery paths
/// it is kept for. PPT seed 42's pair moved with `RECOVERY_GOLDENS`
/// (DESIGN.md §16, "Loss recovery"). Under simsan when `sanitize` is set.
fn fault_golden_digests_on(scheme: Scheme, seed: u64, sanitize: bool) -> (u64, u64) {
    use ppt::harness::run_experiment_traced_with;
    use ppt::netsim::{FaultSchedule, HostId, SimTime};
    let topo = TopoKind::Star { n: 5, rate_gbps: 10, delay_us: 20 };
    let spec = WorkloadSpec::new(SizeDistribution::web_search(), 0.5, topo.edge_rate(), 60, seed);
    let flows = all_to_all(topo.hosts(), &spec);
    let faults = FaultSchedule::new(21).with_data_loss(0.01).host_outage(
        HostId(0),
        SimTime(100_000),
        SimTime(600_000),
    );
    let name = scheme.name();
    let (outcome, trace) = run_experiment_traced_with(
        &Experiment::new(topo, scheme, flows).with_faults(faults),
        sanitize_if(sanitize),
    );
    assert_clean(&outcome, &name);
    assert!(
        outcome.report.faults.retransmits > 0,
        "{name} seed {seed}: a fault run resent nothing"
    );
    let trace_hash = fnv1a64(trace.to_jsonl().as_bytes());
    let mut fct_buf = String::new();
    for r in outcome.fct.records() {
        fct_buf.push_str(&format!("{},{}\n", r.size_bytes, r.fct.as_nanos()));
    }
    (trace_hash, fnv1a64(fct_buf.as_bytes()))
}

fn fault_golden_digests(seed: u64) -> (u64, u64) {
    fault_golden_digests_on(Scheme::Ppt, seed, false)
}

/// The receiver-driven schemes (DESIGN.md §16, "Receiver-driven
/// endpoints") where `PINNED_GOLDENS` does not reach them, seed 42:
/// `(scheme, under the fault schedule, trace digest, FCT digest)`. Aeolus
/// and ExpressPass on the golden workload; all four under
/// `fault_golden_digests_on`'s schedule, whose loss runs the watchdogs,
/// RESENDs, probes and request retries. Both ExpressPass rows held when
/// the sender retry moved into `Pull`; the others moved then (DESIGN.md
/// §16).
const PULL_GOLDENS: [(Scheme, bool, u64, u64); 6] = [
    (Scheme::Aeolus, false, 0x87c5_66d9_2278_7cb0, 0x8efb_66fa_f795_5102),
    (Scheme::ExpressPass, false, 0xeefc_69e1_3084_5ef4, 0xd4cc_7140_6f04_8575),
    (Scheme::Ndp, true, 0x2b78_0f86_c2bd_bf94, 0x1529_063b_a6fe_8f0e),
    (Scheme::Homa, true, 0x1bc0_061a_aec9_e0f3, 0x6e25_f35e_a44e_ae62),
    (Scheme::Aeolus, true, 0xd085_9b6c_60b9_b3bc, 0x2287_0489_2931_9074),
    (Scheme::ExpressPass, true, 0xafa5_76e9_756d_9b48, 0xfc97_d0fd_2af5_0b99),
];

#[test]
fn pull_goldens_hold_on_both_queues() {
    let mut drifted = Vec::new();
    for (scheme, faulted, want_trace, want_fct) in PULL_GOLDENS {
        let name = scheme.name();
        let got = if faulted {
            fault_golden_digests_on(scheme, 42, true)
        } else {
            golden_digests_on(scheme, 42, true)
        };
        if got != (want_trace, want_fct) {
            drifted.push(format!(
                "{name} (faults: {faulted}): trace={:#018x} fct={:#018x}",
                got.0, got.1
            ));
        }
    }
    assert!(drifted.is_empty(), "pull goldens drifted:\n{}", drifted.join("\n"));
}

/// The pinned fault golden (seed 42) must also hold under simsan: fault
/// command scheduling, loss draws and retransmission timers all flow
/// through the same event queue, so its event-order shadow checks the
/// queue under pathological (bursty, far-future timer) schedules too.
#[test]
fn pinned_fault_golden_holds_on_the_heap_oracle_queue() {
    assert_eq!(
        fault_golden_digests_on(Scheme::Ppt, 42, true),
        (0x1041_346c_da41_7f88_u64, 0xb674_eeec_1b2d_6af1_u64),
        "sanitized fault digests diverged from pinned golden (seed 42)"
    );
}

/// Fault injection must not cost any determinism: the pinned fault
/// schedule produces byte-identical trace and FCT digests whether the
/// points run serially or on four workers, and the digests themselves are
/// golden — the fault RNG, timed down/up ops, and loss draws all live in
/// per-`Simulator` state, so worker count cannot reorder them.
#[test]
fn pinned_fault_schedule_goldens_for_any_job_count() {
    use ppt::sweep::run_points;
    const SEEDS: [u64; 3] = [42, 7, 11];
    let digests = |jobs: usize| run_points(SEEDS.len(), jobs, |i| fault_golden_digests(SEEDS[i]));
    let serial = digests(1);
    let parallel = digests(4);
    assert_eq!(serial, parallel, "fault run diverged between jobs=1 and jobs=4");
    assert_eq!(
        serial[0],
        (0x1041_346c_da41_7f88_u64, 0xb674_eeec_1b2d_6af1_u64),
        "pinned fault golden drifted (seed 42)"
    );
}

/// One load point of the sweep: every per-flow FCT plus the raw queue-depth
/// time series at the bottleneck port (tick, total bytes, P4–P7 bytes, as
/// bit patterns), in a byte-comparable form.
type SweepPoint = (Vec<(u64, u64)>, Vec<(u64, u64, u64)>);

fn websearch_sweep(scheme: Scheme, seed: u64) -> Vec<SweepPoint> {
    use ppt::harness::{star_bottleneck, TelemetrySpec};
    use ppt::netsim::SimDuration;

    let topo = TopoKind::Star { n: 5, rate_gbps: 10, delay_us: 20 };
    let mut sweep = Vec::new();
    for load in [0.3, 0.5, 0.7] {
        let spec =
            WorkloadSpec::new(SizeDistribution::web_search(), load, topo.edge_rate(), 60, seed);
        let flows = all_to_all(topo.hosts(), &spec);
        let exp = Experiment::new(topo, scheme.clone(), flows)
            .with_telemetry(TelemetrySpec::new(SimDuration::from_micros(50)));
        let outcome = run_experiment(&exp);
        let fct_series: Vec<(u64, u64)> =
            outcome.fct.records().iter().map(|r| (r.size_bytes, r.fct.as_nanos())).collect();
        let (sw, port) = star_bottleneck(&outcome.sim, 0).unwrap();
        let t = outcome.sim.telemetry().unwrap();
        let queue_series: Vec<(u64, u64, u64)> = t
            .port_queue_bytes(sw, port)
            .points()
            .zip(t.port_queue_lp_bytes(sw, port).points())
            .map(|(all, lp)| (all.at, all.value.to_bits(), lp.value.to_bits()))
            .collect();
        sweep.push((fct_series, queue_series));
    }
    sweep
}

/// Byte-comparable projection of one sweep point's result.
fn sweep_fingerprint(r: &ppt::sweep::PointResult) -> (String, Vec<(u64, u64)>, u64, u64, u64, u64) {
    (
        r.label.clone(),
        r.fct.records().iter().map(|rec| (rec.size_bytes, rec.fct.as_nanos())).collect(),
        r.completion_ratio.to_bits(),
        r.counters.dropped,
        r.counters.marked,
        r.report.events,
    )
}

/// The parallel sweep layer must be invisible in the results: the same
/// grid run serially (`jobs = 1`) and on four workers (`jobs = 4`) must
/// produce identical per-flow FCT series, counters and event counts at
/// every point, in the same (index-keyed) order. This is the contract
/// that lets `pptlab figure` (and every other command) take `--jobs`
/// without a determinism caveat. Every other point is sanitized:
/// `sanitize` is a field of the point's own experiment, so mixing it
/// across workers moves nothing.
#[test]
fn sweep_results_identical_for_any_job_count() {
    use ppt::sweep::SweepSpec;

    let run = |jobs: usize| -> Vec<_> {
        let topo = TopoKind::Star { n: 5, rate_gbps: 10, delay_us: 20 };
        let mut spec = SweepSpec::new().jobs(jobs).grid(
            topo,
            &[Scheme::Ppt, Scheme::Dctcp, Scheme::Hypothetical(1.0)],
            &SizeDistribution::web_search(),
            &[0.3, 0.6],
            40,
            &[11, 13],
        );
        for p in spec.points.iter_mut().step_by(2) {
            p.exp.sanitize = Some(ppt::netsim::SanLevel::PerEpoch);
        }
        spec.run().iter().map(sweep_fingerprint).collect()
    };
    let serial = run(1);
    let parallel = run(4);
    assert_eq!(serial.len(), 12, "3 schemes x 2 loads x 2 seeds");
    for (i, (s, p)) in serial.iter().zip(&parallel).enumerate() {
        assert_eq!(s, p, "point {i} diverged between jobs=1 and jobs=4");
        assert!(!s.1.is_empty(), "point {i} recorded no FCTs");
    }
}

/// Satellite regression: a full websearch load sweep, run twice in the same
/// process, must reproduce byte-identical per-flow FCT series AND byte-
/// identical switch queue-depth sample series at every load point. This
/// catches any nondeterminism that survives the static pass (e.g. address-
/// dependent ordering smuggled in through a dependency).
#[test]
fn load_sweep_repeats_bit_identically_in_process() {
    for scheme in [Scheme::Ppt, Scheme::Dctcp] {
        let name = scheme.name();
        let first = websearch_sweep(scheme.clone(), 11);
        let second = websearch_sweep(scheme, 11);
        assert_eq!(first.len(), second.len());
        for (i, (a, b)) in first.iter().zip(&second).enumerate() {
            assert_eq!(a.0, b.0, "{name}: FCT series diverged at load point {i}");
            assert_eq!(a.1, b.1, "{name}: queue-depth series diverged at load point {i}");
            assert!(!a.1.is_empty(), "{name}: queue sampler produced no samples");
        }
    }
}
