//! Run options are values on the [`Experiment`], not process state:
//! experiments that differ *only* in `sanitize` and `env.pfc` run side by
//! side on four worker threads, each outcome shows its own options and no
//! one else's, and every result equals the same experiment run alone.

use ppt::harness::{run_experiment_traced, Experiment, Scheme, TopoKind};
use ppt::netsim::SanLevel;
use ppt::sweep::run_points;
use ppt::trace::TraceEvent;

/// What one run shows of its own options: whether simsan audited it, how
/// many PFC pauses its fabric asserted, and its per-flow FCT series.
type Observed = (bool, usize, Vec<(u64, u64)>);

fn observe(exp: &Experiment) -> Observed {
    let (outcome, trace) = run_experiment_traced(exp);
    let pauses = trace
        .events
        .iter()
        .filter(|(_, ev)| {
            matches!(
                ev,
                TraceEvent::PfcXoff { on: true, .. } | TraceEvent::PfcPause { on: true, .. }
            )
        })
        .count();
    let fcts = outcome.fct.records().iter().map(|r| (r.size_bytes, r.fct.as_nanos())).collect();
    (outcome.sim.sanitizer_enabled(), pauses, fcts)
}

#[test]
fn options_are_per_experiment_not_per_process() {
    // A 6-to-1 incast into a 20 KB port: PFC accounts each sender's bytes
    // apart, and each sender's first window alone is past XOFF (a quarter
    // of the buffer), so the PFC runs must pause.
    let topo = TopoKind::Star { n: 7, rate_gbps: 10, delay_us: 20 };
    let flows = ppt::workloads::incast_burst(6, 300_000, 1_000);
    let mut exps = Vec::new();
    for scheme in [Scheme::Ppt, Scheme::Dctcp] {
        for pfc in [false, true] {
            for sanitize in [None, Some(SanLevel::PerEpoch)] {
                let mut exp = Experiment::new(topo, scheme.clone(), flows.clone());
                exp.env = exp.env.scale_buffers(0.02);
                exp.env.pfc = pfc;
                exp.sanitize = sanitize;
                exps.push(exp);
            }
        }
    }

    let together = run_points(exps.len(), 4, |i| observe(&exps[i]));
    for (exp, got) in exps.iter().zip(&together) {
        let what = format!("{} pfc={} sanitize={:?}", exp.scheme.name(), exp.env.pfc, exp.sanitize);
        assert_eq!(got.0, exp.sanitize.is_some(), "{what}: wrong sanitizer state");
        assert_eq!(got.1 > 0, exp.env.pfc, "{what}: {} pauses", got.1);
        assert_eq!(got.2.len(), flows.len(), "{what}: flows left unfinished");
        assert_eq!(*got, observe(exp), "{what}: differs from the same experiment run alone");
    }
    for pair in together.chunks(2) {
        assert_eq!(pair[0].2, pair[1].2, "the sanitizer only observes: FCTs must not move");
    }
    assert_ne!(together[0].2, together[2].2, "PFC must change the PPT run it was set on");
}
