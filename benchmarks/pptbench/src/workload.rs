//! The six named workloads and how `--seed` turns into their inputs.
//!
//! Each workload is a list of experiments (one, except `cli_sweep`'s 36)
//! plus the front door a user would run them through. Why each exists is
//! in [`Workload::why`]; `benchmarks/README.md` has the long form.
//!
//! ## What `--seed` varies
//!
//! A web-search draw of a few hundred flows is dominated by its tail: at
//! 400 flows, redrawing sizes and arrivals moved one repetition from 2.7 s
//! to 5.1 s (seeds 1–6 while sizing this benchmark), and even a sub-µs
//! jitter of individual start times moved it from 3.6 s to 5.4 s, because
//! one extra RTO changes which large flows overlap. No regression bound
//! survives that, so the in-process workloads pin the size/arrival draw
//! ([`PINNED_DRAW_SEED`]) and let `--seed` choose *when* the whole
//! scenario starts: every flow is shifted by the same seeded offset below
//! a millisecond. Inputs differ between seeds; the simulation is
//! translation-invariant, so every FCT — and the work to simulate it —
//! stays the same, and host cost differs only by what the machine adds.
//! (Relabelling the hosts by a topology automorphism was tried first: it
//! keeps the FCTs too, except under PFC, where pause order follows port
//! order and the digest moves.) `cli_sweep` passes `S, S+1` straight to
//! `pptlab --seeds`: 100 k+ tiny flows average out on their own.

use ppt::harness::{Experiment, Scheme, TelemetrySpec, TopoKind};
use ppt::netsim::{SimDuration, SimTime};
use ppt::sweep::SweepSpec;
use ppt::workloads::{all_to_all, incast, FlowSpec, Pcg32, SizeDistribution, WorkloadSpec};

/// Generator seed of the pinned size/arrival draw — the seed the
/// `bench_engine` scenario and every figure default to.
pub const PINNED_DRAW_SEED: u64 = 42;

/// Sampling interval of `observed_ppt`'s telemetry: the 10 µs cadence the
/// DESIGN.md §14 overhead budget is stated against.
pub const OBSERVED_TELEMETRY_US: u64 = 10;

/// How much of each workload to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Scale {
    /// The measured size: one repetition is about a second of host time.
    Full,
    /// At most 20 flows per experiment, for the debug-build smoke tests.
    Smoke,
}

/// The front door a repetition goes through.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Door {
    /// `run_experiment` then the FCT summary.
    Plain,
    /// `run_experiment_traced_with` + simsan + telemetry, then JSONL
    /// encoding and the LCP analysis: what `pptlab trace` does.
    Observed,
    /// Spawn the real `pptlab sweep`.
    Cli,
}

#[derive(Clone, Copy, Debug)]
enum Pattern {
    AllToAll,
    /// `n` senders to one sink.
    Incast(usize),
}

pub struct Workload {
    pub name: &'static str,
    /// One line, copied into `BENCHMARK.json`.
    pub why: &'static str,
    pub door: Door,
    topo: TopoKind,
    scheme: Scheme,
    pattern: Pattern,
    pfc: bool,
    flows_full: usize,
    flows_smoke: usize,
}

const STAR8: TopoKind = TopoKind::Star { n: 8, rate_gbps: 10, delay_us: 20 };

/// Schemes, loads and topology of the `cli_sweep` grid (× seeds `S, S+1`).
const CLI_SCHEMES: [(&str, Scheme); 6] = [
    ("ppt", Scheme::Ppt),
    ("dctcp", Scheme::Dctcp),
    ("homa", Scheme::Homa),
    ("ndp", Scheme::Ndp),
    ("hpcc", Scheme::Hpcc),
    ("powertcp", Scheme::PowerTcp),
];
const CLI_LOADS: [f64; 3] = [0.3, 0.5, 0.7];

pub static ALL: [Workload; 6] = [
    Workload {
        name: "star_dctcp",
        why: "one switch hop, DCTCP: tcp_base and its stale RTO timer events dominate, fabric layers idle",
        door: Door::Plain,
        topo: STAR8,
        scheme: Scheme::Dctcp,
        pattern: Pattern::AllToAll,
        pfc: false,
        flows_full: 150,
        flows_smoke: 16,
    },
    Workload {
        name: "fabric_ppt",
        why: "144-host leaf-spine, PPT: three hops, ECMP, 8 priorities, LCP loops and tail-first sends fragmenting IntervalSet",
        door: Door::Plain,
        topo: TopoKind::Oversubscribed,
        scheme: Scheme::Ppt,
        pattern: Pattern::AllToAll,
        pfc: false,
        flows_full: 55,
        flows_smoke: 16,
    },
    Workload {
        name: "incast_ndp",
        why: "14-to-1 incast, NDP: engine-bound (sched, pool, PrioQueues, trim path), bypasses tcp_base entirely",
        door: Door::Plain,
        topo: TopoKind::PaperTestbed,
        scheme: Scheme::Ndp,
        pattern: Pattern::Incast(14),
        pfc: false,
        flows_full: 900,
        flows_smoke: 20,
    },
    Workload {
        name: "pfc_hpcc",
        why: "HPCC under PFC on one switch: per-packet INT stacks plus pause bookkeeping on every backlog change",
        door: Door::Plain,
        topo: TopoKind::PaperTestbed,
        scheme: Scheme::Hpcc,
        pattern: Pattern::AllToAll,
        pfc: true,
        flows_full: 200,
        flows_smoke: 16,
    },
    Workload {
        name: "observed_ppt",
        why: "the pptlab trace door: every sink on (MemorySink, simsan, 10us telemetry), JSONL encode, LCP analysis",
        door: Door::Observed,
        topo: STAR8,
        scheme: Scheme::Ppt,
        pattern: Pattern::AllToAll,
        pfc: false,
        flows_full: 50,
        flows_smoke: 12,
    },
    Workload {
        name: "cli_sweep",
        why: "the real pptlab sweep: 36 runs of tiny memcached flows, so flow churn, set-up and process cost dominate",
        door: Door::Cli,
        topo: TopoKind::PaperTestbed,
        // The grid runs CLI_SCHEMES; this field is unused for Door::Cli.
        scheme: Scheme::Ppt,
        pattern: Pattern::AllToAll,
        pfc: false,
        flows_full: 4000,
        flows_smoke: 20,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    ALL.iter().find(|w| w.name == name)
}

/// Offsets `--seed` can choose: whole nanoseconds below this.
const MAX_START_OFFSET_NS: u64 = 1_000_000;

impl Workload {
    pub fn flows(&self, scale: Scale) -> usize {
        match scale {
            Scale::Full => self.flows_full,
            Scale::Smoke => self.flows_smoke,
        }
    }

    /// Flows one repetition offers, over all of its experiments.
    pub fn flows_per_rep(&self, scale: Scale) -> usize {
        match self.door {
            Door::Cli => self.flows(scale) * CLI_SCHEMES.len() * CLI_LOADS.len() * 2,
            _ => self.flows(scale),
        }
    }

    /// The `cli_sweep` grid as the library spells it: the in-process twin
    /// of [`Workload::cli_args`].
    pub fn sweep_spec(&self, seed: u64, scale: Scale) -> SweepSpec {
        let schemes: Vec<Scheme> = CLI_SCHEMES.iter().map(|(_, s)| s.clone()).collect();
        SweepSpec::new().grid(
            self.topo,
            &schemes,
            &SizeDistribution::memcached_w1(),
            &CLI_LOADS,
            self.flows(scale),
            &[seed, seed + 1],
        )
    }

    /// The experiments of one repetition, made from `seed`.
    pub fn generate(&self, seed: u64, scale: Scale) -> Vec<Experiment> {
        if self.door == Door::Cli {
            return self.sweep_spec(seed, scale).points.into_iter().map(|p| p.exp).collect();
        }
        let spec = WorkloadSpec::new(
            SizeDistribution::web_search(),
            0.5,
            self.topo.edge_rate(),
            self.flows(scale),
            PINNED_DRAW_SEED,
        );
        let mut flows: Vec<FlowSpec> = match self.pattern {
            Pattern::AllToAll => all_to_all(self.topo.hosts(), &spec),
            Pattern::Incast(senders) => incast(senders, &spec),
        };
        let offset = Pcg32::seed_from_u64(seed).gen_range(MAX_START_OFFSET_NS);
        for f in &mut flows {
            f.start = SimTime(f.start.as_nanos() + offset);
        }
        let mut exp = Experiment::new(self.topo, self.scheme.clone(), flows);
        exp.env.pfc = self.pfc;
        if self.door == Door::Observed {
            exp = exp.with_telemetry(TelemetrySpec::new(SimDuration::from_micros(
                OBSERVED_TELEMETRY_US,
            )));
        }
        vec![exp]
    }

    /// `pptlab` arguments of the `cli_sweep` door: the same grid
    /// [`Workload::generate`] builds in-process.
    pub fn cli_args(&self, seed: u64, scale: Scale) -> Vec<String> {
        let ids: Vec<&str> = CLI_SCHEMES.iter().map(|(id, _)| *id).collect();
        let loads: Vec<String> = CLI_LOADS.iter().map(|l| l.to_string()).collect();
        [
            "sweep",
            "--topo",
            "testbed",
            "--workload",
            "memcached",
            "--schemes",
            &ids.join(","),
            "--loads",
            &loads.join(","),
            "--seeds",
            &format!("{},{}", seed, seed + 1),
            "--flows",
            &self.flows(scale).to_string(),
            "--jobs",
            "1",
            "--json",
        ]
        .iter()
        .map(|s| s.to_string())
        .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_shifts_the_scenario_but_not_the_draw() {
        let w = find("star_dctcp").unwrap();
        let a = &w.generate(1, Scale::Smoke)[0].flows;
        let b = &w.generate(2, Scale::Smoke)[0].flows;
        assert_eq!(a.len(), 16);
        let shift = b[0].start.as_nanos() as i64 - a[0].start.as_nanos() as i64;
        assert_ne!(shift, 0);
        for (x, y) in a.iter().zip(b) {
            assert_eq!((x.src, x.dst, x.size_bytes), (y.src, y.dst, y.size_bytes));
            assert_eq!(y.start.as_nanos() as i64 - x.start.as_nanos() as i64, shift);
        }
        let again = &w.generate(1, Scale::Smoke)[0].flows;
        assert!(a.iter().zip(again).all(|(x, y)| x.start == y.start));
    }

    #[test]
    fn cli_grid_and_arguments_agree() {
        let w = find("cli_sweep").unwrap();
        assert_eq!(w.generate(5, Scale::Smoke).len(), 36);
        assert_eq!(w.flows_per_rep(Scale::Smoke), 36 * 20);
        let args = w.cli_args(5, Scale::Smoke).join(" ");
        assert!(args.contains("--seeds 5,6") && args.contains("--flows 20"), "{args}");
        assert!(args.contains("--loads 0.3,0.5,0.7"), "{args}");
    }

    #[test]
    fn smoke_scale_stays_small() {
        for w in &ALL {
            assert!(w.flows(Scale::Smoke) <= 20, "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }
}
