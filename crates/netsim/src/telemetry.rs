//! The engine's continuous-telemetry layer (DESIGN.md §14).
//!
//! A [`TelemetryConfig`] installed via [`Simulator::enable_telemetry`]
//! arms the engine's one periodic observer: an `Ev::Sample` event,
//! scheduled here at install and rearmed by the run loop every
//! `interval`, that *reads* engine state — per-port queue bytes/packets
//! and low-priority (P4–P7) bytes, per-link utilization since the last
//! tick, live flow counts, packet-pool live/hit-rate, and the per-scheme
//! aggregate cwnd/in-flight reported by
//! [`crate::host::Transport::cc_snapshot`] — into ring-buffered
//! [`Series`] and log-bucket [`LogHistogram`]s.
//!
//! Determinism contract: sampling never mutates simulation state and
//! never emits into the installed trace sink, so a telemetry-enabled run
//! reproduces an untelemetered run's trace and FCT streams byte for
//! byte. The one deliberate exception is the `prof` knob: a wall-clock
//! self-profiler around the dispatch loop whose numbers are machine
//! noise by construction and are therefore excluded from every golden.

use dcn_trace::{encode_telemetry, LogHistogram, ProfKind, Series};

use crate::engine::{Ev, Simulator};
use crate::ids::{LinkId, SwitchId};
use crate::packet::Payload;
use crate::time::{SimDuration, SimTime};

/// Configuration for `Simulator::enable_telemetry`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct TelemetryConfig {
    /// Sampling interval; the first sample fires one interval after
    /// installation, and rearming stops once every flow has completed so
    /// the event heap can drain.
    pub interval: SimDuration,
    /// Ring capacity of every series (points retained per series).
    pub series_capacity: usize,
    /// Also run the wall-clock per-event-kind self-profiler. Off by
    /// default: profile numbers are nondeterministic by nature and must
    /// never reach byte-compared output.
    pub prof: bool,
}

impl TelemetryConfig {
    /// Default capacity (4096 points) and no profiler.
    pub fn new(interval: SimDuration) -> Self {
        TelemetryConfig { interval, series_capacity: 4096, prof: false }
    }

    /// Enable the wall-clock self-profiler, builder-style.
    pub fn with_prof(mut self) -> Self {
        self.prof = true;
        self
    }

    /// Override the per-series ring capacity, builder-style.
    pub fn with_series_capacity(mut self, cap: usize) -> Self {
        self.series_capacity = cap;
        self
    }
}

/// Aggregate congestion-control state reported by one transport endpoint
/// (summed over its active flows, then over hosts by the sampler).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CcSnapshot {
    /// Sum of congestion windows, bytes.
    pub cwnd_bytes: u64,
    /// Sum of unacknowledged in-flight bytes.
    pub inflight_bytes: u64,
    /// Flows contributing to the sums.
    pub flows: u64,
}

impl CcSnapshot {
    /// Accumulate another snapshot into this one.
    pub fn add(&mut self, other: &CcSnapshot) {
        self.cwnd_bytes += other.cwnd_bytes;
        self.inflight_bytes += other.inflight_bytes;
        self.flows += other.flows;
    }
}

/// Series index of the live-flow count.
const IDX_FLOWS_LIVE: usize = 0;
/// Series index of the packet-pool live-slot count.
const IDX_POOL_LIVE: usize = 1;
/// Series index of the packet-pool recycle hit rate.
const IDX_POOL_HIT: usize = 2;
/// Series index of the aggregate congestion window.
const IDX_CC_CWND: usize = 3;
/// Series index of the aggregate in-flight bytes.
const IDX_CC_INFLIGHT: usize = 4;
/// First per-port series index (two series per switch port follow, then
/// one utilization series per link, then one low-priority series per
/// switch port).
const IDX_FIRST_DYNAMIC: usize = 5;

/// Telemetry state owned by the simulator while enabled: the series
/// table, the three histograms, the sampler's utilization baseline and
/// the (optional) profiler accumulators.
#[derive(Debug)]
pub struct Telemetry {
    cfg: TelemetryConfig,
    /// Fixed layout: the scalar series (`IDX_*`), then
    /// `sw{si}.port{pi}.queue_bytes`/`.queue_pkts` pairs in (switch,
    /// port) order from `port_base`, then `link{li}.util` from
    /// `link_base`, then `sw{si}.port{pi}.queue_lp_bytes` from `lp_base`
    /// (last, so the ids of everything before it never moved).
    series: Vec<Series>,
    port_base: usize,
    link_base: usize,
    lp_base: usize,
    /// Ports on all switches before switch `si`: its port `pi` is the
    /// fabric's `port_offsets[si] + pi`-th.
    port_offsets: Vec<usize>,
    /// Flow completion times (recorded at completion, nanoseconds).
    pub(crate) fct_ns: LogHistogram,
    /// Per-packet time spent queued at a host NIC or switch egress port
    /// before serialization started, nanoseconds.
    pub(crate) queue_delay_ns: LogHistogram,
    /// Per-port backlog bytes observed at every sampler tick.
    queue_depth_bytes: LogHistogram,
    /// Cumulative link tx bytes at the previous tick (utilization deltas).
    last_link_tx: Vec<u64>,
    last_sample_at: SimTime,
    samples_taken: u64,
    /// Wall-clock profiler accumulators, indexed in [`ProfKind::ALL`]
    /// order. Only written when `cfg.prof` is set.
    pub(crate) prof_counts: [u64; 6],
    pub(crate) prof_ns: [u64; 6],
}

impl Telemetry {
    /// The configured sampling interval.
    pub fn interval(&self) -> SimDuration {
        self.cfg.interval
    }

    /// Whether the wall-clock self-profiler is on.
    pub fn prof_enabled(&self) -> bool {
        self.cfg.prof
    }

    /// Sampler ticks taken so far.
    pub fn samples_taken(&self) -> u64 {
        self.samples_taken
    }

    /// Every series, in the fixed layout order (stable across runs).
    pub fn series(&self) -> &[Series] {
        &self.series
    }

    /// Look up a series by name (e.g. `"flows.live"`, `"cc.cwnd_bytes"`).
    pub fn series_named(&self, name: &str) -> Option<&Series> {
        self.series.iter().find(|s| s.name() == name)
    }

    fn port_ordinal(&self, switch: SwitchId, port: u16) -> usize {
        self.port_offsets[switch.0 as usize] + port as usize
    }

    /// Total backlog of a switch egress port, bytes (`queue_bytes`).
    pub fn port_queue_bytes(&self, switch: SwitchId, port: u16) -> &Series {
        &self.series[self.port_base + 2 * self.port_ordinal(switch, port)]
    }

    /// Low-priority (P4–P7) backlog of a switch egress port, bytes
    /// (`queue_lp_bytes`); the high-priority share is the difference to
    /// [`Self::port_queue_bytes`] at the same tick.
    pub fn port_queue_lp_bytes(&self, switch: SwitchId, port: u16) -> &Series {
        &self.series[self.lp_base + self.port_ordinal(switch, port)]
    }

    /// Utilization of a link per sampling window, 0..=1 (`util`).
    pub fn link_util(&self, link: LinkId) -> &Series {
        &self.series[self.link_base + link.0 as usize]
    }

    /// Flow-completion-time histogram, nanoseconds.
    pub fn fct_hist(&self) -> &LogHistogram {
        &self.fct_ns
    }

    /// Per-packet queueing-delay histogram, nanoseconds.
    pub fn queue_delay_hist(&self) -> &LogHistogram {
        &self.queue_delay_ns
    }

    /// Sampled per-port queue-depth histogram, bytes.
    pub fn queue_depth_hist(&self) -> &LogHistogram {
        &self.queue_depth_bytes
    }

    /// Wall-clock dispatch profile as `(kind, count, total_ns)` rows in
    /// [`ProfKind::ALL`] order; `None` unless the `prof` knob was set.
    pub fn prof_breakdown(&self) -> Option<[(ProfKind, u64, u64); 6]> {
        if !self.cfg.prof {
            return None;
        }
        let mut rows = [(ProfKind::FlowStart, 0u64, 0u64); 6];
        for (i, kind) in ProfKind::ALL.iter().enumerate() {
            rows[i] = (*kind, self.prof_counts[i], self.prof_ns[i]);
        }
        Some(rows)
    }

    /// Encode the sampled series as [`dcn_trace::TraceEvent::Sample`] JSONL lines
    /// (series id = layout index), appending to `out`. With
    /// `include_prof`, [`dcn_trace::TraceEvent::Profile`] rows follow — wall-clock
    /// data, so callers must keep it out of byte-compared artifacts.
    /// The bytes are [`encode_telemetry`]'s.
    pub fn dump_events(&self, out: &mut Vec<u8>, include_prof: bool) {
        let rows = self.prof_breakdown().filter(|_| include_prof);
        let profile = rows.as_ref().map(|rows| (self.last_sample_at.0, &rows[..]));
        encode_telemetry(out, &self.series, profile);
    }
}

impl<P: Payload> Simulator<P> {
    /// Install the continuous-telemetry layer (DESIGN.md §14): a
    /// deterministic whole-fabric sampler ticking every `cfg.interval`,
    /// starting one interval from now. Sampling only *reads* simulation
    /// state, so enabling telemetry leaves the trace and FCT streams of
    /// the run byte-identical; the sampler stops rearming once every flow
    /// has completed so the event queue still drains.
    ///
    /// Call after the topology is built (the series table is laid out
    /// from the switch/port/link counts at install time).
    pub fn enable_telemetry(&mut self, cfg: TelemetryConfig) {
        assert!(self.telemetry.is_none(), "telemetry already enabled");
        assert!(cfg.interval > SimDuration::ZERO, "telemetry interval must be positive");
        let cap = cfg.series_capacity;
        let mut series = vec![
            Series::new("flows.live", cap),
            Series::new("pool.live", cap),
            Series::new("pool.hit_rate", cap),
            Series::new("cc.cwnd_bytes", cap),
            Series::new("cc.inflight_bytes", cap),
        ];
        debug_assert_eq!(
            series.len(),
            IDX_FIRST_DYNAMIC,
            "scalar series layout drifted from the IDX_* constants"
        );
        // One "sw{si}.port{pi}" stem per switch port, in (switch, port)
        // order; `port_offsets[si]` is where switch `si`'s ports begin.
        let mut port_offsets = Vec::with_capacity(self.switches.len());
        let mut stems = Vec::new();
        for (si, sw) in self.switches.iter().enumerate() {
            port_offsets.push(stems.len());
            stems.extend((0..sw.ports.len()).map(|pi| format!("sw{si}.port{pi}")));
        }
        let port_base = series.len();
        for stem in &stems {
            series.push(Series::new(format!("{stem}.queue_bytes"), cap));
            series.push(Series::new(format!("{stem}.queue_pkts"), cap));
        }
        let link_base = series.len();
        for li in 0..self.links.len() {
            series.push(Series::new(format!("link{li}.util"), cap));
        }
        let lp_base = series.len();
        for stem in &stems {
            series.push(Series::new(format!("{stem}.queue_lp_bytes"), cap));
        }
        self.telemetry = Some(Box::new(Telemetry {
            cfg,
            series,
            port_base,
            link_base,
            lp_base,
            port_offsets,
            fct_ns: LogHistogram::new(),
            queue_delay_ns: LogHistogram::new(),
            queue_depth_bytes: LogHistogram::new(),
            last_link_tx: self.links.iter().map(|l| l.tx_bytes).collect(),
            last_sample_at: self.now,
            samples_taken: 0,
            prof_counts: [0; 6],
            prof_ns: [0; 6],
        }));
        self.schedule(self.now + cfg.interval, Ev::Sample);
    }

    /// The telemetry state, when enabled.
    pub fn telemetry(&self) -> Option<&Telemetry> {
        self.telemetry.as_deref()
    }

    /// Detach and return the telemetry state (e.g. to move it into a
    /// post-run report without cloning the series table).
    pub fn take_telemetry(&mut self) -> Option<Box<Telemetry>> {
        self.telemetry.take()
    }

    /// One telemetry tick: snapshot fabric state into the series table.
    /// Strictly read-only with respect to simulation state — the only
    /// mutations are to the telemetry ledgers themselves — which is what
    /// keeps telemetry-enabled runs byte-identical (DESIGN.md §14).
    pub(crate) fn telemetry_tick(&mut self) {
        // Detach the box so the borrow checker lets us walk `self` while
        // filling the series; reattached below.
        let Some(mut t) = self.telemetry.take() else { return };
        let now = self.now;
        let at = now.0;
        // Every completed flow started, so started - completed = live;
        // O(1) where a scan over `flows` would cost O(n) per tick.
        let live_flows = self.flows_started - self.flows_completed;
        t.series[IDX_FLOWS_LIVE].push(at, live_flows as f64);
        let pool = self.effects.pool.stats();
        t.series[IDX_POOL_LIVE].push(at, pool.live as f64);
        t.series[IDX_POOL_HIT].push(at, pool.hit_rate());
        let mut cc = CcSnapshot::default();
        for host in &self.hosts {
            if let Some(transport) = host.transport.as_deref() {
                cc.add(&transport.cc_snapshot());
            }
        }
        t.series[IDX_CC_CWND].push(at, cc.cwnd_bytes as f64);
        t.series[IDX_CC_INFLIGHT].push(at, cc.inflight_bytes as f64);
        let ports = self.switches.iter().flat_map(|sw| &sw.ports);
        for (ordinal, port) in ports.enumerate() {
            let backlog = port.queues.total_bytes();
            t.series[t.port_base + 2 * ordinal].push(at, backlog as f64);
            t.series[t.port_base + 2 * ordinal + 1].push(at, port.queues.len() as f64);
            t.series[t.lp_base + ordinal].push(at, port.queues.bytes_in_range(4..8) as f64);
            t.queue_depth_bytes.record(backlog);
        }
        // Utilization = bytes the link moved this window over the bytes it
        // could have moved; capped at 1.0 because a serialization that
        // straddles the window boundary books its bytes at start-of-tx.
        let window = now.saturating_since(t.last_sample_at);
        for (li, link) in self.links.iter().enumerate() {
            let tx = link.tx_bytes;
            let delta = tx - t.last_link_tx[li];
            t.last_link_tx[li] = tx;
            let capacity = link.rate.bytes_in(window);
            let util = if capacity == 0 { 0.0 } else { (delta as f64 / capacity as f64).min(1.0) };
            t.series[t.link_base + li].push(at, util);
        }
        t.last_sample_at = now;
        t.samples_taken += 1;
        self.telemetry = Some(t);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_builders_apply() {
        let cfg = TelemetryConfig::new(SimDuration::from_micros(10))
            .with_prof()
            .with_series_capacity(128);
        assert_eq!(cfg.interval, SimDuration::from_micros(10));
        assert!(cfg.prof, "with_prof must set the knob");
        assert_eq!(cfg.series_capacity, 128);
    }

    #[test]
    fn cc_snapshot_accumulates() {
        let mut a = CcSnapshot { cwnd_bytes: 10, inflight_bytes: 5, flows: 1 };
        a.add(&CcSnapshot { cwnd_bytes: 20, inflight_bytes: 15, flows: 2 });
        assert_eq!(a, CcSnapshot { cwnd_bytes: 30, inflight_bytes: 20, flows: 3 });
    }
}
