//! Flow state follows concurrency (DESIGN.md "Flow-state lifetime"): after
//! a churn of thousands of tiny flows, every endpoint's receiver table and
//! every window sender's table is empty, and no table's slab ever grew
//! past a small fraction of the flows the host saw. Receiver-driven
//! senders are never told their flow completed; theirs hold every flow
//! the host started, to the end of the run.

// A test-side tap into endpoints the simulator owns; not simulation state.
use std::cell::RefCell;
use std::rc::Rc;

use netsim::{
    star, CcSnapshot, Ctx, FlowDesc, Packet, Rate, RunLimits, SimDuration, SimTime, StopReason,
    SwitchConfig, Topology, Transport,
};
use ppt_core::PptConfig;
use transports::{
    homa_switch_config, DctcpHcp, DctcpTransport, ExpressPassCfg, ExpressPassTransport, HomaCfg,
    HomaTransport, NdpCfg, NdpTransport, PiasTransport, Ppt, PptTransport, Proto, Rc3Cfg,
    Rc3Transport, SwiftHcp, TableStats, TcpCfg, Window,
};
use workloads::{all_to_all, install_flows, SizeDistribution, WorkloadSpec};

const FLOWS: usize = 4_000;
const HOSTS: usize = 8;

/// An endpoint shared between the simulator, which drives it, and the
/// test, which reads its tables once the run is over.
struct Tap<T>(Rc<RefCell<T>>);

impl<T: Transport<Proto>> Transport<Proto> for Tap<T> {
    fn on_flow_start(&mut self, flow: &FlowDesc, ctx: &mut Ctx<'_, Proto>) {
        self.0.borrow_mut().on_flow_start(flow, ctx)
    }
    fn on_packet(&mut self, pkt: Packet<Proto>, ctx: &mut Ctx<'_, Proto>) {
        self.0.borrow_mut().on_packet(pkt, ctx)
    }
    fn on_timer(&mut self, token: u64, ctx: &mut Ctx<'_, Proto>) {
        self.0.borrow_mut().on_timer(token, ctx)
    }
    fn cc_snapshot(&self) -> CcSnapshot {
        self.0.borrow().cc_snapshot()
    }
}

/// Whether an endpoint's senders learn of completion (and are retired).
#[derive(Clone, Copy, PartialEq)]
enum Senders {
    Window,
    ReceiverDriven,
}

/// Run [`FLOWS`] Memcached flows all-to-all at load 0.5 over an 8-host
/// star of `make` endpoints and check every host's tables.
fn churn<T: Transport<Proto> + 'static>(
    name: &str,
    senders: Senders,
    switch: SwitchConfig,
    make: impl Fn(&Topology<Proto>) -> T,
    tables: impl Fn(&T) -> (TableStats, TableStats),
) {
    let mut topo = star::<Proto>(HOSTS, Rate::gbps(10), SimDuration::from_micros(20), switch);
    let taps: Vec<Rc<RefCell<T>>> = topo
        .hosts
        .clone()
        .into_iter()
        .map(|h| {
            let endpoint = Rc::new(RefCell::new(make(&topo)));
            topo.sim.set_transport(h, Box::new(Tap(endpoint.clone())));
            endpoint
        })
        .collect();
    let spec = WorkloadSpec::new(SizeDistribution::memcached_w1(), 0.5, topo.edge_rate, FLOWS, 11);
    install_flows(&mut topo.sim, &topo.hosts, &all_to_all(HOSTS, &spec));
    // Every scheme needs under 13 ms and 120 000 events here.
    let limits = RunLimits { max_time: SimTime(1_000_000_000), max_events: 2_000_000 };
    let report = topo.sim.run(limits);
    assert_eq!(report.stop, StopReason::AllFlowsDone, "{name}: the run hit its bound");
    assert_eq!(report.flows_completed, FLOWS, "{name}: every flow completes");

    let mut started = 0;
    for (host, tap) in taps.iter().enumerate() {
        let (tx, rx) = tables(&tap.borrow());
        assert_eq!(rx.live, 0, "{name} host {host}: a receiver outlived its flow");
        // Far below the flow count: 2 % of the run's flows (measured: at
        // most 40 slots on any host, of the ~500 flows each sees).
        let far_below = FLOWS / 50;
        assert!(rx.high_water <= far_below, "{name} host {host}: receiver slab {rx:?}");
        match senders {
            Senders::Window => {
                assert_eq!(tx.live, 0, "{name} host {host}: a sender outlived its flow");
                assert!(tx.high_water <= far_below, "{name} host {host}: sender slab {tx:?}");
            }
            Senders::ReceiverDriven => {
                assert_eq!(tx.live, tx.high_water, "{name} host {host}: {tx:?}");
                started += tx.live;
            }
        }
    }
    if senders == Senders::ReceiverDriven {
        assert_eq!(started, FLOWS, "{name}: receiver-driven senders stay to the end of the run");
    }
}

fn tcp(topo: &Topology<Proto>) -> TcpCfg {
    TcpCfg::new(topo.base_rtt)
}

#[test]
fn window_endpoints_hold_only_flows_in_progress() {
    let ecn = || SwitchConfig::dctcp(200_000, 30_000);
    churn(
        "DCTCP",
        Senders::Window,
        ecn(),
        |t| DctcpTransport::new(tcp(t), DctcpHcp, ()),
        DctcpTransport::flow_tables,
    );
    churn(
        "Swift",
        Senders::Window,
        SwitchConfig::basic(200_000),
        |t| Window::new(tcp(t), SwiftHcp, ()),
        Window::flow_tables,
    );
    churn(
        "PIAS",
        Senders::Window,
        ecn(),
        |t| PiasTransport::new(tcp(t), DctcpHcp, Default::default()),
        PiasTransport::flow_tables,
    );
    let dual_band = || SwitchConfig::ppt(200_000, 30_000, 20_000);
    let ppt = |t: &Topology<Proto>| {
        let cfg = PptConfig::new(t.edge_rate, t.base_rtt);
        PptTransport::new(tcp(t), DctcpHcp, Ppt { cfg })
    };
    churn("PPT", Senders::Window, dual_band(), ppt, PptTransport::flow_tables);
    let rc3 = |t: &Topology<Proto>| {
        let bdp_bytes = netsim::bdp_bytes(t.edge_rate, t.base_rtt);
        Rc3Transport::new(tcp(t), DctcpHcp, Rc3Cfg { bdp_bytes, send_buffer_bytes: 2 << 30 })
    };
    churn("RC3", Senders::Window, dual_band(), rc3, Rc3Transport::flow_tables);
}

#[test]
fn receiver_driven_endpoints_retire_receivers_and_keep_senders() {
    let watchdog = SimDuration::from_millis(1);
    churn(
        "Homa",
        Senders::ReceiverDriven,
        homa_switch_config(200_000, false),
        |_| HomaTransport::new(HomaCfg::new(50_000), netsim::MSS_BYTES),
        HomaTransport::flow_tables,
    );
    let ndp = |t: &Topology<Proto>| {
        NdpTransport::new(NdpCfg::new(t.edge_rate, t.base_rtt, watchdog), netsim::MSS_BYTES)
    };
    churn(
        "NDP",
        Senders::ReceiverDriven,
        SwitchConfig::ndp(60_000, 12_000),
        ndp,
        NdpTransport::flow_tables,
    );
    let ep = |t: &Topology<Proto>| {
        ExpressPassTransport::new(ExpressPassCfg::new(t.edge_rate, watchdog), netsim::MSS_BYTES)
    };
    churn(
        "ExpressPass",
        Senders::ReceiverDriven,
        SwitchConfig::basic(200_000),
        ep,
        ExpressPassTransport::flow_tables,
    );
}
