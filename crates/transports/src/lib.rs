#![forbid(unsafe_code)]
//! # transports — protocol implementations on the netsim substrate
//!
//! Every transport the PPT paper evaluates, implemented from scratch:
//!
//! | module | scheme | role in the paper |
//! |---|---|---|
//! | [`tcp_base`] | — | [`DctcpFlowTx`], the reliability engine every TCP-family sender runs, and the [`WindowLaw`] seam |
//! | [`hcp`] | — | [`Window<H, L>`], the TCP-family endpoint, and its two policies: [`Hcp`] (the primary loop and its law) and [`Beside`] (what runs beside it) |
//! | [`dctcp`] | DCTCP, TCP-10, Halfback | reactive baselines on [`DctcpLaw`]; DCTCP is PPT's HCP loop |
//! | [`ppt`] | **PPT** | the paper's contribution: [`Ppt`], the LCP + scheduling [`Beside`] any [`Hcp`], here on DCTCP |
//! | [`rc3`] | RC3 | prior dual-loop reactive baseline: a [`Beside`] on DCTCP |
//! | [`pias`] | PIAS | information-agnostic scheduling baseline: a [`Beside`] on DCTCP |
//! | [`pull`] | — | [`Pull<G>`], the receiver-driven endpoint, and its policy [`Grant`] |
//! | [`homa`] | Homa | proactive receiver-driven baseline: SRPT grants, a [`Grant`] |
//! | [`homa`] (Aeolus mode) | Aeolus | proactive pre-credit baseline (Homa + selective drop + probe) |
//! | [`ndp`] | NDP | proactive trimming baseline: paced pulls, a [`Grant`] |
//! | [`expresspass`] | ExpressPass | proactive credit-scheduled baseline: paced credits, a [`Grant`] |
//! | [`hpcc`] | HPCC, PPT-over-HPCC | INT-based [`Hcp`] on [`HpccLaw`]; [`Ppt`] beside it (appendix B) |
//! | [`powertcp`] | PowerTCP | INT-based power window law [`PowerTcpLaw`]: an [`Hcp`] |
//! | [`swift`] | Swift-like, PPT-over-Swift | delay-based [`Hcp`] on [`SwiftLaw`]; [`Ppt`] beside it (Fig 14) |
//! | [`hypothetical`] | hypothetical DCTCP | the MW-oracle gap filler (§2.3): a [`Beside`] on DCTCP |
//!
//! All share one packet header type, [`proto::Proto`], so any scheme runs
//! on `Simulator<Proto>`; [`install`] puts one on every host.

pub mod common;
pub mod dctcp;
pub mod expresspass;
pub mod hcp;
pub mod homa;
pub mod hpcc;
pub mod hypothetical;
mod lcp;
pub mod ndp;
pub mod pias;
pub mod powertcp;
pub mod ppt;
pub mod proto;
pub mod pull;
pub mod rc3;
pub mod rx;
pub mod swift;
pub mod tcp_base;

pub use common::{FlowTable, IntervalSet, TableStats, Token};
pub use dctcp::{DctcpLaw, DctcpTransport, Halfback, MwRecorder, Tcp10};
pub use expresspass::{ExpressPassCfg, ExpressPassTransport};
pub use hcp::{Beside, Case1, Hcp, Stamp, Window};
pub use homa::{homa_switch_config, HomaCfg, HomaTransport};
pub use hpcc::{HpccHcp, HpccLaw, HpccPptTransport, HpccTransport};
pub use hypothetical::{HypotheticalTransport, Oracle};
pub use ndp::{NdpCfg, NdpTransport};
pub use pias::{PiasCfg, PiasTransport};
pub use powertcp::{PowerTcpHcp, PowerTcpLaw, PowerTcpTransport};
pub use ppt::{DctcpHcp, Ppt, PptTransport};
pub use proto::{AckHdr, DataHdr, IntHop, IntStack, Proto, PullHdr, SackBlocks};
pub use pull::{Grant, Pull};
pub use rc3::{Rc3Cfg, Rc3Transport};
pub use rx::{TcpRx, TcpRxTable};
pub use swift::{SwiftHcp, SwiftLaw, SwiftPptTransport, SwiftTransport};
pub use tcp_base::{CcState, DctcpFlowTx, SegOut, TcpCfg, WindowLaw};

/// Put a fresh endpoint from `make` on every host of `topo`.
pub fn install<T: netsim::Transport<Proto> + 'static>(
    topo: &mut netsim::Topology<Proto>,
    mut make: impl FnMut() -> T,
) {
    for &h in &topo.hosts.clone() {
        topo.sim.set_transport(h, Box::new(make()));
    }
}
