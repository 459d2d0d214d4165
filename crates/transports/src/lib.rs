#![forbid(unsafe_code)]
//! # transports — protocol implementations on the netsim substrate
//!
//! Every transport the PPT paper evaluates, implemented from scratch:
//!
//! | module | scheme | role in the paper |
//! |---|---|---|
//! | [`dctcp`] | DCTCP | reactive baseline; PPT's HCP loop |
//! | [`hcp`] | — | the [`Hcp`] interface and [`Window`], the endpoint that runs one alone |
//! | [`lcp`] | — | [`Lcp`]: PPT's dual-loop layer + scheduling over any [`Hcp`] |
//! | [`ppt`] | **PPT** | the paper's contribution: [`Lcp`] over DCTCP |
//! | [`rc3`] | RC3 | prior dual-loop reactive baseline |
//! | [`pias`] | PIAS | information-agnostic scheduling baseline |
//! | [`homa`] | Homa | proactive receiver-driven baseline |
//! | [`homa`] (Aeolus mode) | Aeolus | proactive pre-credit baseline (Homa + selective drop) |
//! | [`ndp`] | NDP | proactive trimming baseline |
//! | [`hpcc`] | HPCC, PPT-over-HPCC | INT-based reactive baseline; [`Lcp`] over it (appendix B) |
//! | [`powertcp`] | PowerTCP | INT-based power window law |
//! | [`swift`] | Swift-like, PPT-over-Swift | delay-based CC; [`Lcp`] over it (Fig 14) |
//! | [`hypothetical`] | hypothetical DCTCP | the MW-oracle gap filler (§2.3) |
//!
//! All share one packet header type, [`proto::Proto`], so any scheme runs
//! on `Simulator<Proto>`.

pub mod common;
pub mod dctcp;
pub mod expresspass;
pub mod hcp;
pub mod homa;
pub mod hpcc;
pub mod hypothetical;
pub mod lcp;
pub mod ndp;
pub mod pias;
pub mod powertcp;
pub mod ppt;
pub mod proto;
pub mod rc3;
pub mod rx;
pub mod swift;
pub mod tcp_base;

pub use common::{FlowTable, IntervalSet, TableStats, Token};
pub use dctcp::{install_dctcp, DctcpTransport, MwRecorder};
pub use expresspass::{install_expresspass, ExpressPassCfg, ExpressPassTransport};
pub use hcp::{Case1, Hcp, Stamp, Window};
pub use homa::{homa_switch_config, install_homa, HomaCfg, HomaTransport};
pub use hpcc::{install_hpcc, install_hpcc_ppt, HpccHcp, HpccPptTransport, HpccTransport};
pub use hypothetical::{install_hypothetical, HypotheticalTransport};
pub use lcp::Lcp;
pub use ndp::{install_ndp, NdpCfg, NdpTransport};
pub use pias::{install_pias, PiasCfg, PiasTransport};
pub use powertcp::{install_powertcp, PowerTcpHcp, PowerTcpTransport};
pub use ppt::{install_ppt, DctcpHcp, PptTransport};
pub use proto::{AckHdr, DataHdr, HomaHdr, IntHop, IntSlot, IntStack, NdpHdr, Proto, SackBlocks};
pub use rc3::{install_rc3, Rc3Cfg, Rc3Transport};
pub use rx::{TcpRx, TcpRxTable};
pub use swift::{install_swift, install_swift_ppt, SwiftHcp, SwiftPptTransport, SwiftTransport};
pub use tcp_base::{
    AckOutcome, CcMode, CcState, DctcpFlowTx, HpccCc, PowerTcpCc, SegOut, SwiftCc, TcpCfg,
};
