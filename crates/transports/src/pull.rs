//! The receiver-driven endpoint and the policy that makes it a scheme.
//!
//! NDP, Homa, Aeolus and ExpressPass are one class in the paper (§2.1,
//! Table 1: proactive, receiver-driven, passive first RTT). A sender sends
//! an unscheduled prefix, then exactly what its receiver authorizes; a
//! receiver reassembles, authorizes, and re-requests what a stall leaves
//! missing; a sender that hears nothing re-opens. [`Pull<G>`] is that
//! endpoint over one header ([`PullHdr`]); [`Grant`] names what differs
//! between the schemes: the prefix, the opener, the per-flow authorization
//! state, what a data arrival triggers, how far a stall re-requests, and
//! whether the receiver paces its authorizations (DESIGN.md §16).

use std::collections::VecDeque;

use netsim::{Ctx, FlowDesc, FlowId, HostId, Packet, SimDuration, SimTime, Transport};

use crate::common::{FlowTable, IntervalSet, TableStats, Token};
use crate::proto::{Proto, PullHdr};

/// Priority of data released by a pull or a credit (NDP, ExpressPass).
pub(crate) const PULLED_PRIORITY: u8 = 1;

/// What differs between receiver-driven schemes. The endpoint holds one
/// `G`; each sender holds a `G::Tx` and each receiver a `G::Rx` beside the
/// shared state.
pub trait Grant: Sized {
    /// Timer kind of the receiver's stall watchdog.
    const WATCHDOG: u8;
    /// Timer kind of the receiver's pacer; 0 when the scheme has none.
    const PACER: u8 = 0;
    /// Timer kind of the sender's retry: 13 unless the scheme names one.
    const RETRY: u8 = 13;
    /// Switches may trim this scheme's data packets to their header.
    const TRIMMABLE: bool = false;
    /// A range the receiver requests again also takes one pacer turn per
    /// MSS: the pulls that clock it out (NDP).
    const PULLS_PER_REQUEST: bool = false;
    /// Per-flow sender state beside [`PullTx`].
    type Tx: Default;
    /// Per-flow receiver state beside [`PullRx`].
    type Rx: Default;
    /// What a completed receiver leaves for late packets.
    type Done: Copy + Default;

    /// How long a receiver may hear nothing before it re-requests, and a
    /// sender before it re-opens.
    fn watchdog(&self) -> SimDuration;

    /// A flow starts: move `tx.sent` past the unscheduled prefix and send
    /// it, with whatever else the scheme sends unasked.
    fn start(&self, tx: &mut PullTx<Self::Tx>, mss: u32, ctx: &mut Ctx<'_, Proto>);

    /// What a sender that has heard nothing sends again: a probe of its
    /// unscheduled prefix.
    fn reopen(tx: &PullTx<Self::Tx>) -> PullHdr {
        PullHdr::Probe { unscheduled_sent: tx.sent, msg_size: tx.size }
    }

    /// A receiver's state when the first packet of a `size`-byte message
    /// arrives.
    fn open(&self, _size: u64) -> Self::Rx {
        Self::Rx::default()
    }

    /// The tombstone of a receiver that just completed.
    fn done(_rx: &PullRx<Self::Rx>) -> Self::Done {
        Self::Done::default()
    }

    /// How far a stalled receiver re-requests its holes.
    fn stall_line(rx: &PullRx<Self::Rx>) -> u64 {
        rx.size
    }

    /// Data arrived for `flow`, which is `live` while still incomplete.
    fn arrived(_ep: &mut Pull<Self>, _flow: FlowId, _live: bool, _ctx: &mut Ctx<'_, Proto>) {}

    /// The sender is asked for `[offset, offset + len)` again: the priority
    /// to send it at now, or `None` when `tx` keeps it for later.
    fn on_resend(&self, _tx: &mut PullTx<Self::Tx>, _offset: u64, _len: u32) -> Option<u8> {
        Some(PULLED_PRIORITY)
    }

    /// The next segment of a range `on_resend` kept, released by a pull
    /// ahead of new data.
    fn queued_resend(_tx: &mut Self::Tx, _mss: u32) -> Option<(u64, u32)> {
        None
    }

    /// Interval between pacer turns.
    fn pace_interval(&self) -> SimDuration {
        unreachable!("a scheme without a pacer paced a flow")
    }

    /// A pacer turn reached live receiver `rx`: `None` skips it, otherwise
    /// the pull or credit goes out and `true` queues it again.
    fn turn(_rx: &mut PullRx<Self::Rx>, _mss: u32) -> Option<bool> {
        Some(false)
    }

    /// ExpressPass's credit request.
    fn on_control(_ep: &mut Pull<Self>, _pkt: &Packet<Proto>, _ctx: &mut Ctx<'_, Proto>) {}
}

/// A flow's sender. Never retired: only a probing sender hears that its
/// flow completed (`Done`), and a request may name any flow at any time.
pub struct PullTx<T> {
    pub(crate) id: FlowId,
    pub(crate) src: HostId,
    pub(crate) dst: HostId,
    pub(crate) size: u64,
    /// Next new byte.
    pub(crate) sent: u64,
    /// A pull, grant, resend or `Done` has arrived: the retry stops.
    pub(crate) heard: bool,
    pub(crate) policy: T,
}

impl<T> PullTx<T> {
    /// A control packet to the flow's receiver.
    pub(crate) fn ctrl(&self, hdr: PullHdr) -> Packet<Proto> {
        Packet::ctrl(self.id, self.src, self.dst, Proto::Pull(hdr))
    }
}

/// A receiver still missing bytes.
pub struct PullRx<R> {
    pub(crate) peer: HostId,
    pub(crate) size: u64,
    pub(crate) received: IntervalSet,
    /// What the watchdog measures a stall from: the last data, or
    /// ExpressPass's last request.
    pub(crate) last_activity: SimTime,
    pub(crate) policy: R,
}

impl<R> PullRx<R> {
    /// The receiver of a `size`-byte message from `peer`, first heard of now.
    pub(crate) fn new(peer: HostId, size: u64, now: SimTime, policy: R) -> Self {
        PullRx { peer, size, received: IntervalSet::new(), last_activity: now, policy }
    }
}

/// The receiver-driven endpoint (sender and receiver roles) on policy `G`.
pub struct Pull<G: Grant> {
    pub(crate) g: G,
    mss: u32,
    pub(crate) tx: FlowTable<PullTx<G::Tx>>,
    pub(crate) rx: FlowTable<PullRx<G::Rx>>,
    /// Tombstones of the completed receivers; never retired from.
    pub(crate) rx_done: FlowTable<G::Done>,
    /// The pacer's round-robin: one pull or credit per tick, to the first
    /// live entry.
    pub(crate) paced: VecDeque<FlowId>,
    pub(crate) pacer_armed: bool,
}

/// Send `[from, to)` of `tx`'s flow in MSS segments at `prio`, noting each
/// resent one.
pub(crate) fn send<G: Grant>(
    tx: &PullTx<G::Tx>,
    (from, to): (u64, u64),
    prio: u8,
    retx: bool,
    mss: u32,
    ctx: &mut Ctx<'_, Proto>,
) {
    let mut off = from;
    while off < to {
        let len = (to - off).min(mss as u64) as u32;
        if retx {
            ctx.note_retransmit(tx.id);
        }
        let hdr = PullHdr::Data { offset: off, len, msg_size: tx.size };
        let pkt = Packet::data(tx.id, tx.src, tx.dst, len, Proto::Pull(hdr));
        ctx.send(pkt.with_priority(prio).with_trimmable(G::TRIMMABLE).without_ecn());
        off += len as u64;
    }
}

impl<G: Grant> Pull<G> {
    /// New endpoint running `g`.
    pub fn new(g: G, mss: u32) -> Self {
        Pull {
            g,
            mss,
            tx: FlowTable::new(),
            rx: FlowTable::new(),
            rx_done: FlowTable::new(),
            paced: VecDeque::new(),
            pacer_armed: false,
        }
    }

    /// Occupancy of the `(sender, receiver)` tables; only the receivers'
    /// follows the flows in progress.
    pub fn flow_tables(&self) -> (TableStats, TableStats) {
        (self.tx.stats(), self.rx.stats())
    }

    /// Arm `flow`'s watchdog or retry: both sleep one watchdog.
    pub(crate) fn arm(&self, kind: u8, flow: FlowId, ctx: &mut Ctx<'_, Proto>) {
        let token = Token { kind, generation: 0, flow: flow.0 };
        ctx.timer_after(self.g.watchdog(), token.encode());
    }

    // simlint: hot-path
    /// Give `flow` a turn in the pacer's round-robin.
    pub(crate) fn pace(&mut self, flow: FlowId, ctx: &mut Ctx<'_, Proto>) {
        self.paced.push_back(flow);
        self.arm_pacer(ctx);
    }

    fn arm_pacer(&mut self, ctx: &mut Ctx<'_, Proto>) {
        if !self.pacer_armed && !self.paced.is_empty() {
            self.pacer_armed = true;
            let token = Token { kind: G::PACER, generation: 0, flow: 0 };
            ctx.timer_after(self.g.pace_interval(), token.encode());
        }
    }

    fn pacer_tick(&mut self, ctx: &mut Ctx<'_, Proto>) {
        let host = ctx.host();
        self.pacer_armed = false;
        // Skip turns of flows that completed (or need nothing) since.
        while let Some(flow) = self.paced.pop_front() {
            let Some(m) = self.rx.get_mut(flow) else { continue };
            let Some(again) = G::turn(m, self.mss) else { continue };
            ctx.send(Packet::ctrl(flow, host, m.peer, Proto::Pull(PullHdr::Pull)));
            if again {
                self.paced.push_back(flow);
            }
            break;
        }
        self.arm_pacer(ctx);
    }

    /// Receiver: a data packet, or the header of one a switch trimmed.
    fn on_data(&mut self, pkt: &Packet<Proto>, ctx: &mut Ctx<'_, Proto>) {
        let Proto::Pull(PullHdr::Data { offset, len, msg_size }) = pkt.payload else { return };
        let (flow, peer, now) = (pkt.flow, pkt.src, ctx.now());
        // `None`: a late packet of a completed flow.
        let m = match self.rx.get_mut(flow) {
            Some(m) => {
                m.last_activity = now;
                Some(m)
            }
            None if self.rx_done.contains(flow) => None,
            None => {
                self.arm(G::WATCHDOG, flow, ctx);
                let m = PullRx::new(peer, msg_size, now, self.g.open(msg_size));
                Some(self.rx.insert(flow, m))
            }
        };
        if pkt.trimmed {
            // The payload was cut on the way: ask for it again.
            return self.request(flow, peer, offset, len, ctx);
        }
        let live = match m {
            Some(m) => {
                m.received.insert(offset, offset + len as u64);
                let complete = m.received.covers(m.size);
                if complete {
                    let done = G::done(m);
                    ctx.flow_completed(flow);
                    self.rx.retire(flow);
                    self.rx_done.insert(flow, done);
                }
                !complete
            }
            None => false,
        };
        G::arrived(self, flow, live, ctx);
    }

    /// Receiver: ask `peer` for `[offset, offset + len)` of `flow` again.
    fn request(
        &mut self,
        flow: FlowId,
        peer: HostId,
        offset: u64,
        len: u32,
        ctx: &mut Ctx<'_, Proto>,
    ) {
        let host = ctx.host();
        ctx.send(Packet::ctrl(flow, host, peer, Proto::Pull(PullHdr::Resend { offset, len })));
        if G::PULLS_PER_REQUEST {
            for _ in 0..(len as u64).div_ceil(self.mss as u64) {
                self.pace(flow, ctx);
            }
        }
    }

    /// Sender: what a pull or credit (a kept resend's next segment, else
    /// one new one), a grant (everything up to its line) or a resend
    /// request releases; `Done` releases nothing. Each stops the retry.
    fn release(&mut self, id: FlowId, hdr: PullHdr, ctx: &mut Ctx<'_, Proto>) {
        let mss = self.mss;
        let Some(tx) = self.tx.get_mut(id) else { return };
        tx.heard = true;
        let (from, to, prio, retx) = match hdr {
            PullHdr::Pull => match G::queued_resend(&mut tx.policy, mss) {
                Some((offset, len)) => (offset, offset + len as u64, PULLED_PRIORITY, true),
                None => (tx.sent, tx.size.min(tx.sent + mss as u64), PULLED_PRIORITY, false),
            },
            PullHdr::Grant { granted_offset, prio } => {
                (tx.sent, granted_offset.min(tx.size), prio, false)
            }
            PullHdr::Resend { offset, len } => match self.g.on_resend(tx, offset, len) {
                Some(prio) => (offset, tx.size.min(offset + len as u64), prio, true),
                None => return,
            },
            _ => return,
        };
        if !retx {
            tx.sent = tx.sent.max(to);
        }
        send::<G>(tx, (from, to), prio, retx, mss, ctx);
    }
    // simlint: hot-path-end

    /// Receiver: ask for every hole of `flow` below `line`.
    pub(crate) fn request_gaps(&mut self, flow: FlowId, line: u64, ctx: &mut Ctx<'_, Proto>) {
        let mut cursor = 0;
        while let Some(m) = self.rx.get(flow) {
            let Some((start, end)) = m.received.first_gap(cursor, line) else { break };
            self.request(flow, m.peer, start, (end - start).min(u32::MAX as u64) as u32, ctx);
            cursor = end;
        }
    }

    /// Receiver: a sender's probe, Aeolus's trailer or any sender's retry.
    /// A completed receiver answers `Done`; any other asks for the holes
    /// below the prefix, first opening a message it never heard of.
    fn on_probe(&mut self, pkt: &Packet<Proto>, prefix: u64, size: u64, ctx: &mut Ctx<'_, Proto>) {
        let (flow, peer, now) = (pkt.flow, pkt.src, ctx.now());
        if self.rx_done.contains(flow) {
            return ctx.send(Packet::ctrl(flow, ctx.host(), peer, Proto::Pull(PullHdr::Done)));
        }
        if !self.rx.contains(flow) {
            self.arm(G::WATCHDOG, flow, ctx);
            self.rx.insert(flow, PullRx::new(peer, size, now, self.g.open(size)));
        }
        self.request_gaps(flow, prefix, ctx);
    }

    /// Sender: until the receiver is heard from, send the opener again
    /// every watchdog.
    fn retry(&mut self, flow: FlowId, ctx: &mut Ctx<'_, Proto>) {
        let Some(tx) = self.tx.get(flow) else { return };
        if !tx.heard {
            ctx.send(tx.ctrl(G::reopen(tx)));
            self.arm(G::RETRY, flow, ctx);
        }
    }

    fn on_watchdog(&mut self, flow: FlowId, ctx: &mut Ctx<'_, Proto>) {
        // A completed flow's watchdog finds nothing and stops.
        let Some(m) = self.rx.get(flow) else { return };
        if ctx.now().saturating_since(m.last_activity) >= self.g.watchdog() {
            self.request_gaps(flow, G::stall_line(m), ctx);
            if G::PACER != 0 {
                // One more turn re-clocks a sender whose pulls or credits
                // were lost.
                self.pace(flow, ctx);
            }
        }
        self.arm(G::WATCHDOG, flow, ctx);
    }
}

impl<G: Grant> Transport<Proto> for Pull<G> {
    fn on_flow_start(&mut self, flow: &FlowDesc, ctx: &mut Ctx<'_, Proto>) {
        let (id, src, dst, size) = (flow.id, flow.src, flow.dst, flow.size_bytes);
        let mut tx = PullTx { id, src, dst, size, sent: 0, heard: false, policy: G::Tx::default() };
        self.g.start(&mut tx, self.mss, ctx);
        self.tx.insert(id, tx);
        self.arm(G::RETRY, id, ctx);
    }

    fn on_packet(&mut self, pkt: Packet<Proto>, ctx: &mut Ctx<'_, Proto>) {
        let &Proto::Pull(hdr) = &pkt.payload else {
            unreachable!("receiver-driven endpoint received a TCP-family packet")
        };
        match hdr {
            PullHdr::Data { .. } => self.on_data(&pkt, ctx),
            PullHdr::Pull | PullHdr::Grant { .. } | PullHdr::Resend { .. } | PullHdr::Done => {
                self.release(pkt.flow, hdr, ctx)
            }
            PullHdr::Probe { unscheduled_sent, msg_size } => {
                self.on_probe(&pkt, unscheduled_sent, msg_size, ctx)
            }
            PullHdr::Request { .. } => G::on_control(self, &pkt, ctx),
        }
    }

    fn on_timer(&mut self, raw: u64, ctx: &mut Ctx<'_, Proto>) {
        let token = Token::decode(raw);
        if token.kind == G::WATCHDOG {
            self.on_watchdog(FlowId(token.flow), ctx);
        } else if G::PACER != 0 && token.kind == G::PACER {
            self.pacer_tick(ctx);
        } else {
            debug_assert_eq!(token.kind, G::RETRY, "a timer of no receiver-driven kind");
            self.retry(FlowId(token.flow), ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::testkit::drive;
    use crate::{ExpressPassCfg, HomaCfg, NdpCfg};
    use netsim::{Pcg32, Rate};
    use std::fmt::Debug;

    const MSS: u32 = 1000;
    const SEGMENTS: u64 = 40;
    const SIZE: u64 = SEGMENTS * MSS as u64;

    /// One seeded stall of a `G` receiver: `opener` (if any) and a random
    /// subset of a 40-segment message (never all of it) arrive, `line`
    /// moves the policy's authorization line, and the watchdog fires once
    /// the receiver has heard nothing for a watchdog. Returns what arrived,
    /// the ranges the stall asked for, and the pacer turns it queued.
    fn stall<G: Grant>(
        g: G,
        seed: u64,
        opener: Option<Packet<Proto>>,
        line: impl FnOnce(&mut PullRx<G::Rx>, &mut Pcg32),
    ) -> (Vec<bool>, Vec<(u64, u32)>, usize) {
        let (me, peer, flow) = (HostId(1), HostId(0), FlowId(3));
        let watchdog = g.watchdog();
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut t = Pull::new(g, MSS);
        if let Some(pkt) = opener {
            drive(SimTime(1), me, |ctx| t.on_packet(pkt, ctx));
        }
        let missing = rng.gen_index(SEGMENTS as usize);
        let arrived: Vec<bool> =
            (0..SEGMENTS as usize).map(|i| i != missing && rng.gen_index(2) == 0).collect();
        let mut now = SimTime(10);
        for seg in (0..SEGMENTS).filter(|&s| arrived[s as usize]) {
            let hdr = PullHdr::Data { offset: seg * MSS as u64, len: MSS, msg_size: SIZE };
            let pkt = Packet::data(flow, peer, me, MSS, Proto::Pull(hdr));
            drive(now, me, |ctx| t.on_packet(pkt, ctx));
            now = SimTime(now.0 + 1_000);
        }
        let Some(m) = t.rx.get_mut(flow) else { panic!("seed {seed}: no receiver opened") };
        line(m, &mut rng);
        let last = m.last_activity;
        let token = Token { kind: G::WATCHDOG, generation: 0, flow: flow.0 }.encode();
        // Not yet stalled: the watchdog only sleeps again.
        let early =
            drive(SimTime(last.0 + watchdog.as_nanos() - 1), me, |ctx| t.on_timer(token, ctx));
        assert!(early.packets.is_empty() && early.timers.len() == 1, "seed {seed}: {early:?}");
        let turns = t.paced.len();
        let at = last + watchdog;
        let fired = drive(at, me, |ctx| t.on_timer(token, ctx));
        assert_eq!(fired.timers.last(), Some(&(at + watchdog, token)), "seed {seed}: re-armed");
        let requested = fired.packets.iter().map(|p| match p.payload {
            Proto::Pull(PullHdr::Resend { offset, len }) if p.dst == peer => (offset, len),
            ref other => panic!("seed {seed}: a stall sent {other:?}"),
        });
        (arrived, requested.collect(), t.paced.len() - turns)
    }

    /// The holes of `arrived` below `line`, as `(offset, len)` ranges.
    fn holes(arrived: &[bool], line: u64) -> Vec<(u64, u32)> {
        let mut out: Vec<(u64, u32)> = Vec::new();
        for (seg, _) in arrived.iter().enumerate().filter(|(_, &got)| !got) {
            let (start, end) = (seg as u64 * MSS as u64, (seg as u64 + 1) * MSS as u64);
            if start >= line {
                break;
            }
            let len = (end.min(line) - start) as u32;
            match out.last_mut() {
                Some((s, l)) if *s + *l as u64 == start => *l += len,
                _ => out.push((start, len)),
            }
        }
        out
    }

    fn covered(arrived: &[bool]) -> u64 {
        arrived.iter().filter(|&&got| got).count() as u64 * MSS as u64
    }

    /// The one stall path (DESIGN.md §16, "Receiver-driven endpoints"):
    /// for every policy and a random hole set, a receiver stalled past its
    /// watchdog asks for exactly the gaps below that policy's line — NDP's
    /// message size, Homa's grant line, ExpressPass's credit line or what
    /// it holds — and queues the pacer turns its policy adds: one pull per
    /// requested MSS and one more under NDP, one credit under ExpressPass.
    #[test]
    fn a_stalled_receiver_requests_exactly_the_gaps_below_its_line_seeded() {
        let watchdog = SimDuration::from_millis(1);
        for seed in 0..32u64 {
            let ndp = NdpCfg { initial_window_bytes: SIZE, edge_rate: Rate::gbps(10), watchdog };
            let (arrived, asked, turns) = stall(ndp, seed, None, |_, _| {});
            let want = holes(&arrived, SIZE);
            assert_eq!(asked, want, "NDP seed {seed}");
            let pulls: u64 = want.iter().map(|&(_, len)| (len as u64).div_ceil(MSS as u64)).sum();
            assert_eq!(turns as u64, pulls + 1, "NDP seed {seed}");

            let homa = HomaCfg { resend_timeout: watchdog, ..HomaCfg::new(5 * MSS as u64) };
            let mut granted = 0;
            let (arrived, asked, turns) = stall(homa, seed, None, |m, rng| {
                granted = rng.gen_range(SIZE + 1);
                m.policy = granted;
            });
            assert_eq!(asked, holes(&arrived, granted), "Homa seed {seed}");
            assert_eq!(turns, 0, "Homa seed {seed}");

            let ep = ExpressPassCfg::new(Rate::gbps(10), watchdog);
            let request = PullHdr::Request { msg_size: SIZE, retry: false };
            let opener = Packet::ctrl(FlowId(3), HostId(0), HostId(1), Proto::Pull(request));
            let mut credited = 0;
            let (arrived, asked, turns) = stall(ep, seed, Some(opener), |m, rng| {
                credited = rng.gen_range(SIZE + 1);
                m.policy = credited;
            });
            let line = covered(&arrived).max(credited).min(SIZE);
            assert_eq!(asked, holes(&arrived, line), "ExpressPass seed {seed}");
            assert_eq!(turns, 1, "ExpressPass seed {seed}");
        }
    }

    /// The four policies with a 1 ms watchdog: NDP with a 10-segment first
    /// window, Homa and Aeolus with 5 segments unscheduled, ExpressPass.
    fn ndp() -> NdpCfg {
        let watchdog = SimDuration::from_millis(1);
        NdpCfg { initial_window_bytes: 10 * MSS as u64, edge_rate: Rate::gbps(10), watchdog }
    }
    fn homa(aeolus: bool) -> HomaCfg {
        let watchdog = SimDuration::from_millis(1);
        HomaCfg { resend_timeout: watchdog, aeolus, ..HomaCfg::new(5 * MSS as u64) }
    }
    fn expresspass() -> ExpressPassCfg {
        ExpressPassCfg::new(Rate::gbps(10), SimDuration::from_millis(1))
    }

    /// A `G` sender that hears nothing sends `opener` once per watchdog,
    /// and a pull, a grant, a resend or a `Done` (`k` retries in, one
    /// fresh flow each) stops it for good.
    fn retries<G: Grant + Clone>(name: &str, g: G, opener: PullHdr) {
        let (me, peer) = (HostId(0), HostId(1));
        let watchdog = g.watchdog();
        let heard = [
            PullHdr::Pull,
            PullHdr::Grant { granted_offset: SIZE, prio: 5 },
            PullHdr::Resend { offset: 0, len: MSS },
            PullHdr::Done,
        ];
        for (k, hdr) in heard.into_iter().enumerate() {
            let flow = FlowId(k as u64);
            let token = Token { kind: G::RETRY, generation: 0, flow: flow.0 }.encode();
            let mut t = Pull::new(g.clone(), MSS);
            let desc = FlowDesc::new(flow, me, peer, SIZE, SimTime::ZERO);
            let started = drive(SimTime::ZERO, me, |ctx| t.on_flow_start(&desc, ctx));
            let mut at = SimTime::ZERO + watchdog;
            assert_eq!(started.timers, vec![(at, token)], "{name}: one retry timer");
            for _ in 0..=k {
                let fired = drive(at, me, |ctx| t.on_timer(token, ctx));
                let sent: Vec<_> =
                    fired.packets.iter().map(|p| (p.dst, p.payload.clone())).collect();
                assert!(
                    matches!(sent[..], [(to, Proto::Pull(h))] if to == peer && h == opener),
                    "{name}: {sent:?}"
                );
                at += watchdog;
                assert_eq!(fired.timers, vec![(at, token)], "{name}: re-armed");
            }
            let pkt = Packet::ctrl(flow, peer, me, Proto::Pull(hdr));
            drive(at, me, |ctx| t.on_packet(pkt, ctx));
            assert!(drive(at, me, |ctx| t.on_timer(token, ctx)).nothing(), "{name} after {hdr:?}");
        }
    }

    /// The one sender retry (DESIGN.md §16): Homa, Aeolus and NDP probe
    /// their unscheduled prefix, ExpressPass retries its credit request.
    #[test]
    fn a_sender_that_hears_nothing_reopens_every_watchdog_until_it_hears() {
        let probe = |prefix: u64| PullHdr::Probe { unscheduled_sent: prefix, msg_size: SIZE };
        retries("NDP", ndp(), probe(10 * MSS as u64));
        retries("Homa", homa(false), probe(5 * MSS as u64));
        retries("Aeolus", homa(true), probe(5 * MSS as u64));
        retries("ExpressPass", expresspass(), PullHdr::Request { msg_size: SIZE, retry: true });
    }

    /// The resend requests among `packets`, each to `peer`.
    fn resends(packets: &[Packet<Proto>], peer: HostId, what: &str) -> Vec<(u64, u32)> {
        let resend = |p: &Packet<Proto>| match p.payload {
            Proto::Pull(PullHdr::Resend { offset, len }) if p.dst == peer => (offset, len),
            ref other => panic!("{what}: a probe sent {other:?}"),
        };
        packets.iter().map(resend).collect()
    }

    /// One seeded life of a `G` receiver that hears of its message first
    /// from a probe: it opens as `Grant::open` says, with its watchdog,
    /// and asks for everything below the prefix; after a random subset
    /// arrives, a second probe asks for exactly the holes below its prefix;
    /// once complete, a probe is answered `Done` and nothing else.
    fn probed<G: Grant>(name: &str, g: G, seed: u64)
    where
        G::Rx: PartialEq + Debug,
    {
        let (me, peer, flow) = (HostId(1), HostId(0), FlowId(3));
        let what = format!("{name} seed {seed}");
        let (watchdog, opened_as) = (g.watchdog(), g.open(SIZE));
        let mut rng = Pcg32::seed_from_u64(seed);
        let mut t = Pull::new(g, MSS);
        let probe = |prefix: u64| {
            let hdr = PullHdr::Probe { unscheduled_sent: prefix, msg_size: SIZE };
            Packet::ctrl(flow, peer, me, Proto::Pull(hdr))
        };
        let prefix = rng.gen_range(SIZE + 1);
        let opened = drive(SimTime(10), me, |ctx| t.on_packet(probe(prefix), ctx));
        let dog = Token { kind: G::WATCHDOG, generation: 0, flow: flow.0 }.encode();
        assert_eq!(opened.timers.first(), Some(&(SimTime(10) + watchdog, dog)), "{what}");
        let m = t.rx.get(flow).expect("the probe opened a receiver");
        assert_eq!((m.peer, m.size, &m.policy), (peer, SIZE, &opened_as), "{what}");
        let none = [false; SEGMENTS as usize];
        assert_eq!(resends(&opened.packets, peer, &what), holes(&none, prefix), "{what}");

        let arrived: Vec<bool> = (0..SEGMENTS).map(|_| rng.gen_index(2) == 0).collect();
        let data = |seg: u64| {
            let hdr = PullHdr::Data { offset: seg * MSS as u64, len: MSS, msg_size: SIZE };
            Packet::data(flow, peer, me, MSS, Proto::Pull(hdr))
        };
        for seg in (0..SEGMENTS).filter(|&s| arrived[s as usize]) {
            drive(SimTime(20), me, |ctx| t.on_packet(data(seg), ctx));
        }
        if t.rx.contains(flow) {
            let prefix = rng.gen_range(SIZE + 1);
            let again = drive(SimTime(30), me, |ctx| t.on_packet(probe(prefix), ctx));
            assert_eq!(resends(&again.packets, peer, &what), holes(&arrived, prefix), "{what}");
        }
        for seg in (0..SEGMENTS).filter(|&s| !arrived[s as usize]) {
            drive(SimTime(40), me, |ctx| t.on_packet(data(seg), ctx));
        }
        assert!(t.rx_done.contains(flow), "{what}: never completed");
        let late = drive(SimTime(50), me, |ctx| t.on_packet(probe(prefix), ctx));
        let sent: Vec<_> = late.packets.iter().map(|p| (p.dst, p.payload.clone())).collect();
        assert!(matches!(sent[..], [(to, Proto::Pull(PullHdr::Done))] if to == peer), "{what}");
        assert!(late.timers.is_empty() && late.completed.is_empty(), "{what}: {late:?}");
    }

    /// The one probe path (DESIGN.md §16), for every policy: an unknown
    /// receiver opens and requests exactly the gaps below the prefix, a
    /// live one the holes below it, a completed one answers `Done`.
    #[test]
    fn a_probe_opens_an_unknown_receiver_and_a_completed_one_answers_done_seeded() {
        for seed in 0..16u64 {
            probed("NDP", ndp(), seed);
            probed("Homa", homa(false), seed);
            probed("Aeolus", homa(true), seed);
            probed("ExpressPass", expresspass(), seed);
        }
    }
}
