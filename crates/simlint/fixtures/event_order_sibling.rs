// Fixture: a netsim module split out of engine.rs (linted as pfc.rs) that
// pushes the event queue itself instead of going through `schedule`.
use crate::sched::QEntry;

impl Simulator {
    fn pfc_broadcast(&mut self) {
        let entry = QEntry { at: self.now, seq: self.seq, ev: Ev::Pfc };
        self.queue.push(entry);
        self.seq += 1;
    }

    fn pfc_update(&mut self) {
        self.schedule(self.now, Ev::Pfc);
    }
}
