// Fixture: the engine's own enqueue helpers may push the heap.
use std::collections::BinaryHeap;

pub struct Engine {
    heap: BinaryHeap<u64>,
}

impl Engine {
    fn schedule(&mut self, v: u64) {
        self.heap.push(v);
    }

    fn push_tx_done(&mut self) {
        self.heap.push(7);
    }
}
