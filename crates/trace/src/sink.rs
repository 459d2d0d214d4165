//! Trace sinks: where the event stream goes.

use std::any::Any;

use crate::event::{encode_jsonl, TraceEvent};

/// A consumer of trace events.
///
/// The simulator holds `Option<Box<dyn TraceSink>>`; `None` is the
/// strictly zero-cost disabled path. `Any` is a supertrait so callers can
/// take the sink back from the engine and downcast to the concrete type
/// (`sink.as_any().downcast_ref::<MemorySink>()`); a sink writes `emit`
/// only.
pub trait TraceSink: Any {
    /// Consume one event stamped with simulated time `at` (nanoseconds).
    fn emit(&mut self, at: u64, ev: &TraceEvent);
}

impl dyn TraceSink {
    /// The sink as `Any`, to downcast to its concrete type.
    pub fn as_any(&self) -> &dyn Any {
        self
    }

    /// The sink as mutable `Any`, to downcast to its concrete type.
    pub fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// Keeps every event in memory. The sink for tests and for the
/// `stats` analyzers, which want typed events rather than text.
#[derive(Debug, Default, Clone)]
pub struct MemorySink {
    events: Vec<(u64, TraceEvent)>,
}

impl MemorySink {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn events(&self) -> &[(u64, TraceEvent)] {
        &self.events
    }

    pub fn into_events(self) -> Vec<(u64, TraceEvent)> {
        self.events
    }

    /// Move the captured events out, leaving the sink empty: what a caller
    /// holding the sink as `&mut dyn TraceSink` (`as_any_mut` + downcast)
    /// uses where [`Self::into_events`] would need the concrete box.
    pub fn take_events(&mut self) -> Vec<(u64, TraceEvent)> {
        std::mem::take(&mut self.events)
    }

    pub fn len(&self) -> usize {
        self.events.len()
    }

    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Encode the whole stream as JSON-lines text (one trailing newline
    /// per event).
    pub fn to_jsonl(&self) -> String {
        encode_jsonl(&self.events)
    }
}

impl TraceSink for MemorySink {
    fn emit(&mut self, at: u64, ev: &TraceEvent) {
        self.events.push((at, *ev));
    }
}

/// A bounded ring buffer keeping only the last `cap` events — the flight
/// recorder. Cheap enough to leave on for every run; dumped when a run
/// ends abnormally (event budget exhausted, incomplete flows).
#[derive(Debug, Clone)]
pub struct FlightRecorder {
    cap: usize,
    /// `cap` rounded up to a power of two slots, all filled from the start
    /// so a write is one masked store; event `i` of the run is in slot
    /// `i & (slots - 1)` until event `i + slots` overwrites it.
    ring: Vec<(u64, TraceEvent)>,
    total: u64,
}

impl FlightRecorder {
    /// `cap` is clamped to at least 1.
    pub fn new(cap: usize) -> Self {
        let cap = cap.max(1);
        let filler = (0, TraceEvent::FlowComplete { flow: 0 });
        FlightRecorder { cap, ring: vec![filler; cap.next_power_of_two()], total: 0 }
    }

    /// Total events seen, including those already evicted from the ring.
    pub fn total_seen(&self) -> u64 {
        self.total
    }

    pub fn capacity(&self) -> usize {
        self.cap
    }

    pub fn len(&self) -> usize {
        self.total.min(self.cap as u64) as usize
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    /// The retained events, oldest first.
    pub fn events(&self) -> impl ExactSizeIterator<Item = &(u64, TraceEvent)> {
        let mask = self.ring.len() - 1;
        let first = self.total as usize - self.len();
        (0..self.len()).map(move |k| &self.ring[(first + k) & mask])
    }

    /// JSONL dump of the retained tail, oldest first.
    pub fn to_jsonl(&self) -> String {
        encode_jsonl(self.events())
    }
}

impl TraceSink for FlightRecorder {
    fn emit(&mut self, at: u64, ev: &TraceEvent) {
        let mask = self.ring.len() - 1;
        self.ring[self.total as usize & mask] = (at, *ev);
        self.total += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::encode_line;

    #[test]
    fn memory_sink_records_in_order() {
        let mut s = MemorySink::new();
        s.emit(1, &TraceEvent::FlowComplete { flow: 0 });
        s.emit(2, &TraceEvent::FlowComplete { flow: 1 });
        assert_eq!(s.len(), 2);
        assert_eq!(s.events()[0].0, 1);
        assert_eq!(s.to_jsonl().lines().count(), 2);
    }

    /// A memory sink's text is its events through `encode_line`, one
    /// newline-terminated line each, in emission order.
    #[test]
    fn memory_sink_text_is_one_encoded_line_per_event() {
        let evs = [
            (5, TraceEvent::Timer { host: 1, token: 9 }),
            (6, TraceEvent::Evict { sw: 0, port: 1, flow: 2, prio: 7, bytes: 1460 }),
            (6, TraceEvent::FlowComplete { flow: 3 }),
        ];
        let mut s = MemorySink::new();
        let mut want = String::new();
        for (at, ev) in &evs {
            s.emit(*at, ev);
            encode_line(&mut want, *at, ev);
            want.push('\n');
        }
        assert_eq!(s.to_jsonl(), want);
        assert_eq!(encode_jsonl(&evs), want);
    }

    #[test]
    fn flight_recorder_keeps_only_the_tail() {
        let mut r = FlightRecorder::new(3);
        for i in 0..10u64 {
            r.emit(i, &TraceEvent::FlowComplete { flow: i });
        }
        assert_eq!(r.total_seen(), 10);
        assert_eq!(r.len(), 3);
        let kept: Vec<u64> = r.events().map(|(at, _)| *at).collect();
        assert_eq!(kept, vec![7, 8, 9]);
    }

    /// The masked ring against the `VecDeque` it replaced, at capacities on
    /// and off a power of two, before and after the ring wraps.
    #[test]
    fn flight_recorder_yields_what_a_deque_would() {
        for cap in [1usize, 3, 4, 256] {
            let mut r = FlightRecorder::new(cap);
            let mut deque = std::collections::VecDeque::new();
            for i in 0..(3 * cap as u64 + 1) {
                let ev = TraceEvent::Timer { host: i as u32, token: i };
                if deque.len() == cap {
                    deque.pop_front();
                }
                deque.push_back((i, ev));
                r.emit(i, &ev);
                assert_eq!((r.len(), r.total_seen()), (deque.len(), i + 1));
                assert!(r.events().eq(deque.iter()), "cap {cap} after {i}");
                assert_eq!(r.to_jsonl(), encode_jsonl(&deque));
            }
        }
    }

    #[test]
    fn downcast_through_the_trait_object_works() {
        let mut boxed: Box<dyn TraceSink> = Box::new(MemorySink::new());
        boxed.emit(1, &TraceEvent::FlowComplete { flow: 0 });
        let mem = boxed.as_any().downcast_ref::<MemorySink>().unwrap();
        assert_eq!(mem.len(), 1);
    }

    #[test]
    fn take_events_moves_the_stream_out_of_a_boxed_sink() {
        let mut boxed: Box<dyn TraceSink> = Box::new(MemorySink::new());
        boxed.emit(1, &TraceEvent::FlowComplete { flow: 0 });
        boxed.emit(2, &TraceEvent::FlowComplete { flow: 1 });
        let mem = boxed.as_any_mut().downcast_mut::<MemorySink>().unwrap();
        let before = mem.events().as_ptr();
        let events = mem.take_events();
        assert_eq!(events.len(), 2);
        assert_eq!(events.as_ptr(), before, "the vector is moved, not copied");
        assert!(mem.is_empty());
    }
}
