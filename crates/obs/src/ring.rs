//! Fixed-capacity ring-buffer event log.
//!
//! The ring is allocated once at [`RingLog::new`] (cold path) and then
//! recorded into by overwriting slots in place — the steady-state hot
//! path performs two index stores per event and never touches the
//! allocator, which is what lets the alloc gate stay at zero
//! allocations with recording enabled.
//!
//! When the ring wraps, the *oldest* events are overwritten and counted
//! in [`RingLog::dropped`]. Aggregate truth never depends on the ring —
//! the [`crate::MetricsRegistry`] counters are exact for the whole run —
//! but replay-style checks ([`crate::check::replay_residency`]) require a
//! complete stream and refuse to run over a wrapped log.

use crate::event::Event;

/// A bounded, overwrite-oldest event log.
#[derive(Clone, Debug)]
pub struct RingLog {
    buf: Vec<Event>,
    /// Next slot to write.
    next: usize,
    /// Live events (≤ capacity).
    len: usize,
    /// Events overwritten after the ring wrapped.
    dropped: u64,
}

impl RingLog {
    /// Creates a ring holding up to `capacity` events. Allocates the
    /// full backing store eagerly; `capacity` must be nonzero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "ring capacity must be nonzero");
        RingLog {
            buf: vec![Event::default(); capacity],
            next: 0,
            len: 0,
            dropped: 0,
        }
    }

    /// Appends an event, overwriting the oldest one if the ring is full.
    #[inline]
    pub fn push(&mut self, ev: Event) {
        if self.len == self.buf.len() {
            self.dropped += 1;
        } else {
            self.len += 1;
        }
        self.buf[self.next] = ev;
        self.next += 1;
        if self.next == self.buf.len() {
            self.next = 0;
        }
    }

    /// Live events currently in the ring.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing has been recorded yet.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Slots the ring can hold.
    pub fn capacity(&self) -> usize {
        self.buf.len()
    }

    /// Events lost to wrap-around since construction.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Iterates the live events oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &Event> + '_ {
        let start = if self.len < self.buf.len() {
            0
        } else {
            self.next
        };
        (0..self.len).map(move |i| {
            let idx = (start + i) % self.buf.len();
            &self.buf[idx]
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::EventKind;

    fn ev(tick: u64) -> Event {
        Event {
            tick,
            block: tick * 10,
            level: 0,
            kind: EventKind::Hit,
        }
    }

    #[test]
    fn keeps_everything_below_capacity() {
        let mut log = RingLog::new(8);
        for t in 0..5 {
            log.push(ev(t));
        }
        assert_eq!(log.len(), 5);
        assert_eq!(log.dropped(), 0);
        let ticks: Vec<u64> = log.iter().map(|e| e.tick).collect();
        assert_eq!(ticks, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn wraps_by_dropping_oldest() {
        let mut log = RingLog::new(4);
        for t in 0..10 {
            log.push(ev(t));
        }
        assert_eq!(log.len(), 4);
        assert_eq!(log.dropped(), 6);
        let ticks: Vec<u64> = log.iter().map(|e| e.tick).collect();
        assert_eq!(ticks, vec![6, 7, 8, 9]);
    }

    #[test]
    fn exact_fill_is_chronological_without_drops() {
        let mut log = RingLog::new(3);
        for t in 0..3 {
            log.push(ev(t));
        }
        assert_eq!(log.dropped(), 0);
        let ticks: Vec<u64> = log.iter().map(|e| e.tick).collect();
        assert_eq!(ticks, vec![0, 1, 2]);
    }
}
