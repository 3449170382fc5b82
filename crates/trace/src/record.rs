//! Trace containers: sequences of block references.

use crate::{BlockId, ClientId};
use serde::{Deserialize, Serialize};
use std::collections::HashSet;
use std::fmt;

/// One block reference in a trace: client `client` requests `block`.
///
/// # Examples
///
/// ```
/// use ulc_trace::{BlockId, ClientId, TraceRecord};
///
/// let r = TraceRecord::new(ClientId::SINGLE, BlockId::new(5));
/// assert_eq!(r.block, BlockId::new(5));
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct TraceRecord {
    /// The client that issued the request.
    pub client: ClientId,
    /// The requested block.
    pub block: BlockId,
}

impl TraceRecord {
    /// Creates a record.
    #[inline]
    pub const fn new(client: ClientId, block: BlockId) -> Self {
        TraceRecord { client, block }
    }

    /// Creates a record for the single-client structure.
    #[inline]
    pub const fn single(block: BlockId) -> Self {
        TraceRecord {
            client: ClientId::SINGLE,
            block,
        }
    }
}

impl fmt::Display for TraceRecord {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.client, self.block)
    }
}

/// An in-memory block reference trace.
///
/// A `Trace` is an ordered sequence of [`TraceRecord`]s plus the number of
/// clients that appear in it. The paper's simulation methodology (§4.2) uses
/// the first tenth of each trace to warm the caches; [`Trace::warmup_len`]
/// exposes that split point.
///
/// # Examples
///
/// ```
/// use ulc_trace::{BlockId, Trace};
///
/// let t = Trace::from_blocks([1u64, 2, 3, 1].map(BlockId::new));
/// assert_eq!(t.len(), 4);
/// assert_eq!(t.unique_blocks(), 3);
/// ```
#[derive(Clone, Debug, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct Trace {
    records: Vec<TraceRecord>,
    num_clients: u32,
}

impl Trace {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace::default()
    }

    /// Creates an empty trace with room for `capacity` records, so a
    /// generator that knows its length pushes them without regrowing.
    pub fn with_capacity(capacity: usize) -> Self {
        Trace {
            records: Vec::with_capacity(capacity),
            num_clients: 0,
        }
    }

    /// Creates a trace from records, inferring the client count as
    /// `max client index + 1` (0 for an empty trace).
    pub fn from_records<I: IntoIterator<Item = TraceRecord>>(records: I) -> Self {
        let records: Vec<TraceRecord> = records.into_iter().collect();
        let num_clients = records
            .iter()
            .map(|r| r.client.index() + 1)
            .max()
            .unwrap_or(0);
        Trace {
            records,
            num_clients,
        }
    }

    /// Creates a single-client trace from a sequence of block ids.
    pub fn from_blocks<I: IntoIterator<Item = BlockId>>(blocks: I) -> Self {
        Trace::from_records(blocks.into_iter().map(TraceRecord::single))
    }

    /// Appends one record.
    pub fn push(&mut self, record: TraceRecord) {
        self.num_clients = self.num_clients.max(record.client.index() + 1);
        self.records.push(record);
    }

    /// Returns the number of references in the trace.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if the trace holds no references.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Returns the number of clients issuing requests (max index + 1).
    pub fn num_clients(&self) -> u32 {
        self.num_clients
    }

    /// Returns the records as a slice.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Iterates over the records.
    pub fn iter(&self) -> std::slice::Iter<'_, TraceRecord> {
        self.records.iter()
    }

    /// Returns the number of distinct blocks referenced.
    pub fn unique_blocks(&self) -> usize {
        self.records
            .iter()
            .map(|r| r.block)
            .collect::<HashSet<_>>()
            .len()
    }

    /// Returns the number of references used for cache warm-up: the first
    /// tenth of the trace, following §4.2 of the paper.
    pub fn warmup_len(&self) -> usize {
        self.records.len() / 10
    }

    /// Splits the trace into the warm-up prefix and the measured remainder.
    pub fn split_warmup(&self) -> (&[TraceRecord], &[TraceRecord]) {
        self.records.split_at(self.warmup_len())
    }

    /// Returns the references issued by a single client, preserving order.
    pub fn client_stream(&self, client: ClientId) -> Vec<BlockId> {
        self.records
            .iter()
            .filter(|r| r.client == client)
            .map(|r| r.block)
            .collect()
    }

    /// Truncates the trace to at most `max_len` references.
    pub fn truncate(&mut self, max_len: usize) {
        self.records.truncate(max_len);
    }
}

impl FromIterator<TraceRecord> for Trace {
    fn from_iter<I: IntoIterator<Item = TraceRecord>>(iter: I) -> Self {
        Trace::from_records(iter)
    }
}

impl FromIterator<BlockId> for Trace {
    fn from_iter<I: IntoIterator<Item = BlockId>>(iter: I) -> Self {
        Trace::from_blocks(iter)
    }
}

impl Extend<TraceRecord> for Trace {
    fn extend<I: IntoIterator<Item = TraceRecord>>(&mut self, iter: I) {
        for r in iter {
            self.push(r);
        }
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a TraceRecord;
    type IntoIter = std::slice::Iter<'a, TraceRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.iter()
    }
}

impl IntoIterator for Trace {
    type Item = TraceRecord;
    type IntoIter = std::vec::IntoIter<TraceRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Trace {
        Trace::from_records(vec![
            TraceRecord::new(ClientId::new(0), BlockId::new(1)),
            TraceRecord::new(ClientId::new(2), BlockId::new(2)),
            TraceRecord::new(ClientId::new(1), BlockId::new(1)),
        ])
    }

    #[test]
    fn infers_client_count_from_max_index() {
        assert_eq!(sample().num_clients(), 3);
        assert_eq!(Trace::new().num_clients(), 0);
    }

    #[test]
    fn unique_blocks_deduplicates() {
        assert_eq!(sample().unique_blocks(), 2);
    }

    #[test]
    fn warmup_is_first_tenth() {
        let t = Trace::from_blocks((0..100).map(BlockId::new));
        assert_eq!(t.warmup_len(), 10);
        let (w, m) = t.split_warmup();
        assert_eq!(w.len(), 10);
        assert_eq!(m.len(), 90);
        assert_eq!(w[0].block, BlockId::new(0));
        assert_eq!(m[0].block, BlockId::new(10));
    }

    #[test]
    fn warmup_of_tiny_trace_is_empty() {
        let t = Trace::from_blocks((0..9).map(BlockId::new));
        assert_eq!(t.warmup_len(), 0);
    }

    #[test]
    fn client_stream_filters_and_preserves_order() {
        let t = Trace::from_records(vec![
            TraceRecord::new(ClientId::new(0), BlockId::new(1)),
            TraceRecord::new(ClientId::new(1), BlockId::new(9)),
            TraceRecord::new(ClientId::new(0), BlockId::new(3)),
        ]);
        assert_eq!(
            t.client_stream(ClientId::new(0)),
            vec![BlockId::new(1), BlockId::new(3)]
        );
        assert_eq!(t.client_stream(ClientId::new(1)), vec![BlockId::new(9)]);
        assert!(t.client_stream(ClientId::new(7)).is_empty());
    }

    #[test]
    fn push_updates_client_count() {
        let mut t = Trace::new();
        t.push(TraceRecord::new(ClientId::new(4), BlockId::new(0)));
        assert_eq!(t.num_clients(), 5);
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn collect_from_block_iterator() {
        let t: Trace = (0..5).map(BlockId::new).collect();
        assert_eq!(t.len(), 5);
        assert_eq!(t.num_clients(), 1);
    }

    #[test]
    fn extend_appends() {
        let mut t = sample();
        t.extend(vec![TraceRecord::new(ClientId::new(6), BlockId::new(7))]);
        assert_eq!(t.len(), 4);
        assert_eq!(t.num_clients(), 7);
    }

    #[test]
    fn truncate_shortens() {
        let mut t = Trace::from_blocks((0..100).map(BlockId::new));
        t.truncate(7);
        assert_eq!(t.len(), 7);
    }

    #[test]
    fn serde_roundtrip() {
        let t = sample();
        let json = serde_json::to_string(&t).unwrap();
        let back: Trace = serde_json::from_str(&json).unwrap();
        assert_eq!(t, back);
    }
}
