//! Property-based tests for the workload generators and the block
//! tables, including `BlockMap` as the node locator of `ulc_cache`'s
//! LRUs.

use proptest::prelude::*;
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{BuildHasher, BuildHasherDefault, Hash};
use ulc_cache::{CacheEvent, LruCache, LruStack, NodeHandle, NodeLocator};
use ulc_trace::patterns::{
    FileSetPattern, LoopingPattern, Pattern, SequentialPattern, TemporalPattern, UniformPattern,
    WorkingSetDriftPattern, ZipfPattern,
};
use ulc_trace::{
    BlockId, BlockMap, ClientId, FileId, Trace, TraceRecord, TraceStats, Zipf, DIRECT_LIMIT,
};

/// What `value` feeds the Fx hasher and std's `DefaultHasher`.
fn hashes<T: Hash>(value: &T) -> (u64, u64) {
    (
        fxhash::FxBuildHasher::default().hash_one(value),
        BuildHasherDefault::<DefaultHasher>::default().hash_one(value),
    )
}

/// What one LRU operation returned.
#[derive(Debug, PartialEq)]
enum Ret {
    Present(bool),
    Key(Option<BlockId>),
    Event(CacheEvent<BlockId>),
}

/// An unbounded LRU stack and a bounded LRU cache over one locator type.
struct Lrus<M> {
    stack: LruStack<BlockId, M>,
    cache: LruCache<BlockId, M>,
}

impl<M: NodeLocator<BlockId>> Lrus<M> {
    fn new(capacity: usize, locator: impl Fn() -> M) -> Self {
        Lrus {
            stack: LruStack::with_locator(locator()),
            cache: LruCache::with_locator(capacity, locator()),
        }
    }

    /// Ops 0–3 act on the stack, 4–7 on the cache.
    fn apply(&mut self, op: u8, b: BlockId) -> Ret {
        match op {
            0 => Ret::Present(self.stack.touch(b)),
            1 => Ret::Present(self.stack.touch_bottom(b)),
            2 => Ret::Present(self.stack.remove(&b)),
            3 => Ret::Key(self.stack.pop_bottom()),
            4 => Ret::Event(self.cache.access(b)),
            5 => Ret::Key(self.cache.insert_mru(b)),
            6 => Ret::Key(self.cache.insert_lru(b)),
            _ => Ret::Present(self.cache.remove(&b)),
        }
    }

    /// Lengths and MRU→LRU orders of both structures.
    fn state(&self) -> (usize, Vec<BlockId>, usize, Vec<BlockId>) {
        (
            self.stack.len(),
            self.stack.iter().copied().collect(),
            self.cache.len(),
            self.cache.iter().copied().collect(),
        )
    }
}

/// The same operations on plain MRU-first vectors.
struct LruModel {
    stack: Vec<BlockId>,
    cache: Vec<BlockId>,
    capacity: usize,
}

impl LruModel {
    fn take(order: &mut Vec<BlockId>, b: BlockId) -> bool {
        let at = order.iter().position(|&x| x == b);
        at.map(|i| order.remove(i)).is_some()
    }

    /// Inserts `b` at the MRU (or LRU) end, then evicts from the LRU end
    /// past the capacity; returns whether `b` was present and the victim.
    fn insert(&mut self, b: BlockId, mru: bool) -> (bool, Option<BlockId>) {
        let present = Self::take(&mut self.cache, b);
        if mru {
            self.cache.insert(0, b);
        } else {
            self.cache.push(b);
        }
        let victim = if self.cache.len() > self.capacity {
            self.cache.pop()
        } else {
            None
        };
        (present, victim)
    }

    fn apply(&mut self, op: u8, b: BlockId) -> Ret {
        match op {
            0 => {
                let present = Self::take(&mut self.stack, b);
                self.stack.insert(0, b);
                Ret::Present(present)
            }
            1 => {
                let present = Self::take(&mut self.stack, b);
                self.stack.push(b);
                Ret::Present(present)
            }
            2 => Ret::Present(Self::take(&mut self.stack, b)),
            3 => Ret::Key(self.stack.pop()),
            4 => match self.insert(b, true) {
                (true, _) => Ret::Event(CacheEvent::Hit),
                (false, evicted) => Ret::Event(CacheEvent::Miss { evicted }),
            },
            5 => Ret::Key(self.insert(b, true).1),
            6 => Ret::Key(self.insert(b, false).1),
            _ => Ret::Present(Self::take(&mut self.cache, b)),
        }
    }

    fn state(&self) -> (usize, Vec<BlockId>, usize, Vec<BlockId>) {
        (
            self.stack.len(),
            self.stack.clone(),
            self.cache.len(),
            self.cache.clone(),
        )
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every seeded generator is a pure function of its parameters.
    #[test]
    fn generators_are_deterministic(seed in 0u64..1_000, len in 1usize..300) {
        let a = UniformPattern::new(100, seed).generate(len);
        let b = UniformPattern::new(100, seed).generate(len);
        prop_assert_eq!(a, b);
        let a = ZipfPattern::new(100, 1.0, seed).generate(len);
        let b = ZipfPattern::new(100, 1.0, seed).generate(len);
        prop_assert_eq!(a, b);
        let a = TemporalPattern::new(50, 0.9, seed).generate(len);
        let b = TemporalPattern::new(50, 0.9, seed).generate(len);
        prop_assert_eq!(a, b);
        let a = WorkingSetDriftPattern::new(200, 20, seed).generate(len);
        let b = WorkingSetDriftPattern::new(200, 20, seed).generate(len);
        prop_assert_eq!(a, b);
    }

    /// Generators never step outside their declared footprint.
    #[test]
    fn footprints_are_respected(
        n in 1u64..200,
        seed in 0u64..100,
        len in 1usize..500,
    ) {
        let mut p = UniformPattern::new(n, seed);
        for _ in 0..len {
            prop_assert!(p.next_block().raw() < n);
        }
        let mut p = ZipfPattern::new(n, 1.0, seed).scrambled(seed + 1);
        for _ in 0..len {
            prop_assert!(p.next_block().raw() < n);
        }
        let mut p = LoopingPattern::new(n);
        for _ in 0..len {
            prop_assert!(p.next_block().raw() < n);
        }
    }

    /// A loop of length n visits every block exactly once per n steps.
    #[test]
    fn loop_is_a_permutation_per_cycle(n in 1u64..100, cycles in 1usize..5) {
        let trace = LoopingPattern::new(n).generate(n as usize * cycles);
        let stats = TraceStats::compute(&trace);
        prop_assert_eq!(stats.unique_blocks as u64, n);
        prop_assert_eq!(stats.max_block_refs, cycles);
    }

    /// Zipf probabilities are non-increasing in rank.
    #[test]
    fn zipf_pmf_is_monotone(n in 2usize..300, theta in 0.0f64..3.0) {
        let z = Zipf::new(n, theta);
        for r in 1..n {
            prop_assert!(z.pmf(r) <= z.pmf(r - 1) + 1e-12);
        }
    }

    /// File-set reads: every emitted block belongs to the file set, and
    /// offsets within each file never exceed the file's size.
    #[test]
    fn file_set_reads_stay_inside_files(
        files in 1u32..40,
        seed in 0u64..50,
        len in 1usize..400,
    ) {
        let total = files as u64 * 4;
        let mut p = FileSetPattern::new(files, total, 1.0, seed);
        let mut max_seen = std::collections::HashMap::new();
        for _ in 0..len {
            let b = p.next_block();
            prop_assert!(b.file().index() < files);
            let e = max_seen.entry(b.file()).or_insert(0u32);
            *e = (*e).max(b.offset());
        }
        let sum_bound: u64 = max_seen.values().map(|&m| m as u64 + 1).sum();
        prop_assert!(sum_bound <= total + files as u64);
    }

    /// Warm-up split is exact and order preserving.
    #[test]
    fn warmup_split_partitions_trace(blocks in proptest::collection::vec(0u64..50, 0..200)) {
        let t: Trace = blocks.iter().map(|&b| ulc_trace::BlockId::new(b)).collect();
        let (w, m) = t.split_warmup();
        prop_assert_eq!(w.len() + m.len(), t.len());
        prop_assert_eq!(w.len(), t.len() / 10);
        let rejoined: Vec<_> = w.iter().chain(m.iter()).collect();
        for (a, b) in rejoined.iter().zip(t.iter()) {
            prop_assert_eq!(*a, b);
        }
    }

    /// A non-wrapping sequential sweep never repeats a block.
    #[test]
    fn sequential_sweep_never_repeats(start in 0u64..1000, len in 1usize..300) {
        let t = SequentialPattern::new(start, 10).generate(len);
        prop_assert_eq!(t.unique_blocks(), len);
    }

    /// `LruStack`/`LruCache` behave identically under both node locators
    /// — the default Fx map and `BlockMap` — and match a vector model, for block ids on both sides of
    /// `DIRECT_LIMIT`: small direct-indexed ids and file-set ids
    /// `(f << 32) | o` that take the dense map's sparse fallback.
    #[test]
    fn lru_locators_agree_with_a_vector_model(
        capacity in 1usize..8,
        ops in proptest::collection::vec((0u8..8, 0u64..24, any::<bool>()), 0..300),
    ) {
        let mut fx = Lrus::new(capacity, fxhash::FxHashMap::<BlockId, NodeHandle>::default);
        let mut dense = Lrus::new(capacity, BlockMap::<NodeHandle>::new);
        let mut model = LruModel { stack: Vec::new(), cache: Vec::new(), capacity };
        for &(op, k, file_set) in &ops {
            let raw = if file_set { ((k % 4 + 1) << 32) | (k / 4) } else { k };
            prop_assert_eq!(raw >= DIRECT_LIMIT, file_set);
            let b = BlockId::new(raw);
            let want = model.apply(op, b);
            prop_assert_eq!(fx.apply(op, b), want);
            prop_assert_eq!(dense.apply(op, b), want);
            let state = model.state();
            prop_assert_eq!(fx.state(), state);
            prop_assert_eq!(dense.state(), state);
        }
    }

    /// `BlockId` keeps its 8 bytes at 4-byte alignment, yet acts as its
    /// raw `u64` everywhere: for ids below `DIRECT_LIMIT`, at or above it,
    /// and file-set ids `(f << 32) | o`, it hashes as the `u64` under the
    /// Fx hasher and std's `DefaultHasher` (so every Fx table iterates as
    /// before), orders as it and serializes to the same `Value`, and a
    /// `TraceRecord` holding it round-trips through JSON unchanged.
    #[test]
    fn block_ids_hash_order_and_serialize_as_their_raw_u64(
        ids in proptest::collection::vec((0u8..3, any::<u32>(), any::<u32>()), 1..40),
        client in any::<u32>(),
    ) {
        let blocks: Vec<BlockId> = ids
            .iter()
            .map(|&(tier, hi, lo)| match tier {
                0 => BlockId::new(u64::from(lo) % DIRECT_LIMIT),
                1 => BlockId::new(DIRECT_LIMIT + u64::from(lo)),
                _ => BlockId::in_file(FileId::new(hi % u32::MAX), lo),
            })
            .collect();
        for (&b, &next) in blocks.iter().zip(blocks.iter().cycle().skip(1)) {
            let raw = b.raw();
            prop_assert_eq!(hashes(&b), hashes(&raw));
            prop_assert_eq!(b.cmp(&next), raw.cmp(&next.raw()));
            prop_assert_eq!(b.partial_cmp(&next), raw.partial_cmp(&next.raw()));
            prop_assert_eq!(b.to_value(), raw.to_value());
            prop_assert_eq!(BlockId::from_value(&raw.to_value()), Ok(b));
            let record = TraceRecord::new(ClientId::new(client), b);
            let json = serde_json::to_string(&record).expect("a record serializes");
            let back: TraceRecord = serde_json::from_str(&json).expect("its JSON parses");
            prop_assert_eq!(back, record);
        }
    }

    /// A `BlockMap` stays observationally equal to a std `HashMap` model
    /// under an arbitrary insert/remove/get/get_mut/clear script, with
    /// reuse after every clear, for ids on both sides of `DIRECT_LIMIT`:
    /// small direct-indexed ids, ids just past the limit and file-set ids
    /// `(f << 32) | o`, the last two in the sparse tier. After every step
    /// `len`, `is_empty` and the sorted `iter()` match the model.
    #[test]
    fn block_map_matches_a_hash_map_model_under_arbitrary_scripts(
        ops in proptest::collection::vec((0u8..32, 0u8..3, 0u64..60), 0..300),
    ) {
        let mut map: BlockMap<u64> = BlockMap::new();
        let mut model: HashMap<BlockId, u64> = HashMap::new();
        for (i, &(op, tier, k)) in ops.iter().enumerate() {
            let raw = match tier {
                0 => k,
                1 => DIRECT_LIMIT + k,
                _ => ((k % 4 + 1) << 32) | (k / 4),
            };
            prop_assert_eq!(raw >= DIRECT_LIMIT, tier != 0);
            let b = BlockId::new(raw);
            match op {
                0..=11 => prop_assert_eq!(map.insert(b, i as u64), model.insert(b, i as u64)),
                12..=19 => prop_assert_eq!(map.remove(b), model.remove(&b)),
                20..=25 => {
                    prop_assert_eq!(map.get(b), model.get(&b));
                    prop_assert_eq!(map.contains_key(b), model.contains_key(&b));
                }
                26..=30 => {
                    let got = map.get_mut(b).map(|v| {
                        *v += 1_000;
                        *v
                    });
                    let want = model.get_mut(&b).map(|v| {
                        *v += 1_000;
                        *v
                    });
                    prop_assert_eq!(got, want);
                }
                _ => {
                    map.clear();
                    model.clear();
                }
            }
            prop_assert_eq!(map.len(), model.len(), "len after step {}", i);
            prop_assert_eq!(map.is_empty(), model.is_empty());
            let mut got: Vec<(BlockId, u64)> = map.iter().map(|(b, &v)| (b, v)).collect();
            let mut want: Vec<(BlockId, u64)> = model.iter().map(|(&b, &v)| (b, v)).collect();
            got.sort_unstable();
            want.sort_unstable();
            prop_assert_eq!(got, want, "entries after step {}", i);
        }
    }
}
