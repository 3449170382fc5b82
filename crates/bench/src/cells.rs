//! The benchmark cells more than one harness runs: the E12 flight export
//! ([`crate::flight`]) and the alloc gate's benchmark-sized leg
//! (`tests/alloc_gate.rs`) measure the same workloads under the same
//! cache geometries, defined once here.

use ulc_core::{UlcConfig, UlcMulti, UlcMultiConfig, UlcSingle};
use ulc_hierarchy::{EvictionBased, UniLru};
use ulc_trace::patterns::{LoopingPattern, Pattern};
use ulc_trace::{synthetic, Trace};

/// Level capacities of the loop-100k cells: two levels whose sum
/// (120k blocks) covers the 100k-block loop, while the client level
/// alone does not.
pub const LOOP_CAPS: [usize; 2] = [40_000, 80_000];

/// Level capacities of the zipf-small cells: three levels of 400 blocks.
pub const ZIPF_CAPS: [usize; 3] = [400, 400, 400];

/// The headline workload: `refs` references of a 100k-block loop, a
/// footprint large enough that per-block tables dominate the
/// per-reference cost.
pub fn loop_100k(refs: usize) -> Trace {
    LoopingPattern::new(100_000).generate(refs)
}

/// ULC over [`LOOP_CAPS`].
pub fn ulc_loop() -> UlcSingle {
    UlcSingle::new(UlcConfig::new(LOOP_CAPS.to_vec()))
}

/// uniLRU over [`LOOP_CAPS`].
pub fn unilru_loop() -> UniLru {
    UniLru::single_client(LOOP_CAPS.to_vec())
}

/// Evict-reload over [`LOOP_CAPS`]: the first level is the client, the
/// second the server, with a reload latency of 5 references.
pub fn evict_reload_loop() -> EvictionBased {
    EvictionBased::new(vec![LOOP_CAPS[0]], LOOP_CAPS[1], 5)
}

/// ULC over [`ZIPF_CAPS`], for `synthetic::zipf_small`.
pub fn ulc_zipf() -> UlcSingle {
    UlcSingle::new(UlcConfig::new(ZIPF_CAPS.to_vec()))
}

/// uniLRU over [`ZIPF_CAPS`], for `synthetic::zipf_small`.
pub fn unilru_zipf() -> UniLru {
    UniLru::single_client(ZIPF_CAPS.to_vec())
}

/// ULC-multi for the `httpd-multi` workload: 7 clients of 1024 blocks
/// over an 8192-block server.
pub fn ulc_multi_httpd() -> UlcMulti {
    UlcMulti::new(UlcMultiConfig::uniform(7, 1024, 8192))
}

/// The `db2-multi` workload: eight clients over fully disjoint scan
/// ranges, the footprint scaled so each client's 1,000-block range is
/// resident at its client once warm — the high-exclusivity, private-hit
/// regime.
pub fn db2_multi(refs: usize) -> Trace {
    synthetic::db2_multi(refs, 8_000)
}

/// ULC-multi for [`db2_multi`]: 8 clients of 1024 blocks over an
/// 8192-block server.
pub fn ulc_multi_db2() -> UlcMulti {
    UlcMulti::new(UlcMultiConfig::uniform(8, 1024, 8192))
}
