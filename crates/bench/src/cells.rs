//! The benchmark cells more than one harness runs: the E9 throughput
//! study ([`crate::throughput`]) and the E12 flight export
//! ([`crate::flight`]) measure the same workloads under the same cache
//! geometries, defined once here.

use ulc_core::{UlcConfig, UlcMulti, UlcMultiConfig, UlcSingle};
use ulc_hierarchy::{EvictionBased, UniLru};
use ulc_trace::patterns::{LoopingPattern, Pattern};
use ulc_trace::Trace;

/// Level capacities of the loop-100k cells: two levels whose sum
/// (120k blocks) covers the 100k-block loop, while the client level
/// alone does not.
pub const LOOP_CAPS: [usize; 2] = [40_000, 80_000];

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

/// ULC-multi for the `httpd-multi` workload: 7 clients of 1024 blocks
/// over an 8192-block server.
pub fn ulc_multi_httpd() -> UlcMulti {
    UlcMulti::new(UlcMultiConfig::uniform(7, 1024, 8192))
}
