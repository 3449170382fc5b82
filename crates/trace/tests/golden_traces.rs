//! Golden trace digests: the frozen reference streams of every seeded
//! generator.
//!
//! Each line of `golden/trace_digests.txt` names one trace, its length
//! and the 64-bit FNV-1a digest of its `(client, block)` pairs, each
//! hashed as the client's `u32` then the block's `u64`, little-endian.
//! The traces are every `ulc_trace::synthetic` constructor (through the
//! two single-client suites, so the suites are pinned too), plus
//! `ZipfPattern` at θ = 0 and θ = 3 over the large `zipf` footprint and
//! at θ = 1 over a support too small for more than one guide bucket.
//! Every simulated number in the workspace starts from one of these
//! streams, so a sampler or generator change that keeps this file
//! unchanged cannot move a result.
//!
//! There is no bless switch. On a mismatch the test prints the whole
//! actual text, so an intended change to a stream is a deliberate edit
//! of the golden file that shows in the diff.

use ulc_trace::patterns::{Pattern, ZipfPattern};
use ulc_trace::{synthetic, Trace};

const GOLDEN: &str = include_str!("golden/trace_digests.txt");

/// References per trace: long enough that every generator wraps its
/// loops and churns its popularity, short enough for a debug build.
const REFS: usize = 200_000;

/// FNV-1a over every record's client index and block id.
fn digest(trace: &Trace) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    let mut h = OFFSET;
    for r in trace {
        let client = r.client.index().to_le_bytes();
        let block = r.block.raw().to_le_bytes();
        for byte in client.into_iter().chain(block) {
            h ^= u64::from(byte);
            h = h.wrapping_mul(PRIME);
        }
    }
    h
}

fn line(name: &str, trace: &Trace) -> String {
    format!("{name} refs={} fnv1a={:016x}", trace.len(), digest(trace))
}

/// Every trace, in golden-file order.
fn traces() -> Vec<String> {
    let mut lines = Vec::new();
    for (name, trace) in synthetic::small_suite(REFS) {
        lines.push(line(&format!("small/{name}"), &trace));
    }
    for (name, trace) in synthetic::single_client_suite(REFS) {
        lines.push(line(&format!("large/{name}"), &trace));
    }
    lines.push(line("multi/httpd", &synthetic::httpd_multi(REFS)));
    lines.push(line("multi/openmail", &synthetic::openmail(REFS, 60_000)));
    lines.push(line("multi/db2", &synthetic::db2_multi(REFS, 80_000)));
    for (theta, seed) in [(0.0, 0x5eed50), (3.0, 0x5eed51)] {
        let trace = ZipfPattern::new(synthetic::ZIPF_LARGE_BLOCKS, theta, seed).generate(REFS);
        lines.push(line(&format!("zipf/theta={theta}"), &trace));
    }
    let tiny = ZipfPattern::new(7, 1.0, 0x5eed52).generate(REFS);
    lines.push(line("zipf/n=7", &tiny));
    lines
}

#[test]
fn every_trace_matches_its_golden_digest() {
    let lines = traces();
    let mut actual = lines.join("\n");
    actual.push('\n');
    if actual == GOLDEN {
        return;
    }
    let golden: Vec<&str> = GOLDEN.lines().collect();
    for (i, line) in lines.iter().enumerate() {
        if golden.get(i) != Some(&line.as_str()) {
            eprintln!(
                "line {}:\n  golden: {:?}\n  actual: {line}",
                i + 1,
                golden.get(i)
            );
        }
    }
    eprintln!("--- actual golden/trace_digests.txt ---\n{actual}--- end ---");
    panic!(
        "trace digests drifted from golden/trace_digests.txt ({} actual vs {} golden lines)",
        lines.len(),
        golden.len()
    );
}
