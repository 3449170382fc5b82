//! Host-speed calibration. On a shared host, other tenants' load slows
//! memory-bound code by up to 2× for minutes at a time; CPU steal stays
//! near zero, so the loss is in the caches and memory, not in scheduling.
//! A fixed kernel, written here and independent of the engines, runs
//! just before and just after every timed step. Its time tells how fast
//! the host was during that step, and the step's time is scaled to the
//! speed the kernel has on a reference host.

use crate::measure::{now, secs_since, Checks};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::hint::black_box;

/// Blocks the kernel's LRU list holds.
const CAPACITY: usize = 16_384;
/// References one kernel pass replays.
const REFS: u32 = 1 << 20;
/// Hits one pass scores. The kernel is deterministic, so every pass
/// must score exactly this.
const HITS: u64 = 748_959;
/// Seconds one kernel pass takes on the reference host: the 2-vCPU Xeon
/// VM the bounds were set on (see README.md), while other tenants were
/// quiet. Scaled times read as that host would give them.
pub const REFERENCE_SECS: f64 = 0.02;

/// A multiply-xorshift hash of a `u64` key; the kernel needs no
/// protection against adversarial keys.
#[derive(Default)]
struct Mix(u64);

impl Hasher for Mix {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 ^ u64::from(b));
        }
    }

    fn write_u64(&mut self, x: u64) {
        self.0 = (x ^ (x >> 29)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    }
}

/// One kernel pass: an LRU list of [`CAPACITY`] blocks over a fixed
/// pseudo-random stream of [`REFS`] block ids, four in five from 12,000
/// hot blocks and the rest from 200,000. Hash lookups and list moves over
/// a table of about a megabyte, the kind of work the engines do. Returns
/// the hits.
fn lru_pass() -> u64 {
    const NIL: u32 = u32::MAX;
    let mut slot_of: HashMap<u64, u32, BuildHasherDefault<Mix>> =
        HashMap::with_capacity_and_hasher(CAPACITY, BuildHasherDefault::default());
    let mut block: Vec<u64> = Vec::with_capacity(CAPACITY);
    let mut prev: Vec<u32> = Vec::with_capacity(CAPACITY);
    let mut next: Vec<u32> = Vec::with_capacity(CAPACITY);
    let (mut head, mut tail) = (NIL, NIL);
    let mut hits = 0;
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..REFS {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let id = if (x >> 40) % 5 < 4 {
            x % 12_000
        } else {
            x % 200_000
        };
        let slot = match slot_of.get(&id) {
            Some(&s) => {
                hits += 1;
                if s == head {
                    continue;
                }
                // Unlink; `s` is not the head, so it has a predecessor.
                let (p, n) = (prev[s as usize], next[s as usize]);
                next[p as usize] = n;
                if n == NIL {
                    tail = p;
                } else {
                    prev[n as usize] = p;
                }
                s
            }
            None if block.len() < CAPACITY => {
                let s = block.len() as u32;
                block.push(id);
                prev.push(NIL);
                next.push(NIL);
                slot_of.insert(id, s);
                s
            }
            None => {
                // Evict the tail and reuse its slot.
                let s = tail;
                slot_of.remove(&block[s as usize]);
                tail = prev[s as usize];
                next[tail as usize] = NIL;
                block[s as usize] = id;
                slot_of.insert(id, s);
                s
            }
        };
        prev[slot as usize] = NIL;
        next[slot as usize] = head;
        if head != NIL {
            prev[head as usize] = slot;
        }
        head = slot;
        if tail == NIL {
            tail = slot;
        }
    }
    hits
}

/// The host's speed, sampled by a kernel pass after every timed step.
pub struct HostClock {
    /// Seconds of the last kernel pass.
    before: f64,
}

impl HostClock {
    /// Runs one untimed pass to warm up, then the first timed one.
    pub fn new(checks: &mut Checks) -> HostClock {
        HostClock::pass(checks);
        HostClock {
            before: HostClock::pass(checks),
        }
    }

    /// One checked kernel pass: its seconds.
    fn pass(checks: &mut Checks) -> f64 {
        let start = now();
        let hits = black_box(lru_pass());
        let secs = secs_since(start);
        checks.check(hits == HITS, || {
            format!("calibration kernel scored {hits} hits, not {HITS}")
        });
        secs
    }

    /// Scales `secs`, the time of a step that ran since the last pass, to
    /// the reference host: `secs × REFERENCE_SECS ÷` the mean of the
    /// passes just before and just after the step. Runs the pass after.
    pub fn scale(&mut self, secs: f64, checks: &mut Checks) -> f64 {
        let after = HostClock::pass(checks);
        let host = (self.before + after) / 2.0;
        self.before = after;
        secs * REFERENCE_SECS / host
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_kernel_is_deterministic() {
        assert_eq!(lru_pass(), HITS);
    }

    #[test]
    fn scaling_divides_by_the_mean_of_the_neighbouring_passes() {
        let mut checks = Checks::default();
        let mut clock = HostClock {
            before: REFERENCE_SECS,
        };
        let scaled = clock.scale(1.0, &mut checks);
        let want = REFERENCE_SECS / ((REFERENCE_SECS + clock.before) / 2.0);
        assert!((scaled - want).abs() < 1e-12);
        assert_eq!((checks.attempted, checks.failed), (1, 0));
    }
}
