//! The traced run of one workload (built with the `obs` feature): the
//! per-layer metrics, each measured from outside the engines through
//! their public entry points, plus the run's span tree as a Chrome trace.

use crate::calibrate::HostClock;
use crate::e2e::{check_engines, setup, timed_simulate, warm_up, Expected, PROTOCOLS};
use crate::measure::{
    json_text, median, mrefs_per_s, nanos_u32, now, quantile, ratio, secs_since, timer_overhead_ns,
    Checks, Metric,
};
use crate::workloads::{Engine, Spec, Visit};
use crate::Report;
use serde::Value;
use std::collections::HashMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;
use ulc_core::{AccessScratch, UniLruStack};
use ulc_hierarchy::{AccessOutcome, SimStats, PREFETCH_DISTANCE};
use ulc_trace::{Trace, DIRECT_LIMIT};

/// Set-ups in the traced run; the step timings are their medians.
const SETUPS: usize = 9;
/// Timed repeats per layer measurement in the traced run.
const TRACED_REPEATS: usize = 5;
/// One access in this many is timed by the sampled replay.
const SAMPLE_EVERY: usize = 16;
/// References per chunk of the sampled replay's chunk timings.
const CHUNK_REFS: usize = 16 * 1024;
/// Event-ring slots of an attached recorder (as the flight export).
const RING_CAPACITY: usize = 1 << 16;
/// Timeline windows of an attached recorder.
const TIMELINE_WINDOWS: usize = 64;

/// Access classes of the sampled replay: the hit level or miss of an
/// access that demoted nothing, and every access that demoted.
pub const ACCESS_CLASSES: [&str; 5] = ["l1", "l2", "l3", "miss", "demoting"];

/// Runs the traced measurement of `spec`, writing the span tree to
/// `trace_path`. `off_maps` are the end-to-end run's feature-off
/// `ulc_maps` and `unilru_maps`, the base of the `obs.` costs and the
/// `traced.` overheads.
pub fn run(spec: &Spec, seed: u64, off_maps: [f64; 2], trace_path: &Path) -> Report {
    spec.with_engines(
        seed,
        Traced {
            spec,
            seed,
            off_maps,
            trace_path,
        },
    )
}

struct Traced<'a> {
    spec: &'a Spec,
    seed: u64,
    off_maps: [f64; 2],
    trace_path: &'a Path,
}

/// The spans of one run, kept in memory and written at the end.
struct Spans {
    origin: Instant,
    spans: Vec<Span>,
}

struct Span {
    name: String,
    parent: Option<usize>,
    start: f64,
    end: f64,
}

impl Spans {
    fn new() -> Spans {
        Spans {
            origin: now(),
            spans: Vec::new(),
        }
    }

    fn open(&mut self, name: impl Into<String>, parent: Option<usize>) -> usize {
        let start = secs_since(self.origin);
        self.spans.push(Span {
            name: name.into(),
            parent,
            start,
            end: start,
        });
        self.spans.len() - 1
    }

    fn close(&mut self, id: usize) {
        self.spans[id].end = secs_since(self.origin);
    }

    /// Runs `f` inside a span named `name` under `parent`.
    fn time<T>(&mut self, name: impl Into<String>, parent: usize, f: impl FnOnce() -> T) -> T {
        let id = self.open(name, Some(parent));
        let out = f();
        self.close(id);
        out
    }

    /// The spans in `obs-tool chrome`'s format: one process named after
    /// the workload, one complete (`X`) slice per span on tid 1, with the
    /// span and parent ids as args. Timestamps are microseconds.
    fn chrome(&self, process: &str) -> String {
        let us = |secs: f64| Value::U64((secs * 1e6).round() as u64);
        let s = |v: &str| Value::Str(v.to_string());
        let obj = |fields: Vec<(&str, Value)>| {
            Value::Object(
                fields
                    .into_iter()
                    .map(|(k, v)| (k.to_string(), v))
                    .collect(),
            )
        };
        let mut events = vec![obj(vec![
            ("name", s("process_name")),
            ("ph", s("M")),
            ("pid", Value::U64(1)),
            ("args", obj(vec![("name", s(process))])),
        ])];
        for (id, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or(Value::Null, |p| Value::U64(p as u64));
            events.push(obj(vec![
                ("name", s(&span.name)),
                ("cat", s("benchmark")),
                ("ph", s("X")),
                ("ts", us(span.start)),
                ("dur", us(span.end - span.start)),
                ("pid", Value::U64(1)),
                ("tid", Value::U64(1)),
                (
                    "args",
                    obj(vec![("id", Value::U64(id as u64)), ("parent", parent)]),
                ),
            ]));
        }
        let trace = obj(vec![
            ("traceEvents", Value::Array(events)),
            ("displayTimeUnit", s("ms")),
        ]);
        json_text(trace, false)
    }
}

/// What the sampled replay measured for one protocol.
struct AccessProfile {
    /// Accesses per class, over the whole replay.
    counts: [u64; 5],
    /// Sampled access times per class, timer overhead subtracted (ns).
    samples: [Vec<f64>; 5],
    /// Wall time of each full 16 Ki-reference chunk (ns).
    chunks: Vec<f64>,
    /// Wall time of the whole replay (s).
    wall: f64,
    /// The per-class estimate's relative distance from `wall`.
    reconcile: f64,
}

/// Appends an exact metric row.
fn put(m: &mut Vec<Metric>, name: String, unit: &str, value: f64) {
    m.push(Metric::exact(&name, unit, value));
}

/// A freshly built engine, with a recorder (ring, timeline and spans)
/// attached when `window` (the timeline window length) is given.
fn observed<E: Engine>(build: &impl Fn() -> E, window: Option<u64>) -> E {
    let mut e = build();
    if let Some(window) = window {
        let levels = e.num_levels();
        e.obs_mut().enable(levels, RING_CAPACITY);
        e.obs_mut().enable_timeline(window, TIMELINE_WINDOWS + 1);
    }
    e
}

/// The last engine each protocol replayed.
type Last<U, L> = (Option<U>, Option<L>);

/// One timed replay of protocol `which` (0 ULC, 1 uniLRU) on a fresh
/// engine, kept in `last`: `(seconds, stats)`. That protocol's previous
/// engine is dropped first, so the peak holds one engine per protocol.
fn replay_into<U: Engine, L: Engine>(
    which: usize,
    ulc: &impl Fn() -> U,
    unilru: &impl Fn() -> L,
    trace: &Trace,
    last: &mut Last<U, L>,
) -> (f64, SimStats) {
    if which == 0 {
        drop(last.0.take());
        timed_simulate(last.0.insert(ulc()), trace)
    } else {
        drop(last.1.take());
        timed_simulate(last.1.insert(unilru()), trace)
    }
}

fn class_of(out: &AccessOutcome) -> usize {
    if out.demotions.iter().any(|&d| d > 0) {
        4
    } else {
        out.hit_level.map_or(3, |l| l.min(2))
    }
}

/// `simulate`'s loop (prefetch ahead, `access_into`, record after the
/// warm-up) with every [`SAMPLE_EVERY`]-th `access_into` call timed and
/// each access classified. The per-class estimate `Σ count × mean sampled
/// time`, plus the sampling's own clock reads, should land on the wall
/// time; `reconcile` is how far off it is. A timed call runs between two
/// ordered clock reads, so it shows its full latency without the overlap
/// consecutive calls get in the loop, which makes the estimate high, most on
/// short calls. The loop's work between calls (prefetch, recording) is in
/// no timed call, which makes it low.
fn sampled_replay<E: Engine>(
    engine: &mut E,
    trace: &Trace,
    overhead_ns: f64,
) -> (SimStats, AccessProfile) {
    let levels = engine.num_levels();
    let warmup = trace.warmup_len();
    let records = trace.records();
    let mut stats = SimStats::new(levels);
    let mut out = AccessOutcome::miss(levels.saturating_sub(1));
    let mut counts = [0u64; 5];
    let mut raw: [Vec<u32>; 5] =
        std::array::from_fn(|_| Vec::with_capacity(records.len() / SAMPLE_EVERY + 1));
    let mut chunks = Vec::with_capacity(records.len() / CHUNK_REFS + 1);
    let start = now();
    let mut chunk_start = start;
    for (i, r) in records.iter().enumerate() {
        if let Some(ahead) = records.get(i + PREFETCH_DISTANCE) {
            engine.prefetch(ahead.client, ahead.block);
        }
        let t0 = (i % SAMPLE_EVERY == 0).then(now);
        engine.access_into(r.client, r.block, &mut out);
        let elapsed = t0.map(|t| t.elapsed());
        if i >= warmup {
            stats.record(&out);
        }
        let class = class_of(&out);
        counts[class] += 1;
        if let Some(d) = elapsed {
            raw[class].push(nanos_u32(d));
        }
        if (i + 1) % CHUNK_REFS == 0 {
            let t = now();
            chunks.push(t.duration_since(chunk_start).as_nanos() as f64);
            chunk_start = t;
        }
    }
    let wall = secs_since(start);
    stats.faults = engine.fault_summary();

    let samples = raw.map(|v| {
        v.into_iter()
            .map(|ns| (f64::from(ns) - overhead_ns).max(0.0))
            .collect::<Vec<f64>>()
    });
    // Each sampled access read the clock twice.
    let sampled: usize = samples.iter().map(Vec::len).sum();
    let reconcile = reconcile(
        &counts,
        &samples,
        2.0 * overhead_ns * sampled as f64,
        wall * 1e9,
    );
    (
        stats,
        AccessProfile {
            counts,
            samples,
            chunks,
            wall,
            reconcile,
        },
    )
}

/// How far the per-class estimate of a replay's wall time lands from
/// `wall_ns`, relative to it. The estimate is Σ class count × the class's
/// mean sampled time (the mean of all samples for a class that drew
/// none), plus `clock_ns` the sampling spent reading the clock.
pub fn reconcile(counts: &[u64], samples: &[Vec<f64>], clock_ns: f64, wall_ns: f64) -> f64 {
    let mean = |xs: &mut dyn Iterator<Item = f64>| {
        let (sum, n) = xs.fold((0.0, 0usize), |(s, n), x| (s + x, n + 1));
        ratio(sum, n as f64)
    };
    let overall = mean(&mut samples.iter().flatten().copied());
    let estimate: f64 = counts
        .iter()
        .zip(samples)
        .map(|(&n, s)| {
            n as f64
                * if s.is_empty() {
                    overall
                } else {
                    mean(&mut s.iter().copied())
                }
        })
        .sum();
    ratio((estimate + clock_ns - wall_ns).abs(), wall_ns)
}

/// Replays the trace through bare `uniLRUstack`s, one per client, as ULC
/// keeps them: the ranking layer without block tables of the lower
/// levels, the message plane or the server. Returns seconds.
fn stack_replay(spec: &Spec, trace: &Trace) -> f64 {
    let mut stacks: Vec<UniLruStack> = spec
        .stacks()
        .into_iter()
        .map(|(caps, reserve)| {
            let mut s = UniLruStack::new(caps);
            if reserve > 0 {
                s.reserve_blocks(reserve);
            }
            s
        })
        .collect();
    let mut scratch = AccessScratch::new();
    let start = now();
    for r in trace.records() {
        black_box(stacks[r.client.as_usize()].access_into(r.block, &mut scratch));
    }
    secs_since(start)
}

/// Shares of references to blocks below `DIRECT_LIMIT` (direct-indexed
/// block tables) and to blocks only one client ever touches.
fn trace_shares(trace: &Trace) -> (f64, f64) {
    const SHARED: u32 = u32::MAX;
    let mut owner: HashMap<u64, u32> = HashMap::new();
    let mut direct = 0usize;
    for r in trace.records() {
        direct += usize::from(r.block.raw() < DIRECT_LIMIT);
        let c = r.client.index();
        let o = owner.entry(r.block.raw()).or_insert(c);
        if *o != c {
            *o = SHARED;
        }
    }
    let exclusive = trace
        .records()
        .iter()
        .filter(|r| owner.get(&r.block.raw()) != Some(&SHARED))
        .count();
    let n = trace.len() as f64;
    (ratio(direct as f64, n), ratio(exclusive as f64, n))
}

impl Visit for Traced<'_> {
    type Out = Report;

    fn visit<U: Engine, L: Engine>(self, ulc: impl Fn() -> U, unilru: impl Fn() -> L) -> Report {
        let Traced {
            spec,
            seed,
            off_maps,
            trace_path,
        } = self;
        let mut checks = Checks::default();
        checks.check(ulc_obs::recording_compiled(), || {
            "the traced run needs the `obs` build".to_string()
        });
        let mut spans = Spans::new();
        let root = spans.open(spec.name, None);
        // Marked steps nest as spans under the innermost open one.
        let mut open = vec![root];
        let mut mark = |name: &str, begin: bool| {
            if begin {
                let id = spans.open(name, open.last().copied());
                open.push(id);
            } else if let Some(id) = open.pop() {
                spans.close(id);
            }
        };

        let mut setups = Vec::with_capacity(SETUPS);
        let mut round = None;
        for _ in 0..SETUPS {
            // Free the previous set-up first, so the peak holds one.
            drop(round.take());
            let (trace, u, l, secs) = setup(spec, seed, &ulc, &unilru, &mut mark);
            setups.push(secs);
            round = Some((trace, u, l));
        }
        let (trace, mut u, mut l) = round.expect("invariant: SETUPS > 0");
        let refs = trace.len();
        let (direct_share, exclusive_share) = trace_shares(&trace);
        let mut expected = warm_up(spec, seed, (&mut u, &mut l), &trace, &mut checks, &mut mark);
        drop((u, l));

        // Every host time from here on is scaled to the reference host,
        // as the end-to-end run's are.
        let mut clock = HostClock::new(&mut checks);

        // Recording compiled in but detached, and attached (ring,
        // timeline and spans); protocols and modes alternate.
        let window = (refs / TIMELINE_WINDOWS).max(1) as u64;
        let mut detached = [Vec::new(), Vec::new()];
        let mut attached = [Vec::new(), Vec::new()];
        let mut last = (None, None);
        for rep in 0..TRACED_REPEATS {
            for k in 0..4 {
                let (which, recorder) = ((rep + k) % 2, (k >= 2).then_some(window));
                let mode = if recorder.is_some() {
                    "attached"
                } else {
                    "detached"
                };
                let name = format!("replay.{}.{mode}.{rep}", PROTOCOLS[which]);
                let (secs, stats) = spans.time(name, root, || {
                    replay_into(
                        which,
                        &|| observed(&ulc, recorder),
                        &|| observed(&unilru, recorder),
                        &trace,
                        &mut last,
                    )
                });
                let secs = clock.scale(secs, &mut checks);
                expected[which].verify(&stats, &format!("{mode} repeat {rep}"), &mut checks);
                let into = if recorder.is_some() {
                    &mut attached
                } else {
                    &mut detached
                };
                into[which].push(mrefs_per_s(refs, secs));
            }
        }
        if let (Some(u), Some(l)) = &last {
            check_engines(spec, u, l, &mut checks);
        }

        // The sampled replay: per-class access times.
        let overhead_ns = timer_overhead_ns();
        let (stats, ulc_profile) = spans.time("replay.ulc.sampled", root, || {
            sampled_replay(&mut ulc(), &trace, overhead_ns)
        });
        let ulc_wall = clock.scale(ulc_profile.wall, &mut checks);
        expected[0].verify(&stats, "sampled replay", &mut checks);
        let (stats, uni_profile) = spans.time("replay.unilru.sampled", root, || {
            sampled_replay(&mut unilru(), &trace, overhead_ns)
        });
        let uni_wall = clock.scale(uni_profile.wall, &mut checks);
        expected[1].verify(&stats, "sampled replay", &mut checks);
        let profiles = [ulc_profile, uni_profile];
        let sampled_walls = [ulc_wall, uni_wall];

        // The ranking layer alone.
        let stack_maps: Vec<f64> = (0..TRACED_REPEATS)
            .map(|rep| {
                let secs = spans.time(format!("replay.stack.{rep}"), root, || {
                    stack_replay(spec, &trace)
                });
                mrefs_per_s(refs, clock.scale(secs, &mut checks))
            })
            .collect();

        // The sharded executor at 2 shards (multi-client engines only).
        let mut sharded = Vec::new();
        if spec.is_multi() {
            let mut want = Expected::new(spec.name, "ulc_2t", seed, &mut checks);
            want.verify(&expected[0].stats(), "serial replay", &mut checks);
            for rep in 0..TRACED_REPEATS {
                let mut e = ulc();
                let start = now();
                let stats = spans.time(format!("replay.ulc_2t.{rep}"), root, || {
                    e.replay_2_shards(black_box(&trace), trace.warmup_len())
                });
                let secs = clock.scale(secs_since(start), &mut checks);
                if let Some(stats) = stats {
                    want.verify(&stats, &format!("2-shard repeat {rep}"), &mut checks);
                    sharded.push(mrefs_per_s(refs, secs));
                }
            }
        }
        spans.close(root);
        let chrome = spans.chrome(&format!("{} seed={seed}", spec.name));
        let written = trace_path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(trace_path, chrome));
        checks.check(written.is_ok(), || {
            format!("writing {}: {written:?}", trace_path.display())
        });

        // Metrics, in the order `crate::per_layer` declares them.
        let step = |i: usize| setups.iter().map(|s| s[i]).collect::<Vec<f64>>();
        let mut m = vec![Metric::times("trace.gen_s", "s", &step(0))];
        put(
            &mut m,
            "trace.unique_blocks".into(),
            "count",
            trace.unique_blocks() as f64,
        );
        put(&mut m, "trace.direct_share".into(), "share", direct_share);
        put(
            &mut m,
            "trace.exclusive_share".into(),
            "share",
            exclusive_share,
        );
        for (i, p) in PROTOCOLS.iter().enumerate() {
            m.push(Metric::times(
                &format!("engine.{p}.build_s"),
                "s",
                &step(i + 1),
            ));
        }
        for (p, e) in PROTOCOLS.iter().zip(&expected) {
            let s = e.stats();
            for l in 0..3 {
                let hits = s.hits_by_level.get(l).copied().unwrap_or(0);
                put(
                    &mut m,
                    format!("levels.{p}.hit.l{}", l + 1),
                    "count",
                    hits as f64,
                );
            }
            put(&mut m, format!("levels.{p}.miss"), "count", s.misses as f64);
            for b in 0..2 {
                let d = s.demotions_by_boundary.get(b).copied().unwrap_or(0);
                put(
                    &mut m,
                    format!("levels.{p}.demote.b{}", b + 1),
                    "count",
                    d as f64,
                );
            }
            put(
                &mut m,
                format!("levels.{p}.t_ave_ms"),
                "sim_ms",
                s.average_access_time(&spec.costs()),
            );
        }
        let stack = Metric::rates("stack.maps", "Mrefs/s", &stack_maps);
        let ulc_detached = median(&detached[0]);
        let share = ratio(ulc_detached, stack.value);
        m.push(stack);
        put(&mut m, "stack.share".into(), "share", share);
        for (p, prof) in PROTOCOLS.iter().zip(&profiles) {
            for (c, class) in ACCESS_CLASSES.iter().enumerate() {
                let s = &prof.samples[c];
                put(
                    &mut m,
                    format!("access.{p}.{class}.n"),
                    "count",
                    prof.counts[c] as f64,
                );
                put(
                    &mut m,
                    format!("access.{p}.{class}.ns_p50"),
                    "ns",
                    quantile(s, 0.5),
                );
                put(
                    &mut m,
                    format!("access.{p}.{class}.ns_p99"),
                    "ns",
                    quantile(s, 0.99),
                );
            }
            put(
                &mut m,
                format!("access.{p}.reconcile"),
                "share",
                prof.reconcile,
            );
            put(
                &mut m,
                format!("access.{p}.chunk_ns_p50"),
                "ns",
                quantile(&prof.chunks, 0.5),
            );
            put(
                &mut m,
                format!("access.{p}.chunk_ns_p99"),
                "ns",
                quantile(&prof.chunks, 0.99),
            );
        }
        for (p, e) in PROTOCOLS.iter().zip(&expected) {
            let f = e.stats().faults;
            let per_ref = |x: u64| ratio(x as f64, refs as f64);
            put(
                &mut m,
                format!("plane.{p}.msgs_per_ref"),
                "ratio",
                per_ref(f.messages_sent),
            );
            let per_batch = ratio(f.messages_delivered as f64, f.delivery_batches as f64);
            put(&mut m, format!("plane.{p}.per_batch"), "ratio", per_batch);
            let drop_share = ratio(f.messages_dropped as f64, f.messages_sent as f64);
            put(&mut m, format!("plane.{p}.drop_share"), "share", drop_share);
            put(
                &mut m,
                format!("plane.{p}.rpc_fail_per_kref"),
                "ratio",
                1e3 * per_ref(f.rpc_failures),
            );
            put(
                &mut m,
                format!("plane.{p}.reconcile_rounds"),
                "count",
                f.reconciliation_rounds as f64,
            );
            put(
                &mut m,
                format!("plane.{p}.stale_hits_per_kref"),
                "ratio",
                1e3 * per_ref(f.stale_status_hits),
            );
        }
        let two = Metric::rates("parallel.ulc_2t_maps", "Mrefs/s", &sharded);
        let speedup = ratio(two.value, ulc_detached);
        m.push(two);
        put(&mut m, "parallel.speedup_2t".into(), "ratio", speedup);
        for (i, p) in PROTOCOLS.iter().enumerate() {
            let d = Metric::rates(&format!("obs.{p}.detached_maps"), "Mrefs/s", &detached[i]);
            let a = Metric::rates(&format!("obs.{p}.attached_maps"), "Mrefs/s", &attached[i]);
            // Extra time per reference over the feature-off build.
            let (dc, ac) = (
                ratio(off_maps[i], d.value) - 1.0,
                ratio(off_maps[i], a.value) - 1.0,
            );
            m.extend([d, a]);
            put(&mut m, format!("obs.{p}.detached_cost"), "share", dc);
            put(&mut m, format!("obs.{p}.attached_cost"), "share", ac);
        }
        for (i, p) in PROTOCOLS.iter().enumerate() {
            let feature_off_secs = ratio(refs as f64, off_maps[i] * 1e6);
            let overhead = ratio(sampled_walls[i], feature_off_secs) - 1.0;
            put(&mut m, format!("traced.{p}.overhead"), "share", overhead);
        }
        Report::new(spec.name, seed, checks, m)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reconcile_extrapolates_class_means_to_class_counts() {
        // 10 l1 accesses at 5 ns, 2 misses at 50 ns, 1 ns of clock reads.
        let samples = vec![vec![4.0, 6.0], vec![], vec![], vec![50.0], vec![]];
        let counts = [10, 0, 0, 2, 0];
        assert_eq!(reconcile(&counts, &samples, 1.0, 151.0), 0.0);
        assert!((reconcile(&counts, &samples, 1.0, 302.0) - 0.5).abs() < 1e-12);
        // A class with accesses but no samples takes the overall mean.
        let counts = [10, 3, 0, 2, 0];
        let overall = (4.0 + 6.0 + 50.0) / 3.0;
        assert!(reconcile(&counts, &samples, 0.0, 150.0 + 3.0 * overall) < 1e-12);
        assert_eq!(reconcile(&[], &[], 0.0, 0.0), 0.0);
    }

    #[test]
    fn access_classes_partition_outcomes() {
        let mut out = AccessOutcome::hit(1, 2);
        assert_eq!(ACCESS_CLASSES[class_of(&out)], "l2");
        out.demotions[0] = 1;
        assert_eq!(ACCESS_CLASSES[class_of(&out)], "demoting");
        assert_eq!(ACCESS_CLASSES[class_of(&AccessOutcome::miss(1))], "miss");
    }

    #[test]
    fn trace_shares_count_direct_and_exclusive_references() {
        use ulc_trace::{BlockId, ClientId, TraceRecord};
        let rec = |c, b| TraceRecord::new(ClientId::new(c), BlockId::new(b));
        let t = Trace::from_records([rec(0, 1), rec(1, 1), rec(0, 2), rec(1, DIRECT_LIMIT)]);
        assert_eq!(trace_shares(&t), (0.75, 0.5));
    }

    #[test]
    fn chrome_export_nests_spans() {
        let mut s = Spans::new();
        let root = s.open("w", None);
        s.time("setup", root, || ());
        s.close(root);
        let v = serde_json::parse(&s.chrome("w seed=0")).expect("valid JSON");
        let events = v
            .as_object()
            .and_then(|o| o[0].1.as_array())
            .expect("traceEvents")
            .to_vec();
        assert_eq!(events.len(), 3, "process name plus two spans");
        let text = crate::measure::json_text(events[2].clone(), false);
        assert!(
            text.contains(r#""name":"setup""#) && text.contains(r#""parent":0"#),
            "{text}"
        );
    }
}
