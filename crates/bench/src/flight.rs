//! Flight-recorder export: time-resolved observability dumps and their
//! derived analyses (DESIGN.md §5j, EXPERIMENTS.md E12).
//!
//! This is the harness's one observability report. [`collect`] runs
//! every protocol with a live recorder and a windowed
//! [`ulc_obs::TimelineSampler`] attached from the first reference —
//! ULC, uniLRU, indLRU, evict-reload, MQ and a buffered uniLRU on
//! loop-100k, the ULC/uniLRU warm-up pair on tpcc1, and ULC-multi on
//! httpd-multi, each through the serial driver. Each cell's recorded
//! ledger is reconciled against its `SimStats` and its window
//! sums against the whole-run registry, and the whole recorder state is
//! dumped into a versioned [`FlightExport`]: final counters, per-window
//! registries, the event ring's tail, and span-cost histograms.
//!
//! The derived section ([`DerivedReport`]) is computed from the dumps
//! alone, in pure integer arithmetic (cross-multiplied u128 rate
//! comparisons, power-of-two bucket lower bounds for percentiles), so a
//! reader can parse the JSON, recompute the report and compare for
//! *exact* equality — which is what [`verify_export`] and the
//! `obs-tool verify` gate in `scripts/tier1.sh` do. [`chrome_trace`]
//! renders the same dump as a `chrome://tracing` / Perfetto trace
//! (process per cell, one slice per window, instant events from the
//! ring tail).

use crate::cells::{
    evict_reload_loop, loop_100k, ulc_loop, ulc_multi_httpd, unilru_loop, LOOP_CAPS,
};
use crate::Scale;
use serde::{Deserialize, Serialize, Value};
use ulc_core::{UlcConfig, UlcSingle};
use ulc_hierarchy::{simulate, DemotionBuffer, IndLru, LruMqServer, MultiLevelPolicy, UniLru};
use ulc_obs::{check, CounterId, HistId, MetricsRegistry, Observe, SpanCostModel};
use ulc_trace::{synthetic, Trace};

/// Schema version of [`FlightExport`]; bump on breaking layout changes.
pub const FLIGHT_VERSION: u64 = 2;

/// Event-ring slots per flight cell. Large enough that the smoke cells
/// keep complete streams; counters stay exact even when longer runs
/// wrap the ring.
pub const FLIGHT_RING_CAPACITY: usize = 1 << 16;

/// At most this many trailing events of the ring are exported per cell;
/// counters and windows stay exact regardless.
pub const EVENT_TAIL_CAP: usize = 1024;

/// Default number of timeline windows when `--window` is not given: the
/// window length is `refs / DEFAULT_WINDOWS`, clamped to at least 1.
pub const DEFAULT_WINDOWS: usize = 64;

/// One nonzero histogram bucket: `n` values in `[lo, hi]`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct BucketDump {
    /// Inclusive lower bound of the bucket.
    pub lo: u64,
    /// Inclusive upper bound of the bucket.
    pub hi: u64,
    /// Values recorded in the bucket.
    pub n: u64,
}

/// One pre-registered power-of-two histogram, nonzero buckets only.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HistogramDump {
    /// Histogram name (`demote_batch`, `rpc_rounds`, `span_cost`).
    pub name: String,
    /// Values recorded.
    pub count: u64,
    /// Sum of recorded values.
    pub total: u64,
    /// Nonzero buckets, ascending.
    pub buckets: Vec<BucketDump>,
}

/// One counter's value.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CounterDump {
    /// Counter name (see `ulc_obs::CounterId::name`).
    pub name: String,
    /// Final value.
    pub value: u64,
}

/// Per-level tallies of one cell or window.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct LevelDump {
    /// Level index, 0 = client. Boundary-indexed fields (demotions,
    /// buffered) describe boundary `level` → `level + 1`.
    pub level: usize,
    /// Hits served at this level.
    pub hits: u64,
    /// Blocks installed at this level.
    pub retrieves: u64,
    /// Demotions across this boundary (including buffered ones).
    pub demotions: u64,
    /// Demotions across this boundary absorbed by a demotion buffer.
    pub buffered: u64,
    /// Blocks evicted from this level to `L_out`.
    pub evictions: u64,
}

/// One timeline window of one cell: a full registry snapshot of what
/// happened during those `window_len` ticks.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct WindowDump {
    /// Window index; the window covers ticks
    /// `index * window_len + 1 ..= (index + 1) * window_len`.
    pub index: usize,
    /// Counters incremented during this window.
    pub counters: Vec<CounterDump>,
    /// Per-level rows for this window.
    pub per_level: Vec<LevelDump>,
    /// Histogram samples attributed to this window (batched values
    /// flush into the window their access began in).
    pub histograms: Vec<HistogramDump>,
}

/// One event of the exported ring tail.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct EventDump {
    /// 1-based global access position when the event fired.
    pub tick: u64,
    /// Event kind name (`hit`, `miss`, `retrieve`, `demote`, `evict`,
    /// `reconcile`, `fault`).
    pub kind: String,
    /// Level / boundary / client index (see `ulc_obs::EventKind`).
    pub level: u16,
    /// Raw block id.
    pub block: u64,
}

/// One protocol's flight-recorder dump.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FlightCell {
    /// Protocol name as used in the figures.
    pub protocol: String,
    /// Workload the cell ran.
    pub workload: String,
    /// References simulated (warm-up 0).
    pub refs: usize,
    /// True when ticks past the last window were clamped into it.
    pub truncated: bool,
    /// Whole-run counters.
    pub counters: Vec<CounterDump>,
    /// Whole-run per-level rows.
    pub per_level: Vec<LevelDump>,
    /// Whole-run histograms (including `span_cost`).
    pub histograms: Vec<HistogramDump>,
    /// Timeline windows, in tick order; their sums equal the whole-run
    /// fields above exactly (gated by [`verify_export`]).
    pub windows: Vec<WindowDump>,
    /// Up to [`EVENT_TAIL_CAP`] trailing events of the ring.
    pub events: Vec<EventDump>,
    /// Events live in the ring when the run finished.
    pub events_logged: usize,
    /// Events the ring overwrote.
    pub events_dropped: u64,
    /// `"ok"`, or the first ledger discrepancy against `SimStats`.
    pub conservation: String,
    /// `"ok"`, or the first window-sum discrepancy.
    pub window_conservation: String,
    /// Residency replay verdict (`"verified"`, `"skipped: ..."`,
    /// `"failed: ..."`, `"n/a"`).
    pub residency: String,
}

/// Cumulative L1 (level-0) hit-rate sample at one window, stored as
/// exact integers: the rate is `l0_hits / accesses`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct HitRatePoint {
    /// Window index.
    pub window: usize,
    /// Level-0 hits in this window.
    pub l0_hits: u64,
    /// Hits at any level in this window.
    pub hits: u64,
    /// Accesses in this window.
    pub accesses: u64,
}

/// One protocol's hit-rate-vs-time curve.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct ProtocolCurve {
    /// Protocol name.
    pub protocol: String,
    /// Workload name.
    pub workload: String,
    /// Per-window points, in tick order.
    pub points: Vec<HitRatePoint>,
}

/// The warm-up crossover: the first window from which ULC's cumulative
/// L1 hit rate exceeds uniLRU's *and stays above it* for the rest of
/// the run. All values are cumulative up to (and including) `window`.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct CrossoverPoint {
    /// Workload of the ULC/uniLRU cell pair that crossed.
    pub workload: String,
    /// First window of the permanent lead.
    pub window: usize,
    /// ULC cumulative level-0 hits at that window.
    pub ulc_l0_hits: u64,
    /// ULC cumulative accesses at that window.
    pub ulc_accesses: u64,
    /// uniLRU cumulative level-0 hits at that window.
    pub uni_l0_hits: u64,
    /// uniLRU cumulative accesses at that window.
    pub uni_accesses: u64,
}

/// Per-window demotion burstiness of one cell.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DemotionBurstiness {
    /// Protocol name.
    pub protocol: String,
    /// Workload name.
    pub workload: String,
    /// Most demotions any single window saw.
    pub max_window_demotions: u64,
    /// Index of that peak window (first such window on ties).
    pub peak_window: usize,
    /// Demotions over the whole run.
    pub total_demotions: u64,
    /// Windows the run reached.
    pub windows: usize,
}

/// Span-cost percentiles of one cell, as power-of-two bucket lower
/// bounds (exact integers, recomputable from the histogram dump).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct SpanCostPercentiles {
    /// Protocol name.
    pub protocol: String,
    /// Workload name.
    pub workload: String,
    /// Spans with nonzero cost (pure top-level hits record none).
    pub count: u64,
    /// Total modeled cost over the run.
    pub total: u64,
    /// Lower bound of the bucket holding the 50th-percentile span.
    pub p50: u64,
    /// Lower bound of the bucket holding the 90th-percentile span.
    pub p90: u64,
    /// Lower bound of the bucket holding the 99th-percentile span.
    pub p99: u64,
}

/// Everything derivable from the cell dumps alone. Recomputing this
/// from a parsed export must reproduce it exactly ([`verify_export`]).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct DerivedReport {
    /// Hit-rate-vs-time curve per cell.
    pub curves: Vec<ProtocolCurve>,
    /// ULC-vs-uniLRU warm-up crossover, if ULC ever takes a permanent
    /// lead on the headline workload.
    pub crossover: Option<CrossoverPoint>,
    /// Demotion burstiness per cell.
    pub burstiness: Vec<DemotionBurstiness>,
    /// Span-cost percentiles per cell.
    pub span_cost: Vec<SpanCostPercentiles>,
}

/// The versioned flight-recorder export.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct FlightExport {
    /// Schema version ([`FLIGHT_VERSION`]).
    pub version: u64,
    /// References per cell.
    pub refs: usize,
    /// Ticks per timeline window (shared by every cell so windows align
    /// across protocols).
    pub window_len: u64,
    /// Span cost model weight table (`weight(level)`), index = level.
    pub span_cost_weights: Vec<u64>,
    /// One dump per protocol cell.
    pub cells: Vec<FlightCell>,
    /// The derived analyses, recomputable from `cells`.
    pub derived: DerivedReport,
}

/// Every counter of `m`, in `CounterId::ALL` order.
fn dump_counters(m: &MetricsRegistry) -> Vec<CounterDump> {
    CounterId::ALL
        .iter()
        .map(|&id| CounterDump {
            name: id.name().to_string(),
            value: m.counter(id),
        })
        .collect()
}

/// Every per-level row of `m`, top-down.
fn dump_levels(m: &MetricsRegistry) -> Vec<LevelDump> {
    (0..m.levels())
        .map(|level| {
            let row = m.level(level);
            LevelDump {
                level,
                hits: row.hits,
                retrieves: row.retrieves,
                demotions: row.demotions,
                buffered: row.buffered,
                evictions: row.evictions,
            }
        })
        .collect()
}

/// Every histogram of `m`, in `HistId::ALL` order.
fn dump_hists(m: &MetricsRegistry) -> Vec<HistogramDump> {
    HistId::ALL
        .iter()
        .map(|&id| {
            let h = m.hist(id);
            HistogramDump {
                name: id.name().to_string(),
                count: h.count(),
                total: h.total(),
                buckets: h
                    .nonzero()
                    .map(|(lo, hi, n)| BucketDump { lo, hi, n })
                    .collect(),
            }
        })
        .collect()
}

/// Runs one flight cell through the serial driver: recording + timeline
/// from the first reference, full conservation and window-conservation
/// checks, full dump.
fn flight_cell<P: MultiLevelPolicy + Observe>(
    protocol: &str,
    workload: &str,
    check_residency: bool,
    mut policy: P,
    trace: &Trace,
    window_len: u64,
) -> FlightCell {
    let levels = policy.num_levels();
    policy.obs_mut().enable(levels, FLIGHT_RING_CAPACITY);
    let capacity = (trace.len() as u64 / window_len + 1) as usize;
    policy.obs_mut().enable_timeline(window_len, capacity);
    let stats = simulate(&mut policy, trace, 0);
    policy
        .obs_mut()
        .add_plane_faults(stats.faults.transport_faults());
    policy.obs_mut().finish();
    let Some(rec) = policy.obs().recorder() else {
        return FlightCell {
            protocol: protocol.to_string(),
            workload: workload.to_string(),
            refs: trace.len(),
            truncated: false,
            counters: Vec::new(),
            per_level: Vec::new(),
            histograms: Vec::new(),
            windows: Vec::new(),
            events: Vec::new(),
            events_logged: 0,
            events_dropped: 0,
            conservation: "recorder unavailable (obs feature off)".to_string(),
            window_conservation: "recorder unavailable (obs feature off)".to_string(),
            residency: "n/a".to_string(),
        };
    };
    let view = check::StatsView {
        references: stats.references,
        hits_by_level: &stats.hits_by_level,
        misses: stats.misses,
        demotions_by_boundary: &stats.demotions_by_boundary,
    };
    let conservation = match check::reconcile(rec, &view) {
        Ok(()) => "ok".to_string(),
        Err(e) => e,
    };
    let window_conservation = match check::windows_reconcile(rec) {
        Ok(()) => "ok".to_string(),
        Err(e) => e,
    };
    let residency = if check_residency {
        match check::replay_residency(rec.log(), levels) {
            Ok(check::ResidencyReplay::Verified) => "verified".to_string(),
            Ok(check::ResidencyReplay::SkippedTruncated { dropped }) => {
                format!("skipped: ring dropped {dropped} events")
            }
            Err(e) => format!("failed: {e}"),
        }
    } else {
        "n/a".to_string()
    };
    let timeline = rec
        .timeline()
        .expect("flight cells always attach a timeline");
    let windows = timeline
        .windows()
        .iter()
        .enumerate()
        .map(|(index, w)| WindowDump {
            index,
            counters: dump_counters(w),
            per_level: dump_levels(w),
            histograms: dump_hists(w),
        })
        .collect();
    let skip = rec.log().len().saturating_sub(EVENT_TAIL_CAP);
    let events = rec
        .log()
        .iter()
        .skip(skip)
        .map(|e| EventDump {
            tick: e.tick,
            kind: e.kind.name().to_string(),
            level: e.level,
            block: e.block,
        })
        .collect();
    let m = rec.metrics();
    FlightCell {
        protocol: protocol.to_string(),
        workload: workload.to_string(),
        refs: trace.len(),
        truncated: timeline.truncated(),
        counters: dump_counters(m),
        per_level: dump_levels(m),
        histograms: dump_hists(m),
        windows,
        events,
        events_logged: rec.log().len(),
        events_dropped: rec.log().dropped(),
        conservation,
        window_conservation,
        residency,
    }
}

/// References per cell at each scale, kept short because every cell
/// also carries a full timeline.
fn flight_refs(scale: Scale) -> usize {
    match scale {
        Scale::Smoke => 60_000,
        Scale::Default => 150_000,
        Scale::Full => 400_000,
    }
}

/// Collects the flight export at the given scale with the default
/// window geometry.
pub fn collect(scale: Scale) -> FlightExport {
    collect_sized(flight_refs(scale), 0)
}

/// Collects the flight export: the seven protocols of the conservation
/// suite plus the tpcc1 ULC/uniLRU warm-up pair, nine cells, each over
/// `refs` references with a shared timeline window of `window_len`
/// ticks (0 = auto: `refs / DEFAULT_WINDOWS`).
pub fn collect_sized(refs: usize, window_len: u64) -> FlightExport {
    let window_len = if window_len == 0 {
        ((refs / DEFAULT_WINDOWS) as u64).max(1)
    } else {
        window_len
    };
    let loop_trace = loop_100k(refs);
    let httpd = synthetic::httpd_multi(refs);
    let mut cells = vec![flight_cell(
        "ULC",
        "loop-100k",
        true,
        ulc_loop(),
        &loop_trace,
        window_len,
    )];
    cells.push(flight_cell(
        "uniLRU",
        "loop-100k",
        false,
        unilru_loop(),
        &loop_trace,
        window_len,
    ));
    cells.push(flight_cell(
        "indLRU",
        "loop-100k",
        false,
        IndLru::single_client(LOOP_CAPS.to_vec()),
        &loop_trace,
        window_len,
    ));
    cells.push(flight_cell(
        "evict-reload",
        "loop-100k",
        false,
        evict_reload_loop(),
        &loop_trace,
        window_len,
    ));
    cells.push(flight_cell(
        "MQ",
        "loop-100k",
        false,
        LruMqServer::new(vec![LOOP_CAPS[0]], LOOP_CAPS[1]),
        &loop_trace,
        window_len,
    ));
    cells.push(flight_cell(
        "buffered",
        "loop-100k",
        false,
        DemotionBuffer::new(unilru_loop(), 64, 0.5),
        &loop_trace,
        window_len,
    ));
    // The warm-up pair (EXPERIMENTS.md E12): tpcc1's dominant 11k-block
    // loop under two 6 400-block caches is the paper's signature split —
    // uniLRU thrashes L1 while ULC parks part of the loop there, so
    // ULC's cumulative L1 hit rate takes a permanent lead once the loop
    // wraps. This is the pair the crossover report fires on.
    let tpcc = synthetic::tpcc1(refs);
    cells.push(flight_cell(
        "ULC",
        "tpcc1",
        true,
        UlcSingle::new(UlcConfig::new(vec![6_400, 6_400])),
        &tpcc,
        window_len,
    ));
    cells.push(flight_cell(
        "uniLRU",
        "tpcc1",
        false,
        UniLru::single_client(vec![6_400, 6_400]),
        &tpcc,
        window_len,
    ));
    cells.push(flight_cell(
        "ULC-multi",
        "httpd-multi",
        false,
        ulc_multi_httpd(),
        &httpd,
        window_len,
    ));
    let derived = derive_report(&cells);
    FlightExport {
        version: FLIGHT_VERSION,
        refs,
        window_len,
        span_cost_weights: SpanCostModel::default().weights().to_vec(),
        cells,
        derived,
    }
}

fn counter_of(dump: &[CounterDump], name: &str) -> u64 {
    dump.iter().find(|c| c.name == name).map_or(0, |c| c.value)
}

fn hist_named<'a>(hists: &'a [HistogramDump], name: &str) -> Option<&'a HistogramDump> {
    hists.iter().find(|h| h.name == name)
}

/// Exact rate comparison `a_num/a_den > b_num/b_den` without floats.
/// Zero-access prefixes never count as leading.
fn rate_gt(a_num: u64, a_den: u64, b_num: u64, b_den: u64) -> bool {
    if a_den == 0 || b_den == 0 {
        return false;
    }
    (a_num as u128) * (b_den as u128) > (b_num as u128) * (a_den as u128)
}

/// Lower bound of the power-of-two bucket holding the `pct`-th
/// percentile sample (ceil rank), or 0 for an empty histogram.
fn percentile_lower_bound(h: &HistogramDump, pct: u64) -> u64 {
    if h.count == 0 {
        return 0;
    }
    let rank = ((h.count as u128 * pct as u128).div_ceil(100) as u64).max(1);
    let mut acc = 0u64;
    for b in &h.buckets {
        acc += b.n;
        if acc >= rank {
            return b.lo;
        }
    }
    h.buckets.last().map_or(0, |b| b.lo)
}

/// Cumulative `(l0_hits, accesses)` prefix per window of one cell.
fn cumulative_l0(cell: &FlightCell) -> Vec<(u64, u64)> {
    let mut acc = (0u64, 0u64);
    cell.windows
        .iter()
        .map(|w| {
            acc.0 += w.per_level.first().map_or(0, |r| r.hits);
            acc.1 += counter_of(&w.counters, "accesses");
            acc
        })
        .collect()
}

/// ULC-vs-uniLRU warm-up crossover: for each ULC cell paired with the
/// uniLRU cell on the *same workload*, the first window
/// from which ULC's cumulative L1 hit rate stays strictly above
/// uniLRU's for the remainder of the run. Returns the first pair (in
/// cell order) that crosses — on an adversarial workload where both sit
/// at zero L1 hits (e.g. a loop larger than every cache) there is no
/// lead, and the scan moves on to the next pair.
fn find_crossover(cells: &[FlightCell]) -> Option<CrossoverPoint> {
    for ulc in cells.iter().filter(|c| c.protocol == "ULC") {
        let Some(uni) = cells
            .iter()
            .find(|c| c.protocol == "uniLRU" && c.workload == ulc.workload)
        else {
            continue;
        };
        let a = cumulative_l0(ulc);
        let b = cumulative_l0(uni);
        let n = a.len().min(b.len());
        let mut first = None;
        for w in (0..n).rev() {
            if rate_gt(a[w].0, a[w].1, b[w].0, b[w].1) {
                first = Some(w);
            } else {
                break;
            }
        }
        if let Some(window) = first {
            return Some(CrossoverPoint {
                workload: ulc.workload.clone(),
                window,
                ulc_l0_hits: a[window].0,
                ulc_accesses: a[window].1,
                uni_l0_hits: b[window].0,
                uni_accesses: b[window].1,
            });
        }
    }
    None
}

/// Recomputes the derived analyses from the cell dumps alone — pure
/// integer arithmetic, so a parsed export derives to an identical
/// report.
pub fn derive_report(cells: &[FlightCell]) -> DerivedReport {
    let curves = cells
        .iter()
        .map(|c| ProtocolCurve {
            protocol: c.protocol.clone(),
            workload: c.workload.clone(),
            points: c
                .windows
                .iter()
                .map(|w| HitRatePoint {
                    window: w.index,
                    l0_hits: w.per_level.first().map_or(0, |r| r.hits),
                    hits: counter_of(&w.counters, "hits"),
                    accesses: counter_of(&w.counters, "accesses"),
                })
                .collect(),
        })
        .collect();
    let burstiness = cells
        .iter()
        .map(|c| {
            let mut max = 0u64;
            let mut peak = 0usize;
            let mut total = 0u64;
            for w in &c.windows {
                let d = counter_of(&w.counters, "demotions");
                total += d;
                if d > max {
                    max = d;
                    peak = w.index;
                }
            }
            DemotionBurstiness {
                protocol: c.protocol.clone(),
                workload: c.workload.clone(),
                max_window_demotions: max,
                peak_window: peak,
                total_demotions: total,
                windows: c.windows.len(),
            }
        })
        .collect();
    let span_cost = cells
        .iter()
        .map(|c| {
            let empty = HistogramDump {
                name: "span_cost".to_string(),
                count: 0,
                total: 0,
                buckets: Vec::new(),
            };
            let h = hist_named(&c.histograms, "span_cost").unwrap_or(&empty);
            SpanCostPercentiles {
                protocol: c.protocol.clone(),
                workload: c.workload.clone(),
                count: h.count,
                total: h.total,
                p50: percentile_lower_bound(h, 50),
                p90: percentile_lower_bound(h, 90),
                p99: percentile_lower_bound(h, 99),
            }
        })
        .collect();
    DerivedReport {
        curves,
        crossover: find_crossover(cells),
        burstiness,
        span_cost,
    }
}

/// Sums window histogram dumps per name into `(count, total, lo -> n)`.
fn sum_window_hists(cell: &FlightCell, name: &str) -> (u64, u64, Vec<(u64, u64)>) {
    let mut count = 0u64;
    let mut total = 0u64;
    let mut buckets: Vec<(u64, u64)> = Vec::new();
    for w in &cell.windows {
        if let Some(h) = hist_named(&w.histograms, name) {
            count += h.count;
            total += h.total;
            for b in &h.buckets {
                match buckets.binary_search_by_key(&b.lo, |&(lo, _)| lo) {
                    Ok(i) => buckets[i].1 += b.n,
                    Err(i) => buckets.insert(i, (b.lo, b.n)),
                }
            }
        }
    }
    (count, total, buckets)
}

/// Validates a (possibly re-parsed) export: schema version, per-cell
/// conservation verdicts, exact window-sum reconciliation against the
/// whole-run dumps, and bit-exact recomputation of the derived report.
/// Returns every failure found (empty = valid).
pub fn verify_export(e: &FlightExport) -> Vec<String> {
    let mut errs = Vec::new();
    if e.version != FLIGHT_VERSION {
        errs.push(format!(
            "schema version {} (tool expects {FLIGHT_VERSION})",
            e.version
        ));
    }
    for c in &e.cells {
        let tag = format!("{}/{}", c.protocol, c.workload);
        if c.conservation != "ok" {
            errs.push(format!("{tag}: conservation: {}", c.conservation));
        }
        if c.window_conservation != "ok" {
            errs.push(format!(
                "{tag}: window conservation: {}",
                c.window_conservation
            ));
        }
        if c.residency.starts_with("failed") {
            errs.push(format!("{tag}: residency {}", c.residency));
        }
        for counter in &c.counters {
            let sum: u64 = c
                .windows
                .iter()
                .map(|w| counter_of(&w.counters, &counter.name))
                .sum();
            if sum != counter.value {
                errs.push(format!(
                    "{tag}: counter {}: windows sum to {sum}, final registry says {}",
                    counter.name, counter.value
                ));
            }
        }
        for row in &c.per_level {
            let sum = |f: fn(&LevelDump) -> u64| -> u64 {
                c.windows
                    .iter()
                    .filter_map(|w| w.per_level.get(row.level))
                    .map(f)
                    .sum()
            };
            let fields: [(&str, u64, u64); 5] = [
                ("hits", sum(|r| r.hits), row.hits),
                ("retrieves", sum(|r| r.retrieves), row.retrieves),
                ("demotions", sum(|r| r.demotions), row.demotions),
                ("buffered", sum(|r| r.buffered), row.buffered),
                ("evictions", sum(|r| r.evictions), row.evictions),
            ];
            for (name, got, want) in fields {
                if got != want {
                    errs.push(format!(
                        "{tag}: level {} {name}: windows sum to {got}, final registry says {want}",
                        row.level
                    ));
                }
            }
        }
        for h in &c.histograms {
            let (count, total, buckets) = sum_window_hists(c, &h.name);
            let want: Vec<(u64, u64)> = h.buckets.iter().map(|b| (b.lo, b.n)).collect();
            if count != h.count || total != h.total || buckets != want {
                errs.push(format!(
                    "{tag}: histogram {}: window sums (count {count}, total {total}) \
                     disagree with the final registry (count {}, total {})",
                    h.name, h.count, h.total
                ));
            }
        }
    }
    let recomputed = derive_report(&e.cells);
    if recomputed != e.derived {
        errs.push("derived report does not recompute identically from the dumps".to_string());
    }
    errs
}

/// Wrapper feeding a raw [`Value`] through the serializer.
struct Raw(Value);

impl Serialize for Raw {
    fn to_value(&self) -> Value {
        self.0.clone()
    }
}

fn obj(fields: Vec<(&str, Value)>) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn s(v: impl Into<String>) -> Value {
    Value::Str(v.into())
}

fn u(v: u64) -> Value {
    Value::U64(v)
}

/// Renders the export as a Chrome trace (`chrome://tracing`, Perfetto):
/// one process per cell, one complete (`X`) slice per timeline window
/// on tid 1 with the window's counters as args, counter (`C`) series
/// for hits/misses/demotions/rpcs, and instant (`i`) events from the
/// exported ring tail on tid 2. Timestamps are ticks interpreted as
/// microseconds.
pub fn chrome_trace(e: &FlightExport) -> String {
    let mut events = Vec::new();
    for (idx, cell) in e.cells.iter().enumerate() {
        let pid = idx as u64 + 1;
        events.push(obj(vec![
            ("name", s("process_name")),
            ("ph", s("M")),
            ("pid", u(pid)),
            (
                "args",
                obj(vec![(
                    "name",
                    s(format!("{}/{}", cell.protocol, cell.workload)),
                )]),
            ),
        ]));
        for w in &cell.windows {
            let ts = w.index as u64 * e.window_len;
            let args = obj(vec![
                ("accesses", u(counter_of(&w.counters, "accesses"))),
                ("hits", u(counter_of(&w.counters, "hits"))),
                ("misses", u(counter_of(&w.counters, "misses"))),
                ("demotions", u(counter_of(&w.counters, "demotions"))),
                ("rpcs", u(counter_of(&w.counters, "rpcs"))),
            ]);
            events.push(obj(vec![
                ("name", s(format!("window {}", w.index))),
                ("cat", s("timeline")),
                ("ph", s("X")),
                ("ts", u(ts)),
                ("dur", u(e.window_len)),
                ("pid", u(pid)),
                ("tid", u(1)),
                ("args", args.clone()),
            ]));
            events.push(obj(vec![
                ("name", s("activity")),
                ("ph", s("C")),
                ("ts", u(ts)),
                ("pid", u(pid)),
                ("args", args),
            ]));
        }
        for ev in &cell.events {
            events.push(obj(vec![
                ("name", s(ev.kind.clone())),
                ("cat", s("events")),
                ("ph", s("i")),
                ("ts", u(ev.tick)),
                ("pid", u(pid)),
                ("tid", u(2)),
                ("s", s("t")),
                (
                    "args",
                    obj(vec![("block", u(ev.block)), ("level", u(ev.level as u64))]),
                ),
            ]));
        }
    }
    let trace = obj(vec![
        ("traceEvents", Value::Array(events)),
        ("displayTimeUnit", s("ms")),
    ]);
    serde_json::to_string(&Raw(trace)).expect("chrome trace serialises")
}

/// Formats a cumulative integer rate as a percentage with one decimal,
/// for the human-readable report only (the stored data stays integer).
fn fmt_rate(num: u64, den: u64) -> String {
    if den == 0 {
        return "-".to_string();
    }
    let permille = (num as u128 * 1000 / den as u128) as u64;
    format!("{}.{}%", permille / 10, permille % 10)
}

/// Renders the derived analyses as text (the `obs-tool report` output).
pub fn render_report(e: &FlightExport) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "flight export v{}: {} cells, {} refs, window = {} ticks\n\n",
        e.version,
        e.cells.len(),
        e.refs,
        e.window_len
    ));
    out.push_str("hit-rate-vs-time (cumulative L1 hit rate at 1/4, 1/2, 3/4, end of run):\n");
    for curve in &e.derived.curves {
        let mut cum = (0u64, 0u64);
        let cums: Vec<(u64, u64)> = curve
            .points
            .iter()
            .map(|p| {
                cum.0 += p.l0_hits;
                cum.1 += p.accesses;
                cum
            })
            .collect();
        let n = cums.len();
        let mut cols = String::new();
        if n > 0 {
            for q in [n / 4, n / 2, 3 * n / 4, n - 1] {
                let (h, a) = cums[q.min(n - 1)];
                cols.push_str(&format!("{:>8}", fmt_rate(h, a)));
            }
        }
        out.push_str(&format!(
            "  {:<26}{cols}\n",
            format!("{}/{}", curve.protocol, curve.workload)
        ));
    }
    out.push('\n');
    match &e.derived.crossover {
        Some(x) => out.push_str(&format!(
            "warm-up crossover ({}): window {} — ULC L1 {} vs uniLRU {} (permanent lead)\n",
            x.workload,
            x.window,
            fmt_rate(x.ulc_l0_hits, x.ulc_accesses),
            fmt_rate(x.uni_l0_hits, x.uni_accesses),
        )),
        None => out.push_str("warm-up crossover: none (ULC never takes a permanent L1 lead)\n"),
    }
    out.push_str("\ndemotion burstiness (peak window / mean per window):\n");
    for b in &e.derived.burstiness {
        let mean = if b.windows == 0 {
            0
        } else {
            b.total_demotions / b.windows as u64
        };
        out.push_str(&format!(
            "  {:<26}peak {:>8} @ window {:<5} mean {:>8} total {:>10}\n",
            format!("{}/{}", b.protocol, b.workload),
            b.max_window_demotions,
            b.peak_window,
            mean,
            b.total_demotions,
        ));
    }
    out.push_str("\nspan cost (power-of-two bucket lower bounds):\n");
    for p in &e.derived.span_cost {
        out.push_str(&format!(
            "  {:<26}n {:>9} total {:>12} p50 {:>6} p90 {:>6} p99 {:>6}\n",
            format!("{}/{}", p.protocol, p.workload),
            p.count,
            p.total,
            p.p50,
            p.p90,
            p.p99,
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cell(protocol: &str, window_demotions: &[u64]) -> FlightCell {
        let span_cost = HistogramDump {
            name: "span_cost".into(),
            count: 4,
            total: 1 + 2 + 4 + 64,
            buckets: vec![
                BucketDump { lo: 1, hi: 1, n: 1 },
                BucketDump { lo: 2, hi: 3, n: 2 },
                BucketDump {
                    lo: 64,
                    hi: 127,
                    n: 1,
                },
            ],
        };
        let windows = window_demotions
            .iter()
            .enumerate()
            .map(|(index, &d)| WindowDump {
                index,
                counters: vec![
                    CounterDump {
                        name: "accesses".into(),
                        value: 10,
                    },
                    CounterDump {
                        name: "hits".into(),
                        value: 5 + d,
                    },
                    CounterDump {
                        name: "demotions".into(),
                        value: d,
                    },
                ],
                per_level: vec![LevelDump {
                    level: 0,
                    hits: 4 + d,
                    retrieves: 0,
                    demotions: d,
                    buffered: 0,
                    evictions: 0,
                }],
                // The whole span-cost batch lands in the first window so
                // the window sums reconcile with the cell histogram.
                histograms: if index == 0 {
                    vec![span_cost.clone()]
                } else {
                    Vec::new()
                },
            })
            .collect::<Vec<_>>();
        let total_d: u64 = window_demotions.iter().sum();
        let total_h: u64 = window_demotions.iter().map(|d| 5 + d).sum();
        let total_l0: u64 = window_demotions.iter().map(|d| 4 + d).sum();
        FlightCell {
            protocol: protocol.into(),
            workload: "w".into(),
            refs: 10 * windows.len(),
            truncated: false,
            counters: vec![
                CounterDump {
                    name: "accesses".into(),
                    value: 10 * windows.len() as u64,
                },
                CounterDump {
                    name: "hits".into(),
                    value: total_h,
                },
                CounterDump {
                    name: "demotions".into(),
                    value: total_d,
                },
            ],
            per_level: vec![LevelDump {
                level: 0,
                hits: total_l0,
                retrieves: 0,
                demotions: total_d,
                buffered: 0,
                evictions: 0,
            }],
            histograms: vec![span_cost],
            windows,
            events: Vec::new(),
            events_logged: 0,
            events_dropped: 0,
            conservation: "ok".into(),
            window_conservation: "ok".into(),
            residency: "n/a".into(),
        }
    }

    #[test]
    fn percentiles_walk_bucket_lower_bounds() {
        let h = HistogramDump {
            name: "span_cost".into(),
            count: 100,
            total: 0,
            buckets: vec![
                BucketDump {
                    lo: 1,
                    hi: 1,
                    n: 60,
                },
                BucketDump {
                    lo: 2,
                    hi: 3,
                    n: 30,
                },
                BucketDump {
                    lo: 4,
                    hi: 7,
                    n: 10,
                },
            ],
        };
        assert_eq!(percentile_lower_bound(&h, 50), 1);
        assert_eq!(percentile_lower_bound(&h, 90), 2);
        assert_eq!(percentile_lower_bound(&h, 99), 4);
        assert_eq!(
            percentile_lower_bound(
                &HistogramDump {
                    name: "x".into(),
                    count: 0,
                    total: 0,
                    buckets: vec![]
                },
                50
            ),
            0
        );
    }

    #[test]
    fn crossover_requires_a_permanent_lead() {
        // ULC's window hits are 5+d, uniLRU's constant 5: with demotion
        // spikes only in later windows, ULC's cumulative rate leads only
        // from the first spike onward.
        let cells = vec![
            tiny_cell("ULC", &[0, 0, 3, 3]),
            tiny_cell("uniLRU", &[0, 0, 0, 0]),
        ];
        let x = find_crossover(&cells).expect("lead from window 2");
        assert_eq!(x.window, 2);
        assert_eq!(x.ulc_l0_hits, 4 + 4 + 7);
        assert_eq!(x.ulc_accesses, 30);
        // A lead that collapses at the end is not a crossover.
        let cells = vec![
            tiny_cell("ULC", &[3, 0, 0, 0]),
            tiny_cell("uniLRU", &[0, 3, 3, 3]),
        ];
        assert!(find_crossover(&cells).is_none());
    }

    #[test]
    fn verify_accepts_consistent_dumps_and_flags_drift() {
        let cells = vec![tiny_cell("ULC", &[1, 2]), tiny_cell("uniLRU", &[0, 0])];
        let mut export = FlightExport {
            version: FLIGHT_VERSION,
            refs: 20,
            window_len: 10,
            span_cost_weights: vec![1, 2, 4],
            cells,
            derived: DerivedReport {
                curves: Vec::new(),
                crossover: None,
                burstiness: Vec::new(),
                span_cost: Vec::new(),
            },
        };
        export.derived = derive_report(&export.cells);
        assert_eq!(verify_export(&export), Vec::<String>::new());
        // Any counter drift between windows and the final registry trips
        // the window-sum reconciliation.
        let mut bad = export.clone();
        bad.cells[0].counters[1].value += 1;
        assert!(verify_export(&bad)
            .iter()
            .any(|e| e.contains("counter hits")));
        // Tampered derived data trips the recomputation check.
        let mut bad = export.clone();
        bad.derived.crossover = None;
        bad.derived.burstiness[0].max_window_demotions = 99;
        assert!(verify_export(&bad)
            .iter()
            .any(|e| e.contains("derived report does not recompute")));
    }

    #[test]
    fn export_round_trips_through_json() {
        let cells = vec![tiny_cell("ULC", &[1, 2]), tiny_cell("uniLRU", &[0, 0])];
        let derived = derive_report(&cells);
        let export = FlightExport {
            version: FLIGHT_VERSION,
            refs: 20,
            window_len: 10,
            span_cost_weights: vec![1, 2, 4, 8],
            cells,
            derived,
        };
        let text = serde_json::to_string_pretty(&export).expect("serialises");
        let back: FlightExport = serde_json::from_str(&text).expect("parses");
        assert_eq!(back, export);
        assert_eq!(verify_export(&back), Vec::<String>::new());
        // The chrome trace is valid JSON with one slice per window plus
        // metadata and counter events.
        let trace = chrome_trace(&export);
        let v = serde_json::parse(&trace).expect("chrome trace parses");
        let events = v
            .as_object()
            .and_then(|o| o.iter().find(|(k, _)| k.as_str() == "traceEvents"))
            .and_then(|(_, v)| v.as_array())
            .expect("traceEvents array");
        assert_eq!(events.len(), 2 * (1 + 2 * 2));
        let report = render_report(&export);
        assert!(report.contains("warm-up crossover (w): window 0"));
    }

    #[cfg(feature = "obs")]
    #[test]
    fn tiny_live_collect_is_internally_consistent() {
        let export = collect_sized(4_000, 250);
        assert_eq!(export.version, FLIGHT_VERSION);
        assert_eq!(export.cells.len(), 9);
        assert_eq!(verify_export(&export), Vec::<String>::new());
        // At this scale the rings hold whole streams, so the residency
        // replay runs on both ULC cells (and verifies) and on no other.
        for c in &export.cells {
            let want = if c.protocol == "ULC" {
                "verified"
            } else {
                "n/a"
            };
            assert_eq!(c.residency, want, "{}/{}", c.protocol, c.workload);
        }
        assert_eq!(
            export.cells.iter().filter(|c| c.protocol == "ULC").count(),
            2
        );
        // The whole export round-trips and still verifies.
        let text = serde_json::to_string(&export).expect("serialises");
        let back: FlightExport = serde_json::from_str(&text).expect("parses");
        assert_eq!(back, export);
        assert_eq!(verify_export(&back), Vec::<String>::new());
    }
}
