//! The end-to-end run of one workload: set-up time, single-thread
//! replay throughput of both protocols, peak RSS and the paper's `T_ave`,
//! with every replay checked against the golden `SimStats`. Every timed
//! step is scaled to the reference host by [`HostClock`].

use crate::calibrate::HostClock;
use crate::measure::{mrefs_per_s, now, peak_rss_mib, secs_since, Checks, Metric};
use crate::workloads::{Engine, Spec, Visit};
use crate::{golden, Report};
use std::hint::black_box;
use ulc_hierarchy::{simulate, SimStats};
use ulc_trace::Trace;

/// Timed rounds per run, at least; a run with `--seconds` keeps going
/// until that much time has passed (up to [`MAX_ROUNDS`]). A round is one
/// set-up and one replay per protocol, each followed by a kernel pass.
pub const MIN_ROUNDS: usize = 11;
/// Upper bound on timed rounds per run.
pub const MAX_ROUNDS: usize = 401;

/// The protocols every workload compares, as metric-name prefixes.
pub const PROTOCOLS: [&str; 2] = ["ulc", "unilru"];

/// `T_ave` (ms, two decimals) at seed 0 from the EXPERIMENTS.md Fig 6
/// table: `(workload, ULC, uniLRU)`.
const PAPER_T_AVE: [(&str, f64, f64); 2] = [("fig6-tpcc1", 0.78, 2.33), ("fig6-zipf", 1.29, 1.65)];

/// The reference every replay of one protocol must reproduce: the golden
/// `SimStats` at seed 0, otherwise the first replay of the run.
pub struct Expected {
    what: String,
    stats: Option<SimStats>,
}

impl Expected {
    /// The reference for `protocol` (a golden key: `ulc`, `unilru`,
    /// `ulc_2t`) on `workload` at `seed`.
    pub fn new(workload: &str, protocol: &str, seed: u64, checks: &mut Checks) -> Expected {
        let what = format!("{workload}/{protocol}");
        let stats = if seed == 0 {
            let g = golden()
                .get(workload)
                .and_then(|w| w.get(protocol))
                .cloned();
            checks.check(g.is_some(), || format!("{what}: no golden SimStats"));
            g
        } else {
            None
        };
        Expected { what, stats }
    }

    /// Checks `got` against the reference (adopting it if there is none yet).
    pub fn verify(&mut self, got: &SimStats, replay: &str, checks: &mut Checks) {
        match &self.stats {
            Some(want) => checks.check(want == got, || {
                format!(
                    "{} {replay}: SimStats {got:?} != expected {want:?}",
                    self.what
                )
            }),
            None => self.stats = Some(got.clone()),
        }
    }

    /// The reference stats (after at least one [`Expected::verify`]).
    pub fn stats(&self) -> SimStats {
        self.stats.clone().unwrap_or_default()
    }
}

/// One timed `simulate` of `engine` over the whole trace: `(seconds, stats)`.
pub fn timed_simulate<E: Engine>(engine: &mut E, trace: &Trace) -> (f64, SimStats) {
    let start = now();
    let stats = simulate(engine, black_box(trace), trace.warmup_len());
    let secs = secs_since(start);
    (secs, black_box(stats))
}

/// Runs `f` between `mark(name, true)` and `mark(name, false)` and times
/// it, marks excluded: `(output, seconds)`. The marks are a caller's
/// bookkeeping around each step; the traced run opens and closes spans.
fn timed_step<T>(mark: &mut impl FnMut(&str, bool), name: &str, f: impl FnOnce() -> T) -> (T, f64) {
    mark(name, true);
    let start = now();
    let out = f();
    let secs = secs_since(start);
    mark(name, false);
    (out, secs)
}

/// Seconds of one set-up: trace generation, the ULC build, the uniLRU build.
pub type SetupSecs = [f64; 3];

/// One set-up: generates the trace and builds both engines, each step
/// timed. The set-up is marked `setup`, its steps `trace.gen` and
/// `engine.build.<p>`.
pub fn setup<U: Engine, L: Engine>(
    spec: &Spec,
    seed: u64,
    ulc: &impl Fn() -> U,
    unilru: &impl Fn() -> L,
    mark: &mut impl FnMut(&str, bool),
) -> (Trace, U, L, SetupSecs) {
    mark("setup", true);
    let (trace, gen) = timed_step(mark, "trace.gen", || spec.generate(seed));
    let (u, ulc_build) = timed_step(mark, "engine.build.ulc", ulc);
    let (l, unilru_build) = timed_step(mark, "engine.build.unilru", unilru);
    mark("setup", false);
    (trace, u, l, [gen, ulc_build, unilru_build])
}

/// Makes each protocol's reference and checks one untimed warm-up replay
/// per protocol against it, marked `replay.<p>.warm-up`.
pub fn warm_up<U: Engine, L: Engine>(
    spec: &Spec,
    seed: u64,
    (ulc, unilru): (&mut U, &mut L),
    trace: &Trace,
    checks: &mut Checks,
    mark: &mut impl FnMut(&str, bool),
) -> [Expected; 2] {
    let mut expected = PROTOCOLS.map(|p| Expected::new(spec.name, p, seed, checks));
    let ((_, stats), _) = timed_step(mark, "replay.ulc.warm-up", || timed_simulate(ulc, trace));
    expected[0].verify(&stats, "warm-up", checks);
    let ((_, stats), _) = timed_step(mark, "replay.unilru.warm-up", || {
        timed_simulate(unilru, trace)
    });
    expected[1].verify(&stats, "warm-up", checks);
    expected
}

/// Runs both engines' post-run invariant checks.
pub fn check_engines<U: Engine, L: Engine>(spec: &Spec, ulc: &U, unilru: &L, checks: &mut Checks) {
    checks.check_no_panic(&format!("{} ulc invariants", spec.name), || {
        ulc.check_after_run()
    });
    checks.check_no_panic(&format!("{} unilru invariants", spec.name), || {
        unilru.check_after_run()
    });
}

/// Runs the end-to-end measurement of `spec`.
pub fn run(spec: &Spec, seed: u64, seconds: f64) -> Report {
    spec.with_engines(
        seed,
        E2e {
            spec,
            seed,
            seconds,
        },
    )
}

struct E2e<'a> {
    spec: &'a Spec,
    seed: u64,
    seconds: f64,
}

impl Visit for E2e<'_> {
    type Out = Report;

    fn visit<U: Engine, L: Engine>(self, ulc: impl Fn() -> U, unilru: impl Fn() -> L) -> Report {
        let E2e {
            spec,
            seed,
            seconds,
        } = self;
        let mut checks = Checks::default();
        let mut no_marks = |_: &str, _: bool| {};

        // One untimed round first: a set-up and a replay per protocol.
        let (trace, mut u, mut l, _) = setup(spec, seed, &ulc, &unilru, &mut no_marks);
        let mut expected = warm_up(
            spec,
            seed,
            (&mut u, &mut l),
            &trace,
            &mut checks,
            &mut no_marks,
        );
        // What one set-up and one replay per protocol hold at their peak.
        // Later rounds free and rebuild everything, and the allocator's
        // fragmentation would let the high-water mark creep with their
        // number.
        let peak_rss = peak_rss_mib();
        let mut last = Some((trace, u, l));

        // Timed rounds: each sets up afresh and replays both protocols on
        // the engines it built. Which protocol goes first alternates.
        let mut clock = HostClock::new(&mut checks);
        let mut setup_secs = Vec::new();
        let mut rates: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
        let start = now();
        while setup_secs.len() < MIN_ROUNDS
            || (setup_secs.len() < MAX_ROUNDS && secs_since(start) < seconds)
        {
            // Free the previous round first, so memory holds one round.
            drop(last.take());
            let (trace, mut u, mut l, secs) = setup(spec, seed, &ulc, &unilru, &mut no_marks);
            let round = setup_secs.len();
            setup_secs.push(clock.scale(secs.iter().sum(), &mut checks));
            for k in 0..2 {
                let which = (round + k) % 2;
                let (secs, stats) = if which == 0 {
                    timed_simulate(&mut u, &trace)
                } else {
                    timed_simulate(&mut l, &trace)
                };
                let secs = clock.scale(secs, &mut checks);
                expected[which].verify(&stats, &format!("round {round}"), &mut checks);
                rates[which].push(mrefs_per_s(trace.len(), secs));
            }
            last = Some((trace, u, l));
        }
        if let Some((_, u, l)) = &last {
            check_engines(spec, u, l, &mut checks);
        }

        let costs = spec.costs();
        let t_ave = [0, 1].map(|i| expected[i].stats().average_access_time(&costs));
        if seed == 0 {
            if let Some(&(_, ulc_ms, uni_ms)) = PAPER_T_AVE.iter().find(|p| p.0 == spec.name) {
                for (got, want, p) in [(t_ave[0], ulc_ms, "ULC"), (t_ave[1], uni_ms, "uniLRU")] {
                    checks.check(format!("{got:.2}") == format!("{want:.2}"), || {
                        format!(
                            "{} {p} T_ave {got:.4} ms != EXPERIMENTS.md {want:.2} ms",
                            spec.name
                        )
                    });
                }
            }
        }

        let metrics = vec![
            Metric::times("setup_s", "s", &setup_secs),
            Metric::rates("ulc_maps", "Mrefs/s", &rates[0]),
            Metric::rates("unilru_maps", "Mrefs/s", &rates[1]),
            Metric::exact("peak_rss_mb", "MiB", peak_rss),
        ];
        Report::new(spec.name, seed, checks, metrics)
    }
}
