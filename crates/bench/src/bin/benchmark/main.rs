//! The ULC replay benchmark: paper-configured Fig 6/7 cells replayed
//! through the public engine API, timed single-threaded, with every
//! output checked against golden `SimStats`. See README.md in this
//! directory for the commands, workloads and metrics.
//!
//! The parent process runs each workload in a fresh child process (one
//! after another, one thread each), so each workload's peak RSS is its
//! own. `--trace 1` adds a traced child of the `obs` build (`--obs-exe`)
//! that measures the per-layer metrics.

mod calibrate;
mod e2e;
mod measure;
mod traced;
mod workloads;

use e2e::PROTOCOLS;
use measure::{Checks, Metric};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::sync::OnceLock;
use traced::ACCESS_CLASSES;
use ulc_hierarchy::SimStats;
use workloads::{Engine, Spec, Visit, WORKLOADS};

/// The end-to-end metrics every workload reports: `(name, unit)`.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("ulc_maps", "Mrefs/s"),
    ("unilru_maps", "Mrefs/s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics every traced workload reports: `(name, unit)`.
pub fn per_layer() -> Vec<(String, &'static str)> {
    let mut v: Vec<(String, &str)> = vec![
        ("trace.gen_s".into(), "s"),
        ("trace.unique_blocks".into(), "count"),
        ("trace.direct_share".into(), "share"),
        ("trace.exclusive_share".into(), "share"),
    ];
    for p in PROTOCOLS {
        v.push((format!("engine.{p}.build_s"), "s"));
    }
    for p in PROTOCOLS {
        for l in 1..=3 {
            v.push((format!("levels.{p}.hit.l{l}"), "count"));
        }
        v.push((format!("levels.{p}.miss"), "count"));
        for b in 1..=2 {
            v.push((format!("levels.{p}.demote.b{b}"), "count"));
        }
        v.push((format!("levels.{p}.t_ave_ms"), "sim_ms"));
    }
    v.push(("stack.maps".into(), "Mrefs/s"));
    v.push(("stack.share".into(), "share"));
    for p in PROTOCOLS {
        for c in ACCESS_CLASSES {
            v.push((format!("access.{p}.{c}.n"), "count"));
            v.push((format!("access.{p}.{c}.ns_p50"), "ns"));
            v.push((format!("access.{p}.{c}.ns_p99"), "ns"));
        }
        v.push((format!("access.{p}.reconcile"), "share"));
        v.push((format!("access.{p}.chunk_ns_p50"), "ns"));
        v.push((format!("access.{p}.chunk_ns_p99"), "ns"));
    }
    for p in PROTOCOLS {
        v.push((format!("plane.{p}.msgs_per_ref"), "ratio"));
        v.push((format!("plane.{p}.per_batch"), "ratio"));
        v.push((format!("plane.{p}.drop_share"), "share"));
        v.push((format!("plane.{p}.rpc_fail_per_kref"), "ratio"));
        v.push((format!("plane.{p}.reconcile_rounds"), "count"));
        v.push((format!("plane.{p}.stale_hits_per_kref"), "ratio"));
    }
    v.push(("parallel.ulc_2t_maps".into(), "Mrefs/s"));
    v.push(("parallel.speedup_2t".into(), "ratio"));
    for p in PROTOCOLS {
        v.push((format!("obs.{p}.detached_maps"), "Mrefs/s"));
        v.push((format!("obs.{p}.attached_maps"), "Mrefs/s"));
        v.push((format!("obs.{p}.detached_cost"), "share"));
        v.push((format!("obs.{p}.attached_cost"), "share"));
    }
    for p in PROTOCOLS {
        v.push((format!("traced.{p}.overhead"), "share"));
    }
    v
}

/// Golden `SimStats` at seed 0: workload → protocol (`ulc`, `unilru`,
/// `ulc_2t` for the 2-shard replay) → stats.
pub type Golden = BTreeMap<String, BTreeMap<String, SimStats>>;

/// The checked-in golden file (regenerate with `--bless=<path>`).
pub fn golden() -> &'static Golden {
    static GOLDEN: OnceLock<Golden> = OnceLock::new();
    GOLDEN.get_or_init(|| {
        serde_json::from_str(include_str!("golden.json")).expect("invariant: golden.json parses")
    })
}

/// What one child process measured.
#[derive(Clone, Debug, Serialize, Deserialize)]
pub struct Report {
    /// Workload name.
    pub workload: String,
    /// Benchmark seed.
    pub seed: u64,
    /// Output checks made and failed.
    pub checks: Checks,
    /// Metric rows, in catalog order.
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Assembles a child's report.
    pub fn new(workload: &str, seed: u64, checks: Checks, metrics: Vec<Metric>) -> Report {
        Report {
            workload: workload.to_string(),
            seed,
            checks,
            metrics,
        }
    }

    /// Checks that the rows are exactly `declared`, in order.
    fn check_names(&mut self, declared: &[(String, &str)]) {
        let got: Vec<(String, String)> = self
            .metrics
            .iter()
            .map(|m| (m.name.clone(), m.unit.clone()))
            .collect();
        let want: Vec<(String, String)> = declared
            .iter()
            .map(|(n, u)| (n.clone(), u.to_string()))
            .collect();
        let workload = self.workload.clone();
        self.checks.check(got == want, || {
            format!("{workload}: emitted metrics {got:?} differ from the declared {want:?}")
        });
    }
}

const USAGE: &str = "usage: benchmark [--workload=NAME] [--seed=N] [--seconds=S] \
[--trace=0|1 | --traced] [--obs-exe=PATH] [--bless=PATH]";

/// Parsed command line. Every flag takes `--flag value` or `--flag=value`.
#[derive(Debug, Default)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    obs_exe: Option<PathBuf>,
    bless: Option<PathBuf>,
    /// Internal: run one workload in this process (`e2e` or `traced`).
    child: Option<String>,
    /// Internal: the feature-off `ulc_maps,unilru_maps` for a traced child.
    off_maps: Option<[f64; 2]>,
}

impl Args {
    fn parse(raw: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut args = Args::default();
        let mut it = raw.into_iter();
        while let Some(arg) = it.next() {
            if arg == "--traced" {
                args.trace = true;
                continue;
            }
            let (flag, inline) = match arg.split_once('=') {
                Some((f, v)) => (f.to_string(), Some(v.to_string())),
                None => (arg.clone(), None),
            };
            let mut value = || {
                inline
                    .clone()
                    .or_else(|| it.next())
                    .ok_or_else(|| format!("{flag} needs a value"))
            };
            let bad = |e: &dyn std::fmt::Display| format!("{flag}: {e}");
            match flag.as_str() {
                "--workload" => args.workload = Some(value()?),
                "--seed" => args.seed = value()?.parse().map_err(|e| bad(&e))?,
                "--seconds" => {
                    args.seconds = value()?.parse().map_err(|e| bad(&e))?;
                    if !(args.seconds.is_finite() && args.seconds >= 0.0) {
                        return Err(format!("{flag}: must be a non-negative number"));
                    }
                }
                "--trace" => {
                    args.trace = match value()?.as_str() {
                        "0" => false,
                        "1" => true,
                        other => return Err(format!("{flag}: expected 0 or 1, got {other:?}")),
                    }
                }
                "--obs-exe" => args.obs_exe = Some(value()?.into()),
                "--bless" => args.bless = Some(value()?.into()),
                "--child" => args.child = Some(value()?),
                "--off-maps" => {
                    let v = value()?;
                    let parsed: Vec<f64> = v
                        .split(',')
                        .map(str::parse)
                        .collect::<Result<_, _>>()
                        .map_err(|e| bad(&e))?;
                    args.off_maps =
                        Some(parsed.try_into().map_err(|_| bad(&"expected two rates"))?);
                }
                _ => return Err(format!("unknown argument {arg:?}")),
            }
        }
        if let Some(w) = &args.workload {
            if workloads::find(w).is_none() {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                return Err(format!(
                    "unknown workload {w:?} (one of {})",
                    names.join(", ")
                ));
            }
        }
        Ok(args)
    }
}

/// Where reports and Chrome traces go: `$CARGO_TARGET_DIR/benchmark`,
/// else `target/benchmark`.
fn out_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("benchmark")
}

/// Runs `exe` as a child for one workload and parses its report (the
/// last line of its standard output).
fn run_child(
    exe: &std::path::Path,
    kind: &str,
    spec: &Spec,
    args: &Args,
    extra: &[String],
) -> Result<Report, String> {
    let mut cmd = Command::new(exe);
    cmd.args(["--child", kind, "--workload", spec.name])
        .args([
            "--seed",
            &args.seed.to_string(),
            "--seconds",
            &args.seconds.to_string(),
        ])
        .args(extra)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    let out = cmd
        .output()
        .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
    if !out.status.success() {
        return Err(format!(
            "{kind} child for {} exited with {}",
            spec.name, out.status
        ));
    }
    let text = String::from_utf8_lossy(&out.stdout);
    let last = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");
    serde_json::from_str(last)
        .map_err(|e| format!("{kind} child for {}: bad report: {e}", spec.name))
}

/// One workload, end to end (and traced, with `--trace 1`).
fn run_workload(spec: &Spec, args: &Args) -> Result<Report, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut e2e = run_child(&exe, "e2e", spec, args, &[])?;
    let declared: Vec<(String, &str)> = END_TO_END
        .iter()
        .map(|(n, u)| (n.to_string(), *u))
        .collect();
    e2e.check_names(&declared);
    if !args.trace {
        return Ok(e2e);
    }
    let obs_exe = args
        .obs_exe
        .as_ref()
        .ok_or("the traced run needs --obs-exe=<the obs build> (run.sh passes it)")?;
    let rate = |name: &str| {
        e2e.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(0.0, |m| m.value)
    };
    let off = format!("{},{}", rate("ulc_maps"), rate("unilru_maps"));
    let mut traced = run_child(obs_exe, "traced", spec, args, &["--off-maps".into(), off])?;
    traced.check_names(&per_layer());
    traced.checks.absorb(&e2e.checks);
    Ok(traced)
}

/// Runs one workload in this process and prints its report.
fn run_as_child(kind: &str, args: &Args) -> Result<(), String> {
    let spec = args
        .workload
        .as_deref()
        .and_then(workloads::find)
        .ok_or("a child run needs --workload")?;
    let report = match kind {
        "e2e" => e2e::run(spec, args.seed, args.seconds),
        "traced" => {
            let maps = args.off_maps.ok_or("a traced child needs --off-maps")?;
            let path = out_dir().join(format!("{}.trace.json", spec.name));
            traced::run(spec, args.seed, maps, &path)
        }
        other => return Err(format!("unknown child kind {other:?}")),
    };
    let line = serde_json::to_string(&report).map_err(|e| e.to_string())?;
    println!("{line}");
    Ok(())
}

/// Replays every workload once at seed 0 and writes the golden file.
fn bless(path: &std::path::Path) -> Result<(), String> {
    struct Once<'a>(&'a Spec);
    impl Visit for Once<'_> {
        type Out = BTreeMap<String, SimStats>;
        fn visit<U: Engine, L: Engine>(
            self,
            ulc: impl Fn() -> U,
            unilru: impl Fn() -> L,
        ) -> Self::Out {
            let trace = self.0.generate(0);
            let warmup = trace.warmup_len();
            let mut out = BTreeMap::new();
            out.insert(
                "ulc".into(),
                ulc_hierarchy::simulate(&mut ulc(), &trace, warmup),
            );
            out.insert(
                "unilru".into(),
                ulc_hierarchy::simulate(&mut unilru(), &trace, warmup),
            );
            if let Some(s) = ulc().replay_2_shards(&trace, warmup) {
                out.insert("ulc_2t".into(), s);
            }
            out
        }
    }
    let golden: Golden = WORKLOADS
        .iter()
        .map(|w| (w.name.to_string(), w.with_engines(0, Once(w))))
        .collect();
    let text = serde_json::to_string_pretty(&golden).map_err(|e| e.to_string())?;
    std::fs::write(path, text + "\n").map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

/// The closing line: `{"correct", "attempted", "failed", "metrics"}`.
fn result_line(reports: &[Report]) -> String {
    let (attempted, failed) = reports.iter().fold((0, 0), |(a, f), r| {
        (a + r.checks.attempted, f + r.checks.failed)
    });
    let metrics: Vec<(String, serde_json::Value)> = reports
        .iter()
        .flat_map(|r| {
            r.metrics.iter().map(move |m| {
                let name = if reports.len() > 1 {
                    format!("{}.{}", r.workload, m.name)
                } else {
                    m.name.clone()
                };
                let v = serde_json::Value::Object(vec![
                    ("value".into(), serde_json::Value::F64(m.value)),
                    ("unit".into(), serde_json::Value::Str(m.unit.clone())),
                ]);
                (name, v)
            })
        })
        .collect();
    let line = serde_json::Value::Object(vec![
        ("correct".into(), serde_json::Value::Bool(failed == 0)),
        ("attempted".into(), serde_json::Value::U64(attempted)),
        ("failed".into(), serde_json::Value::U64(failed)),
        ("metrics".into(), serde_json::Value::Object(metrics)),
    ]);
    measure::json_text(line, false)
}

fn main() -> ExitCode {
    let args = match Args::parse(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let outcome = if let Some(kind) = &args.child {
        run_as_child(kind, &args)
    } else if let Some(path) = &args.bless {
        bless(path)
    } else {
        run_parent(&args)
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs the selected workloads, prints one line per metric, writes
/// `latest.json` and the closing result line. Fails if any check failed.
fn run_parent(args: &Args) -> Result<(), String> {
    if ulc_obs::recording_compiled() {
        return Err(
            "run the feature-off build; the `obs` build is only the traced child \
                    (pass it as --obs-exe, as run.sh does)"
                .into(),
        );
    }
    let specs: Vec<&Spec> = match &args.workload {
        Some(name) => workloads::find(name).into_iter().collect(),
        None => WORKLOADS.iter().collect(),
    };
    let mut reports = Vec::new();
    for spec in specs {
        let report = run_workload(spec, args)?;
        for m in &report.metrics {
            println!("{}", m.line(&report.workload));
        }
        reports.push(report);
    }
    let dir = out_dir();
    let latest = serde_json::Value::Object(vec![
        ("seed".into(), serde_json::Value::U64(args.seed)),
        ("traced".into(), serde_json::Value::Bool(args.trace)),
        ("workloads".into(), serde_json::to_value(&reports)),
    ]);
    let text = measure::json_text(latest, true);
    std::fs::create_dir_all(&dir)
        .and_then(|()| std::fs::write(dir.join("latest.json"), text + "\n"))
        .map_err(|e| format!("{}: {e}", dir.display()))?;
    println!("{}", result_line(&reports));
    let failed: u64 = reports.iter().map(|r| r.checks.failed).sum();
    if failed > 0 {
        return Err(format!("{failed} output check(s) failed"));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The benchmark's declaration at the repository root.
    const DECLARED: &str = include_str!("../../../../../BENCHMARK.json");

    fn declared(key: &str) -> Vec<(String, String)> {
        let v = serde_json::parse(DECLARED).expect("BENCHMARK.json parses");
        let field = |o: &[(String, serde_json::Value)], k: &str| {
            o.iter()
                .find(|(n, _)| n == k)
                .map(|(_, v)| v.clone())
                .unwrap_or(serde_json::Value::Null)
        };
        let top = v.as_object().expect("an object");
        field(top, key)
            .as_array()
            .expect("an array")
            .iter()
            .map(|m| {
                let m = m.as_object().expect("an object per entry");
                let s = |k| field(m, k).as_str().unwrap_or_default().to_string();
                (
                    s("name"),
                    s(if key == "workloads" { "name" } else { "unit" }),
                )
            })
            .collect()
    }

    fn is_metric_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn emitted_metric_names_equal_the_declared_ones() {
        let e2e: Vec<(String, String)> = END_TO_END
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(declared("end_to_end"), e2e);
        let layers: Vec<(String, String)> = per_layer()
            .into_iter()
            .map(|(n, u)| (n, u.to_string()))
            .collect();
        assert_eq!(declared("per_layer"), layers);
        let mut all: Vec<String> = e2e.into_iter().chain(layers).map(|(n, _)| n).collect();
        for n in &all {
            assert!(is_metric_name(n), "{n:?} is not [A-Za-z0-9_.-]+");
        }
        let count = all.len();
        all.sort();
        all.dedup();
        assert_eq!(all.len(), count, "metric names are unique");
        // The declared workloads are the gated ones; the others run by name.
        let names: Vec<String> = declared("workloads").into_iter().map(|(n, _)| n).collect();
        assert!(!names.is_empty());
        for n in &names {
            assert!(workloads::find(n).is_some(), "declared workload {n:?}");
        }
    }

    #[test]
    fn golden_covers_every_workload_and_protocol() {
        for w in &WORKLOADS {
            let g = golden().get(w.name).expect("workload in golden.json");
            for p in PROTOCOLS {
                assert!(g.contains_key(p), "{} {p}", w.name);
            }
            assert_eq!(g.contains_key("ulc_2t"), w.is_multi(), "{}", w.name);
        }
    }

    #[test]
    fn args_take_both_flag_forms() {
        let a = Args::parse(
            [
                "--seed=3",
                "--workload",
                "fig6-zipf",
                "--trace",
                "1",
                "--seconds=2.5",
            ]
            .map(String::from),
        )
        .expect("valid");
        assert_eq!((a.seed, a.trace, a.seconds), (3, true, 2.5));
        assert_eq!(a.workload.as_deref(), Some("fig6-zipf"));
        assert!(Args::parse(["--traced".to_string()]).expect("valid").trace);
        let o = Args::parse(["--off-maps=1.5,2".to_string()]).expect("valid");
        assert_eq!(o.off_maps, Some([1.5, 2.0]));
        for bad in [
            &["--workload=nope"][..],
            &["--trace=2"],
            &["--seed"],
            &["--frobnicate"],
            &["--seconds=-1"],
        ] {
            assert!(
                Args::parse(bad.iter().map(|s| s.to_string())).is_err(),
                "{bad:?}"
            );
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let mut checks = Checks::default();
        checks.check(true, String::new);
        let r = Report::new("w", 0, checks, vec![Metric::exact("setup_s", "s", 0.5)]);
        assert_eq!(
            result_line(&[r]),
            r#"{"correct":true,"attempted":1,"failed":0,"metrics":{"setup_s":{"value":0.5,"unit":"s"}}}"#
        );
    }
}
