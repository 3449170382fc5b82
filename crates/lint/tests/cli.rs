//! End-to-end tests of the `ulc-lint` binary: flag handling, exit
//! codes, and the baseline diff gate driven exactly as CI drives it.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn bin() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ulc-lint"))
}

fn run(args: &[&str]) -> Output {
    bin().args(args).output().expect("spawn ulc-lint")
}

fn code(out: &Output) -> i32 {
    out.status.code().expect("exit code")
}

fn stdout(out: &Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

#[test]
fn help_goes_to_stdout_and_exits_zero() {
    for flag in ["--help", "-h"] {
        let out = run(&[flag]);
        assert_eq!(code(&out), 0, "{flag}");
        assert!(stdout(&out).contains("usage: ulc-lint"), "{flag}");
        assert!(stdout(&out).contains("--baseline"), "{flag}");
        assert!(stderr(&out).is_empty(), "{flag}: {}", stderr(&out));
    }
}

#[test]
fn version_prints_the_crate_version() {
    let out = run(&["--version"]);
    assert_eq!(code(&out), 0);
    let expected = format!("ulc-lint {}", env!("CARGO_PKG_VERSION"));
    assert_eq!(stdout(&out).trim(), expected);
}

#[test]
fn unknown_flags_exit_two_with_usage() {
    let out = run(&["--frobnicate"]);
    assert_eq!(code(&out), 2);
    assert!(stderr(&out).contains("unknown argument `--frobnicate`"));
    assert!(stderr(&out).contains("usage: ulc-lint"), "usage follows");
}

#[test]
fn explain_known_rule_succeeds_unknown_exits_two() {
    let out = run(&["--explain=hot-path-alloc"]);
    assert_eq!(code(&out), 0);
    assert!(stdout(&out).contains("hot-path-alloc:"), "{}", stdout(&out));

    let out = run(&["--explain=no-such-rule"]);
    assert_eq!(code(&out), 2);
    assert!(stderr(&out).contains("unknown rule"), "{}", stderr(&out));
    assert!(
        stderr(&out).contains("hot-path-alloc"),
        "lists known rules: {}",
        stderr(&out)
    );
}

#[test]
fn baseline_and_write_baseline_are_mutually_exclusive() {
    let out = run(&["--baseline=a.txt", "--write-baseline=b.txt"]);
    assert_eq!(code(&out), 2);
    assert!(stderr(&out).contains("mutually exclusive"));
}

#[test]
fn unreadable_workspace_root_exits_two() {
    let out = run(&["--root=/nonexistent/ulc-lint-test-root"]);
    assert_eq!(code(&out), 2);
    assert!(stderr(&out).contains("failed to read workspace"));
}

// ── Baseline diff gate, end to end ──────────────────────────────────

/// A scratch workspace for the gate tests; removed on drop so repeated
/// runs start clean.
struct Scratch(PathBuf);

impl Scratch {
    fn new(tag: &str) -> Scratch {
        let dir = std::env::temp_dir().join(format!("ulc_lint_cli_{tag}"));
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(dir.join("crates/x/src")).expect("scratch dirs");
        Scratch(dir)
    }

    fn write(&self, rel: &str, src: &str) {
        std::fs::write(self.0.join(rel), src).expect("write scratch file");
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        std::fs::remove_dir_all(&self.0).ok();
    }
}

/// One pre-existing finding: `unwrap` in library code.
const SEEDED: &str = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n";
/// The seeded finding plus a new one in a second function.
const GROWN: &str = "pub fn f(x: Option<u8>) -> u8 { x.unwrap() }\n\
                     pub fn g(x: Option<u8>) -> u8 { x.expect(\"\") }\n";

#[test]
fn baseline_gate_passes_on_known_findings_and_fails_on_new_ones() {
    let ws = Scratch::new("gate");
    ws.write("crates/x/src/lib.rs", SEEDED);
    let root = format!("--root={}", ws.path().display());
    let base = ws.path().join("baseline.txt");
    let base_arg = |pfx: &str| format!("{pfx}{}", base.display());

    // Without a baseline, the seeded finding fails the run outright.
    let out = run(&[&root]);
    assert_eq!(code(&out), 1);
    assert!(stdout(&out).contains("[panic]"), "{}", stdout(&out));

    // Record the baseline; the gate now passes and labels it [known].
    let out = run(&[&root, &base_arg("--write-baseline=")]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let out = run(&[&root, &base_arg("--baseline=")]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    assert!(stdout(&out).contains("[known]"), "{}", stdout(&out));
    assert!(!stdout(&out).contains("[NEW]"), "{}", stdout(&out));

    // Inject a second finding: only it is NEW, and the gate fails.
    ws.write("crates/x/src/lib.rs", GROWN);
    let out = run(&[&root, &base_arg("--baseline=")]);
    assert_eq!(code(&out), 1);
    assert!(stdout(&out).contains("[known]"), "{}", stdout(&out));
    assert!(stdout(&out).contains("[NEW]"), "{}", stdout(&out));
    assert!(
        stderr(&out).contains("1 NEW finding(s)"),
        "{}",
        stderr(&out)
    );
}

#[test]
fn json_report_is_written_even_when_clean() {
    let ws = Scratch::new("json");
    ws.write("crates/x/src/lib.rs", "pub fn ok() {}\n");
    let root = format!("--root={}", ws.path().display());
    let json = ws.path().join("results/lint.json");
    let out = run(&[&root, &format!("--json={}", json.display())]);
    assert_eq!(code(&out), 0, "{}", stderr(&out));
    let text = std::fs::read_to_string(&json).expect("json written");
    assert_eq!(text.trim(), "[]");
}
