//! `ulcsim` — a flexible command-line front end for the simulator.
//!
//! ```text
//! ulcsim --workload=tpcc1 --caps=6400,6400,6400 --scheme=ulc --refs=1000000
//! ulcsim --trace=path/to/trace.txt --caps=1024,8192 --scheme=all
//! ```
//!
//! Options:
//!
//! * `--workload=<name>`: one of `cs glimpse zipf random sprite multi
//!   random-large zipf-large httpd dev1 tpcc1 httpd-multi openmail db2`
//!   (default `tpcc1`), or `--trace=<file>` in the `ulc::trace::io` text
//!   format;
//! * `--refs=<n>`: references to generate for synthetic workloads
//!   (default 500000);
//! * `--caps=<a,b,...>`: per-level capacities in blocks (default
//!   `6400,6400,6400`);
//! * `--scheme=<indlru|unilru|mq|ulc|all>` (default `all`; `mq` needs
//!   exactly two levels);
//! * `--warmup=<n>`: warm-up references (default: first tenth).

use ulc_bench::{ms, pct, row};
use ulc_core::{UlcConfig, UlcMulti, UlcMultiConfig, UlcSingle};
use ulc_hierarchy::{
    simulate, CostModel, IndLru, LruMqServer, MultiLevelPolicy, UniLru, UniLruVariant,
};
use ulc_trace::{synthetic, Trace};

struct Args {
    workload: String,
    trace_file: Option<String>,
    refs: usize,
    caps: Vec<usize>,
    scheme: String,
    warmup: Option<usize>,
}

fn parse_args() -> Args {
    let mut args = Args {
        workload: "tpcc1".into(),
        trace_file: None,
        refs: 500_000,
        caps: vec![6_400, 6_400, 6_400],
        scheme: "all".into(),
        warmup: None,
    };
    for arg in std::env::args().skip(1) {
        if let Some(v) = arg.strip_prefix("--workload=") {
            args.workload = v.into();
        } else if let Some(v) = arg.strip_prefix("--trace=") {
            args.trace_file = Some(v.into());
        } else if let Some(v) = arg.strip_prefix("--refs=") {
            args.refs = v.parse().expect("--refs takes an integer");
        } else if let Some(v) = arg.strip_prefix("--caps=") {
            args.caps = v
                .split(',')
                .map(|c| c.trim().parse().expect("--caps takes integers"))
                .collect();
        } else if let Some(v) = arg.strip_prefix("--scheme=") {
            args.scheme = v.to_lowercase();
        } else if let Some(v) = arg.strip_prefix("--warmup=") {
            args.warmup = Some(v.parse().expect("--warmup takes an integer"));
        } else {
            panic!("unknown argument {arg:?}");
        }
    }
    assert!(!args.caps.is_empty(), "--caps needs at least one level");
    args
}

fn load_workload(args: &Args) -> Trace {
    if let Some(path) = &args.trace_file {
        let file = std::fs::File::open(path).expect("trace file should open");
        return ulc_trace::io::read_text(file).expect("trace file should parse");
    }
    let n = args.refs;
    match args.workload.as_str() {
        "cs" => synthetic::cs(n),
        "glimpse" => synthetic::glimpse(n),
        "zipf" => synthetic::zipf_small(n),
        "random" => synthetic::random_small(n),
        "sprite" => synthetic::sprite(n),
        "multi" => synthetic::multi_small(n),
        "random-large" => synthetic::random_large(n),
        "zipf-large" => synthetic::zipf_large(n),
        "httpd" => synthetic::httpd_single(n),
        "dev1" => synthetic::dev1(n),
        "tpcc1" => synthetic::tpcc1(n),
        "httpd-multi" => synthetic::httpd_multi(n),
        "openmail" => synthetic::openmail(n, 150_000),
        "db2" => synthetic::db2_multi(n, 85_000),
        other => panic!("unknown workload {other:?}"),
    }
}

fn build_schemes(name: &str, caps: &[usize], clients: usize) -> Vec<Box<dyn MultiLevelPolicy>> {
    let multi_client = clients > 1;
    let client_caps = vec![caps[0]; clients];
    let shared: Vec<usize> = caps[1..].to_vec();
    let mut out: Vec<Box<dyn MultiLevelPolicy>> = Vec::new();
    let want = |s: &str| name == "all" || name == s;
    if want("indlru") {
        out.push(Box::new(IndLru::multi_client(
            client_caps.clone(),
            shared.clone(),
        )));
    }
    if want("unilru") {
        out.push(Box::new(UniLru::multi_client(
            client_caps.clone(),
            shared.clone(),
            UniLruVariant::MruInsert,
        )));
    }
    if want("mq") && caps.len() == 2 {
        out.push(Box::new(LruMqServer::new(client_caps.clone(), caps[1])));
    }
    if want("ulc") {
        if multi_client {
            assert_eq!(caps.len(), 2, "multi-client ULC needs exactly two levels");
            out.push(Box::new(UlcMulti::new(UlcMultiConfig {
                client_capacities: client_caps,
                server_capacity: caps[1],
                claim_rule: Default::default(),
            })));
        } else {
            out.push(Box::new(UlcSingle::new(UlcConfig::new(caps.to_vec()))));
        }
    }
    assert!(!out.is_empty(), "no scheme matched {name:?}");
    out
}

fn cost_model(levels: usize) -> CostModel {
    match levels {
        2 => CostModel::paper_two_level(),
        3 => CostModel::paper_three_level(),
        n => {
            // Extend the paper's constants: every extra level is another
            // SAN hop.
            let mut hit = vec![0.0, 1.0];
            for i in 2..n {
                hit.push(1.0 + 0.2 * (i as f64 - 1.0));
            }
            let miss = hit.last().unwrap() + 10.0;
            let mut demote = vec![1.0];
            demote.resize(n - 1, 0.2);
            CostModel {
                hit_time_ms: hit,
                miss_time_ms: miss,
                demote_time_ms: demote,
            }
        }
    }
}

fn main() {
    let args = parse_args();
    let trace = load_workload(&args);
    let clients = trace.num_clients().max(1) as usize;
    let warmup = args.warmup.unwrap_or_else(|| trace.warmup_len());
    let costs = cost_model(args.caps.len());
    println!(
        "workload {} ({}), caps {:?}, warmup {}",
        args.workload,
        ulc_trace::TraceStats::compute(&trace),
        args.caps,
        warmup
    );

    let mut header = vec![];
    for i in 0..args.caps.len() {
        header.push(format!("h(L{})", i + 1));
    }
    header.push("miss".into());
    for i in 0..args.caps.len() - 1 {
        header.push(format!("d(b{})", i + 1));
    }
    header.push("T_ave".into());
    println!("{}", row("scheme", &header));

    for scheme in build_schemes(&args.scheme, &args.caps, clients).iter_mut() {
        let stats = simulate(scheme.as_mut(), &trace, warmup);
        let mut cells = vec![];
        for h in stats.hit_rates() {
            cells.push(pct(h));
        }
        cells.push(pct(stats.miss_rate()));
        for d in stats.demotion_rates() {
            cells.push(pct(d));
        }
        cells.push(ms(stats.average_access_time(&costs)));
        println!("{}", row(scheme.name(), &cells));
    }
}
