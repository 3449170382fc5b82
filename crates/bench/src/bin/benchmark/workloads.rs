//! The five benchmark workloads: seeded copies of the paper's generator
//! recipes, the Fig 6/7 cache configurations, and the engines each
//! workload replays. `BENCHMARK.json` declares three of them, the ones a
//! change is gated on; `fig7-httpd` and `fig7-httpd-lossy` run by name.
//!
//! Every recipe is rebuilt on the public `ulc_trace::patterns` API with
//! some of the fixed generator seeds of `ulc_trace::synthetic` mixed with
//! the benchmark seed, so `--seed=0` replays exactly the traces the
//! figures use and any other seed draws a fresh trace of the same shape.

use ulc_core::{simulate_sharded, UlcConfig, UlcMulti, UlcMultiConfig, UlcSingle};
use ulc_hierarchy::{
    CostModel, FaultScenario, FaultyPlane, MessagePlane, MultiLevelPolicy, SimStats, UniLru,
    UniLruVariant,
};
use ulc_obs::Observe;
use ulc_trace::multi::interleave;
use ulc_trace::patterns::{
    FileSetPattern, LoopingPattern, MixedPattern, Pattern, Phase, UniformPattern, ZipfPattern,
};
use ulc_trace::synthetic::{
    DB2_CLIENTS, HTTPD_BLOCKS, HTTPD_CHURN_INTERVAL, HTTPD_CLIENTS, HTTPD_FILES,
    HTTPD_RECENCY_BIAS, HTTPD_RECENCY_WINDOW, TPCC1_BLOCKS, TPCC1_LOOP_BLOCKS, ZIPF_LARGE_BLOCKS,
};
use ulc_trace::{blocks_for_mib, Trace};

/// Fig 6 trace length (`Scale::Default` large traces).
const FIG6_REFS: usize = 2_000_000;
/// Fig 7 trace length (`Scale::Default` multi-client traces).
const FIG7_REFS: usize = 1_500_000;
/// The fault seed `fig7-httpd-lossy` uses at benchmark seed 0, the one
/// the degradation study and the chaos suite run.
const LOSSY_FAULT_SEED: u64 = 1789;

/// Mixes the benchmark seed into one of a recipe's fixed generator seeds;
/// seed 0 keeps the recipe's own seed.
pub fn mix(base: u64, seed: u64) -> u64 {
    base ^ seed.wrapping_mul(0x9E37_79B9_7F4A_7C15)
}

/// `synthetic::tpcc1` with its uniform-index seed mixed with `seed`.
pub fn tpcc1(refs: usize, seed: u64) -> Trace {
    MixedPattern::new(vec![
        Phase::new(Box::new(LoopingPattern::new(TPCC1_LOOP_BLOCKS)), 9_500),
        Phase::new(
            Box::new(
                UniformPattern::new(TPCC1_BLOCKS - TPCC1_LOOP_BLOCKS, mix(0x5eed15, seed))
                    .with_base(TPCC1_LOOP_BLOCKS),
            ),
            500,
        ),
    ])
    .generate(refs)
}

/// `synthetic::zipf_large` with its popularity and scramble seeds mixed.
pub fn zipf_large(refs: usize, seed: u64) -> Trace {
    ZipfPattern::new(ZIPF_LARGE_BLOCKS, 1.0, mix(0x5eed11, seed))
        .scrambled(mix(0x5eed12, seed))
        .generate(refs)
}

/// `synthetic::httpd_multi` with its interleave seed mixed. The file set
/// and the seven clients' request streams stay the figure's: a new seed
/// re-interleaves the same requests, so footprint, hit rates and table
/// sizes keep their shape (varying the file set or the request streams
/// moves `T_ave` and peak RSS by 10–15 % between seeds).
pub fn httpd_multi(refs: usize, seed: u64) -> Trace {
    let patterns: Vec<Box<dyn Pattern>> = (0..HTTPD_CLIENTS as u64)
        .map(|c| {
            Box::new(
                FileSetPattern::new(HTTPD_FILES, HTTPD_BLOCKS, 1.0, 0x5eed13)
                    .with_popularity_churn(HTTPD_CHURN_INTERVAL)
                    .with_recency_bias(HTTPD_RECENCY_BIAS, HTTPD_RECENCY_WINDOW)
                    .with_request_seed(0x5eed20 + c),
            ) as Box<dyn Pattern>
        })
        .collect();
    interleave(patterns, None, refs, mix(0x5eed21, seed))
}

/// `synthetic::db2_multi` with its interleave seed mixed (the clients'
/// looping scans themselves are deterministic).
pub fn db2_multi(refs: usize, footprint_blocks: u64, seed: u64) -> Trace {
    let per_client = footprint_blocks / DB2_CLIENTS as u64;
    let patterns: Vec<Box<dyn Pattern>> = (0..DB2_CLIENTS as u64)
        .map(|c| {
            let base = c * per_client;
            let small = per_client / 5;
            let large = per_client - small;
            Box::new(MixedPattern::new(vec![
                Phase::new(
                    Box::new(LoopingPattern::with_scopes(vec![small]).with_base(base)),
                    2_000,
                ),
                Phase::new(
                    Box::new(LoopingPattern::with_scopes(vec![large]).with_base(base + small)),
                    8_000,
                ),
            ])) as Box<dyn Pattern>
        })
        .collect();
    interleave(patterns, None, refs, mix(0x5eed41, seed))
}

/// The `FaultScenario::mild` seed of `fig7-httpd-lossy`.
pub fn fault_seed(seed: u64) -> u64 {
    mix(LOSSY_FAULT_SEED, seed)
}

/// Which recipe a workload replays.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Recipe {
    Tpcc1,
    ZipfLarge,
    HttpdMulti,
    Db2Multi,
}

/// The hierarchy a workload runs on.
#[derive(Clone, Copy, Debug)]
pub enum Shape {
    /// Fig 6: one client over three levels of `blocks` each.
    ThreeLevel { blocks: usize },
    /// Fig 7: `clients` private caches over one shared server cache.
    MultiClient {
        clients: usize,
        client_blocks: usize,
        server_blocks: usize,
        /// Run over `FaultyPlane::new(FaultScenario::mild(fault_seed))`.
        lossy: bool,
    },
}

/// One benchmark workload.
#[derive(Clone, Copy, Debug)]
pub struct Spec {
    /// Workload name, as `--workload` takes it.
    pub name: &'static str,
    recipe: Recipe,
    refs: usize,
    /// The hierarchy and its cache sizes.
    pub shape: Shape,
}

/// `db2` footprint: the paper's 5.2 GB data set scaled down 8× (as Fig 7).
const DB2_FOOTPRINT: u64 = blocks_for_mib(5_200) / 8;

/// The workloads, in the order a run without `--workload` executes them.
pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "fig6-tpcc1",
        recipe: Recipe::Tpcc1,
        refs: FIG6_REFS,
        shape: Shape::ThreeLevel {
            blocks: blocks_for_mib(50) as usize,
        },
    },
    Spec {
        name: "fig6-zipf",
        recipe: Recipe::ZipfLarge,
        refs: FIG6_REFS,
        shape: Shape::ThreeLevel {
            blocks: blocks_for_mib(100) as usize,
        },
    },
    Spec {
        name: "fig7-httpd",
        recipe: Recipe::HttpdMulti,
        refs: FIG7_REFS,
        shape: Shape::MultiClient {
            clients: HTTPD_CLIENTS,
            client_blocks: blocks_for_mib(8) as usize,
            server_blocks: 8_192,
            lossy: false,
        },
    },
    Spec {
        name: "fig7-db2",
        recipe: Recipe::Db2Multi,
        refs: FIG7_REFS,
        shape: Shape::MultiClient {
            clients: DB2_CLIENTS,
            client_blocks: (blocks_for_mib(256) / 8) as usize,
            server_blocks: 16_384,
            lossy: false,
        },
    },
    Spec {
        name: "fig7-httpd-lossy",
        recipe: Recipe::HttpdMulti,
        refs: FIG7_REFS,
        shape: Shape::MultiClient {
            clients: HTTPD_CLIENTS,
            client_blocks: blocks_for_mib(8) as usize,
            server_blocks: 8_192,
            lossy: true,
        },
    },
];

/// Looks a workload up by name.
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Spec {
    /// Generates the workload's trace for `seed`.
    pub fn generate(&self, seed: u64) -> Trace {
        match self.recipe {
            Recipe::Tpcc1 => tpcc1(self.refs, seed),
            Recipe::ZipfLarge => zipf_large(self.refs, seed),
            Recipe::HttpdMulti => httpd_multi(self.refs, seed),
            Recipe::Db2Multi => db2_multi(self.refs, DB2_FOOTPRINT, seed),
        }
    }

    /// The §4.1 cost model the paper pairs with this hierarchy.
    pub fn costs(&self) -> CostModel {
        match self.shape {
            Shape::ThreeLevel { .. } => CostModel::paper_three_level(),
            Shape::MultiClient { .. } => CostModel::paper_two_level(),
        }
    }

    /// Whether the workload runs the multi-client engines.
    pub fn is_multi(&self) -> bool {
        matches!(self.shape, Shape::MultiClient { .. })
    }

    /// Capacities of the `uniLRUstack`s ULC keeps (one per client), and
    /// the entries the engine reserves in each, for the standalone stack
    /// replay.
    pub fn stacks(&self) -> Vec<(Vec<usize>, usize)> {
        match self.shape {
            Shape::ThreeLevel { blocks } => vec![(vec![blocks; 3], 0)],
            Shape::MultiClient {
                clients,
                client_blocks,
                server_blocks,
                ..
            } => vec![
                (
                    vec![client_blocks, server_blocks],
                    2 * (client_blocks + server_blocks)
                );
                clients
            ],
        }
    }

    /// Calls `v` with builders for this workload's two engines: ULC
    /// (`UlcSingle` or `UlcMulti`) and uniLRU (DEMOTE, MRU insertion).
    pub fn with_engines<V: Visit>(&self, seed: u64, v: V) -> V::Out {
        match self.shape {
            Shape::ThreeLevel { blocks } => v.visit(
                || UlcSingle::new(UlcConfig::new(vec![blocks; 3])),
                || UniLru::single_client(vec![blocks; 3]),
            ),
            Shape::MultiClient {
                clients,
                client_blocks,
                server_blocks,
                lossy,
            } => {
                let ulc = move || {
                    UlcMulti::new(UlcMultiConfig::uniform(
                        clients,
                        client_blocks,
                        server_blocks,
                    ))
                };
                let uni = move || {
                    UniLru::multi_client(
                        vec![client_blocks; clients],
                        vec![server_blocks],
                        UniLruVariant::MruInsert,
                    )
                };
                if lossy {
                    let plane = move || FaultyPlane::new(FaultScenario::mild(fault_seed(seed)));
                    v.visit(
                        move || ulc().with_plane(plane()),
                        move || uni().with_plane(plane()),
                    )
                } else {
                    v.visit(ulc, uni)
                }
            }
        }
    }
}

/// A caller of [`Spec::with_engines`]: generic over the engine types.
pub trait Visit {
    /// What the visit returns.
    type Out;
    /// Runs with the workload's engine builders.
    fn visit<U: Engine, L: Engine>(self, ulc: impl Fn() -> U, unilru: impl Fn() -> L) -> Self::Out;
}

/// What the benchmark needs from an engine beyond the policy trait.
pub trait Engine: MultiLevelPolicy + Observe {
    /// The engine's structural self-check after a run: the full set on a
    /// reliable plane, the recoverable subset on a lossy one. Panics on
    /// a violation.
    fn check_after_run(&self);

    /// A 2-shard `simulate_sharded` replay, for engines the sharded
    /// executor takes.
    fn replay_2_shards(&mut self, _trace: &Trace, _warmup: usize) -> Option<SimStats> {
        None
    }
}

impl Engine for UlcSingle {
    fn check_after_run(&self) {
        self.check_invariants();
    }
}

impl<P: MessagePlane> Engine for UlcMulti<P> {
    fn check_after_run(&self) {
        if self.plane().lossy() {
            self.check_recoverable_invariants();
        } else {
            self.check_invariants();
        }
    }

    fn replay_2_shards(&mut self, trace: &Trace, warmup: usize) -> Option<SimStats> {
        Some(simulate_sharded(self, trace, warmup, 2))
    }
}

impl<P: MessagePlane> Engine for UniLru<P> {
    fn check_after_run(&self) {
        if self.plane().lossy() {
            self.check_recoverable_invariants();
        } else {
            self.check_invariants();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ulc_trace::synthetic;

    #[test]
    fn seed_zero_reproduces_the_synthetic_recipes_and_seed_one_differs() {
        let n = 30_000;
        let footprint = 20_000;
        assert_eq!(tpcc1(n, 0), synthetic::tpcc1(n));
        assert_eq!(zipf_large(n, 0), synthetic::zipf_large(n));
        assert_eq!(httpd_multi(n, 0), synthetic::httpd_multi(n));
        assert_eq!(
            db2_multi(n, footprint, 0),
            synthetic::db2_multi(n, footprint)
        );
        assert_ne!(tpcc1(n, 1), synthetic::tpcc1(n));
        assert_ne!(zipf_large(n, 1), synthetic::zipf_large(n));
        assert_ne!(httpd_multi(n, 1), synthetic::httpd_multi(n));
        assert_ne!(
            db2_multi(n, footprint, 1),
            synthetic::db2_multi(n, footprint)
        );
        assert_eq!(fault_seed(0), 1789);
        assert_ne!(fault_seed(1), 1789);
    }

    #[test]
    fn workload_names_are_unique_and_findable() {
        for w in &WORKLOADS {
            assert_eq!(find(w.name).map(|f| f.name), Some(w.name));
        }
        assert!(find("nope").is_none());
    }
}
