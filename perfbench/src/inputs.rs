//! Seeded inputs of the four workloads.
//!
//! Federation shapes are fixed per workload; only the query streams and
//! arrival times derive from `--seed`, so run-to-run differences come from
//! the program and the host, not from a different catalog. Everything the
//! program under test receives is built here, before any timer starts.

use qt_catalog::{Catalog, NodeId};
use qt_core::{QtConfig, SellerEngine};
use qt_cost::NodeResources;
use qt_exec::DataStore;
use qt_query::Query;
use qt_workload::{
    build_federation, gen_join_query_with_cut, telecom_federation, template_mix, FederationSpec,
    QueryShape, TelecomSpec,
};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

/// The node that buys in every workload (it also sells its own holdings).
pub const BUYER: NodeId = NodeId(0);
/// Clients of the closed loops (their admission concurrency).
pub const CLIENTS: usize = 8;
/// Broker fanout of `tiered256_closed`.
pub const FANOUT: usize = 8;
/// Wall seconds between the boot advertisements and the arrivals of
/// `tiered256_closed`, so every seller digest has reached the broker tree.
pub const AD_LEAD_S: f64 = 0.25;
/// Columnar memory budget of `trade_exec`: below the largest hash-join
/// build side of the mix, so some operators spill and others do not.
pub const EXEC_MEM_BUDGET: usize = 256 * 1024;

/// One of the benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Flat16Closed,
    Tiered256Closed,
    SemcacheClosed,
    TradeExec,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 4] = [
        Workload::Flat16Closed,
        Workload::Tiered256Closed,
        Workload::SemcacheClosed,
        Workload::TradeExec,
    ];

    /// The name the command line and `BENCHMARK.json` use.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Flat16Closed => "flat16_closed",
            Workload::Tiered256Closed => "tiered256_closed",
            Workload::SemcacheClosed => "semcache_closed",
            Workload::TradeExec => "trade_exec",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Sessions per serving call. The measured loop repeats calls over the
    /// stream's chunks until `--seconds` have elapsed.
    pub fn chunk_len(self) -> usize {
        match self {
            Workload::Flat16Closed => 160,
            Workload::Tiered256Closed => 240,
            Workload::SemcacheClosed => 125,
            Workload::TradeExec => 6,
        }
    }

    /// Distinct chunks in the seeded stream; each is checked against the
    /// oracle once, outside the timed region.
    pub fn chunk_count(self) -> usize {
        match self {
            Workload::Flat16Closed => 3,
            Workload::Tiered256Closed => 2,
            Workload::SemcacheClosed => 48,
            Workload::TradeExec => 1,
        }
    }
}

/// One serving call's arrivals: `(due time, query)`, times non-decreasing.
pub type Chunk = Vec<(f64, Query)>;

/// Everything a workload needs before the timed region.
pub struct Inputs {
    pub workload: Workload,
    pub catalog: Catalog,
    /// Per-node rows (`semcache_closed` and `trade_exec` only).
    pub stores: BTreeMap<NodeId, DataStore>,
    pub resources: BTreeMap<NodeId, NodeResources>,
    pub config: QtConfig,
    pub chunks: Vec<Chunk>,
}

impl Inputs {
    /// Build the workload's federation and its seeded stream.
    pub fn build(workload: Workload, seed: u64) -> Inputs {
        let n = workload.chunk_len() * workload.chunk_count();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x5eed_0000_0000_0000);
        let (catalog, stores, resources, config, queries) = match workload {
            Workload::Flat16Closed | Workload::Tiered256Closed => {
                let nodes = if workload == Workload::Flat16Closed {
                    16
                } else {
                    256
                };
                // The E24 shape: a fixed catalog of 8 relations × 2
                // partitions × replication 3 whatever the fleet size.
                let fed = build_federation(&FederationSpec {
                    nodes,
                    relations: 8,
                    partitions_per_relation: 2,
                    replication: 3,
                    rows_per_partition: 100_000,
                    scale: 1,
                    seed: 2400 + nodes as u64,
                    with_data: false,
                    speed_spread: 1.0,
                    data_skew: 0.0,
                });
                let queries = distinct_join_queries(&fed.catalog, n, &mut rng);
                (
                    fed.catalog,
                    fed.stores,
                    fed.resources,
                    QtConfig::default(),
                    queries,
                )
            }
            Workload::SemcacheClosed => {
                let (catalog, stores) = telecom_federation(&TelecomSpec {
                    offices: 16,
                    invoice_replicas: 2,
                    ..TelecomSpec::default()
                });
                // The family is fixed (E23's seed): the wide template, then
                // variants in four arms by index. The wide template is left
                // out: every variant is a residual of it, so a call that
                // met it early would answer nearly all later arrivals from
                // it. Each call draws an equal share from every arm (seeded
                // and uniform, one shuffled pass over an arm after another)
                // in seeded order, so calls hold the same mix of work.
                let mix = template_mix(&catalog.dict, 1023, 23);
                let mut arms: Vec<Vec<Query>> = vec![Vec::new(); 4];
                for (i, q) in mix[1..].iter().enumerate() {
                    arms[i % 4].push(q.clone());
                }
                let mut streams: Vec<Vec<Query>> = vec![Vec::new(); 4];
                let mut queries = Vec::with_capacity(n);
                for _ in 0..workload.chunk_count() {
                    let mut chunk = Vec::with_capacity(workload.chunk_len());
                    for k in 0..workload.chunk_len() {
                        let arm = k % 4;
                        if streams[arm].is_empty() {
                            streams[arm] = arms[arm].clone();
                            shuffle(&mut streams[arm], &mut rng);
                        }
                        chunk.push(streams[arm].pop().expect("a refilled arm"));
                    }
                    shuffle(&mut chunk, &mut rng);
                    queries.extend(chunk);
                }
                let config = QtConfig {
                    enable_semantic_cache: true,
                    ..QtConfig::default()
                };
                (catalog, stores, BTreeMap::new(), config, queries)
            }
            Workload::TradeExec => {
                // The E22 trading federation with data materialized at
                // scale 60, not 100: the row-executor oracle joins nested-
                // loop, so its cost grows with the product of join inputs.
                // Cuts of 1-3% keep that product small while the columnar
                // executor still scans every base row. The mix is fixed so
                // every run executes the same plans.
                let fed = build_federation(&FederationSpec {
                    nodes: 4,
                    relations: 3,
                    partitions_per_relation: 2,
                    replication: 2,
                    rows_per_partition: 200,
                    scale: 60,
                    seed: 2201,
                    with_data: true,
                    speed_spread: 1.0,
                    data_skew: 0.0,
                });
                let queries = exec_mix(&fed.catalog, &mut rng);
                (
                    fed.catalog,
                    fed.stores,
                    fed.resources,
                    QtConfig::default(),
                    queries,
                )
            }
        };
        let chunks = queries
            .chunks(workload.chunk_len())
            .map(|qs| arrivals(workload, qs))
            .collect();
        Inputs {
            workload,
            catalog,
            stores,
            resources,
            config,
            chunks,
        }
    }

    /// Fresh seller engines for every node (the buyer's own included), as
    /// a serving call consumes them.
    pub fn sellers(&self) -> BTreeMap<NodeId, SellerEngine> {
        self.sellers_with(&self.config)
    }

    /// [`Self::sellers`] under another configuration.
    pub fn sellers_with(&self, config: &QtConfig) -> BTreeMap<NodeId, SellerEngine> {
        self.catalog
            .nodes
            .iter()
            .map(|&n| {
                let mut e = SellerEngine::new(self.catalog.holdings_of(n), config.clone());
                if let Some(r) = self.resources.get(&n) {
                    e.resources = r.clone();
                }
                (n, e)
            })
            .collect()
    }
}

/// `n` distinct chain/star join queries of 3-5 relations, a third of them
/// aggregated, in seeded order. Every seed gets the same count of each
/// (shape, size, aggregation) class, so the work per query does not drift
/// with the seed; the seed draws each query's selection cut on `r0`.
fn distinct_join_queries(catalog: &Catalog, n: usize, rng: &mut SmallRng) -> Vec<Query> {
    let mut seen = BTreeSet::new();
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let class = i % 18;
        let shape = if class / 3 % 2 == 0 {
            QueryShape::Chain
        } else {
            QueryShape::Star
        };
        // Chain and star joins on the one shared key can normalize to the
        // same query, so a class holds fewer than its 80 cuts; stop rather
        // than spin when `n` asks for more than exist.
        let q = (0..10_000)
            .map(|_| {
                let cut = rng.random_range(10..90);
                gen_join_query_with_cut(&catalog.dict, shape, 3 + class % 3, class < 6, cut)
            })
            .find(|q| seen.insert(q.fingerprint()))
            .expect("the join generator has a distinct query left for this class");
        out.push(q);
    }
    shuffle(&mut out, rng);
    out
}

/// Seeded Fisher-Yates shuffle.
fn shuffle<T>(v: &mut [T], rng: &mut SmallRng) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.random_range(0..i + 1));
    }
}

/// The fixed `trade_exec` mix: chain and star joins of 2-3 relations, half
/// of them aggregated, each keeping 1-3% of `r0`. The seed only orders it.
fn exec_mix(catalog: &Catalog, rng: &mut SmallRng) -> Vec<Query> {
    let mut mix: Vec<Query> = [
        (QueryShape::Chain, 2, false, 1),
        (QueryShape::Star, 3, false, 2),
        (QueryShape::Chain, 3, true, 3),
        (QueryShape::Star, 2, true, 1),
        (QueryShape::Chain, 3, false, 2),
        (QueryShape::Star, 3, true, 3),
    ]
    .into_iter()
    .map(|(shape, rels, agg, cut)| gen_join_query_with_cut(&catalog.dict, shape, rels, agg, cut))
    .collect();
    shuffle(&mut mix, rng);
    mix
}

/// Due times for one chunk: every loop is closed, so all arrivals are due
/// at once and admission paces them — at `t = 0`, or after the
/// advertisement lead when brokers must learn the seller digests first.
fn arrivals(workload: Workload, queries: &[Query]) -> Chunk {
    let due = if workload == Workload::Tiered256Closed {
        AD_LEAD_S
    } else {
        0.0
    };
    queries.iter().map(|q| (due, q.clone())).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stream(w: Workload, seed: u64) -> Vec<(u64, u64)> {
        Inputs::build(w, seed)
            .chunks
            .iter()
            .flatten()
            .map(|(t, q)| (t.to_bits(), q.fingerprint()))
            .collect()
    }

    #[test]
    fn same_seed_gives_identical_streams() {
        for w in Workload::ALL {
            assert_eq!(stream(w, 7), stream(w, 7), "{}", w.name());
        }
    }

    #[test]
    fn different_seeds_give_different_streams() {
        for w in Workload::ALL {
            assert_ne!(stream(w, 7), stream(w, 8), "{}", w.name());
        }
    }

    #[test]
    fn join_streams_hold_distinct_queries() {
        for w in [Workload::Flat16Closed, Workload::Tiered256Closed] {
            let s = stream(w, 3);
            let distinct: BTreeSet<u64> = s.iter().map(|&(_, f)| f).collect();
            assert_eq!(distinct.len(), s.len(), "{}", w.name());
        }
    }

    #[test]
    fn semcache_calls_draw_every_arm_equally_and_skip_the_wide_template() {
        let inputs = Inputs::build(Workload::SemcacheClosed, 5);
        let mix = template_mix(&inputs.catalog.dict, 1023, 23);
        let arm: BTreeMap<u64, usize> = mix[1..]
            .iter()
            .enumerate()
            .map(|(i, q)| (q.fingerprint(), i % 4))
            .collect();
        for chunk in &inputs.chunks {
            let mut per_arm = [0; 4];
            for (_, q) in chunk {
                per_arm[arm[&q.fingerprint()]] += 1;
            }
            assert_eq!(per_arm, [32, 31, 31, 31]);
        }
    }

    #[test]
    fn tiered_arrivals_wait_for_the_advertisements() {
        let inputs = Inputs::build(Workload::Tiered256Closed, 11);
        assert!(inputs.chunks.iter().flatten().all(|(t, _)| *t == AD_LEAD_S));
    }
}
