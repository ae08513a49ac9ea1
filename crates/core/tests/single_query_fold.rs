//! Golden pin of the single-query entry points (`run_qt_sim*`,
//! `run_qt_real`).
//!
//! Every case below trades one query and hashes what a caller can observe
//! into one 64-bit FNV-1a digest: the plan `Debug` rendering, the plan cost
//! bits, iterations, messages, byte bits, seller effort, offers considered,
//! and the virtual optimization time bits. The table in
//! `single_query_fold.golden` was generated from these entry points and
//! must keep matching however the runtime underneath them is organised.
//!
//! Real-transport cases measure wall-clock time and may batch differently,
//! so their digest leaves out time, messages and bytes (the same rule as
//! the `real_transport` conformance suite). CI runs this suite under
//! `QT_THREADS=1` and `QT_THREADS=4`.
//!
//! Run with `QT_FOLD_PRINT=1` to print the freshly computed table.

use qt_catalog::{NodeId, RelId};
use qt_core::{
    run_qt_real, run_qt_sim, run_qt_sim_with_discovery, run_qt_sim_with_topology, seller_digest,
    QtConfig, QtOutcome, SellerEngine,
};
use qt_net::{RealConfig, RealTransport, Topology};
use qt_query::{parse_query, PartSet, Query};
use qt_workload::{
    build_federation, gen_join_query, gen_join_query_with_cut, telecom_federation, Federation,
    FederationSpec, QueryShape, TelecomSpec,
};
use std::collections::BTreeMap;

const GOLDEN: &str = include_str!("single_query_fold.golden");
const SEEDS: u64 = 12;

fn spec(nodes: u32, seed: u64) -> FederationSpec {
    FederationSpec {
        nodes,
        relations: 4,
        partitions_per_relation: 2,
        replication: 2,
        rows_per_partition: 100_000,
        scale: 1,
        seed,
        with_data: false,
        speed_spread: 2.0,
        data_skew: 0.0,
    }
}

fn engines(fed: &Federation, cfg: &QtConfig) -> BTreeMap<NodeId, SellerEngine> {
    fed.catalog
        .nodes
        .iter()
        .map(|&n| {
            let mut e = SellerEngine::new(fed.catalog.holdings_of(n), cfg.clone());
            if let Some(r) = fed.resources.get(&n) {
                e.resources = r.clone();
            }
            (n, e)
        })
        .collect()
}

fn query(fed: &Federation, seed: u64) -> Query {
    let shape = if seed.is_multiple_of(2) {
        QueryShape::Chain
    } else {
        QueryShape::Star
    };
    gen_join_query(
        &fed.catalog.dict,
        shape,
        3,
        seed.is_multiple_of(3),
        500 + seed,
    )
}

/// 64-bit FNV-1a.
fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

fn sim_digest(out: &QtOutcome) -> u64 {
    let cost = out.plan.as_ref().map(|p| p.est.additive_cost.to_bits());
    fnv(format!(
        "{:?}|{:?}|{}|{}|{}|{}|{}|{}",
        out.plan,
        cost,
        out.iterations,
        out.messages,
        out.bytes.to_bits(),
        out.seller_effort,
        out.buyer_considered,
        out.optimization_time.to_bits(),
    )
    .as_bytes())
}

fn real_digest(out: &QtOutcome) -> u64 {
    let cost = out.plan.as_ref().map(|p| p.est.additive_cost.to_bits());
    fnv(format!(
        "{:?}|{:?}|{}|{}|{}",
        out.plan, cost, out.iterations, out.seller_effort, out.buyer_considered,
    )
    .as_bytes())
}

/// The trading-loop variants the grid sweeps.
fn variants() -> Vec<(&'static str, QtConfig)> {
    let base = QtConfig::default();
    vec![
        ("default", base.clone()),
        (
            "contracts",
            QtConfig {
                enable_contracts: true,
                ..base.clone()
            },
        ),
        (
            "subcontracting",
            QtConfig {
                enable_subcontracting: true,
                ..base.clone()
            },
        ),
        (
            "discovery",
            QtConfig {
                enable_discovery: true,
                ..base.clone()
            },
        ),
        (
            "discovery+subcontracting",
            QtConfig {
                enable_discovery: true,
                enable_subcontracting: true,
                ..base
            },
        ),
    ]
}

fn grid_cases(table: &mut Vec<(String, u64)>) {
    for nodes in [6u32, 10, 16] {
        for seed in 0..SEEDS {
            let fed = build_federation(&spec(nodes, 40 + seed));
            let q = query(&fed, seed);
            for (label, cfg) in variants() {
                let (out, _) = run_qt_sim(
                    NodeId(0),
                    fed.catalog.dict.clone(),
                    &q,
                    engines(&fed, &cfg),
                    &cfg,
                );
                table.push((format!("sim/{nodes}/{seed}/{label}"), sim_digest(&out)));
            }
        }
    }
}

/// An explicitly passed (stale) catalog: the lowest remote seller
/// advertises nothing, so scoped rounds never reach it.
fn stale_catalog_cases(table: &mut Vec<(String, u64)>) {
    let cfg = QtConfig {
        enable_discovery: true,
        ..QtConfig::default()
    };
    for seed in 0..4u64 {
        let fed = build_federation(&spec(10, 40 + seed));
        let q = query(&fed, seed);
        let sellers = engines(&fed, &cfg);
        let mut ads: BTreeMap<NodeId, u64> = sellers
            .iter()
            .filter(|(&n, _)| n != NodeId(0))
            .map(|(&n, e)| (n, seller_digest(e)))
            .collect();
        ads.insert(NodeId(1), 0);
        let (out, _) = run_qt_sim_with_discovery(
            NodeId(0),
            fed.catalog.dict.clone(),
            &q,
            sellers,
            &cfg,
            Topology::Uniform(cfg.link),
            None,
            Some(ads),
        );
        table.push((format!("stale-ads/10/{seed}"), sim_digest(&out)));
    }
}

/// The offline-seller scenarios of the telecom tests: a seller silent in
/// every round, a sole holder silent, and a seller back after round 0.
fn telecom_offline_cases(table: &mut Vec<(String, u64)>) {
    let (cat, _) = telecom_federation(&TelecomSpec {
        invoice_replicas: 2,
        ..TelecomSpec::default()
    });
    let restricted = parse_query(
        &cat.dict,
        "SELECT office, SUM(charge) FROM customer, invoiceline \
         WHERE customer.custid = invoiceline.custid GROUP BY office",
    )
    .unwrap()
    .with_partset(RelId(0), PartSet::from_indices([2]));
    let corfu = parse_query(
        &cat.dict,
        "SELECT custname FROM customer WHERE office = 'Corfu'",
    )
    .unwrap();
    let join = parse_query(
        &cat.dict,
        "SELECT custname, charge FROM customer, invoiceline \
         WHERE customer.custid = invoiceline.custid AND charge > 150.0",
    )
    .unwrap();
    let cases: Vec<(&str, &Query, Vec<u32>)> = vec![
        ("restricted-offline", &restricted, (0..16).collect()),
        ("sole-holder-offline", &corfu, (0..16).collect()),
        ("back-after-round-0", &join, vec![0]),
    ];
    for (label, q, rounds) in cases {
        let cfg = QtConfig {
            seller_timeout: 2.0,
            ..QtConfig::default()
        };
        let mut sellers: BTreeMap<NodeId, SellerEngine> = cat
            .nodes
            .iter()
            .map(|&n| (n, SellerEngine::new(cat.holdings_of(n), cfg.clone())))
            .collect();
        sellers.get_mut(&NodeId(1)).unwrap().offline_rounds = rounds.into_iter().collect();
        let (out, _) = run_qt_sim(NodeId(0), cat.dict.clone(), q, sellers, &cfg);
        table.push((format!("telecom/{label}"), sim_digest(&out)));
    }
}

/// E14's federation and query under a flat WAN and two-tier regions.
fn topology_cases(table: &mut Vec<(String, u64)>) {
    let fed = build_federation(&FederationSpec {
        nodes: 16,
        relations: 3,
        partitions_per_relation: 2,
        replication: 2,
        rows_per_partition: 100_000,
        scale: 1,
        seed: 1400,
        with_data: false,
        speed_spread: 1.0,
        data_skew: 0.0,
    });
    let q = gen_join_query_with_cut(&fed.catalog.dict, QueryShape::Chain, 3, false, 30);
    let cfg = QtConfig::default();
    let two_tier = |region: u32| {
        Topology::two_tier(region, qt_cost::NetLink::lan(), cfg.link).expect("region size")
    };
    let topologies = [
        ("uniform", Topology::Uniform(cfg.link)),
        ("two-tier-4", two_tier(4)),
        ("two-tier-16", two_tier(16)),
    ];
    for (label, topo) in topologies {
        let sellers: BTreeMap<NodeId, SellerEngine> = fed
            .catalog
            .nodes
            .iter()
            .map(|&n| {
                (
                    n,
                    SellerEngine::new(fed.catalog.holdings_of(n), cfg.clone()),
                )
            })
            .collect();
        let (out, _) =
            run_qt_sim_with_topology(NodeId(0), fed.catalog.dict.clone(), &q, sellers, &cfg, topo);
        table.push((format!("e14/{label}"), sim_digest(&out)));
    }
}

fn real_cases(table: &mut Vec<(String, u64)>) {
    let transports = [
        ("threads", RealTransport::Threads),
        ("tcp", RealTransport::Tcp),
    ];
    for nodes in [6u32, 10] {
        for seed in 0..3u64 {
            let fed = build_federation(&spec(nodes, 40 + seed));
            let q = query(&fed, seed);
            // The contract phase holds wall-clock leases (tens of seconds
            // at the default intervals), so it stays on the simulator.
            for (label, cfg) in variants().into_iter().filter(|v| v.0 != "contracts") {
                for (tname, transport) in transports {
                    if transport == RealTransport::Tcp && (seed > 0 || label != "default") {
                        continue;
                    }
                    let real = RealConfig {
                        transport,
                        ..RealConfig::default()
                    };
                    let (out, _) = run_qt_real(
                        NodeId(0),
                        fed.catalog.dict.clone(),
                        &q,
                        engines(&fed, &cfg),
                        &cfg,
                        real,
                    );
                    table.push((
                        format!("real-{tname}/{nodes}/{seed}/{label}"),
                        real_digest(&out),
                    ));
                }
            }
        }
    }
}

fn check(table: Vec<(String, u64)>, prefix: &str) {
    let rendered: Vec<String> = table
        .iter()
        .map(|(case, d)| format!("{case} {d:016x}"))
        .collect();
    if std::env::var_os("QT_FOLD_PRINT").is_some() {
        println!("\n{}", rendered.join("\n"));
    }
    let golden: BTreeMap<&str, &str> = GOLDEN
        .lines()
        .filter_map(|l| l.split_once(' '))
        .filter(|(case, _)| case.starts_with(prefix))
        .collect();
    let mut diffs = Vec::new();
    for (case, d) in &table {
        let want = golden.get(case.as_str()).copied().unwrap_or("<missing>");
        if want != format!("{d:016x}") {
            diffs.push(format!("{case}: golden {want}, now {d:016x}"));
        }
    }
    assert_eq!(golden.len(), table.len(), "golden cases for {prefix}");
    assert!(diffs.is_empty(), "digests moved:\n{}", diffs.join("\n"));
}

#[test]
fn simulator_grid_matches_golden() {
    let mut table = Vec::new();
    grid_cases(&mut table);
    check(table, "sim/");
}

#[test]
fn stale_catalog_matches_golden() {
    let mut table = Vec::new();
    stale_catalog_cases(&mut table);
    check(table, "stale-ads/");
}

#[test]
fn telecom_offline_sellers_match_golden() {
    let mut table = Vec::new();
    telecom_offline_cases(&mut table);
    check(table, "telecom/");
}

#[test]
fn two_tier_topologies_match_golden() {
    let mut table = Vec::new();
    topology_cases(&mut table);
    check(table, "e14/");
}

#[test]
fn real_transport_matches_golden() {
    let mut table = Vec::new();
    real_cases(&mut table);
    check(table, "real-");
}
