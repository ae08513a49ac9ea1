//! Serving sellers honour `SellerEngine::offline_rounds`: an autonomous
//! node sitting out a round leaves every in-flight session's RFB entry for
//! that round unanswered, on every runtime.

use qt_catalog::{NodeId, RelId};
use qt_core::{run_qt_serve, run_qt_sim, QtConfig, SellerEngine, ServeConfig};
use qt_query::{parse_query, PartSet, Query};
use qt_workload::{telecom_federation, TelecomSpec};
use std::collections::BTreeMap;

/// Several concurrent sessions over a market where one seller sits out
/// round 0: every session's deadline fires, the round degrades, and each
/// session still ends with exactly the plan its query gets when served
/// alone.
#[test]
fn concurrent_sessions_wait_out_an_offline_seller() {
    let (cat, _) = telecom_federation(&TelecomSpec {
        invoice_replicas: 2,
        ..TelecomSpec::default()
    });
    let cfg = QtConfig {
        seller_timeout: 2.0,
        ..QtConfig::default()
    };
    let sellers = || {
        let mut sellers: BTreeMap<NodeId, SellerEngine> = cat
            .nodes
            .iter()
            .map(|&n| (n, SellerEngine::new(cat.holdings_of(n), cfg.clone())))
            .collect();
        sellers.get_mut(&NodeId(1)).unwrap().offline_rounds = [0u32].into_iter().collect();
        sellers
    };
    // Customer extents the offline Corfu office (node 1) does not hold, so
    // the degraded round 0 still covers them; node 1's invoiceline replica
    // rejoins the market from round 1.
    let queries: Vec<Query> = [
        (
            "SELECT custname, charge FROM customer, invoiceline \
             WHERE customer.custid = invoiceline.custid AND charge > 150.0",
            vec![0, 2],
        ),
        (
            "SELECT office, SUM(charge) FROM customer, invoiceline \
             WHERE customer.custid = invoiceline.custid GROUP BY office",
            vec![2],
        ),
        ("SELECT custname FROM customer", vec![0]),
    ]
    .into_iter()
    .map(|(sql, parts)| {
        parse_query(&cat.dict, sql)
            .unwrap()
            .with_partset(RelId(0), PartSet::from_indices(parts))
    })
    .collect();
    let arrivals: Vec<(f64, Query)> = queries.iter().map(|q| (0.0, q.clone())).collect();
    let out = run_qt_serve(
        NodeId(0),
        cat.dict.clone(),
        arrivals,
        sellers(),
        &cfg,
        &ServeConfig {
            concurrency: queries.len(),
            ..ServeConfig::default()
        },
    );
    assert_eq!(out.reports.len(), queries.len());
    // Every session waits out its round-0 deadline (and its retries).
    assert!(
        out.metrics.timeouts >= queries.len() as u64,
        "{:?}",
        out.metrics
    );
    assert!(out.metrics.degraded_rounds >= queries.len() as u64);
    assert!(out.reports.iter().all(|r| r.finished >= cfg.seller_timeout));
    assert!(out.reports.iter().all(|r| r.plan.is_some()));
    for (r, q) in out.reports.iter().zip(&queries) {
        let (alone, _) = run_qt_sim(NodeId(0), cat.dict.clone(), q, sellers(), &cfg);
        assert_eq!(
            format!("{:?}", r.plan),
            format!("{:?}", alone.plan),
            "session {:?} diverged from its single-arrival run",
            r.session
        );
        assert_eq!(r.iterations, alone.iterations);
    }
}
