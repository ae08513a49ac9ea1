//! The timed pass: serving calls on the threads runtime (plus columnar
//! execution on `trade_exec`), each checked against an oracle outside the
//! timed region.

use crate::host;
use crate::inputs::{Inputs, Workload, BUYER, CLIENTS, EXEC_MEM_BUDGET, FANOUT};
use qt_core::{
    new_result_cache, run_qt_direct, run_qt_serve, run_qt_serve_real, DistributedPlan,
    HierarchyConfig, QtConfig, ServeConfig, ServeOutcome, SessionReport,
};
use qt_exec::{ColExecStats, ColumnarConfig, Table};
use qt_net::{RealConfig, RealTransport};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::time::Instant;

/// A plan's identity: its cost bits plus every purchase's seller and offer
/// id, in slot order.
pub type PlanKey = (u64, Vec<(u32, u64)>);

pub fn plan_key(p: &DistributedPlan) -> PlanKey {
    (
        p.est.additive_cost.to_bits(),
        p.purchases
            .iter()
            .map(|x| (x.offer.seller.0, x.offer.id))
            .collect(),
    )
}

/// The serving configuration of a workload. The result cache is fresh per
/// call and unbounded, as shipped.
pub fn serve_config(w: Workload) -> ServeConfig {
    ServeConfig {
        concurrency: CLIENTS,
        result_cache: (w == Workload::SemcacheClosed).then(|| new_result_cache(0)),
        hierarchy: (w == Workload::Tiered256Closed).then(|| HierarchyConfig {
            fanout: FANOUT,
            ..HierarchyConfig::default()
        }),
        ..ServeConfig::default()
    }
}

pub fn exec_config() -> ColumnarConfig {
    ColumnarConfig {
        mem_budget_bytes: EXEC_MEM_BUDGET,
        ..ColumnarConfig::default()
    }
}

/// Expected outputs, computed outside the timed region.
pub struct Oracle {
    /// Per chunk and session: the simulator's plan (`flat16_closed`,
    /// `tiered256_closed`).
    plans: Vec<Vec<Option<PlanKey>>>,
    /// Row-executor results per purchased plan (`trade_exec`).
    exec_rows: HashMap<PlanKey, Option<Table>>,
    /// Rows of a cache-free `run_qt_direct` plan per query (`semcache_closed`).
    direct_rows: HashMap<u64, Table>,
    rng: SmallRng,
}

impl Oracle {
    /// Run the simulator on every chunk of the join workloads: a session's
    /// plan is a pure function of its query, so the threads runtime must
    /// purchase exactly the same offers.
    pub fn new(inputs: &Inputs, seed: u64) -> Oracle {
        let w = inputs.workload;
        let plans = if matches!(w, Workload::Flat16Closed | Workload::Tiered256Closed) {
            inputs
                .chunks
                .iter()
                .map(|chunk| {
                    run_qt_serve(
                        BUYER,
                        inputs.catalog.dict.clone(),
                        chunk.clone(),
                        inputs.sellers(),
                        &inputs.config,
                        &serve_config(w),
                    )
                    .reports
                    .iter()
                    .map(|r| r.plan.as_ref().map(plan_key))
                    .collect()
                })
                .collect()
        } else {
            Vec::new()
        };
        Oracle {
            plans,
            exec_rows: HashMap::new(),
            direct_rows: HashMap::new(),
            rng: SmallRng::seed_from_u64(seed ^ 0x0c4e_c000),
        }
    }
}

/// Aggregates of the timed pass.
#[derive(Default)]
pub struct Measure {
    pub calls: usize,
    pub attempted: u64,
    pub failed: u64,
    /// Wall seconds inside timed calls (serving makespan plus execution),
    /// scaled to the nominal host speed call by call.
    pub busy_s: f64,
    /// The same, unscaled.
    pub raw_busy_s: f64,
    /// Latencies of checked sessions, as the workload defines them, scaled
    /// like `busy_s`.
    pub latencies_ms: Vec<f64>,
    /// The same, unscaled.
    pub raw_latencies_ms: Vec<f64>,
    pub messages: u64,
    pub cost_sum: f64,
    pub cost_n: u64,
    // Serving-layer counters for the traced pass.
    pub serving_ms: Vec<f64>,
    pub queue_wait_ms: Vec<f64>,
    pub trade_ms: Vec<f64>,
    pub rfb_msgs: u64,
    pub offers_msgs: u64,
    pub backpressure: u64,
    pub shed: u64,
    pub retries: u64,
    pub timeouts: u64,
    pub region_fallbacks: u64,
    pub scan_rows: u64,
    pub exec_s: f64,
    /// Wall seconds spent checking results (outside the timed calls).
    pub check_s: f64,
    /// Checked sessions answered from the result cache without trading.
    pub cache_answered: u64,
}

impl Measure {
    pub fn completed(&self) -> u64 {
        self.attempted - self.failed
    }
}

/// What one timed call produced.
struct Call {
    out: ServeOutcome,
    /// Per session: columnar result, stats, and wall seconds (`trade_exec`).
    exec: Vec<Option<(Table, ColExecStats, f64)>>,
}

fn call(inputs: &Inputs, chunk: usize) -> Call {
    let w = inputs.workload;
    let out = run_qt_serve_real(
        BUYER,
        inputs.catalog.dict.clone(),
        inputs.chunks[chunk].clone(),
        inputs.sellers(),
        &inputs.config,
        &serve_config(w),
        RealConfig {
            transport: RealTransport::Threads,
            ..RealConfig::default()
        },
    );
    let mut exec = Vec::new();
    if w == Workload::TradeExec {
        let cfg = exec_config();
        for r in &out.reports {
            exec.push(r.plan.as_ref().and_then(|p| {
                let t0 = Instant::now();
                let res = p.execute_columnar_on(&inputs.catalog.dict, &inputs.stores, &cfg);
                let secs = t0.elapsed().as_secs_f64();
                res.ok().map(|(rows, stats)| (rows, stats, secs))
            }));
        }
    }
    Call { out, exec }
}

/// Serve the stream chunk by chunk until `seconds` of timed calls have
/// elapsed, checking every call before the next one starts. A host speed
/// probe runs between calls; each call's times are scaled by the probes on
/// either side of it.
pub fn measure(inputs: &Inputs, oracle: &mut Oracle, seconds: f64) -> Measure {
    let w = inputs.workload;
    let mut m = Measure::default();
    // One untimed call first, so thread and allocator start-up that every
    // later call skips is not charged to the first sample.
    call(inputs, 0);
    let mut probe = host::probe_ms();
    while m.raw_busy_s < seconds {
        let c = m.calls % inputs.chunks.len();
        let call = call(inputs, c);
        let before = std::mem::replace(&mut probe, host::probe_ms());
        let scale = host::scale(before, probe);
        m.calls += 1;
        m.raw_busy_s += call.out.makespan;
        m.busy_s += call.out.makespan * scale;
        m.messages += call.out.messages;
        let metrics = &call.out.metrics;
        m.rfb_msgs += metrics.kind_count("rfb");
        m.offers_msgs += metrics.kind_count("offers") + metrics.kind_count("agg-offers");
        m.backpressure += metrics.send_backpressure;
        m.shed += call.out.shed_sessions;
        m.retries += metrics.retries;
        m.timeouts += metrics.timeouts;
        m.region_fallbacks += call.out.region_fallbacks;
        for (i, r) in call.out.reports.iter().enumerate() {
            m.attempted += 1;
            let exec = call.exec.get(i).and_then(Option::as_ref);
            let exec_s = exec.map_or(0.0, |e| e.2);
            m.raw_busy_s += exec_s;
            m.busy_s += exec_s * scale;
            let t_check = Instant::now();
            let ok = check(inputs, oracle, c, i, r, exec);
            m.check_s += t_check.elapsed().as_secs_f64();
            if !ok {
                m.failed += 1;
                continue;
            }
            let plan = r.plan.as_ref().expect("checked sessions hold a plan");
            m.cost_sum += plan.est.additive_cost;
            m.cost_n += 1;
            // A closed-loop client waits from admission to plan (and, on
            // `trade_exec`, through the plan's execution).
            let trade_ms = (r.finished - r.started) * 1e3;
            let lat = trade_ms + exec_s * 1e3;
            m.serving_ms.push(lat);
            m.queue_wait_ms.push((r.started - r.arrived) * 1e3);
            m.trade_ms.push(trade_ms);
            // Cache-answered sessions finish inside admission, so their
            // latency is two clock reads apart; percentiles cover the
            // sessions that trade.
            if r.iterations == 0 {
                m.cache_answered += 1;
            }
            if w != Workload::SemcacheClosed || r.iterations > 0 {
                m.latencies_ms.push(lat * scale);
                m.raw_latencies_ms.push(lat);
            }
            if let Some((_, stats, secs)) = exec {
                m.exec_s += secs;
                m.scan_rows += stats
                    .timings
                    .iter()
                    .filter(|t| t.op == "Scan")
                    .map(|t| t.rows_in)
                    .sum::<u64>();
            }
        }
    }
    m
}

/// Check one session against the oracle.
fn check(
    inputs: &Inputs,
    oracle: &mut Oracle,
    chunk: usize,
    session: usize,
    r: &SessionReport,
    exec: Option<&(Table, ColExecStats, f64)>,
) -> bool {
    let Some(plan) = r.plan.as_ref() else {
        return false;
    };
    let dict = &inputs.catalog.dict;
    match inputs.workload {
        Workload::Flat16Closed | Workload::Tiered256Closed => {
            oracle.plans[chunk][session].as_ref() == Some(&plan_key(plan))
        }
        Workload::TradeExec => {
            let Some((rows, _, _)) = exec else {
                return false;
            };
            let want = oracle
                .exec_rows
                .entry(plan_key(plan))
                .or_insert_with(|| plan.execute_on(dict, &inputs.stores).ok());
            want.as_ref() == Some(rows)
        }
        Workload::SemcacheClosed => {
            // A seeded sample of the cache-answered sessions (about one in
            // twenty) executes on the row executor against a plan traded
            // with every cache off.
            if r.iterations > 0 || oracle.rng.random_range(0..20) != 0 {
                return true;
            }
            let key = plan.query.fingerprint();
            let want = oracle.direct_rows.entry(key).or_insert_with(|| {
                let cold = QtConfig {
                    enable_semantic_cache: false,
                    ..inputs.config.clone()
                };
                let mut sellers = inputs.sellers_with(&cold);
                run_qt_direct(BUYER, dict.clone(), &plan.query, &mut sellers, &cold)
                    .plan
                    .and_then(|p| p.execute_on(dict, &inputs.stores).ok())
                    .unwrap_or_default()
            });
            match plan.execute_on(dict, &inputs.stores) {
                Ok(got) => qt_exec::reference::approx_same_rows(&got, want, 1e-9),
                Err(_) => false,
            }
        }
    }
}
