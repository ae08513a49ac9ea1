//! The traced pass: an in-process replay of a workload's first chunk
//! through the public calls of each layer, in the serving loop's order —
//! result-cache probe, `BuyerEngine::start`, broker scoping, RFB encode and
//! decode, `SellerEngine::respond_batch`, offer encode and decode, broker
//! aggregation, `receive_offers`, `close_round`, awards, result-cache
//! insert, and columnar execution. Sessions run one at a time, so a span's
//! self time is that layer's work with nothing else in flight.
//!
//! Spans (name, start, end, parent, session) stay in memory and are written
//! to `.perfbench_out/` when the run ends.

use crate::inputs::{Inputs, Workload, BUYER, FANOUT};
use crate::report::Metric;
use crate::serve::{exec_config, Measure};
use qt_catalog::NodeId;
use qt_core::{
    compensate_plan, prune_offers, query_digest, remote_awards, seller_digest, session_req,
    BrokerTree, BuyerEngine, DistributedPlan, Offer, SellerEngine, ServeMsg, SessionRfb,
};
use qt_query::Query;
use qt_trade::semcache::{Probe, ProbeOutcome, SemCache};
use qt_trade::wire::Wire;
use qt_trade::SessionId;
use std::collections::BTreeMap;
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

/// Minimum wall seconds of the untraced replay; the traced replay repeats
/// the chunk the same number of times.
const MIN_REPLAY_S: f64 = 2.0;

/// One recorded call.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    session: u64,
}

/// In-memory span recorder; with `on == false` it only runs the calls.
struct Tracer {
    on: bool,
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    session: u64,
}

impl Tracer {
    fn new(on: bool) -> Tracer {
        Tracer {
            on,
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            session: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    fn enter(&mut self, name: &'static str) {
        if !self.on {
            return;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            session: self.session,
        });
        self.open.push(self.spans.len() - 1);
    }

    fn exit(&mut self) {
        if !self.on {
            return;
        }
        let end = self.now_ns();
        let i = self.open.pop().expect("exit matches an enter");
        self.spans[i].end_ns = end;
    }

    fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.enter(name);
        let r = f();
        self.exit();
        r
    }

    /// Self nanoseconds per span name: duration minus the children's.
    fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        let mut out = BTreeMap::new();
        for (s, c) in self.spans.iter().zip(child_ns) {
            *out.entry(s.name).or_insert(0) += (s.end_ns - s.start_ns).saturating_sub(c);
        }
        out
    }

    fn write(&self, path: &std::path::Path, header: &str) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut f = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(f, "# {header}")?;
        writeln!(f, "id\tname\tstart_ns\tend_ns\tparent\tsession")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("-".to_string(), |p| p.to_string());
            writeln!(
                f,
                "{i}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.session
            )?;
        }
        f.flush()
    }
}

/// Counts gathered at the layer boundaries.
#[derive(Default)]
struct Counts {
    queries: u64,
    traded: u64,
    rounds: u64,
    effort: u64,
    offers: u64,
    considered: u64,
    wire_bytes: u64,
    scoped_rounds: u64,
    reached: u64,
    offer_cache_hits: u64,
    offer_cache_probes: u64,
    offer_cache_semantic: u64,
    result_cache_hits: u64,
    result_cache_probes: u64,
    result_cache_entries: u64,
    scan_ns: u64,
    join_ns: u64,
    agg_ns: u64,
    spill_bytes: u64,
    spill_files: u64,
}

/// The broker tree as the replay walks it: advertised digests per node.
struct Tree {
    root: Vec<NodeId>,
    children: BTreeMap<NodeId, Vec<NodeId>>,
    digest: BTreeMap<NodeId, u64>,
}

impl Tree {
    fn new(sellers: &BTreeMap<NodeId, SellerEngine>) -> Tree {
        let remote: Vec<NodeId> = sellers.keys().copied().filter(|&n| n != BUYER).collect();
        let first = remote.iter().map(|n| n.0).max().unwrap_or(0) + 1;
        let bt = BrokerTree::build(&remote, FANOUT, first);
        let mut digest: BTreeMap<NodeId, u64> = remote
            .iter()
            .map(|n| (*n, seller_digest(&sellers[n])))
            .collect();
        // Lowest level first, so every child's digest is known in time.
        for b in &bt.brokers {
            let d = b.children.iter().fold(0, |d, c| d | digest[c]);
            digest.insert(b.node, d);
        }
        Tree {
            root: bt.root_children,
            children: bt
                .brokers
                .into_iter()
                .map(|b| (b.node, b.children))
                .collect(),
            digest,
        }
    }

    /// The sellers under `nodes` whose advertised digest meets `want`.
    fn scope(&self, nodes: &[NodeId], want: u64, out: &mut Vec<NodeId>) {
        for n in nodes {
            if self.digest[n] & want == 0 {
                continue;
            }
            match self.children.get(n) {
                Some(kids) => self.scope(kids, want, out),
                None => out.push(*n),
            }
        }
    }

    /// A broker's aggregated answer: its reached children's offers, pruned
    /// losslessly into the deterministic order brokers forward.
    fn aggregate(&self, node: NodeId, replies: &mut BTreeMap<NodeId, Vec<Offer>>) -> Vec<Offer> {
        match self.children.get(&node) {
            None => replies.remove(&node).unwrap_or_default(),
            Some(kids) => {
                let all: Vec<Offer> = kids
                    .iter()
                    .flat_map(|&k| self.aggregate(k, replies))
                    .collect();
                prune_offers(all, 0)
            }
        }
    }
}

struct Replayer<'a> {
    inputs: &'a Inputs,
    sellers: BTreeMap<NodeId, SellerEngine>,
    tree: Option<Tree>,
    cache: Option<SemCache<DistributedPlan>>,
    tr: Tracer,
    c: Counts,
}

impl<'a> Replayer<'a> {
    fn new(inputs: &'a Inputs, trace: bool) -> Replayer<'a> {
        Replayer {
            inputs,
            sellers: BTreeMap::new(),
            tree: None,
            cache: None,
            tr: Tracer::new(trace),
            c: Counts::default(),
        }
    }

    /// Replay every query of the first chunk once, with fresh engines and
    /// caches, as one serving call would start.
    fn chunk(&mut self) {
        let w = self.inputs.workload;
        self.sellers = self.inputs.sellers();
        self.tree = (w == Workload::Tiered256Closed).then(|| Tree::new(&self.sellers));
        self.cache = (w == Workload::SemcacheClosed).then(|| SemCache::new(0));
        for (i, (_, q)) in self.inputs.chunks[0].iter().enumerate() {
            self.tr.session = i as u64;
            self.tr.enter("session");
            self.query(SessionId(i as u64), q);
            self.tr.exit();
        }
        for e in self.sellers.values() {
            let s = e.cache_stats();
            self.c.offer_cache_hits += s.hits();
            self.c.offer_cache_probes += s.probes();
            self.c.offer_cache_semantic += s.hits_semantic;
        }
        if let Some(cache) = &self.cache {
            let s = cache.stats();
            self.c.result_cache_hits += s.hits();
            self.c.result_cache_probes += s.probes();
            self.c.result_cache_entries += cache.len() as u64;
        }
    }

    fn query(&mut self, s: SessionId, q: &Query) {
        self.c.queries += 1;
        if self.probe(q).is_some() {
            return;
        }
        let Some((plan, iterations)) = self.trade(s, q) else {
            return;
        };
        if let Some(cache) = self.cache.as_mut() {
            let remote = self.sellers.len().saturating_sub(1).max(1) as f64;
            let adapts = self.inputs.config.seller_strategy.adapts();
            self.tr.span("result_cache.insert", || {
                if adapts {
                    cache.invalidate_rels(&plan.query.rel_ids().collect());
                }
                cache.insert(
                    plan.query.fingerprint(),
                    plan.query.clone(),
                    plan.clone(),
                    iterations as f64 * remote,
                );
            });
        }
        if self.inputs.workload == Workload::TradeExec {
            let (inputs, cfg) = (self.inputs, exec_config());
            let res = self.tr.span("exec.columnar", || {
                plan.execute_columnar_on(&inputs.catalog.dict, &inputs.stores, &cfg)
            });
            if let Ok((_, stats)) = res {
                for t in &stats.timings {
                    let ns = (t.secs * 1e9) as u64;
                    match t.op {
                        "Scan" => self.c.scan_ns += ns,
                        "HashJoinBuild" | "HashJoinProbe" => self.c.join_ns += ns,
                        "HashAggregate" => self.c.agg_ns += ns,
                        _ => {}
                    }
                }
                self.c.spill_bytes += stats.spill_bytes;
                self.c.spill_files += stats.spill_files;
            }
        }
    }

    /// The serving layer's result-cache admission: exact hit, or a
    /// semantic hit compensated and re-inserted under the query's own key.
    fn probe(&mut self, q: &Query) -> Option<DistributedPlan> {
        let cache = self.cache.as_mut()?;
        let key = q.fingerprint();
        let found = self
            .tr
            .span("result_cache.probe", || match cache.probe(key, q, true) {
                Probe::Exact => cache
                    .get(key)
                    .map(|e| (e.value.clone(), ProbeOutcome::HitExact)),
                Probe::Semantic(cands) => cands.iter().find_map(|(k, m)| {
                    let e = cache.get(*k)?;
                    compensate_plan(&e.value, q, m).map(|p| (p, ProbeOutcome::HitSemantic))
                }),
                Probe::Miss => None,
            });
        match found {
            Some((plan, outcome)) => {
                cache.record(outcome);
                if outcome == ProbeOutcome::HitSemantic {
                    self.tr.span("result_cache.insert", || {
                        cache.insert(key, q.clone(), plan.clone(), 0.0)
                    });
                }
                Some(plan)
            }
            None => {
                cache.record(ProbeOutcome::Miss);
                None
            }
        }
    }

    /// One session's trading rounds, then its award notices. Returns the
    /// plan and the rounds it took.
    fn trade(&mut self, s: SessionId, q: &Query) -> Option<(DistributedPlan, u32)> {
        self.c.traded += 1;
        let (inputs, sellers) = (self.inputs, &mut self.sellers);
        let (mut engine, mut items) = self.tr.span("buyer.start", || {
            let mut e = BuyerEngine::new(
                BUYER,
                inputs.catalog.dict.clone(),
                q.clone(),
                inputs.config.clone(),
            );
            let items = e.start();
            (e, items)
        });
        loop {
            self.c.rounds += 1;
            let round = engine.round;
            let entry = SessionRfb {
                session: s,
                req: session_req(s, round),
                round,
                items: Arc::new(items),
                hints: Arc::new(Vec::new()),
                priority: 0,
            };
            // The buyer's own holdings answer first, without the network.
            if let Some(local) = sellers.get_mut(&BUYER) {
                let resp = self.tr.span("seller.respond", || {
                    local.respond_batch(std::slice::from_ref(&entry))
                });
                for r in resp {
                    self.c.effort += r.effort;
                    self.c.offers += r.offers.len() as u64;
                    self.tr
                        .span("buyer.receive", || engine.receive_offers(r.offers));
                }
            }
            let recipients: Vec<NodeId> = match &self.tree {
                Some(tree) => {
                    let items = &entry.items;
                    let out = self.tr.span("broker.scope", || {
                        let want = items.iter().fold(0, |d, it| d | query_digest(&it.query));
                        let mut out = Vec::new();
                        tree.scope(&tree.root, want, &mut out);
                        out
                    });
                    self.c.scoped_rounds += 1;
                    self.c.reached += out.len() as u64;
                    out
                }
                None => sellers.keys().copied().filter(|&n| n != BUYER).collect(),
            };
            let mut replies: BTreeMap<NodeId, Vec<Offer>> = BTreeMap::new();
            for node in recipients {
                let rfb = ServeMsg::Rfb {
                    entries: vec![entry.clone()],
                };
                let bytes = self.tr.span("wire.encode", || rfb.encode());
                let ServeMsg::Rfb { entries } = self
                    .tr
                    .span("wire.decode", || ServeMsg::decode(&bytes))
                    .ok()?
                else {
                    return None;
                };
                let seller = sellers.get_mut(&node)?;
                let resp = self
                    .tr
                    .span("seller.respond", || seller.respond_batch(&entries));
                self.c.wire_bytes += bytes.len() as u64;
                let replies_msg = ServeMsg::Offers {
                    replies: entries
                        .iter()
                        .zip(resp)
                        .map(|(e, r)| {
                            self.c.effort += r.effort;
                            self.c.offers += r.offers.len() as u64;
                            (e.session, e.round, r.offers)
                        })
                        .collect(),
                };
                let bytes = self.tr.span("wire.encode", || replies_msg.encode());
                let ServeMsg::Offers { replies: got } = self
                    .tr
                    .span("wire.decode", || ServeMsg::decode(&bytes))
                    .ok()?
                else {
                    return None;
                };
                self.c.wire_bytes += bytes.len() as u64;
                replies.insert(node, got.into_iter().flat_map(|(_, _, o)| o).collect());
            }
            let per_child: Vec<Vec<Offer>> = match &self.tree {
                Some(tree) => self.tr.span("broker.aggregate", || {
                    tree.root
                        .iter()
                        .map(|&c| tree.aggregate(c, &mut replies))
                        .collect()
                }),
                None => replies.into_values().collect(),
            };
            self.tr.span("buyer.receive", || {
                for offers in per_child {
                    engine.receive_offers(offers);
                }
            });
            match self.tr.span("buyer.close_round", || engine.close_round()) {
                qt_core::buyer::RoundOutcome::Continue(next) => items = next,
                qt_core::buyer::RoundOutcome::Done => break,
            }
        }
        self.c.considered += engine.total_considered();
        let iterations = engine.round + 1;
        let plan = engine.best?;
        for (_, node, offer) in remote_awards(&plan, BUYER) {
            if let Some(e) = sellers.get_mut(&node) {
                self.tr.span("seller.award", || {
                    e.observe_award_for_offer(true, offer);
                    e.forget_session(s);
                });
            }
        }
        if let Some(local) = sellers.get_mut(&BUYER) {
            local.forget_session(s);
        }
        Some((plan, iterations))
    }
}

/// Replay the first chunk untraced and traced in alternation, after one
/// untimed warm-up chunk and swapping which side goes first every
/// repetition, until the untraced side has run [`MIN_REPLAY_S`]; returns
/// the traced replayer, both wall times, and the repetitions.
fn replay(inputs: &Inputs) -> (Replayer<'_>, f64, f64, usize) {
    Replayer::new(inputs, false).chunk();
    let mut plain = Replayer::new(inputs, false);
    let mut traced = Replayer::new(inputs, true);
    let (mut plain_s, mut traced_s, mut reps) = (0.0, 0.0, 0);
    while plain_s < MIN_REPLAY_S {
        for side in [reps % 2, 1 - reps % 2] {
            let (r, wall) = if side == 0 {
                (&mut plain, &mut plain_s)
            } else {
                (&mut traced, &mut traced_s)
            };
            let t0 = Instant::now();
            r.chunk();
            *wall += t0.elapsed().as_secs_f64();
        }
        reps += 1;
    }
    (traced, plain_s, traced_s, reps)
}

/// Per-layer metrics: the replay's self times and counts, the serving
/// pass's transport and session counters, and the reconciliation of the
/// two.
pub fn run(inputs: &Inputs, m: &Measure, fingerprint: &str, seed: u64) -> Vec<Metric> {
    let (r, plain_s, traced_s, reps) = replay(inputs);
    let path = std::path::Path::new(".perfbench_out")
        .join(format!("{}-seed{seed}.spans.tsv", inputs.workload.name()));
    if let Err(e) = r.tr.write(&path, fingerprint) {
        eprintln!("qt-perfbench: writing {}: {e}", path.display());
    }
    let self_ns = r.tr.self_ns();
    let c = &r.c;
    let q = c.queries.max(1) as f64;
    let ms = |names: &[&str]| -> f64 {
        names
            .iter()
            .map(|n| self_ns.get(n).copied().unwrap_or(0))
            .sum::<u64>() as f64
            / 1e6
            / q
    };
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let mean = |xs: &[f64]| {
        if xs.is_empty() {
            0.0
        } else {
            xs.iter().sum::<f64>() / xs.len() as f64
        }
    };
    let layer_names: Vec<&str> = self_ns
        .keys()
        .copied()
        .filter(|n| *n != "session")
        .collect();
    let layer_sum = ms(&layer_names);
    let serving = mean(&m.serving_ms);
    let residual = serving - layer_sum;
    let sessions = m.attempted.max(1) as f64;
    let remote = inputs.catalog.nodes.len().saturating_sub(1).max(1) as f64;
    let n = c.queries as usize;
    let metric = |name, value, unit| Metric {
        name,
        value,
        unit,
        samples: n,
    };
    vec![
        metric("seller.respond_ms", ms(&["seller.respond"]), "ms"),
        metric("seller.award_ms", ms(&["seller.award"]), "ms"),
        metric("seller.effort", c.effort as f64 / q, "count"),
        metric("seller.offers", c.offers as f64 / q, "count"),
        metric(
            "offer_cache.hit_rate",
            ratio(c.offer_cache_hits, c.offer_cache_probes),
            "ratio",
        ),
        metric(
            "offer_cache.semantic_hits",
            c.offer_cache_semantic as f64 / q,
            "count",
        ),
        metric("result_cache.probe_ms", ms(&["result_cache.probe"]), "ms"),
        metric("result_cache.insert_ms", ms(&["result_cache.insert"]), "ms"),
        metric(
            "result_cache.hit_rate",
            ratio(c.result_cache_hits, c.result_cache_probes),
            "ratio",
        ),
        metric(
            "result_cache.entries",
            c.result_cache_entries as f64 / reps as f64,
            "count",
        ),
        metric("buyer.start_ms", ms(&["buyer.start"]), "ms"),
        metric("buyer.receive_ms", ms(&["buyer.receive"]), "ms"),
        metric("buyer.close_round_ms", ms(&["buyer.close_round"]), "ms"),
        metric("buyer.considered", c.considered as f64 / q, "count"),
        metric("session.iterations", ratio(c.rounds, c.traded), "count"),
        metric("wire.encode_ms", ms(&["wire.encode"]), "ms"),
        metric("wire.decode_ms", ms(&["wire.decode"]), "ms"),
        metric("wire.bytes", c.wire_bytes as f64 / q, "B"),
        metric("transport.msgs.rfb", m.rfb_msgs as f64 / sessions, "count"),
        metric(
            "transport.msgs.offers",
            m.offers_msgs as f64 / sessions,
            "count",
        ),
        metric("transport.backpressure", m.backpressure as f64, "count"),
        metric("transport.residual_ms", residual, "ms"),
        metric("broker.scope_ms", ms(&["broker.scope"]), "ms"),
        metric("broker.aggregate_ms", ms(&["broker.aggregate"]), "ms"),
        metric(
            "broker.reach_frac",
            ratio(c.reached, c.scoped_rounds) / remote,
            "ratio",
        ),
        metric(
            "broker.region_fallbacks",
            m.region_fallbacks as f64,
            "count",
        ),
        metric("session.queue_wait_ms", mean(&m.queue_wait_ms), "ms"),
        metric("session.trade_ms", mean(&m.trade_ms), "ms"),
        metric("session.shed", m.shed as f64, "count"),
        metric("session.retries", m.retries as f64, "count"),
        metric("session.timeouts", m.timeouts as f64, "count"),
        metric("exec.columnar_ms", ms(&["exec.columnar"]), "ms"),
        metric("exec.scan_ms", c.scan_ns as f64 / 1e6 / q, "ms"),
        metric("exec.join_ms", c.join_ns as f64 / 1e6 / q, "ms"),
        metric("exec.aggregate_ms", c.agg_ns as f64 / 1e6 / q, "ms"),
        metric("exec.spill_bytes", c.spill_bytes as f64 / q, "B"),
        metric("exec.spill_files", c.spill_files as f64 / q, "count"),
        metric(
            "exec.rows_per_s",
            if m.exec_s > 0.0 {
                m.scan_rows as f64 / m.exec_s
            } else {
                0.0
            },
            "rows/s",
        ),
        metric("trace.serving_ms", serving, "ms"),
        metric("trace.layer_sum_ms", layer_sum, "ms"),
        metric(
            "trace.unattributed_share",
            if serving > 0.0 {
                residual / serving
            } else {
                0.0
            },
            "ratio",
        ),
        metric("trace.overhead", traced_s / plain_s.max(1e-9), "ratio"),
        metric("trace.spans", r.tr.spans.len() as f64 / q, "count"),
    ]
}
