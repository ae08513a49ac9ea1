//! Wall-clock trading benchmark.
//!
//! ```text
//! qt-perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics: seeded inputs are served on
//! the threads runtime (and executed columnar on `trade_exec`) for
//! `--seconds` of timed calls, every session checked against an oracle
//! outside the timed region, every wall time scaled to a nominal host
//! speed by the probe in [`host`]. `--trace 1` runs the same timed pass, then
//! replays the first chunk in-process through the layers' public calls,
//! once untraced and once with spans around every call, and reports
//! per-layer self times and counts. The last stdout line is the JSON
//! result.

mod host;
mod inputs;
mod replay;
mod report;
mod serve;

use inputs::{Inputs, Workload};
use report::{beyond, median, percentile, Report};
use std::time::Instant;

/// Set-ups per run, at least, and wall seconds of them, at least;
/// `setup_s` is their median.
const SETUPS: usize = 21;
const SETUP_MIN_S: f64 = 3.0;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(&value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("qt-perfbench: {e}");
            std::process::exit(2);
        }
    };
    let fp = host::fingerprint(args.workload.name(), args.seed, args.seconds, args.trace);
    println!("{fp}");
    let w = args.workload;

    // Set-up: federation, data, and query generation plus engine
    // construction, repeated; a host probe follows every repetition and
    // scales it. The broker tree adds its advertisement lead.
    let mut setups = Vec::new();
    let mut raw_setups = Vec::new();
    let mut inputs = None;
    let mut probe = host::probe_ms();
    let t_setups = Instant::now();
    while setups.len() < SETUPS || t_setups.elapsed().as_secs_f64() < SETUP_MIN_S {
        let t0 = Instant::now();
        let built = Inputs::build(w, args.seed);
        std::hint::black_box(built.sellers());
        let secs = t0.elapsed().as_secs_f64();
        let before = std::mem::replace(&mut probe, host::probe_ms());
        setups.push(secs * host::scale(before, probe));
        raw_setups.push(secs);
        inputs = Some(built);
    }
    let inputs = inputs.expect("at least one set-up");
    let lead = if w == Workload::Tiered256Closed {
        inputs::AD_LEAD_S
    } else {
        0.0
    };
    let setups_n = setups.len();
    let setup_raw_s = median(&mut raw_setups).expect("set-ups ran") + lead;
    let setup_s = median(&mut setups).expect("set-ups ran") + lead;

    let t_oracle = Instant::now();
    let mut oracle = serve::Oracle::new(&inputs, args.seed);
    let oracle_s = t_oracle.elapsed().as_secs_f64();
    let t_measure = Instant::now();
    let m = serve::measure(&inputs, &mut oracle, args.seconds);
    let measure_s = t_measure.elapsed().as_secs_f64();
    let mut report = Report {
        attempted: m.attempted,
        failed: m.failed,
        metrics: Vec::new(),
    };
    if args.trace {
        report.metrics = replay::run(&inputs, &m, &fp, args.seed);
    } else {
        let n = m.latencies_ms.len();
        if beyond(n, 95) < 10 {
            eprintln!("qt-perfbench: only {n} latency samples; p95 needs 10 beyond it");
        }
        let mut lat = m.latencies_ms.clone();
        let nan = f64::NAN;
        report.push("setup_s", setup_s, "s", setups_n);
        report.push(
            "qps",
            m.completed() as f64 / m.busy_s.max(1e-9),
            "1/s",
            m.completed() as usize,
        );
        report.push("p50_ms", median(&mut lat).unwrap_or(nan), "ms", n);
        report.push("p95_ms", percentile(&mut lat, 95).unwrap_or(nan), "ms", n);
        report.push(
            "completion",
            m.completed() as f64 / m.attempted.max(1) as f64,
            "ratio",
            m.attempted as usize,
        );
        report.push(
            "msgs_per_query",
            m.messages as f64 / m.attempted.max(1) as f64,
            "count",
            m.attempted as usize,
        );
        report.push(
            "plan_cost",
            m.cost_sum / m.cost_n.max(1) as f64,
            "cost",
            m.cost_n as usize,
        );
    }
    println!(
        "phases: oracle {oracle_s:.3}s, serving pass {measure_s:.3}s ({} calls, {:.3}s timed, {:.3}s checking, {} cache-answered)",
        m.calls,
        m.raw_busy_s,
        m.check_s,
        m.cache_answered,
    );
    let mut raw_lat = m.raw_latencies_ms.clone();
    println!(
        "unscaled: setup_s {setup_raw_s:.6} qps {:.3} p50_ms {:.3} (host scale of the timed calls {:.3})",
        m.completed() as f64 / m.raw_busy_s.max(1e-9),
        median(&mut raw_lat).unwrap_or(f64::NAN),
        m.busy_s / m.raw_busy_s.max(1e-9),
    );
    report.print();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> String {
        std::fs::read_to_string(
            std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json"),
        )
        .expect("BENCHMARK.json at the repository root")
    }

    #[test]
    fn benchmark_json_names_every_workload() {
        let spec = spec();
        for w in Workload::ALL {
            assert!(spec.contains(&format!("\"name\": \"{}\"", w.name())));
        }
    }
}
