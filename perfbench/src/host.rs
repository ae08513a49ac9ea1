//! The host a run measures on: its fingerprint, and a speed probe that
//! scales wall times to a nominal host speed.
//!
//! On a shared virtual machine the host's speed drifts by half in stretches
//! of seconds to minutes as neighbours come and go. A fixed kernel that
//! does not call the program under test is timed between the timed calls;
//! every wall time is multiplied by [`PROBE_NOMINAL_MS`] over the mean of
//! the probes taken just before and just after it. A change to the program
//! moves the scaled figures as much as the raw ones, since the probe does
//! not run its code; a slow stretch of the host moves both the probe and
//! the call, and cancels.

use std::collections::BTreeMap;
use std::time::Instant;

/// Probe time on the reference host speed: a 2 GHz Xeon vCPU with no
/// neighbour load takes about this long.
pub const PROBE_NOMINAL_MS: f64 = 6.0;

/// Keys the probe inserts: enough that the map outgrows the first-level
/// caches, as the engines' maps do.
const PROBE_KEYS: u64 = 30_000;

/// Wall milliseconds of one probe: ordered-map inserts of pseudo-random
/// keys, allocation and pointer chasing like the engines' own work.
pub fn probe_ms() -> f64 {
    let t0 = Instant::now();
    let mut map = BTreeMap::new();
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    for i in 0..PROBE_KEYS {
        x = x
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        map.insert(x >> 24, i);
    }
    std::hint::black_box(&map);
    t0.elapsed().as_secs_f64() * 1e3
}

/// Scale for a wall time bracketed by probes of `before` and `after` ms.
pub fn scale(before: f64, after: f64) -> f64 {
    2.0 * PROBE_NOMINAL_MS / (before + after)
}

/// The host and build a result belongs to. Figures from different hosts
/// are not comparable (throughput differs about 2x across hosts), even
/// after scaling: the probe tracks a host's drift, not its kind.
pub fn fingerprint(workload: &str, seed: u64, seconds: f64, trace: bool) -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    format!(
        "fingerprint: cores={cores} cpu=\"{cpu}\" QT_THREADS={} transport=threads workload={workload} seed={seed} seconds={seconds} trace={} commit={}",
        std::env::var("QT_THREADS").unwrap_or_else(|_| "unset".into()),
        trace as u8,
        std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".into()),
    )
}
