//! Single-world join storm probe: one unsharded QBAC world with the
//! shard knobs of `repro scale` (static nodes, 100 ms arrivals, 5 s
//! settle, connected arrivals) on an arena of 1000·√(n/128) m, seed 7 —
//! the scenario of the benchmark's `storm-world` workload. Sharding
//! keeps `repro scale` worlds at 128 nodes; this probe measures how one
//! world scales instead.
//!
//! ```sh
//! cargo run --release --example storm_world -- 1024   # n defaults to 512
//! ```
//!
//! Prints the wall time, simulator events, µs per event, event-queue
//! high-water mark and the metrics fingerprint (FNV-1a of
//! `Metrics::to_json`, which leaves out the engine's perf counters, so
//! an engine change that keeps behaviour keeps the fingerprint).

use qbac::core::{ProtocolConfig, Qbac};
use qbac::harness::artifact::fnv1a;
use qbac::harness::{run_scenario, Scenario};
use std::time::Instant;

const SEED: u64 = 7;

fn main() {
    let arg = std::env::args().nth(1);
    let Some(n) = arg
        .as_deref()
        .map_or(Some(512), |a| a.parse::<usize>().ok())
    else {
        eprintln!("error: usage: storm_world [N], N a node count");
        std::process::exit(1);
    };
    let scenario = match Scenario::builder()
        .nn(n)
        .speed_mps(0.0)
        .arrival_gap_ms(100)
        .settle_secs(5)
        .connected_arrivals(true)
        .area_m(1000.0 * (n as f64 / 128.0).sqrt())
        .seed(SEED)
        .build()
    {
        Ok(s) => s,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    let start = Instant::now();
    let report = run_scenario(&scenario, Qbac::new(ProtocolConfig::default()));
    let wall = start.elapsed().as_secs_f64();
    let metrics = report.metrics();
    let perf = metrics.perf();
    println!(
        "n={n} seed={SEED} wall={wall:.2}s events={} us/event={:.3} \
         queue_high_water={} fingerprint=fnv1a:{:016x}",
        perf.events,
        wall * 1e6 / perf.events.max(1) as f64,
        perf.queue_high_water,
        fnv1a(metrics.to_json().as_bytes()),
    );
}
