//! The repository benchmark: four `repro` workloads timed end to end
//! with tracing off (`--trace 0`), or split by layer in a traced replay
//! (`--trace 1`). See `perfbench/README.md`.
//!
//! Usage: `perfbench --workload NAME --seed N --seconds S --trace 0|1
//! [--held-out] [--spawn-unix-ns NS] [--out DIR] [--pins FILE]`
//! `perfbench --repin` prints fresh behaviour pins for `pins.txt`.
//!
//! The last line of stdout is one JSON object with the keys `correct`,
//! `attempted`, `failed` and `metrics`; every line before it is for
//! people.

mod calib;
mod layers;
mod trace;
mod workloads;

use layers::Metric;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};
use workloads::{Outcome, Shape, Workload};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Each pool seed is timed at least this often, so its median drops
/// one slow call.
const MIN_CYCLES: usize = 3;
/// No run measures for longer than this, whatever `--seconds` says, so
/// a run ends well inside its 180 s limit.
const MAX_MEASURE: Duration = Duration::from_secs(100);

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    held_out: bool,
    spawn_unix_ns: Option<u128>,
    out: PathBuf,
    pins: PathBuf,
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut it = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut held_out = false;
    let mut repin = false;
    let mut spawn_unix_ns = None;
    let mut out = PathBuf::from("perfbench/out");
    let mut pins = PathBuf::from("perfbench/pins.txt");
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let v = value()?;
                workload = Some(Workload::parse(&v).ok_or(format!(
                    "unknown workload {v:?}; expected one of {}",
                    Workload::ALL.map(Workload::name).join(", ")
                ))?);
            }
            "--seed" => seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: u64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if s == 0 {
                    return Err("--seconds must be at least 1".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                })
            }
            "--held-out" => held_out = true,
            "--repin" => repin = true,
            "--spawn-unix-ns" => {
                spawn_unix_ns = Some(
                    value()?
                        .parse()
                        .map_err(|e| format!("--spawn-unix-ns: {e}"))?,
                )
            }
            "--out" => out = PathBuf::from(value()?),
            "--pins" => pins = PathBuf::from(value()?),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    if repin {
        print!("{}", repin_text());
        return Ok(None);
    }
    Ok(Some(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        held_out,
        spawn_unix_ns,
        out,
        pins,
    }))
}

/// Behaviour pins for every pool seed and the held-out seed of every
/// workload, in the `pins.txt` format.
fn repin_text() -> String {
    let mut s =
        String::from("# workload seed behaviour-fingerprint (regenerate: perfbench --repin)\n");
    for w in Workload::ALL {
        for &seed in w.pool().iter().chain([Workload::HELD_OUT].iter()) {
            let o = w.digest(w.call(seed));
            let _ = writeln!(s, "{} {seed} {}", w.name(), o.fingerprint);
        }
    }
    s
}

fn load_pins(path: &Path) -> Result<BTreeMap<(String, u64), String>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut pins = BTreeMap::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let f: Vec<&str> = line.split_whitespace().collect();
        let seed = f.get(1).and_then(|s| s.parse().ok());
        match (f.len(), seed) {
            (3, Some(seed)) => {
                pins.insert((f[0].to_string(), seed), f[2].to_string());
            }
            _ => {
                return Err(format!(
                    "{}:{}: malformed pin {line:?}",
                    path.display(),
                    i + 1
                ))
            }
        }
    }
    Ok(pins)
}

#[repr(C)]
struct Timeval {
    sec: i64,
    usec: i64,
}

#[repr(C)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn malloc_trim(pad: usize) -> i32;
}

/// User + system CPU seconds of the whole process, all threads.
fn cpu_seconds() -> f64 {
    let mut u = Rusage {
        utime: Timeval { sec: 0, usec: 0 },
        stime: Timeval { sec: 0, usec: 0 },
        rest: [0; 14],
    };
    // SAFETY: `Rusage` matches the C `struct rusage` layout on 64-bit
    // Linux (two `timeval`s then fourteen `long`s), `u` is a live,
    // writable value of that type, and RUSAGE_SELF (0) is a valid `who`.
    let rc = unsafe { getrusage(0, &mut u) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    let t = |v: &Timeval| v.sec as f64 + v.usec as f64 * 1e-6;
    t(&u.utime) + t(&u.stime)
}

/// Returns freed heap pages to the system and resets the process's
/// peak-resident-set mark to its current RSS, so the next
/// [`peak_rss_mb`] reads the peak of what ran in between, from the same
/// baseline whatever ran before.
fn reset_peak_rss() {
    // SAFETY: glibc's `malloc_trim` takes a byte count and only releases
    // free memory; it is safe to call at any time from any thread.
    unsafe {
        malloc_trim(0);
    }
    // Linux clears VmHWM when "5" is written to clear_refs.
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set since the last reset (or process start), in MB
/// (`VmHWM`).
fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

fn unix_ns() -> u128 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos())
}

fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    match s.len() {
        0 => 0.0,
        n if n % 2 == 1 => s[n / 2],
        n => (s[n / 2 - 1] + s[n / 2]) / 2.0,
    }
}

fn esc(s: &str) -> String {
    let mut o = String::new();
    for c in s.chars() {
        match c {
            '"' => o.push_str("\\\""),
            '\\' => o.push_str("\\\\"),
            '\n' => o.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(o, "\\u{:04x}", c as u32);
            }
            c => o.push(c),
        }
    }
    o
}

fn command_line(cmd: &str, args: &[&str]) -> Option<String> {
    let out = std::process::Command::new(cmd).args(args).output().ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// Host metadata recorded with every result.
fn host_json() -> String {
    let nproc = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            t.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc = command_line("rustc", &["-V"]).unwrap_or_else(|| "unknown".into());
    let commit = command_line("git", &["rev-parse", "HEAD"])
        .unwrap_or_else(|| "unknown (not a git checkout)".into());
    format!(
        "{{\"nproc\":{nproc},\"cpu\":\"{}\",\"rustc\":\"{}\",\"commit\":\"{}\"}}",
        esc(&cpu),
        esc(&rustc),
        esc(&commit)
    )
}

fn shape_text(shape: &Shape) -> String {
    shape
        .iter()
        .map(|(k, v)| format!("{k}={v}"))
        .collect::<Vec<_>>()
        .join(" ")
}

/// Compares each seed's shape with the one an earlier run of the same
/// binary recorded in `out`, and records the new ones. A mismatch means
/// the same program did different work on the same input.
fn check_shapes_across_runs(
    out: &Path,
    w: Workload,
    shapes: &BTreeMap<u64, String>,
    problems: &mut Vec<String>,
) {
    let exe = std::env::current_exe()
        .ok()
        .and_then(|p| std::fs::read(p).ok())
        .map_or(0, |b| harness::artifact::fnv1a(&b));
    let path = out.join(format!("{}.shapes", w.name()));
    let mut known: BTreeMap<u64, String> = BTreeMap::new();
    if let Ok(text) = std::fs::read_to_string(&path) {
        for line in text.lines() {
            let mut f = line.splitn(3, ' ');
            let (Some(bin), Some(seed), Some(shape)) = (f.next(), f.next(), f.next()) else {
                continue;
            };
            if bin == format!("{exe:016x}") {
                if let Ok(seed) = seed.parse() {
                    known.insert(seed, shape.to_string());
                }
            }
        }
    }
    for (seed, shape) in shapes {
        match known.get(seed) {
            Some(old) if old != shape => problems.push(format!(
                "determinism alarm: seed {seed} shape drifted between runs of one binary\n  was {old}\n  now {shape}"
            )),
            _ => {
                known.insert(*seed, shape.clone());
            }
        }
    }
    let text: String = known
        .iter()
        .map(|(seed, shape)| format!("{exe:016x} {seed} {shape}\n"))
        .collect();
    let _ = std::fs::create_dir_all(out);
    if let Err(e) = std::fs::write(&path, text) {
        problems.push(format!("cannot record shapes in {}: {e}", path.display()));
    }
}

struct Sample {
    seed: u64,
    slowdown: f64,
    wall_s: f64,
    cpu_s: f64,
    rss_mb: f64,
    outcome: Outcome,
}

/// Mean over the pool's seeds of each seed's median: every run covers
/// the same seeds, so this is comparable between runs, and it uses
/// every call rather than the few around the overall median.
fn pool_median(samples: &[Sample], f: impl Fn(&Sample) -> f64) -> f64 {
    let mut by_seed: BTreeMap<u64, Vec<f64>> = BTreeMap::new();
    for s in samples {
        by_seed.entry(s.seed).or_default().push(f(s));
    }
    by_seed.values().map(|v| median(v)).sum::<f64>() / by_seed.len().max(1) as f64
}

/// The result of one run: the contract line plus what people read.
struct RunResult {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    problems: Vec<String>,
    report: String,
}

/// Whether `fingerprint` is the pinned behaviour of `seed`; records a
/// problem when it is not.
fn check_pin(
    pins: &BTreeMap<(String, u64), String>,
    w: Workload,
    seed: u64,
    fingerprint: &str,
    problems: &mut Vec<String>,
) -> bool {
    match pins.get(&(w.name().to_string(), seed)) {
        Some(pin) if pin == fingerprint => true,
        Some(pin) => {
            problems.push(format!(
                "{} seed {seed}: behaviour fingerprint {fingerprint} != pinned {pin}",
                w.name()
            ));
            false
        }
        None => {
            problems.push(format!("{} seed {seed}: no pinned fingerprint", w.name()));
            false
        }
    }
}

/// The probe's slowdown over `[from, to]`; a window the probe missed
/// counts as nominal speed and is recorded as a problem.
fn slowdown_or_flag(
    probe: &calib::Probe,
    from: Instant,
    to: Instant,
    what: &str,
    problems: &mut Vec<String>,
) -> f64 {
    probe.slowdown(from, to).unwrap_or_else(|| {
        problems.push(format!("host-speed probe ran no burst during a {what}"));
        1.0
    })
}

fn run_plain(
    args: &Args,
    order: &[u64],
    setup_s: f64,
    pins: &BTreeMap<(String, u64), String>,
    probe: &calib::Probe,
) -> RunResult {
    let w = args.workload;
    let mut problems = Vec::new();
    let mut samples: Vec<Sample> = Vec::new();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut i = 0;
    loop {
        let seed = order[i % order.len()];
        reset_peak_rss();
        let cpu0 = cpu_seconds();
        let t0 = Instant::now();
        let raw = w.call(seed);
        let wall_s = t0.elapsed().as_secs_f64();
        let t1 = Instant::now();
        // The probe's bursts are the process's too; they are not the call's.
        let cpu_s = cpu_seconds() - cpu0 - probe.cpu_seconds(t0, t1);
        let slowdown = slowdown_or_flag(probe, t0, t1, "call", &mut problems);
        // Less the probe's buffers, resident throughout.
        let rss_mb = peak_rss_mb() - probe.resident_mb();
        let outcome = w.digest(raw);
        samples.push(Sample {
            seed,
            slowdown,
            wall_s,
            cpu_s,
            rss_mb,
            outcome,
        });
        i += 1;
        let elapsed = start.elapsed();
        let whole = i % order.len() == 0 && i / order.len() >= MIN_CYCLES;
        if (elapsed >= budget && whole) || elapsed >= MAX_MEASURE {
            break;
        }
    }

    // `mesh-wire`'s suite reports no event counts: take them from an
    // untraced sim-side replay, which must reproduce the suite's
    // transcripts.
    if w == Workload::MeshWire {
        let mut cache: BTreeMap<u64, u64> = BTreeMap::new();
        for s in &mut samples {
            let events = *cache.entry(s.seed).or_insert_with(|| {
                let (events, fps) = workloads::mesh_events(s.seed);
                let joined: String = fps.concat();
                if workloads::fingerprint_str(joined.as_bytes()) != s.outcome.fingerprint {
                    problems.push(format!(
                        "mesh-wire seed {}: event replay diverged from the suite's transcripts",
                        s.seed
                    ));
                }
                events
            });
            s.outcome.events = events;
            s.outcome.shape.insert("events", events.to_string());
        }
    }

    // A call whose behaviour left its pin failed every job it ran.
    let mut failed = 0;
    let mut shapes: BTreeMap<u64, String> = BTreeMap::new();
    for s in &samples {
        let pinned = check_pin(pins, w, s.seed, &s.outcome.fingerprint, &mut problems);
        failed += if pinned {
            s.outcome.failed_jobs
        } else {
            s.outcome.jobs
        };
        problems.extend(s.outcome.problems.iter().cloned());
        let text = shape_text(&s.outcome.shape);
        match shapes.get(&s.seed) {
            Some(prev) if *prev != text => problems.push(format!(
                "determinism alarm: seed {} shape differs between calls\n  {prev}\n  {text}",
                s.seed
            )),
            _ => {
                shapes.insert(s.seed, text);
            }
        }
    }
    check_shapes_across_runs(&args.out, w, &shapes, &mut problems);

    let ops: u64 = samples.iter().map(|s| s.outcome.ops).sum();
    let failed_ops: u64 = samples.iter().map(|s| s.outcome.failed_ops).sum();
    let metrics = vec![
        Metric {
            name: "wall_s".into(),
            value: pool_median(&samples, |s| s.wall_s / s.slowdown),
            unit: "s",
        },
        Metric {
            name: "cpu_s".into(),
            value: pool_median(&samples, |s| s.cpu_s / s.slowdown),
            unit: "s",
        },
        Metric {
            name: "events_per_s".into(),
            value: pool_median(&samples, |s| {
                s.outcome.events as f64 * s.slowdown / s.wall_s
            }),
            unit: "1/s",
        },
        Metric {
            name: "peak_rss_mb".into(),
            value: pool_median(&samples, |s| s.rss_mb),
            unit: "MB",
        },
        Metric {
            name: "setup_s".into(),
            value: setup_s,
            unit: "s",
        },
    ];

    let mut report = String::new();
    let _ = writeln!(report, "calls {} (pool order {:?})", samples.len(), order);
    for s in &samples {
        let _ = writeln!(
            report,
            "  seed {:>3}  wall {:.4} s  cpu {:.4} s  slowdown {:.4}  rss {:.1} MB  events {}  {}",
            s.seed,
            s.wall_s,
            s.cpu_s,
            s.slowdown,
            s.rss_mb,
            s.outcome.events,
            s.outcome.fingerprint
        );
    }
    for (seed, shape) in &shapes {
        let _ = writeln!(report, "shape seed {seed}: {shape}");
    }
    let _ = writeln!(
        report,
        "as measured (not host-normalised, not bounded): wall_s {} s, cpu_s {} s, events_per_s {} 1/s",
        pool_median(&samples, |s| s.wall_s),
        pool_median(&samples, |s| s.cpu_s),
        pool_median(&samples, |s| s.outcome.events as f64 / s.wall_s),
    );
    let _ = writeln!(
        report,
        "probe: slowdown {}, fastest burst {} s",
        pool_median(&samples, |s| s.slowdown),
        probe.fastest(),
    );
    if w == Workload::MeshWire {
        let rate = pool_median(&samples, |s| s.outcome.datagrams as f64 / s.wall_s);
        let _ = writeln!(report, "datagrams_per_s {rate} 1/s");
    }
    let _ = writeln!(
        report,
        "failed_share {} ratio ({failed_ops} of {ops} {})",
        if ops == 0 {
            0.0
        } else {
            failed_ops as f64 / ops as f64
        },
        if w == Workload::MeshWire {
            "datagram hops"
        } else {
            "joins"
        }
    );
    RunResult {
        attempted: samples.iter().map(|s| s.outcome.jobs).sum(),
        failed,
        metrics,
        problems,
        report,
    }
}

/// The layer checks of the traced run: each workload's own layer did
/// work, and each layer the workload bypasses reads zero.
fn layer_checks(w: Workload, run: &workloads::TracedRun, get: &dyn Fn(&str) -> f64) -> Vec<String> {
    let mut problems = Vec::new();
    let mut expect = |ok: bool, what: String| {
        if !ok {
            problems.push(format!("{}: {what}", w.name()));
        }
    };
    let faults = get("faults.dropped")
        + get("faults.delayed")
        + get("faults.duplicated")
        + get("faults.crashes");
    expect(
        get("topology.builds") == run.profile.build.calls as f64,
        format!(
            "{} topology builds, {} seen by the tracer",
            get("topology.builds"),
            run.profile.build.calls
        ),
    );
    match w {
        Workload::StormSharded | Workload::StormWorld => {
            expect(
                faults == 0.0,
                format!("fault plane fired {faults} times in a storm"),
            );
            expect(get("wire.msgs") == 0.0, "codec ran in a storm".into());
            expect(
                get("observer.flow_event.calls") == 0.0,
                "observer ran in a storm".into(),
            );
            expect(get("mesh.datagrams") == 0.0, "mesh ran in a storm".into());
        }
        Workload::SweepMobileChaos => {
            expect(get("wire.msgs") == 0.0, "codec ran in the sweep".into());
            expect(get("mesh.datagrams") == 0.0, "mesh ran in the sweep".into());
            expect(
                get("observer.flow_event.calls") > 0.0,
                "observer saw no flow event".into(),
            );
            expect(
                get("faults.dropped") > 0.0,
                "chaos cells dropped nothing".into(),
            );
            expect(
                get("faults.crashes") > 0.0,
                "chaos cells crashed nothing".into(),
            );
            expect(
                run.vacuous_chaos_cells.is_empty(),
                format!(
                    "chaos cells injected no fault: {:?}",
                    run.vacuous_chaos_cells
                ),
            );
            expect(
                run.judged_clean_cells.is_empty(),
                format!(
                    "fault counters moved in clean cells: {:?}",
                    run.judged_clean_cells
                ),
            );
            expect(
                run.chaos_cells == 20,
                format!("{} chaos cells, expected 20", run.chaos_cells),
            );
        }
        Workload::MeshWire => {
            expect(
                get("mesh.datagrams") > 0.0,
                "mesh moved no datagrams".into(),
            );
            expect(get("wire.msgs") > 0.0, "codec probe saw no message".into());
            let failures: u64 = run.profile.codec.values().map(|c| c.decode_failures).sum();
            expect(
                failures == 0,
                format!("{failures} messages failed to decode"),
            );
            expect(
                get("pool.busy_share") == 0.0,
                "mesh matrix ran on a pool".into(),
            );
        }
    }
    match w {
        Workload::StormWorld => {
            expect(
                get("topology.builds") >= workloads::WORLD_NN as f64,
                format!(
                    "only {} topology builds for {} nodes",
                    get("topology.builds"),
                    workloads::WORLD_NN
                ),
            );
            expect(
                get("pool.busy_share") == 0.0,
                "storm-world ran on a pool".into(),
            );
        }
        Workload::StormSharded => {
            expect(
                get("pool.busy_share") > 0.0,
                "shard pool did no work".into(),
            );
            expect(
                run.jobs == 79,
                format!("{} shards replayed, expected 79", run.jobs),
            );
        }
        _ => {}
    }
    problems
}

fn run_traced(args: &Args, order: &[u64], pins: &BTreeMap<(String, u64), String>) -> RunResult {
    let w = args.workload;
    let seed = order[0];
    let mut problems = Vec::new();
    let budget = Duration::from_secs(args.seconds);
    let start = Instant::now();
    let mut iterations: Vec<(f64, f64, workloads::TracedRun)> = Vec::new();
    let mut plain_fp;
    loop {
        let t0 = Instant::now();
        let raw = w.call(seed);
        let call_wall = t0.elapsed().as_secs_f64();
        let plain = w.digest(raw);
        let plain_wall = plain.replayed_s.unwrap_or(call_wall);
        let _ = check_pin(pins, w, seed, &plain.fingerprint, &mut problems);
        problems.extend(plain.problems);
        let traced = w.traced(seed);
        if traced.fingerprint != plain.fingerprint {
            problems.push(format!(
                "traced replay fingerprint {} != untraced {}",
                traced.fingerprint, plain.fingerprint
            ));
        }
        let mut replay_shape = Shape::new();
        workloads::perf_shape(&mut replay_shape, &traced.metrics);
        for (k, v) in &replay_shape {
            match plain.shape.get(k) {
                Some(p) if p != v => problems.push(format!(
                    "determinism alarm: {k} is {v} in the traced replay, {p} untraced"
                )),
                _ => {}
            }
        }
        if let Some((_, _, first)) = iterations.first() {
            if first.profile.counts() != traced.profile.counts() {
                problems.push("determinism alarm: traced counts differ between replays".into());
            }
        }
        plain_fp = plain.fingerprint;
        problems.extend(traced.problems.iter().cloned());
        iterations.push((call_wall, plain_wall, traced));
        // Start another pair only if it fits in the budget.
        let per_pair = start.elapsed() / iterations.len() as u32;
        if start.elapsed() + per_pair > budget.min(MAX_MEASURE) {
            break;
        }
    }
    // Report the replay with the median traced wall.
    iterations.sort_by(|a, b| a.2.wall_s.total_cmp(&b.2.wall_s));
    let (call_wall, plain_wall, run) = &iterations[iterations.len() / 2];
    let metrics = layers::per_layer(run, *plain_wall);
    let values: BTreeMap<&str, f64> = metrics.iter().map(|m| (m.name.as_str(), m.value)).collect();
    let get = |k: &str| {
        *values
            .get(k)
            .unwrap_or_else(|| panic!("per-layer metric {k} exists"))
    };
    problems.extend(layer_checks(w, run, &get));

    let folded = layers::folded(w, run);
    let path = args.out.join(format!("{}-seed{seed}.folded", w.name()));
    let _ = std::fs::create_dir_all(&args.out);
    if let Err(e) = std::fs::write(&path, &folded) {
        problems.push(format!("cannot write {}: {e}", path.display()));
    }
    let mut report = String::new();
    let _ = writeln!(
        report,
        "traced seed {seed}: {} replays, fingerprint {plain_fp}, untraced call {call_wall:.4} s (replayed part {:.4} s), traced {:.4} s, overhead {:.2}x",
        iterations.len(),
        plain_wall,
        run.wall_s,
        run.wall_s / plain_wall
    );
    let _ = writeln!(report, "folded stacks: {}", path.display());
    for ((proto, label), h) in &run.profile.handlers {
        let _ = writeln!(
            report,
            "  proto.{proto}.{label}: {} calls, {:.4} s self, p50 {} ns, p99 {} ns",
            h.span.calls,
            h.span.secs(),
            h.hist.quantile(0.5),
            h.hist.quantile(0.99)
        );
    }
    for (kind, c) in &run.profile.codec {
        let _ = writeln!(
            report,
            "  wire.{kind}: {} msgs, {} B, encode {} ns, decode {} ns",
            c.msgs, c.bytes, c.encode_ns, c.decode_ns
        );
    }
    RunResult {
        attempted: run.jobs,
        // A traced run that fails any check fails every job it replayed.
        failed: if problems.is_empty() { 0 } else { run.jobs },
        metrics,
        problems,
        report,
    }
}

fn main() -> ExitCode {
    let t_main = unix_ns();
    let args = match parse_args() {
        Ok(Some(a)) => a,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let exec_s = args
        .spawn_unix_ns
        .map_or(0.0, |spawn| t_main.saturating_sub(spawn) as f64 * 1e-9);
    let pins = match load_pins(&args.pins) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let w = args.workload;
    let pool: Vec<u64> = if args.held_out {
        vec![Workload::HELD_OUT]
    } else {
        w.pool().to_vec()
    };
    let k = pool.len();
    let first = (args.seed % k as u64) as usize;
    let order: Vec<u64> = (0..k).map(|i| pool[(first + i) % k]).collect();

    // Untraced runs report host-normalised times (see `calib`): a
    // single-threaded call runs pinned to one CPU and is probed there; a
    // pooled one may use every CPU, so each is probed.
    let probe = (!args.trace).then(|| {
        let mut cpus = calib::allowed_cpus();
        if w.single_threaded() {
            cpus.truncate(1);
            calib::pin(&cpus);
        }
        calib::Probe::start(&cpus)
    });
    let mut problems = Vec::new();
    let setups: Vec<f64> = (0..if args.trace { 1 } else { SETUPS })
        .map(|_| {
            let t = Instant::now();
            w.warm_up();
            let raw = t.elapsed().as_secs_f64();
            probe.as_ref().map_or(raw, |p| {
                raw / slowdown_or_flag(p, t, Instant::now(), "set-up", &mut problems)
            })
        })
        .collect();
    let setup_s = exec_s + median(&setups);

    let mut result = match &probe {
        Some(p) => run_plain(&args, &order, setup_s, &pins, p),
        None => run_traced(&args, &order, &pins),
    };
    if let Some(p) = probe {
        p.finish();
    }
    result.problems.extend(problems);

    println!(
        "workload {} seed {} trace {} host {}",
        w.name(),
        args.seed,
        u8::from(args.trace),
        host_json()
    );
    print!("{}", result.report);
    for m in &result.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    for p in &result.problems {
        println!("FAIL {p}");
    }
    let correct = result.problems.is_empty();
    let mut line = format!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{",
        result.attempted.max(1),
        result.failed
    );
    for (i, m) in result.metrics.iter().enumerate() {
        if i > 0 {
            line.push(',');
        }
        let _ = write!(
            line,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    line.push_str("}}");
    println!("{line}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
