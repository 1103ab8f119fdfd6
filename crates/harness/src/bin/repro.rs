//! `repro` — regenerate the paper's tables and figures.
//!
//! ```text
//! repro figures             # every figure, default replication
//! repro figures --fig 5     # one figure
//! repro figures --rounds 50 # more replications (paper used 1000)
//! repro figures --quick     # shrunken sweeps (seconds, for smoke tests)
//! repro figures --csv out/  # also write one CSV per table
//! repro figures --metrics-out snapshot.json  # run manifest + metrics snapshot
//! repro figures --trace-out traces/          # per-protocol JSONL flow traces
//! repro chaos               # fault-injection suite (loss sweep + head kills)
//! repro chaos --loss 0.2 --head-kills 2      # one chaos cell
//! repro chaos --fault-plan plan.txt          # scripted faults (see DESIGN.md)
//! repro check               # conformance oracle: invariants after every event
//! repro check --quick --artifact-dir out/    # CI smoke; shrunk repros on failure
//! repro replay out/quorum-storm.repro        # byte-for-byte reproduction
//! repro attacks             # adversary degradation: open vs hardened QBAC
//! repro sweep --quick --threads 4 --out sweep.json   # parallel grid sweep
//! repro sweep --quick --mobility manhattan:100 --mobility group:4,50
//! repro sweep --soak --rounds 5              # chaos soak vs the oracle
//! repro scale --out BENCH_scale.json         # city-scale sharded join storm
//! repro scale --quick --n 10000             # CI smoke cell
//! repro gate BENCH_sweep.json sweep.json     # regression gate vs baseline
//! repro gate BENCH_scale.json scale.json --subset    # smoke vs committed baseline
//! repro fuzz --time-budget 60s --seed 42     # coverage-guided schedule fuzz
//! repro mesh                                 # storm + attack canary over real UDP,
//!                                            # transcripts diffed against the simulator
//! repro mesh --quick                         # the 2x2 CI equivalence smoke
//! ```
//!
//! `repro` with no subcommand runs `figures`.
//!
//! With `REPRO_NO_WALL_CLOCK=1` the snapshot's per-phase `wall_us`
//! fields render as 0, making same-seed snapshots byte-identical.

use harness::chaos::{chaos_suite, ChaosOpts};
use harness::figures::{self, FigOpts};
use harness::snapshot::{self, Phase, Snapshot, SnapshotParams};
use manet_sim::{FaultPlan, MobilityConfig};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Which subcommand runs. `repro` with no subcommand is `Figures`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    Figures,
    Chaos,
    Check,
    Replay,
    Attacks,
    Sweep,
    Gate,
    Fuzz,
    Mesh,
    Scale,
}

/// Options every subcommand shares: replication parameters, the
/// snapshot/trace outputs, and the sweep's mobility axis. `mobilities`
/// is validated at parse time (malformed specs error before any work
/// starts); which modes *honor* it is enforced by the conflict checks
/// at the end of [`parse_args`].
#[derive(Debug, Default)]
struct CommonOpts {
    opts: FigOpts,
    metrics_out: Option<PathBuf>,
    trace_out: Option<PathBuf>,
    /// `--mobility SPEC`, repeatable; each spec pre-validated against
    /// the [`MobilityConfig::parse`] grammar.
    mobilities: Option<Vec<String>>,
}

/// Options for the `sweep` and `gate` subcommands.
#[derive(Debug, Default)]
struct SweepOpts {
    threads: Option<usize>,
    out: Option<PathBuf>,
    soak: bool,
    chaos_axis: bool,
    tolerance: Option<f64>,
    subset: bool,
    gate_files: Vec<PathBuf>,
}

/// Options for the `scale` subcommand.
#[derive(Debug, Default)]
struct ScaleOpts {
    /// `--n N`, repeatable: total node counts, one cell each.
    sizes: Option<Vec<usize>>,
}

/// Options for the `fuzz` subcommand.
#[derive(Debug, Default)]
struct FuzzOpts {
    time_budget: Option<String>,
    protocol: Option<String>,
}

#[derive(Debug)]
struct Args {
    mode: Mode,
    common: CommonOpts,
    fig: Option<u32>,
    csv_dir: Option<PathBuf>,
    loss: Option<f64>,
    head_kills: Option<u32>,
    fault_plan: Option<FaultPlan>,
    replay: Option<PathBuf>,
    artifact_dir: Option<PathBuf>,
    sweep: SweepOpts,
    fuzz: FuzzOpts,
    scale: ScaleOpts,
}

fn parse_args(argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut subcommand: Option<Mode> = None;
    let mut fig = None;
    let mut opts = FigOpts::default();
    let mut csv_dir = None;
    let mut loss = None;
    let mut head_kills = None;
    let mut fault_plan = None;
    let mut metrics_out = None;
    let mut trace_out = None;
    let mut replay = None;
    let mut artifact_dir = None;
    let mut sweep = SweepOpts::default();
    let mut fuzz = FuzzOpts::default();
    let mut scale = ScaleOpts::default();
    let mut mobilities: Option<Vec<String>> = None;
    let mut it = argv;
    let mut first = true;
    while let Some(arg) = it.next() {
        if std::mem::take(&mut first) {
            let sub = match arg.as_str() {
                "figures" => Some(Mode::Figures),
                "chaos" => Some(Mode::Chaos),
                "check" => Some(Mode::Check),
                "attacks" => Some(Mode::Attacks),
                "sweep" => Some(Mode::Sweep),
                "gate" => Some(Mode::Gate),
                "fuzz" => Some(Mode::Fuzz),
                "mesh" => Some(Mode::Mesh),
                "scale" => Some(Mode::Scale),
                "replay" => {
                    let v = it.next().ok_or("replay needs an artifact file path")?;
                    if v.starts_with("--") {
                        return Err("replay needs an artifact file path".into());
                    }
                    replay = Some(PathBuf::from(v));
                    Some(Mode::Replay)
                }
                _ => None,
            };
            if sub.is_some() {
                subcommand = sub;
                continue;
            }
        }
        match arg.as_str() {
            "--fig" => {
                let v = it.next().ok_or("--fig needs a number (4-18)")?;
                fig = Some(v.parse::<u32>().map_err(|e| format!("--fig: {e}"))?);
            }
            "--rounds" => {
                let v = it.next().ok_or("--rounds needs a number")?;
                opts.rounds = v.parse::<u64>().map_err(|e| format!("--rounds: {e}"))?;
                if opts.rounds == 0 {
                    return Err("--rounds must be at least 1".into());
                }
            }
            "--seed" => {
                let v = it.next().ok_or("--seed needs a number")?;
                opts.seed = v.parse::<u64>().map_err(|e| format!("--seed: {e}"))?;
            }
            "--quick" => opts.quick = true,
            "--artifact-dir" => {
                let v = it.next().ok_or("--artifact-dir needs a directory")?;
                artifact_dir = Some(PathBuf::from(v));
            }
            "--loss" => {
                let v = it.next().ok_or("--loss needs a probability (0-1)")?;
                let p = v.parse::<f64>().map_err(|e| format!("--loss: {e}"))?;
                if !(0.0..=1.0).contains(&p) {
                    return Err("--loss must be within 0-1".into());
                }
                loss = Some(p);
            }
            "--head-kills" => {
                let v = it.next().ok_or("--head-kills needs a count")?;
                head_kills = Some(v.parse::<u32>().map_err(|e| format!("--head-kills: {e}"))?);
            }
            "--fault-plan" => {
                let v = it.next().ok_or("--fault-plan needs a file path")?;
                let text = std::fs::read_to_string(&v)
                    .map_err(|e| format!("--fault-plan: reading {v}: {e}"))?;
                let plan = FaultPlan::parse(&text)
                    .map_err(|e| format!("--fault-plan: parsing {v}: {e}"))?;
                fault_plan = Some(plan);
            }
            "--threads" => {
                let v = it.next().ok_or("--threads needs a count")?;
                let t = v.parse::<usize>().map_err(|e| format!("--threads: {e}"))?;
                if t == 0 {
                    return Err("--threads must be at least 1".into());
                }
                sweep.threads = Some(t);
            }
            "--out" => {
                let v = it.next().ok_or("--out needs a file path")?;
                sweep.out = Some(PathBuf::from(v));
            }
            "--soak" => sweep.soak = true,
            "--with-chaos" => sweep.chaos_axis = true,
            "--mobility" => {
                // Repeatable: each occurrence adds one model to the
                // sweep's mobility axis (specs may contain commas).
                let v = it
                    .next()
                    .ok_or("--mobility needs a model spec (e.g. manhattan:100)")?;
                MobilityConfig::parse(&v).map_err(|e| format!("--mobility: {e}"))?;
                mobilities.get_or_insert_with(Vec::new).push(v);
            }
            "--n" => {
                let v = it.next().ok_or("--n needs a node count")?;
                let n = v.parse::<usize>().map_err(|e| format!("--n: {e}"))?;
                if n == 0 {
                    return Err("--n must be at least 1".into());
                }
                scale.sizes.get_or_insert_with(Vec::new).push(n);
            }
            "--subset" => sweep.subset = true,
            "--time-budget" => {
                let v = it
                    .next()
                    .ok_or("--time-budget needs a duration (e.g. 60s)")?;
                fuzz.time_budget = Some(v);
            }
            "--protocol" => {
                let v = it.next().ok_or("--protocol needs a registry name")?;
                fuzz.protocol = Some(v);
            }
            "--tolerance" => {
                let v = it.next().ok_or("--tolerance needs a fraction (e.g. 0.1)")?;
                let t = v.parse::<f64>().map_err(|e| format!("--tolerance: {e}"))?;
                if !(0.0..=10.0).contains(&t) {
                    return Err("--tolerance must be within 0-10".into());
                }
                sweep.tolerance = Some(t);
            }
            path if subcommand == Some(Mode::Gate) && !path.starts_with("--") => {
                sweep.gate_files.push(PathBuf::from(path));
            }
            "--csv" => {
                let v = it.next().ok_or("--csv needs a directory")?;
                csv_dir = Some(PathBuf::from(v));
            }
            "--metrics-out" => {
                let v = it.next().ok_or("--metrics-out needs a file path")?;
                metrics_out = Some(PathBuf::from(v));
            }
            "--trace-out" => {
                let v = it.next().ok_or("--trace-out needs a directory")?;
                trace_out = Some(PathBuf::from(v));
            }
            "--help" | "-h" => {
                println!(
                    "usage: repro [figures] [--fig N] [--rounds R] [--seed S] [--quick] [--csv DIR]\n\
                     \x20            [--metrics-out FILE] [--trace-out DIR]\n\
                     \x20      repro chaos [--loss P] [--head-kills K] [--fault-plan FILE]\n\
                     \x20      repro check [--quick] [--artifact-dir DIR]\n\
                     \x20      repro replay FILE\n\
                     \x20      repro attacks\n\
                     \x20      repro sweep [--quick] [--threads N] [--out FILE] [--seed S] [--with-chaos]\n\
                     \x20                  [--mobility SPEC]...\n\
                     \x20      repro sweep --soak [--rounds R] [--quick] [--threads N]\n\
                     \x20      repro scale [--quick] [--n N]... [--threads N] [--seed S]\n\
                     \x20                  [--out BENCH_scale.json]\n\
                     \x20      repro gate BASELINE CANDIDATE [--tolerance F] [--subset]\n\
                     \x20      repro fuzz [--time-budget 60s] [--seed S] [--protocol P] [--quick]\n\
                     \x20                 [--artifact-dir DIR] [--out FILE]\n\
                     \x20      repro mesh [--quick] [--seed S]\n\
                     Regenerates the evaluation figures (4-14, extras 15-18) of the quorum-based\n\
                     IP autoconfiguration paper. Default subcommand: figures, {} rounds.\n\
                     chaos runs the fault-injection suite: message-loss sweep plus scheduled\n\
                     cluster-head kills, auditing duplicate addresses, address leaks and\n\
                     join-latency inflation for every protocol.\n\
                     --metrics-out writes a run manifest (seed, params, per-phase wall-clock,\n\
                     per-protocol counters and histograms); --trace-out writes one JSONL flow\n\
                     trace per protocol.\n\
                     check runs the conformance oracle: every protocol under every canned\n\
                     chaos schedule with invariants verified after each simulator event; a\n\
                     violation is shrunk to a minimal replayable artifact (--artifact-dir),\n\
                     and replay re-runs one artifact demanding byte-for-byte reproduction.\n\
                     check also runs the attack-canary smoke: every pinned adversarial\n\
                     schedule must be caught against open QBAC and held by the hardened\n\
                     variant. attacks prints the full degradation table for those canaries.\n\
                     sweep fans a parameter grid (protocol x size x mobility x loss, plus\n\
                     chaos schedules with --with-chaos) across worker threads and merges\n\
                     per-shard telemetry into one deterministic sweep.json; --soak loops\n\
                     the chaos schedules against the conformance oracle and reports\n\
                     violations per simulated hour. --mobility overrides the grid's\n\
                     mobility axis (random-waypoint, manhattan:SPACING, group:SIZE,RADIUS,\n\
                     flash-crowd:RADIUS,UNTIL; repeat the flag for several models).\n\
                     scale decomposes a city-scale join storm into spatially disjoint\n\
                     shard simulations fanned across worker threads (merged in a fixed\n\
                     order, so the artifact is byte-identical for any --threads choice).\n\
                     gate compares two sweep artifacts and exits nonzero when a\n\
                     latency/overhead/configured metric regresses past the tolerance\n\
                     (default 10%); --subset compares only the cells both artifacts\n\
                     share (for smoke runs gated against a larger committed baseline).\n\
                     fuzz mutates fault schedules coverage-guided against the conformance\n\
                     oracle for a deterministic simulated-time budget; violations are\n\
                     shrunk to replayable artifacts (--artifact-dir) and the campaign\n\
                     report (--out) is byte-identical for the same protocol/seed/budget.\n\
                     mesh reruns the storm schedule and the squat attack canary\n\
                     with every delivery carried over real UDP sockets (hop-by-hop along\n\
                     the link map) and diffs the sans-io protocol transcripts against the\n\
                     simulator backend; any divergence prints a minimized report and\n\
                     exits nonzero. --quick shrinks it to the 2x2 CI smoke.",
                    FigOpts::default().rounds
                );
                std::process::exit(0);
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    let mode = subcommand.unwrap_or(Mode::Figures);
    if mode != Mode::Chaos && (loss.is_some() || fault_plan.is_some() || head_kills.is_some()) {
        return Err("--loss / --head-kills / --fault-plan only apply to chaos runs".into());
    }
    if mode != Mode::Sweep && (sweep.soak || sweep.chaos_axis) {
        return Err("--soak / --with-chaos only apply to sweep runs".into());
    }
    if !matches!(mode, Mode::Sweep | Mode::Scale) && sweep.threads.is_some() {
        return Err("--threads only applies to sweep and scale runs".into());
    }
    if mode != Mode::Sweep && mobilities.is_some() {
        return Err("--mobility only applies to sweep runs".into());
    }
    if mode != Mode::Scale && scale.sizes.is_some() {
        return Err("--n only applies to scale runs".into());
    }
    if !matches!(mode, Mode::Sweep | Mode::Fuzz | Mode::Scale) && sweep.out.is_some() {
        return Err("--out only applies to sweep, fuzz, and scale runs".into());
    }
    if mode != Mode::Fuzz && (fuzz.time_budget.is_some() || fuzz.protocol.is_some()) {
        return Err("--time-budget / --protocol only apply to fuzz runs".into());
    }
    if mode != Mode::Gate && (sweep.tolerance.is_some() || sweep.subset) {
        return Err("--tolerance / --subset only apply to gate runs".into());
    }
    if mode == Mode::Gate && sweep.gate_files.len() != 2 {
        return Err("gate needs exactly two files: gate BASELINE CANDIDATE".into());
    }
    if !matches!(mode, Mode::Check | Mode::Replay | Mode::Fuzz) && artifact_dir.is_some() {
        return Err("--artifact-dir only applies to check, replay and fuzz runs".into());
    }
    Ok(Args {
        mode,
        common: CommonOpts {
            opts,
            metrics_out,
            trace_out,
            mobilities,
        },
        fig,
        csv_dir,
        loss,
        head_kills,
        fault_plan,
        replay,
        artifact_dir,
        sweep,
        fuzz,
        scale,
    })
}

/// Runs `repro sweep`: the parallel grid sweep (or the chaos soak),
/// writing the merged artifact when `--out` is given.
fn run_sweep_mode(args: &Args) -> ExitCode {
    let threads = args.sweep.threads.unwrap_or_else(|| {
        std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4)
    });
    if args.sweep.soak {
        let nn = if args.common.opts.quick { 8 } else { 16 };
        let report = harness::run_soak(nn, args.common.opts.rounds, args.common.opts.seed, threads);
        print!("{}", report.render_text());
        return if report.violations() == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    let mut grid = if args.common.opts.quick {
        harness::SweepGrid::smoke(args.common.opts.seed)
    } else {
        harness::SweepGrid::full(args.common.opts.seed)
    };
    if args.sweep.chaos_axis {
        grid.plans = vec![
            "none".into(),
            "storm".into(),
            "splitbrain".into(),
            "reaper".into(),
        ];
    }
    if let Some(mobilities) = &args.common.mobilities {
        grid.mobilities = mobilities.clone();
    }
    let report = match harness::run_sweep(&grid, threads) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (cell, panic) in &report.failed {
        eprintln!("sweep FAIL {cell}: {panic}");
    }
    eprintln!(
        "sweep: {} cells over {} threads, {} failed, fingerprint fnv1a:{:016x}",
        report.cells.len(),
        threads,
        report.failed.len(),
        report.fingerprint()
    );
    if let Some(path) = &args.sweep.out {
        let json = if std::env::var_os("REPRO_NO_WALL_CLOCK").is_some() {
            report.deterministic_json()
        } else {
            report.to_json()
        };
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {}", path.display());
    }
    if report.failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `repro scale`: the sharded city-scale join storm, writing
/// `BENCH_scale.json` when `--out` is given. Honors `--threads`,
/// `--seed`, and `--quick`; `--n` (repeatable) overrides the size
/// axis.
fn run_scale_mode(args: &Args) -> ExitCode {
    let cfg = harness::ScaleConfig {
        sizes: args.scale.sizes.clone().unwrap_or_else(|| {
            if args.common.opts.quick {
                vec![1_000]
            } else {
                harness::scale::DEFAULT_SIZES.to_vec()
            }
        }),
        base_seed: args.common.opts.seed,
        threads: args.sweep.threads.unwrap_or(0),
        quick: args.common.opts.quick,
        ..harness::ScaleConfig::default()
    };
    let report = harness::run_scale(&cfg);
    for (cell, shard, panic) in &report.failed {
        eprintln!("scale FAIL {cell} shard {shard}: {panic}");
    }
    for c in &report.cells {
        eprintln!(
            "scale n={} shards={} configured={} sim={}s wall={}s",
            c.nn,
            c.shards,
            c.metrics.configured_nodes(),
            c.sim_us / 1_000_000,
            c.wall_us / 1_000_000,
        );
    }
    eprintln!("scale: fingerprint fnv1a:{:016x}", report.fingerprint());
    if let Some(path) = &args.sweep.out {
        let json = if std::env::var_os("REPRO_NO_WALL_CLOCK").is_some() {
            report.deterministic_json()
        } else {
            report.to_json()
        };
        if let Err(e) = harness::artifact::write_file(path, &json) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {}", path.display());
    }
    if report.failed.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs `repro fuzz`: a coverage-guided campaign against one protocol,
/// writing shrunk finding artifacts (`--artifact-dir`) and the
/// deterministic campaign report (`--out`). Exits nonzero when the
/// fuzzer found invariant violations.
fn run_fuzz_mode(args: &Args) -> ExitCode {
    let budget_text = args.fuzz.time_budget.as_deref().unwrap_or("60s");
    let budget = match harness::parse_time_budget(budget_text) {
        Ok(b) => b,
        Err(e) => {
            eprintln!("error: --time-budget: {e}");
            return ExitCode::FAILURE;
        }
    };
    let protocol = args
        .fuzz
        .protocol
        .clone()
        .unwrap_or_else(|| "quorum".into());
    if !conformance::registry::CHECKABLE.contains(&protocol.as_str()) {
        eprintln!(
            "error: --protocol {protocol:?} is not checkable; pick one of {}",
            conformance::registry::CHECKABLE.join(", ")
        );
        return ExitCode::FAILURE;
    }
    let report = harness::run_fuzz(&harness::FuzzConfig {
        protocol,
        budget,
        seed: args.common.opts.seed,
        quick: args.common.opts.quick,
    });
    print!("{}", report.render_text());
    if let Some(dir) = &args.artifact_dir {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: creating {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        for (i, finding) in report.findings.iter().enumerate() {
            let path = dir.join(format!("fuzz-{}-{i}.repro", report.protocol));
            if let Err(e) = std::fs::write(&path, finding.artifact.to_text()) {
                eprintln!("error: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {}", path.display());
        }
    }
    if let Some(path) = &args.sweep.out {
        if let Err(e) = std::fs::write(path, report.render_text()) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {}", path.display());
    }
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "fuzz: {} invariant violation(s) found (artifacts above are replayable)",
            report.findings.len()
        );
        ExitCode::FAILURE
    }
}

/// Runs `repro mesh`: the canned
/// schedules end-to-end on both transports, demanding byte-identical
/// transcripts. Exits nonzero on any divergence, printing the minimized
/// first-difference report.
fn run_mesh_mode(args: &Args) -> ExitCode {
    let cells = harness::mesh_equiv_suite(args.common.opts.quick, args.common.opts.seed);
    let mut failed = false;
    for cell in &cells {
        println!("{}", cell.line());
        if let Some(diff) = &cell.diff {
            failed = true;
            eprintln!("{diff}");
        }
        failed |= !cell.ok();
    }
    if failed {
        eprintln!("mesh: transcript divergence between simulator and UDP mesh (see diffs above)");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// Runs `repro gate BASELINE CANDIDATE`: nonzero exit on regression.
fn run_gate_mode(args: &Args) -> ExitCode {
    let read = |path: &std::path::Path| -> Result<String, ExitCode> {
        std::fs::read_to_string(path).map_err(|e| {
            eprintln!("error: reading {}: {e}", path.display());
            ExitCode::FAILURE
        })
    };
    let (baseline, candidate) = (&args.sweep.gate_files[0], &args.sweep.gate_files[1]);
    let (base_text, cand_text) = match (read(baseline), read(candidate)) {
        (Ok(b), Ok(c)) => (b, c),
        (Err(code), _) | (_, Err(code)) => return code,
    };
    let tolerance = args.sweep.tolerance.unwrap_or(0.10);
    let result = if args.sweep.subset {
        harness::gate_subset(&base_text, &cand_text, tolerance)
    } else {
        harness::gate(&base_text, &cand_text, tolerance)
    };
    match result {
        Ok(report) => {
            print!("{}", report.render_text());
            if report.pass() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Runs `repro replay FILE` (the replay of one artifact) or `repro
/// check` (the full protocol × schedule suite, with shrunk artifacts
/// written on failure).
fn run_check_mode(args: &Args) -> ExitCode {
    if let Some(path) = &args.replay {
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: reading {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        };
        let (line, ok) = harness::oracle::replay_file(&text);
        println!("{line}");
        return if ok {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }

    let write_artifact = |stem: &str, text: String| -> Result<(), ExitCode> {
        let Some(dir) = &args.artifact_dir else {
            return Ok(());
        };
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: creating {}: {e}", dir.display());
            return Err(ExitCode::FAILURE);
        }
        let path = dir.join(format!("{stem}.repro"));
        if let Err(e) = std::fs::write(&path, text) {
            eprintln!("error: writing {}: {e}", path.display());
            return Err(ExitCode::FAILURE);
        }
        eprintln!("wrote {}", path.display());
        Ok(())
    };

    let cells = harness::oracle::check_suite(args.common.opts.quick);
    let mut failed = false;
    for cell in &cells {
        println!("{}", cell.report_line());
        let Some(artifact) = &cell.artifact else {
            continue;
        };
        failed = true;
        if let Err(code) = write_artifact(
            &format!("{}-{}", cell.protocol, cell.schedule),
            artifact.to_text(),
        ) {
            return code;
        }
    }
    // The attack-canary smoke rides along: the oracle must flag every
    // pinned adversarial schedule, and hardened QBAC must hold it.
    for cell in harness::attacks::canary_suite() {
        println!("{}", cell.line);
        failed |= !cell.ok;
        if let Some(artifact) = &cell.artifact {
            if let Err(code) = write_artifact(&cell.stem, artifact.to_text()) {
                return code;
            }
        }
    }
    if failed {
        eprintln!("conformance: invariant violations found (artifacts above are replayable)");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::FAILURE;
        }
    };

    if matches!(args.mode, Mode::Check | Mode::Replay) {
        return run_check_mode(&args);
    }
    if args.mode == Mode::Sweep {
        return run_sweep_mode(&args);
    }
    if args.mode == Mode::Gate {
        return run_gate_mode(&args);
    }
    if args.mode == Mode::Fuzz {
        return run_fuzz_mode(&args);
    }
    if args.mode == Mode::Scale {
        return run_scale_mode(&args);
    }
    if args.mode == Mode::Mesh {
        return run_mesh_mode(&args);
    }
    if args.mode == Mode::Attacks {
        let outcomes = harness::attacks::attack_suite();
        println!("{}", harness::attacks::attack_table(&outcomes).to_ascii());
        let clean = outcomes
            .iter()
            .all(|o| o.open.violation.is_some() && o.hardened.violation.is_none());
        return if clean {
            ExitCode::SUCCESS
        } else {
            eprintln!("attacks: a canary missed its expected shape (see table notes)");
            ExitCode::FAILURE
        };
    }

    let mut phases: Vec<Phase> = Vec::new();
    let mut timed = |name: String, f: &mut dyn FnMut() -> Vec<harness::Table>| {
        let t0 = Instant::now();
        let tables = f();
        phases.push(Phase {
            name,
            wall_us: t0.elapsed().as_micros() as u64,
        });
        tables
    };

    let tables = if args.mode == Mode::Chaos {
        let opts = ChaosOpts {
            fig: args.common.opts,
            loss: args.loss,
            head_kills: args.head_kills.unwrap_or(2),
            extra_plan: args.fault_plan.clone(),
        };
        let t0 = Instant::now();
        let tables = match chaos_suite(&opts) {
            Ok(tables) => tables,
            Err(e) => {
                eprintln!("error: --fault-plan: {e}");
                return ExitCode::FAILURE;
            }
        };
        phases.push(Phase {
            name: "chaos".into(),
            wall_us: t0.elapsed().as_micros() as u64,
        });
        tables
    } else {
        match args.fig {
            Some(n) => match figures::by_number(n, &args.common.opts) {
                Some(t) => {
                    phases.push(Phase {
                        name: format!("fig{n:02}"),
                        wall_us: 0,
                    });
                    let t0 = Instant::now();
                    let tables = t;
                    phases.last_mut().expect("just pushed").wall_us =
                        t0.elapsed().as_micros() as u64;
                    tables
                }
                None => {
                    eprintln!("error: no figure {n}; figures are 4-14 plus extras 15 (fragmentation), 16 (ablation), 17 (stateless DAD), 18 (routing staleness)");
                    return ExitCode::FAILURE;
                }
            },
            None => {
                let mut tables = Vec::new();
                for n in 4..=18u32 {
                    let fig_tables = timed(format!("fig{n:02}"), &mut || {
                        figures::by_number(n, &args.common.opts).expect("figures 4-18 exist")
                    });
                    tables.extend(fig_tables);
                }
                tables
            }
        }
    };

    for t in &tables {
        println!("{}", t.to_ascii());
    }

    if let Some(dir) = args.csv_dir {
        if let Err(e) = std::fs::create_dir_all(&dir) {
            eprintln!("error: creating {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        for t in &tables {
            let slug: String = t
                .title
                .chars()
                .take_while(|c| *c != '—')
                .filter(|c| c.is_ascii_alphanumeric())
                .collect::<String>()
                .to_lowercase();
            let path = dir.join(format!("{slug}.csv"));
            if let Err(e) = std::fs::write(&path, t.to_csv()) {
                eprintln!("error: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {}", path.display());
        }
    }

    if let Some(path) = &args.common.metrics_out {
        let t0 = Instant::now();
        let protocols = snapshot::protocol_runs(args.common.opts.seed, args.common.opts.quick);
        phases.push(Phase {
            name: "snapshot".into(),
            wall_us: t0.elapsed().as_micros() as u64,
        });
        let snap = Snapshot {
            params: SnapshotParams {
                seed: args.common.opts.seed,
                rounds: args.common.opts.rounds,
                quick: args.common.opts.quick,
                fig: args.fig,
                chaos: args.mode == Mode::Chaos,
                loss: args.loss,
                head_kills: args.head_kills,
            },
            phases: phases.clone(),
            protocols,
        };
        let json = if std::env::var_os("REPRO_NO_WALL_CLOCK").is_some() {
            snap.deterministic_json()
        } else {
            snap.to_json()
        };
        if let Err(e) = std::fs::write(path, json) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {}", path.display());
    }

    if let Some(dir) = &args.common.trace_out {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("error: creating {}: {e}", dir.display());
            return ExitCode::FAILURE;
        }
        for (name, jsonl) in
            snapshot::protocol_traces(args.common.opts.seed, args.common.opts.quick)
        {
            let path = dir.join(format!("{name}.jsonl"));
            if let Err(e) = std::fs::write(&path, jsonl) {
                eprintln!("error: writing {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
            eprintln!("wrote {}", path.display());
        }
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::{parse_args, Mode};

    fn argv(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(str::to_string)
    }

    #[test]
    fn chaos_flags_require_chaos_mode() {
        for flags in ["--loss 0.1", "--head-kills 3"] {
            let err = parse_args(argv(flags)).unwrap_err();
            assert!(
                err.contains("only apply to chaos"),
                "{flags}: unexpected error {err}"
            );
        }
        // Under chaos they parse.
        let a = parse_args(argv("chaos --loss 0.1 --head-kills 3")).unwrap();
        assert_eq!(a.mode, Mode::Chaos);
        assert_eq!(a.loss, Some(0.1));
        assert_eq!(a.head_kills, Some(3));
    }

    #[test]
    fn head_kills_defaults_without_explicit_flag() {
        let a = parse_args(argv("chaos")).unwrap();
        assert_eq!(a.head_kills, None, "default applied later, at use site");
    }

    #[test]
    fn subcommands_select_modes() {
        assert_eq!(parse_args(argv("")).unwrap().mode, Mode::Figures);
        assert_eq!(parse_args(argv("figures")).unwrap().mode, Mode::Figures);
        assert_eq!(parse_args(argv("figures --fig 5")).unwrap().fig, Some(5));
        assert_eq!(parse_args(argv("chaos")).unwrap().mode, Mode::Chaos);
        assert_eq!(parse_args(argv("check --quick")).unwrap().mode, Mode::Check);
        assert_eq!(parse_args(argv("attacks")).unwrap().mode, Mode::Attacks);
        assert_eq!(parse_args(argv("mesh --quick")).unwrap().mode, Mode::Mesh);

        let a = parse_args(argv("replay out/quorum-storm.repro")).unwrap();
        assert_eq!(a.mode, Mode::Replay);
        assert_eq!(
            a.replay.as_deref().unwrap().to_str(),
            Some("out/quorum-storm.repro")
        );
    }

    #[test]
    fn subcommands_accept_mode_scoped_flags() {
        let a = parse_args(argv("chaos --loss 0.1 --head-kills 3")).unwrap();
        assert_eq!(a.mode, Mode::Chaos);
        assert_eq!(a.loss, Some(0.1));
        assert_eq!(a.head_kills, Some(3));

        let a = parse_args(argv("check --artifact-dir out")).unwrap();
        assert_eq!(a.mode, Mode::Check);
        assert_eq!(a.artifact_dir.as_deref().unwrap().to_str(), Some("out"));

        // Mode-scoped flags stay rejected outside their subcommand.
        assert!(parse_args(argv("figures --loss 0.1")).is_err());
        assert!(parse_args(argv("check --loss 0.1")).is_err());
        assert!(parse_args(argv("figures --artifact-dir out")).is_err());
        assert!(parse_args(argv("attacks --loss 0.1")).is_err());
        assert!(parse_args(argv("attacks --artifact-dir out")).is_err());
    }

    #[test]
    fn retired_flat_flags_are_unknown_arguments() {
        // The flat mode flags the subcommands replaced, and the removed
        // transport and topology selectors: each is rejected on its own
        // and after a subcommand.
        for (name, value) in [
            ("chaos", ""),
            ("check", ""),
            ("replay", " out/quorum-storm.repro"),
            ("backend", " mesh"),
            ("engine", " parallel:4"),
        ] {
            let flag = format!("--{name}");
            for line in [format!("{flag}{value}"), format!("chaos {flag}{value}")] {
                let err = parse_args(argv(&line)).unwrap_err();
                assert_eq!(err, format!("unknown argument: {flag}"), "{line}");
            }
        }
    }

    #[test]
    fn replay_subcommand_requires_a_file() {
        assert!(parse_args(argv("replay")).is_err());
        assert!(parse_args(argv("replay --quick")).is_err());
    }

    #[test]
    fn sweep_and_gate_subcommands_parse() {
        let a = parse_args(argv("sweep --quick --threads 4 --out sweep.json")).unwrap();
        assert_eq!(a.mode, Mode::Sweep);
        assert!(a.common.opts.quick);
        assert_eq!(a.sweep.threads, Some(4));
        assert_eq!(a.sweep.out.as_deref().unwrap().to_str(), Some("sweep.json"));
        assert!(!a.sweep.soak && !a.sweep.chaos_axis);

        let a = parse_args(argv("sweep --soak --rounds 3 --with-chaos")).unwrap();
        assert!(a.sweep.soak && a.sweep.chaos_axis);
        assert_eq!(a.common.opts.rounds, 3);

        let a = parse_args(argv("gate BENCH_sweep.json sweep.json --tolerance 0.2")).unwrap();
        assert_eq!(a.mode, Mode::Gate);
        assert_eq!(a.sweep.tolerance, Some(0.2));
        assert_eq!(a.sweep.gate_files.len(), 2);

        // Sweep/gate flags stay rejected outside their modes.
        assert!(parse_args(argv("figures --threads 2")).is_err());
        assert!(parse_args(argv("chaos --out x.json")).is_err());
        assert!(parse_args(argv("figures --soak")).is_err());
        assert!(parse_args(argv("sweep --tolerance 0.1")).is_err());
        // Gate arity and sweep flag domains are validated.
        assert!(parse_args(argv("gate only-one.json")).is_err());
        assert!(parse_args(argv("gate")).is_err());
        assert!(parse_args(argv("sweep --threads 0")).is_err());
        assert!(parse_args(argv("gate a.json b.json --tolerance -1")).is_err());
    }

    #[test]
    fn output_flags_parse() {
        let a = parse_args(argv("--quick --metrics-out snap.json --trace-out traces")).unwrap();
        assert!(a.common.opts.quick);
        assert_eq!(
            a.common.metrics_out.as_deref().unwrap().to_str(),
            Some("snap.json")
        );
        assert_eq!(
            a.common.trace_out.as_deref().unwrap().to_str(),
            Some("traces")
        );
    }

    #[test]
    fn unknown_and_malformed_arguments_error() {
        assert!(parse_args(argv("--bogus")).is_err());
        assert!(parse_args(argv("--rounds 0")).is_err());
        assert!(parse_args(argv("chaos --loss 1.5")).is_err());
        assert!(parse_args(argv("--metrics-out")).is_err());
    }

    #[test]
    fn check_flags_parse_and_are_gated() {
        let a = parse_args(argv("check --quick --artifact-dir out")).unwrap();
        assert!(a.mode == Mode::Check && a.common.opts.quick);
        assert_eq!(a.artifact_dir.as_deref().unwrap().to_str(), Some("out"));

        let err = parse_args(argv("--artifact-dir out")).unwrap_err();
        assert!(err.contains("check, replay and fuzz"), "{err}");
    }

    #[test]
    fn fuzz_subcommand_parses_and_gates_its_flags() {
        let a = parse_args(argv(
            "fuzz --time-budget 60s --seed 42 --protocol quorum --quick --artifact-dir out --out fuzz.txt",
        ))
        .unwrap();
        assert_eq!(a.mode, Mode::Fuzz);
        assert_eq!(a.fuzz.time_budget.as_deref(), Some("60s"));
        assert_eq!(a.fuzz.protocol.as_deref(), Some("quorum"));
        assert_eq!(a.common.opts.seed, 42);
        assert!(a.common.opts.quick);
        assert_eq!(a.artifact_dir.as_deref().unwrap().to_str(), Some("out"));
        assert_eq!(a.sweep.out.as_deref().unwrap().to_str(), Some("fuzz.txt"));

        // Defaults: budget and protocol resolved at the run site.
        let a = parse_args(argv("fuzz")).unwrap();
        assert_eq!(a.mode, Mode::Fuzz);
        assert!(a.fuzz.time_budget.is_none() && a.fuzz.protocol.is_none());

        // Fuzz flags stay rejected outside fuzz runs.
        assert!(parse_args(argv("figures --time-budget 60s")).is_err());
        assert!(parse_args(argv("sweep --protocol quorum")).is_err());
        assert!(parse_args(argv("--time-budget")).is_err());
    }

    #[test]
    fn sweep_mobility_flag_is_repeatable_and_gated() {
        let a = parse_args(argv(
            "sweep --quick --mobility manhattan:100 --mobility group:4,50",
        ))
        .unwrap();
        assert_eq!(
            a.common.mobilities.as_deref(),
            Some(&["manhattan:100".to_string(), "group:4,50".to_string()][..])
        );
        assert!(parse_args(argv("figures --mobility manhattan:100")).is_err());
        assert!(parse_args(argv("fuzz --mobility manhattan:100")).is_err());
        assert!(parse_args(argv("sweep --mobility")).is_err());
        // Malformed specs die at parse time, not mid-sweep.
        let err = parse_args(argv("sweep --mobility warp:9")).unwrap_err();
        assert!(err.contains("--mobility"), "{err}");
    }

    #[test]
    fn scale_subcommand_parses_and_gates_its_flags() {
        let a = parse_args(argv(
            "scale --quick --n 1000 --n 10000 --threads 8 --seed 7 --out BENCH_scale.json",
        ))
        .unwrap();
        assert_eq!(a.mode, Mode::Scale);
        assert!(a.common.opts.quick);
        assert_eq!(a.common.opts.seed, 7);
        assert_eq!(a.scale.sizes.as_deref(), Some(&[1000usize, 10000][..]));
        assert_eq!(a.sweep.threads, Some(8));
        assert_eq!(
            a.sweep.out.as_deref().unwrap().to_str(),
            Some("BENCH_scale.json")
        );

        // Defaults: sizes resolved at the run site.
        let a = parse_args(argv("scale")).unwrap();
        assert!(a.scale.sizes.is_none());

        // Scale flags stay rejected outside scale runs.
        assert!(parse_args(argv("figures --n 1000")).is_err());
        assert!(parse_args(argv("chaos --n 1000")).is_err());
        assert!(parse_args(argv("scale --n 0")).is_err());
    }

    #[test]
    fn gate_subset_flag_is_gated_to_gate_mode() {
        let a = parse_args(argv("gate BENCH_scale.json scale.json --subset")).unwrap();
        assert_eq!(a.mode, Mode::Gate);
        assert!(a.sweep.subset);
        let a = parse_args(argv("gate a.json b.json")).unwrap();
        assert!(!a.sweep.subset);
        let err = parse_args(argv("sweep --subset")).unwrap_err();
        assert!(err.contains("gate"), "{err}");
    }
}
