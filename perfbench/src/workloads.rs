//! The four workloads, each run two ways: untraced through the public
//! entry point `repro` itself calls, and traced by replaying the same
//! shards or cells through `Scenario::builder()` + `run_scenario` with
//! every protocol wrapped in [`Traced`].
//!
//! Every config is a preset plus field edits, so the benchmark names no
//! engine selector: deleting one changes no line here.

use crate::trace::{Profile, Traced, WorldKind};
use baselines::{buddy::Buddy, ctree::CTree, dad::QueryDad, manetconf::ManetConf};
use harness::artifact::fnv1a;
use harness::{
    mesh_equiv_suite, run_jobs, run_scale, run_scenario, run_scenario_with, run_sweep, EquivCell,
    RunReport, ScaleConfig, ScaleReport, Scenario, SweepGrid, SweepReport,
};
use manet_sim::observer::all_kinds;
use manet_sim::{FaultPlan, FlowTally, Metrics, MobilityConfig, NodeId, Protocol, World};
use qbac_core::{ProtocolConfig, Qbac};
use std::collections::{BTreeMap, HashMap};
use std::thread::ThreadId;
use std::time::{Duration, Instant};
use transport_mesh::MeshShadow;

/// Worker threads every pooled workload runs on (the 2-core host the
/// baselines were taken on).
pub const THREADS: usize = 2;
/// Node count of the sharded storm: 79 shards of ~128 nodes.
const SHARDED_NN: usize = 10_000;
/// Node count of the unsharded storm: about 2.5 s a world on the
/// reference host, deep in the super-linear regime.
pub const WORLD_NN: usize = 512;
/// Joins per sweep cell beyond `nn`: the cell drive's post-departure
/// arrivals.
const SWEEP_POST_ARRIVALS: u64 = 2;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    StormSharded,
    StormWorld,
    SweepMobileChaos,
    MeshWire,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::StormSharded,
        Workload::StormWorld,
        Workload::SweepMobileChaos,
        Workload::MeshWire,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::StormSharded => "storm-sharded",
            Workload::StormWorld => "storm-world",
            Workload::SweepMobileChaos => "sweep-mobile-chaos",
            Workload::MeshWire => "mesh-wire",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The workload seeds one run cycles through. A run covers the pool
    /// in whole cycles, so runs with different `--seed`s time the same
    /// inputs in a different order: one world's size varies by ±15 %
    /// between seeds, which would otherwise swamp any regression bound.
    pub fn pool(self) -> &'static [u64] {
        match self {
            Workload::StormSharded | Workload::StormWorld => &[1, 2, 3],
            Workload::SweepMobileChaos => &[1, 2],
            Workload::MeshWire => &[1, 2, 3, 4, 5, 6, 7, 8],
        }
    }

    /// Whether a call runs on the calling thread alone.
    pub fn single_threaded(self) -> bool {
        self == Workload::StormWorld
    }

    /// The seed no tuning ever ran on: a claimed gain must also hold
    /// with `--held-out`.
    pub const HELD_OUT: u64 = 97;

    /// A reduced instance of the workload, run during set-up so code
    /// and allocator pages are warm before the first timed call. Each
    /// takes a few tenths of a second: shorter set-ups read mostly
    /// process and thread start-up noise.
    pub fn warm_up(self) {
        match self {
            Workload::StormSharded => {
                std::hint::black_box(run_scale(&scale_config(1, 1_000)));
            }
            Workload::StormWorld => {
                std::hint::black_box(
                    run_scenario(&world_scenario(1, 384), qbac())
                        .metrics()
                        .clone(),
                );
            }
            Workload::SweepMobileChaos => {
                let grid = SweepGrid {
                    sizes: vec![100],
                    ..sweep_grid(1)
                };
                std::hint::black_box(
                    run_sweep(&grid, THREADS).expect("sweep grid names are valid"),
                );
            }
            Workload::MeshWire => {
                std::hint::black_box(mesh_equiv_suite(true, 0));
            }
        }
    }

    /// The untraced entry call. Only this is timed.
    pub fn call(self, seed: u64) -> Raw {
        match self {
            Workload::StormSharded => Raw::Scale(run_scale(&scale_config(seed, SHARDED_NN))),
            Workload::StormWorld => Raw::World(Box::new(run_scenario(
                &world_scenario(seed, WORLD_NN),
                qbac(),
            ))),
            Workload::SweepMobileChaos => Raw::Sweep(
                run_sweep(&sweep_grid(seed), THREADS).expect("sweep grid names are valid"),
            ),
            Workload::MeshWire => Raw::Mesh(mesh_equiv_suite(false, seed)),
        }
    }
}

/// What an untraced call returned.
pub enum Raw {
    Scale(ScaleReport),
    World(Box<RunReport<Qbac>>),
    Sweep(SweepReport),
    Mesh(Vec<EquivCell>),
}

/// A deterministic description of the work one call did. Two calls on
/// one seed must produce equal shapes; a drift is a determinism alarm.
pub type Shape = BTreeMap<&'static str, String>;

/// What one untraced call did, digested after the timer stopped.
pub struct Outcome {
    /// Behaviour fingerprint: FNV-1a over the behaviour metrics (never
    /// the engine's perf counters), or over the mesh transcripts.
    pub fingerprint: String,
    /// Simulation jobs run (shards, worlds, cells, mesh cells) and how
    /// many of them panicked or disagreed between backends.
    pub jobs: u64,
    pub failed_jobs: u64,
    /// The workload's user-level operations: joins, or datagram hops
    /// for `mesh-wire`, and how many failed.
    pub ops: u64,
    pub failed_ops: u64,
    /// Simulator events dispatched (for `mesh-wire` filled in from a
    /// replay, since the suite returns no counters).
    pub events: u64,
    pub datagrams: u64,
    pub shape: Shape,
    pub problems: Vec<String>,
    /// Wall of the part of the call a traced replay re-runs, when the
    /// call does more: `run_scale` also times its topology engines.
    pub replayed_s: Option<f64>,
}

fn qbac() -> Qbac {
    Qbac::new(ProtocolConfig::default())
}

fn scale_config(seed: u64, n: usize) -> ScaleConfig {
    ScaleConfig {
        sizes: vec![n],
        threads: THREADS,
        base_seed: seed,
        ..ScaleConfig::default()
    }
}

/// The shard knobs of `harness::scale` applied to one unsharded world
/// whose arena grows with √n.
fn world_scenario(seed: u64, nn: usize) -> Scenario {
    Scenario::builder()
        .nn(nn)
        .speed_mps(0.0)
        .arrival_gap_ms(100)
        .settle_secs(5)
        .connected_arrivals(true)
        .area_m(1000.0 * (nn as f64 / 128.0).sqrt())
        .seed(seed)
        .build()
        .expect("storm-world scenario is in-domain")
}

fn sweep_grid(seed: u64) -> SweepGrid {
    SweepGrid {
        sizes: vec![100, 200],
        speeds: vec![20.0],
        losses: vec![0.1],
        plans: vec!["none".into(), "storm".into(), "splitbrain".into()],
        reps: 1,
        ..SweepGrid::full(seed)
    }
}

pub fn fingerprint_str(bytes: &[u8]) -> String {
    format!("fnv1a:{:016x}", fnv1a(bytes))
}

fn flows_text(flows: &[(String, FlowTally)]) -> String {
    flows
        .iter()
        .map(|(k, t)| {
            format!(
                "{k}:{},{},{},{},{};",
                t.started, t.assigned, t.abandoned, t.finalized, t.retries
            )
        })
        .collect()
}

/// The sweep's behaviour fingerprint: every cell's key, metrics and
/// flow tallies. Unlike `SweepReport::fingerprint` it leaves out the
/// engine's perf counters, so an engine change that keeps behaviour
/// (fewer queue entries, say) needs no new pin.
fn sweep_fingerprint<'a>(cells: impl Iterator<Item = (String, &'a Metrics, String)>) -> String {
    let mut text = String::new();
    for (key, m, flows) in cells {
        text.push_str(&key);
        text.push('|');
        text.push_str(&m.to_json());
        text.push('|');
        text.push_str(&flows);
        text.push('\n');
    }
    fingerprint_str(text.as_bytes())
}

pub fn perf_shape(shape: &mut Shape, m: &Metrics) {
    let p = m.perf();
    let f = m.faults();
    shape.insert("events", p.events.to_string());
    shape.insert("deliveries", p.deliveries.to_string());
    shape.insert("queue_high_water", p.queue_high_water.to_string());
    shape.insert("topo_builds", p.topo_builds.to_string());
    shape.insert("topo_hits", p.topo_hits.to_string());
    shape.insert("faults.dropped", f.dropped.to_string());
    shape.insert("faults.delayed", f.delayed.to_string());
    shape.insert("faults.duplicated", f.duplicated.to_string());
    shape.insert("faults.crashes", f.crashes.to_string());
}

/// Degree and component census of a world's current link map.
#[derive(Debug, Clone, Copy, Default)]
pub struct Census {
    pub nodes: u64,
    pub degree_sum: u64,
    pub degree_max: u64,
    pub components: u64,
}

impl Census {
    fn of<M: Clone + std::fmt::Debug>(world: &mut World<M>) -> Census {
        let alive: Vec<NodeId> = world.alive_nodes();
        let topo = world.topology();
        let degrees: Vec<u64> = alive
            .iter()
            .map(|n| topo.neighbor_indices(*n).len() as u64)
            .collect();
        Census {
            nodes: alive.len() as u64,
            degree_sum: degrees.iter().sum(),
            degree_max: degrees.iter().copied().max().unwrap_or(0),
            components: topo.components().len() as u64,
        }
    }

    fn merge(&mut self, o: &Census) {
        self.nodes += o.nodes;
        self.degree_sum += o.degree_sum;
        self.degree_max = self.degree_max.max(o.degree_max);
        self.components += o.components;
    }

    pub fn degree_mean(&self) -> f64 {
        if self.nodes == 0 {
            0.0
        } else {
            self.degree_sum as f64 / self.nodes as f64
        }
    }

    fn record(&self, shape: &mut Shape) {
        shape.insert("degree_mean", format!("{:.4}", self.degree_mean()));
        shape.insert("degree_max", self.degree_max.to_string());
        shape.insert("components", self.components.to_string());
    }
}

impl Workload {
    /// Digests an untraced call's result into its outcome.
    pub fn digest(self, raw: Raw) -> Outcome {
        let mut shape = Shape::new();
        let mut problems = Vec::new();
        match raw {
            Raw::Scale(r) => {
                let cell = &r.cells[0];
                perf_shape(&mut shape, &cell.metrics);
                shape.insert(
                    "report_fingerprint",
                    format!("fnv1a:{:016x}", r.fingerprint()),
                );
                for (key, shard, msg) in &r.failed {
                    problems.push(format!("{key} shard {shard} panicked: {msg}"));
                }
                let configured = cell.metrics.configured_nodes();
                Outcome {
                    fingerprint: fingerprint_str(cell.metrics.to_json().as_bytes()),
                    jobs: (cell.shards + r.failed.len()) as u64,
                    failed_jobs: r.failed.len() as u64,
                    ops: SHARDED_NN as u64,
                    failed_ops: (SHARDED_NN as u64).saturating_sub(configured),
                    events: cell.metrics.perf().events,
                    datagrams: 0,
                    shape,
                    problems,
                    replayed_s: Some(cell.wall_us as f64 * 1e-6),
                }
            }
            Raw::World(mut r) => {
                perf_shape(&mut shape, r.metrics());
                // Static nodes and no departures: the link map at the
                // end of the run is the one at the end of arrivals.
                Census::of(r.sim_mut().world_mut()).record(&mut shape);
                let m = r.metrics();
                Outcome {
                    fingerprint: fingerprint_str(m.to_json().as_bytes()),
                    jobs: 1,
                    failed_jobs: 0,
                    ops: WORLD_NN as u64,
                    failed_ops: (WORLD_NN as u64).saturating_sub(m.configured_nodes()),
                    events: m.perf().events,
                    datagrams: 0,
                    shape,
                    problems,
                    replayed_s: None,
                }
            }
            Raw::Sweep(r) => {
                let mut all = Metrics::new();
                let mut joins = 0;
                let mut configured = 0;
                for c in &r.cells {
                    all.merge(&c.metrics);
                    joins += c.params.nn as u64 + SWEEP_POST_ARRIVALS;
                    configured += c
                        .metrics
                        .configured_nodes()
                        .min(c.params.nn as u64 + SWEEP_POST_ARRIVALS);
                }
                perf_shape(&mut shape, &all);
                shape.insert(
                    "report_fingerprint",
                    format!("fnv1a:{:016x}", r.fingerprint()),
                );
                for (key, msg) in &r.failed {
                    problems.push(format!("cell {key} panicked: {msg}"));
                }
                let fingerprint = sweep_fingerprint(
                    r.cells
                        .iter()
                        .map(|c| (c.params.key(), &c.metrics, flows_text(&c.flows))),
                );
                Outcome {
                    fingerprint,
                    jobs: (r.cells.len() + r.failed.len()) as u64,
                    failed_jobs: r.failed.len() as u64,
                    ops: joins,
                    failed_ops: joins - configured,
                    events: all.perf().events,
                    datagrams: 0,
                    shape,
                    problems,
                    replayed_s: None,
                }
            }
            Raw::Mesh(cells) => {
                let mut text = String::new();
                let (mut datagrams, mut retries, mut filtered, mut diverged_hops) = (0, 0, 0, 0);
                let mut failed = 0;
                for c in &cells {
                    text.push_str(&c.sim_fingerprint);
                    datagrams += c.stats.datagrams;
                    retries += c.stats.retries;
                    filtered += c.stats.filtered;
                    if !c.ok() {
                        failed += 1;
                        diverged_hops += c.stats.datagrams;
                        problems.push(format!("{}\n{}", c.line(), c.diff.as_deref().unwrap_or("")));
                    }
                    if c.stats.datagrams == 0 {
                        problems.push(format!("{}: moved no datagrams", c.line()));
                    }
                }
                shape.insert("datagrams", datagrams.to_string());
                shape.insert("filtered", filtered.to_string());
                shape.insert(
                    "records",
                    cells.iter().map(|c| c.records).sum::<usize>().to_string(),
                );
                Outcome {
                    fingerprint: fingerprint_str(text.as_bytes()),
                    jobs: cells.len() as u64,
                    failed_jobs: failed,
                    ops: datagrams,
                    failed_ops: (retries + diverged_hops).min(datagrams),
                    events: 0,
                    datagrams,
                    shape,
                    problems,
                    replayed_s: None,
                }
            }
        }
    }
}

// ----------------------------------------------------------------------
// Traced replays
// ----------------------------------------------------------------------

/// When each pooled job ran, relative to the pool's start.
struct JobTime {
    thread: ThreadId,
    start: Duration,
    end: Duration,
}

/// Share of the pool's thread-time spent in jobs, and the tail: how long
/// the last worker ran on alone after the first ran out of work.
#[derive(Debug, Clone, Copy, Default)]
pub struct PoolStats {
    pub busy_share: f64,
    pub tail_s: f64,
}

fn pool_stats(jobs: &[JobTime], wall: Duration) -> PoolStats {
    let busy: f64 = jobs.iter().map(|j| (j.end - j.start).as_secs_f64()).sum();
    let mut last: HashMap<ThreadId, Duration> = HashMap::new();
    for j in jobs {
        let e = last.entry(j.thread).or_default();
        *e = (*e).max(j.end);
    }
    let ends: Vec<Duration> = last.values().copied().collect();
    // A worker that never got a job sat idle for the whole pool.
    let first_idle = if ends.len() < THREADS {
        Duration::ZERO
    } else {
        ends.iter().copied().min().unwrap_or_default()
    };
    let last_end = ends.iter().copied().max().unwrap_or_default();
    PoolStats {
        busy_share: busy / (THREADS as f64 * wall.as_secs_f64()),
        tail_s: (last_end - first_idle).as_secs_f64(),
    }
}

/// Runs `f` over `n` jobs on the harness pool, timing each job.
fn pooled<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> (Vec<Result<T, String>>, PoolStats) {
    let t0 = Instant::now();
    let results = run_jobs(n, THREADS, |j| {
        let start = t0.elapsed();
        let out = f(j);
        let end = t0.elapsed();
        (
            out,
            JobTime {
                thread: std::thread::current().id(),
                start,
                end,
            },
        )
    });
    let wall = t0.elapsed();
    let mut times = Vec::new();
    let out = results
        .into_iter()
        .map(|r| {
            r.map(|(v, t)| {
                times.push(t);
                v
            })
        })
        .collect();
    (out, pool_stats(&times, wall))
}

/// One traced simulation.
struct Replay {
    metrics: Metrics,
    flows: Vec<(String, FlowTally)>,
    profile: Profile,
    wall: Duration,
    census: Census,
    transcript: Option<String>,
}

fn replay<P: Protocol>(s: &Scenario, traced: Traced<P>, census: bool) -> Replay {
    replay_with(s, traced, census, |_| {})
}

fn replay_with<P: Protocol>(
    s: &Scenario,
    traced: Traced<P>,
    census: bool,
    setup: impl FnOnce(&mut manet_sim::Sim<Traced<P>>),
) -> Replay {
    let t0 = Instant::now();
    let mut report = run_scenario_with(s, traced, setup);
    let wall = t0.elapsed();
    let flows = all_kinds()
        .iter()
        .map(|k| (k.to_string(), *report.world().observer().tally(*k)))
        .collect();
    let transcript = report
        .sim_mut()
        .world_mut()
        .take_transcript()
        .map(|t| t.fingerprint());
    let census = if census {
        Census::of(report.sim_mut().world_mut())
    } else {
        Census::default()
    };
    Replay {
        metrics: report.metrics().clone(),
        flows,
        profile: report.protocol().profile(),
        wall,
        census,
        transcript,
    }
}

/// Everything a traced replay of one workload seed measured.
#[derive(Default)]
pub struct TracedRun {
    pub fingerprint: String,
    pub profile: Profile,
    pub metrics: Metrics,
    /// Wall of every traced simulation, summed (both sides for the
    /// mesh), and the wall clock of the traced replays alone (set-up
    /// and link census excluded).
    pub sim_wall_s: f64,
    pub wall_s: f64,
    pub pool: PoolStats,
    pub census: Census,
    pub jobs: u64,
    /// `mesh-wire` only.
    pub mesh: MeshSides,
    pub problems: Vec<String>,
    /// Chaos cells and how many of them injected no fault at all.
    pub chaos_cells: u64,
    pub vacuous_chaos_cells: Vec<String>,
    /// Clean cells whose fault counters moved anyway.
    pub judged_clean_cells: Vec<String>,
}

#[derive(Debug, Clone, Copy, Default)]
pub struct MeshSides {
    pub datagrams: u64,
    pub retries: u64,
    pub filtered: u64,
    pub sim_side_s: f64,
    pub mesh_side_s: f64,
}

impl TracedRun {
    fn absorb(&mut self, r: &Replay) {
        self.profile.merge(&r.profile);
        self.metrics.merge(&r.metrics);
        self.sim_wall_s += r.wall.as_secs_f64();
        self.census.merge(&r.census);
        self.jobs += 1;
    }
}

/// Mirrors `harness::scale`'s shard split: within one node of
/// `n / shards`.
fn shard_sizes(n: usize, shard_nn: usize) -> Vec<usize> {
    let shards = n.div_ceil(shard_nn.max(1)).max(1);
    let base = n / shards;
    let rem = n % shards;
    (0..shards).map(|i| base + usize::from(i < rem)).collect()
}

/// Mirrors `harness::scale`'s per-shard seed mix (SplitMix64 keyed by
/// size and shard index).
fn mix_seed(base: u64, size: usize, shard: usize) -> u64 {
    let mut z = base
        .wrapping_add(0x9E37_79B9_7F4A_7C15u64.wrapping_mul(1 + size as u64))
        .wrapping_add(0x2545_F491_4F6C_DD1Du64.wrapping_mul(1 + shard as u64));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Mirrors the scale runner's shard drive.
fn shard_scenario(nn: usize, seed: u64) -> Scenario {
    Scenario::builder()
        .nn(nn)
        .speed_mps(0.0)
        .arrival_gap_ms(100)
        .settle_secs(5)
        .connected_arrivals(true)
        .seed(seed)
        .build()
        .expect("shard scenario is in-domain")
}

fn plan_by_name(name: &str) -> FaultPlan {
    if name == "none" {
        return FaultPlan::default();
    }
    conformance::chaos_schedules()
        .into_iter()
        .find(|s| s.name == name)
        .map(|s| s.plan)
        .expect("sweep plans are pinned conformance schedules")
}

/// Mirrors the sweep runner's cell drive (full grid, one replication).
fn cell_scenario(p: &harness::sweep::CellParams, seed: u64) -> Scenario {
    Scenario::builder()
        .nn(p.nn)
        .speed_mps(p.speed)
        .mobility(MobilityConfig::parse(&p.mobility).expect("grid mobility specs are valid"))
        .loss_rate(p.loss)
        .arrival_gap_ms(1000)
        .settle_secs(10)
        .depart_fraction(0.3)
        .abrupt_ratio(0.5)
        .depart_window_secs(20)
        .cooldown_secs(15)
        .post_arrivals(SWEEP_POST_ARRIVALS as usize)
        .fault_plan(plan_by_name(&p.plan))
        .observe(true)
        .seed(seed)
        .build()
        .expect("sweep cell scenario is in-domain")
}

/// The same scenario cut at the end of its arrivals: no settle window,
/// no departures. Its run is a prefix of the full run's.
fn arrivals_only(s: &Scenario) -> Scenario {
    Scenario {
        settle: manet_sim::SimDuration::ZERO,
        depart_fraction: 0.0,
        ..s.clone()
    }
}

/// The link census at the end of arrivals.
fn arrival_census<P: Protocol>(s: &Scenario, proto: P) -> Census {
    let mut report = run_scenario(&arrivals_only(s), proto);
    Census::of(report.sim_mut().world_mut())
}

macro_rules! by_protocol {
    ($name:expr, |$p:ident, $label:ident| $body:expr) => {
        match $name {
            "quorum" => {
                let $p = qbac();
                let $label = "quorum";
                $body
            }
            "manetconf" => {
                let $p = ManetConf::default();
                let $label = "manetconf";
                $body
            }
            "buddy" => {
                let $p = Buddy::default();
                let $label = "buddy";
                $body
            }
            "ctree" => {
                let $p = CTree::default();
                let $label = "ctree";
                $body
            }
            "dad" => {
                let $p = QueryDad::default();
                let $label = "dad";
                $body
            }
            other => panic!("protocol {other:?} is not in the sweep registry"),
        }
    };
}

/// A mesh equivalence cell, mirroring `harness::mesh_equiv` (full
/// matrix).
struct MeshCell {
    protocol: &'static str,
    scenario: Scenario,
}

fn mesh_cells(seed: u64) -> Vec<MeshCell> {
    let storm = conformance::chaos_schedules()
        .into_iter()
        .find(|s| s.name == "storm")
        .expect("storm schedule is pinned");
    let squat = conformance::attack_canaries()
        .into_iter()
        .find(|c| c.name == "squat")
        .expect("squat canary is pinned");
    let scenario = |seed: u64, plan: FaultPlan| {
        Scenario::builder()
            .nn(20)
            .settle_secs(5)
            .depart_fraction(0.25)
            .abrupt_ratio(0.5)
            .depart_window_secs(6)
            .cooldown_secs(6)
            .seed(seed)
            .fault_plan(plan)
            .build()
            .expect("equivalence scenarios are in-domain")
    };
    let mut cells = Vec::new();
    for protocol in ["quorum", "quorum-hardened", "dad"] {
        cells.push(MeshCell {
            protocol,
            scenario: scenario(storm.world_seed ^ seed, storm.plan.clone()),
        });
        cells.push(MeshCell {
            protocol,
            scenario: scenario(squat.world_seed ^ seed, squat.plan()),
        });
    }
    cells
}

fn mesh_qbac(protocol: &str) -> Qbac {
    Qbac::new(ProtocolConfig {
        harden: protocol == "quorum-hardened",
        ..ProtocolConfig::default()
    })
}

/// Sim-side transcript fingerprints and event counts of one mesh
/// matrix, replayed untraced: the suite itself reports neither events
/// nor per-side counters. Both sides dispatch the same events (their
/// transcripts are byte-identical), so the matrix's events are twice
/// the sim side's.
pub fn mesh_events(seed: u64) -> (u64, Vec<String>) {
    fn sim_side<P: Protocol>(s: &Scenario, proto: P) -> (u64, String) {
        let mut r = run_scenario_with(s, proto, |sim| sim.world_mut().enable_transcript());
        let fp = r
            .sim_mut()
            .world_mut()
            .take_transcript()
            .expect("transcript enabled")
            .fingerprint();
        (r.metrics().perf().events, fp)
    }
    let mut events = 0;
    let mut fps = Vec::new();
    for cell in mesh_cells(seed) {
        let (e, fp) = match cell.protocol {
            "dad" => sim_side(&cell.scenario, QueryDad::default()),
            p => sim_side(&cell.scenario, mesh_qbac(p)),
        };
        events += e;
        fps.push(fp);
    }
    (2 * events, fps)
}

impl Workload {
    /// Replays `seed` with every protocol traced.
    pub fn traced(self, seed: u64) -> TracedRun {
        let mut run = TracedRun::default();
        match self {
            Workload::StormSharded => {
                let cfg = ScaleConfig::default();
                let sizes = shard_sizes(SHARDED_NN, cfg.shard_nn);
                let t0 = Instant::now();
                let (results, pool) = pooled(sizes.len(), |j| {
                    let s = shard_scenario(sizes[j], mix_seed(seed, SHARDED_NN, j));
                    replay(
                        &s,
                        Traced::new(qbac(), "quorum", WorldKind::default()),
                        true,
                    )
                });
                run.wall_s = t0.elapsed().as_secs_f64();
                run.pool = pool;
                let mut merged = Metrics::new();
                for (j, r) in results.into_iter().enumerate() {
                    match r {
                        Ok(r) => {
                            merged.merge(&r.metrics);
                            run.absorb(&r);
                        }
                        Err(msg) => run
                            .problems
                            .push(format!("traced shard {j} panicked: {msg}")),
                    }
                }
                run.fingerprint = fingerprint_str(merged.to_json().as_bytes());
            }
            Workload::StormWorld => {
                let r = replay(
                    &world_scenario(seed, WORLD_NN),
                    Traced::new(qbac(), "quorum", WorldKind::default()),
                    true,
                );
                run.fingerprint = fingerprint_str(r.metrics.to_json().as_bytes());
                run.wall_s = r.wall.as_secs_f64();
                run.absorb(&r);
            }
            Workload::SweepMobileChaos => {
                let cells = sweep_grid(seed).expand();
                let t0 = Instant::now();
                let (results, pool) = pooled(cells.len(), |j| {
                    let p = &cells[j];
                    let s = cell_scenario(p, seed);
                    let kind = WorldKind {
                        chaos: p.plan != "none",
                        observe: true,
                    };
                    by_protocol!(p.protocol.as_str(), |proto, name| replay(
                        &s,
                        Traced::new(proto, name, kind),
                        false
                    ))
                });
                run.wall_s = t0.elapsed().as_secs_f64();
                run.pool = pool;
                let mut digests = Vec::new();
                for (p, r) in cells.iter().zip(results) {
                    match r {
                        Ok(r) => {
                            let mut m = Metrics::new();
                            m.merge(&r.metrics);
                            if p.plan == "none" {
                                if r.metrics.faults().total() > 0 {
                                    run.judged_clean_cells.push(p.key());
                                }
                            } else {
                                run.chaos_cells += 1;
                                if r.metrics.faults().total() == 0 {
                                    run.vacuous_chaos_cells.push(p.key());
                                }
                            }
                            digests.push((p.key(), m, flows_text(&r.flows)));
                            run.absorb(&r);
                        }
                        Err(msg) => run
                            .problems
                            .push(format!("traced cell {} panicked: {msg}", p.key())),
                    }
                }
                run.fingerprint =
                    sweep_fingerprint(digests.iter().map(|(k, m, f)| (k.clone(), m, f.clone())));
                // The link census at the end of arrivals needs its own
                // (untraced) prefix runs: the traced runs keep moving.
                let (census, _) = pooled(cells.len(), |j| {
                    let p = &cells[j];
                    let s = cell_scenario(p, seed);
                    by_protocol!(p.protocol.as_str(), |proto, _name| arrival_census(
                        &s, proto
                    ))
                });
                for c in census.into_iter().flatten() {
                    run.census.merge(&c);
                }
            }
            Workload::MeshWire => {
                let kind = WorldKind {
                    chaos: true,
                    observe: false,
                };
                let mut text = String::new();
                for cell in mesh_cells(seed) {
                    let (sim, mesh, stats, census) = match cell.protocol {
                        "dad" => mesh_pair(&cell.scenario, || {
                            Traced::new(QueryDad::default(), "dad", kind)
                        }),
                        p => {
                            mesh_pair(&cell.scenario, || Traced::new(mesh_qbac(p), "quorum", kind))
                        }
                    };
                    let sim_fp = sim.transcript.clone().unwrap_or_default();
                    let mesh_fp = mesh.transcript.clone().unwrap_or_default();
                    if sim_fp != mesh_fp {
                        run.problems.push(format!(
                            "traced mesh cell {}: sim {sim_fp} mesh {mesh_fp}",
                            cell.protocol
                        ));
                    }
                    text.push_str(&sim_fp);
                    let probe_ns: u64 = mesh
                        .profile
                        .codec
                        .values()
                        .map(|c| c.encode_ns + c.decode_ns)
                        .sum();
                    run.mesh.sim_side_s += sim.wall.as_secs_f64();
                    run.mesh.mesh_side_s += mesh.wall.as_secs_f64() - probe_ns as f64 * 1e-9;
                    run.mesh.datagrams += stats.datagrams;
                    run.mesh.retries += stats.retries;
                    run.mesh.filtered += stats.filtered;
                    run.wall_s += (sim.wall + mesh.wall).as_secs_f64();
                    run.absorb(&sim);
                    run.absorb(&mesh);
                    run.sim_wall_s -= probe_ns as f64 * 1e-9;
                    run.census.merge(&census);
                }
                run.fingerprint = fingerprint_str(text.as_bytes());
            }
        }
        run
    }
}

/// Runs one mesh cell on both backends, traced; the mesh side also
/// times the codec on a copy of each delivered message.
fn mesh_pair<P>(
    s: &Scenario,
    fresh: impl Fn() -> Traced<P>,
) -> (Replay, Replay, transport_mesh::MeshStats, Census)
where
    P: Protocol,
    P::Msg: proto_io::WireMsg + Send + 'static,
{
    let sim = replay_with(s, fresh(), false, |sim| sim.world_mut().enable_transcript());
    let shadow = MeshShadow::<P::Msg>::new();
    let stats = shadow.stats_handle();
    let mesh = replay_with(s, fresh().with_codec(), false, |sim| {
        sim.world_mut().enable_transcript();
        sim.world_mut().set_wire_shadow(Box::new(shadow));
    });
    let census = {
        let mut report = run_scenario(&arrivals_only(s), fresh());
        Census::of(report.sim_mut().world_mut())
    };
    (sim, mesh, stats.snapshot(), census)
}
