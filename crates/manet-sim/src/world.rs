use crate::event::{EventKind, EventQueue, RunBuilder, Scheduled};
use crate::faults::{AttackKind, DeliveryFate, FaultPlan, FaultState};
use crate::mobility::{MobilityConfig, MobilityModel, MobilityState, RetargetCtx};
use crate::observer::{FlowKind, FlowStage, Observer};
use crate::topology::Topology;
use crate::trace::{Trace, TraceEvent};
use crate::TimerId;
use crate::{
    Arena, Metrics, MsgCategory, NetBackend, NodeId, Point, ProtoMsg, SendError, SimDuration,
    SimRng, SimTime, Transcript,
};
use proto_io::Input;
use std::collections::{HashMap, HashSet};
use std::fmt;

/// Static parameters of a simulation run.
#[derive(Debug, Clone)]
pub struct WorldConfig {
    /// Simulation area (paper: 1 km × 1 km).
    pub arena: Arena,
    /// Radio transmission range in meters (paper: 150 m baseline).
    pub range: f64,
    /// Node speed once configured, m/s (paper: 20 m/s). Zero disables
    /// mobility.
    pub speed: f64,
    /// Movement policy once configured (paper: random waypoint). Only
    /// consulted when `speed` is positive.
    pub mobility: MobilityConfig,
    /// Virtual time one hop takes (per-hop transmission + processing).
    pub hop_delay: SimDuration,
    /// Per-message delivery loss probability in `[0, 1]`. The paper
    /// assumes reliable in-range delivery (0.0, the default); non-zero
    /// values are the robustness ablation — transmissions are still
    /// charged, deliveries silently vanish.
    pub loss_rate: f64,
    /// Topology-cache quantum: within one quantum the connectivity
    /// snapshot is reused instead of rebuilt per event. At the paper's
    /// 20 m/s a node moves 2 m per default 100 ms quantum — noise next
    /// to the 150 m radio range — while large simulations get orders of
    /// magnitude fewer O(n²) rebuilds. Set to zero to rebuild per
    /// instant.
    pub topology_quantum: SimDuration,
    /// RNG seed; runs with equal configs and scenarios are bit-identical.
    pub seed: u64,
    /// Deterministic fault-injection plan (empty by default). Non-empty
    /// plans draw from their own seeded RNG, so enabling faults never
    /// perturbs the main random stream — and an empty plan costs
    /// nothing, keeping fault-free runs bit-identical.
    pub fault_plan: FaultPlan,
}

impl Default for WorldConfig {
    fn default() -> Self {
        WorldConfig {
            arena: Arena::default(),
            range: 150.0,
            speed: 20.0,
            mobility: MobilityConfig::RandomWaypoint,
            hop_delay: SimDuration::from_millis(5),
            loss_rate: 0.0,
            topology_quantum: SimDuration::from_millis(100),
            seed: 0,
            fault_plan: FaultPlan::default(),
        }
    }
}

/// Node state in struct-of-arrays layout: each per-node attribute is
/// its own column, so the hot loops — collecting alive positions for a
/// topology rebuild, scanning liveness — stream through one dense
/// array instead of striding over a wide per-node struct. Columns grow
/// in lockstep; a node's id is its index in every column.
#[derive(Debug, Default)]
struct NodeTable {
    alive: Vec<bool>,
    /// Created but not yet joined (scheduled arrival).
    dormant: Vec<bool>,
    configured: Vec<bool>,
    mobility: Vec<MobilityState>,
    mobility_epoch: Vec<u64>,
    joined_at: Vec<SimTime>,
}

impl NodeTable {
    fn len(&self) -> usize {
        self.alive.len()
    }

    /// Appends a dormant, unconfigured, parked node; returns its index.
    fn push_parked(&mut self, pos: Point) -> usize {
        self.alive.push(false);
        self.dormant.push(true);
        self.configured.push(false);
        self.mobility.push(MobilityState::parked(pos));
        self.mobility_epoch.push(0);
        self.joined_at.push(SimTime::ZERO);
        self.alive.len() - 1
    }

    /// The column index of `node`, if it exists.
    fn idx(&self, node: NodeId) -> Option<usize> {
        let i = node.index() as usize;
        (i < self.len()).then_some(i)
    }
}

/// The simulated network: virtual time, nodes, radio, event queue, and
/// measurement sink. Protocols interact with the simulation exclusively
/// through this type.
///
/// A *shadow transport*: realizes every logical delivery as real I/O
/// before it is scheduled.
///
/// When installed via [`World::set_wire_shadow`], the world calls
/// [`carry`](WireShadow::carry) at its single delivery choke point with
/// one deterministic shortest path per `(sender, recipient)` pair. The
/// shadow moves the message hop-by-hop over its own medium (the UDP
/// mesh backend moves real datagrams between per-node sockets) and
/// returns the copy decoded at the destination — *that* copy is what
/// gets delivered, so a lossy or lying transport shows up as a
/// transcript divergence, not a silently patched-over bug.
///
/// The shadow must not touch virtual time, the world RNG, or the event
/// queue: scheduling stays byte-identical with and without a shadow.
pub trait WireShadow<M>: fmt::Debug + Send {
    /// Carries `msg` along `path` (consecutive one-hop neighbors,
    /// sender first, recipient last; a single-element path is a
    /// self-delivery) and returns the message as decoded by the
    /// recipient.
    fn carry(&mut self, path: &[NodeId], category: MsgCategory, msg: &M) -> M;
}

/// See the [crate docs](crate) for an end-to-end example.
#[derive(Debug)]
pub struct World<M> {
    config: WorldConfig,
    now: SimTime,
    queue: EventQueue<M>,
    nodes: NodeTable,
    rng: SimRng,
    metrics: Metrics,
    cancelled_timers: HashSet<TimerId>,
    next_timer: u64,
    topo_cache: Option<(SimTime, u64, Topology)>,
    topo_version: u64,
    trace: Trace,
    observer: Observer,
    faults: Option<Box<FaultState>>,
    mobility_model: Box<dyn MobilityModel>,
    transcript: Option<Transcript>,
    shadow: Option<Box<dyn WireShadow<M>>>,
}

impl<M: Clone + fmt::Debug> World<M> {
    pub(crate) fn new(config: WorldConfig) -> Self {
        let rng = SimRng::seed_from(config.seed);
        let faults = (!config.fault_plan.is_empty())
            .then(|| Box::new(FaultState::new(config.fault_plan.clone())));
        let mobility_model = config.mobility.build(config.seed);
        let mut world = World {
            config,
            now: SimTime::ZERO,
            queue: EventQueue::default(),
            nodes: NodeTable::default(),
            rng,
            metrics: Metrics::new(),
            cancelled_timers: HashSet::new(),
            next_timer: 0,
            topo_cache: None,
            topo_version: 0,
            trace: Trace::default(),
            observer: Observer::default(),
            faults,
            mobility_model,
            transcript: None,
            shadow: None,
        };
        world.schedule_fault_events();
        world
    }

    /// Queues the plan's scheduled faults (crashes, restarts, head
    /// kills) as ordinary events so they interleave deterministically
    /// with protocol traffic.
    fn schedule_fault_events(&mut self) {
        let Some(fs) = self.faults.as_ref() else {
            return;
        };
        let plan = fs.plan().clone();
        for crash in &plan.crashes {
            self.push_at(crash.at, EventKind::Crash { node: crash.node });
            if let Some(restart_at) = crash.restart_at {
                self.push_at(restart_at, EventKind::Restart { node: crash.node });
            }
        }
        for kill in &plan.head_kills {
            self.push_at(kill.at, EventKind::HeadKill { count: kill.count });
        }
    }

    /// Enables event tracing, retaining up to `capacity` records.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Trace::with_capacity(capacity);
    }

    /// The event trace (empty unless enabled).
    #[must_use]
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Enables flow-span observation (off by default; a disabled
    /// observer costs one branch per [`World::flow_event`] call).
    pub fn enable_observer(&mut self) {
        self.observer = Observer::enabled();
    }

    /// The flow observer (disabled unless
    /// [`World::enable_observer`] was called).
    #[must_use]
    pub fn observer(&self) -> &Observer {
        &self.observer
    }

    /// Reports a flow lifecycle stage for `(kind, node)`.
    ///
    /// No-op while the observer is disabled. When enabled, the stage is
    /// stamped with the flow's correlation ID, tallied in the
    /// [`Observer`], and recorded into the [`Trace`] (if that is also
    /// enabled) as a [`TraceEvent::Flow`] — so a chaos failure can be
    /// replayed as a per-flow timeline from the JSONL export.
    pub fn flow_event(&mut self, kind: FlowKind, node: NodeId, stage: FlowStage) {
        if !self.observer.is_enabled() {
            return;
        }
        if let Some(flow) = self.observer.observe(kind, node, stage) {
            self.trace.record(
                self.now,
                TraceEvent::Flow {
                    flow,
                    kind,
                    node,
                    stage,
                },
            );
        }
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// Current virtual time.
    #[must_use]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The simulation arena.
    #[must_use]
    pub fn arena(&self) -> Arena {
        self.config.arena
    }

    /// Radio transmission range in meters.
    #[must_use]
    pub fn range(&self) -> f64 {
        self.config.range
    }

    /// The run's configuration.
    #[must_use]
    pub fn config(&self) -> &WorldConfig {
        &self.config
    }

    /// The measurement sink.
    #[must_use]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    /// Mutable access to the measurement sink (protocols record latency
    /// samples here).
    pub fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    /// The deterministic RNG.
    pub fn rng_mut(&mut self) -> &mut SimRng {
        &mut self.rng
    }

    /// Returns `true` if `node` exists and is alive.
    #[must_use]
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.nodes.idx(node).is_some_and(|i| self.nodes.alive[i])
    }

    /// Returns `true` if `node` has been marked configured.
    #[must_use]
    pub fn is_configured(&self, node: NodeId) -> bool {
        self.nodes
            .idx(node)
            .is_some_and(|i| self.nodes.configured[i])
    }

    /// When `node` joined the network (meaningless for dormant nodes).
    #[must_use]
    pub fn joined_at(&self, node: NodeId) -> Option<SimTime> {
        self.nodes
            .idx(node)
            .filter(|&i| self.nodes.alive[i])
            .map(|i| self.nodes.joined_at[i])
    }

    /// Position of `node` right now, if alive.
    #[must_use]
    pub fn position(&self, node: NodeId) -> Option<Point> {
        self.nodes
            .idx(node)
            .filter(|&i| self.nodes.alive[i])
            .map(|i| self.nodes.mobility[i].position(self.now))
    }

    /// All alive node ids, ascending.
    #[must_use]
    pub fn alive_nodes(&self) -> Vec<NodeId> {
        self.nodes
            .alive
            .iter()
            .enumerate()
            .filter(|(_, &a)| a)
            .map(|(i, _)| NodeId::new(i as u64))
            .collect()
    }

    /// Number of alive nodes.
    #[must_use]
    pub fn alive_count(&self) -> usize {
        self.nodes.alive.iter().filter(|&&a| a).count()
    }

    // ------------------------------------------------------------------
    // Topology queries
    // ------------------------------------------------------------------

    /// A connectivity snapshot for the current instant. Cached for the
    /// configured quantum (and until membership/mobility changes).
    ///
    /// The snapshot is built with the strip-sweep engine and carries
    /// one resumable BFS per source plus the component partition (see
    /// [`topology`](crate::topology)): `hops`/`within` expand a source
    /// only as far as their answer needs, later queries from the same
    /// source resume where the last one stopped, and no source is
    /// expanded more than once per quantum. Those memo caches share
    /// this cache's `(quantum bucket, topo_version)` key by
    /// construction: any membership or mobility change bumps
    /// `topo_version`, which drops the snapshot and its caches with it.
    pub fn topology(&mut self) -> &Topology {
        let quantum = self.config.topology_quantum.as_micros();
        let bucket = self
            .now
            .as_micros()
            .checked_div(quantum)
            .map_or(self.now, |b| SimTime::from_micros(b * quantum));
        let key = (bucket, self.topo_version);
        let stale = !matches!(&self.topo_cache, Some((t, v, _)) if (*t, *v) == key);
        if stale {
            self.metrics.perf_mut().topo_builds += 1;
            let now = self.now;
            let positions: Vec<(NodeId, Point)> = self
                .nodes
                .alive
                .iter()
                .enumerate()
                .filter(|(_, &a)| a)
                .map(|(i, _)| (NodeId::new(i as u64), self.nodes.mobility[i].position(now)))
                .collect();
            let topo = Topology::build(&positions, self.config.range);
            self.topo_cache = Some((key.0, key.1, topo));
        } else {
            self.metrics.perf_mut().topo_hits += 1;
        }
        &self.topo_cache.as_ref().expect("cache just filled").2
    }

    /// One-hop neighbors of `node`.
    ///
    /// Materializes a `Vec<NodeId>`; hot paths that only iterate should
    /// use [`Topology::neighbor_indices`] via [`World::topology`]
    /// instead, which borrows the adjacency slice without allocating.
    pub fn neighbors(&mut self, node: NodeId) -> Vec<NodeId> {
        self.topology().neighbors(node)
    }

    /// Degree (one-hop neighbor count) of `node`, without materializing
    /// the neighbor list.
    pub fn degree(&mut self, node: NodeId) -> usize {
        self.topology().neighbor_indices(node).len()
    }

    /// Alive nodes within `k` hops of `node`, with distances.
    pub fn nodes_within(&mut self, node: NodeId, k: u32) -> Vec<(NodeId, u32)> {
        self.topology().within(node, k)
    }

    /// Shortest-path hop count between two alive nodes.
    pub fn hops_between(&mut self, a: NodeId, b: NodeId) -> Option<u32> {
        self.topology().hops(a, b)
    }

    /// The connected component containing `node`.
    pub fn component_of(&mut self, node: NodeId) -> Vec<NodeId> {
        self.topology().component_of(node)
    }

    /// All connected components.
    pub fn components(&mut self) -> Vec<Vec<NodeId>> {
        self.topology().components()
    }

    /// `true` if a scripted position-based fault (an active partition
    /// boundary or jam region) would currently drop deliveries between
    /// `a` and `b`. Radio-range topology is *not* consulted — this is
    /// the fault plane's view only, which [`components`](World::components)
    /// cannot see. Dead or dormant endpoints count as severed. Consults
    /// no RNG, so the answer is a pure function of `(plan, now,
    /// positions)`.
    #[must_use]
    pub fn fault_severed(&self, a: NodeId, b: NodeId) -> bool {
        let (Some(pa), Some(pb)) = (self.position(a), self.position(b)) else {
            return true;
        };
        self.faults
            .as_deref()
            .is_some_and(|fs| fs.severs(self.now, pa, pb))
    }

    // ------------------------------------------------------------------
    // Sending
    // ------------------------------------------------------------------

    /// Sends `msg` from `from` to `to` along the current shortest path.
    /// Charges the hop count to `category` and returns it. Delivery is
    /// scheduled `hops × hop_delay` in the future, as a run of one.
    ///
    /// # Errors
    ///
    /// * [`SendError::SenderDead`] — `from` is not alive,
    /// * [`SendError::Unreachable`] — no path to `to` exists right now
    ///   (nothing is charged).
    pub fn unicast(
        &mut self,
        from: NodeId,
        to: NodeId,
        category: MsgCategory,
        msg: M,
    ) -> Result<u32, SendError> {
        if !self.is_alive(from) {
            return Err(SendError::SenderDead);
        }
        let hops = self
            .topology()
            .hops(from, to)
            .ok_or(SendError::Unreachable)?;
        self.metrics.add_send(category, u64::from(hops));
        self.trace.record(
            self.now,
            TraceEvent::Unicast {
                from,
                to,
                category,
                hops,
            },
        );
        self.schedule_deliveries(from, &[(to, hops)], category, msg);
        Ok(hops)
    }

    /// Bounded flood: delivers `msg` to every alive node within `k` hops
    /// of `from`. Charges one transmission for the originator plus one per
    /// relaying node (nodes closer than `k` hops), and returns the
    /// recipients. Without a fault plan or a wire shadow, each BFS ring
    /// is queued as one run sharing `msg` (see [`World::pending_events`]).
    ///
    /// # Errors
    ///
    /// Returns [`SendError::SenderDead`] if `from` is not alive.
    pub fn broadcast_within(
        &mut self,
        from: NodeId,
        k: u32,
        category: MsgCategory,
        msg: M,
    ) -> Result<Vec<NodeId>, SendError> {
        if !self.is_alive(from) {
            return Err(SendError::SenderDead);
        }
        let reach = self.topology().within(from, k);
        // Relays: the originator plus every node strictly inside the rim.
        let relays = 1 + reach.iter().filter(|&&(_, d)| d < k).count() as u64;
        self.metrics.add_send(category, relays);
        self.trace.record(
            self.now,
            TraceEvent::Broadcast {
                from,
                k: Some(k),
                category,
                recipients: reach.len(),
                charge: relays,
            },
        );
        self.schedule_deliveries(from, &reach, category, msg);
        Ok(reach.into_iter().map(|(n, _)| n).collect())
    }

    /// Global flood: delivers `msg` to every node in `from`'s connected
    /// component (classic flooding — every node retransmits once, so the
    /// charge is the component size). Returns the recipients. As in
    /// [`World::broadcast_within`], a BFS ring shares one queue entry.
    ///
    /// # Errors
    ///
    /// Returns [`SendError::SenderDead`] if `from` is not alive.
    pub fn flood(
        &mut self,
        from: NodeId,
        category: MsgCategory,
        msg: M,
    ) -> Result<Vec<NodeId>, SendError> {
        if !self.is_alive(from) {
            return Err(SendError::SenderDead);
        }
        // The whole component, sorted by (depth, id): event sequence
        // numbers break same-instant ties, so insertion order must be
        // stable.
        let reach = self.topology().within(from, u32::MAX);
        let charge = reach.len() as u64 + 1;
        self.metrics.add_send(category, charge);
        self.trace.record(
            self.now,
            TraceEvent::Broadcast {
                from,
                k: None,
                category,
                recipients: reach.len(),
                charge,
            },
        );
        self.schedule_deliveries(from, &reach, category, msg);
        let mut recipients: Vec<NodeId> = reach.into_iter().map(|(n, _)| n).collect();
        recipients.sort_unstable();
        Ok(recipients)
    }

    /// Draws a loss event. Never touches the RNG at the default zero
    /// rate, so reliable runs stay bit-identical.
    fn lost(&mut self) -> bool {
        self.config.loss_rate > 0.0 && self.rng.chance(self.config.loss_rate)
    }

    /// The single delivery choke point: every unicast, bounded-flood,
    /// and global-flood recipient passes through here. `reach` lists
    /// the recipients with their hop distances, sorted by distance.
    ///
    /// Each recipient is judged on its own and in order, exactly as if
    /// it were sent alone: the wire shadow carries it, the legacy
    /// `loss_rate` is drawn (on the main RNG, exactly as before the
    /// fault plane existed), then the fault plan (on its own RNG), with
    /// injected outcomes recorded in metrics and trace. Survivors are
    /// queued through a [`RunBuilder`]: consecutive deliveries of `msg`
    /// to one instant share one queue entry and one payload, while a
    /// fault-delayed copy or a shadow-decoded copy closes the run.
    /// Without a fault plan or a shadow, each BFS ring is one run (every
    /// ring shares one when `hop_delay` is zero).
    fn schedule_deliveries(
        &mut self,
        from: NodeId,
        reach: &[(NodeId, u32)],
        category: MsgCategory,
        msg: M,
    ) {
        let mut runs = RunBuilder::new(from, msg);
        for &(to, dist_hops) in reach {
            // The shadow transmits unconditionally — a datagram that the
            // logical layer then loses was still physically sent, exactly
            // like a real radio. Loss/fault draws below are untouched.
            let carried = self.shadow_carry(from, to, dist_hops, category, runs.payload());
            if self.lost() {
                continue; // charged but never delivered
            }
            let base_at = self.now + self.config.hop_delay * u64::from(dist_hops);
            let Some((extra, copies)) = self.fault_fate(from, to, category) else {
                continue;
            };
            let at = base_at + extra;
            match carried {
                Some(copy) => runs.push_own(&mut self.queue, at, to, copies, copy),
                None => runs.push(&mut self.queue, at, to, copies),
            }
        }
        runs.finish(&mut self.queue);
        self.note_queue_depth();
    }

    /// Judges one delivery against the fault plan, recording injected
    /// outcomes in metrics and trace. Returns `None` if it is dropped,
    /// else its extra delay and how many copies arrive (1 plus
    /// duplicates). Without a fault plan every delivery passes as is.
    fn fault_fate(
        &mut self,
        from: NodeId,
        to: NodeId,
        category: MsgCategory,
    ) -> Option<(SimDuration, u32)> {
        let Some(faults) = self.faults.as_mut() else {
            return Some((SimDuration::ZERO, 1));
        };
        let now = self.now;
        let pos = |nodes: &NodeTable, node: NodeId| {
            nodes
                .idx(node)
                .filter(|&i| nodes.alive[i])
                .map(|i| nodes.mobility[i].position(now))
        };
        let from_pos = pos(&self.nodes, from);
        let to_pos = pos(&self.nodes, to);
        match faults.judge(now, category, from_pos, to_pos) {
            DeliveryFate::Drop(cause) => {
                self.metrics.faults_mut().dropped += 1;
                self.trace.record(
                    now,
                    TraceEvent::FaultDrop {
                        from,
                        to,
                        category,
                        cause,
                    },
                );
                None
            }
            DeliveryFate::Pass {
                extra,
                duplicates,
                delayed,
            } => {
                if delayed {
                    self.metrics.faults_mut().delayed += 1;
                    self.trace.record(
                        now,
                        TraceEvent::FaultDelay {
                            from,
                            to,
                            by: extra,
                        },
                    );
                }
                if duplicates > 0 {
                    self.metrics.faults_mut().duplicated += u64::from(duplicates);
                    self.trace.record(
                        now,
                        TraceEvent::FaultDuplicate {
                            from,
                            to,
                            copies: duplicates,
                        },
                    );
                }
                Some((extra, 1 + duplicates))
            }
        }
    }

    // ------------------------------------------------------------------
    // Timers
    // ------------------------------------------------------------------

    /// Arms a timer on `node` that fires after `delay`, delivering `tag`
    /// to [`Protocol::on_timer`](crate::Protocol::on_timer).
    pub fn set_timer(&mut self, node: NodeId, delay: SimDuration, tag: u64) -> TimerId {
        let id = TimerId::from_raw(self.next_timer);
        self.next_timer += 1;
        self.push_at(self.now + delay, EventKind::Timer { node, id, tag });
        id
    }

    /// Cancels a pending timer. Cancelling an already-fired timer is a
    /// no-op.
    pub fn cancel_timer(&mut self, id: TimerId) {
        self.cancelled_timers.insert(id);
    }

    // ------------------------------------------------------------------
    // Node lifecycle & mobility
    // ------------------------------------------------------------------

    /// Creates a node slot at `pos`. Dormant until joined.
    pub(crate) fn create_node(&mut self, pos: Point) -> NodeId {
        let idx = self.nodes.push_parked(self.config.arena.clamp(pos));
        NodeId::new(idx as u64)
    }

    /// Marks a dormant node alive. Returns `false` if it was already
    /// joined or removed.
    pub(crate) fn activate(&mut self, node: NodeId) -> bool {
        let now = self.now;
        let Some(i) = self.nodes.idx(node) else {
            return false;
        };
        if !self.nodes.dormant[i] {
            return false;
        }
        self.nodes.dormant[i] = false;
        self.nodes.alive[i] = true;
        self.nodes.joined_at[i] = now;
        self.topo_version += 1;
        self.trace.record(now, TraceEvent::Join { node });
        true
    }

    /// Removes `node` from the network: it stops receiving messages and
    /// timers, and disappears from the topology. Graceful departures call
    /// this after their handshake completes; abrupt departures are removed
    /// by the simulator before the protocol hears about them.
    pub fn remove_node(&mut self, node: NodeId) {
        let now = self.now;
        if let Some(i) = self.nodes.idx(node) {
            if self.nodes.alive[i] {
                self.nodes.alive[i] = false;
                self.nodes.dormant[i] = false;
                self.topo_version += 1;
                self.trace.record(now, TraceEvent::Remove { node });
            }
        }
    }

    /// Records a fault-plane crash of `node` (metrics + trace). The
    /// actual removal goes through the normal abrupt-leave path.
    pub(crate) fn record_crash(&mut self, node: NodeId) {
        let now = self.now;
        self.metrics.faults_mut().crashes += 1;
        self.trace.record(now, TraceEvent::Crash { node });
    }

    /// Revives a crashed node as a fresh, unconfigured joiner parked at
    /// its last position. Returns `false` if the node is missing, still
    /// alive, or never joined in the first place.
    pub(crate) fn revive(&mut self, node: NodeId) -> bool {
        let now = self.now;
        let Some(i) = self.nodes.idx(node) else {
            return false;
        };
        if self.nodes.alive[i] || self.nodes.dormant[i] {
            return false;
        }
        let pos = self.nodes.mobility[i].position(now);
        self.nodes.mobility[i] = MobilityState::parked(pos);
        self.nodes.mobility_epoch[i] += 1;
        self.nodes.configured[i] = false;
        self.nodes.dormant[i] = true;
        self.metrics.faults_mut().restarts += 1;
        self.trace.record(now, TraceEvent::Restart { node });
        self.activate(node)
    }

    /// The fault plan's dedicated RNG, if a plan is active (used by the
    /// driver to pick head-kill victims deterministically).
    pub(crate) fn fault_rng(&mut self) -> Option<&mut SimRng> {
        self.faults.as_deref_mut().map(FaultState::rng_mut)
    }

    /// The Byzantine role `node` is running right now, if the fault
    /// plan assigns it one whose start time has passed. Protocols under
    /// test consult this at their dispatch points; honest protocols
    /// simply never ask. Consults no RNG and costs one `Option` check
    /// when no fault plan is active.
    #[must_use]
    pub fn attack_role(&self, node: NodeId) -> Option<AttackKind> {
        self.faults
            .as_deref()
            .and_then(|fs| fs.plan().attack_on(node, self.now))
    }

    /// The Byzantine role `node` is *designated* for, even before its
    /// start time (see [`FaultPlan::attack_assigned`]).
    #[must_use]
    pub fn attack_assigned(&self, node: NodeId) -> Option<AttackKind> {
        self.faults
            .as_deref()
            .and_then(|fs| fs.plan().attack_assigned(node))
    }

    /// Marks `node` configured: records the fact and, if the world has a
    /// positive speed, starts movement under the configured
    /// [`MobilityModel`] (the paper's nodes move only "after
    /// configuration with the network").
    pub fn mark_configured(&mut self, node: NodeId) {
        let speed = self.config.speed;
        let Some(i) = self.nodes.idx(node) else {
            return;
        };
        if !self.nodes.alive[i] || self.nodes.configured[i] {
            return;
        }
        self.nodes.configured[i] = true;
        if speed > 0.0 {
            self.start_leg(node);
        }
    }

    /// Consults the mobility model for `node`'s next leg, starts it, and
    /// schedules the waypoint-arrival event. The model draws from the
    /// world's main RNG stream (plus any model-internal state), so runs
    /// stay bit-identical per `(WorldConfig, scenario)`.
    fn start_leg(&mut self, node: NodeId) {
        let now = self.now;
        let arena = self.config.arena;
        let speed = self.config.speed;
        let Some(here) = self
            .nodes
            .idx(node)
            .map(|i| self.nodes.mobility[i].position(now))
        else {
            return;
        };
        let mut rng = self.rng.clone();
        let ctx = RetargetCtx {
            node,
            now,
            here,
            arena: &arena,
            speed,
        };
        let (dest, leg_speed) = self.mobility_model.next_leg(&ctx, &mut rng);
        let dest = arena.clamp(dest);
        let Some(i) = self.nodes.idx(node) else {
            return;
        };
        self.nodes.mobility[i].set_leg(now, here, dest, leg_speed);
        self.nodes.mobility_epoch[i] += 1;
        let epoch = self.nodes.mobility_epoch[i];
        let arrival = self.nodes.mobility[i].arrival();
        self.rng = rng;
        self.topo_version += 1;
        // A model may park a node (e.g. a degenerate street grid); no
        // arrival means no further waypoint events for this epoch.
        if let Some(arrival) = arrival {
            self.push_at(arrival, EventKind::Waypoint { node, epoch });
        }
    }

    /// Stops `node` where it stands.
    pub fn park_node(&mut self, node: NodeId) {
        let now = self.now;
        if let Some(i) = self.nodes.idx(node) {
            self.nodes.mobility[i].park(now);
            self.nodes.mobility_epoch[i] += 1;
            self.topo_version += 1;
        }
    }

    /// Handles a waypoint-arrival event: picks the next leg.
    pub(crate) fn handle_waypoint(&mut self, node: NodeId, epoch: u64) {
        let speed = self.config.speed;
        let Some(i) = self.nodes.idx(node) else {
            return;
        };
        if !self.nodes.alive[i] || self.nodes.mobility_epoch[i] != epoch || speed <= 0.0 {
            return;
        }
        self.start_leg(node);
    }

    // ------------------------------------------------------------------
    // Event queue internals (used by Sim)
    // ------------------------------------------------------------------

    pub(crate) fn push_at(&mut self, at: SimTime, kind: EventKind<M>) {
        self.queue.push(at, kind);
        self.note_queue_depth();
    }

    /// Raises the queue high-water mark to the current depth. Depth
    /// counts each delivery run once per recipient, so the mark is the
    /// one a queue with an entry per recipient would reach.
    fn note_queue_depth(&mut self) {
        let depth = self.queue.len() as u64;
        let perf = self.metrics.perf_mut();
        perf.queue_high_water = perf.queue_high_water.max(depth);
    }

    /// Pops the earliest event due by `until`; a delivery run comes out
    /// one recipient per call, each counted as one event.
    pub(crate) fn pop_due(&mut self, until: SimTime) -> Option<Scheduled<M>> {
        let ev = self.queue.pop_due(until)?;
        debug_assert!(ev.at >= self.now, "time went backwards");
        self.now = ev.at;
        self.metrics.perf_mut().events += 1;
        Some(ev)
    }

    pub(crate) fn advance_to(&mut self, t: SimTime) {
        if t > self.now {
            self.now = t;
        }
    }

    pub(crate) fn timer_cancelled(&mut self, id: TimerId) -> bool {
        self.cancelled_timers.remove(&id)
    }

    /// Number of events still queued (including cancelled timers),
    /// counting one per recipient: a broadcast ring shares one queue
    /// entry and one payload until it is dispatched, but each of its
    /// recipients not yet dispatched counts here, as it does in
    /// [`PerfCounters`](crate::PerfCounters)' `events`, `deliveries`
    /// and `queue_high_water`.
    #[must_use]
    pub fn pending_events(&self) -> usize {
        self.queue.len()
    }
}

impl<M: Clone + fmt::Debug> World<M> {
    /// Installs a shadow transport (see [`WireShadow`]): from now on
    /// every delivery is first carried over the shadow's medium and the
    /// recipient-decoded copy is what gets scheduled.
    pub fn set_wire_shadow(&mut self, shadow: Box<dyn WireShadow<M>>) {
        self.shadow = Some(shadow);
    }

    /// Whether a shadow transport is installed.
    #[must_use]
    pub fn has_wire_shadow(&self) -> bool {
        self.shadow.is_some()
    }

    /// Reconstructs one deterministic shortest path `from → to` over the
    /// current link map: walk back from the recipient, always picking
    /// the lowest-id neighbor one hop closer to the sender. `dist_hops`
    /// is the recipient's BFS depth (0 for a self-delivery).
    fn shadow_route(&mut self, from: NodeId, to: NodeId, dist_hops: u32) -> Vec<NodeId> {
        if from == to || dist_hops == 0 {
            return vec![from];
        }
        let topo = self.topology();
        let src = topo.index_of(from).expect("sender in snapshot");
        let dst = topo.index_of(to).expect("recipient in snapshot");
        let mut path = topo.with_distances_at(src, |dist| {
            let mut path = vec![to];
            let mut cur = dst;
            for d in (1..dist_hops).rev() {
                cur = topo
                    .neighbor_indices_at(cur)
                    .iter()
                    .map(|&j| j as usize)
                    .filter(|&j| dist[j] == d)
                    .min_by_key(|&j| topo.node_at(j))
                    .expect("BFS predecessor exists on a shortest path");
                path.push(topo.node_at(cur));
            }
            path
        });
        path.push(from);
        path.reverse();
        path
    }

    /// Runs the shadow transport for one `(from, to)` delivery and
    /// returns the message copy the recipient decoded (`None` when no
    /// shadow is installed).
    fn shadow_carry(
        &mut self,
        from: NodeId,
        to: NodeId,
        dist_hops: u32,
        category: MsgCategory,
        msg: &M,
    ) -> Option<M> {
        let mut shadow = self.shadow.take()?;
        let path = self.shadow_route(from, to, dist_hops);
        let carried = shadow.carry(&path, category, msg);
        self.shadow = Some(shadow);
        Some(carried)
    }

    /// Enables transcript recording: every input the driver feeds and
    /// every effect the protocol performs through [`Net`](crate::Net)
    /// is appended in canonical form. Off by default (one `Option`
    /// check per effect).
    pub fn enable_transcript(&mut self) {
        self.transcript = Some(Transcript::new());
    }

    /// The recorded transcript, when enabled.
    #[must_use]
    pub fn transcript(&self) -> Option<&Transcript> {
        self.transcript.as_ref()
    }

    /// Takes the transcript out of the world (ends recording).
    pub fn take_transcript(&mut self) -> Option<Transcript> {
        self.transcript.take()
    }
}

impl<M: ProtoMsg> World<M> {
    /// Records one driver-side input when transcribing (the output half
    /// is recorded by [`Net`](crate::Net) as effects happen).
    pub(crate) fn record_input(&mut self, node: NodeId, input: &Input<M>) {
        let now = self.now;
        if let Some(t) = self.transcript.as_mut() {
            t.push_input(now, node, input);
        }
    }
}

/// The simulator as sans-io backend #1: every [`NetBackend`] call
/// forwards to the corresponding inherent method, so protocol effects
/// hit the same choke points (metrics, trace, fault plane, scheduling)
/// they always did, in the same order.
impl<M: ProtoMsg> NetBackend<M> for World<M> {
    fn now(&self) -> SimTime {
        World::now(self)
    }

    fn is_alive(&self, node: NodeId) -> bool {
        World::is_alive(self, node)
    }

    fn is_configured(&self, node: NodeId) -> bool {
        World::is_configured(self, node)
    }

    fn neighbors(&mut self, node: NodeId) -> Vec<NodeId> {
        World::neighbors(self, node)
    }

    fn nodes_within(&mut self, node: NodeId, k: u32) -> Vec<(NodeId, u32)> {
        World::nodes_within(self, node, k)
    }

    fn hops_between(&mut self, a: NodeId, b: NodeId) -> Option<u32> {
        World::hops_between(self, a, b)
    }

    fn distances_from(&mut self, node: NodeId) -> HashMap<NodeId, u32> {
        self.topology().distances_from(node)
    }

    fn component_of(&mut self, node: NodeId) -> Vec<NodeId> {
        World::component_of(self, node)
    }

    fn components(&mut self) -> Vec<Vec<NodeId>> {
        World::components(self)
    }

    fn rng_range_u64(&mut self, range: std::ops::Range<u64>) -> u64 {
        self.rng.range_u64(range)
    }

    fn attack_role(&self, node: NodeId) -> Option<AttackKind> {
        World::attack_role(self, node)
    }

    fn attack_assigned(&self, node: NodeId) -> Option<AttackKind> {
        World::attack_assigned(self, node)
    }

    fn metrics_mut(&mut self) -> &mut Metrics {
        World::metrics_mut(self)
    }

    fn flow_event(&mut self, kind: FlowKind, node: NodeId, stage: FlowStage) {
        World::flow_event(self, kind, node, stage);
    }

    fn mark_configured(&mut self, node: NodeId) {
        World::mark_configured(self, node);
    }

    fn remove_node(&mut self, node: NodeId) {
        World::remove_node(self, node);
    }

    fn unicast(
        &mut self,
        from: NodeId,
        to: NodeId,
        category: MsgCategory,
        msg: M,
    ) -> Result<u32, SendError> {
        World::unicast(self, from, to, category, msg)
    }

    fn broadcast_within(
        &mut self,
        from: NodeId,
        k: u32,
        category: MsgCategory,
        msg: M,
    ) -> Result<Vec<NodeId>, SendError> {
        World::broadcast_within(self, from, k, category, msg)
    }

    fn flood(
        &mut self,
        from: NodeId,
        category: MsgCategory,
        msg: M,
    ) -> Result<Vec<NodeId>, SendError> {
        World::flood(self, from, category, msg)
    }

    fn set_timer(&mut self, node: NodeId, delay: SimDuration, tag: u64) -> TimerId {
        World::set_timer(self, node, delay, tag)
    }

    fn cancel_timer(&mut self, id: TimerId) {
        World::cancel_timer(self, id);
    }

    fn transcript_mut(&mut self) -> Option<&mut Transcript> {
        self.transcript.as_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Net, Protocol, Sim};

    /// Neighbours `0..m` sit on a 10 m line; node `m` joins last, next
    /// to all of them, and sends one k=1 broadcast of `7` on joining.
    /// Every delivery is logged; `evict` names a recipient whose
    /// delivery makes it remove the node `evict + 2`.
    struct Beacon {
        m: u64,
        evict: Option<u64>,
        got: Vec<(u64, u32)>,
    }

    impl Protocol for Beacon {
        type Msg = u32;

        fn on_join(&mut self, w: &mut Net<'_, u32>, node: NodeId) {
            if node.index() == self.m {
                let to = w.broadcast_within(node, 1, MsgCategory::Hello, 7).unwrap();
                assert_eq!(to.len() as u64, self.m);
            }
        }

        fn on_message(&mut self, w: &mut Net<'_, u32>, to: NodeId, _from: NodeId, msg: u32) {
            self.got.push((to.index(), msg));
            if self.evict == Some(to.index()) {
                w.remove_node(NodeId::new(to.index() + 2));
            }
        }
    }

    fn beacon(m: u64, evict: Option<u64>, shadow: Option<Tamper>) -> Sim<Beacon> {
        let config = WorldConfig {
            speed: 0.0,
            ..WorldConfig::default()
        };
        let mut sim = Sim::new(
            config,
            Beacon {
                m,
                evict,
                got: Vec::new(),
            },
        );
        if let Some(shadow) = shadow {
            sim.world_mut().set_wire_shadow(Box::new(shadow));
        }
        for i in 0..=m {
            sim.spawn_at(Point::new(10.0 * i as f64, 0.0));
        }
        sim
    }

    #[test]
    fn a_broadcast_is_one_entry_dispatched_one_recipient_per_step() {
        let m = 5;
        let mut sim = beacon(m, None, None);
        assert_eq!(sim.world().queue.entries(), 1, "one run for the whole ring");
        assert_eq!(sim.world().pending_events(), 5);
        assert_eq!(sim.world().metrics().perf().queue_high_water, 5);
        let until = SimTime::from_micros(1_000_000);
        for step in 1..=m {
            assert!(sim.step_until(until));
            let perf = sim.world().metrics().perf();
            assert_eq!((perf.events, perf.deliveries), (step, step));
            assert_eq!(sim.world().pending_events() as u64, m - step);
            assert_eq!(sim.protocol().got.len() as u64, step);
        }
        assert!(!sim.step_until(until));
        assert_eq!(sim.world().metrics().perf().queue_high_water, 5);
        let got: Vec<(u64, u32)> = (0..m).map(|n| (n, 7)).collect();
        assert_eq!(sim.protocol().got, got);
    }

    #[test]
    fn a_recipient_removed_mid_run_is_skipped() {
        // Node 0's handler removes node 2 before its turn in the run.
        let mut sim = beacon(4, Some(0), None);
        sim.run_until(SimTime::from_micros(1_000_000));
        assert_eq!(sim.protocol().got, vec![(0, 7), (1, 7), (3, 7)]);
        let perf = sim.world().metrics().perf();
        assert_eq!((perf.events, perf.deliveries), (4, 3));
        assert_eq!(sim.world().pending_events(), 0);
    }

    /// A wire shadow that adds 100 to what it carries to `victim` and
    /// passes every other copy through.
    #[derive(Debug)]
    struct Tamper {
        victim: NodeId,
    }

    impl WireShadow<u32> for Tamper {
        fn carry(&mut self, path: &[NodeId], _category: MsgCategory, msg: &u32) -> u32 {
            if path.last() == Some(&self.victim) {
                msg + 100
            } else {
                *msg
            }
        }
    }

    #[test]
    fn a_shadow_decoded_copy_reaches_only_its_recipient() {
        let tamper = Tamper {
            victim: NodeId::new(2),
        };
        let mut sim = beacon(4, None, Some(tamper));
        assert_eq!(sim.world().pending_events(), 4);
        sim.run_until(SimTime::from_micros(1_000_000));
        assert_eq!(sim.protocol().got, vec![(0, 7), (1, 7), (2, 107), (3, 7)]);
        assert_eq!(sim.world().metrics().perf().deliveries, 4);
    }
}
