//! Outside-in tracing: a [`ProtocolCore`] wrapper that times every
//! input the simulator feeds a protocol, and a forwarding
//! [`NetBackend`] that times every effect the protocol performs.
//!
//! Nothing here reaches into the simulator. The wrapper hands the inner
//! protocol a [`Net`] over [`Forward`], which calls the outer `Net`'s
//! public methods; the outer `Net` is the one that transcribes, so a
//! traced run records every transcript entry exactly once and its
//! behaviour fingerprint equals the untraced run's.

use proto_io::{
    AttackKind, FlowKind, FlowStage, Input, Metrics, MsgCategory, Net, NetBackend, NodeId,
    ProtocolCore, SendError, SimDuration, SimTime, TimerId, WireMsg,
};
use std::collections::{BTreeMap, HashMap};
use std::mem::Discriminant;
use std::ops::Range;
use std::time::{Duration, Instant};

/// One timed boundary: how often it was crossed and the time spent.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Span {
    pub calls: u64,
    pub ns: u64,
}

impl Span {
    fn add(&mut self, d: Duration) {
        self.calls += 1;
        self.ns += d.as_nanos() as u64;
    }

    fn merge(&mut self, o: &Span) {
        self.calls += o.calls;
        self.ns += o.ns;
    }

    pub fn secs(&self) -> f64 {
        self.ns as f64 * 1e-9
    }
}

/// Log-linear latency histogram: eight buckets per power of two, so a
/// quantile is read to within about 9 %.
#[derive(Debug, Clone)]
pub struct LogHist(Box<[u64; 64 * 8]>);

impl Default for LogHist {
    fn default() -> Self {
        LogHist(Box::new([0; 64 * 8]))
    }
}

impl LogHist {
    fn bucket(ns: u64) -> usize {
        if ns < 8 {
            return ns as usize;
        }
        let exp = 63 - ns.leading_zeros() as usize;
        let mantissa = ((ns >> (exp - 3)) & 7) as usize;
        (exp - 2) * 8 + mantissa
    }

    fn lower_bound(bucket: usize) -> u64 {
        if bucket < 8 {
            return bucket as u64;
        }
        let exp = bucket / 8 + 2;
        (8 + (bucket % 8) as u64) << (exp - 3)
    }

    fn record(&mut self, ns: u64) {
        self.0[Self::bucket(ns)] += 1;
    }

    fn merge(&mut self, o: &LogHist) {
        for (a, b) in self.0.iter_mut().zip(o.0.iter()) {
            *a += b;
        }
    }

    /// The lower edge of the bucket holding quantile `q`, in ns.
    pub fn quantile(&self, q: f64) -> u64 {
        let total: u64 = self.0.iter().sum();
        if total == 0 {
            return 0;
        }
        let rank = ((total as f64) * q).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (b, &c) in self.0.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return Self::lower_bound(b);
            }
        }
        Self::lower_bound(self.0.len() - 1)
    }
}

/// One protocol input label's self time.
#[derive(Debug, Clone, Default)]
pub struct Handler {
    pub span: Span,
    pub hist: LogHist,
}

/// Codec cost of one message kind, measured on a copy of each
/// delivered message.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Codec {
    pub msgs: u64,
    pub encode_ns: u64,
    pub decode_ns: u64,
    pub bytes: u64,
    pub decode_failures: u64,
}

/// The `Net` effects the forwarding backend times.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    Unicast,
    BroadcastWithin,
    Flood,
    SetTimer,
    CancelTimer,
    Neighbors,
    NodesWithin,
    HopsBetween,
    DistancesFrom,
    ComponentOf,
    Components,
    FlowEvent,
    MarkConfigured,
    RemoveNode,
}

impl Op {
    pub const ALL: [Op; 14] = [
        Op::Unicast,
        Op::BroadcastWithin,
        Op::Flood,
        Op::SetTimer,
        Op::CancelTimer,
        Op::Neighbors,
        Op::NodesWithin,
        Op::HopsBetween,
        Op::DistancesFrom,
        Op::ComponentOf,
        Op::Components,
        Op::FlowEvent,
        Op::MarkConfigured,
        Op::RemoveNode,
    ];

    /// Metric key, `<layer>.<sublayer>`, this effect is charged to
    /// when it did not rebuild the topology snapshot.
    pub fn key(self) -> &'static str {
        match self {
            Op::Unicast => "world.unicast",
            Op::BroadcastWithin => "world.broadcast_within",
            Op::Flood => "world.flood",
            Op::SetTimer => "world.timer.set",
            Op::CancelTimer => "world.timer.cancel",
            Op::Neighbors => "topology.query.neighbors",
            Op::NodesWithin => "topology.query.nodes_within",
            Op::HopsBetween => "topology.query.hops_between",
            Op::DistancesFrom => "topology.query.distances_from",
            Op::ComponentOf => "topology.query.component_of",
            Op::Components => "topology.query.components",
            Op::FlowEvent => "observer.flow_event",
            Op::MarkConfigured => "world.mark_configured",
            Op::RemoveNode => "world.remove_node",
        }
    }

    fn is_send(self) -> bool {
        matches!(self, Op::Unicast | Op::BroadcastWithin | Op::Flood)
    }
}

/// Everything one traced simulation recorded. Merging is field-wise
/// addition, so shards and cells fold into one profile in any order.
#[derive(Debug, Clone, Default)]
pub struct Profile {
    /// Self time per `(protocol, input label)`.
    pub handlers: BTreeMap<(String, String), Handler>,
    /// Effects that did not rebuild the snapshot, by op. Flow events
    /// made while the observer is off are kept apart under
    /// `flow_event_off`, since no observer work happened.
    pub ops: BTreeMap<&'static str, Span>,
    /// Recipients of broadcast_within / flood.
    pub recipients: BTreeMap<&'static str, u64>,
    /// Effects during which the world rebuilt its topology snapshot.
    pub build: Span,
    /// Self time and recipients of the sends that did not rebuild the
    /// snapshot, `[clean, chaos]`: cells without and with a fault plan.
    pub send_ns: [u64; 2],
    pub send_recipients: [u64; 2],
    /// Codec cost per message kind (only where codec probing is on).
    pub codec: BTreeMap<String, Codec>,
    /// Σ handler wall time including nested effects.
    pub handler_wall_ns: u64,
    /// Message inputs handled, and how many were `Hello`.
    pub messages: u64,
    pub hellos: u64,
}

impl Profile {
    pub fn merge(&mut self, o: &Profile) {
        for (k, h) in &o.handlers {
            let e = self.handlers.entry(k.clone()).or_default();
            e.span.merge(&h.span);
            e.hist.merge(&h.hist);
        }
        for (k, s) in &o.ops {
            self.ops.entry(k).or_default().merge(s);
        }
        for (k, r) in &o.recipients {
            *self.recipients.entry(k).or_default() += r;
        }
        self.build.merge(&o.build);
        for i in 0..2 {
            self.send_ns[i] += o.send_ns[i];
            self.send_recipients[i] += o.send_recipients[i];
        }
        for (k, c) in &o.codec {
            let e = self.codec.entry(k.clone()).or_default();
            e.msgs += c.msgs;
            e.encode_ns += c.encode_ns;
            e.decode_ns += c.decode_ns;
            e.bytes += c.bytes;
            e.decode_failures += c.decode_failures;
        }
        self.handler_wall_ns += o.handler_wall_ns;
        self.messages += o.messages;
        self.hellos += o.hellos;
    }

    /// Every exact count in the profile, rendered in a fixed order: two
    /// replays of one input must produce the same string.
    pub fn counts(&self) -> String {
        let mut s = String::new();
        for ((p, l), h) in &self.handlers {
            s.push_str(&format!("{p}.{l}={} ", h.span.calls));
        }
        for (k, o) in &self.ops {
            s.push_str(&format!("{k}={} ", o.calls));
        }
        for (k, r) in &self.recipients {
            s.push_str(&format!("{k}.recipients={r} "));
        }
        for (k, c) in &self.codec {
            s.push_str(&format!("wire.{k}={}/{} ", c.msgs, c.bytes));
        }
        s.push_str(&format!("builds={}", self.build.calls));
        s
    }
}

type CodecProbe<M> = fn(&M, &mut Codec);

fn probe_codec<M: WireMsg>(msg: &M, out: &mut Codec) {
    let mut bytes = Vec::new();
    let t = Instant::now();
    msg.wire_encode(&mut bytes);
    let enc = t.elapsed();
    let t = Instant::now();
    let decoded = M::wire_decode(std::hint::black_box(&bytes));
    let dec = t.elapsed();
    out.msgs += 1;
    out.encode_ns += enc.as_nanos() as u64;
    out.decode_ns += dec.as_nanos() as u64;
    out.bytes += bytes.len() as u64;
    if decoded.is_err() {
        out.decode_failures += 1;
    }
}

/// Names message kinds by enum variant. The name is read from the
/// `Debug` form once per variant, never per message.
struct Kinds<M> {
    seen: Vec<(Discriminant<M>, usize)>,
}

impl<M: std::fmt::Debug> Kinds<M> {
    fn index(&mut self, msg: &M, labels: &mut Vec<String>) -> usize {
        let d = std::mem::discriminant(msg);
        if let Some(&(_, i)) = self.seen.iter().find(|(k, _)| *k == d) {
            return i;
        }
        let debug = format!("{msg:?}");
        let name: String = debug
            .chars()
            .take_while(|c| c.is_alphanumeric() || *c == '_')
            .collect();
        let label = format!("msg.{name}");
        let i = match labels.iter().position(|l| *l == label) {
            Some(i) => i,
            None => {
                labels.push(label);
                labels.len() - 1
            }
        };
        self.seen.push((d, i));
        i
    }
}

/// How a traced world is set up, as far as attribution cares.
#[derive(Debug, Clone, Copy, Default)]
pub struct WorldKind {
    /// The world runs a fault plan (its sends go to the chaos bucket).
    pub chaos: bool,
    /// The flow-span observer is on.
    pub observe: bool,
}

/// Counters the forwarding backend fills for one traced world.
#[derive(Debug, Default)]
struct Effects {
    kind: WorldKind,
    ops: [Span; 14],
    flow_events_off: Span,
    recipients: [u64; 14],
    build: Span,
    send_ns: u64,
    send_recipients: u64,
}

/// A protocol wrapped for tracing. `name` is the registry name the
/// profile files its handlers under.
pub struct Traced<P: ProtocolCore> {
    inner: P,
    name: &'static str,
    codec: Option<CodecProbe<P::Msg>>,
    kinds: Kinds<P::Msg>,
    labels: Vec<String>,
    handlers: Vec<Handler>,
    codec_stats: Vec<Codec>,
    effects: Effects,
    handler_wall_ns: u64,
    messages: u64,
    hellos: u64,
}

const JOIN: usize = 0;
const TIMER: usize = 1;
const LEAVE: usize = 2;
const LINK: usize = 3;

impl<P: ProtocolCore> Traced<P> {
    pub fn new(inner: P, name: &'static str, kind: WorldKind) -> Self {
        let labels: Vec<String> = ["join", "timer", "leave", "link"]
            .iter()
            .map(|s| (*s).to_string())
            .collect();
        Traced {
            inner,
            name,
            codec: None,
            kinds: Kinds { seen: Vec::new() },
            handlers: vec![Handler::default(); labels.len()],
            labels,
            codec_stats: Vec::new(),
            effects: Effects {
                kind,
                ..Effects::default()
            },
            handler_wall_ns: 0,
            messages: 0,
            hellos: 0,
        }
    }

    /// Folds this world's counters into a [`Profile`].
    pub fn profile(&self) -> Profile {
        let mut p = Profile::default();
        for (label, h) in self.labels.iter().zip(&self.handlers) {
            if h.span.calls > 0 {
                p.handlers
                    .insert((self.name.to_string(), label.clone()), h.clone());
            }
        }
        let e = &self.effects;
        for (op, span) in Op::ALL.iter().zip(&e.ops) {
            if span.calls > 0 {
                p.ops.insert(op.key(), *span);
            }
            let r = e.recipients[*op as usize];
            if r > 0 {
                p.recipients.insert(op.key(), r);
            }
        }
        if e.flow_events_off.calls > 0 {
            p.ops.insert("world.flow_event_off", e.flow_events_off);
        }
        p.build = e.build;
        let bucket = usize::from(e.kind.chaos);
        p.send_ns[bucket] = e.send_ns;
        p.send_recipients[bucket] = e.send_recipients;
        for (i, c) in self.codec_stats.iter().enumerate() {
            if c.msgs > 0 {
                let label = &self.labels[i];
                let kind = label.strip_prefix("msg.").unwrap_or(label);
                p.codec.insert(kind.to_string(), *c);
            }
        }
        p.handler_wall_ns = self.handler_wall_ns;
        p.messages = self.messages;
        p.hellos = self.hellos;
        p
    }
}

impl<P: ProtocolCore> Traced<P>
where
    P::Msg: WireMsg,
{
    /// Also times the wire codec on a copy of each delivered message,
    /// outside the handler timer.
    pub fn with_codec(mut self) -> Self {
        self.codec = Some(probe_codec::<P::Msg>);
        self
    }
}

impl<P: ProtocolCore> ProtocolCore for Traced<P> {
    type Msg = P::Msg;

    fn on_join(&mut self, w: &mut Net<'_, Self::Msg>, node: NodeId) {
        self.handle(w, node, Input::Join);
    }

    fn on_message(&mut self, w: &mut Net<'_, Self::Msg>, to: NodeId, from: NodeId, msg: P::Msg) {
        self.handle(w, to, Input::Message { from, msg });
    }

    fn is_cluster_head(&self, node: NodeId) -> bool {
        self.inner.is_cluster_head(node)
    }

    fn handle(&mut self, w: &mut Net<'_, Self::Msg>, node: NodeId, input: Input<Self::Msg>) {
        let label = match &input {
            Input::Join => JOIN,
            Input::TimerFired { .. } => TIMER,
            Input::Leave { .. } => LEAVE,
            Input::LinkChange { .. } => LINK,
            Input::Message { msg, .. } => {
                let i = self.kinds.index(msg, &mut self.labels);
                if self.handlers.len() < self.labels.len() {
                    self.handlers
                        .resize_with(self.labels.len(), Handler::default);
                }
                self.messages += 1;
                if self.labels[i] == "msg.Hello" {
                    self.hellos += 1;
                }
                if let Some(probe) = self.codec {
                    if self.codec_stats.len() <= i {
                        self.codec_stats.resize_with(i + 1, Codec::default);
                    }
                    probe(msg, &mut self.codec_stats[i]);
                }
                i
            }
        };
        let mut fwd = Forward {
            net: w,
            fx: &mut self.effects,
            nested_ns: 0,
            rebuilt: false,
        };
        let t0 = Instant::now();
        self.inner.handle(&mut Net::new(&mut fwd), node, input);
        let wall = t0.elapsed().as_nanos() as u64;
        let self_ns = wall.saturating_sub(fwd.nested_ns);
        let h = &mut self.handlers[label];
        h.span.calls += 1;
        h.span.ns += self_ns;
        h.hist.record(self_ns);
        self.handler_wall_ns += wall;
    }
}

/// The backend the inner protocol sees: each call forwards to the outer
/// [`Net`] and is timed. A call during which the world's topology
/// snapshot was rebuilt is charged to `topology.build` as a whole.
struct Forward<'a, 'b, M> {
    net: &'a mut Net<'b, M>,
    fx: &'a mut Effects,
    nested_ns: u64,
    /// Whether the last timed call rebuilt the snapshot.
    rebuilt: bool,
}

impl<M: proto_io::ProtoMsg> Forward<'_, '_, M> {
    fn timed<R>(&mut self, op: Op, f: impl FnOnce(&mut Net<'_, M>) -> R) -> R {
        let builds = self.net.metrics_mut().perf().topo_builds;
        let t0 = Instant::now();
        let r = f(self.net);
        let d = t0.elapsed();
        self.nested_ns += d.as_nanos() as u64;
        let fx = &mut *self.fx;
        self.rebuilt = self.net.metrics_mut().perf().topo_builds != builds;
        if self.rebuilt {
            fx.build.add(d);
            // The op still counts as one call of its kind.
            fx.ops[op as usize].calls += 1;
        } else if op == Op::FlowEvent && !fx.kind.observe {
            fx.flow_events_off.add(d);
        } else {
            fx.ops[op as usize].add(d);
            if op.is_send() {
                fx.send_ns += d.as_nanos() as u64;
            }
        }
        r
    }

    /// Counts a send's recipients; only sends whose time stayed in the
    /// send path count towards the per-recipient cost.
    fn recipients(&mut self, op: Op, n: usize) {
        self.fx.recipients[op as usize] += n as u64;
        if !self.rebuilt {
            self.fx.send_recipients += n as u64;
        }
    }
}

impl<M: proto_io::ProtoMsg> NetBackend<M> for Forward<'_, '_, M> {
    fn now(&self) -> SimTime {
        self.net.now()
    }

    fn is_alive(&self, node: NodeId) -> bool {
        self.net.is_alive(node)
    }

    fn is_configured(&self, node: NodeId) -> bool {
        self.net.is_configured(node)
    }

    fn neighbors(&mut self, node: NodeId) -> Vec<NodeId> {
        self.timed(Op::Neighbors, |n| n.neighbors(node))
    }

    fn nodes_within(&mut self, node: NodeId, k: u32) -> Vec<(NodeId, u32)> {
        self.timed(Op::NodesWithin, |n| n.nodes_within(node, k))
    }

    fn hops_between(&mut self, a: NodeId, b: NodeId) -> Option<u32> {
        self.timed(Op::HopsBetween, |n| n.hops_between(a, b))
    }

    fn distances_from(&mut self, node: NodeId) -> HashMap<NodeId, u32> {
        self.timed(Op::DistancesFrom, |n| n.distances_from(node))
    }

    fn component_of(&mut self, node: NodeId) -> Vec<NodeId> {
        self.timed(Op::ComponentOf, |n| n.component_of(node))
    }

    fn components(&mut self) -> Vec<Vec<NodeId>> {
        self.timed(Op::Components, |n| n.components())
    }

    fn rng_range_u64(&mut self, range: Range<u64>) -> u64 {
        self.net.rng_range_u64(range)
    }

    fn attack_role(&self, node: NodeId) -> Option<AttackKind> {
        self.net.attack_role(node)
    }

    fn attack_assigned(&self, node: NodeId) -> Option<AttackKind> {
        self.net.attack_assigned(node)
    }

    fn metrics_mut(&mut self) -> &mut Metrics {
        self.net.metrics_mut()
    }

    fn flow_event(&mut self, kind: FlowKind, node: NodeId, stage: FlowStage) {
        self.timed(Op::FlowEvent, |n| n.flow_event(kind, node, stage));
    }

    fn mark_configured(&mut self, node: NodeId) {
        self.timed(Op::MarkConfigured, |n| n.mark_configured(node));
    }

    fn remove_node(&mut self, node: NodeId) {
        self.timed(Op::RemoveNode, |n| n.remove_node(node));
    }

    fn unicast(
        &mut self,
        from: NodeId,
        to: NodeId,
        category: MsgCategory,
        msg: M,
    ) -> Result<u32, SendError> {
        let r = self.timed(Op::Unicast, |n| n.unicast(from, to, category, msg));
        if r.is_ok() {
            self.recipients(Op::Unicast, 1);
        }
        r
    }

    fn broadcast_within(
        &mut self,
        from: NodeId,
        k: u32,
        category: MsgCategory,
        msg: M,
    ) -> Result<Vec<NodeId>, SendError> {
        let r = self.timed(Op::BroadcastWithin, |n| {
            n.broadcast_within(from, k, category, msg)
        });
        if let Ok(to) = &r {
            self.recipients(Op::BroadcastWithin, to.len());
        }
        r
    }

    fn flood(
        &mut self,
        from: NodeId,
        category: MsgCategory,
        msg: M,
    ) -> Result<Vec<NodeId>, SendError> {
        let r = self.timed(Op::Flood, |n| n.flood(from, category, msg));
        if let Ok(to) = &r {
            self.recipients(Op::Flood, to.len());
        }
        r
    }

    fn set_timer(&mut self, node: NodeId, delay: SimDuration, tag: u64) -> TimerId {
        self.timed(Op::SetTimer, |n| n.set_timer(node, delay, tag))
    }

    fn cancel_timer(&mut self, id: TimerId) {
        self.timed(Op::CancelTimer, |n| n.cancel_timer(id));
    }
}
