//! Per-layer metrics and folded stacks from a traced replay.
//!
//! Layers are named after the modules they time: `sim` (the event loop
//! in `manet-sim::sim`), `world` (the send path in `manet-sim::world`),
//! `topology`, `faults`, `proto` (`qbac-core` and `baselines`),
//! `observer`, `wire` (`qbac-core::wire` and the DAD codec), `mesh`
//! (`transport-mesh`) and `pool` (`harness::sweep::run_jobs`).

use crate::trace::Span;
use crate::workloads::{TracedRun, Workload};

/// QBAC message kinds with their own `proto.msg.<Kind>` metrics: the
/// ones a join, a vote, a hello exchange and replica upkeep are made
/// of. The rest are summed into `proto.msg.other`.
pub const PROTO_KINDS: [&str; 12] = [
    "Hello",
    "ComReq",
    "ComCfg",
    "ComAck",
    "ChReq",
    "ChCnf",
    "QuorumClt",
    "QuorumCfm",
    "QuorumCommit",
    "ReplicaPush",
    "UpdateLoc",
    "AddrRec",
];

/// Message kinds with their own `wire.<Kind>` metrics on `mesh-wire`:
/// the ones that carry most of its bytes (`Areq` is DAD's).
pub const WIRE_KINDS: [&str; 4] = ["Hello", "Areq", "ComCfg", "ReplicaPush"];

pub const BASELINES: [&str; 4] = ["manetconf", "buddy", "ctree", "dad"];

pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// Every per-layer metric, in a fixed order and with fixed names, for
/// one traced replay. `plain_wall_s` is the untraced call on the same
/// seed, for the tracing overhead.
pub fn per_layer(run: &TracedRun, plain_wall_s: f64) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut put = |name: &str, value: f64, unit: &'static str| {
        out.push(Metric {
            name: name.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        });
    };
    let p = &run.profile;
    let perf = run.metrics.perf();
    let faults = run.metrics.faults();
    let op = |k: &str| p.ops.get(k).copied().unwrap_or_default();

    // Event loop: what is left of each simulation's wall once handler
    // time (and the nested effects) is taken out.
    let loop_s = run.sim_wall_s - p.handler_wall_ns as f64 * 1e-9;
    put("sim.events", perf.events as f64, "count");
    put("sim.deliveries", perf.deliveries as f64, "count");
    put("sim.loop_self_s", loop_s, "s");
    put(
        "sim.ns_per_event",
        ratio(loop_s * 1e9, perf.events as f64),
        "ns",
    );
    put(
        "sim.queue_high_water",
        perf.queue_high_water as f64,
        "count",
    );

    for k in ["unicast", "broadcast_within", "flood"] {
        let s = op(&format!("world.{k}"));
        put(&format!("world.{k}.calls"), s.calls as f64, "count");
        put(&format!("world.{k}.self_s"), s.secs(), "s");
    }
    let mut timer = op("world.timer.set");
    let cancel = op("world.timer.cancel");
    timer.calls += cancel.calls;
    timer.ns += cancel.ns;
    put("world.timer.calls", timer.calls as f64, "count");
    put("world.timer.self_s", timer.secs(), "s");
    for k in ["broadcast_within", "flood"] {
        let r = p
            .recipients
            .get(format!("world.{k}").as_str())
            .copied()
            .unwrap_or(0);
        put(&format!("world.{k}.recipients"), r as f64, "count");
    }
    put(
        "world.send_ns_per_recipient",
        ratio(p.send_ns[0] as f64, p.send_recipients[0] as f64),
        "ns",
    );

    put("topology.builds", perf.topo_builds as f64, "count");
    put(
        "topology.hit_share",
        ratio(
            perf.topo_hits as f64,
            (perf.topo_hits + perf.topo_builds) as f64,
        ),
        "ratio",
    );
    put("topology.build_s", p.build.secs(), "s");
    for q in [
        "neighbors",
        "nodes_within",
        "hops_between",
        "distances_from",
        "component_of",
        "components",
    ] {
        let s = op(&format!("topology.query.{q}"));
        put(
            &format!("topology.query.{q}.calls"),
            s.calls as f64,
            "count",
        );
        put(&format!("topology.query.{q}.s"), s.secs(), "s");
    }
    put("topology.degree_mean", run.census.degree_mean(), "count");
    put("topology.degree_max", run.census.degree_max as f64, "count");
    put("topology.components", run.census.components as f64, "count");

    put("faults.dropped", faults.dropped as f64, "count");
    put("faults.delayed", faults.delayed as f64, "count");
    put("faults.duplicated", faults.duplicated as f64, "count");
    put("faults.crashes", faults.crashes as f64, "count");
    put(
        "faults.send_ns_per_recipient",
        ratio(p.send_ns[1] as f64, p.send_recipients[1] as f64),
        "ns",
    );

    let handler = |proto: &str, label: &str| {
        p.handlers
            .get(&(proto.to_string(), label.to_string()))
            .cloned()
            .unwrap_or_default()
    };
    for label in ["join", "timer", "leave"] {
        let h = handler("quorum", label);
        put(
            &format!("proto.{label}.calls"),
            h.span.calls as f64,
            "count",
        );
        put(&format!("proto.{label}.self_s"), h.span.secs(), "s");
        put(
            &format!("proto.{label}.ns_p50"),
            h.hist.quantile(0.5) as f64,
            "ns",
        );
        put(
            &format!("proto.{label}.ns_p99"),
            h.hist.quantile(0.99) as f64,
            "ns",
        );
    }
    for kind in PROTO_KINDS {
        let h = handler("quorum", &format!("msg.{kind}"));
        put(
            &format!("proto.msg.{kind}.calls"),
            h.span.calls as f64,
            "count",
        );
        put(&format!("proto.msg.{kind}.self_s"), h.span.secs(), "s");
    }
    let hello = handler("quorum", "msg.Hello");
    put(
        "proto.msg.Hello.ns_p50",
        hello.hist.quantile(0.5) as f64,
        "ns",
    );
    put(
        "proto.msg.Hello.ns_p99",
        hello.hist.quantile(0.99) as f64,
        "ns",
    );
    let mut other = Span::default();
    for ((proto, label), h) in &p.handlers {
        let named = label
            .strip_prefix("msg.")
            .is_some_and(|k| PROTO_KINDS.contains(&k));
        if proto == "quorum" && label.starts_with("msg.") && !named {
            other.calls += h.span.calls;
            other.ns += h.span.ns;
        }
    }
    put("proto.msg.other.calls", other.calls as f64, "count");
    put("proto.msg.other.self_s", other.secs(), "s");
    put(
        "proto.hello_share",
        ratio(p.hellos as f64, p.messages as f64),
        "ratio",
    );
    for proto in std::iter::once("quorum").chain(BASELINES) {
        let ns: u64 = p
            .handlers
            .iter()
            .filter(|((name, _), _)| name == proto)
            .map(|(_, h)| h.span.ns)
            .sum();
        put(&format!("proto.{proto}.self_s"), ns as f64 * 1e-9, "s");
    }

    let obs = op("observer.flow_event");
    put("observer.flow_event.calls", obs.calls as f64, "count");
    put("observer.flow_event.s", obs.secs(), "s");

    let (mut msgs, mut enc, mut dec, mut bytes) = (0u64, 0u64, 0u64, 0u64);
    for c in p.codec.values() {
        msgs += c.msgs;
        enc += c.encode_ns;
        dec += c.decode_ns;
        bytes += c.bytes;
    }
    let m = msgs as f64;
    put("wire.msgs", m, "count");
    put("wire.encode_ns", ratio(enc as f64, m), "ns");
    put("wire.decode_ns", ratio(dec as f64, m), "ns");
    put("wire.bytes_per_msg", ratio(bytes as f64, m), "B");
    for kind in WIRE_KINDS {
        let c = p.codec.get(kind).copied().unwrap_or_default();
        let n = c.msgs as f64;
        put(
            &format!("wire.{kind}.encode_ns"),
            ratio(c.encode_ns as f64, n),
            "ns",
        );
        put(
            &format!("wire.{kind}.decode_ns"),
            ratio(c.decode_ns as f64, n),
            "ns",
        );
        put(
            &format!("wire.{kind}.bytes_per_msg"),
            ratio(c.bytes as f64, n),
            "B",
        );
    }

    let mesh = &run.mesh;
    put("mesh.datagrams", mesh.datagrams as f64, "count");
    put("mesh.retries", mesh.retries as f64, "count");
    put("mesh.filtered", mesh.filtered as f64, "count");
    put(
        "mesh.us_per_datagram",
        ratio(
            (mesh.mesh_side_s - mesh.sim_side_s) * 1e6,
            mesh.datagrams as f64,
        ),
        "us",
    );
    put("mesh.sim_side_s", mesh.sim_side_s, "s");
    put("mesh.mesh_side_s", mesh.mesh_side_s, "s");

    put("pool.busy_share", run.pool.busy_share, "ratio");
    put("pool.tail_job_s", run.pool.tail_s, "s");

    put("trace.wall_s", run.wall_s, "s");
    put("trace.overhead", ratio(run.wall_s, plain_wall_s), "ratio");
    out
}

/// Folded stacks, one `workload;layer;sublayer self_us` line per
/// sublayer with time in it, for any flamegraph renderer.
pub fn folded(w: Workload, run: &TracedRun) -> String {
    let mut lines: Vec<(String, u64)> = Vec::new();
    let p = &run.profile;
    let us = |ns: f64| (ns / 1e3).round() as u64;
    let loop_ns = run.sim_wall_s * 1e9 - p.handler_wall_ns as f64;
    lines.push(("sim;loop".into(), us(loop_ns)));
    for ((proto, label), h) in &p.handlers {
        lines.push((format!("proto;{proto}.{label}"), us(h.span.ns as f64)));
    }
    for (key, s) in &p.ops {
        let (layer, sub) = key.split_once('.').expect("op keys are layer.sublayer");
        lines.push((format!("{layer};{sub}"), us(s.ns as f64)));
    }
    lines.push(("topology;build".into(), us(p.build.ns as f64)));
    for (kind, c) in &p.codec {
        lines.push((format!("wire;encode.{kind}"), us(c.encode_ns as f64)));
        lines.push((format!("wire;decode.{kind}"), us(c.decode_ns as f64)));
    }
    if run.mesh.datagrams > 0 {
        let transport = (run.mesh.mesh_side_s - run.mesh.sim_side_s) * 1e9;
        lines.push(("mesh;transport_extra".into(), us(transport.max(0.0))));
    }
    let name = w.name();
    lines
        .into_iter()
        .filter(|(_, v)| *v > 0)
        .map(|(stack, v)| format!("{name};{stack} {v}\n"))
        .collect()
}
