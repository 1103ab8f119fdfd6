use crate::event::EventKind;
use crate::{Input, Net, NodeId, Point, Protocol, SimDuration, SimTime, World, WorldConfig};

/// The simulation driver: owns the [`World`] and the [`Protocol`] and
/// dispatches events to the protocol's callbacks in timestamp order.
///
/// Scenario code (the experiment harness) uses `Sim` to place nodes and
/// schedule arrivals/departures; the protocol reacts through the
/// callbacks. See the [crate docs](crate) for an end-to-end example.
#[derive(Debug)]
pub struct Sim<P: Protocol> {
    world: World<P::Msg>,
    protocol: P,
}

impl<P: Protocol> Sim<P> {
    /// Creates a simulation with the given configuration and protocol.
    pub fn new(config: WorldConfig, protocol: P) -> Self {
        Sim {
            world: World::new(config),
            protocol,
        }
    }

    /// The simulated network.
    #[must_use]
    pub fn world(&self) -> &World<P::Msg> {
        &self.world
    }

    /// Mutable access to the network (for scenario-level tweaks).
    pub fn world_mut(&mut self) -> &mut World<P::Msg> {
        &mut self.world
    }

    /// The protocol under simulation.
    #[must_use]
    pub fn protocol(&self) -> &P {
        &self.protocol
    }

    /// Mutable access to the protocol (for inspection helpers in tests).
    pub fn protocol_mut(&mut self) -> &mut P {
        &mut self.protocol
    }

    /// Decomposes the simulation into its world and protocol.
    #[must_use]
    pub fn into_parts(self) -> (World<P::Msg>, P) {
        (self.world, self.protocol)
    }

    /// Simultaneous mutable access to world and protocol (e.g. for audits
    /// that read protocol state while querying the topology).
    pub fn parts_mut(&mut self) -> (&mut World<P::Msg>, &mut P) {
        (&mut self.world, &mut self.protocol)
    }

    // ------------------------------------------------------------------
    // Scenario API
    // ------------------------------------------------------------------

    /// Spawns a node at `pos` and joins it immediately (the protocol's
    /// `on_join` runs before this returns).
    pub fn spawn_at(&mut self, pos: Point) -> NodeId {
        let node = self.world.create_node(pos);
        self.world.activate(node);
        self.feed(node, Input::Join);
        node
    }

    /// Spawns a node at a uniformly random position, joining immediately.
    pub fn spawn_random(&mut self) -> NodeId {
        let arena = self.world.arena();
        let pos = self.world.rng_mut().point_in(&arena);
        self.spawn_at(pos)
    }

    /// Creates a node at `pos` that will join at time `at`.
    pub fn schedule_spawn_at(&mut self, at: SimTime, pos: Point) -> NodeId {
        let node = self.world.create_node(pos);
        self.world.push_at(at, EventKind::Join { node });
        node
    }

    /// Creates a node at a random position that will join at time `at`.
    pub fn schedule_spawn_random(&mut self, at: SimTime) -> NodeId {
        let arena = self.world.arena();
        let pos = self.world.rng_mut().point_in(&arena);
        self.schedule_spawn_at(at, pos)
    }

    /// Schedules `node` to leave at time `at`. Graceful leaves run the
    /// protocol's departure handshake; abrupt leaves kill the node first.
    pub fn schedule_leave(&mut self, at: SimTime, node: NodeId, graceful: bool) {
        self.world.push_at(at, EventKind::Leave { node, graceful });
    }

    /// Makes `node` leave right now.
    pub fn leave_now(&mut self, node: NodeId, graceful: bool) {
        self.dispatch_leave(node, graceful);
    }

    // ------------------------------------------------------------------
    // Event loop
    // ------------------------------------------------------------------

    /// Processes all events with timestamps `≤ until`, then advances the
    /// clock to `until`. Returns the number of events processed.
    pub fn run_until(&mut self, until: SimTime) -> u64 {
        let mut processed = 0;
        while let Some(ev) = self.world.pop_due(until) {
            self.dispatch(ev.kind);
            processed += 1;
        }
        self.world.advance_to(until);
        processed
    }

    /// Processes the single earliest event with a timestamp `≤ until`
    /// and returns `true`. When no event is due, advances the clock to
    /// `until` and returns `false`.
    ///
    /// This is the hook the conformance oracle uses to interleave an
    /// invariant check after every simulator event:
    ///
    /// ```ignore
    /// while sim.step_until(deadline) {
    ///     checker.check(sim.parts_mut());
    /// }
    /// ```
    pub fn step_until(&mut self, until: SimTime) -> bool {
        match self.world.pop_due(until) {
            Some(ev) => {
                self.dispatch(ev.kind);
                true
            }
            None => {
                self.world.advance_to(until);
                false
            }
        }
    }

    /// Runs for `span` of virtual time from the current instant.
    pub fn run_for(&mut self, span: SimDuration) -> u64 {
        let until = self.world.now().saturating_add(span);
        self.run_until(until)
    }

    /// Processes events until the queue is empty (only safe for protocols
    /// without self-rescheduling periodic timers) or `max_events` is hit.
    /// Returns the number of events processed.
    pub fn drain(&mut self, max_events: u64) -> u64 {
        let mut processed = 0;
        while processed < max_events {
            match self.world.pop_due(SimTime::MAX) {
                Some(ev) => {
                    self.dispatch(ev.kind);
                    processed += 1;
                }
                None => break,
            }
        }
        processed
    }

    /// Feeds one sans-io [`Input`] to the protocol core: records it in
    /// the transcript (when recording) and dispatches through a [`Net`]
    /// handle wrapping the world.
    fn feed(&mut self, node: NodeId, input: Input<P::Msg>) {
        self.world.record_input(node, &input);
        let mut net = Net::new(&mut self.world);
        self.protocol.handle(&mut net, node, input);
    }

    fn dispatch(&mut self, kind: EventKind<P::Msg>) {
        match kind {
            EventKind::Deliver { from, msg, to } => {
                // `pop_due` hands a run out one recipient at a time.
                let to = to.single();
                if self.world.is_alive(to) {
                    self.world.metrics_mut().perf_mut().deliveries += 1;
                    self.feed(to, Input::Message { from, msg });
                }
            }
            EventKind::Timer { node, id, tag } => {
                if !self.world.timer_cancelled(id) && self.world.is_alive(node) {
                    self.world.metrics_mut().perf_mut().timers_fired += 1;
                    self.feed(node, Input::TimerFired { tag });
                }
            }
            EventKind::Join { node } => {
                if self.world.activate(node) {
                    self.feed(node, Input::Join);
                }
            }
            EventKind::Leave { node, graceful } => {
                self.dispatch_leave(node, graceful);
            }
            EventKind::Waypoint { node, epoch } => {
                self.world.handle_waypoint(node, epoch);
            }
            EventKind::Crash { node } => {
                if self.world.is_alive(node) {
                    self.world.record_crash(node);
                    self.dispatch_leave(node, false);
                }
            }
            EventKind::Restart { node } => {
                if self.world.revive(node) {
                    self.feed(node, Input::Join);
                }
            }
            EventKind::HeadKill { count } => self.dispatch_head_kill(count),
        }
    }

    /// Kills up to `count` currently-serving cluster heads, chosen by
    /// the fault RNG among the heads the protocol reports as alive.
    /// The victims die abruptly, exactly like scheduled crashes.
    fn dispatch_head_kill(&mut self, count: u32) {
        let mut heads: Vec<NodeId> = self
            .world
            .alive_nodes()
            .into_iter()
            .filter(|&n| self.protocol.is_cluster_head(n))
            .collect();
        if let Some(rng) = self.world.fault_rng() {
            rng.shuffle(&mut heads);
        }
        heads.truncate(count as usize);
        for node in heads {
            if self.world.is_alive(node) {
                self.world.record_crash(node);
                self.dispatch_leave(node, false);
            }
        }
    }

    fn dispatch_leave(&mut self, node: NodeId, graceful: bool) {
        if !self.world.is_alive(node) {
            return;
        }
        if graceful {
            // The protocol runs its handshake and is responsible for the
            // eventual `remove_node`.
            self.feed(node, Input::Leave { graceful: true });
        } else {
            self.world.remove_node(node);
            self.feed(node, Input::Leave { graceful: false });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MsgCategory, SendError};

    /// Echo protocol: node 0 is the server; every other joiner sends it a
    /// "req" and the server replies "rep".
    #[derive(Default)]
    struct Echo {
        requests: u32,
        replies: u32,
        left: Vec<(NodeId, bool)>,
    }

    impl Protocol for Echo {
        type Msg = &'static str;

        fn on_join(&mut self, w: &mut Net<'_, Self::Msg>, node: NodeId) {
            if node.index() != 0 {
                let _ = w.unicast(node, NodeId::new(0), MsgCategory::Configuration, "req");
            }
        }

        fn on_message(
            &mut self,
            w: &mut Net<'_, Self::Msg>,
            to: NodeId,
            from: NodeId,
            msg: Self::Msg,
        ) {
            match msg {
                "req" => {
                    self.requests += 1;
                    let _ = w.unicast(to, from, MsgCategory::Configuration, "rep");
                }
                "rep" => {
                    self.replies += 1;
                    w.mark_configured(to);
                }
                _ => unreachable!(),
            }
        }

        fn on_leave(&mut self, w: &mut Net<'_, Self::Msg>, node: NodeId, graceful: bool) {
            self.left.push((node, graceful));
            if graceful {
                w.remove_node(node);
            }
        }
    }

    fn still_config() -> WorldConfig {
        WorldConfig {
            speed: 0.0,
            ..WorldConfig::default()
        }
    }

    #[test]
    fn request_reply_roundtrip() {
        let mut sim = Sim::new(still_config(), Echo::default());
        sim.spawn_at(Point::new(0.0, 0.0));
        sim.spawn_at(Point::new(100.0, 0.0));
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.protocol().requests, 1);
        assert_eq!(sim.protocol().replies, 1);
        // One hop each way.
        assert_eq!(sim.world().metrics().hops(MsgCategory::Configuration), 2);
        assert!(sim.world().is_configured(NodeId::new(1)));
    }

    #[test]
    fn multi_hop_charges_path_length() {
        let mut sim = Sim::new(still_config(), Echo::default());
        sim.spawn_at(Point::new(0.0, 0.0));
        // Relay chain: 140 m spacing, 150 m range.
        let relay = sim.spawn_at(Point::new(140.0, 0.0));
        let far = sim.spawn_at(Point::new(280.0, 0.0));
        sim.run_for(SimDuration::from_secs(1));
        // relay: 1 hop each way; far: 2 hops each way.
        assert_eq!(sim.world().metrics().hops(MsgCategory::Configuration), 6);
        assert_eq!(sim.protocol().replies, 2);
        let _ = (relay, far);
    }

    #[test]
    fn unreachable_send_fails_without_charge() {
        let mut sim = Sim::new(still_config(), Echo::default());
        sim.spawn_at(Point::new(0.0, 0.0));
        sim.spawn_at(Point::new(900.0, 900.0)); // out of range of node 0
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.protocol().requests, 0);
        assert_eq!(sim.world().metrics().total_hops(), 0);
    }

    #[test]
    fn scheduled_join_fires_in_order() {
        let mut sim = Sim::new(still_config(), Echo::default());
        sim.spawn_at(Point::new(0.0, 0.0));
        let late = sim.schedule_spawn_at(SimTime::from_micros(500_000), Point::new(50.0, 0.0));
        assert!(!sim.world().is_alive(late));
        sim.run_until(SimTime::from_micros(400_000));
        assert!(!sim.world().is_alive(late));
        sim.run_until(SimTime::from_micros(600_000));
        assert!(sim.world().is_alive(late));
        assert_eq!(
            sim.world().joined_at(late),
            Some(SimTime::from_micros(500_000))
        );
    }

    #[test]
    fn abrupt_leave_kills_before_callback() {
        let mut sim = Sim::new(still_config(), Echo::default());
        sim.spawn_at(Point::new(0.0, 0.0));
        let b = sim.spawn_at(Point::new(50.0, 0.0));
        sim.run_for(SimDuration::from_secs(1));
        sim.leave_now(b, false);
        assert!(!sim.world().is_alive(b));
        assert_eq!(sim.protocol().left, vec![(b, false)]);
    }

    #[test]
    fn graceful_leave_lets_protocol_remove() {
        let mut sim = Sim::new(still_config(), Echo::default());
        let a = sim.spawn_at(Point::new(0.0, 0.0));
        sim.run_for(SimDuration::from_secs(1));
        sim.schedule_leave(sim.world().now(), a, true);
        sim.run_for(SimDuration::from_secs(1));
        assert!(!sim.world().is_alive(a));
        assert_eq!(sim.protocol().left, vec![(a, true)]);
    }

    #[test]
    fn leave_of_dead_node_is_noop() {
        let mut sim = Sim::new(still_config(), Echo::default());
        let a = sim.spawn_at(Point::new(0.0, 0.0));
        sim.leave_now(a, false);
        sim.leave_now(a, false);
        sim.leave_now(a, true);
        assert_eq!(sim.protocol().left.len(), 1);
    }

    #[test]
    fn messages_to_dead_nodes_are_dropped() {
        struct SendLater;
        impl Protocol for SendLater {
            type Msg = ();
            fn on_join(&mut self, w: &mut Net<'_, ()>, node: NodeId) {
                if node.index() == 1 {
                    // Queued for delivery one hop later.
                    let _ = w.unicast(node, NodeId::new(0), MsgCategory::Hello, ());
                }
            }
            fn on_message(&mut self, _w: &mut Net<'_, ()>, _t: NodeId, _f: NodeId, _m: ()) {
                panic!("must not deliver to a dead node");
            }
        }
        let mut sim = Sim::new(still_config(), SendLater);
        let a = sim.spawn_at(Point::new(0.0, 0.0));
        sim.spawn_at(Point::new(50.0, 0.0));
        sim.leave_now(a, false); // dies before the queued delivery fires
        sim.run_for(SimDuration::from_secs(1));
    }

    #[test]
    fn timer_fires_and_cancel_works() {
        #[derive(Default)]
        struct Timers {
            fired: Vec<u64>,
        }
        impl Protocol for Timers {
            type Msg = ();
            fn on_join(&mut self, w: &mut Net<'_, ()>, node: NodeId) {
                w.set_timer(node, SimDuration::from_millis(10), 1);
                let cancel_me = w.set_timer(node, SimDuration::from_millis(20), 2);
                w.set_timer(node, SimDuration::from_millis(30), 3);
                w.cancel_timer(cancel_me);
            }
            fn on_message(&mut self, _w: &mut Net<'_, ()>, _t: NodeId, _f: NodeId, _m: ()) {}
            fn on_timer(&mut self, _w: &mut Net<'_, ()>, _node: NodeId, tag: u64) {
                self.fired.push(tag);
            }
        }
        let mut sim = Sim::new(still_config(), Timers::default());
        sim.spawn_at(Point::new(0.0, 0.0));
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.protocol().fired, vec![1, 3]);
    }

    #[test]
    fn timers_die_with_node() {
        #[derive(Default)]
        struct T {
            fired: u32,
        }
        impl Protocol for T {
            type Msg = ();
            fn on_join(&mut self, w: &mut Net<'_, ()>, node: NodeId) {
                w.set_timer(node, SimDuration::from_millis(100), 0);
            }
            fn on_message(&mut self, _w: &mut Net<'_, ()>, _t: NodeId, _f: NodeId, _m: ()) {}
            fn on_timer(&mut self, _w: &mut Net<'_, ()>, _n: NodeId, _tag: u64) {
                self.fired += 1;
            }
        }
        let mut sim = Sim::new(still_config(), T::default());
        let a = sim.spawn_at(Point::new(0.0, 0.0));
        sim.leave_now(a, false);
        sim.run_for(SimDuration::from_secs(1));
        assert_eq!(sim.protocol().fired, 0);
    }

    #[test]
    fn step_until_matches_run_until() {
        let run = |stepped: bool| {
            let mut sim = Sim::new(still_config(), Echo::default());
            sim.spawn_at(Point::new(0.0, 0.0));
            for i in 1..6u64 {
                sim.schedule_spawn_at(
                    SimTime::from_micros(i * 100_000),
                    Point::new(i as f64 * 50.0, 0.0),
                );
            }
            let until = SimTime::from_micros(2_000_000);
            if stepped {
                let mut steps = 0u64;
                while sim.step_until(until) {
                    steps += 1;
                }
                assert!(steps > 0);
                // Idempotent once drained: clock stays put, no event fires.
                assert!(!sim.step_until(until));
            } else {
                sim.run_until(until);
            }
            assert_eq!(sim.world().now(), until);
            let m = sim.world().metrics();
            (m.total_messages(), m.total_hops(), sim.protocol().replies)
        };
        assert_eq!(run(true), run(false));
    }

    #[test]
    fn run_until_advances_clock_even_without_events() {
        let mut sim = Sim::new(still_config(), Echo::default());
        sim.run_until(SimTime::from_micros(123));
        assert_eq!(sim.world().now(), SimTime::from_micros(123));
    }

    #[test]
    fn mobility_moves_configured_nodes() {
        let config = WorldConfig {
            speed: 20.0,
            ..WorldConfig::default()
        };
        let mut sim = Sim::new(config, Echo::default());
        sim.spawn_at(Point::new(500.0, 500.0));
        let b = sim.spawn_at(Point::new(520.0, 500.0));
        sim.run_for(SimDuration::from_secs(1));
        assert!(sim.world().is_configured(b));
        let before = sim.world().position(b).unwrap();
        sim.run_for(SimDuration::from_secs(30));
        let after = sim.world().position(b).unwrap();
        assert!(
            before.distance(after) > 1.0,
            "configured node should have moved: {before} → {after}"
        );
        // Unconfigured node 0 stays put.
        let p0 = sim.world().position(NodeId::new(0)).unwrap();
        assert_eq!(p0, Point::new(500.0, 500.0));
    }

    #[test]
    fn flood_reaches_component_and_charges_size() {
        struct Flooder;
        impl Protocol for Flooder {
            type Msg = ();
            fn on_join(&mut self, w: &mut Net<'_, ()>, node: NodeId) {
                if node.index() == 3 {
                    let got = w.flood(node, MsgCategory::Sync, ()).unwrap();
                    assert_eq!(got.len(), 3); // other three in the chain
                }
            }
            fn on_message(&mut self, _w: &mut Net<'_, ()>, _t: NodeId, _f: NodeId, _m: ()) {}
        }
        let mut sim = Sim::new(still_config(), Flooder);
        for i in 0..4 {
            sim.spawn_at(Point::new(i as f64 * 100.0, 0.0));
        }
        // Flood charge = component size (4 transmissions).
        assert_eq!(sim.world().metrics().hops(MsgCategory::Sync), 4);
    }

    #[test]
    fn broadcast_within_k() {
        struct B;
        impl Protocol for B {
            type Msg = ();
            fn on_join(&mut self, w: &mut Net<'_, ()>, node: NodeId) {
                if node.index() == 4 {
                    // Chain of 5 nodes, 100 m apart; node 4 broadcasts 2 hops.
                    let got = w.broadcast_within(node, 2, MsgCategory::Hello, ()).unwrap();
                    assert_eq!(got.len(), 2); // nodes 3 and 2
                }
            }
            fn on_message(&mut self, _w: &mut Net<'_, ()>, _t: NodeId, _f: NodeId, _m: ()) {}
        }
        let mut sim = Sim::new(still_config(), B);
        for i in 0..5 {
            sim.spawn_at(Point::new(i as f64 * 100.0, 0.0));
        }
        // Transmissions: originator + 1 relay (node 3).
        assert_eq!(sim.world().metrics().hops(MsgCategory::Hello), 2);
    }

    #[test]
    fn dead_sender_cannot_send() {
        let mut sim = Sim::new(still_config(), Echo::default());
        let a = sim.spawn_at(Point::new(0.0, 0.0));
        let b = sim.spawn_at(Point::new(10.0, 0.0));
        sim.run_for(SimDuration::from_secs(1));
        sim.leave_now(a, false);
        let err = sim
            .world_mut()
            .unicast(a, b, MsgCategory::Hello, "x")
            .unwrap_err();
        assert_eq!(err, SendError::SenderDead);
    }

    #[test]
    fn determinism_same_seed_same_run() {
        fn run(seed: u64) -> (u64, u64) {
            let config = WorldConfig {
                seed,
                ..WorldConfig::default()
            };
            let mut sim = Sim::new(config, Echo::default());
            for _ in 0..20 {
                sim.spawn_random();
            }
            sim.run_for(SimDuration::from_secs(10));
            let m = sim.world().metrics();
            (m.total_messages(), m.total_hops())
        }
        assert_eq!(run(42), run(42));
    }
}
