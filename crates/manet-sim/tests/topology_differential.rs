//! Differential tests: the spatial-grid topology engine against the
//! naive O(n²) oracle, and the memoized, resumable BFS queries against
//! fresh traversals in any query order.
//!
//! This is how NS-style simulators validate optimized connectivity
//! structures: the optimized engine must be *indistinguishable* from
//! the obviously-correct one — same link sets (inclusive range
//! boundary), same adjacency order, same hop metrics — across layouts
//! from sparse (range well under one grid cell of spacing) to dense
//! (range covering the whole arena in a few cells).

use manet_sim::mobility::MobilityState;
use manet_sim::topology::Topology;
use manet_sim::{
    Arena, Net, NodeId, Point, Protocol, Sim, SimDuration, SimRng, World, WorldConfig,
};
use proptest::prelude::*;
use std::collections::hash_map::Entry;
use std::collections::{HashMap, VecDeque};

fn random_layout(seed: u64, n: usize, area: f64) -> Vec<(NodeId, Point)> {
    let arena = Arena::new(area, area);
    let mut rng = SimRng::seed_from(seed);
    (0..n)
        .map(|i| (NodeId::new(i as u64), rng.point_in(&arena)))
        .collect()
}

/// Full structural equality between two builds of the same layout:
/// identical neighbor lists (content *and* order), link counts, and
/// membership.
fn assert_same_graph(grid: &Topology, naive: &Topology, nodes: &[(NodeId, Point)]) {
    assert_eq!(grid.len(), naive.len());
    assert_eq!(grid.link_count(), naive.link_count());
    for (id, _) in nodes {
        assert_eq!(
            grid.neighbors(*id),
            naive.neighbors(*id),
            "adjacency of {id:?} diverges"
        );
        assert_eq!(grid.neighbor_indices(*id), naive.neighbor_indices(*id));
    }
}

proptest! {
    /// Grid-built adjacency equals the naive all-pairs adjacency on
    /// random layouts across the whole sparse-to-dense spectrum.
    #[test]
    fn grid_adjacency_equals_naive_oracle(
        n in 0usize..120,
        range in 5.0f64..1500.0,
        seed in 0u64..1_000_000,
    ) {
        let nodes = random_layout(seed, n, 1000.0);
        let grid = Topology::build(&nodes, range);
        let naive = Topology::build_naive(&nodes, range);
        assert_same_graph(&grid, &naive, &nodes);
    }

    /// Memoized `distances_from` / `hops` / `within` / `components`
    /// agree with a fresh BFS on the naive oracle build, and repeating
    /// each query returns the same answer (the memo is read-only).
    #[test]
    fn memoized_queries_equal_fresh_bfs(
        n in 1usize..80,
        range in 50.0f64..800.0,
        seed in 0u64..1_000_000,
    ) {
        let nodes = random_layout(seed, n, 1000.0);
        let grid = Topology::build(&nodes, range);
        let sources: Vec<NodeId> = nodes.iter().map(|(id, _)| *id).take(8).collect();
        for &s in &sources {
            // Fresh oracle per query: a new naive build has an empty memo.
            let oracle = Topology::build_naive(&nodes, range);
            prop_assert_eq!(grid.distances_from(s), oracle.distances_from(s));
            prop_assert_eq!(grid.within(s, 2), oracle.within(s, 2));
            prop_assert_eq!(grid.component_of(s), oracle.component_of(s));
            for &t in &sources {
                prop_assert_eq!(grid.hops(s, t), oracle.hops(s, t));
            }
            // Second round hits the memo; answers must not move.
            prop_assert_eq!(grid.distances_from(s), oracle.distances_from(s));
            prop_assert_eq!(grid.component_of(s), oracle.component_of(s));
        }
        prop_assert_eq!(grid.components(), Topology::build_naive(&nodes, range).components());
        prop_assert_eq!(grid.components(), grid.components());
    }
}

/// `clusters` random layouts of `n` nodes in total, each cluster in its
/// own `area`-sized square with a gap of `2 · area` between squares, so
/// a range under `2 · area` splits the graph into at least `clusters`
/// components.
/// Ids are scrambled (`i · 7919 mod 10007`) so `(distance, id)` order
/// differs from dense-index order.
fn clustered_layout(seed: u64, n: usize, clusters: usize, area: f64) -> Vec<(NodeId, Point)> {
    let arena = Arena::new(area, area);
    let mut rng = SimRng::seed_from(seed);
    (0..n)
        .map(|i| {
            let p = rng.point_in(&arena);
            let dx = (i % clusters) as f64 * 3.0 * area;
            let id = NodeId::new((i as u64 * 7919) % 10007);
            (id, Point::new(p.x + dx, p.y))
        })
        .collect()
}

/// A textbook BFS over `topo`'s public adjacency, with no memo: the
/// reference every memoized answer is compared against.
fn fresh_bfs(topo: &Topology, src: NodeId) -> HashMap<NodeId, u32> {
    let mut dist = HashMap::new();
    if !topo.contains(src) {
        return dist;
    }
    let mut queue = VecDeque::from([src]);
    dist.insert(src, 0);
    while let Some(u) = queue.pop_front() {
        let du = dist[&u];
        for v in topo.neighbors(u) {
            if let Entry::Vacant(e) = dist.entry(v) {
                e.insert(du + 1);
                queue.push_back(v);
            }
        }
    }
    dist
}

/// One query against a snapshot, with node operands as indices into the
/// layout (an index past its end names a node the snapshot lacks).
#[derive(Debug, Clone, Copy)]
enum Query {
    Hops(usize, usize),
    Within(usize, u32),
    DistancesFrom(usize),
    ComponentOf(usize),
    Connected(usize, usize),
}

impl Query {
    /// Folds the node operands into `0..=n`, so that on an `n`-node
    /// layout one value in `n + 1` names the missing node.
    fn fold(self, n: usize) -> Query {
        let f = |i: usize| i % (n + 1);
        match self {
            Query::Hops(a, b) => Query::Hops(f(a), f(b)),
            Query::Within(a, k) => Query::Within(f(a), k),
            Query::DistancesFrom(a) => Query::DistancesFrom(f(a)),
            Query::ComponentOf(a) => Query::ComponentOf(f(a)),
            Query::Connected(a, b) => Query::Connected(f(a), f(b)),
        }
    }
}

fn query_strategy() -> impl Strategy<Value = Query> {
    let node = 0usize..100;
    prop_oneof![
        (node.clone(), node.clone()).prop_map(|(a, b)| Query::Hops(a, b)),
        (node.clone(), 0u32..5).prop_map(|(a, k)| Query::Within(a, k)),
        node.clone().prop_map(Query::DistancesFrom),
        node.clone().prop_map(Query::ComponentOf),
        (node.clone(), node).prop_map(|(a, b)| Query::Connected(a, b)),
    ]
}

/// Runs `q` on the memoized snapshot `topo` and checks the answer
/// against a fresh BFS on a fresh naive build of `nodes`.
fn check_query(topo: &Topology, nodes: &[(NodeId, Point)], range: f64, q: Query) {
    let ghost = NodeId::new(1 << 40);
    let id = |i: usize| nodes.get(i).map_or(ghost, |(id, _)| *id);
    let oracle = Topology::build_naive(nodes, range);
    match q {
        Query::Hops(a, b) => {
            let want = fresh_bfs(&oracle, id(a)).get(&id(b)).copied();
            assert_eq!(topo.hops(id(a), id(b)), want, "{q:?}");
        }
        Query::Within(a, k) => {
            let mut want: Vec<(NodeId, u32)> = fresh_bfs(&oracle, id(a))
                .into_iter()
                .filter(|&(n, d)| n != id(a) && d <= k)
                .collect();
            want.sort_by_key(|&(n, d)| (d, n));
            assert_eq!(topo.within(id(a), k), want, "{q:?}");
        }
        Query::DistancesFrom(a) => {
            assert_eq!(
                topo.distances_from(id(a)),
                fresh_bfs(&oracle, id(a)),
                "{q:?}"
            );
        }
        Query::ComponentOf(a) => {
            let mut want: Vec<NodeId> = fresh_bfs(&oracle, id(a)).into_keys().collect();
            want.sort_unstable();
            assert_eq!(topo.component_of(id(a)), want, "{q:?}");
        }
        Query::Connected(a, b) => {
            let want = fresh_bfs(&oracle, id(a)).contains_key(&id(b));
            assert_eq!(topo.connected(id(a), id(b)), want, "{q:?}");
        }
    }
}

proptest! {
    /// Query order cannot change answers: a random interleaving of
    /// queries on one snapshot, whose per-source BFS stops and resumes
    /// between them, answers each exactly like a fresh uncached BFS —
    /// on connected and split layouts, sparse to dense.
    #[test]
    fn interleaved_queries_equal_fresh_bfs(
        n in 1usize..90,
        clusters in 1usize..5,
        range in 30.0f64..900.0,
        seed in 0u64..1_000_000,
        queries in prop::collection::vec(query_strategy(), 1..60),
    ) {
        let nodes = clustered_layout(seed, n, clusters, 500.0);
        let topo = Topology::build(&nodes, range);
        for q in queries {
            check_query(&topo, &nodes, range, q.fold(n));
        }
    }
}

/// The query sequences where a resumed BFS could go wrong, each on a
/// fresh snapshot of a 12-node line at two ranges and of two split
/// clustered layouts.
#[test]
fn resumption_edge_cases() {
    use Query::*;
    let line: Vec<(NodeId, Point)> = (0..12u32)
        .map(|i| (NodeId::new(u64::from(i)), Point::new(f64::from(i), 0.0)))
        .collect();
    let sequences: [&[Query]; 8] = [
        // A one-hop neighborhood, then a target far past it.
        &[Within(0, 1), Hops(0, 11), Within(0, 4)],
        // A near target stops mid-level; a wider neighborhood resumes.
        &[Hops(5, 6), Within(5, 3), Hops(5, 4), Within(5, 1)],
        // A complete BFS, then neighborhoods read from it.
        &[DistancesFrom(3), Within(3, 2), Within(3, 0), Hops(3, 11)],
        // k = 0 expands nothing and returns nothing.
        &[Within(7, 0), Within(7, 0), Hops(7, 7), Within(7, 2)],
        // Unknown nodes on either side, before and after real queries.
        &[
            Hops(99, 0),
            Within(99, 3),
            Hops(0, 99),
            Within(0, 2),
            DistancesFrom(99),
        ],
        &[
            ComponentOf(99),
            Connected(99, 99),
            Connected(0, 99),
            Hops(99, 99),
        ],
        // Targets in another component (on the split layouts) exhaust
        // the BFS; later queries reuse it.
        &[Hops(2, 11), Connected(2, 9), Within(2, 4), DistancesFrom(2)],
        &[
            Connected(4, 4),
            Within(4, 4),
            Hops(4, 0),
            Hops(4, 10),
            ComponentOf(4),
        ],
    ];
    let layouts = [
        (line.clone(), 1.0),
        (line, 2.5),
        (clustered_layout(7, 12, 3, 500.0), 260.0),
        (clustered_layout(11, 12, 2, 500.0), 600.0),
    ];
    for (nodes, range) in &layouts {
        for seq in sequences {
            let topo = Topology::build(nodes, *range);
            for &q in seq {
                check_query(&topo, nodes, *range, q);
            }
        }
    }
}

/// Degenerate layouts the proptest distributions rarely produce: every
/// node coincident, a collinear line along a row boundary, the sub-32
/// naive fallback, duplicate positions, and an empty world.
#[test]
fn engines_agree_on_degenerate_layouts() {
    let layouts: Vec<(&str, Vec<(NodeId, Point)>)> = vec![
        ("empty", Vec::new()),
        ("single", vec![(NodeId::new(0), Point::new(3.0, 4.0))]),
        (
            "coincident",
            (0..64u32)
                .map(|i| (NodeId::new(u64::from(i)), Point::new(500.0, 500.0)))
                .collect(),
        ),
        (
            "collinear-on-row-boundary",
            (0..48u32)
                .map(|i| {
                    (
                        NodeId::new(u64::from(i)),
                        Point::new(f64::from(i) * 20.0, 150.0),
                    )
                })
                .collect(),
        ),
        (
            "sub-32-fallback",
            (0..20u32)
                .map(|i| {
                    (
                        NodeId::new(u64::from(i)),
                        Point::new(f64::from(i) * 77.0, f64::from(i) * 13.0),
                    )
                })
                .collect(),
        ),
        (
            "duplicate-positions",
            (0..40u32)
                .map(|i| {
                    (
                        NodeId::new(u64::from(i)),
                        Point::new(f64::from(i % 5) * 100.0, 200.0),
                    )
                })
                .collect(),
        ),
    ];
    for (label, nodes) in &layouts {
        for &range in &[0.5, 150.0, 2000.0] {
            let fresh = Topology::build(nodes, range);
            let naive = Topology::build_naive(nodes, range);
            assert_same_graph(&fresh, &naive, nodes);
            assert!(fresh == naive, "{label} r={range}");
        }
    }
}

/// Deterministic sweep pinning the boundary regimes the proptest may
/// not hit every run: n up to 500 (the issue's ceiling), ranges from
/// far-below-cell-spacing to beyond the arena diagonal (complete
/// graph), plus n ∈ {0, 1}.
#[test]
fn grid_equals_naive_across_size_and_range_sweep() {
    for &n in &[0usize, 1, 2, 3, 10, 60, 200, 500] {
        for &range in &[5.0f64, 40.0, 150.0, 450.0, 1500.0] {
            let nodes = random_layout(n as u64 * 31 + 7, n, 1000.0);
            let grid = Topology::build(&nodes, range);
            let naive = Topology::build_naive(&nodes, range);
            assert_same_graph(&grid, &naive, &nodes);
            // Spot-check the BFS layer too, from a few sources.
            for (id, _) in nodes.iter().take(5) {
                assert_eq!(grid.distances_from(*id), naive.distances_from(*id));
                assert_eq!(grid.component_of(*id), naive.component_of(*id));
            }
            assert_eq!(grid.components(), naive.components());
        }
    }
}

/// The inclusive range boundary survives the grid engine: nodes at
/// exactly `range` apart link, a hair beyond do not — including pairs
/// that straddle a cell border.
#[test]
fn inclusive_boundary_across_cell_borders() {
    let range = 150.0;
    let cases = [
        (Point::new(0.0, 0.0), Point::new(150.0, 0.0), true),
        (Point::new(0.0, 0.0), Point::new(150.0 + 1e-9, 0.0), false),
        // Straddles the x = 150 cell border diagonally.
        (Point::new(149.0, 10.0), Point::new(239.0, 130.0), true), // dist = 150
        (Point::new(90.0, 120.0), Point::new(180.0, 0.0), true),   // dist = 150
        (Point::new(100.0, 100.0), Point::new(400.0, 100.0), false),
    ];
    for (i, &(a, b, linked)) in cases.iter().enumerate() {
        let nodes = [(NodeId::new(0), a), (NodeId::new(1), b)];
        for t in [
            Topology::build(&nodes, range),
            Topology::build_naive(&nodes, range),
        ] {
            assert_eq!(
                t.hops(NodeId::new(0), NodeId::new(1)) == Some(1),
                linked,
                "case {i}: {a} - {b}"
            );
        }
    }
}

// ---------------------------------------------------------------------
// World-level cache invalidation
// ---------------------------------------------------------------------

/// A protocol that does nothing — these tests drive the world directly.
struct Inert;
impl Protocol for Inert {
    type Msg = ();
    fn on_join(&mut self, _w: &mut Net<'_, ()>, _node: NodeId) {}
    fn on_message(&mut self, _w: &mut Net<'_, ()>, _to: NodeId, _from: NodeId, _m: ()) {}
}

/// The oracle for "what should the world's topology be right now":
/// a naive build over the instantaneous alive positions.
fn oracle_of<M: Clone + std::fmt::Debug>(w: &mut World<M>) -> Topology {
    let positions: Vec<(NodeId, Point)> = w
        .alive_nodes()
        .into_iter()
        .map(|n| (n, w.position(n).expect("alive")))
        .collect();
    Topology::build_naive(&positions, w.range())
}

fn assert_world_matches_oracle<M: Clone + std::fmt::Debug>(w: &mut World<M>, when: &str) {
    let oracle = oracle_of(w);
    for n in w.alive_nodes() {
        assert_eq!(
            w.neighbors(n),
            oracle.neighbors(n),
            "{when}: neighbors of {n:?}"
        );
        assert_eq!(
            w.component_of(n),
            oracle.component_of(n),
            "{when}: component of {n:?}"
        );
    }
    let alive = w.alive_nodes();
    for &a in alive.iter().take(6) {
        for &b in alive.iter().take(6) {
            assert_eq!(
                w.hops_between(a, b),
                oracle.hops(a, b),
                "{when}: {a:?}->{b:?}"
            );
        }
    }
    assert_eq!(w.components(), oracle.components(), "{when}: components");
}

/// Memoized world queries stay correct across every invalidation edge:
/// a node join, a mobility retarget, crossing the topology quantum, and
/// a node removal (crash). Each step re-checks against a fresh naive
/// oracle over the world's instantaneous positions.
#[test]
fn world_cache_invalidates_on_membership_mobility_and_quantum() {
    let config = WorldConfig {
        speed: 20.0,
        topology_quantum: SimDuration::from_millis(100),
        ..WorldConfig::default()
    };
    let mut sim = Sim::new(config, Inert);
    let ids: Vec<NodeId> = (0..12)
        .map(|i| sim.spawn_at(Point::new(f64::from(i) * 90.0, 10.0)))
        .collect();
    sim.run_for(SimDuration::from_millis(10));
    assert_world_matches_oracle(sim.world_mut(), "after initial joins");

    // Warm the memo, then join a node mid-quantum: topo_version bumps,
    // the snapshot (and its BFS/component memos) must be dropped.
    let _ = sim.world_mut().components();
    let newcomer = sim.spawn_at(Point::new(500.0, 120.0));
    assert_world_matches_oracle(sim.world_mut(), "after join");
    assert!(
        !sim.world_mut().neighbors(newcomer).is_empty(),
        "newcomer at 500,120 is in range of the line"
    );

    // Mobility: mark nodes configured so they start moving, then cross
    // several quanta; the quantum bucket rotates and positions drift.
    for &n in &ids {
        sim.world_mut().mark_configured(n);
    }
    sim.run_for(SimDuration::from_millis(350));
    assert_world_matches_oracle(sim.world_mut(), "after mobility across quanta");

    // Crash (abrupt removal): the node must vanish from every query.
    let victim = ids[6];
    let _ = sim.world_mut().hops_between(ids[0], victim); // warm the memo
    sim.world_mut().remove_node(victim);
    assert!(!sim.world_mut().alive_nodes().contains(&victim));
    assert_eq!(sim.world_mut().neighbors(victim), vec![]);
    assert_world_matches_oracle(sim.world_mut(), "after crash");
}

/// Within one quantum with no membership or mobility change, repeated
/// queries are served from the same snapshot and agree with themselves.
#[test]
fn world_queries_stable_within_a_quantum() {
    let mut sim = Sim::new(WorldConfig::default(), Inert);
    for i in 0..10 {
        sim.spawn_at(Point::new(f64::from(i) * 100.0, 0.0));
    }
    let w = sim.world_mut();
    let first: Vec<_> = (0..10).map(|i| w.nodes_within(NodeId::new(i), 3)).collect();
    let comps = w.components();
    for _ in 0..3 {
        for i in 0..10 {
            assert_eq!(w.nodes_within(NodeId::new(i), 3), first[i as usize]);
        }
        assert_eq!(w.components(), comps);
    }
}

/// Parked-vs-moving: a mobility park bumps the version even though the
/// quantum bucket is unchanged.
#[test]
fn world_cache_invalidates_on_park() {
    let config = WorldConfig {
        speed: 20.0,
        ..WorldConfig::default()
    };
    let mut sim = Sim::new(config, Inert);
    let ids: Vec<NodeId> = (0..8)
        .map(|i| sim.spawn_at(Point::new(f64::from(i) * 110.0, 0.0)))
        .collect();
    for &n in &ids {
        sim.world_mut().mark_configured(n);
    }
    sim.run_for(SimDuration::from_secs(2));
    let _ = sim.world_mut().components();
    sim.world_mut().park_node(ids[3]);
    assert_world_matches_oracle(sim.world_mut(), "after park");
}

/// The mobility model actually moves nodes between quanta (guards the
/// "after mobility" leg above against a silently static world).
#[test]
fn mobility_moves_configured_nodes() {
    let arena = Arena::default();
    let mut rng = SimRng::seed_from(3);
    let mut m = MobilityState::parked(Point::new(500.0, 500.0));
    m.retarget(manet_sim::SimTime::ZERO, &arena, 20.0, &mut rng);
    let later = manet_sim::SimTime::ZERO + SimDuration::from_secs(5);
    let p = m.position(later);
    assert!(
        p.distance(Point::new(500.0, 500.0)) > 1.0,
        "node moved: {p}"
    );
}
