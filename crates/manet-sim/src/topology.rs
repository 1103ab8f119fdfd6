//! Instantaneous connectivity graph under the unit-disk radio model.
//!
//! Two nodes are linked iff their Euclidean distance is at most the
//! transmission range. A [`Topology`] is a snapshot built from node
//! positions at one instant; it answers the queries protocols and the
//! delivery engine need: neighbors, k-hop neighborhoods, shortest-path hop
//! counts, and connected components.
//!
//! # Engine
//!
//! [`Topology::build`] is a plane-sweep over horizontal strips: nodes
//! are counting-sorted into rows one transmission range tall (the row
//! height is floored so the row count stays O(√n) even for tiny
//! ranges), each row is sorted by x, and every node is then checked
//! only against the x-window of its own row and the row below —
//! O(n log n + candidate pairs) rather than the O(n²) all-pairs sweep.
//! The own-row scan walks right until `dx` exceeds the range; the
//! below-row scan advances a monotone two-pointer left edge and breaks
//! on the same right edge, so each candidate costs one subtraction to
//! reject. Candidates are decided by a single squared-distance compare
//! against the largest `d²` whose square root rounds to at most
//! `range` (found once per build by a bit-level binary search over the
//! float, exploiting that IEEE sqrt is monotone), so the hot loop runs
//! no square roots yet accepts *exactly* the pairs the naive engine's
//! `distance(a, b) <= range` does (inclusive boundary). Accepted links
//! are then assembled into a flat CSR adjacency by two counting sorts
//! (by destination, then by source), which yields each per-node
//! neighbor list in the same ascending-index order the all-pairs sweep
//! produces — the two builds are indistinguishable to every caller.
//! [`Topology::build_naive`] keeps the all-pairs sweep as the oracle the
//! differential tests compare against.
//!
//! BFS-backed queries ([`distances_from`](Topology::distances_from),
//! [`hops`](Topology::hops), [`within`](Topology::within),
//! [`connected`](Topology::connected)) share one *resumable* BFS per
//! source per snapshot, kept behind a [`RefCell`]: the distance vector,
//! the discovery order (level by level) and the index of the next node
//! to expand. Each query runs it only as far as its answer needs —
//! `hops(a, b)` until `b` is discovered, `within(n, k)` until the next
//! node to expand sits at depth `k` (for `k = 1` that is the source's
//! adjacency slice), `distances_from` to completion — and a later query
//! from the same source resumes where the last one stopped. So the
//! local queries protocols make (one-hop hellos, two- and three-hop
//! neighborhoods) touch only the neighborhood they ask about, and no
//! snapshot ever expands a source more than once. The component
//! partition ([`component_of`](Topology::component_of),
//! [`components`](Topology::components)) is memoized beside it. The
//! id→index map is built lazily on the first query for the same reason:
//! a snapshot that is rebuilt before anyone queries it never pays for
//! the map. The caches live *inside* the snapshot, so they are dropped
//! with it the moment the [`World`](crate::World) topology cache's
//! `(quantum bucket, membership/mobility version)` key rotates; there
//! is no separate invalidation protocol to get wrong.

use crate::{NodeId, Point};
use std::cell::RefCell;
use std::collections::{HashMap, VecDeque};

/// The largest `t` with `t.sqrt() <= range`, so `d2 <= t` decides the
/// inclusive-boundary link predicate exactly — IEEE sqrt is correctly
/// rounded and therefore monotone over the non-negative floats, whose
/// bit patterns order the same way, so a 64-step binary search over the
/// bits finds the exact cutoff.
fn d2_threshold(range: f64) -> f64 {
    let (mut lo, mut hi) = (0u64, f64::MAX.to_bits());
    if f64::MAX.sqrt() <= range {
        return f64::MAX;
    }
    while lo < hi {
        let mid = (lo + hi).div_ceil(2);
        if f64::from_bits(mid).sqrt() <= range {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    f64::from_bits(lo)
}

/// Packs an `x` coordinate as its order-preserving integer bits
/// (sign-magnitude flipped to two's-complement order), so row sorts
/// compare a single integer.
fn xkey(x: f64) -> u64 {
    let bits = x.to_bits();
    if x.is_sign_negative() {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// The strip-sweep working set: nodes counting-sorted into y-rows and
/// x-sorted within each row, plus the exact link-predicate constants.
struct StripLayout {
    /// Row boundaries into the sweep-ordered arrays, length `nrows + 1`.
    row_starts: Vec<u32>,
    /// Original node index per sweep position.
    order: Vec<u32>,
    xs: Vec<f64>,
    ys: Vec<f64>,
    r_slack: f64,
    t: f64,
}

impl StripLayout {
    /// Bins and sorts `nodes`; `None` when the strip engine does not
    /// apply (degenerate range, non-finite coordinates, or too few
    /// nodes to beat the naive sweep).
    fn new(nodes: &[(NodeId, Point)], range: f64) -> Option<Self> {
        let range_usable = range > 0.0 && range.is_finite();
        let finite = nodes
            .iter()
            .all(|(_, p)| p.x.is_finite() && p.y.is_finite());
        if !range_usable || nodes.len() < 32 || !finite {
            return None;
        }
        let n = nodes.len();
        let (mut min_y, mut max_y) = (f64::INFINITY, f64::NEG_INFINITY);
        for (_, p) in nodes {
            min_y = min_y.min(p.y);
            max_y = max_y.max(p.y);
        }
        // Row height a hair over the range: a pair within range can then
        // never be more than one row apart, even at the floating-point
        // boundary where `distance` rounds down. The height is also
        // floored so there are never more than O(√n) rows — a tiny
        // range over a sprawling layout thickens the rows (more
        // candidates per row) instead of exploding memory.
        let max_rows = (4.0 * n as f64).sqrt().ceil().max(1.0);
        let r_slack = range * (1.0 + 1e-9);
        let hrow = r_slack
            .max((max_y - min_y) / max_rows)
            .max(f64::MIN_POSITIVE);
        let nrows = ((max_y - min_y) / hrow) as usize + 1;
        let row_of = |p: Point| -> usize { (((p.y - min_y) / hrow) as usize).min(nrows - 1) };
        // Counting-sort nodes into rows, then sort each row by x, with
        // the node index as tie-break so equal-x nodes keep a
        // deterministic ascending-index order.
        let mut row_starts = vec![0u32; nrows + 1];
        for (_, p) in nodes {
            row_starts[row_of(*p) + 1] += 1;
        }
        for r in 1..row_starts.len() {
            row_starts[r] += row_starts[r - 1];
        }
        let mut fill: Vec<u32> = row_starts[..nrows].to_vec();
        let mut keyed = vec![(0u64, 0u32); n];
        for (i, (_, p)) in nodes.iter().enumerate() {
            let r = row_of(*p);
            keyed[fill[r] as usize] = (xkey(p.x), i as u32);
            fill[r] += 1;
        }
        for r in 0..nrows {
            let (s, e) = (row_starts[r] as usize, row_starts[r + 1] as usize);
            keyed[s..e].sort_unstable();
        }
        // Coordinates and original indices in sweep order, so the scans
        // stream through memory sequentially.
        let mut order = vec![0u32; n];
        let (mut xs, mut ys) = (vec![0.0f64; n], vec![0.0f64; n]);
        for (k, &(_, i)) in keyed.iter().enumerate() {
            order[k] = i;
            let p = nodes[i as usize].1;
            xs[k] = p.x;
            ys[k] = p.y;
        }
        Some(StripLayout {
            row_starts,
            order,
            xs,
            ys,
            r_slack,
            // `distance(a, b) <= range` computes `sqrt(d2)` from exactly
            // the d2 the scan forms (same subtractions, squares, and sum
            // — see `Point::distance`), and sqrt is monotone, so
            // comparing d2 against the largest d² whose sqrt stays ≤
            // range decides *exactly* like the oracle with no square
            // root in the loop.
            t: d2_threshold(range),
        })
    }

    /// Scans every row and returns each accepted link, packed
    /// `(src << 32 | dst)` in original node indices, one orientation
    /// each.
    fn scan_rows(&self) -> Vec<u64> {
        let n = self.order.len();
        let (xs, ys, order) = (&self.xs[..], &self.ys[..], &self.order[..]);
        let (r_slack, t) = (self.r_slack, self.t);
        let nrows = self.row_starts.len() - 1;
        // Branchless accept: the slot is always written, the cursor only
        // advances on a hit, so the ~35%-taken range test never
        // mispredicts. The in-loop check keeps a full row of headroom so
        // the stores run unconditionally.
        let mut links = vec![0u64; n + 1024];
        let mut lc = 0;
        for r in 0..nrows {
            let (s, e) = (self.row_starts[r] as usize, self.row_starts[r + 1] as usize);
            let (bs, be) = if r + 1 < nrows {
                (
                    self.row_starts[r + 1] as usize,
                    self.row_starts[r + 2] as usize,
                )
            } else {
                (0, 0)
            };
            // Monotone left edge of the below-row x-window: sources
            // only move right, so it never retreats.
            let mut lo = bs;
            for k in s..e {
                let (px, py) = (xs[k], ys[k]);
                let src = u64::from(order[k]) << 32;
                if links.len() < lc + n {
                    links.resize(lc + n + 1024, 0);
                }
                let lbuf = &mut links[..];
                // Rest of the own row: everything to the right until
                // the x-gap alone rules the pair out. The `r_slack`
                // break is safe because a computed `dx` even one ulp
                // above `range * (1 + 1e-9)` implies the true gap
                // exceeds `range`.
                for m in (k + 1)..e {
                    let dx = xs[m] - px;
                    if dx > r_slack {
                        break;
                    }
                    let dy = ys[m] - py;
                    let d2 = dx * dx + dy * dy;
                    lbuf[lc] = src | u64::from(order[m]);
                    lc += usize::from(d2 <= t);
                }
                while lo < be && xs[lo] - px < -r_slack {
                    lo += 1;
                }
                for m in lo..be {
                    let dx = xs[m] - px;
                    if dx > r_slack {
                        break;
                    }
                    let dy = ys[m] - py;
                    let d2 = dx * dx + dy * dy;
                    lbuf[lc] = src | u64::from(order[m]);
                    lc += usize::from(d2 <= t);
                }
            }
        }
        links.truncate(lc);
        links
    }
}

/// A breadth-first search from one source that can stop and resume.
/// Nodes enter `order` when discovered, so `order` is sorted by depth;
/// `order[..head]` have been expanded, `order[head..]` are the
/// frontier still to expand.
#[derive(Debug, Clone)]
struct Bfs {
    /// Hop distance per dense index, `u32::MAX` while undiscovered.
    dist: Vec<u32>,
    /// Dense indices in discovery order, the source first.
    order: Vec<u32>,
    /// Index into `order` of the next node to expand.
    head: usize,
}

impl Bfs {
    fn new(n: usize, start: usize) -> Self {
        let mut dist = vec![u32::MAX; n];
        dist[start] = 0;
        Bfs {
            dist,
            order: vec![start as u32],
            head: 0,
        }
    }

    /// Expands nodes in discovery order while any remain and `more`
    /// holds for the search as it stands (`order[head]` is then the
    /// next node to expand).
    fn run(&mut self, topo: &Topology, mut more: impl FnMut(&Self) -> bool) {
        while self.head < self.order.len() && more(self) {
            let u = self.order[self.head] as usize;
            self.head += 1;
            let du = self.dist[u] + 1;
            for &v in topo.neighbor_indices_at(u) {
                let d = &mut self.dist[v as usize];
                if *d == u32::MAX {
                    *d = du;
                    self.order.push(v);
                }
            }
        }
    }
}

/// Memoized query state for one snapshot. Interior-mutable so the
/// read-only query API can fill it lazily; never outlives the snapshot.
#[derive(Debug, Clone, Default)]
struct MemoCache {
    /// Lazily-built id → dense-index map (builds never query it).
    index: Option<HashMap<NodeId, usize>>,
    /// Resumable BFS per source index; empty until the first BFS query.
    bfs: Vec<Option<Bfs>>,
    /// Component partition: `(components sorted by smallest member,
    /// component index per node)`.
    comps: Option<(Vec<Vec<NodeId>>, Vec<usize>)>,
}

/// A snapshot of the connectivity graph at one instant.
///
/// # Example
///
/// ```
/// use manet_sim::topology::Topology;
/// use manet_sim::{NodeId, Point};
///
/// let topo = Topology::build(
///     &[
///         (NodeId::new(0), Point::new(0.0, 0.0)),
///         (NodeId::new(1), Point::new(100.0, 0.0)),
///         (NodeId::new(2), Point::new(200.0, 0.0)),
///     ],
///     150.0,
/// );
/// assert_eq!(topo.hops(NodeId::new(0), NodeId::new(2)), Some(2));
/// assert_eq!(topo.neighbors(NodeId::new(1)).len(), 2);
/// ```
#[derive(Debug, Clone)]
pub struct Topology {
    ids: Vec<NodeId>,
    /// CSR adjacency: neighbors of dense index `i` are
    /// `adj[adj_starts[i]..adj_starts[i + 1]]`, ascending.
    adj_starts: Vec<u32>,
    adj: Vec<u32>,
    cache: RefCell<MemoCache>,
}

impl Topology {
    /// Builds the unit-disk graph over `nodes` with transmission range
    /// `range` meters, using the strip-sweep engine.
    #[must_use]
    pub fn build(nodes: &[(NodeId, Point)], range: f64) -> Self {
        // Degenerate ranges (zero, negative, NaN, infinite) make the
        // row height or the d² cutoff meaningless, and non-finite
        // coordinates have no row; the all-pairs sweep handles all of
        // them with the exact same predicate. These only occur in
        // adversarial tests.
        let Some(layout) = StripLayout::new(nodes, range) else {
            return Self::build_naive(nodes, range);
        };
        Self::from_links(nodes, &layout.scan_rows())
    }

    /// Builds the same graph with the naive O(n²) all-pairs sweep. This
    /// is the oracle the differential tests validate [`Topology::build`]
    /// against; prefer `build` everywhere else.
    #[must_use]
    pub fn build_naive(nodes: &[(NodeId, Point)], range: f64) -> Self {
        let mut adj: Vec<Vec<u32>> = vec![Vec::new(); nodes.len()];
        for i in 0..nodes.len() {
            for j in (i + 1)..nodes.len() {
                if nodes[i].1.distance(nodes[j].1) <= range {
                    adj[i].push(j as u32);
                    adj[j].push(i as u32);
                }
            }
        }
        Self::from_lists(nodes, &adj)
    }

    /// Assembles the CSR adjacency from an unordered undirected link
    /// list (each link one packed `src << 32 | dst`, either
    /// orientation) via two counting sorts: by destination, then by
    /// source. Each node's final neighbor run comes out ascending —
    /// pass one groups directed edges by destination, and pass two
    /// walks the destination groups smallest-first, appending each
    /// destination to its sources' runs — matching the all-pairs sweep
    /// exactly, without any comparison sort. Neither pass needs to be
    /// stable for that (order *within* a destination group never shows
    /// in the output), which frees pass one to interleave four
    /// independent scatter chains so the read-modify-write latency of
    /// the position cursors overlaps instead of serializing.
    fn from_links(nodes: &[(NodeId, Point)], links: &[u64]) -> Self {
        let n = nodes.len();
        let ne = links.len() * 2;
        let mut deg = vec![0u32; n + 1];
        for &l in links {
            deg[(l >> 32) as usize + 1] += 1;
            deg[(l & 0xffff_ffff) as usize + 1] += 1;
        }
        let mut adj_starts = deg;
        for i in 1..=n {
            adj_starts[i] += adj_starts[i - 1];
        }
        // Pass one: group directed edges by destination. Only the
        // source needs storing — the destination is the group index.
        let mut pos: Vec<u32> = adj_starts[..n].to_vec();
        let mut by_dst = vec![0u32; ne];
        {
            let q = links.len() / 4;
            let (s0, rest) = links.split_at(q);
            let (s1, rest) = rest.split_at(q);
            let (s2, s3) = rest.split_at(q);
            let mut scatter = |l: u64| {
                let (a, b) = ((l >> 32) as usize, (l & 0xffff_ffff) as usize);
                by_dst[pos[b] as usize] = a as u32;
                pos[b] += 1;
                by_dst[pos[a] as usize] = b as u32;
                pos[a] += 1;
            };
            for i in 0..q {
                scatter(s0[i]);
                scatter(s1[i]);
                scatter(s2[i]);
                scatter(s3[i]);
            }
            for &l in &s3[q..] {
                scatter(l);
            }
        }
        // Pass two: scatter each group's sources pairwise (two more
        // independent chains); destinations arrive at every source
        // ascending.
        let mut pos: Vec<u32> = adj_starts[..n].to_vec();
        let mut adj = vec![0u32; ne];
        for d in 0..n {
            let d32 = d as u32;
            let group = &by_dst[adj_starts[d] as usize..adj_starts[d + 1] as usize];
            let mut pairs = group.chunks_exact(2);
            for pair in &mut pairs {
                let (s0, s1) = (pair[0] as usize, pair[1] as usize);
                let p0 = pos[s0];
                pos[s0] = p0 + 1;
                adj[p0 as usize] = d32;
                let p1 = pos[s1];
                pos[s1] = p1 + 1;
                adj[p1 as usize] = d32;
            }
            for &src in pairs.remainder() {
                let p = pos[src as usize];
                pos[src as usize] = p + 1;
                adj[p as usize] = d32;
            }
        }
        Self::from_csr(nodes, adj_starts, adj)
    }

    /// Flattens per-node neighbor lists (already ascending) into CSR.
    fn from_lists(nodes: &[(NodeId, Point)], lists: &[Vec<u32>]) -> Self {
        let mut adj_starts = vec![0u32; nodes.len() + 1];
        for (i, l) in lists.iter().enumerate() {
            adj_starts[i + 1] = adj_starts[i] + l.len() as u32;
        }
        let adj = lists.concat();
        Self::from_csr(nodes, adj_starts, adj)
    }

    fn from_csr(nodes: &[(NodeId, Point)], adj_starts: Vec<u32>, adj: Vec<u32>) -> Self {
        assert!(
            nodes.len() < u32::MAX as usize,
            "topology indices are u32-dense"
        );
        Topology {
            ids: nodes.iter().map(|(id, _)| *id).collect(),
            adj_starts,
            adj,
            cache: RefCell::new(MemoCache::default()),
        }
    }

    /// Number of nodes in the snapshot.
    #[must_use]
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Returns `true` if the snapshot contains no nodes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Returns `true` if the snapshot contains `node`.
    #[must_use]
    pub fn contains(&self, node: NodeId) -> bool {
        self.index_of(node).is_some()
    }

    /// The dense index of `node` within this snapshot, usable with
    /// [`node_at`](Topology::node_at) and
    /// [`neighbor_indices_at`](Topology::neighbor_indices_at).
    #[must_use]
    pub fn index_of(&self, node: NodeId) -> Option<usize> {
        let mut cache = self.cache.borrow_mut();
        cache
            .index
            .get_or_insert_with(|| {
                self.ids
                    .iter()
                    .enumerate()
                    .map(|(i, id)| (*id, i))
                    .collect()
            })
            .get(&node)
            .copied()
    }

    /// The node at dense index `i` (indices come from
    /// [`index_of`](Topology::index_of) / neighbor slices).
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn node_at(&self, i: usize) -> NodeId {
        self.ids[i]
    }

    /// One-hop neighbors of `node` as dense indices, ascending, without
    /// allocating (empty if unknown). The hot-path form of
    /// [`neighbors`](Topology::neighbors): routing rounds and render
    /// loops iterate this slice instead of materializing a
    /// `Vec<NodeId>` per query.
    #[must_use]
    pub fn neighbor_indices(&self, node: NodeId) -> &[u32] {
        match self.index_of(node) {
            Some(i) => self.neighbor_indices_at(i),
            None => &[],
        }
    }

    /// One-hop neighbors of the node at dense index `i`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    #[must_use]
    pub fn neighbor_indices_at(&self, i: usize) -> &[u32] {
        &self.adj[self.adj_starts[i] as usize..self.adj_starts[i + 1] as usize]
    }

    /// One-hop neighbors of `node` (empty if unknown).
    #[must_use]
    pub fn neighbors(&self, node: NodeId) -> Vec<NodeId> {
        self.neighbor_indices(node)
            .iter()
            .map(|&j| self.ids[j as usize])
            .collect()
    }

    /// Hands `f` the resumable BFS from dense index `start`, creating
    /// it on first use. `f` advances it as far as its query needs.
    fn with_bfs<R>(&self, start: usize, f: impl FnOnce(&mut Bfs) -> R) -> R {
        let mut cache = self.cache.borrow_mut();
        let n = self.ids.len();
        if cache.bfs.is_empty() {
            cache.bfs.resize_with(n, || None);
        }
        f(cache.bfs[start].get_or_insert_with(|| Bfs::new(n, start)))
    }

    /// Runs the BFS from dense index `start` to completion and hands `f`
    /// the distance per dense index (`u32::MAX` = unreachable).
    pub(crate) fn with_distances_at<R>(&self, start: usize, f: impl FnOnce(&[u32]) -> R) -> R {
        self.with_bfs(start, |bfs| {
            bfs.run(self, |_| true);
            f(&bfs.dist)
        })
    }

    /// BFS distances (in hops) from `node` to every reachable node,
    /// including itself at distance 0. Empty if `node` is unknown.
    #[must_use]
    pub fn distances_from(&self, node: NodeId) -> HashMap<NodeId, u32> {
        let Some(start) = self.index_of(node) else {
            return HashMap::new();
        };
        self.with_distances_at(start, |dist| {
            dist.iter()
                .enumerate()
                .filter(|&(_, d)| *d != u32::MAX)
                .map(|(i, d)| (self.ids[i], *d))
                .collect()
        })
    }

    /// Shortest-path hop count between two nodes, `None` if disconnected
    /// or either node is unknown. `Some(0)` when `a == b`.
    #[must_use]
    pub fn hops(&self, a: NodeId, b: NodeId) -> Option<u32> {
        if a == b {
            return self.contains(a).then_some(0);
        }
        let (start, target) = (self.index_of(a)?, self.index_of(b)?);
        self.with_bfs(start, |bfs| {
            bfs.run(self, |bfs| bfs.dist[target] == u32::MAX);
            let d = bfs.dist[target];
            (d != u32::MAX).then_some(d)
        })
    }

    /// All nodes within `k` hops of `node` (excluding the node itself),
    /// with their distances, sorted by `(distance, id)`.
    #[must_use]
    pub fn within(&self, node: NodeId, k: u32) -> Vec<(NodeId, u32)> {
        let Some(start) = self.index_of(node) else {
            return Vec::new();
        };
        let mut v: Vec<(NodeId, u32)> = self.with_bfs(start, |bfs| {
            // Once the next node to expand sits at depth k, every node
            // at depth <= k is discovered, and they form a prefix of
            // `order`.
            bfs.run(self, |bfs| bfs.dist[bfs.order[bfs.head] as usize] < k);
            let end = bfs.order.partition_point(|&i| bfs.dist[i as usize] <= k);
            bfs.order[1..end]
                .iter()
                .map(|&i| (self.ids[i as usize], bfs.dist[i as usize]))
                .collect()
        });
        v.sort_unstable_by_key(|&(n, d)| (d, n));
        v
    }

    /// Fills (or recalls) the component partition and hands it to `f`.
    fn with_comps<R>(&self, f: impl FnOnce(&[Vec<NodeId>], &[usize]) -> R) -> R {
        let mut cache = self.cache.borrow_mut();
        let (comps, comp_of) = cache.comps.get_or_insert_with(|| {
            let mut comp_of = vec![usize::MAX; self.ids.len()];
            let mut comps: Vec<Vec<NodeId>> = Vec::new();
            for i in 0..self.ids.len() {
                if comp_of[i] != usize::MAX {
                    continue;
                }
                let id = comps.len();
                let mut comp = Vec::new();
                let mut queue = VecDeque::from([i]);
                comp_of[i] = id;
                while let Some(u) = queue.pop_front() {
                    comp.push(self.ids[u]);
                    for &v in self.neighbor_indices_at(u) {
                        let v = v as usize;
                        if comp_of[v] == usize::MAX {
                            comp_of[v] = id;
                            queue.push_back(v);
                        }
                    }
                }
                comp.sort_unstable();
                comps.push(comp);
            }
            // Remap so components are ordered by smallest member and
            // `comp_of` agrees with the new order.
            let mut order: Vec<usize> = (0..comps.len()).collect();
            order.sort_by_key(|&c| comps[c][0]);
            let mut rank = vec![0usize; comps.len()];
            for (new, &old) in order.iter().enumerate() {
                rank[old] = new;
            }
            let mut sorted = vec![Vec::new(); comps.len()];
            for (old, comp) in comps.into_iter().enumerate() {
                sorted[rank[old]] = comp;
            }
            for c in &mut comp_of {
                *c = rank[*c];
            }
            (sorted, comp_of)
        });
        f(comps, comp_of)
    }

    /// The connected component containing `node`, sorted by id. Empty if
    /// `node` is unknown.
    #[must_use]
    pub fn component_of(&self, node: NodeId) -> Vec<NodeId> {
        let Some(i) = self.index_of(node) else {
            return Vec::new();
        };
        self.with_comps(|comps, comp_of| comps[comp_of[i]].clone())
    }

    /// All connected components, each sorted by id, ordered by their
    /// smallest member.
    #[must_use]
    pub fn components(&self) -> Vec<Vec<NodeId>> {
        self.with_comps(|comps, _| comps.to_vec())
    }

    /// Returns `true` if `a` and `b` can reach each other.
    #[must_use]
    pub fn connected(&self, a: NodeId, b: NodeId) -> bool {
        self.hops(a, b).is_some()
    }

    /// Total number of undirected links.
    #[must_use]
    pub fn link_count(&self) -> usize {
        self.adj.len() / 2
    }
}

/// Structural equality: same nodes in the same dense order with the
/// same CSR adjacency. Memo caches are query state, not structure, so
/// they are ignored — two builds of the same instant compare equal
/// even if one has answered queries and the other has not.
impl PartialEq for Topology {
    fn eq(&self, other: &Self) -> bool {
        self.ids == other.ids && self.adj_starts == other.adj_starts && self.adj == other.adj
    }
}

impl Eq for Topology {}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: usize, spacing: f64) -> Vec<(NodeId, Point)> {
        (0..n)
            .map(|i| (NodeId::new(i as u64), Point::new(i as f64 * spacing, 0.0)))
            .collect()
    }

    /// Both engines, so every invariant below is checked against the
    /// grid build and the oracle.
    fn engines(nodes: &[(NodeId, Point)], range: f64) -> [Topology; 2] {
        [
            Topology::build(nodes, range),
            Topology::build_naive(nodes, range),
        ]
    }

    #[test]
    fn empty_topology() {
        for t in engines(&[], 100.0) {
            assert!(t.is_empty());
            assert_eq!(t.neighbors(NodeId::new(0)), vec![]);
            assert!(t.neighbor_indices(NodeId::new(0)).is_empty());
            assert_eq!(t.hops(NodeId::new(0), NodeId::new(1)), None);
            assert!(t.components().is_empty());
        }
    }

    #[test]
    fn line_graph_hops() {
        for t in engines(&line(5, 100.0), 100.0) {
            assert_eq!(t.hops(NodeId::new(0), NodeId::new(4)), Some(4));
            assert_eq!(t.hops(NodeId::new(2), NodeId::new(2)), Some(0));
            assert_eq!(t.link_count(), 4);
        }
    }

    #[test]
    fn range_is_inclusive() {
        let nodes = [
            (NodeId::new(0), Point::new(0.0, 0.0)),
            (NodeId::new(1), Point::new(150.0, 0.0)),
        ];
        for t in engines(&nodes, 150.0) {
            assert_eq!(t.hops(NodeId::new(0), NodeId::new(1)), Some(1));
        }
    }

    #[test]
    fn disconnected_components() {
        let nodes = [
            (NodeId::new(0), Point::new(0.0, 0.0)),
            (NodeId::new(1), Point::new(50.0, 0.0)),
            (NodeId::new(5), Point::new(900.0, 900.0)),
        ];
        for t in engines(&nodes, 100.0) {
            assert_eq!(t.hops(NodeId::new(0), NodeId::new(5)), None);
            assert!(!t.connected(NodeId::new(1), NodeId::new(5)));
            let comps = t.components();
            assert_eq!(comps.len(), 2);
            assert_eq!(comps[0], vec![NodeId::new(0), NodeId::new(1)]);
            assert_eq!(comps[1], vec![NodeId::new(5)]);
            assert_eq!(t.component_of(NodeId::new(1)), comps[0]);
        }
    }

    #[test]
    fn within_k_sorted_and_excludes_self() {
        for t in engines(&line(6, 100.0), 100.0) {
            let near = t.within(NodeId::new(2), 2);
            assert_eq!(
                near,
                vec![
                    (NodeId::new(1), 1),
                    (NodeId::new(3), 1),
                    (NodeId::new(0), 2),
                    (NodeId::new(4), 2),
                ]
            );
        }
    }

    #[test]
    fn unknown_node_queries_are_safe() {
        for t in engines(&line(3, 100.0), 100.0) {
            let ghost = NodeId::new(99);
            assert!(!t.contains(ghost));
            assert_eq!(t.index_of(ghost), None);
            assert!(t.distances_from(ghost).is_empty());
            assert!(t.neighbor_indices(ghost).is_empty());
            assert_eq!(t.hops(ghost, ghost), None);
            assert!(t.component_of(ghost).is_empty());
            assert!(t.within(ghost, 3).is_empty());
        }
    }

    #[test]
    fn dense_clique() {
        let nodes: Vec<(NodeId, Point)> = (0..4)
            .map(|i| (NodeId::new(i), Point::new(i as f64, 0.0)))
            .collect();
        for t in engines(&nodes, 10.0) {
            assert_eq!(t.link_count(), 6);
            for i in 0..4 {
                assert_eq!(t.neighbors(NodeId::new(i)).len(), 3);
            }
        }
    }

    #[test]
    fn degenerate_ranges_match_naive_semantics() {
        let nodes = [
            (NodeId::new(0), Point::new(5.0, 5.0)),
            (NodeId::new(1), Point::new(5.0, 5.0)),
            (NodeId::new(2), Point::new(6.0, 5.0)),
        ];
        // Zero range links only coincident points.
        for t in engines(&nodes, 0.0) {
            assert_eq!(t.link_count(), 1);
            assert_eq!(t.hops(NodeId::new(0), NodeId::new(1)), Some(1));
            assert_eq!(t.hops(NodeId::new(0), NodeId::new(2)), None);
        }
        // Negative range links nothing.
        for t in engines(&nodes, -1.0) {
            assert_eq!(t.link_count(), 0);
        }
    }

    #[test]
    fn neighbor_indices_are_ascending_and_match_neighbors() {
        let nodes = [
            (NodeId::new(0), Point::new(0.0, 0.0)),
            (NodeId::new(1), Point::new(50.0, 0.0)),
            (NodeId::new(2), Point::new(100.0, 0.0)),
            (NodeId::new(3), Point::new(50.0, 50.0)),
        ];
        for t in engines(&nodes, 120.0) {
            for (id, _) in &nodes {
                let idx = t.neighbor_indices(*id);
                assert!(idx.windows(2).all(|w| w[0] < w[1]), "ascending: {idx:?}");
                let via_idx: Vec<NodeId> = idx.iter().map(|&j| t.node_at(j as usize)).collect();
                assert_eq!(via_idx, t.neighbors(*id));
                assert_eq!(idx, t.neighbor_indices_at(t.index_of(*id).unwrap()));
            }
        }
    }

    #[test]
    fn memoized_queries_are_stable_across_repeats() {
        let nodes: Vec<(NodeId, Point)> = (0..30)
            .map(|i| {
                (
                    NodeId::new(i),
                    Point::new((i % 6) as f64 * 90.0, (i / 6) as f64 * 90.0),
                )
            })
            .collect();
        let t = Topology::build(&nodes, 150.0);
        let first = t.distances_from(NodeId::new(0));
        let comps = t.components();
        for _ in 0..3 {
            assert_eq!(t.distances_from(NodeId::new(0)), first);
            assert_eq!(t.components(), comps);
            assert_eq!(
                t.hops(NodeId::new(0), NodeId::new(29)),
                first.get(&NodeId::new(29)).copied()
            );
        }
    }
}
