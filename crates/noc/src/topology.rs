//! Mesh geometry: routers, coordinates, links and routes.

use std::cmp::Ordering;

use ftdircmp_sim::DetRng;

/// Identifier of a router (one per tile) in row-major order.
///
/// # Example
///
/// ```
/// use ftdircmp_noc::{RouterId, Topology};
///
/// let topo = Topology::new(4, 4);
/// let r = RouterId::new(5);
/// assert_eq!(topo.coord(r).x(), 1);
/// assert_eq!(topo.coord(r).y(), 1);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct RouterId(u16);

impl RouterId {
    /// Creates a router id from a raw index.
    pub const fn new(index: u16) -> Self {
        RouterId(index)
    }

    /// Raw index (row-major).
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl std::fmt::Display for RouterId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Grid coordinate of a router.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Coord {
    x: u16,
    y: u16,
}

impl Coord {
    /// Creates a coordinate.
    pub(crate) const fn new(x: u16, y: u16) -> Self {
        Coord { x, y }
    }

    /// Column (0 = west).
    pub const fn x(self) -> u16 {
        self.x
    }

    /// Row (0 = north).
    pub const fn y(self) -> u16 {
        self.y
    }
}

/// One of the four mesh directions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Towards larger x.
    East,
    /// Towards smaller x.
    West,
    /// Towards larger y.
    South,
    /// Towards smaller y.
    North,
}

impl Direction {
    /// All directions, in index order.
    pub(crate) const ALL: [Direction; 4] = [
        Direction::East,
        Direction::West,
        Direction::South,
        Direction::North,
    ];

    /// Dense index for array-backed per-direction state.
    pub(crate) fn index(self) -> usize {
        match self {
            Direction::East => 0,
            Direction::West => 1,
            Direction::South => 2,
            Direction::North => 3,
        }
    }

    /// The opposite direction (the one a neighbor uses to point back).
    pub(crate) fn opposite(self) -> Direction {
        match self {
            Direction::East => Direction::West,
            Direction::West => Direction::East,
            Direction::South => Direction::North,
            Direction::North => Direction::South,
        }
    }

    /// Lowercase label used in job specs and telemetry.
    pub fn label(self) -> &'static str {
        match self {
            Direction::East => "east",
            Direction::West => "west",
            Direction::South => "south",
            Direction::North => "north",
        }
    }

    /// Parses a [`Direction::label`] string.
    pub fn from_label(s: &str) -> Option<Direction> {
        Direction::ALL.into_iter().find(|d| d.label() == s)
    }
}

impl std::fmt::Display for Direction {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// A directional physical link, identified by its source router and
/// direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LinkId {
    from: RouterId,
    dir: Direction,
}

impl LinkId {
    /// Creates a link id from its source router and direction. Used by the
    /// fault-domain layer to map scheduled events onto link mask slots; the
    /// route walkers build their own links internally.
    pub(crate) const fn new(from: RouterId, dir: Direction) -> Self {
        LinkId { from, dir }
    }

    /// Dense index into a per-link array of `4 * router_count` slots.
    pub fn dense_index(self) -> usize {
        self.from.index() * 4 + self.dir.index()
    }
}

/// Rectangular 2D mesh topology.
#[derive(Debug, Clone)]
pub struct Topology {
    width: u16,
    height: u16,
}

impl Topology {
    /// Creates a `width × height` mesh.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(width: u16, height: u16) -> Self {
        assert!(width > 0 && height > 0, "mesh dimensions must be positive");
        Topology { width, height }
    }

    /// Number of routers.
    pub(crate) fn router_count(&self) -> usize {
        self.width as usize * self.height as usize
    }

    /// Number of dense link slots (including nonexistent edge links).
    pub(crate) fn link_slots(&self) -> usize {
        self.router_count() * 4
    }

    /// Coordinate of a router.
    ///
    /// # Panics
    ///
    /// Panics if `r` is out of range.
    pub fn coord(&self, r: RouterId) -> Coord {
        assert!(r.index() < self.router_count(), "router {r} out of range");
        Coord::new(r.index() as u16 % self.width, r.index() as u16 / self.width)
    }

    /// Router at a coordinate.
    ///
    /// # Panics
    ///
    /// Panics if the coordinate is outside the mesh.
    pub(crate) fn router_at(&self, c: Coord) -> RouterId {
        assert!(
            c.x() < self.width && c.y() < self.height,
            "coord outside mesh"
        );
        RouterId::new(c.y() * self.width + c.x())
    }

    /// Neighbor of `r` in direction `d`, if it exists.
    #[allow(clippy::many_single_char_names)] // x/y grid arithmetic
    pub(crate) fn neighbor(&self, r: RouterId, d: Direction) -> Option<RouterId> {
        let c = self.coord(r);
        let (x, y) = (i32::from(c.x()), i32::from(c.y()));
        let (nx, ny) = match d {
            Direction::East => (x + 1, y),
            Direction::West => (x - 1, y),
            Direction::South => (x, y + 1),
            Direction::North => (x, y - 1),
        };
        if nx < 0 || ny < 0 || nx >= i32::from(self.width) || ny >= i32::from(self.height) {
            None
        } else {
            Some(self.router_at(Coord::new(nx as u16, ny as u16)))
        }
    }

    /// Manhattan distance in hops between two routers.
    pub(crate) fn hops(&self, a: RouterId, b: RouterId) -> u32 {
        let (ca, cb) = (self.coord(a), self.coord(b));
        u32::from(ca.x().abs_diff(cb.x()) + ca.y().abs_diff(cb.y()))
    }

    /// Dimension-ordered (XY) route as an allocation-free walker: the
    /// deterministic path used by DirCMP's ordered-network assumption.
    /// Yields the `hops(src, dst)` links traversed (nothing when
    /// `src == dst`).
    pub fn route_xy_iter(&self, src: RouterId, dst: RouterId) -> Route<'static> {
        Route::new(self, src, dst, None)
    }

    /// Randomized minimal adaptive route as an allocation-free walker: at
    /// each hop, picks uniformly among the productive directions. Models an
    /// *unordered* network (adaptive routing), the extension discussed in
    /// paper §2 / its reference 6.
    ///
    /// `down` is the fault pipeline's hard-down mask (one flag per
    /// [`LinkId::dense_index`]; `None` = every link is up): down links are
    /// taken out of the productive set before the pick, so the route steers
    /// around them where a minimal alternative survives and otherwise stops
    /// short ([`Route::stranded`]).
    pub(crate) fn route_adaptive_iter<'r>(
        &self,
        src: RouterId,
        dst: RouterId,
        rng: &'r mut DetRng,
        down: Option<&'r [bool]>,
    ) -> Route<'r> {
        Route::new(self, src, dst, Some((rng, down)))
    }
}

/// Allocation-free minimal route walker, created by
/// [`Topology::route_xy_iter`] or `Topology::route_adaptive_iter`.
///
/// With every link up it yields exactly `Topology::hops(src, dst)` links. An
/// adaptive route consumes one RNG draw per hop where two productive links
/// are up (identical to the historical `Vec`-based routing, so seeded runs
/// reproduce the same paths) and none where only one is.
#[derive(Debug)]
pub struct Route<'r> {
    /// Mesh columns: the router-index distance of one hop south.
    width: u16,
    /// Where the walk stands: the router index and its coordinate advance
    /// together, so a hop costs no division.
    cur: RouterId,
    c: Coord,
    dstc: Coord,
    /// `None`: dimension order, always the first productive direction.
    /// `Some`: a uniform pick among the productive links the mask leaves up.
    adaptive: Option<(&'r mut DetRng, Option<&'r [bool]>)>,
}

impl<'r> Route<'r> {
    fn new(
        topo: &Topology,
        src: RouterId,
        dst: RouterId,
        adaptive: Option<(&'r mut DetRng, Option<&'r [bool]>)>,
    ) -> Self {
        Route {
            width: topo.width,
            cur: src,
            c: topo.coord(src),
            dstc: topo.coord(dst),
            adaptive,
        }
    }

    /// Whether an adaptive walk stopped short of its destination because
    /// every productive link out of the router it reached is down (minimal
    /// routing only: no detour is attempted). Meaningful once `next` has
    /// returned `None`.
    pub(crate) fn stranded(&self) -> bool {
        self.c != self.dstc
    }
}

/// The direction that brings coordinate `c` closer to `dst` along one axis,
/// `None` when they already agree.
fn toward(c: u16, dst: u16, up: Direction, back: Direction) -> Option<Direction> {
    match c.cmp(&dst) {
        Ordering::Less => Some(up),
        Ordering::Greater => Some(back),
        Ordering::Equal => None,
    }
}

impl Iterator for Route<'_> {
    type Item = LinkId;

    fn next(&mut self) -> Option<LinkId> {
        // The productive directions, at most one per axis, x before y.
        let (c, dstc, cur) = (self.c, self.dstc, self.cur);
        let along_x = toward(c.x(), dstc.x(), Direction::East, Direction::West);
        let along_y = || toward(c.y(), dstc.y(), Direction::South, Direction::North);
        let dir = match &mut self.adaptive {
            None => along_x.or_else(along_y)?,
            Some((rng, down)) => {
                let up = |dir: &Direction| {
                    down.is_none_or(|down| !down[LinkId::new(cur, *dir).dense_index()])
                };
                match (along_x.filter(up), along_y().filter(up)) {
                    (Some(x), Some(y)) => *rng.pick(&[x, y]),
                    (one, other) => one.or(other)?,
                }
            }
        };
        // Constant arms compile to a table, not a branch: adaptive routes
        // turn unpredictably, and a mispredicted four-way branch here cost
        // more than the rest of the hop. A productive direction cannot lead
        // off the mesh (the destination, inside it, lies that way).
        let (dx, dy) = match dir {
            Direction::East => (1, 0),
            Direction::West => (-1, 0),
            Direction::South => (0, 1),
            Direction::North => (0, -1),
        };
        let (x, y) = (i32::from(c.x()) + dx, i32::from(c.y()) + dy);
        self.c = Coord::new(x as u16, y as u16);
        self.cur = RouterId((y * i32::from(self.width) + x) as u16);
        Some(LinkId::new(cur, dir))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn topo() -> Topology {
        Topology::new(4, 4)
    }

    #[test]
    fn coords_roundtrip() {
        let t = topo();
        for i in 0..16 {
            let r = RouterId::new(i);
            assert_eq!(t.router_at(t.coord(r)), r);
        }
    }

    #[test]
    fn neighbors_respect_mesh_edges() {
        let t = topo();
        // Corner 0 has only east and south neighbors.
        assert_eq!(t.neighbor(RouterId::new(0), Direction::West), None);
        assert_eq!(t.neighbor(RouterId::new(0), Direction::North), None);
        assert_eq!(
            t.neighbor(RouterId::new(0), Direction::East),
            Some(RouterId::new(1))
        );
        assert_eq!(
            t.neighbor(RouterId::new(0), Direction::South),
            Some(RouterId::new(4))
        );
        // Center router has all four.
        for d in [
            Direction::East,
            Direction::West,
            Direction::South,
            Direction::North,
        ] {
            assert!(t.neighbor(RouterId::new(5), d).is_some());
        }
    }

    #[test]
    fn xy_route_length_equals_manhattan_distance() {
        let t = topo();
        for a in 0..16 {
            for b in 0..16 {
                let (ra, rb) = (RouterId::new(a), RouterId::new(b));
                assert_eq!(t.route_xy_iter(ra, rb).count() as u32, t.hops(ra, rb));
            }
        }
    }

    #[test]
    fn xy_route_goes_x_first() {
        let t = topo();
        // 0 (0,0) -> 15 (3,3): 3 easts then 3 souths.
        let dirs: Vec<Direction> = t
            .route_xy_iter(RouterId::new(0), RouterId::new(15))
            .map(|l| l.dir)
            .collect();
        assert_eq!(
            dirs,
            vec![
                Direction::East,
                Direction::East,
                Direction::East,
                Direction::South,
                Direction::South,
                Direction::South
            ]
        );
    }

    #[test]
    fn self_route_is_empty() {
        let t = topo();
        assert_eq!(
            t.route_xy_iter(RouterId::new(7), RouterId::new(7)).count(),
            0
        );
    }

    #[test]
    fn xy_route_is_deterministic() {
        let t = topo();
        let a = t.route_xy_iter(RouterId::new(2), RouterId::new(13));
        let b = t.route_xy_iter(RouterId::new(2), RouterId::new(13));
        assert!(a.eq(b));
    }

    #[test]
    fn adaptive_route_is_minimal() {
        let t = topo();
        let mut rng = DetRng::from_seed(3);
        for a in 0..16 {
            for b in 0..16 {
                let (ra, rb) = (RouterId::new(a), RouterId::new(b));
                let path = t.route_adaptive_iter(ra, rb, &mut rng, None);
                assert_eq!(path.count() as u32, t.hops(ra, rb));
            }
        }
    }

    #[test]
    fn adaptive_route_varies() {
        let t = topo();
        let mut rng = DetRng::from_seed(3);
        let mut distinct = std::collections::HashSet::new();
        for _ in 0..32 {
            let path: Vec<usize> = t
                .route_adaptive_iter(RouterId::new(0), RouterId::new(15), &mut rng, None)
                .map(LinkId::dense_index)
                .collect();
            distinct.insert(path);
        }
        assert!(
            distinct.len() > 1,
            "adaptive routing should explore multiple paths"
        );
    }

    #[test]
    fn dense_link_indices_fit() {
        let t = topo();
        for a in 0..16 {
            for b in 0..16 {
                for l in t.route_xy_iter(RouterId::new(a), RouterId::new(b)) {
                    assert!(l.dense_index() < t.link_slots());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "mesh dimensions must be positive")]
    fn zero_dimension_panics() {
        Topology::new(0, 4);
    }

    #[test]
    fn direction_labels_roundtrip() {
        for d in Direction::ALL {
            assert_eq!(Direction::from_label(d.label()), Some(d));
            assert_eq!(d.opposite().opposite(), d);
            assert_ne!(d.opposite(), d);
        }
        assert_eq!(Direction::from_label("up"), None);
        assert_eq!(Direction::East.to_string(), "east");
    }

    #[test]
    fn link_constructor_matches_walker_links() {
        let t = topo();
        let walked = t
            .route_xy_iter(RouterId::new(0), RouterId::new(1))
            .next()
            .expect("one hop");
        let built = LinkId::new(RouterId::new(0), Direction::East);
        assert_eq!(walked, built);
        assert_eq!(built.dense_index(), walked.dense_index());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// XY routes are valid paths on arbitrary mesh shapes: each link
        /// starts where the previous one ended and the walk lands on the
        /// destination in exactly the Manhattan distance.
        #[test]
        fn xy_routes_are_valid_walks(
            w in 1u16..9,
            h in 1u16..9,
            a in 0u16..64,
            b in 0u16..64,
        ) {
            let t = Topology::new(w, h);
            let n = t.router_count() as u16;
            let (src, dst) = (RouterId::new(a % n), RouterId::new(b % n));
            let path: Vec<LinkId> = t.route_xy_iter(src, dst).collect();
            prop_assert_eq!(path.len() as u32, t.hops(src, dst));
            let mut cur = src;
            for link in &path {
                prop_assert_eq!(link.from, cur);
                cur = t.neighbor(cur, link.dir).expect("link exists");
            }
            prop_assert_eq!(cur, dst);
        }

        /// Adaptive routes are also valid minimal walks, and under a
        /// down-mask they never cross a down link: they either still reach
        /// the destination in the Manhattan distance or stop where every
        /// productive link is down.
        #[test]
        fn adaptive_routes_are_valid_walks(
            w in 1u16..9,
            h in 1u16..9,
            a in 0u16..64,
            b in 0u16..64,
            seed in 0u64..1000,
            down_per_mille in 0u64..300,
        ) {
            let t = Topology::new(w, h);
            let n = t.router_count() as u16;
            let (src, dst) = (RouterId::new(a % n), RouterId::new(b % n));
            let mut rng = DetRng::from_seed(seed);
            let down: Vec<bool> = (0..t.link_slots())
                .map(|_| rng.below(1000) < down_per_mille)
                .collect();
            let mask = (down_per_mille > 0).then_some(&down[..]);
            let mut route = t.route_adaptive_iter(src, dst, &mut rng, mask);
            let path: Vec<LinkId> = route.by_ref().collect();
            let stranded = route.stranded();
            let mut cur = src;
            for link in &path {
                prop_assert_eq!(link.from, cur);
                prop_assert!(mask.is_none() || !down[link.dense_index()]);
                cur = t.neighbor(cur, link.dir).expect("link exists");
            }
            prop_assert_eq!(stranded, cur != dst);
            if stranded {
                prop_assert!(mask.is_some());
                let every_productive_link_is_down = Direction::ALL.into_iter().all(|d| {
                    let closer = t
                        .neighbor(cur, d)
                        .is_some_and(|nb| t.hops(nb, dst) < t.hops(cur, dst));
                    !closer || down[LinkId::new(cur, d).dense_index()]
                });
                prop_assert!(every_productive_link_is_down);
            } else {
                prop_assert_eq!(path.len() as u32, t.hops(src, dst));
            }
        }
    }
}
