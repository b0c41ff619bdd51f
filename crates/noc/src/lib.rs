//! 2D-mesh network-on-chip simulator for the MEALib accelerator layer.
//!
//! Figure 4 of the paper organizes the accelerator tiles "as a traditional
//! mesh network" with a Network Controller (NC) per tile; the NoC carries
//! configuration traffic from the centralized Configuration Unit and
//! inter-tile data for chained accelerators. This crate models that mesh:
//! dimension-ordered (XY) routing, per-link serialization, per-hop router
//! latency, and a flit-level energy model whose budget matches the
//! "NoC (router + link): 0.095 W / 1.44 mm²" row of Table 5.
//!
//! # Examples
//!
//! ```
//! use mealib_noc::{Mesh, Packet, TileId};
//!
//! let mesh = Mesh::mealib_layer(); // 4x8: one tile per vault
//! let stats = mesh.simulate(&[Packet::new(TileId::new(0, 0), TileId::new(3, 7), 256)]);
//! assert!(stats.cycles.get() > 0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use core::fmt;

use mealib_types::{ConfigError, Cycles, Hertz, Joules, Seconds, Watts};

/// Coordinates of a tile in the mesh (row-major).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct TileId {
    /// Row (y coordinate).
    pub row: usize,
    /// Column (x coordinate).
    pub col: usize,
}

impl TileId {
    /// Creates a tile id from row and column.
    pub const fn new(row: usize, col: usize) -> Self {
        Self { row, col }
    }

    /// Manhattan distance in hops to `other`.
    pub fn hops_to(&self, other: TileId) -> usize {
        self.row.abs_diff(other.row) + self.col.abs_diff(other.col)
    }
}

impl fmt::Display for TileId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "({},{})", self.row, self.col)
    }
}

/// A message from one tile to another.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Packet {
    /// Source tile.
    pub src: TileId,
    /// Destination tile.
    pub dst: TileId,
    /// Payload size in bytes.
    pub bytes: u64,
}

impl Packet {
    /// Creates a packet.
    pub const fn new(src: TileId, dst: TileId, bytes: u64) -> Self {
        Self { src, dst, bytes }
    }
}

/// A directed link between two adjacent routers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct LinkId {
    from: TileId,
    to: TileId,
}

/// Aggregate result of pushing a batch of packets through the mesh.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NocStats {
    /// Cycles until the last flit arrived.
    pub cycles: Cycles,
    /// Wall-clock equivalent at the mesh clock.
    pub elapsed: Seconds,
    /// Total flits injected.
    pub flits: u64,
    /// Total link traversals (flits × hops).
    pub flit_hops: u64,
    /// Dynamic + leakage energy.
    pub energy: Joules,
}

impl NocStats {
    /// Adds this transfer's flit counters to `bd`. Credits are one per
    /// flit per link in this wormhole model, i.e. equal to the flit-hop
    /// count.
    pub fn add_counters(&self, bd: &mut mealib_obs::Breakdown) {
        use mealib_obs::{Counter, CounterKey};
        for (counter, value) in [
            (Counter::NocFlits, self.flits),
            (Counter::NocFlitHops, self.flit_hops),
            (Counter::NocCredits, self.flit_hops),
        ] {
            bd.add_count(CounterKey::total(counter), value);
        }
    }
}

/// A 2D mesh NoC with XY routing.
#[derive(Debug, Clone, PartialEq)]
pub struct Mesh {
    rows: usize,
    cols: usize,
    /// Payload bytes per flit.
    flit_bytes: u64,
    /// Pipeline latency of one router traversal, cycles.
    router_latency: u64,
    /// Mesh clock.
    clock: Hertz,
    /// Dynamic energy per flit per hop (link + router switching).
    e_flit_hop: Joules,
    /// Static power of all routers and links together.
    p_static: Watts,
}

impl Mesh {
    /// Creates a mesh with explicit parameters.
    ///
    /// # Errors
    ///
    /// Returns a [`ConfigError`] if any dimension or rate parameter is
    /// zero.
    pub fn new(
        rows: usize,
        cols: usize,
        flit_bytes: u64,
        router_latency: u64,
        clock: Hertz,
    ) -> Result<Self, ConfigError> {
        if rows == 0 || cols == 0 {
            return Err(ConfigError::new(
                "rows/cols",
                "mesh dimensions must be nonzero",
            ));
        }
        if flit_bytes == 0 {
            return Err(ConfigError::new("flit_bytes", "must be nonzero"));
        }
        if router_latency == 0 {
            return Err(ConfigError::new("router_latency", "must be nonzero"));
        }
        if clock.get() <= 0.0 {
            return Err(ConfigError::new("clock", "must be positive"));
        }
        Ok(Self {
            rows,
            cols,
            flit_bytes,
            router_latency,
            clock,
            e_flit_hop: Joules::from_picos(1.2),
            p_static: Watts::new(0.02),
        })
    }

    /// The accelerator-layer mesh of the paper: one tile per vault
    /// (32 vaults → 4×8), 16-byte flits, 2-cycle routers at 1 GHz, with
    /// energy constants sized to the Table 5 NoC budget (0.095 W under
    /// load).
    pub fn mealib_layer() -> Self {
        Self::new(4, 8, 16, 2, Hertz::from_ghz(1.0)).expect("static parameters are valid")
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Total number of tiles.
    pub fn tiles(&self) -> usize {
        self.rows * self.cols
    }

    /// Returns `true` if the tile exists in this mesh.
    pub fn contains(&self, t: TileId) -> bool {
        t.row < self.rows && t.col < self.cols
    }

    /// The XY route from `src` to `dst`: first along the row (X/columns),
    /// then along the column (Y/rows). Returns the sequence of tiles
    /// *visited after* `src` (empty when `src == dst`).
    ///
    /// # Panics
    ///
    /// Panics if either endpoint is outside the mesh.
    pub fn route(&self, src: TileId, dst: TileId) -> Vec<TileId> {
        assert!(self.contains(src), "source tile outside mesh");
        assert!(self.contains(dst), "destination tile outside mesh");
        let mut path = Vec::with_capacity(src.hops_to(dst));
        let mut cur = src;
        while cur.col != dst.col {
            cur.col = if dst.col > cur.col {
                cur.col + 1
            } else {
                cur.col - 1
            };
            path.push(cur);
        }
        while cur.row != dst.row {
            cur.row = if dst.row > cur.row {
                cur.row + 1
            } else {
                cur.row - 1
            };
            path.push(cur);
        }
        path
    }

    /// Pushes a batch of packets (all injected at cycle 0) through the
    /// mesh and returns aggregate statistics. Links serialize flits;
    /// packets are processed in order, wormhole-style (a packet's flits
    /// stream back to back unless a link is busy).
    ///
    /// # Panics
    ///
    /// Panics if any packet endpoint is outside the mesh.
    pub fn simulate(&self, packets: &[Packet]) -> NocStats {
        use std::collections::HashMap;
        let mut link_free: HashMap<LinkId, u64> = HashMap::new();
        let mut stats = NocStats::default();
        let mut last_arrival = 0u64;

        for p in packets {
            let flits = p.bytes.div_ceil(self.flit_bytes).max(1);
            let path = self.route(p.src, p.dst);
            stats.flits += flits;
            stats.flit_hops += flits * path.len() as u64;
            if path.is_empty() {
                // Local delivery still pays one router traversal.
                last_arrival = last_arrival.max(self.router_latency);
                continue;
            }
            // Head flit advances hop by hop; the body streams behind it.
            let mut head_time = 0u64;
            let mut prev = p.src;
            let mut tail_time = 0u64;
            for hop in &path {
                let link = LinkId {
                    from: prev,
                    to: *hop,
                };
                let free = link_free.get(&link).copied().unwrap_or(0);
                head_time = head_time.max(free) + self.router_latency;
                // The link is busy until every flit of this packet passed.
                tail_time = head_time + flits - 1;
                link_free.insert(link, tail_time + 1);
                prev = *hop;
            }
            last_arrival = last_arrival.max(tail_time);
        }

        stats.cycles = Cycles::new(last_arrival);
        stats.elapsed = stats.cycles.at(self.clock);
        stats.energy =
            self.e_flit_hop * stats.flit_hops as f64 + self.p_static.for_duration(stats.elapsed);
        stats
    }

    /// Cost of broadcasting `bytes` from tile `src` to every other tile
    /// (the Configuration Unit's descriptor distribution).
    pub fn broadcast(&self, src: TileId, bytes: u64) -> NocStats {
        let packets: Vec<Packet> = (0..self.rows)
            .flat_map(|r| (0..self.cols).map(move |c| TileId::new(r, c)))
            .filter(|&t| t != src)
            .map(|t| Packet::new(src, t, bytes))
            .collect();
        self.simulate(&packets)
    }

    /// Cost of gathering `bytes` of completion status from every tile
    /// back to `dst` (the Decode Unit's pass-completion monitoring,
    /// §2.2: "The DU monitors the status of the last accelerator in the
    /// pass").
    pub fn gather(&self, dst: TileId, bytes: u64) -> NocStats {
        let packets: Vec<Packet> = (0..self.rows)
            .flat_map(|r| (0..self.cols).map(move |c| TileId::new(r, c)))
            .filter(|&t| t != dst)
            .map(|t| Packet::new(t, dst, bytes))
            .collect();
        self.simulate(&packets)
    }

    /// Average power of the mesh while executing `stats`'s traffic.
    pub fn average_power(&self, stats: &NocStats) -> Watts {
        stats.energy.over(stats.elapsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn route_is_xy_ordered() {
        let m = Mesh::mealib_layer();
        let path = m.route(TileId::new(0, 0), TileId::new(2, 3));
        assert_eq!(path.len(), 5);
        // X first: columns advance before rows.
        assert_eq!(path[0], TileId::new(0, 1));
        assert_eq!(path[2], TileId::new(0, 3));
        assert_eq!(path[3], TileId::new(1, 3));
        assert_eq!(path[4], TileId::new(2, 3));
    }

    #[test]
    fn route_to_self_is_empty() {
        let m = Mesh::mealib_layer();
        assert!(m.route(TileId::new(1, 1), TileId::new(1, 1)).is_empty());
    }

    #[test]
    fn route_handles_negative_directions() {
        let m = Mesh::mealib_layer();
        let path = m.route(TileId::new(3, 7), TileId::new(0, 0));
        assert_eq!(path.len(), 10);
        assert_eq!(*path.last().unwrap(), TileId::new(0, 0));
    }

    #[test]
    fn single_packet_latency_is_hops_plus_serialization() {
        let m = Mesh::mealib_layer(); // 16B flits, 2-cycle routers
        let s = m.simulate(&[Packet::new(TileId::new(0, 0), TileId::new(0, 2), 64)]);
        // 4 flits, 2 hops: head arrives at 2*2=4, tail 3 flits later.
        assert_eq!(s.cycles.get(), 7);
        assert_eq!(s.flits, 4);
        assert_eq!(s.flit_hops, 8);
    }

    #[test]
    fn contended_link_serializes() {
        let m = Mesh::mealib_layer();
        let a = Packet::new(TileId::new(0, 0), TileId::new(0, 1), 160); // 10 flits
        let lone = m.simulate(&[a]);
        let pair = m.simulate(&[a, a]);
        assert!(
            pair.cycles.get() >= lone.cycles.get() + 10,
            "second packet must wait: {} vs {}",
            pair.cycles,
            lone.cycles
        );
    }

    #[test]
    fn disjoint_paths_run_in_parallel() {
        let m = Mesh::mealib_layer();
        let a = Packet::new(TileId::new(0, 0), TileId::new(0, 1), 160);
        let b = Packet::new(TileId::new(3, 0), TileId::new(3, 1), 160);
        let lone = m.simulate(&[a]);
        let pair = m.simulate(&[a, b]);
        assert_eq!(pair.cycles, lone.cycles, "no shared links, no slowdown");
    }

    #[test]
    fn broadcast_reaches_all_tiles() {
        let m = Mesh::mealib_layer();
        let s = m.broadcast(TileId::new(0, 0), 64);
        // 31 destinations x 4 flits.
        assert_eq!(s.flits, 31 * 4);
        assert!(s.cycles.get() > 0);
    }

    #[test]
    fn gather_mirrors_broadcast_flit_counts() {
        let m = Mesh::mealib_layer();
        let g = m.gather(TileId::new(0, 0), 16);
        let b = m.broadcast(TileId::new(0, 0), 16);
        assert_eq!(g.flits, b.flits);
        // Fan-in converges on the destination's links: comparable
        // serialization to the fan-out.
        assert!(g.cycles.get() * 2 >= b.cycles.get());
    }

    #[test]
    fn noc_counters_add_to_breakdown() {
        use mealib_obs::{Breakdown, Counter};
        let m = Mesh::mealib_layer();
        let s = m.broadcast(TileId::new(0, 0), 64);
        let mut bd = Breakdown::new();
        s.add_counters(&mut bd);
        assert_eq!(bd.counter(Counter::NocFlits), s.flits);
        assert_eq!(bd.counter(Counter::NocFlitHops), s.flit_hops);
        assert_eq!(bd.counter(Counter::NocCredits), s.flit_hops);
    }

    #[test]
    fn local_delivery_pays_router_latency_only() {
        let m = Mesh::mealib_layer();
        let s = m.simulate(&[Packet::new(TileId::new(1, 1), TileId::new(1, 1), 64)]);
        assert_eq!(s.cycles.get(), 2);
        assert_eq!(s.flit_hops, 0);
    }

    #[test]
    fn noc_power_stays_within_table5_budget() {
        // Saturate one link for a long time; average power must stay in
        // the neighbourhood of the 0.095 W Table 5 row.
        let m = Mesh::mealib_layer();
        let packets: Vec<Packet> = (0..64)
            .map(|_| Packet::new(TileId::new(0, 0), TileId::new(3, 7), 4096))
            .collect();
        let s = m.simulate(&packets);
        let p = m.average_power(&s).get();
        assert!(p < 0.2, "NoC power {p} W exceeds budget headroom");
        assert!(p > 0.02, "NoC under load should burn dynamic power: {p} W");
    }

    #[test]
    fn mesh_validation() {
        assert!(Mesh::new(0, 4, 16, 2, Hertz::from_ghz(1.0)).is_err());
        assert!(Mesh::new(4, 4, 0, 2, Hertz::from_ghz(1.0)).is_err());
        assert!(Mesh::new(4, 4, 16, 0, Hertz::from_ghz(1.0)).is_err());
        assert!(Mesh::new(4, 4, 16, 2, Hertz::new(0.0)).is_err());
    }

    #[test]
    #[should_panic(expected = "outside mesh")]
    fn route_rejects_out_of_bounds() {
        let m = Mesh::mealib_layer();
        let _ = m.route(TileId::new(0, 0), TileId::new(9, 9));
    }

    #[test]
    fn hops_metric() {
        assert_eq!(TileId::new(0, 0).hops_to(TileId::new(2, 3)), 5);
        assert_eq!(TileId::new(2, 3).hops_to(TileId::new(2, 3)), 0);
    }
}
