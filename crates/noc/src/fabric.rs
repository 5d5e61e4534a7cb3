//! The circuit-switched fabric: nodes, routes, switch programming, and
//! SEND-ACK traffic accounting.

use halo_pe::{ProcessingElement, Token};

/// A PE slot in the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

impl std::fmt::Display for NodeId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "node{}", self.0)
    }
}

/// A configured circuit route: `from`'s output stream feeds `to`'s input
/// port `to_port`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// Producer node.
    pub from: NodeId,
    /// Consumer node.
    pub to: NodeId,
    /// Consumer input port (0 = data, 1 = control on GATE).
    pub to_port: usize,
}

/// Errors raised while programming or validating the fabric.
#[derive(Debug, Clone, PartialEq)]
pub enum FabricError {
    /// A switch word did not decode to a legal route.
    BadSwitchWord(u32),
    /// A route references a node beyond the installed PE array.
    NoSuchNode(NodeId),
    /// A route targets a port the consumer does not have.
    NoSuchPort {
        /// The offending route.
        route: Route,
    },
    /// Producer/consumer interface types do not match.
    InterfaceMismatch {
        /// The offending route.
        route: Route,
        /// Producer's output interface.
        produces: halo_pe::InterfaceKind,
        /// Consumer's expected interface on that port.
        expects: halo_pe::InterfaceKind,
    },
    /// Two routes drive the same input port (circuit switching admits one
    /// driver per port).
    PortContention {
        /// The doubly-driven consumer.
        to: NodeId,
        /// The contested port.
        to_port: usize,
    },
}

impl std::fmt::Display for FabricError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Self::BadSwitchWord(w) => write!(f, "switch word {w:#010x} is not a valid route"),
            Self::NoSuchNode(n) => write!(f, "route references missing {n}"),
            Self::NoSuchPort { route } => {
                write!(f, "{} has no port {}", route.to, route.to_port)
            }
            Self::InterfaceMismatch {
                route,
                produces,
                expects,
            } => write!(
                f,
                "{} produces {produces} but {} port {} expects {expects}",
                route.from, route.to, route.to_port
            ),
            Self::PortContention { to, to_port } => {
                write!(f, "multiple routes drive {to} port {to_port}")
            }
        }
    }
}

impl std::error::Error for FabricError {}

/// The programmable circuit-switched interconnect.
///
/// # Example
///
/// ```
/// use halo_noc::{Fabric, NodeId, Route};
/// let mut fabric = Fabric::new();
/// fabric.connect(Route { from: NodeId(0), to: NodeId(1), to_port: 0 }).unwrap();
/// assert_eq!(fabric.routes_from(NodeId(0)).count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Fabric {
    routes: Vec<Route>,
    transfers: u64,
    bus_bytes: u64,
    links: Vec<LinkTraffic>,
    /// Dense `(from, to)` → `links` index matrix with side `link_nodes`
    /// (`NO_LINK` where no traffic has flowed), so the per-transfer
    /// accounting on the streaming hot path is O(1) instead of a scan.
    link_index: Vec<u32>,
    link_nodes: usize,
    programs: u64,
    words_written: u64,
    in_program: bool,
    generation: u64,
}

/// Cumulative traffic on one directed link of the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LinkTraffic {
    /// Producer node.
    pub from: NodeId,
    /// Consumer node.
    pub to: NodeId,
    /// SEND-ACK handshakes on this link.
    pub transfers: u64,
    /// Payload bytes moved on this link.
    pub bytes: u64,
}

impl Fabric {
    /// Switch-word flag marking a route-program word as valid.
    pub const WORD_VALID: u32 = 0x8000_0000;

    /// Switch word that clears all routes (pipeline teardown).
    pub const WORD_CLEAR: u32 = 0;

    /// Modeled peak capacity of one link, in bytes per second. The
    /// asynchronous 8-bit SEND-ACK bus (§IV-D) is modeled at one byte per
    /// handshake with a 46.08 M handshakes/s ceiling — 8x headroom over
    /// the nominal 5.76 MB/s array byte stream. Telemetry's utilization
    /// fractions are relative to this.
    pub const LINK_CAPACITY_BYTES_PER_S: u64 = 46_080_000;

    /// `link_index` sentinel: no traffic recorded on this `(from, to)` pair.
    const NO_LINK: u32 = u32::MAX;

    /// Creates an empty fabric.
    pub fn new() -> Self {
        Self::default()
    }

    /// Monotonic configuration generation: bumped by every successful
    /// [`Fabric::connect`] and [`Fabric::program`] (including teardown
    /// words). Consumers that cache derived routing structures — e.g. the
    /// runtime's per-node route table — compare this against the
    /// generation they built at and rebuild on mismatch, so mid-run
    /// reprogramming is observed without per-token checks on the routes
    /// themselves.
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// Adds a route directly (host-side configuration path).
    ///
    /// # Errors
    ///
    /// Returns [`FabricError::PortContention`] if the input port already
    /// has a driver.
    pub fn connect(&mut self, route: Route) -> Result<(), FabricError> {
        if self
            .routes
            .iter()
            .any(|r| r.to == route.to && r.to_port == route.to_port)
        {
            return Err(FabricError::PortContention {
                to: route.to,
                to_port: route.to_port,
            });
        }
        self.routes.push(route);
        self.generation += 1;
        Ok(())
    }

    /// Encodes a route as the 32-bit switch word the micro-controller
    /// writes: `VALID | from << 16 | to << 8 | port`.
    pub fn encode_route(route: Route) -> u32 {
        Self::WORD_VALID
            | ((route.from.0 as u32 & 0xff) << 16)
            | ((route.to.0 as u32 & 0xff) << 8)
            | (route.to_port as u32 & 0xff)
    }

    /// Programs one switch word — the MMIO write path from the RISC-V
    /// controller. `WORD_CLEAR` tears down all routes.
    ///
    /// # Errors
    ///
    /// Returns [`FabricError`] if the word is malformed or the route
    /// contends for a port.
    pub fn program(&mut self, word: u32) -> Result<(), FabricError> {
        if word == Self::WORD_CLEAR {
            self.routes.clear();
            self.words_written += 1;
            self.in_program = false;
            self.generation += 1;
            return Ok(());
        }
        if word & Self::WORD_VALID == 0 {
            return Err(FabricError::BadSwitchWord(word));
        }
        let route = Route {
            from: NodeId(((word >> 16) & 0xff) as usize),
            to: NodeId(((word >> 8) & 0xff) as usize),
            to_port: (word & 0xff) as usize,
        };
        self.connect(route)?;
        self.words_written += 1;
        if !self.in_program {
            self.in_program = true;
            self.programs += 1;
        }
        Ok(())
    }

    /// All configured routes.
    pub fn routes(&self) -> &[Route] {
        &self.routes
    }

    /// The configured routes as encoded switch words, in programming
    /// order — the exact MMIO sequence that reproduces this fabric from a
    /// clear state (captured into trace logs for deterministic replay).
    pub fn encoded_routes(&self) -> Vec<u32> {
        self.routes.iter().map(|r| Self::encode_route(*r)).collect()
    }

    /// Routes leaving `from` (circuit fan-out).
    pub fn routes_from(&self, from: NodeId) -> impl Iterator<Item = &Route> {
        self.routes.iter().filter(move |r| r.from == from)
    }

    /// Number of programmable switch points the configuration occupies
    /// (one mux/demux pair per route).
    pub fn switch_count(&self) -> usize {
        self.routes.len()
    }

    /// Validates every route against the installed PE array: nodes exist,
    /// ports exist, and interfaces match (§IV-D's configuration rule).
    ///
    /// # Errors
    ///
    /// Returns the first [`FabricError`] found.
    pub fn validate(&self, pes: &[&dyn ProcessingElement]) -> Result<(), FabricError> {
        for route in &self.routes {
            let from = pes
                .get(route.from.0)
                .ok_or(FabricError::NoSuchNode(route.from))?;
            let to = pes
                .get(route.to.0)
                .ok_or(FabricError::NoSuchNode(route.to))?;
            let expects = *to
                .input_ports()
                .get(route.to_port)
                .ok_or(FabricError::NoSuchPort { route: *route })?;
            let produces = from.output_kind();
            if produces != expects {
                return Err(FabricError::InterfaceMismatch {
                    route: *route,
                    produces,
                    expects,
                });
            }
        }
        Ok(())
    }

    /// Records one SEND-ACK transfer of `token` from `from` to `to` over
    /// the 8-bit bus, accounting both fabric totals and the per-link
    /// traffic matrix.
    pub fn record_transfer(&mut self, from: NodeId, to: NodeId, token: &Token) {
        self.record_transfers(from, to, 1, token.wire_bytes() as u64);
    }

    /// Charges `tokens` transfers totalling `bytes` to one link. O(1): the
    /// `(from, to)` pair indexes a dense matrix rather than scanning the
    /// link table. The runtime calls this once per route per drained burst.
    pub fn record_transfers(&mut self, from: NodeId, to: NodeId, tokens: u64, bytes: u64) {
        self.transfers += tokens;
        self.bus_bytes += bytes;
        let slot = self.link_slot(from, to);
        let link = &mut self.links[slot];
        link.transfers += tokens;
        link.bytes += bytes;
    }

    /// Index into `links` for `(from, to)`, allocating the link (and
    /// growing the matrix) on first use. `links` keeps first-use order.
    fn link_slot(&mut self, from: NodeId, to: NodeId) -> usize {
        if from.0 >= self.link_nodes || to.0 >= self.link_nodes {
            self.grow_link_matrix(from.0.max(to.0) + 1);
        }
        let cell = from.0 * self.link_nodes + to.0;
        let idx = self.link_index[cell];
        if idx != Self::NO_LINK {
            return idx as usize;
        }
        let slot = self.links.len();
        self.links.push(LinkTraffic {
            from,
            to,
            transfers: 0,
            bytes: 0,
        });
        self.link_index[cell] = slot as u32;
        slot
    }

    fn grow_link_matrix(&mut self, min_side: usize) {
        let side = min_side.next_power_of_two().max(8);
        let mut index = vec![Self::NO_LINK; side * side];
        for (slot, link) in self.links.iter().enumerate() {
            index[link.from.0 * side + link.to.0] = slot as u32;
        }
        self.link_index = index;
        self.link_nodes = side;
    }

    /// Total SEND-ACK handshakes performed.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Total bytes moved over the 8-bit data bus.
    pub fn bus_bytes(&self) -> u64 {
        self.bus_bytes
    }

    /// Cumulative per-link traffic, in first-use order. Links survive
    /// reprogramming: traffic is an account of what happened, not of the
    /// current route table.
    pub fn link_traffic(&self) -> &[LinkTraffic] {
        &self.links
    }

    /// Number of complete switch-programming sequences executed (one per
    /// `WORD_CLEAR`-initiated teardown that was followed by route words,
    /// plus the initial programming).
    pub fn switch_programs(&self) -> u64 {
        self.programs
    }

    /// Total switch words accepted over the MMIO path (route words and
    /// clears alike).
    pub fn switch_words(&self) -> u64 {
        self.words_written
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use halo_kernels::Threshold;
    use halo_pe::pes::{GatePe, NeoPe, ThrPe};

    #[test]
    fn word_round_trip() {
        let route = Route {
            from: NodeId(3),
            to: NodeId(7),
            to_port: 1,
        };
        let mut fabric = Fabric::new();
        fabric.program(Fabric::encode_route(route)).unwrap();
        assert_eq!(fabric.routes(), &[route]);
    }

    #[test]
    fn clear_word_tears_down() {
        let mut fabric = Fabric::new();
        fabric
            .connect(Route {
                from: NodeId(0),
                to: NodeId(1),
                to_port: 0,
            })
            .unwrap();
        fabric.program(Fabric::WORD_CLEAR).unwrap();
        assert!(fabric.routes().is_empty());
    }

    #[test]
    fn generation_bumps_on_every_reconfiguration() {
        let mut fabric = Fabric::new();
        let g0 = fabric.generation();
        fabric
            .connect(Route {
                from: NodeId(0),
                to: NodeId(1),
                to_port: 0,
            })
            .unwrap();
        let g1 = fabric.generation();
        assert!(g1 > g0, "connect did not bump the generation");
        fabric.program(Fabric::WORD_CLEAR).unwrap();
        let g2 = fabric.generation();
        assert!(g2 > g1, "teardown did not bump the generation");
        // A rejected word leaves the generation alone: cached route
        // tables stay valid.
        assert!(fabric.program(0x0001_0100).is_err());
        assert_eq!(fabric.generation(), g2);
    }

    #[test]
    fn link_matrix_grows_for_high_node_ids() {
        let mut fabric = Fabric::new();
        fabric.record_transfers(NodeId(0), NodeId(1), 2, 3);
        // Node ids beyond the initial matrix side force a regrow; the
        // earlier link's counters must survive it.
        fabric.record_transfers(NodeId(40), NodeId(41), 5, 7);
        fabric.record_transfers(NodeId(0), NodeId(1), 1, 1);
        let links = fabric.link_traffic();
        let ab = links
            .iter()
            .find(|l| l.from == NodeId(0) && l.to == NodeId(1))
            .expect("low link");
        assert_eq!((ab.transfers, ab.bytes), (3, 4));
        let hi = links
            .iter()
            .find(|l| l.from == NodeId(40) && l.to == NodeId(41))
            .expect("high link");
        assert_eq!((hi.transfers, hi.bytes), (5, 7));
    }

    #[test]
    fn invalid_word_rejected() {
        let mut fabric = Fabric::new();
        assert_eq!(
            fabric.program(0x0001_0100),
            Err(FabricError::BadSwitchWord(0x0001_0100))
        );
    }

    #[test]
    fn port_contention_rejected() {
        let mut fabric = Fabric::new();
        let a = Route {
            from: NodeId(0),
            to: NodeId(2),
            to_port: 0,
        };
        let b = Route {
            from: NodeId(1),
            to: NodeId(2),
            to_port: 0,
        };
        fabric.connect(a).unwrap();
        assert!(matches!(
            fabric.connect(b),
            Err(FabricError::PortContention { .. })
        ));
    }

    #[test]
    fn validates_interface_compatibility() {
        // NEO (values out) -> THR (values in): ok.
        // NEO -> GATE port 0 (samples in): mismatch.
        let neo = NeoPe::new();
        let thr = ThrPe::new(Threshold::above(0));
        let gate = GatePe::new(0);
        let pes: Vec<&dyn ProcessingElement> = vec![&neo, &thr, &gate];

        let mut ok = Fabric::new();
        ok.connect(Route {
            from: NodeId(0),
            to: NodeId(1),
            to_port: 0,
        })
        .unwrap();
        assert!(ok.validate(&pes).is_ok());

        let mut bad = Fabric::new();
        bad.connect(Route {
            from: NodeId(0),
            to: NodeId(2),
            to_port: 0,
        })
        .unwrap();
        assert!(matches!(
            bad.validate(&pes),
            Err(FabricError::InterfaceMismatch { .. })
        ));
    }

    #[test]
    fn validates_missing_nodes_and_ports() {
        let neo = NeoPe::new();
        let thr = ThrPe::new(Threshold::above(0));
        let pes: Vec<&dyn ProcessingElement> = vec![&neo, &thr];

        let mut missing = Fabric::new();
        missing
            .connect(Route {
                from: NodeId(0),
                to: NodeId(9),
                to_port: 0,
            })
            .unwrap();
        assert_eq!(
            missing.validate(&pes),
            Err(FabricError::NoSuchNode(NodeId(9)))
        );

        let mut no_port = Fabric::new();
        no_port
            .connect(Route {
                from: NodeId(0),
                to: NodeId(1),
                to_port: 3,
            })
            .unwrap();
        assert!(matches!(
            no_port.validate(&pes),
            Err(FabricError::NoSuchPort { .. })
        ));
    }

    #[test]
    fn traffic_accounting() {
        let mut fabric = Fabric::new();
        fabric.record_transfer(NodeId(0), NodeId(1), &Token::Sample(5));
        fabric.record_transfer(NodeId(0), NodeId(1), &Token::Byte(1));
        fabric.record_transfer(NodeId(1), NodeId(2), &Token::Byte(7));
        assert_eq!(fabric.transfers(), 3);
        assert_eq!(fabric.bus_bytes(), 4);

        let links = fabric.link_traffic();
        assert_eq!(links.len(), 2);
        assert_eq!(
            links[0],
            LinkTraffic {
                from: NodeId(0),
                to: NodeId(1),
                transfers: 2,
                bytes: 3,
            }
        );
        assert_eq!(
            links[1],
            LinkTraffic {
                from: NodeId(1),
                to: NodeId(2),
                transfers: 1,
                bytes: 1,
            }
        );
        // Per-link traffic always sums to the fabric totals.
        assert_eq!(
            links.iter().map(|l| l.bytes).sum::<u64>(),
            fabric.bus_bytes()
        );
    }

    #[test]
    fn switch_programming_is_counted() {
        let route = |from: usize, to: usize| {
            Fabric::encode_route(Route {
                from: NodeId(from),
                to: NodeId(to),
                to_port: 0,
            })
        };
        let mut fabric = Fabric::new();
        // Initial programming: two route words = one program.
        fabric.program(route(0, 1)).unwrap();
        fabric.program(route(1, 2)).unwrap();
        assert_eq!(fabric.switch_programs(), 1);
        assert_eq!(fabric.switch_words(), 2);
        // Teardown + reprogram = a second program.
        fabric.program(Fabric::WORD_CLEAR).unwrap();
        fabric.program(route(0, 2)).unwrap();
        assert_eq!(fabric.switch_programs(), 2);
        assert_eq!(fabric.switch_words(), 4);
        // Rejected words count nothing.
        assert!(fabric.program(0x0001_0000).is_err());
        assert_eq!(fabric.switch_words(), 4);
    }
}
