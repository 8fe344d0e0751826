//! Circuit (netlist) representation.
//!
//! A [`Circuit`] is a named-node netlist: nodes are interned strings,
//! elements are boxed [`Element`] trait objects added in any order. The
//! analyses in [`crate::analysis`] treat the circuit as immutable.

use crate::element::Element;
use cml_cache::Fnv64;
use std::collections::HashMap;
use std::fmt;
use std::sync::OnceLock;

/// Identifier of a circuit node.
///
/// `NodeId::GROUND` (raw value 0) is the global reference node; all other
/// ids index rows of the MNA system via [`NodeId::index`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(u32);

impl NodeId {
    /// The global ground / reference node.
    pub const GROUND: NodeId = NodeId(0);

    /// Constructs a `NodeId` from its raw value. Intended for tests and
    /// for code that re-creates ids it previously obtained from a circuit.
    #[must_use]
    pub const fn from_raw(raw: u32) -> Self {
        NodeId(raw)
    }

    /// Raw numeric value.
    #[must_use]
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// MNA row/column of this node: `None` for ground, `Some(raw - 1)`
    /// otherwise.
    #[must_use]
    pub const fn index(self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            Some(self.0 as usize - 1)
        }
    }

    /// Whether this is the ground node.
    #[must_use]
    pub const fn is_ground(self) -> bool {
        self.0 == 0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// A flat netlist of named nodes and elements.
///
/// ```
/// use cml_spice::prelude::*;
///
/// let mut ckt = Circuit::new();
/// let a = ckt.node("a");
/// ckt.add(Resistor::new("R1", a, Circuit::GROUND, 50.0));
/// assert_eq!(ckt.num_elements(), 1);
/// ```
#[derive(Debug, Default)]
pub struct Circuit {
    node_names: Vec<String>,
    node_map: HashMap<String, NodeId>,
    elements: Vec<Box<dyn Element>>,
    /// Lazily computed structural digest; reset on any mutation.
    topo_hash: OnceLock<u64>,
    /// Lazily computed structure+values digest; reset on any mutation.
    content_hash: OnceLock<u64>,
}

impl Circuit {
    /// The ground node, re-exported for ergonomic netlist building.
    pub const GROUND: NodeId = NodeId::GROUND;

    /// Creates an empty circuit containing only the ground node.
    #[must_use]
    pub fn new() -> Self {
        let mut node_map = HashMap::new();
        node_map.insert("0".to_string(), NodeId::GROUND);
        Circuit {
            node_names: vec!["0".to_string()],
            node_map,
            elements: Vec::new(),
            topo_hash: OnceLock::new(),
            content_hash: OnceLock::new(),
        }
    }

    fn invalidate_hashes(&mut self) {
        self.topo_hash = OnceLock::new();
        self.content_hash = OnceLock::new();
    }

    /// Returns the node with the given name, creating it if necessary.
    /// The names `"0"` and `"gnd"` always resolve to ground.
    pub fn node(&mut self, name: &str) -> NodeId {
        if name == "0" || name.eq_ignore_ascii_case("gnd") {
            return NodeId::GROUND;
        }
        if let Some(&id) = self.node_map.get(name) {
            return id;
        }
        let id = NodeId(self.node_names.len() as u32);
        self.node_names.push(name.to_string());
        self.node_map.insert(name.to_string(), id);
        self.invalidate_hashes();
        id
    }

    /// Creates a fresh, uniquely named internal node (for generated
    /// netlists). The name is prefixed with `_` to avoid collisions.
    pub fn internal_node(&mut self, hint: &str) -> NodeId {
        let mut i = self.node_names.len();
        loop {
            let name = format!("_{hint}{i}");
            if !self.node_map.contains_key(&name) {
                return self.node(&name);
            }
            i += 1;
        }
    }

    /// Looks up an existing node by name without creating it.
    #[must_use]
    pub fn find_node(&self, name: &str) -> Option<NodeId> {
        if name == "0" || name.eq_ignore_ascii_case("gnd") {
            return Some(NodeId::GROUND);
        }
        self.node_map.get(name).copied()
    }

    /// Name of a node.
    ///
    /// # Panics
    ///
    /// Panics if the id did not come from this circuit.
    #[must_use]
    pub fn node_name(&self, id: NodeId) -> &str {
        &self.node_names[id.0 as usize]
    }

    /// Total node count, including ground.
    #[must_use]
    pub fn num_nodes(&self) -> usize {
        self.node_names.len()
    }

    /// Number of non-ground nodes (= node unknowns in the MNA system).
    #[must_use]
    pub fn num_unknown_nodes(&self) -> usize {
        self.node_names.len() - 1
    }

    /// Adds an element to the netlist.
    pub fn add(&mut self, element: impl Element + 'static) {
        self.elements.push(Box::new(element));
        self.invalidate_hashes();
    }

    /// Adds a boxed element (for generated netlists).
    pub fn add_boxed(&mut self, element: Box<dyn Element>) {
        self.elements.push(element);
        self.invalidate_hashes();
    }

    /// Number of elements.
    #[must_use]
    pub fn num_elements(&self) -> usize {
        self.elements.len()
    }

    /// Iterates over the elements in insertion order.
    pub fn elements(&self) -> impl Iterator<Item = &dyn Element> {
        self.elements.iter().map(|b| b.as_ref())
    }

    /// Finds an element by name.
    #[must_use]
    pub fn find_element(&self, name: &str) -> Option<&dyn Element> {
        self.elements
            .iter()
            .map(|b| b.as_ref())
            .find(|e| e.name() == name)
    }

    /// Renders the circuit as a SPICE netlist (one card per element,
    /// `.end`-terminated). Useful for debugging generated circuits and
    /// for cross-checking against external simulators.
    #[must_use]
    pub fn netlist(&self) -> String {
        let namer = |n: NodeId| self.node_name(n).to_string();
        let mut out = String::from("* generated by cml-spice\n");
        for e in self.elements() {
            out.push_str(&e.card(&namer));
            out.push('\n');
        }
        out.push_str(".end\n");
        out
    }

    /// Names of nodes that appear in no element — these would make the MNA
    /// matrix singular and usually indicate a netlist bug.
    #[must_use]
    pub fn floating_nodes(&self) -> Vec<String> {
        let mut used = vec![false; self.node_names.len()];
        used[0] = true;
        for e in &self.elements {
            for n in e.nodes() {
                used[n.0 as usize] = true;
            }
        }
        used.iter()
            .enumerate()
            .filter(|(_, &u)| !u)
            .map(|(i, _)| self.node_names[i].clone())
            .collect()
    }

    /// Deterministic digest of the circuit's **structure**: node names,
    /// element kinds/names/connectivity/branch counts — everything that
    /// determines the MNA sparsity pattern, the symbolic LU analysis,
    /// and the structural lint verdict, and nothing that doesn't.
    /// Two circuits with equal topology hashes have interchangeable
    /// stamp patterns and symbolic analyses even when their component
    /// values differ (a Monte-Carlo variant fleet, a corner sweep).
    ///
    /// Computed lazily and cached; any mutation ([`node`](Self::node),
    /// [`add`](Self::add), [`add_boxed`](Self::add_boxed)) invalidates
    /// the cache. FNV-1a over length-prefixed fields, so the digest is
    /// stable across processes — flight bundles record it so a dump can
    /// be matched to its circuit on another machine.
    #[must_use]
    pub fn topology_hash(&self) -> u64 {
        *self.topo_hash.get_or_init(|| {
            let mut h = Fnv64::new();
            h.write_usize(self.node_names.len());
            for name in &self.node_names {
                h.write_str(name);
            }
            h.write_usize(self.elements.len());
            for e in self.elements() {
                h.write_str(&format!("{:?}", e.kind()));
                h.write_str(e.name());
                let nodes = e.nodes();
                h.write_usize(nodes.len());
                for n in nodes {
                    h.write_u64(u64::from(n.raw()));
                }
                h.write_usize(e.num_branches());
                h.write_u8(u8::from(e.is_nonlinear()));
            }
            h.finish()
        })
    }

    /// Deterministic digest of structure **and** element parameter
    /// values, via each element's full `Debug` rendering (derived for
    /// every builtin element, so `f64` fields print with lossless
    /// shortest-roundtrip formatting). Folds in
    /// [`topology_hash`](Self::topology_hash). Used to key artifacts
    /// that depend on values, like lint verdicts; two
    /// circuits with equal content hashes are the same netlist.
    #[must_use]
    pub fn content_hash(&self) -> u64 {
        *self.content_hash.get_or_init(|| {
            let mut h = Fnv64::new();
            h.write_u64(self.topology_hash());
            for e in self.elements() {
                h.write_str(&format!("{e:?}"));
            }
            h.finish()
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::elements::two_terminal::Resistor;

    #[test]
    fn ground_aliases() {
        let mut ckt = Circuit::new();
        assert_eq!(ckt.node("0"), NodeId::GROUND);
        assert_eq!(ckt.node("gnd"), NodeId::GROUND);
        assert_eq!(ckt.node("GND"), NodeId::GROUND);
    }

    #[test]
    fn node_interning_is_stable() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        assert_ne!(a, b);
        assert_eq!(ckt.node("a"), a);
        assert_eq!(ckt.num_unknown_nodes(), 2);
        assert_eq!(ckt.node_name(a), "a");
    }

    #[test]
    fn find_node_does_not_create() {
        let ckt = Circuit::new();
        assert_eq!(ckt.find_node("missing"), None);
        assert_eq!(ckt.find_node("gnd"), Some(NodeId::GROUND));
    }

    #[test]
    fn internal_nodes_are_unique() {
        let mut ckt = Circuit::new();
        let a = ckt.internal_node("x");
        let b = ckt.internal_node("x");
        assert_ne!(a, b);
    }

    #[test]
    fn ground_index_is_none() {
        assert_eq!(NodeId::GROUND.index(), None);
        assert_eq!(NodeId::from_raw(3).index(), Some(2));
        assert!(NodeId::GROUND.is_ground());
    }

    #[test]
    fn floating_node_detection() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let _orphan = ckt.node("orphan");
        ckt.add(Resistor::new("R1", a, Circuit::GROUND, 1.0));
        assert_eq!(ckt.floating_nodes(), vec!["orphan".to_string()]);
    }

    #[test]
    fn topology_hash_ignores_values_content_hash_does_not() {
        let build = |r: f64| {
            let mut ckt = Circuit::new();
            let a = ckt.node("a");
            ckt.add(Resistor::new("R1", a, Circuit::GROUND, r));
            ckt
        };
        let c1 = build(50.0);
        let c2 = build(50.0);
        let c3 = build(75.0);
        assert_eq!(c1.topology_hash(), c2.topology_hash());
        assert_eq!(c1.topology_hash(), c3.topology_hash());
        assert_eq!(c1.content_hash(), c2.content_hash());
        assert_ne!(c1.content_hash(), c3.content_hash());
    }

    #[test]
    fn topology_hash_sees_structure() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add(Resistor::new("R1", a, Circuit::GROUND, 1.0));
        let h1 = ckt.topology_hash();
        // Mutation invalidates the cached digest.
        let b = ckt.node("b");
        ckt.add(Resistor::new("R2", a, b, 1.0));
        assert_ne!(ckt.topology_hash(), h1);
        // Different element name, same everything else: different hash
        // (names are structural — duplicate names are a lint error).
        let mut other = Circuit::new();
        let oa = other.node("a");
        other.add(Resistor::new("Rx", oa, Circuit::GROUND, 1.0));
        let mut named = Circuit::new();
        let na = named.node("a");
        named.add(Resistor::new("R1", na, Circuit::GROUND, 1.0));
        assert_ne!(other.topology_hash(), named.topology_hash());
    }

    #[test]
    fn find_element_by_name() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        ckt.add(Resistor::new("R1", a, Circuit::GROUND, 1.0));
        assert!(ckt.find_element("R1").is_some());
        assert!(ckt.find_element("R2").is_none());
    }
}

#[cfg(test)]
mod netlist_tests {
    use super::*;
    use crate::prelude::*;

    #[test]
    fn netlist_renders_spice_cards() {
        let mut ckt = Circuit::new();
        let a = ckt.node("a");
        let b = ckt.node("b");
        ckt.add(Vsource::dc("V1", a, Circuit::GROUND, 1.8));
        ckt.add(Resistor::new("R1", a, b, 1e3));
        ckt.add(Capacitor::new("C1", b, Circuit::GROUND, 1e-12));
        ckt.add(Mosfet::new(
            "M1",
            b,
            a,
            Circuit::GROUND,
            Circuit::GROUND,
            MosParams {
                mos_type: MosType::Nmos,
                w: 1e-6,
                l: 0.18e-6,
                vth0: 0.45,
                kp: 170e-6,
                lambda: 0.1,
                cox: 8.4e-3,
                cov: 3e-10,
                cj: 1e-3,
                ldiff: 0.5e-6,
            },
        ));
        let nl = ckt.netlist();
        assert!(nl.contains("VV1 a 0 DC 1.8"));
        assert!(nl.contains("RR1 a b 1.0"));
        assert!(nl.contains("CC1 b 0 1.0"));
        assert!(nl.contains("MM1 b a 0 0 nmos"));
        assert!(nl.ends_with(".end\n"));
        assert_eq!(nl.lines().count(), 6);
    }
}
