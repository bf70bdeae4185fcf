//! Netlist optimization passes: the paper's §5.2 hardware pruning applied
//! at the IR level.
//!
//! The paper prunes multiplier–adder trees by morphology-derived sparsity
//! *before* the design reaches silicon; this module performs the same kind
//! of reduction on any [`Netlist`], so that both the Verilog backend and
//! the simulator's compiled evaluator work from the smallest equivalent
//! design. Four passes run to a fixpoint:
//!
//! * **constant folding** — arithmetic between [`Node::Const`] operands is
//!   evaluated at optimization time (in `f64`, the domain constants are
//!   stored in);
//! * **identity simplification** — `x·0 → 0`, `x·1 → x`, `x·−1 → −x`,
//!   `x+0 → x`, `−(−x) → x`, and the canonicalization `a−b → a+(−b)`;
//!   a variable×constant [`Node::Mul`] is strength-reduced to a
//!   [`Node::MulConst`] (a DSP multiplier becomes a cheaper
//!   constant-multiplier circuit — the Figure 9 resource metric);
//! * **common-subexpression elimination** — structurally identical nodes
//!   are merged (commutative operands compare unordered);
//! * **dead-node elimination** — nodes unreachable from the declared
//!   outputs are dropped. [`Node::Input`] nodes are always kept so the
//!   lowered module's port list (and the compiled evaluator's input slots)
//!   stay interface-stable.
//!
//! All rewrites are **value-preserving in every [`Scalar`] type**, not just
//! `f64`: identities with 0/±1 are exact in IEEE floats and in two's
//! complement fixed point, and constant–constant folding only arises from
//! netlists that combine literal constants (the generators in this crate
//! never emit those patterns). The only observable difference is the sign
//! of floating-point zeros, which compares equal under `==`.
//!
//! [`Scalar`]: robo_spatial::Scalar

use crate::compiled::FusionCounts;
use crate::netlist::{Netlist, NetlistStats, Node, NodeId};
use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

/// Before/after statistics of an optimization run — the pre/post pruned
/// multiplier counts of the paper's Figure 9, measured on the IR.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OptReport {
    /// Hardware-relevant op counts before optimization.
    pub before: NetlistStats,
    /// Hardware-relevant op counts after optimization.
    pub after: NetlistStats,
    /// Total node count before optimization.
    pub nodes_before: usize,
    /// Total node count after optimization.
    pub nodes_after: usize,
    /// What the compiled tape's fusion pass folded, when the netlist was
    /// subsequently compiled (attached via [`OptReport::with_fusion`];
    /// `None` straight out of [`optimize_with_report`], which never
    /// compiles).
    pub fusion: Option<FusionCounts>,
}

impl OptReport {
    /// Attaches the compile-time fusion counts of the tape this netlist
    /// was lowered into, so one report covers both reduction stages.
    #[must_use]
    pub fn with_fusion(mut self, counts: FusionCounts) -> Self {
        self.fusion = Some(counts);
        self
    }
}

impl fmt::Display for OptReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "muls {}→{}, const muls {}→{}, adds {}→{}, negs {}→{}, nodes {}→{}",
            self.before.muls,
            self.after.muls,
            self.before.const_muls,
            self.after.const_muls,
            self.before.adds,
            self.after.adds,
            self.before.negs,
            self.after.negs,
            self.nodes_before,
            self.nodes_after,
        )?;
        if let Some(fusion) = &self.fusion {
            write!(f, ", tape {fusion}")?;
        }
        Ok(())
    }
}

/// Hash-cons key of a rewritten node. Constants are keyed by bit pattern
/// (no NaNs are generated); commutative ops store operands low-first.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum Key {
    Input(String),
    Const(u64),
    Mul(NodeId, NodeId),
    MulConst(NodeId, u64),
    Add(NodeId, NodeId),
    Neg(NodeId),
}

impl Key {
    fn of(node: &Node) -> Self {
        match node {
            Node::Input(name) => Self::Input(name.clone()),
            Node::Const(c) => Self::Const(c.to_bits()),
            Node::Mul(a, b) => Self::Mul(*a.min(b), *a.max(b)),
            Node::MulConst(a, c) => Self::MulConst(*a, c.to_bits()),
            Node::Add(a, b) => Self::Add(*a.min(b), *a.max(b)),
            // Sub is canonicalized to Add(a, Neg(b)) before interning.
            Node::Sub(..) => unreachable!("Sub is rewritten before interning"),
            Node::Neg(a) => Self::Neg(*a),
        }
    }
}

/// The multiply–rotate hash rustc uses for its interners. A hash-cons key
/// is a tag and one or two small integers, on which the default SipHash
/// spends most of a pass (a plan optimizes two netlists per joint). The
/// keys are node ids and constant bit patterns of one netlist; a
/// collision costs a probe, never a wrong rewrite, so SipHash's
/// resistance to crafted keys is not needed here.
#[derive(Debug, Default, Clone, Copy)]
struct FxHasher(u64);

impl FxHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, i: u8) {
        self.add(u64::from(i));
    }

    fn write_u64(&mut self, i: u64) {
        self.add(i);
    }

    fn write_usize(&mut self, i: usize) {
        self.add(i as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// One forward rewrite pass: simplification + CSE, building a fresh node
/// list and an old→new id map.
struct Rewriter {
    nodes: Vec<Node>,
    seen: HashMap<Key, NodeId, BuildHasherDefault<FxHasher>>,
}

impl Rewriter {
    /// A rewriter sized for a netlist of `len` nodes.
    fn new(len: usize) -> Self {
        Self {
            nodes: Vec::with_capacity(len),
            seen: HashMap::with_capacity_and_hasher(len, BuildHasherDefault::default()),
        }
    }

    /// The constant value of an already-rewritten node, if it is one.
    fn const_of(&self, id: NodeId) -> Option<f64> {
        match self.nodes[id] {
            Node::Const(c) => Some(c),
            _ => None,
        }
    }

    /// Interns `node` (which must reference already-rewritten ids),
    /// returning an existing id when an identical node was seen before.
    fn intern(&mut self, node: Node) -> NodeId {
        let key = Key::of(&node);
        if let Some(&id) = self.seen.get(&key) {
            return id;
        }
        let id = self.nodes.len();
        self.nodes.push(node);
        self.seen.insert(key, id);
        id
    }

    /// Emits a negation, folding `−(−x)` and constant operands.
    fn neg(&mut self, a: NodeId) -> NodeId {
        if let Some(c) = self.const_of(a) {
            return self.intern(Node::Const(-c));
        }
        if let Node::Neg(inner) = self.nodes[a] {
            return inner;
        }
        self.intern(Node::Neg(a))
    }

    /// Emits a variable×constant product with the 0/±1 identities applied.
    fn mul_const(&mut self, a: NodeId, c: f64) -> NodeId {
        if let Some(ca) = self.const_of(a) {
            return self.intern(Node::Const(ca * c));
        }
        if c == 0.0 {
            self.intern(Node::Const(0.0))
        } else if c == 1.0 {
            a
        } else if c == -1.0 {
            self.neg(a)
        } else {
            self.intern(Node::MulConst(a, c))
        }
    }

    /// Emits a sum with constant folding and the `x+0` identity.
    fn add(&mut self, a: NodeId, b: NodeId) -> NodeId {
        let (ca, cb) = (self.const_of(a), self.const_of(b));
        if let (Some(x), Some(y)) = (ca, cb) {
            self.intern(Node::Const(x + y))
        } else if ca == Some(0.0) {
            b
        } else if cb == Some(0.0) {
            a
        } else {
            self.intern(Node::Add(a, b))
        }
    }

    /// Rewrites one original node (operands already mapped), returning its
    /// id in the new node list.
    fn rewrite(&mut self, node: &Node) -> NodeId {
        match node {
            Node::Input(name) => self.intern(Node::Input(name.clone())),
            Node::Const(c) => self.intern(Node::Const(*c)),
            Node::Neg(a) => self.neg(*a),
            Node::MulConst(a, c) => self.mul_const(*a, *c),
            Node::Mul(a, b) => match (self.const_of(*a), self.const_of(*b)) {
                (Some(ca), Some(cb)) => self.intern(Node::Const(ca * cb)),
                // Strength reduction: a DSP multiplier with one constant
                // operand is a constant-multiplier circuit (§5.2).
                (Some(ca), None) => self.mul_const(*b, ca),
                (None, Some(cb)) => self.mul_const(*a, cb),
                (None, None) => self.intern(Node::Mul(*a, *b)),
            },
            Node::Add(a, b) => self.add(*a, *b),
            // Canonicalization: a−b → a+(−b). Bit-identical in IEEE floats
            // and in two's-complement fixed point (away from the saturation
            // boundary), and it lets the CSE/identity passes see through
            // subtraction.
            Node::Sub(a, b) => {
                let nb = self.neg(*b);
                self.add(*a, nb)
            }
        }
    }
}

/// Runs one simplify+CSE pass followed by dead-node elimination.
fn pass(netlist: &Netlist) -> Netlist {
    let mut rw = Rewriter::new(netlist.nodes().len());
    let mut map = Vec::with_capacity(netlist.nodes().len());
    for node in netlist.nodes() {
        let remapped = match node {
            Node::Input(_) | Node::Const(_) => node.clone(),
            Node::Mul(a, b) => Node::Mul(map[*a], map[*b]),
            Node::MulConst(a, c) => Node::MulConst(map[*a], *c),
            Node::Add(a, b) => Node::Add(map[*a], map[*b]),
            Node::Sub(a, b) => Node::Sub(map[*a], map[*b]),
            Node::Neg(a) => Node::Neg(map[*a]),
        };
        map.push(rw.rewrite(&remapped));
    }

    // Liveness from the outputs; inputs are pinned so the interface (ports,
    // input slots) survives even when a signal is fully pruned.
    let mut live = vec![false; rw.nodes.len()];
    let mut stack: Vec<NodeId> = netlist.outputs().iter().map(|(_, id)| map[*id]).collect();
    while let Some(id) = stack.pop() {
        if std::mem::replace(&mut live[id], true) {
            continue;
        }
        match rw.nodes[id] {
            Node::Input(_) | Node::Const(_) => {}
            Node::Mul(a, b) | Node::Add(a, b) | Node::Sub(a, b) => {
                stack.push(a);
                stack.push(b);
            }
            Node::MulConst(a, _) | Node::Neg(a) => stack.push(a),
        }
    }

    let mut out = Netlist::new(netlist.name());
    let mut compact = vec![usize::MAX; rw.nodes.len()];
    for (id, node) in rw.nodes.iter().enumerate() {
        if !live[id] && !matches!(node, Node::Input(_)) {
            continue;
        }
        let rebuilt = match node {
            Node::Input(_) | Node::Const(_) => node.clone(),
            Node::Mul(a, b) => Node::Mul(compact[*a], compact[*b]),
            Node::MulConst(a, c) => Node::MulConst(compact[*a], *c),
            Node::Add(a, b) => Node::Add(compact[*a], compact[*b]),
            Node::Sub(a, b) => Node::Sub(compact[*a], compact[*b]),
            Node::Neg(a) => Node::Neg(compact[*a]),
        };
        compact[id] = out.push(rebuilt);
    }
    for (name, id) in netlist.outputs() {
        out.output(name.clone(), compact[map[*id]])
            .expect("source netlist had unique output names");
    }
    out
}

/// Optimizes a netlist: constant folding, identity simplification, CSE and
/// dead-node elimination, iterated to a fixpoint.
///
/// Every rewrite preserves evaluated values in all scalar types (see the
/// module docs for the exact-identity argument); outputs keep their names
/// and order, and input nodes are never removed.
pub fn optimize(netlist: &Netlist) -> Netlist {
    optimize_with_report(netlist).0
}

/// Like [`optimize`], but also returning the pre/post [`NetlistStats`].
pub fn optimize_with_report(netlist: &Netlist) -> (Netlist, OptReport) {
    let before = netlist.stats();
    let nodes_before = netlist.nodes().len();
    let _span = robo_trace::span_items("netlist.optimize", nodes_before);
    let mut current = pass(netlist);
    // A single forward pass resolves almost every cascade (rules inspect
    // already-rewritten operands); iterate defensively to a fixpoint.
    for _ in 0..4 {
        let next = pass(&current);
        let stable = next == current;
        current = next;
        if stable {
            break;
        }
    }
    let report = OptReport {
        before,
        after: current.stats(),
        nodes_before,
        nodes_after: current.nodes().len(),
        fusion: None,
    };
    (current, report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    fn eval1(n: &Netlist, vals: &[(&str, f64)]) -> Vec<(String, f64)> {
        let inputs: HashMap<String, f64> =
            vals.iter().map(|(k, v)| ((*k).to_owned(), *v)).collect();
        n.eval(&inputs).unwrap()
    }

    #[test]
    fn folds_constants() {
        let mut n = Netlist::new("c");
        let a = n.push(Node::Const(2.0));
        let b = n.push(Node::Const(3.0));
        let s = n.push(Node::Add(a, b));
        let m = n.push(Node::Mul(s, s));
        n.output("o", m).unwrap();
        let opt = optimize(&n);
        assert_eq!(opt.nodes(), &[Node::Const(25.0)]);
        assert_eq!(eval1(&opt, &[]), vec![("o".to_owned(), 25.0)]);
    }

    #[test]
    fn strength_reduces_mul_by_const() {
        let mut n = Netlist::new("sr");
        let x = n.push(Node::Input("x".into()));
        let c = n.push(Node::Const(3.5));
        let m = n.push(Node::Mul(c, x));
        n.output("o", m).unwrap();
        let (opt, report) = optimize_with_report(&n);
        assert_eq!(report.before.muls, 1);
        assert_eq!(report.after.muls, 0);
        assert_eq!(report.after.const_muls, 1);
        assert_eq!(eval1(&opt, &[("x", 2.0)]), vec![("o".to_owned(), 7.0)]);
    }

    #[test]
    fn applies_identities() {
        let mut n = Netlist::new("id");
        let x = n.push(Node::Input("x".into()));
        let zero = n.push(Node::Const(0.0));
        let one = n.push(Node::Const(1.0));
        let x1 = n.push(Node::Mul(x, one)); // x·1 → x
        let x2 = n.push(Node::Add(x1, zero)); // x+0 → x
        let x3 = n.push(Node::Neg(x2));
        let x4 = n.push(Node::Neg(x3)); // −(−x) → x
        let x5 = n.push(Node::MulConst(x4, -1.0)); // x·−1 → −x
        n.output("o", x5).unwrap();
        let opt = optimize(&n);
        assert_eq!(
            opt.nodes(),
            &[Node::Input("x".into()), Node::Neg(0)],
            "{opt:?}"
        );
        assert_eq!(eval1(&opt, &[("x", 4.0)]), vec![("o".to_owned(), -4.0)]);
    }

    #[test]
    fn mul_by_zero_collapses() {
        let mut n = Netlist::new("z");
        let x = n.push(Node::Input("x".into()));
        let y = n.push(Node::Input("y".into()));
        let xz = n.push(Node::MulConst(x, 0.0));
        let s = n.push(Node::Add(xz, y)); // 0 + y → y
        n.output("o", s).unwrap();
        let opt = optimize(&n);
        assert_eq!(opt.stats(), NetlistStats::default());
        assert_eq!(
            eval1(&opt, &[("x", 9.0), ("y", 2.5)]),
            vec![("o".to_owned(), 2.5)]
        );
    }

    #[test]
    fn cse_merges_identical_subtrees() {
        let mut n = Netlist::new("cse");
        let a = n.push(Node::Input("a".into()));
        let b = n.push(Node::Input("b".into()));
        let p1 = n.push(Node::Mul(a, b));
        let p2 = n.push(Node::Mul(b, a)); // commutative duplicate
        let s = n.push(Node::Add(p1, p2));
        n.output("o", s).unwrap();
        let opt = optimize(&n);
        assert_eq!(opt.stats().muls, 1, "{opt:?}");
        assert_eq!(
            eval1(&opt, &[("a", 3.0), ("b", 4.0)]),
            vec![("o".to_owned(), 24.0)]
        );
    }

    #[test]
    fn sub_canonicalizes_and_stays_exact() {
        let mut n = Netlist::new("sub");
        let a = n.push(Node::Input("a".into()));
        let b = n.push(Node::Input("b".into()));
        let d = n.push(Node::Sub(a, b));
        n.output("o", d).unwrap();
        let opt = optimize(&n);
        assert!(opt.nodes().iter().all(|x| !matches!(x, Node::Sub(..))));
        assert_eq!(
            eval1(&opt, &[("a", 1.25), ("b", 0.75)]),
            vec![("o".to_owned(), 0.5)]
        );
    }

    #[test]
    fn dead_nodes_are_removed_but_inputs_kept() {
        let mut n = Netlist::new("dce");
        let a = n.push(Node::Input("a".into()));
        let unused = n.push(Node::Input("unused".into()));
        let dead = n.push(Node::Mul(a, unused));
        let _ = n.push(Node::Neg(dead)); // never an output
        let keep = n.push(Node::Neg(a));
        n.output("o", keep).unwrap();
        let opt = optimize(&n);
        // The dead multiplier tree is gone; both inputs survive so the
        // module interface is stable.
        assert_eq!(opt.stats().muls, 0);
        let names: Vec<&str> = opt
            .nodes()
            .iter()
            .filter_map(|x| match x {
                Node::Input(name) => Some(name.as_str()),
                _ => None,
            })
            .collect();
        assert_eq!(names, vec!["a", "unused"]);
        let inputs: HashMap<String, f64> = [("a".to_owned(), 2.0), ("unused".to_owned(), 7.0)]
            .into_iter()
            .collect();
        assert!(matches!(
            opt.eval::<f64>(&HashMap::new()),
            Err(crate::NetlistError::MissingInput(_))
        ));
        assert_eq!(opt.eval(&inputs).unwrap(), vec![("o".to_owned(), -2.0)]);
    }

    #[test]
    fn report_display_is_readable() {
        let mut n = Netlist::new("r");
        let x = n.push(Node::Input("x".into()));
        let one = n.push(Node::Const(1.0));
        let m = n.push(Node::Mul(x, one));
        n.output("o", m).unwrap();
        let (_, report) = optimize_with_report(&n);
        let text = report.to_string();
        assert!(text.contains("muls 1→0"), "{text}");
    }

    #[test]
    fn optimization_is_idempotent() {
        let mut n = Netlist::new("fix");
        let a = n.push(Node::Input("a".into()));
        let b = n.push(Node::Input("b".into()));
        let d = n.push(Node::Sub(a, b));
        let m = n.push(Node::Mul(d, d));
        n.output("o", m).unwrap();
        let once = optimize(&n);
        let twice = optimize(&once);
        assert_eq!(once, twice);
    }
}
