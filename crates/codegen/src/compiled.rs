//! A compiled, allocation-free netlist evaluator.
//!
//! [`Netlist::eval`] is the reference oracle: it re-allocates a value
//! vector per call, looks inputs up in a string-keyed map, and converts
//! every constant from `f64` on every evaluation. [`CompiledNetlist`] is
//! the serving-path form of the same circuit, compiled once per scalar
//! type:
//!
//! * **inputs interned to dense slots** — callers pass a `&[S]` in
//!   [`CompiledNetlist::input_names`] order, no hashing;
//! * **constants hoisted** — every literal is converted to `S` exactly
//!   once, at compile time, into a deduplicated table;
//! * **a flat tape** — nodes become fixed-width instructions executed in
//!   one linear sweep (the software analogue of Dadu-RBD-style compiled
//!   dataflow pipelines);
//! * **one emitted function per tape** — on x86-64 Linux the template JIT
//!   (`crate::jit`) lowers the tape of every float lane type with an
//!   inline encoding into straight-line native code at compile time; every
//!   other tape runs the `match` interpreter, which stays the bit-exact
//!   oracle;
//! * **liveness-based register reuse** — values are assigned to a small
//!   recycled slot file instead of one slot per node, so the working set
//!   stays cache-resident;
//! * **zero steady-state heap allocations** — [`CompiledNetlist::eval_into`]
//!   through a warm [`EvalWorkspace`] never touches the allocator (proved
//!   by the counting-allocator suite in `tests/alloc_free.rs`);
//! * **batching** — [`CompiledNetlist::eval_batch`] streams many states
//!   through one tape on the shared
//!   [`BatchEngine`](robo_dynamics::batch::BatchEngine), one workspace per
//!   worker.
//!
//! Evaluation order is exactly the netlist's topological node order, so
//! compiled results are bit-identical to the interpreter's in every scalar
//! type.

use crate::jit::JitTape;
use crate::netlist::{Netlist, Node};
use robo_dynamics::batch::BatchEngine;
use robo_spatial::{ExecTier, Lanes, Scalar, WideScalar, WideVisit};

/// One tape instruction. Operands and destinations are register-file
/// slots; `Const`/`MulConst`/`MulConstAdd` reference the hoisted constant
/// table.
///
/// The `*Add` forms are produced by the post-compile fusion pass: a
/// producer whose only consumer is one `Add` is folded into that `Add`,
/// halving dispatch and register traffic for the dominant
/// multiply-accumulate chains. Each fused instruction still executes its
/// two arithmetic steps separately (product, then sum), so results stay
/// bit-identical in every scalar type — this is instruction fusion, not
/// FMA contraction.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Instr {
    Const {
        idx: u32,
        dst: u32,
    },
    Mul {
        a: u32,
        b: u32,
        dst: u32,
    },
    MulConst {
        a: u32,
        idx: u32,
        dst: u32,
    },
    Add {
        a: u32,
        b: u32,
        dst: u32,
    },
    Sub {
        a: u32,
        b: u32,
        dst: u32,
    },
    Neg {
        a: u32,
        dst: u32,
    },
    /// `dst = (a · b) + c`, two rounding steps.
    MulAdd {
        a: u32,
        b: u32,
        c: u32,
        dst: u32,
    },
    /// `dst = (a · consts[idx]) + c`, two rounding steps.
    MulConstAdd {
        a: u32,
        idx: u32,
        c: u32,
        dst: u32,
    },
    /// `dst = (a + b) + c`, two rounding steps.
    AddAdd {
        a: u32,
        b: u32,
        c: u32,
        dst: u32,
    },
    /// `dst = (−a) + c` (from the optimizer's `a−b → a+(−b)` form).
    NegAdd {
        a: u32,
        c: u32,
        dst: u32,
    },
}

impl Instr {
    /// The register this instruction writes.
    pub(crate) fn dst(self) -> u32 {
        match self {
            Instr::Const { dst, .. }
            | Instr::Mul { dst, .. }
            | Instr::MulConst { dst, .. }
            | Instr::Add { dst, .. }
            | Instr::Sub { dst, .. }
            | Instr::Neg { dst, .. }
            | Instr::MulAdd { dst, .. }
            | Instr::MulConstAdd { dst, .. }
            | Instr::AddAdd { dst, .. }
            | Instr::NegAdd { dst, .. } => dst,
        }
    }

    /// Calls `f` with every register this instruction reads.
    pub(crate) fn for_each_read(self, mut f: impl FnMut(u32)) {
        match self {
            Instr::Const { .. } => {}
            Instr::MulConst { a, .. } | Instr::Neg { a, .. } => f(a),
            Instr::Mul { a, b, .. } | Instr::Add { a, b, .. } | Instr::Sub { a, b, .. } => {
                f(a);
                f(b);
            }
            Instr::MulConstAdd { a, c, .. } | Instr::NegAdd { a, c, .. } => {
                f(a);
                f(c);
            }
            Instr::MulAdd { a, b, c, .. } | Instr::AddAdd { a, b, c, .. } => {
                f(a);
                f(b);
                f(c);
            }
        }
    }
}

/// How many producers the tape-fusion pass folded into their consuming
/// `Add`, by fused opcode. Each fusion removes one tape instruction.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FusionCounts {
    /// `Mul` + `Add` → `Instr::MulAdd`.
    pub mul_add: usize,
    /// `MulConst` + `Add` → `Instr::MulConstAdd`.
    pub mul_const_add: usize,
    /// `Add` + `Add` → `Instr::AddAdd`.
    pub add_add: usize,
    /// `Neg` + `Add` → `Instr::NegAdd`.
    pub neg_add: usize,
}

impl FusionCounts {
    /// Total fused pairs — the number of instructions the pass removed
    /// from the tape.
    pub fn total(&self) -> usize {
        self.mul_add + self.mul_const_add + self.add_add + self.neg_add
    }
}

impl core::fmt::Display for FusionCounts {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(
            f,
            "{} fused (mul+add {}, cmul+add {}, add+add {}, neg+add {})",
            self.total(),
            self.mul_add,
            self.mul_const_add,
            self.add_add,
            self.neg_add,
        )
    }
}

/// Peephole fusion over a freshly emitted tape: folds a producer
/// (`Mul`/`MulConst`/`Add`/`Neg`) into the single `Add` that consumes its
/// value, in place.
///
/// Legality for fusing producer `i` (writing register `r`) into the `Add`
/// at `j`:
///
/// * `r` is not an output register (the fused form no longer writes it);
/// * the `Add` at `j` is the only instruction reading `r` after `i`
///   (scanning stops at the next write of `r`, after which the old value
///   is dead anyway);
/// * none of the producer's source registers is overwritten between `i`
///   and `j`, so deferring the producer's arithmetic to `j` reads the
///   same values.
///
/// The fused form computes the producer's value `t` first and then `t +
/// other`, so the only bit-level liberty taken is commuting the final
/// addition when the producer fed the `Add`'s right operand — exact in
/// IEEE floats (non-NaN) and in saturating two's-complement fixed point.
fn fuse_tape(tape: &mut Vec<Instr>, outputs: &[(String, u32)]) -> FusionCounts {
    let mut counts = FusionCounts::default();
    let mut removed = vec![false; tape.len()];
    'adds: for j in 0..tape.len() {
        let Instr::Add { a, b, dst } = tape[j] else {
            continue;
        };
        if a == b {
            continue;
        }
        for (r, z) in [(a, b), (b, a)] {
            if outputs.iter().any(|(_, reg)| *reg == r) {
                continue;
            }
            // Latest live writer of `r` before the Add.
            let Some(i) = (0..j).rev().find(|&k| !removed[k] && tape[k].dst() == r) else {
                continue;
            };
            let (srcs, n_srcs) = match tape[i] {
                Instr::Mul { a, b, .. } | Instr::Add { a, b, .. } => ([a, b], 2),
                Instr::MulConst { a, .. } | Instr::Neg { a, .. } => ([a, 0], 1),
                _ => continue,
            };
            let mut legal = true;
            for k in i + 1..tape.len() {
                if removed[k] {
                    continue;
                }
                if k == j {
                    if dst == r {
                        // The Add recycled `r` as its destination; later
                        // reads see the fused result as before.
                        break;
                    }
                    continue;
                }
                let mut reads_r = false;
                tape[k].for_each_read(|reg| reads_r |= reg == r);
                if reads_r {
                    legal = false;
                    break;
                }
                if k < j && srcs[..n_srcs].contains(&tape[k].dst()) {
                    legal = false;
                    break;
                }
                if tape[k].dst() == r {
                    break;
                }
            }
            if !legal {
                continue;
            }
            tape[j] = match tape[i] {
                Instr::Mul { a, b, .. } => {
                    counts.mul_add += 1;
                    Instr::MulAdd { a, b, c: z, dst }
                }
                Instr::MulConst { a, idx, .. } => {
                    counts.mul_const_add += 1;
                    Instr::MulConstAdd { a, idx, c: z, dst }
                }
                Instr::Add { a, b, .. } => {
                    counts.add_add += 1;
                    Instr::AddAdd { a, b, c: z, dst }
                }
                Instr::Neg { a, .. } => {
                    counts.neg_add += 1;
                    Instr::NegAdd { a, c: z, dst }
                }
                _ => unreachable!("producer match guards fusible opcodes"),
            };
            removed[i] = true;
            continue 'adds;
        }
    }
    let mut keep = removed.iter().map(|r| !*r);
    tape.retain(|_| keep.next().unwrap());
    counts
}

/// Reusable register file for [`CompiledNetlist::eval_into`]. The first
/// call through a fresh workspace sizes the buffer; every later call is
/// allocation-free.
#[derive(Debug, Clone, Default)]
pub struct EvalWorkspace<S> {
    regs: Vec<S>,
}

impl<S: Scalar> EvalWorkspace<S> {
    /// An empty workspace; the register file grows on first use.
    pub fn new() -> Self {
        Self { regs: Vec::new() }
    }

    /// A workspace pre-sized for `compiled`, so even the first evaluation
    /// through it allocates nothing.
    pub fn for_netlist(compiled: &CompiledNetlist<S>) -> Self {
        Self {
            regs: vec![S::zero(); compiled.num_regs()],
        }
    }
}

/// A netlist compiled to a flat, register-allocated tape for one scalar
/// type.
///
/// # Examples
///
/// ```
/// use robo_codegen::{generate_x_unit, optimize, CompiledNetlist, EvalWorkspace};
/// use robo_model::robots;
///
/// let robot = robots::iiwa14();
/// let netlist = optimize(&generate_x_unit(&robot, 1));
/// let compiled = CompiledNetlist::<f64>::compile(&netlist);
/// assert_eq!(compiled.input_names()[0], "sin_q");
///
/// let mut ws = EvalWorkspace::for_netlist(&compiled);
/// let inputs = [0.5_f64, 0.8, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0];
/// let mut outputs = [0.0_f64; 6];
/// compiled.eval_into(&inputs, &mut ws, &mut outputs);
/// ```
#[derive(Debug, Clone)]
pub struct CompiledNetlist<S> {
    name: String,
    input_names: Vec<String>,
    consts: Vec<S>,
    tape: Vec<Instr>,
    /// The tape emitted as one native function by the template JIT —
    /// `None` when `S` has no inline lowering on this host, and the
    /// interpreter then serves every evaluation.
    jit: Option<JitTape<S>>,
    num_regs: usize,
    outputs: Vec<(String, u32)>,
    fusion: FusionCounts,
}

/// Register allocator state during compilation.
struct RegAlloc {
    free: Vec<u32>,
    next: u32,
}

impl RegAlloc {
    fn get(&mut self) -> u32 {
        self.free.pop().unwrap_or_else(|| {
            let r = self.next;
            self.next += 1;
            r
        })
    }

    fn release(&mut self, reg: u32) {
        self.free.push(reg);
    }
}

impl<S: Scalar> CompiledNetlist<S> {
    /// Compiles a netlist for scalar type `S`.
    ///
    /// Run [`crate::optimize`] first when the netlist may contain dead or
    /// redundant nodes — compilation itself preserves the given program
    /// (it only skips nodes nothing consumes).
    ///
    /// # Panics
    ///
    /// Panics if the netlist has more than `u32::MAX` nodes.
    pub fn compile(netlist: &Netlist) -> Self {
        let nodes = netlist.nodes();
        assert!(nodes.len() < u32::MAX as usize, "netlist too large");
        let _span = robo_trace::span_items("tape.compile", nodes.len());

        // Input slot interning: first-appearance order, repeated names
        // share a slot.
        let mut input_names: Vec<String> = Vec::new();
        let mut input_slot = vec![0u32; nodes.len()];
        for (id, node) in nodes.iter().enumerate() {
            if let Node::Input(name) = node {
                let slot = match input_names.iter().position(|n| n == name) {
                    Some(s) => s as u32,
                    None => {
                        input_names.push(name.clone());
                        (input_names.len() - 1) as u32
                    }
                };
                input_slot[id] = slot;
            }
        }
        let n_inputs = input_names.len();

        // Liveness: the tape index of each node's final consumer. Outputs
        // stay live to the end of the program.
        const LIVE_TO_END: usize = usize::MAX;
        let mut last_use = vec![0usize; nodes.len()];
        for (id, node) in nodes.iter().enumerate() {
            match node {
                Node::Input(_) | Node::Const(_) => {}
                Node::Mul(a, b) | Node::Add(a, b) | Node::Sub(a, b) => {
                    last_use[*a] = id;
                    last_use[*b] = id;
                }
                Node::MulConst(a, _) | Node::Neg(a) => last_use[*a] = id,
            }
        }
        for (_, id) in netlist.outputs() {
            last_use[*id] = LIVE_TO_END;
        }

        // Constant table, deduplicated by bit pattern, converted to `S`
        // once here rather than per evaluation.
        let mut const_bits: Vec<u64> = Vec::new();
        let mut consts: Vec<S> = Vec::new();
        let mut intern_const = |c: f64| -> u32 {
            let bits = c.to_bits();
            match const_bits.iter().position(|b| *b == bits) {
                Some(i) => i as u32,
                None => {
                    const_bits.push(bits);
                    consts.push(S::from_f64(c));
                    (const_bits.len() - 1) as u32
                }
            }
        };

        // Tape emission with register recycling: input values occupy the
        // first `n_inputs` registers (reloaded on every evaluation), and a
        // slot returns to the free list at its holder's last use.
        let lower_span = robo_trace::span_items("tape.lower", nodes.len());
        let mut alloc = RegAlloc {
            free: Vec::new(),
            next: n_inputs as u32,
        };
        let mut reg_of = vec![u32::MAX; nodes.len()];
        let mut tape = Vec::new();
        for (id, node) in nodes.iter().enumerate() {
            if let Node::Input(_) = node {
                reg_of[id] = input_slot[id];
                continue;
            }
            // A node no one consumes (and that is not an output) computes
            // a value that can never be observed.
            if last_use[id] == 0 {
                continue;
            }
            let mut operands = [0usize; 2];
            let n_ops: usize;
            match node {
                Node::Mul(a, b) | Node::Add(a, b) | Node::Sub(a, b) => {
                    operands = [*a, *b];
                    n_ops = 2;
                }
                Node::MulConst(a, _) | Node::Neg(a) => {
                    operands[0] = *a;
                    n_ops = 1;
                }
                Node::Const(_) => n_ops = 0,
                Node::Input(_) => unreachable!(),
            }
            // Release operands dying here before claiming the destination,
            // so `dst` can recycle an operand's register (reads happen
            // before the write at run time). Inputs below `n_inputs` are
            // recyclable too: they are reloaded at the start of each run.
            for k in 0..n_ops {
                let op = operands[k];
                if last_use[op] == id && !(k == 1 && operands[0] == operands[1]) {
                    alloc.release(reg_of[op]);
                }
            }
            let dst = alloc.get();
            reg_of[id] = dst;
            let instr = match node {
                Node::Const(c) => Instr::Const {
                    idx: intern_const(*c),
                    dst,
                },
                Node::Mul(a, b) => Instr::Mul {
                    a: reg_of[*a],
                    b: reg_of[*b],
                    dst,
                },
                Node::MulConst(a, c) => Instr::MulConst {
                    a: reg_of[*a],
                    idx: intern_const(*c),
                    dst,
                },
                Node::Add(a, b) => Instr::Add {
                    a: reg_of[*a],
                    b: reg_of[*b],
                    dst,
                },
                Node::Sub(a, b) => Instr::Sub {
                    a: reg_of[*a],
                    b: reg_of[*b],
                    dst,
                },
                Node::Neg(a) => Instr::Neg { a: reg_of[*a], dst },
                Node::Input(_) => unreachable!(),
            };
            tape.push(instr);
        }

        let outputs: Vec<(String, u32)> = netlist
            .outputs()
            .iter()
            .map(|(name, id)| (name.clone(), reg_of[*id]))
            .collect();

        drop(lower_span);
        let fusion = {
            let _span = robo_trace::span_items("tape.fuse", tape.len());
            fuse_tape(&mut tape, &outputs)
        };
        let num_regs = alloc.next as usize;
        let jit = JitTape::emit(&tape, num_regs, consts.len());

        Self {
            name: netlist.name().to_owned(),
            input_names,
            consts,
            tape,
            jit,
            num_regs,
            outputs,
            fusion,
        }
    }

    /// A no-op kept for source compatibility: [`CompiledNetlist::compile`]
    /// and [`CompiledNetlist::widen_to`] already emit the JIT form
    /// wherever it exists. Returns whether the tape runs emitted code.
    pub fn enable_jit(&mut self) -> bool {
        self.jit.is_some()
    }

    /// Emitted-code statistics when the tape runs JIT-emitted code;
    /// `None` when it runs the interpreter (no inline lowering for `S`
    /// on this host, or the code mapping failed).
    pub fn jit_report(&self) -> Option<crate::jit::JitReport> {
        self.jit.as_ref().map(|j| j.report())
    }

    /// The module name of the source netlist.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Input names in slot order — the order the `inputs` slice of
    /// [`CompiledNetlist::eval_into`] must follow.
    pub fn input_names(&self) -> &[String] {
        &self.input_names
    }

    /// Output names in declaration order — the order results are written
    /// into the `outputs` slice.
    pub fn output_names(&self) -> impl Iterator<Item = &str> {
        self.outputs.iter().map(|(n, _)| n.as_str())
    }

    /// Number of declared outputs.
    pub fn num_outputs(&self) -> usize {
        self.outputs.len()
    }

    /// Size of the recycled register file (inputs included). With liveness
    /// reuse this is far below the node count.
    pub fn num_regs(&self) -> usize {
        self.num_regs
    }

    /// Number of tape instructions (live non-input nodes, after fusion).
    pub fn tape_len(&self) -> usize {
        self.tape.len()
    }

    /// What the post-compile fusion pass folded. The pre-fusion tape length
    /// is `tape_len() + fusion_counts().total()`.
    pub fn fusion_counts(&self) -> FusionCounts {
        self.fusion
    }

    /// Re-targets this tape at the portable wide scalar `Lanes<S, W>`,
    /// evaluating `W` independent states per instruction. Shorthand for
    /// [`CompiledNetlist::widen_to`] at the portable lane type.
    pub fn widen<const W: usize>(&self) -> CompiledNetlist<Lanes<S, W>> {
        self.widen_to::<Lanes<S, W>>()
    }

    /// Re-targets this tape at any wide scalar over the same element type
    /// — portable [`Lanes`] or a native SIMD lane bundle.
    ///
    /// The instruction stream, register assignment, and fusion are reused
    /// verbatim and emitted again at `V`'s inline lowering where it has
    /// one; constants are splat per lane, so every lane of a wide
    /// evaluation is bit-identical to a scalar run of the same tape.
    pub fn widen_to<V: WideScalar<Elem = S>>(&self) -> CompiledNetlist<V> {
        CompiledNetlist {
            name: self.name.clone(),
            input_names: self.input_names.clone(),
            consts: self.consts.iter().map(|&c| V::splat(c)).collect(),
            tape: self.tape.clone(),
            jit: JitTape::emit(&self.tape, self.num_regs, self.consts.len()),
            num_regs: self.num_regs,
            outputs: self.outputs.clone(),
            fusion: self.fusion,
        }
    }

    /// Evaluates the tape into `outputs`, reusing the workspace's register
    /// file. Zero heap allocations once the workspace is warm.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` or `outputs` lengths do not match
    /// [`CompiledNetlist::input_names`] / [`CompiledNetlist::num_outputs`].
    pub fn eval_into(&self, inputs: &[S], ws: &mut EvalWorkspace<S>, outputs: &mut [S]) {
        if ws.regs.len() < self.num_regs {
            ws.regs.resize(self.num_regs, S::zero());
        }
        self.eval_into_regs(inputs, &mut ws.regs, outputs);
    }

    /// Like [`CompiledNetlist::eval_into`], but with a caller-provided
    /// register slice (at least [`CompiledNetlist::num_regs`] long) — the
    /// form the simulator uses with stack-allocated register files.
    ///
    /// Executes the JIT-emitted function when the tape has one, the
    /// interpreter otherwise — bit-identical to
    /// [`CompiledNetlist::eval_into_regs_interp`] for every scalar type
    /// either way.
    ///
    /// # Panics
    ///
    /// Panics if a slice length is insufficient.
    pub fn eval_into_regs(&self, inputs: &[S], regs: &mut [S], outputs: &mut [S]) {
        self.eval_regs_with(inputs, regs, outputs, |regs| self.run_tape(regs));
    }

    /// The one executor choice: the emitted function when the tape has
    /// one, the interpreter otherwise. Both are bit-identical.
    fn run_tape(&self, regs: &mut [S]) {
        match &self.jit {
            Some(jit) => jit.run(regs, &self.consts),
            None => self.interpret(regs),
        }
    }

    /// The `match`-dispatch interpreter over the same tape — the oracle
    /// the JIT-emitted [`CompiledNetlist::eval_into_regs`] is proven
    /// bit-identical to (`tests/tier_parity.rs`), and the executor of
    /// every tape without an emitted function.
    ///
    /// # Panics
    ///
    /// Panics if a slice length is insufficient.
    pub fn eval_into_regs_interp(&self, inputs: &[S], regs: &mut [S], outputs: &mut [S]) {
        self.eval_regs_with(inputs, regs, outputs, |regs| self.interpret(regs));
    }

    /// Loads `inputs`, runs `run` over the register file, and reads the
    /// outputs back.
    fn eval_regs_with(
        &self,
        inputs: &[S],
        regs: &mut [S],
        outputs: &mut [S],
        run: impl FnOnce(&mut [S]),
    ) {
        let n_in = self.input_names.len();
        assert_eq!(inputs.len(), n_in, "input slot count mismatch");
        assert_eq!(outputs.len(), self.outputs.len(), "output count mismatch");
        assert!(regs.len() >= self.num_regs, "register file too small");
        regs[..n_in].copy_from_slice(inputs);
        run(regs);
        for (slot, (_, reg)) in outputs.iter_mut().zip(&self.outputs) {
            *slot = regs[*reg as usize];
        }
    }

    /// The interpreter loop over a prepared register file.
    fn interpret(&self, regs: &mut [S]) {
        for instr in &self.tape {
            match *instr {
                Instr::Const { idx, dst } => regs[dst as usize] = self.consts[idx as usize],
                Instr::Mul { a, b, dst } => {
                    regs[dst as usize] = regs[a as usize] * regs[b as usize];
                }
                Instr::MulConst { a, idx, dst } => {
                    regs[dst as usize] = regs[a as usize] * self.consts[idx as usize];
                }
                Instr::Add { a, b, dst } => {
                    regs[dst as usize] = regs[a as usize] + regs[b as usize];
                }
                Instr::Sub { a, b, dst } => {
                    regs[dst as usize] = regs[a as usize] - regs[b as usize];
                }
                Instr::Neg { a, dst } => regs[dst as usize] = -regs[a as usize],
                Instr::MulAdd { a, b, c, dst } => {
                    let t = regs[a as usize] * regs[b as usize];
                    regs[dst as usize] = t + regs[c as usize];
                }
                Instr::MulConstAdd { a, idx, c, dst } => {
                    let t = regs[a as usize] * self.consts[idx as usize];
                    regs[dst as usize] = t + regs[c as usize];
                }
                Instr::AddAdd { a, b, c, dst } => {
                    let t = regs[a as usize] + regs[b as usize];
                    regs[dst as usize] = t + regs[c as usize];
                }
                Instr::NegAdd { a, c, dst } => {
                    let t = -regs[a as usize];
                    regs[dst as usize] = t + regs[c as usize];
                }
            }
        }
    }

    /// Convenience single-shot evaluation returning a fresh output vector.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` length does not match the input slot count.
    pub fn eval(&self, inputs: &[S]) -> Vec<S> {
        let mut ws = EvalWorkspace::for_netlist(self);
        let mut out = vec![S::zero(); self.outputs.len()];
        self.eval_into(inputs, &mut ws, &mut out);
        out
    }

    /// Evaluates a batch of states into a caller-provided flat buffer with
    /// zero per-state allocation: full groups of `V::WIDTH` states run
    /// through the widened tape one instruction for all lanes at a time,
    /// and the ragged tail falls back to the scalar tape.
    ///
    /// `V` is the wide lane type the workspace was built at — the portable
    /// [`Lanes`] or a native SIMD bundle; pick it per host with
    /// [`CompiledNetlist::tiered_workspace`] or
    /// [`Scalar::dispatch_wide`](robo_spatial::Scalar::dispatch_wide).
    ///
    /// Results land row-major: state `i`'s outputs occupy
    /// `out[i * num_outputs() .. (i + 1) * num_outputs()]`, bit-identical
    /// to `states.len()` independent [`CompiledNetlist::eval_into`] calls
    /// whichever `V` is used.
    ///
    /// # Panics
    ///
    /// Panics if `ws` was built for a different netlist, `out` is not
    /// exactly `states.len() * num_outputs()` long, or any state's length
    /// does not match the input slot count.
    pub fn eval_batch_into<I: AsRef<[S]>, V: WideScalar<Elem = S>>(
        &self,
        states: &[I],
        ws: &mut BatchEvalWorkspace<V>,
        out: &mut [S],
    ) {
        let _span = robo_trace::span_items("tape.eval", states.len());
        let w = V::WIDTH;
        let n_in = self.input_names.len();
        let n_out = self.outputs.len();
        assert_eq!(
            ws.wide.tape.len(),
            self.tape.len(),
            "workspace built for a different netlist"
        );
        assert_eq!(
            out.len(),
            states.len() * n_out,
            "flat output buffer length mismatch"
        );
        if ws.wide_regs.regs.len() < self.num_regs {
            ws.wide_regs.regs.resize(self.num_regs, V::zero());
        }
        let full = states.len() / w;

        // When `V` is the four-`f64` bundle on an AVX2 host, the lane
        // transposition around each sweep runs as 4×4 `ymm` transposes —
        // a scalar gather/scatter costs `4 · (n_in + n_out)` strided
        // moves per group and rivals the tape itself on small units.
        #[cfg(target_arch = "x86_64")]
        let f64x4_fast = core::any::TypeId::of::<V>()
            == core::any::TypeId::of::<robo_spatial::simd::F64x4>()
            && std::arch::is_x86_feature_detected!("avx2");

        for chunk in 0..full {
            let base = chunk * w;
            #[cfg(target_arch = "x86_64")]
            if f64x4_fast {
                let mut rows = [core::ptr::null::<f64>(); 4];
                for (l, state) in states[base..base + w].iter().enumerate() {
                    let state = state.as_ref();
                    assert_eq!(state.len(), n_in, "input slot count mismatch");
                    rows[l] = state.as_ptr().cast::<f64>();
                }
                // SAFETY: `f64x4_fast` proves AVX2 was detected and `V`
                // *is* `F64x4`, so the register file really holds
                // 32-byte-aligned `F64x4` and `S` is `f64` (pointer casts
                // are between identical types). Each row was length-
                // checked against `n_in` just above, the register file
                // holds `num_regs >= n_in` entries, every output slot is
                // a register of the compiled tape (below `num_regs`), and
                // each output row is the `n_out`-long subslice of `out`
                // for one state.
                unsafe {
                    let regs = ws
                        .wide_regs
                        .regs
                        .as_mut_ptr()
                        .cast::<robo_spatial::simd::F64x4>();
                    avx2::gather4_f64(rows, n_in, regs);
                    ws.wide.run_tape(&mut ws.wide_regs.regs);
                    let out_rows = core::array::from_fn(|l| {
                        out[(base + l) * n_out..(base + l + 1) * n_out]
                            .as_mut_ptr()
                            .cast::<f64>()
                    });
                    avx2::scatter4_f64(regs.cast_const(), &ws.out_slots, out_rows);
                }
                continue;
            }
            for (l, state) in states[base..base + w].iter().enumerate() {
                let state = state.as_ref();
                assert_eq!(state.len(), n_in, "input slot count mismatch");
                for (k, lane) in ws.wide_regs.regs[..n_in].iter_mut().enumerate() {
                    lane.set_lane(l, state[k]);
                }
            }
            ws.wide.run_tape(&mut ws.wide_regs.regs);
            for l in 0..w {
                let row = &mut out[(base + l) * n_out..(base + l + 1) * n_out];
                for (slot, reg) in row.iter_mut().zip(&ws.out_slots) {
                    *slot = ws.wide_regs.regs[*reg as usize].lane(l);
                }
            }
        }
        for (i, state) in states.iter().enumerate().skip(full * w) {
            self.eval_into(
                state.as_ref(),
                &mut ws.scalar_regs,
                &mut out[i * n_out..(i + 1) * n_out],
            );
        }
    }

    /// A type-erased batch workspace for the lane type `tier` serves on
    /// this host — the runtime entry to the tiered serving path when the
    /// caller cannot be generic over the lane type.
    pub fn tiered_workspace(&self, tier: ExecTier) -> TieredBatchEval<S> {
        struct MkWs<'a, S: Scalar>(&'a CompiledNetlist<S>);
        impl<S: Scalar> WideVisit<S> for MkWs<'_, S> {
            type Out = TieredBatchEval<S>;
            fn visit<V: WideScalar<Elem = S>>(self) -> TieredBatchEval<S> {
                TieredBatchEval {
                    inner: Box::new(ErasedWs {
                        ws: BatchEvalWorkspace::<V>::for_netlist(self.0),
                    }),
                }
            }
        }
        S::dispatch_wide(tier, MkWs(self))
    }

    /// Streams a batch of input states through the tape on `engine` at
    /// the host's detected [`ExecTier`], returning one output vector per
    /// state in order. See [`CompiledNetlist::eval_batch_tiered`].
    ///
    /// # Panics
    ///
    /// Panics if any state's length does not match the input slot count.
    pub fn eval_batch<I: AsRef<[S]> + Sync>(
        &self,
        engine: &BatchEngine,
        states: &[I],
    ) -> Vec<Vec<S>> {
        self.eval_batch_tiered(engine, states, ExecTier::detect())
    }

    /// Streams a batch of input states through the tape on `engine` with
    /// the lane type `tier` serves, returning one output vector per state
    /// in order.
    ///
    /// Convenience wrapper over [`CompiledNetlist::eval_batch_into`]:
    /// workers claim lane-group chunks of states (threads × lanes
    /// parallelism), each through a reusable [`BatchEvalWorkspace`], and
    /// the flat per-chunk results are carved into the legacy
    /// vector-per-state shape. Callers on the serving path should use
    /// [`CompiledNetlist::eval_batch_into`] directly and keep buffers warm.
    ///
    /// # Panics
    ///
    /// Panics if any state's length does not match the input slot count.
    pub fn eval_batch_tiered<I: AsRef<[S]> + Sync>(
        &self,
        engine: &BatchEngine,
        states: &[I],
        tier: ExecTier,
    ) -> Vec<Vec<S>> {
        struct Batch<'a, S: Scalar, I> {
            nl: &'a CompiledNetlist<S>,
            engine: &'a BatchEngine,
            states: &'a [I],
        }
        impl<S: Scalar, I: AsRef<[S]> + Sync> WideVisit<S> for Batch<'_, S, I> {
            type Out = Vec<Vec<S>>;
            fn visit<V: WideScalar<Elem = S>>(self) -> Vec<Vec<S>> {
                self.nl.eval_batch_wide::<I, V>(self.engine, self.states)
            }
        }
        S::dispatch_wide(
            tier,
            Batch {
                nl: self,
                engine,
                states,
            },
        )
    }

    /// [`CompiledNetlist::eval_batch_tiered`] at a concrete lane type.
    fn eval_batch_wide<I: AsRef<[S]> + Sync, V: WideScalar<Elem = S>>(
        &self,
        engine: &BatchEngine,
        states: &[I],
    ) -> Vec<Vec<S>> {
        // Several lane groups per claimed chunk amortizes the claim; small
        // enough to keep all workers fed on modest batches.
        const GROUPS_PER_CHUNK: usize = 4;
        let chunk_len = GROUPS_PER_CHUNK * V::WIDTH;
        let n_out = self.outputs.len();
        let chunks = engine.run_with_state(
            states.len().div_ceil(chunk_len),
            || BatchEvalWorkspace::<V>::for_netlist(self),
            |ws, ci| {
                let lo = ci * chunk_len;
                let hi = usize::min(lo + chunk_len, states.len());
                let mut flat = vec![S::zero(); (hi - lo) * n_out];
                self.eval_batch_into(&states[lo..hi], ws, &mut flat);
                flat
            },
        );
        let mut per_state = Vec::with_capacity(states.len());
        for flat in &chunks {
            per_state.extend(flat.chunks_exact(n_out).map(<[S]>::to_vec));
        }
        per_state
    }
}

/// The AVX2 lane transposes around [`CompiledNetlist::eval_batch_into`]'s
/// four-`f64` sweeps: states are row-major, the wide register file holds
/// one lane per state.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use core::arch::x86_64::*;
    use robo_spatial::simd::F64x4;

    /// Transposes four `ymm` registers: lane `l` of output `i` is lane
    /// `i` of input `l`.
    #[inline]
    #[target_feature(enable = "avx2")]
    fn transpose4(
        a: __m256d,
        b: __m256d,
        c: __m256d,
        d: __m256d,
    ) -> (__m256d, __m256d, __m256d, __m256d) {
        let t0 = _mm256_unpacklo_pd(a, b); // a0 b0 a2 b2
        let t1 = _mm256_unpackhi_pd(a, b); // a1 b1 a3 b3
        let t2 = _mm256_unpacklo_pd(c, d); // c0 d0 c2 d2
        let t3 = _mm256_unpackhi_pd(c, d); // c1 d1 c3 d3
        (
            _mm256_permute2f128_pd::<0x20>(t0, t2), // a0 b0 c0 d0
            _mm256_permute2f128_pd::<0x20>(t1, t3), // a1 b1 c1 d1
            _mm256_permute2f128_pd::<0x31>(t0, t2), // a2 b2 c2 d2
            _mm256_permute2f128_pd::<0x31>(t1, t3), // a3 b3 c3 d3
        )
    }

    /// Lane-transposes one four-state group straight into the first
    /// `n_in` wide registers: `regs[k].lane(l) = rows[l][k]`, via 4×4
    /// `ymm` transposes of four-input chunks (a scalar gather costs four
    /// strided moves per input and dominated the batch path's overhead).
    ///
    /// # Safety
    ///
    /// AVX2 must be available; each `rows[l]` must point to at least
    /// `n_in` readable `f64`s and `regs` to at least `n_in` writable
    /// `F64x4` (32-byte-aligned by their `repr`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gather4_f64(rows: [*const f64; 4], n_in: usize, regs: *mut F64x4) {
        let mut k = 0;
        while k + 4 <= n_in {
            // SAFETY: `k + 4 <= n_in` keeps every row read and the four
            // register stores inside the caller-guaranteed bounds;
            // register stores are 32-byte aligned, row loads use the
            // unaligned form.
            unsafe {
                let (r0, r1, r2, r3) = transpose4(
                    _mm256_loadu_pd(rows[0].add(k)),
                    _mm256_loadu_pd(rows[1].add(k)),
                    _mm256_loadu_pd(rows[2].add(k)),
                    _mm256_loadu_pd(rows[3].add(k)),
                );
                let dst = regs.add(k).cast::<f64>();
                _mm256_store_pd(dst, r0);
                _mm256_store_pd(dst.add(4), r1);
                _mm256_store_pd(dst.add(8), r2);
                _mm256_store_pd(dst.add(12), r3);
            }
            k += 4;
        }
        while k < n_in {
            // SAFETY: `k < n_in`, so the four scalar reads and the
            // aligned register store are in bounds.
            unsafe {
                let v = _mm256_set_pd(
                    *rows[3].add(k),
                    *rows[2].add(k),
                    *rows[1].add(k),
                    *rows[0].add(k),
                );
                _mm256_store_pd(regs.add(k).cast::<f64>(), v);
            }
            k += 1;
        }
    }

    /// Scatters one evaluated four-state group from the wide register
    /// file into per-state output rows: `rows[l][o] = regs[slots[o]].lane(l)`,
    /// via 4×4 `ymm` transposes of four-output chunks.
    ///
    /// # Safety
    ///
    /// AVX2 must be available; every `slots[o]` must index a readable
    /// `F64x4` behind `regs` (32-byte-aligned by their `repr`), and each
    /// `rows[l]` must point to at least `slots.len()` writable `f64`s.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scatter4_f64(regs: *const F64x4, slots: &[u32], rows: [*mut f64; 4]) {
        let n_out = slots.len();
        let mut o = 0;
        while o + 4 <= n_out {
            // SAFETY: `o + 4 <= n_out` keeps the slot reads in range of
            // `slots`, every slot is caller-guaranteed in bounds of
            // `regs` (aligned loads), and the four row stores write
            // `rows[l][o..o + 4]` — within the guaranteed row length.
            unsafe {
                let (r0, r1, r2, r3) = transpose4(
                    _mm256_load_pd(regs.add(slots[o] as usize).cast::<f64>()),
                    _mm256_load_pd(regs.add(slots[o + 1] as usize).cast::<f64>()),
                    _mm256_load_pd(regs.add(slots[o + 2] as usize).cast::<f64>()),
                    _mm256_load_pd(regs.add(slots[o + 3] as usize).cast::<f64>()),
                );
                _mm256_storeu_pd(rows[0].add(o), r0);
                _mm256_storeu_pd(rows[1].add(o), r1);
                _mm256_storeu_pd(rows[2].add(o), r2);
                _mm256_storeu_pd(rows[3].add(o), r3);
            }
            o += 4;
        }
        while o < n_out {
            // SAFETY: `o < n_out`, the slot is in bounds of `regs`, and
            // each row write lands at `rows[l][o]`.
            unsafe {
                let src = regs.add(slots[o] as usize).cast::<f64>();
                *rows[0].add(o) = *src;
                *rows[1].add(o) = *src.add(1);
                *rows[2].add(o) = *src.add(2);
                *rows[3].add(o) = *src.add(3);
            }
            o += 1;
        }
    }
}

/// Reusable buffers for [`CompiledNetlist::eval_batch_into`]: the tape
/// widened to lane type `V`, its wide register file (states are
/// lane-transposed straight into the input registers and results read
/// straight out of the output registers — no staging copies), and a
/// scalar register file for the ragged tail. Build once per worker;
/// every evaluation through it is allocation-free.
///
/// `V` is any [`WideScalar`] over the netlist's element type — the
/// portable `Lanes<S, W>` or one of the native SIMD bundles in
/// [`robo_spatial::simd`].
#[derive(Debug, Clone)]
pub struct BatchEvalWorkspace<V: WideScalar> {
    wide: CompiledNetlist<V>,
    wide_regs: EvalWorkspace<V>,
    scalar_regs: EvalWorkspace<V::Elem>,
    /// Output register slots in declaration order — the scatter reads
    /// `wide_regs[out_slots[o]]` for output `o`.
    out_slots: Vec<u32>,
}

impl<V: WideScalar> BatchEvalWorkspace<V> {
    /// Widens `compiled` to `V` and pre-sizes every buffer, so even the
    /// first batch evaluation allocates nothing.
    pub fn for_netlist(compiled: &CompiledNetlist<V::Elem>) -> Self {
        let wide = compiled.widen_to::<V>();
        Self {
            wide_regs: EvalWorkspace::for_netlist(&wide),
            scalar_regs: EvalWorkspace::for_netlist(compiled),
            out_slots: compiled.outputs.iter().map(|(_, reg)| *reg).collect(),
            wide,
        }
    }
}

/// Object-safe face of a [`BatchEvalWorkspace`] at an erased lane type.
trait DynBatchEval<S: Scalar>: Send {
    fn width(&self) -> usize;
    fn lane_name(&self) -> String;
    fn eval_batch_refs(&mut self, netlist: &CompiledNetlist<S>, states: &[&[S]], out: &mut [S]);
}

/// The concrete workspace behind a [`TieredBatchEval`].
struct ErasedWs<V: WideScalar> {
    ws: BatchEvalWorkspace<V>,
}

impl<S: Scalar, V: WideScalar<Elem = S>> DynBatchEval<S> for ErasedWs<V> {
    fn width(&self) -> usize {
        V::WIDTH
    }

    fn lane_name(&self) -> String {
        V::name()
    }

    fn eval_batch_refs(&mut self, netlist: &CompiledNetlist<S>, states: &[&[S]], out: &mut [S]) {
        netlist.eval_batch_into(states, &mut self.ws, out);
    }
}

/// A [`BatchEvalWorkspace`] whose lane type was chosen at runtime from an
/// [`ExecTier`] and erased — built by
/// [`CompiledNetlist::tiered_workspace`] for callers that cannot be
/// generic over the lane type. Evaluations through it are allocation-free
/// once warm, like the generic workspace it wraps.
pub struct TieredBatchEval<S: Scalar> {
    inner: Box<dyn DynBatchEval<S> + Send>,
}

impl<S: Scalar> TieredBatchEval<S> {
    /// The erased lane type's width (states per wide instruction).
    pub fn width(&self) -> usize {
        self.inner.width()
    }

    /// The erased lane type's [`Scalar::name`] — e.g. `"F64x4(avx2)"` or
    /// `"Lanes<f64, 4>"` — for stats and reports.
    pub fn lane_name(&self) -> String {
        self.inner.lane_name()
    }

    /// [`CompiledNetlist::eval_batch_into`] through the erased workspace.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`CompiledNetlist::eval_batch_into`].
    pub fn eval_batch_into(
        &mut self,
        netlist: &CompiledNetlist<S>,
        states: &[&[S]],
        out: &mut [S],
    ) {
        self.inner.eval_batch_refs(netlist, states, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::opt::optimize;
    use std::collections::HashMap;

    fn tiny() -> Netlist {
        let mut n = Netlist::new("tiny");
        let a = n.push(Node::Input("a".into()));
        let b = n.push(Node::Input("b".into()));
        let c = n.push(Node::Input("c".into()));
        let ab = n.push(Node::Mul(a, b));
        let c2 = n.push(Node::MulConst(c, 2.0));
        let sum = n.push(Node::Add(ab, c2));
        let out = n.push(Node::Neg(sum));
        n.output("o", out).unwrap();
        n
    }

    #[test]
    fn matches_interpreter() {
        let n = tiny();
        let compiled = CompiledNetlist::<f64>::compile(&n);
        assert_eq!(compiled.input_names(), &["a", "b", "c"]);
        assert_eq!(compiled.eval(&[3.0, 4.0, 5.0]), vec![-22.0]);
    }

    #[test]
    fn constants_are_deduplicated() {
        let mut n = Netlist::new("consts");
        let x = n.push(Node::Input("x".into()));
        let a = n.push(Node::MulConst(x, 2.5));
        let b = n.push(Node::MulConst(x, 2.5));
        let c = n.push(Node::Const(2.5));
        let s1 = n.push(Node::Add(a, b));
        let s2 = n.push(Node::Add(s1, c));
        n.output("o", s2).unwrap();
        let compiled = CompiledNetlist::<f64>::compile(&n);
        assert_eq!(compiled.consts.len(), 1);
        assert_eq!(compiled.eval(&[1.0]), vec![7.5]);
    }

    #[test]
    fn registers_are_recycled() {
        // A long chain of unary ops needs O(1) registers, not O(n).
        let mut n = Netlist::new("chain");
        let mut cur = n.push(Node::Input("x".into()));
        for i in 0..40 {
            cur = n.push(Node::MulConst(cur, 1.0 + 0.01 * f64::from(i)));
        }
        n.output("o", cur).unwrap();
        let compiled = CompiledNetlist::<f64>::compile(&n);
        assert!(
            compiled.num_regs() <= 3,
            "chain should recycle registers, used {}",
            compiled.num_regs()
        );
    }

    #[test]
    fn dead_nodes_emit_no_instructions() {
        let mut n = Netlist::new("dead");
        let x = n.push(Node::Input("x".into()));
        let y = n.push(Node::Input("y".into()));
        let _dead = n.push(Node::Mul(x, y));
        let live = n.push(Node::Neg(x));
        n.output("o", live).unwrap();
        let compiled = CompiledNetlist::<f64>::compile(&n);
        assert_eq!(compiled.tape_len(), 1);
        assert_eq!(compiled.eval(&[2.0, 9.0]), vec![-2.0]);
    }

    #[test]
    fn repeated_input_names_share_a_slot() {
        let mut n = Netlist::new("dupin");
        let a1 = n.push(Node::Input("a".into()));
        let a2 = n.push(Node::Input("a".into()));
        let s = n.push(Node::Add(a1, a2));
        n.output("o", s).unwrap();
        let compiled = CompiledNetlist::<f64>::compile(&n);
        assert_eq!(compiled.input_names(), &["a"]);
        assert_eq!(compiled.eval(&[1.5]), vec![3.0]);
    }

    #[test]
    fn output_aliasing_an_input_or_midpoint_survives_reuse() {
        // An output register must never be recycled even when later nodes
        // could otherwise claim it.
        let mut n = Netlist::new("alias");
        let x = n.push(Node::Input("x".into()));
        let mid = n.push(Node::MulConst(x, 3.0));
        let mut cur = mid;
        for _ in 0..8 {
            cur = n.push(Node::Neg(cur));
        }
        n.output("mid", mid).unwrap();
        n.output("in", x).unwrap();
        n.output("end", cur).unwrap();
        let compiled = CompiledNetlist::<f64>::compile(&n);
        assert_eq!(compiled.eval(&[2.0]), vec![6.0, 2.0, 6.0]);
    }

    #[test]
    fn batch_matches_serial() {
        let n = tiny();
        let compiled = CompiledNetlist::<f64>::compile(&n);
        let engine = BatchEngine::new(2);
        let states: Vec<[f64; 3]> = (0..16)
            .map(|i| [i as f64, 0.5 * i as f64, -(i as f64)])
            .collect();
        let batch = compiled.eval_batch(&engine, &states);
        for (out, s) in batch.iter().zip(&states) {
            assert_eq!(out, &compiled.eval(s));
        }
    }

    #[test]
    fn compiled_optimized_x_unit_matches_interpreter() {
        use crate::xunit_gen::generate_x_unit;
        use robo_model::robots;
        let robot = robots::iiwa14();
        for joint in 0..robot.dof() {
            let raw = generate_x_unit(&robot, joint);
            let opt = optimize(&raw);
            let compiled = CompiledNetlist::<f64>::compile(&opt);
            let values: Vec<f64> = (0..8).map(|i| 0.3 * i as f64 - 0.9).collect();
            let inputs: HashMap<String, f64> = compiled
                .input_names()
                .iter()
                .zip(&values)
                .map(|(n, v)| (n.clone(), *v))
                .collect();
            let want = raw.eval(&inputs).unwrap();
            let got = compiled.eval(&values);
            for ((name, w), g) in want.iter().zip(&got) {
                assert_eq!(w, g, "joint {joint} output {name}");
            }
        }
    }

    #[test]
    #[should_panic(expected = "input slot count mismatch")]
    fn wrong_input_arity_panics() {
        let compiled = CompiledNetlist::<f64>::compile(&tiny());
        let _ = compiled.eval(&[1.0]);
    }

    #[test]
    fn fusion_shrinks_tiny_tape() {
        // tiny() is Mul, MulConst, Add, Neg; the Mul feeds only the Add,
        // so the pass folds them into one MulAdd.
        let compiled = CompiledNetlist::<f64>::compile(&tiny());
        assert_eq!(compiled.fusion_counts().mul_add, 1);
        assert_eq!(compiled.fusion_counts().total(), 1);
        assert_eq!(compiled.tape_len(), 3);
        assert_eq!(compiled.eval(&[3.0, 4.0, 5.0]), vec![-22.0]);
    }

    #[test]
    fn fusion_shrinks_optimized_x_unit_tapes() {
        use crate::xunit_gen::generate_x_unit;
        use robo_model::robots;
        let robot = robots::iiwa14();
        let mut total_fused = 0;
        for joint in 0..robot.dof() {
            let opt = optimize(&generate_x_unit(&robot, joint));
            let compiled = CompiledNetlist::<f64>::compile(&opt);
            let fused = compiled.fusion_counts().total();
            assert!(
                fused > 0,
                "joint {joint}: multiply-accumulate netlist should fuse"
            );
            total_fused += fused;
        }
        assert!(total_fused >= robot.dof());
    }

    #[test]
    fn eval_batch_into_matches_scalar_bit_for_bit() {
        let compiled = CompiledNetlist::<f64>::compile(&tiny());
        let n_out = compiled.num_outputs();
        // 11 states: two full Lanes<_, 4> groups plus a ragged tail of 3.
        let states: Vec<[f64; 3]> = (0..11)
            .map(|i| {
                let x = f64::from(i);
                [0.3 * x, 1.0 - x, 0.5 * x - 2.0]
            })
            .collect();
        let mut ws = BatchEvalWorkspace::<Lanes<f64, 4>>::for_netlist(&compiled);
        let mut flat = vec![0.0; states.len() * n_out];
        compiled.eval_batch_into(&states, &mut ws, &mut flat);
        for (i, s) in states.iter().enumerate() {
            assert_eq!(&flat[i * n_out..(i + 1) * n_out], &compiled.eval(s)[..]);
        }
    }

    #[test]
    fn widened_x_unit_lanes_match_scalar_bit_for_bit() {
        use crate::xunit_gen::generate_x_unit;
        use robo_model::robots;
        let robot = robots::iiwa14();
        let opt = optimize(&generate_x_unit(&robot, 2));
        let compiled = CompiledNetlist::<f64>::compile(&opt);
        let n_in = compiled.input_names().len();
        let n_out = compiled.num_outputs();
        let states: Vec<Vec<f64>> = (0..6)
            .map(|s| {
                (0..n_in)
                    .map(|k| 0.17 * (s * n_in + k) as f64 - 1.1)
                    .collect()
            })
            .collect();
        let mut ws = BatchEvalWorkspace::<Lanes<f64, 4>>::for_netlist(&compiled);
        let mut flat = vec![0.0; states.len() * n_out];
        compiled.eval_batch_into(&states, &mut ws, &mut flat);
        for (i, s) in states.iter().enumerate() {
            assert_eq!(
                &flat[i * n_out..(i + 1) * n_out],
                &compiled.eval(s)[..],
                "state {i}"
            );
        }
    }

    #[test]
    fn emitted_execution_matches_match_interpreter_bitwise() {
        use crate::xunit_gen::generate_x_unit;
        use robo_model::robots;
        let robot = robots::iiwa14();
        for joint in 0..robot.dof() {
            let opt = optimize(&generate_x_unit(&robot, joint));
            let compiled = CompiledNetlist::<f64>::compile(&opt);
            let n_in = compiled.input_names().len();
            let inputs: Vec<f64> = (0..n_in).map(|k| 0.37 * k as f64 - 1.3).collect();
            let mut regs = vec![0.0; compiled.num_regs()];
            let mut emitted = vec![0.0; compiled.num_outputs()];
            let mut interp = vec![0.0; compiled.num_outputs()];
            compiled.eval_into_regs(&inputs, &mut regs, &mut emitted);
            compiled.eval_into_regs_interp(&inputs, &mut regs, &mut interp);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&emitted), bits(&interp), "joint {joint}");
        }
    }

    /// A hand-built tape with one instruction per opcode, chained so later
    /// results depend on earlier ones (any mis-encoded displacement,
    /// operand order or sign mask changes the bits). Inputs occupy
    /// registers 0–2; every register is an output.
    fn every_opcode_tape<S: Scalar>() -> CompiledNetlist<S> {
        let tape = vec![
            Instr::Const { idx: 0, dst: 3 },
            Instr::Mul { a: 0, b: 3, dst: 4 },
            Instr::MulConst {
                a: 1,
                idx: 1,
                dst: 5,
            },
            Instr::Add { a: 4, b: 5, dst: 6 },
            Instr::Sub { a: 6, b: 2, dst: 7 },
            Instr::Neg { a: 7, dst: 8 },
            Instr::MulAdd {
                a: 7,
                b: 8,
                c: 2,
                dst: 8,
            },
            Instr::MulConstAdd {
                a: 8,
                idx: 0,
                c: 5,
                dst: 9,
            },
            Instr::AddAdd {
                a: 8,
                b: 9,
                c: 1,
                dst: 9,
            },
            Instr::NegAdd {
                a: 9,
                c: 2,
                dst: 10,
            },
            Instr::Neg { a: 2, dst: 11 },
        ];
        let num_regs = 12;
        let consts = vec![S::from_f64(1.375), S::from_f64(-0.5)];
        CompiledNetlist {
            name: "every_opcode".to_owned(),
            input_names: ["a", "b", "c"].map(str::to_owned).to_vec(),
            jit: JitTape::emit(&tape, num_regs, consts.len()),
            consts,
            tape,
            num_regs,
            outputs: (0..num_regs as u32).map(|r| (format!("r{r}"), r)).collect(),
            fusion: FusionCounts::default(),
        }
    }

    /// Runs `tape` through its emitted function and the interpreter and
    /// compares every output's bits; asserts the row emitted when
    /// `emits` says it must.
    fn row_matches_interp<S: Scalar>(
        tape: &CompiledNetlist<S>,
        inputs: &[S],
        bits: impl Fn(S) -> Vec<u64>,
        emits: bool,
    ) {
        let row = S::name();
        if cfg!(all(target_arch = "x86_64", target_os = "linux")) && emits {
            let report = tape
                .jit_report()
                .unwrap_or_else(|| panic!("{row} must emit"));
            assert_eq!(report.instrs, tape.tape_len(), "{row}");
        }
        let mut regs = vec![S::zero(); tape.num_regs()];
        let mut emitted = vec![S::zero(); tape.num_outputs()];
        let mut interp = vec![S::zero(); tape.num_outputs()];
        tape.eval_into_regs(inputs, &mut regs, &mut emitted);
        tape.eval_into_regs_interp(inputs, &mut regs, &mut interp);
        for (o, (e, i)) in emitted.iter().zip(&interp).enumerate() {
            assert_eq!(bits(*e), bits(*i), "{row}: output r{o} diverged");
        }
    }

    /// Input values covering the cases a sign-flip negation and `0 − x`
    /// disagree on (±0.0), a subnormal, and ordinary magnitudes.
    const EDGE_INPUTS: [f64; 8] = [-0.0, 0.0, 1.0e-310, 1.5, -2.25, 0.1, -7.0, 3.0e-39];

    /// Every lane of `V` gets a different edge input per slot.
    fn wide_inputs<V: WideScalar>(n_in: usize) -> Vec<V> {
        (0..n_in)
            .map(|k| {
                let mut v = V::zero();
                for l in 0..V::WIDTH {
                    let x = EDGE_INPUTS[(k * 3 + l) % EDGE_INPUTS.len()];
                    v.set_lane(l, V::Elem::from_f64(x));
                }
                v
            })
            .collect()
    }

    fn wide_row<V: WideScalar>(emits: bool) {
        let tape = every_opcode_tape::<V::Elem>().widen_to::<V>();
        let lane_bits = |v: V| {
            (0..V::WIDTH)
                .map(|l| v.lane(l).to_f64().to_bits())
                .collect()
        };
        row_matches_interp(&tape, &wide_inputs::<V>(3), lane_bits, emits);
    }

    #[test]
    fn every_row_lowers_every_opcode_bit_exactly() {
        fn scalar_row<S: Scalar>() {
            let tape = every_opcode_tape::<S>();
            for start in 0..EDGE_INPUTS.len() {
                let inputs: Vec<S> = (0..3)
                    .map(|k| S::from_f64(EDGE_INPUTS[(start + k) % EDGE_INPUTS.len()]))
                    .collect();
                row_matches_interp(&tape, &inputs, |x| vec![x.to_f64().to_bits()], true);
            }
        }
        scalar_row::<f64>();
        scalar_row::<f32>();
        let avx2 = ExecTier::Avx2.supported_on_host();
        wide_row::<Lanes<f64, 4>>(avx2);
        wide_row::<Lanes<f32, 8>>(avx2);
        #[cfg(target_arch = "x86_64")]
        {
            use robo_spatial::simd::{F32x4, F32x8, F64x2, F64x4};
            wide_row::<F64x2>(true);
            wide_row::<F32x4>(true);
            wide_row::<F64x4>(avx2);
            wide_row::<F32x8>(avx2);
        }
        // Types without a row run the interpreter.
        let fixed = every_opcode_tape::<robo_fixed::Fix32_16>();
        assert!(fixed.jit_report().is_none());
        assert!(every_opcode_tape::<f64>()
            .widen::<2>()
            .jit_report()
            .is_none());
    }

    #[test]
    fn fixed_point_matches_interpreter_bit_for_bit() {
        use robo_fixed::Fix32_16;
        let n = tiny();
        let compiled = CompiledNetlist::<Fix32_16>::compile(&n);
        let vals = [1.5, -2.0, 0.25].map(Fix32_16::from_f64);
        let inputs: HashMap<String, Fix32_16> = ["a", "b", "c"]
            .iter()
            .zip(vals)
            .map(|(n, v)| ((*n).to_owned(), v))
            .collect();
        let want = n.eval(&inputs).unwrap();
        let got = compiled.eval(&vals);
        assert_eq!(want[0].1, got[0]);
    }
}
