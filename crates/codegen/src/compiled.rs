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
//! * **one emitted function per tape** — on x86-64 Linux the JIT
//!   (`crate::jit`) lowers the tape of every float lane type with a row
//!   (`f64` and `f32` on AVX hosts, `Lanes<f64, 4>` on AVX2 hosts) into
//!   one straight-line function at compile time: it reads the caller's
//!   `inputs` and writes its `outputs` in place, keeps values in
//!   registers and spills to its own stack frame, so it needs no register
//!   file. Every other tape runs the `match` interpreter over a register
//!   file, which stays the bit-exact oracle;
//! * **liveness-based register reuse** — values are assigned to a small
//!   recycled slot file instead of one slot per node, so the interpreter's
//!   working set stays cache-resident and the JIT's allocator sees few
//!   names;
//! * **zero steady-state heap allocations** — [`CompiledNetlist::eval_into`]
//!   through a warm [`EvalWorkspace`] never touches the allocator (proved
//!   by the counting-allocator suite in `tests/alloc_free.rs`);
//! * **lane batching** — [`CompiledNetlist::eval_batch_into`] sweeps
//!   [`SERVE_LANES`] states per instruction through the tape widened to
//!   [`Lanes`];
//! * **re-targeting without recompiling** — the constants are kept as
//!   `f64`, so [`CompiledNetlist::cast`] carries a compiled tape to any
//!   other scalar type by converting them and emitting again.
//!
//! Evaluation order is exactly the netlist's topological node order, so
//! compiled results are bit-identical to the interpreter's in every scalar
//! type.

use crate::jit::JitTape;
use crate::netlist::{Netlist, Node};
use robo_spatial::{ExecTier, Lanes, Scalar, WideScalar, SERVE_LANES};

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
    /// The constant table at `S`, converted once from `const_values`.
    consts: Vec<S>,
    /// The constant table's `f64` values, so [`CompiledNetlist::cast`]
    /// converts them again without the netlist.
    const_values: Vec<f64>,
    tape: Vec<Instr>,
    /// The tape emitted as one native function by the JIT — `None` when
    /// `S` has no inline lowering on this host, and the interpreter then
    /// serves every evaluation.
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
        // once below rather than per evaluation.
        let mut const_values: Vec<f64> = Vec::new();
        let mut intern_const = |c: f64| -> u32 {
            let bits = c.to_bits();
            match const_values.iter().position(|b| b.to_bits() == bits) {
                Some(i) => i as u32,
                None => {
                    const_values.push(c);
                    (const_values.len() - 1) as u32
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
        Self::assemble(
            netlist.name().to_owned(),
            input_names,
            const_values,
            tape,
            alloc.next as usize,
            outputs,
            fusion,
        )
    }

    /// The compiled form at `S` of a lowered tape: converts the constants
    /// and emits the tape where `S` has a row.
    fn assemble(
        name: String,
        input_names: Vec<String>,
        const_values: Vec<f64>,
        tape: Vec<Instr>,
        num_regs: usize,
        outputs: Vec<(String, u32)>,
        fusion: FusionCounts,
    ) -> Self {
        let consts: Vec<S> = const_values.iter().map(|&c| S::from_f64(c)).collect();
        let out_regs: Vec<u32> = outputs.iter().map(|(_, reg)| *reg).collect();
        let jit = JitTape::emit(&tape, num_regs, input_names.len(), consts.len(), &out_regs);
        Self {
            name,
            input_names,
            consts,
            const_values,
            tape,
            jit,
            num_regs,
            outputs,
            fusion,
        }
    }

    /// A no-op kept for source compatibility: [`CompiledNetlist::compile`]
    /// and [`CompiledNetlist::cast`] already emit the JIT form wherever it
    /// exists. Returns whether the tape runs emitted code.
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
    /// [`CompiledNetlist::cast`] at the portable lane type.
    pub fn widen<const W: usize>(&self) -> CompiledNetlist<Lanes<S, W>> {
        self.cast()
    }

    /// Re-targets this tape at scalar type `T` without recompiling: the
    /// instruction stream, register assignment and fusion are reused
    /// verbatim, the constants are converted from their `f64` values with
    /// `T::from_f64`, and the tape is emitted again at `T`'s row where it
    /// has one. That is exactly what [`CompiledNetlist::compile`] at `T`
    /// builds; at a lane type, `from_f64` splats, so every lane of a wide
    /// evaluation is bit-identical to a scalar run of the same tape.
    pub fn cast<T: Scalar>(&self) -> CompiledNetlist<T> {
        CompiledNetlist::assemble(
            self.name.clone(),
            self.input_names.clone(),
            self.const_values.clone(),
            self.tape.clone(),
            self.num_regs,
            self.outputs.clone(),
            self.fusion,
        )
    }

    /// Evaluates the tape into `outputs`. The emitted function reads
    /// `inputs` and writes `outputs` in place and leaves the workspace
    /// untouched; the interpreter runs in the workspace's register file.
    /// Zero heap allocations once the workspace is warm.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` or `outputs` lengths do not match
    /// [`CompiledNetlist::input_names`] / [`CompiledNetlist::num_outputs`].
    pub fn eval_into(&self, inputs: &[S], ws: &mut EvalWorkspace<S>, outputs: &mut [S]) {
        if !self.eval_emitted(inputs, outputs) {
            if ws.regs.len() < self.num_regs {
                ws.regs.resize(self.num_regs, S::zero());
            }
            self.eval_into_regs_interp(inputs, &mut ws.regs, outputs);
        }
    }

    /// Like [`CompiledNetlist::eval_into`], but with a caller-provided
    /// register slice (at least [`CompiledNetlist::num_regs`] long), which
    /// only the interpreter uses.
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
        assert!(regs.len() >= self.num_regs, "register file too small");
        if !self.eval_emitted(inputs, outputs) {
            self.eval_into_regs_interp(inputs, regs, outputs);
        }
    }

    /// Runs the emitted function, which reads `inputs` and writes
    /// `outputs` in place with no register file, and returns `true`; when
    /// the tape runs the interpreter, touches nothing and returns `false`.
    ///
    /// # Panics
    ///
    /// Panics if a slice length does not match the tape.
    #[inline]
    pub fn eval_emitted(&self, inputs: &[S], outputs: &mut [S]) -> bool {
        match &self.jit {
            Some(jit) => {
                jit.run(inputs, outputs, &self.consts);
                true
            }
            None => false,
        }
    }

    /// The `match`-dispatch interpreter over the same tape — the oracle
    /// the JIT-emitted [`CompiledNetlist::eval_into_regs`] is proven
    /// bit-identical to (`tests/tier_parity.rs`), and the executor of
    /// every tape without an emitted function. Loads `inputs` into the
    /// register file, runs the tape over it, and reads the outputs back.
    ///
    /// # Panics
    ///
    /// Panics if a slice length is insufficient.
    pub fn eval_into_regs_interp(&self, inputs: &[S], regs: &mut [S], outputs: &mut [S]) {
        let n_in = self.input_names.len();
        assert_eq!(inputs.len(), n_in, "input slot count mismatch");
        assert_eq!(outputs.len(), self.outputs.len(), "output count mismatch");
        assert!(regs.len() >= self.num_regs, "register file too small");
        regs[..n_in].copy_from_slice(inputs);
        self.interpret(regs);
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
    /// `V` is the lane type the workspace was built at; the serving paths
    /// use `Lanes<S, SERVE_LANES>`. For `Lanes<f64, 4>` on an AVX2 host,
    /// the lane transposition around each group's sweep runs as 4×4 `ymm`
    /// transposes.
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
        let full = states.len() / w;

        // A scalar gather/scatter costs `4 · (n_in + n_out)` strided
        // moves per four-`f64` group and rivals the tape itself on small
        // units; AVX2 transposes replace them.
        #[cfg(target_arch = "x86_64")]
        let f64x4_fast = core::any::TypeId::of::<V>() == core::any::TypeId::of::<Lanes<f64, 4>>()
            && std::arch::is_x86_feature_detected!("avx2");

        for chunk in 0..full {
            let base = chunk * w;
            let group = &states[base..base + w];
            for state in group {
                assert_eq!(state.as_ref().len(), n_in, "input slot count mismatch");
            }
            #[cfg(target_arch = "x86_64")]
            if f64x4_fast {
                let rows = core::array::from_fn(|l| group[l].as_ref().as_ptr().cast::<f64>());
                let out_rows =
                    core::array::from_fn(|l| out[(base + l) * n_out..].as_mut_ptr().cast::<f64>());
                // SAFETY: `f64x4_fast` proves AVX2 was detected and `V`
                // *is* `Lanes<f64, 4>`, so `wide_in`/`wide_out` really hold
                // 32-byte-aligned (by its `repr`) `Lanes<f64, 4>` and `S`
                // is `f64` (pointer casts are between identical types).
                // Each row was length-checked against `n_in` just above,
                // `wide_in` holds `n_in` and `wide_out` `n_out` entries
                // (built so by `for_netlist`, for a tape of this length),
                // and each output row starts `n_out` elements before the
                // next, inside `out`, whose length was checked above.
                unsafe {
                    avx2::gather4_f64(rows, n_in, ws.wide_in.as_mut_ptr().cast());
                    ws.wide
                        .eval_into(&ws.wide_in, &mut ws.wide_regs, &mut ws.wide_out);
                    avx2::scatter4_f64(ws.wide_out.as_ptr().cast(), n_out, out_rows);
                }
                continue;
            }
            for (l, state) in group.iter().enumerate() {
                for (lane, &x) in ws.wide_in.iter_mut().zip(state.as_ref()) {
                    lane.set_lane(l, x);
                }
            }
            ws.wide
                .eval_into(&ws.wide_in, &mut ws.wide_regs, &mut ws.wide_out);
            for l in 0..w {
                let row = &mut out[(base + l) * n_out..(base + l + 1) * n_out];
                for (slot, v) in row.iter_mut().zip(&ws.wide_out) {
                    *slot = v.lane(l);
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

    /// The serving batch workspace, `Lanes<S, SERVE_LANES>`. `tier` is
    /// ignored: the lane type is fixed at compile time.
    pub fn tiered_workspace(&self, tier: ExecTier) -> BatchEvalWorkspace<Lanes<S, SERVE_LANES>> {
        let _ = tier;
        BatchEvalWorkspace::for_netlist(self)
    }
}

/// The AVX2 lane transposes around [`CompiledNetlist::eval_batch_into`]'s
/// four-`f64` sweeps: states are row-major, the wide register file holds
/// one lane per state.
#[cfg(target_arch = "x86_64")]
mod avx2 {
    use core::arch::x86_64::*;
    use robo_spatial::Lanes;

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

    /// Lane-transposes one four-state group into `n_in` wide values:
    /// `regs[k].lane(l) = rows[l][k]`, via 4×4
    /// `ymm` transposes of four-input chunks (a scalar gather costs four
    /// strided moves per input and dominated the batch path's overhead).
    ///
    /// # Safety
    ///
    /// AVX2 must be available; each `rows[l]` must point to at least
    /// `n_in` readable `f64`s and `regs` to at least `n_in` writable
    /// `Lanes<f64, 4>` (32-byte-aligned by its `repr`).
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn gather4_f64(rows: [*const f64; 4], n_in: usize, regs: *mut Lanes<f64, 4>) {
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

    /// Scatters one evaluated four-state group's outputs into per-state
    /// output rows: `rows[l][o] = src[o].lane(l)`, via 4×4 `ymm`
    /// transposes of four-output chunks.
    ///
    /// # Safety
    ///
    /// AVX2 must be available; `src` must point to at least `n_out`
    /// readable `Lanes<f64, 4>` (32-byte-aligned by its `repr`), and each
    /// `rows[l]` to at least `n_out` writable `f64`s.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn scatter4_f64(
        src: *const Lanes<f64, 4>,
        n_out: usize,
        rows: [*mut f64; 4],
    ) {
        let src = src.cast::<f64>();
        let mut o = 0;
        while o + 4 <= n_out {
            // SAFETY: `o + 4 <= n_out` keeps the four aligned loads inside
            // `src`'s caller-guaranteed `n_out` bundles, and the four row
            // stores write `rows[l][o..o + 4]` — within the guaranteed
            // row length.
            unsafe {
                let (r0, r1, r2, r3) = transpose4(
                    _mm256_load_pd(src.add(4 * o)),
                    _mm256_load_pd(src.add(4 * o + 4)),
                    _mm256_load_pd(src.add(4 * o + 8)),
                    _mm256_load_pd(src.add(4 * o + 12)),
                );
                _mm256_storeu_pd(rows[0].add(o), r0);
                _mm256_storeu_pd(rows[1].add(o), r1);
                _mm256_storeu_pd(rows[2].add(o), r2);
                _mm256_storeu_pd(rows[3].add(o), r3);
            }
            o += 4;
        }
        while o < n_out {
            // SAFETY: `o < n_out`, so bundle `o` is readable and each row
            // write lands at `rows[l][o]`.
            unsafe {
                let lanes = src.add(4 * o);
                *rows[0].add(o) = *lanes;
                *rows[1].add(o) = *lanes.add(1);
                *rows[2].add(o) = *lanes.add(2);
                *rows[3].add(o) = *lanes.add(3);
            }
            o += 1;
        }
    }
}

/// Reusable buffers for [`CompiledNetlist::eval_batch_into`]: the tape
/// widened to lane type `V`, one lane group's inputs and outputs (states
/// are lane-transposed straight into the inputs the emitted function
/// reads, and results read straight out of the outputs it writes — no
/// staging copies), and the interpreter's register files for tapes
/// without an emitted function. Build once per worker; every evaluation
/// through it is allocation-free.
///
/// `V` is any [`WideScalar`] over the netlist's element type; the
/// serving paths use `Lanes<S, SERVE_LANES>`.
#[derive(Debug, Clone)]
pub struct BatchEvalWorkspace<V: WideScalar> {
    wide: CompiledNetlist<V>,
    wide_in: Vec<V>,
    wide_out: Vec<V>,
    wide_regs: EvalWorkspace<V>,
    scalar_regs: EvalWorkspace<V::Elem>,
}

impl<V: WideScalar> BatchEvalWorkspace<V> {
    /// Widens `compiled` to `V` and pre-sizes every buffer, so even the
    /// first batch evaluation allocates nothing.
    pub fn for_netlist(compiled: &CompiledNetlist<V::Elem>) -> Self {
        let wide = compiled.cast::<V>();
        Self {
            wide_in: vec![V::zero(); wide.input_names.len()],
            wide_out: vec![V::zero(); wide.num_outputs()],
            wide_regs: EvalWorkspace::for_netlist(&wide),
            scalar_regs: EvalWorkspace::for_netlist(compiled),
            wide,
        }
    }

    /// [`CompiledNetlist::eval_batch_into`] through this workspace.
    ///
    /// # Panics
    ///
    /// Panics under the same conditions as
    /// [`CompiledNetlist::eval_batch_into`].
    pub fn eval_batch_into<I: AsRef<[V::Elem]>>(
        &mut self,
        netlist: &CompiledNetlist<V::Elem>,
        states: &[I],
        out: &mut [V::Elem],
    ) {
        netlist.eval_batch_into(states, self, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jit::JitReport;
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
        let const_values = vec![1.375, -0.5];
        let consts = const_values
            .iter()
            .map(|&c| S::from_f64(c))
            .collect::<Vec<_>>();
        let out_regs: Vec<u32> = (0..num_regs as u32).collect();
        CompiledNetlist {
            name: "every_opcode".to_owned(),
            input_names: ["a", "b", "c"].map(str::to_owned).to_vec(),
            jit: JitTape::emit(&tape, num_regs, 3, consts.len(), &out_regs),
            consts,
            const_values,
            tape,
            num_regs,
            outputs: out_regs.iter().map(|r| (format!("r{r}"), *r)).collect(),
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
        let tape = every_opcode_tape::<V::Elem>().cast::<V>();
        let lane_bits = |v: V| {
            (0..V::WIDTH)
                .map(|l| v.lane(l).to_f64().to_bits())
                .collect()
        };
        row_matches_interp(&tape, &wide_inputs::<V>(3), lane_bits, emits);
    }

    /// Whether `f64` and `f32` have their scalar VEX rows on this host.
    fn avx() -> bool {
        #[cfg(target_arch = "x86_64")]
        return std::arch::is_x86_feature_detected!("avx");
        #[cfg(not(target_arch = "x86_64"))]
        false
    }

    #[test]
    fn every_row_lowers_every_opcode_bit_exactly() {
        fn scalar_row<S: Scalar>() {
            let tape = every_opcode_tape::<S>();
            for start in 0..EDGE_INPUTS.len() {
                let inputs: Vec<S> = (0..3)
                    .map(|k| S::from_f64(EDGE_INPUTS[(start + k) % EDGE_INPUTS.len()]))
                    .collect();
                row_matches_interp(&tape, &inputs, |x| vec![x.to_f64().to_bits()], avx());
            }
        }
        scalar_row::<f64>();
        scalar_row::<f32>();
        wide_row::<Lanes<f64, 4>>(ExecTier::detect() == ExecTier::Avx2);
        // Types without a row run the interpreter, and still match it.
        wide_row::<Lanes<f32, 4>>(false);
        let fixed = every_opcode_tape::<robo_fixed::Fix32_16>();
        assert!(fixed.jit_report().is_none());
        for tape in [
            every_opcode_tape::<f32>().widen::<4>().jit_report(),
            every_opcode_tape::<f64>().widen::<2>().jit_report(),
        ] {
            assert!(tape.is_none());
        }
    }

    /// SplitMix64: a seeded generator for the random tapes below.
    struct Rng(u64);

    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }

        fn below(&mut self, n: usize) -> usize {
            (self.next() % n as u64) as usize
        }

        fn pick<T: Copy>(&mut self, items: &[T]) -> T {
            items[self.below(items.len())]
        }
    }

    /// A random straight-line tape over all ten opcodes (seed 0 is the
    /// empty tape). Operands come from registers already holding a value
    /// and favour the latest write; destinations recycle operands and
    /// live registers. Every third seed instead writes its registers in
    /// turn, so 24–40 values stay live, far more than the JIT has
    /// registers. Constants include 0, −0 and ±1; outputs may repeat, and
    /// may name an input never written.
    fn random_tape<S: Scalar>(seed: u64) -> CompiledNetlist<S> {
        let mut rng = Rng(seed);
        let n_in = 1 + rng.below(6);
        let spread = seed % 3 == 0;
        let num_regs = n_in + if spread { 24 } else { 2 } + rng.below(17);
        let const_values = vec![0.0, -0.0, 1.0, -1.0, 0.375, -3.5e7];
        let n_instrs = match seed {
            0 => 0,
            _ if spread => 60 + rng.below(61),
            _ => rng.below(91),
        };
        let mut defined: Vec<u32> = (0..n_in as u32).collect();
        let mut written = vec![false; num_regs];
        let mut last = 0;
        let mut tape = Vec::with_capacity(n_instrs);
        for i in 0..n_instrs {
            let mut operand = |rng: &mut Rng| match rng.below(3) {
                0 if !spread => last,
                _ => rng.pick(&defined),
            };
            let a = operand(&mut rng);
            let b = if rng.below(6) == 0 {
                a
            } else {
                operand(&mut rng)
            };
            let c = operand(&mut rng);
            let idx = rng.below(const_values.len()) as u32;
            let dst = match rng.below(5) {
                _ if spread => (n_in + i % (num_regs - n_in)) as u32,
                0 => rng.pick(&[a, b, c]),
                1 => rng.pick(&defined),
                2 => last,
                _ => rng.below(num_regs) as u32,
            };
            tape.push(match rng.below(10) {
                0 => Instr::Const { idx, dst },
                1 => Instr::Mul { a, b, dst },
                2 => Instr::MulConst { a, idx, dst },
                3 => Instr::Add { a, b, dst },
                4 => Instr::Sub { a, b, dst },
                5 => Instr::Neg { a, dst },
                6 => Instr::MulAdd { a, b, c, dst },
                7 => Instr::MulConstAdd { a, idx, c, dst },
                8 => Instr::AddAdd { a, b, c, dst },
                _ => Instr::NegAdd { a, c, dst },
            });
            if !written[dst as usize] && dst as usize >= n_in {
                defined.push(dst);
            }
            written[dst as usize] = true;
            last = dst;
        }
        let mut out_regs: Vec<u32> = (0..1 + rng.below(8)).map(|_| rng.pick(&defined)).collect();
        if let Some(r) = (0..n_in).find(|&r| !written[r]) {
            out_regs.push(r as u32);
        }
        CompiledNetlist::assemble(
            format!("random{seed}"),
            (0..n_in).map(|k| format!("x{k}")).collect(),
            const_values,
            tape,
            num_regs,
            out_regs.iter().map(|r| (format!("r{r}"), *r)).collect(),
            FusionCounts::default(),
        )
    }

    /// Finite inputs: ±0, subnormals, and magnitudes whose products
    /// overflow to ±∞ at each element width.
    const FUZZ_F64: [f64; 12] = [
        0.0, -0.0, 5e-324, -5e-324, 2.2e-308, 1e300, -1e300, 1.5, -2.25, 0.1, -7.0, 3.0e-39,
    ];
    const FUZZ_F32: [f64; 12] = [
        0.0, -0.0, 1e-45, -1e-45, 1.1e-38, 3e38, -3e38, 1e20, 1.5, -2.25, 0.1, -7.0,
    ];

    /// Runs `tape` through its emitted function and the interpreter;
    /// every output must agree bit for bit, except that any two NaNs are
    /// equal (the fusion pass's documented liberty).
    fn same_as_interp<S: Scalar>(
        tape: &CompiledNetlist<S>,
        inputs: &[S],
        lanes: &dyn Fn(S) -> Vec<f64>,
    ) {
        let mut regs = vec![S::zero(); tape.num_regs()];
        let mut emitted = vec![S::zero(); tape.num_outputs()];
        let mut interp = vec![S::zero(); tape.num_outputs()];
        tape.eval_into_regs(inputs, &mut regs, &mut emitted);
        tape.eval_into_regs_interp(inputs, &mut regs, &mut interp);
        for (o, (e, i)) in emitted.iter().zip(&interp).enumerate() {
            for (x, y) in lanes(*e).into_iter().zip(lanes(*i)) {
                assert!(
                    x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                    "{}: output {o}: emitted {x:e} vs interpreted {y:e}\n{:?}",
                    tape.name(),
                    tape.tape
                );
            }
        }
    }

    #[test]
    fn random_tapes_lower_bit_exactly_in_every_row() {
        let jit = cfg!(all(target_arch = "x86_64", target_os = "linux"));
        let avx2 = ExecTier::detect() == ExecTier::Avx2;
        let mut emitted = JitReport::default();
        for seed in 0..600 {
            let mut rng = Rng(!seed);
            let f64_tape = random_tape::<f64>(seed);
            let f32_tape = random_tape::<f32>(seed);
            let wide_tape = f64_tape.cast::<Lanes<f64, 4>>();
            if jit && avx2 {
                emitted = emitted + f64_tape.jit_report().expect("f64 emits");
                assert!(f32_tape.jit_report().is_some() && wide_tape.jit_report().is_some());
            }
            let n_in = f64_tape.input_names().len();
            for _ in 0..4 {
                let x: Vec<f64> = (0..n_in).map(|_| rng.pick(&FUZZ_F64)).collect();
                same_as_interp(&f64_tape, &x, &|v| vec![v]);
                let x: Vec<f32> = (0..n_in).map(|_| rng.pick(&FUZZ_F32) as f32).collect();
                same_as_interp(&f32_tape, &x, &|v| vec![f64::from(v)]);
                let x: Vec<Lanes<f64, 4>> = (0..n_in)
                    .map(|_| Lanes::from_fn(|_| rng.pick(&FUZZ_F64)))
                    .collect();
                same_as_interp(&wide_tape, &x, &|v| v.lanes().to_vec());
            }
        }
        if jit && avx2 {
            assert!(
                emitted.spills > 0 && emitted.reloads > 0,
                "the random tapes must exercise the spill path: {emitted:?}"
            );
        }
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
