//! Register-allocating JIT: every compiled tape becomes one straight-line
//! native function that keeps its values in registers.
//!
//! The `match` interpreter (`CompiledNetlist::eval_into_regs_interp`)
//! pays a dispatch branch per instruction, a bounds check per operand and
//! a memory round trip per value. This module removes all three by
//! lowering the fused tape, in fusion order — the interpreter's own order
//! — into one function with a direct ABI:
//!
//! ```text
//! extern "C" fn(inputs: *const S, outputs: *mut S, consts: *const S)
//! ```
//!
//! Inputs arrive in `rdi`, outputs in `rsi`, constants in `rdx`. Tape
//! values live in `xmm`/`ymm` 0–13; register 14 is the fused opcodes'
//! temporary and register 15 holds the sign mask, set once when the tape
//! negates. The registers act as a cache over each value's memory home:
//! an input is loaded from `inputs` on its first read (or read there
//! straight as an operand if no later instruction needs it), a constant
//! from the constant table (`Const` emits no code), and a spilled value
//! from its slot in the function's own stack frame. When a register is
//! needed, the victim is the value whose next read is furthest away (one
//! backward pass computes every next read), and an evicted value is
//! stored only if a later instruction reads it (to the frame) or it is an
//! output (straight to `outputs`). Outputs still in registers are stored
//! at the exit. No dispatch, no calls, no register file, no loop
//! bookkeeping.
//!
//! # One encoder, three rows
//!
//! Every row is three-operand VEX with the same opcodes (`10`/`11` moves,
//! `58`/`59`/`5C` arithmetic, `57` for `vxorps`); only the `pp`/`L`
//! fields, the value size and the sign-mask set-up differ. Each lowered
//! type is one `Row`:
//!
//! | type | encoding | value | host needs |
//! |---|---|---|---|
//! | `f64` | VEX.LIG.F2.0F (`vaddsd`, …) | 8 B | AVX |
//! | `f32` | VEX.LIG.F3.0F (`vaddss`, …) | 4 B | AVX |
//! | `Lanes<f64, 4>` | VEX.256.66.0F (`vaddpd`, …) | 32 B | AVX2 |
//!
//! No row needs aligned operands: VEX memory forms accept any alignment.
//! Every other type — `Lanes<f32, 4>`, the other `Lanes` widths,
//! `Fix32_16` — runs the interpreter.
//!
//! Bit-exactness holds by construction, in every row: fused opcodes keep
//! their two rounding steps (`a·b`, `a+b` or `−a` into register 14, then
//! the add — never FMA), every step keeps the interpreter's operand order,
//! negation is the IEEE sign-bit flip (`vxorps` against the mask —
//! exactly what the compiler emits for `-x`), and every operand is read
//! before the one write, so destination-recycling instructions behave as
//! in the interpreter. The 256-bit row ends in `vzeroupper` so callers
//! never pay an AVX→SSE transition; the scalar rows only write 128-bit
//! registers, which leaves the upper halves clean.
//!
//! # Safety argument
//!
//! [`JitTape::emit_all`] checks every register index against the register
//! count, every constant index against the constant table length, that
//! every non-input register is written before it is read, and that every
//! output names an input or a written register; it panics on a violation
//! (a compiler bug, never a user error). Every emitted address is
//! therefore `inputs + i·size` for an input `i`, `consts + k·size` for a
//! constant `k`, `outputs + o·size` for an output `o` — the lengths
//! [`JitTape::run`] re-asserts on each call — or a slot of the function's
//! own stack frame. The frame is `slots · size` bytes below `rsp`,
//! allocated in the prologue one page at a time with a touch of each full
//! page (so no access can skip the stack's guard page) and released
//! before `ret`; the code keeps no pointer into it. The function writes
//! only `outputs` and its frame, and clobbers only caller-saved registers
//! (`rax`, `xmm0`–`xmm15`).
//!
//! # W^X lifecycle
//!
//! Code lives in an anonymous private mapping obtained with raw Linux
//! syscalls (`mmap`/`mprotect`/`munmap` — `libc` is deliberately not a
//! dependency). A batch of tapes emitted together
//! ([`JitTape::emit_all`]) shares one mapping: every function is lowered
//! first, each entry aligned to 16 bytes with `int3` between them, and
//! the mapping is created read+write, filled once, and then flipped to
//! read+execute before any entry pointer is ever formed; it is **never
//! writable and executable at the same time**, and the flip is a full
//! `mprotect` so there is no writable alias left behind. Each tape keeps
//! an `Arc` of the mapping, so it is unmapped with the batch's last tape.
//! x86 instruction caches are coherent with stores from the same core
//! after an `mprotect` round trip, so no explicit icache flush is needed.
//! One mapping per batch rather than per tape is what keeps a plan's
//! build cheap: each mapping costs an `mmap`, a first-touch fault, an
//! `mprotect` and, at drop, an `munmap`.
//!
//! # Fallback rules
//!
//! [`JitTape::emit_all`] gives a tape no function — and it runs the
//! interpreter — whenever the target is not x86-64 Linux, the scalar type
//! has no row on this host (fixed point, every `Lanes` type but
//! `Lanes<f64, 4>`, `f64` and `f32` on a pre-AVX host, `Lanes<f64, 4>`
//! without AVX2), the batch's `mmap` or `mprotect` flip fails, or a
//! displacement or the tape's frame would overflow 32 bits.

use crate::compiled::{Instr, Tape};

/// Emitted-code statistics for one JIT-compiled tape, surfaced through
/// [`CompiledNetlist::jit_report`](crate::CompiledNetlist::jit_report)
/// and the `codegen_stats` experiment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JitReport {
    /// Tape instructions lowered into the function.
    pub instrs: usize,
    /// Total machine-code bytes emitted.
    pub code_bytes: usize,
    /// Values stored to the function's stack frame to free a register.
    pub spills: usize,
    /// Spilled values loaded back from the frame.
    pub reloads: usize,
    /// Executable mappings the tapes occupy. A batch emitted together
    /// shares one ([`CompiledNetlist::emit_all`](crate::CompiledNetlist::emit_all));
    /// its first tape's report counts it, so a sum over every tape of the
    /// batches counts each mapping once.
    pub mappings: usize,
}

impl JitReport {
    /// Machine-code bytes per tape instruction, frame and prologue
    /// included — what a large tape's L1i footprint scales with.
    pub fn bytes_per_instr(&self) -> f64 {
        self.code_bytes as f64 / self.instrs.max(1) as f64
    }
}

impl std::ops::Add for JitReport {
    type Output = Self;

    /// The report of two tapes taken together.
    fn add(self, rhs: Self) -> Self {
        Self {
            instrs: self.instrs + rhs.instrs,
            code_bytes: self.code_bytes + rhs.code_bytes,
            spills: self.spills + rhs.spills,
            reloads: self.reloads + rhs.reloads,
            mappings: self.mappings + rhs.mappings,
        }
    }
}

impl std::iter::Sum for JitReport {
    fn sum<I: Iterator<Item = Self>>(iter: I) -> Self {
        iter.fold(Self::default(), |a, b| a + b)
    }
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
mod native {
    use super::{Instr, JitReport, Tape};
    use core::any::TypeId;
    use core::borrow::Borrow;
    use core::ptr::NonNull;
    use robo_spatial::{Lanes, Scalar};
    use std::sync::Arc;

    // x86-64 Linux syscall numbers and the mmap/mprotect flag bits used
    // below (stable kernel ABI).
    const SYS_MMAP: i64 = 9;
    const SYS_MPROTECT: i64 = 10;
    const SYS_MUNMAP: i64 = 11;
    const PROT_READ: i64 = 0x1;
    const PROT_WRITE: i64 = 0x2;
    const PROT_EXEC: i64 = 0x4;
    const MAP_PRIVATE: i64 = 0x02;
    const MAP_ANONYMOUS: i64 = 0x20;
    /// Mapping granularity; x86-64 Linux pages are always 4 KiB-aligned
    /// (larger runtime page sizes are multiples, so rounding to 4 KiB
    /// can only under-request — the kernel rounds the length up itself).
    const PAGE: usize = 4096;

    /// Raw x86-64 Linux syscall (`libc` is not a dependency of this
    /// workspace). Returns the kernel's `rax`: a negated errno in
    /// `-4095..0` on failure.
    ///
    /// # Safety
    ///
    /// The caller must pass a syscall number and arguments that are
    /// valid for the kernel ABI — in this module only `mmap`,
    /// `mprotect`, and `munmap` over mappings this module owns.
    unsafe fn syscall6(n: i64, a1: i64, a2: i64, a3: i64, a4: i64, a5: i64, a6: i64) -> i64 {
        let ret: i64;
        // SAFETY: the `syscall` instruction with the kernel's register
        // assignment (args in rdi/rsi/rdx/r10/r8/r9, number/result in
        // rax); rcx and r11 are declared clobbered because the kernel
        // overwrites them. Argument validity is the caller's contract.
        unsafe {
            core::arch::asm!(
                "syscall",
                inlateout("rax") n => ret,
                in("rdi") a1,
                in("rsi") a2,
                in("rdx") a3,
                in("r10") a4,
                in("r8") a5,
                in("r9") a6,
                lateout("rcx") _,
                lateout("r11") _,
                options(nostack),
            );
        }
        ret
    }

    /// An anonymous private mapping holding the emitted function.
    ///
    /// W^X lifecycle: mapped read+write by [`CodeBuf::map_rw`], filled
    /// exactly once, then flipped to read+execute by
    /// [`CodeBuf::protect_rx`]; never writable and executable at the
    /// same time, and unmapped on drop.
    #[derive(Debug)]
    struct CodeBuf {
        ptr: NonNull<u8>,
        len: usize,
    }

    // SAFETY: after construction (`JitTape::emit_all` finishes before any
    // sharing) the mapping is read+execute only — no `&mut` access
    // exists anywhere, so moving the owner across threads is sound.
    unsafe impl Send for CodeBuf {}
    // SAFETY: as above — all post-construction access is read/execute of
    // immutable pages, safe to share between threads.
    unsafe impl Sync for CodeBuf {}

    impl CodeBuf {
        /// Maps `len` bytes of zeroed anonymous memory, read+write.
        fn map_rw(len: usize) -> Option<CodeBuf> {
            // SAFETY: `mmap(NULL, len, RW, PRIVATE|ANON, -1, 0)` with a
            // nonzero length is always a valid request; the result is
            // error-checked below before use.
            let ret = unsafe {
                syscall6(
                    SYS_MMAP,
                    0,
                    len as i64,
                    PROT_READ | PROT_WRITE,
                    MAP_PRIVATE | MAP_ANONYMOUS,
                    -1,
                    0,
                )
            };
            if (-4095..0).contains(&ret) {
                return None;
            }
            NonNull::new(ret as *mut u8).map(|ptr| CodeBuf { ptr, len })
        }

        /// Flips the whole mapping to read+execute. After this returns
        /// `true` no writable alias of the code exists.
        fn protect_rx(&self) -> bool {
            // SAFETY: `ptr`/`len` describe exactly the mapping obtained
            // by `map_rw` (page-aligned base, length the kernel rounds
            // up), which this `CodeBuf` still owns.
            let ret = unsafe {
                syscall6(
                    SYS_MPROTECT,
                    self.ptr.as_ptr() as i64,
                    self.len as i64,
                    PROT_READ | PROT_EXEC,
                    0,
                    0,
                    0,
                )
            };
            ret == 0
        }
    }

    impl Drop for CodeBuf {
        fn drop(&mut self) {
            // SAFETY: unmaps exactly the mapping this `CodeBuf` owns; it
            // is only dropped once the last `Arc` clone of the owning
            // `JitTape` is gone, so no emitted code can still be
            // executing.
            let _ = unsafe {
                syscall6(
                    SYS_MUNMAP,
                    self.ptr.as_ptr() as i64,
                    self.len as i64,
                    0,
                    0,
                    0,
                    0,
                )
            };
        }
    }

    /// Physical `xmm`/`ymm` registers 0–13 hold tape values.
    const ALLOC: usize = 14;
    /// Register 14: a fused opcode's first step (`a·b`, `a+b` or `−a`)
    /// lands here before the add.
    const TMP: u8 = 14;
    /// Register 15: the sign mask, set once in the prologue when the tape
    /// negates.
    const MASK: u8 = 15;

    /// General-purpose base registers: the three pointer arguments of the
    /// System V call (`inputs`, `outputs`, `consts`) and the stack
    /// pointer, which addresses the spill frame.
    const INPUTS: u8 = 7; // rdi
    const OUTPUTS: u8 = 6; // rsi
    const CONSTS: u8 = 2; // rdx
    const FRAME: u8 = 4; // rsp

    /// Opcode bytes in map `0F`: `vmov*` load and store, `vadd*`, `vmul*`,
    /// `vsub*`, and `vxorps`.
    const OP_LOAD: u8 = 0x10;
    const OP_STORE: u8 = 0x11;
    const OP_ADD: u8 = 0x58;
    const OP_MUL: u8 = 0x59;
    const OP_SUB: u8 = 0x5C;
    const OP_XOR: u8 = 0x57;

    /// How one float lane type lowers: everything the encoder varies by
    /// type. Every row is three-operand VEX with the same opcodes.
    #[derive(Debug)]
    struct Row {
        /// Bytes per value: `size_of::<S>()`.
        size: usize,
        /// VEX `pp` field of the moves and the arithmetic (1 = `66`,
        /// 2 = `F3`, 3 = `F2`).
        pp: u8,
        /// VEX.L: 1 for the 256-bit row.
        l: u8,
        /// Whether the lanes are 32-bit: selects the sign-mask immediate
        /// (`mov eax, imm32` vs `movabs rax, imm64`).
        single: bool,
    }

    /// `f64`: VEX.LIG.F2.0F (`vmovsd`/`vaddsd`/`vmulsd`/`vsubsd`).
    const SD: Row = Row {
        size: 8,
        pp: 3,
        l: 0,
        single: false,
    };
    /// `f32`: VEX.LIG.F3.0F (`vmovss`/`vaddss`/…).
    const SS: Row = Row {
        size: 4,
        pp: 2,
        l: 0,
        single: true,
    };
    /// Four `f64` lanes: VEX.256.66.0F (`vmovupd`/`vaddpd`/…).
    const VPD: Row = Row {
        size: 32,
        pp: 1,
        l: 1,
        single: false,
    };

    /// The row that lowers `S` on this host, or `None` when `S` runs the
    /// interpreter. The scalar rows need AVX, the 256-bit row AVX2; `std`
    /// detects each feature once and caches it.
    ///
    /// # Panics
    ///
    /// Panics if `S`'s size disagrees with its row — the displacement
    /// scaling depends on it.
    fn row_for<S: Scalar>() -> Option<&'static Row> {
        let is = |t: TypeId| TypeId::of::<S>() == t;
        let avx = std::arch::is_x86_feature_detected!("avx");
        let row = if is(TypeId::of::<f64>()) && avx {
            &SD
        } else if is(TypeId::of::<f32>()) && avx {
            &SS
        } else if is(TypeId::of::<Lanes<f64, 4>>()) && std::arch::is_x86_feature_detected!("avx2") {
            &VPD
        } else {
            return None;
        };
        assert_eq!(core::mem::size_of::<S>(), row.size, "JIT row size mismatch");
        Some(row)
    }

    /// The registers `ins` reads, in `Instr::for_each_read` order.
    fn reads(ins: Instr) -> ([u32; 3], usize) {
        let mut regs = [0; 3];
        let mut n = 0;
        ins.for_each_read(|r| {
            regs[n] = r;
            n += 1;
        });
        (regs, n)
    }

    /// Panics unless every register index in `tape` is below `num_regs`,
    /// every constant index below `n_consts`, every register at or above
    /// `n_inputs` is written before it is read, and every output register
    /// holds an input or a written value — the conditions every emitted
    /// address relies on. Returns whether the tape negates.
    fn check_tape(
        tape: &[Instr],
        num_regs: usize,
        n_inputs: usize,
        n_consts: usize,
        out_regs: &[u32],
    ) -> bool {
        assert!(n_inputs <= num_regs, "more inputs than registers");
        let mut defined: Vec<bool> = (0..num_regs).map(|r| r < n_inputs).collect();
        let mut negates = false;
        for &ins in tape {
            ins.for_each_read(|r| {
                assert!((r as usize) < num_regs, "register index out of bounds");
                assert!(defined[r as usize], "register read before it is written");
            });
            let d = ins.dst() as usize;
            assert!(d < num_regs, "register index out of bounds");
            defined[d] = true;
            match ins {
                Instr::Const { idx, .. }
                | Instr::MulConst { idx, .. }
                | Instr::MulConstAdd { idx, .. } => {
                    assert!((idx as usize) < n_consts, "constant index out of bounds");
                }
                Instr::Neg { .. } | Instr::NegAdd { .. } => negates = true,
                _ => {}
            }
        }
        for &r in out_regs {
            assert!(
                (r as usize) < num_regs && defined[r as usize],
                "output register never written"
            );
        }
        negates
    }

    /// `slot · size` as a displacement; `None` if it overflows 32 bits.
    fn disp(slot: u32, size: usize) -> Option<i32> {
        i32::try_from(slot as usize * size).ok()
    }

    /// The `r/m` operand of a VEX instruction.
    #[derive(Debug, Clone, Copy)]
    enum Rm {
        Reg(u8),
        /// `[base + disp]`; the base is one of the four bases above
        /// (never `rbp`, whose `mod = 00` form means RIP-relative).
        Mem(u8, i32),
    }

    /// Appends `op reg, vvvv, rm` in VEX form: map `map` (1 = `0F`,
    /// 2 = `0F38`), fields `pp`, `l`, `w`. Two-byte VEX where the fields
    /// allow it, three-byte otherwise; `disp8` where the displacement
    /// fits. Pass `vvvv = 0` when the instruction has no such operand.
    fn vex(
        code: &mut Vec<u8>,
        (pp, l, w, map): (u8, u8, u8, u8),
        op: u8,
        reg: u8,
        vvvv: u8,
        rm: Rm,
    ) {
        let b = match rm {
            Rm::Reg(x) => x >> 3,
            Rm::Mem(base, _) => base >> 3,
        };
        let r_bar = (!reg >> 3) & 1;
        let tail = (!vvvv & 0xF) << 3 | l << 2 | pp;
        if map == 1 && w == 0 && b == 0 {
            code.extend_from_slice(&[0xC5, r_bar << 7 | tail, op]);
        } else {
            code.extend_from_slice(&[
                0xC4,
                r_bar << 7 | 1 << 6 | (b ^ 1) << 5 | map,
                w << 7 | tail,
                op,
            ]);
        }
        match rm {
            Rm::Reg(x) => code.push(0xC0 | (reg & 7) << 3 | (x & 7)),
            Rm::Mem(base, disp) => {
                let bytes = disp.to_le_bytes();
                let (mode, tail): (u8, &[u8]) = match disp {
                    0 => (0x00, &[]),
                    -128..=127 => (0x40, &bytes[..1]),
                    _ => (0x80, &bytes),
                };
                code.push(mode | (reg & 7) << 3 | (base & 7));
                if base == FRAME {
                    code.push(0x24); // SIB: [rsp] with no index
                }
                code.extend_from_slice(tail);
            }
        }
    }

    /// No later read: the value is dead. Also marks a free register.
    const NONE: u32 = u32::MAX;

    /// Where a tape register's current value can be read from memory.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    enum Home {
        /// Nowhere: the value lives only in its physical register.
        Reg,
        /// Its slot in `inputs` (an input not yet overwritten).
        Input,
        /// A constant-table slot: `Const` emits no code.
        Const(u32),
        /// Its spill slot in the frame.
        Frame,
    }

    /// Per tape register state during lowering.
    #[derive(Debug, Clone, Copy)]
    struct TapeReg {
        /// The physical register holding the current value.
        phys: Option<u8>,
        home: Home,
        /// Spill slot, assigned at the first spill.
        slot: Option<u32>,
        /// First output naming this register (`NONE` if none); the rest
        /// follow `Lowering::next_out`.
        first_out: u32,
        /// The final value already went to the outputs at an eviction.
        stored_out: bool,
    }

    /// The register allocator and encoder for one tape: physical registers
    /// act as a cache over each value's memory home. A value is loaded on
    /// first read, the victim is the value whose next read is furthest
    /// away, and an evicted value is stored only if it is read later (to
    /// the frame) or is an output (straight to `outputs`).
    struct Lowering {
        row: &'static Row,
        code: Vec<u8>,
        /// The exit's position: the next use of every output's final value.
        end: u32,
        /// Per physical register: the tape register held (`NONE` if free),
        /// that value's next read, and whether memory lacks a copy of it.
        held: [u32; ALLOC],
        next: [u32; ALLOC],
        dirty: [bool; ALLOC],
        regs: Vec<TapeReg>,
        /// Each output's successor among the outputs naming its register.
        next_out: Vec<u32>,
        /// Frame slots assigned so far; the frame is `slots · size` bytes.
        slots: u32,
        /// Frame stores and frame reads emitted, for the report.
        spills: usize,
        reloads: usize,
    }

    impl Lowering {
        /// Appends one row instruction (`vxorps` carries no prefix),
        /// counting its frame accesses: a store is a spill, any other
        /// frame operand a reload.
        fn op(&mut self, op: u8, reg: u8, vvvv: u8, rm: Rm) {
            if let Rm::Mem(FRAME, _) = rm {
                match op {
                    OP_STORE => self.spills += 1,
                    _ => self.reloads += 1,
                }
            }
            let pp = if op == OP_XOR { 0 } else { self.row.pp };
            vex(&mut self.code, (pp, self.row.l, 0, 1), op, reg, vvvv, rm);
        }

        /// The memory home of `r`'s current value.
        fn addr(&self, r: u32) -> Option<Rm> {
            let t = &self.regs[r as usize];
            let (base, slot) = match t.home {
                Home::Input => (INPUTS, r),
                Home::Const(k) => (CONSTS, k),
                Home::Frame => (FRAME, t.slot.expect("a spilled value has a slot")),
                Home::Reg => unreachable!("a value outside the registers has a home"),
            };
            Some(Rm::Mem(base, disp(slot, self.row.size)?))
        }

        /// Empties physical register `p`, first storing its value where it
        /// is still needed.
        fn evict(&mut self, p: usize) -> Option<()> {
            let r = self.held[p];
            if r == NONE {
                return Some(());
            }
            if self.dirty[p] && self.next[p] == self.end {
                let mut o = self.regs[r as usize].first_out;
                while o != NONE {
                    let at = Rm::Mem(OUTPUTS, disp(o, self.row.size)?);
                    self.op(OP_STORE, p as u8, 0, at);
                    o = self.next_out[o as usize];
                }
                self.regs[r as usize].stored_out = true;
            } else if self.dirty[p] && self.next[p] != NONE {
                let t = &mut self.regs[r as usize];
                let slot = *t.slot.get_or_insert_with(|| {
                    self.slots += 1;
                    self.slots - 1
                });
                t.home = Home::Frame;
                let at = Rm::Mem(FRAME, disp(slot, self.row.size)?);
                self.op(OP_STORE, p as u8, 0, at);
            }
            self.held[p] = NONE;
            self.regs[r as usize].phys = None;
            Some(())
        }

        /// A physical register for a new value: a free one, else the
        /// unpinned one whose value is read furthest ahead, evicted.
        fn victim(&mut self, pinned: u16) -> Option<u8> {
            let mut best: Option<usize> = None;
            for p in (0..ALLOC).filter(|p| pinned >> p & 1 == 0) {
                if self.held[p] == NONE {
                    return Some(p as u8);
                }
                if best.is_none_or(|b| self.next[p] > self.next[b]) {
                    best = Some(p);
                }
            }
            let p = best.expect("an instruction pins at most three registers");
            self.evict(p)?;
            Some(p as u8)
        }

        /// `r` in a physical register, loaded from its home if needed, and
        /// pinned for the instruction being lowered.
        fn in_reg(&mut self, r: u32, pinned: &mut u16) -> Option<u8> {
            let p = match self.regs[r as usize].phys {
                Some(p) => p,
                None => {
                    let p = self.victim(*pinned)?;
                    let from = self.addr(r)?;
                    self.op(OP_LOAD, p, 0, from);
                    self.held[p as usize] = r;
                    self.dirty[p as usize] = false;
                    self.regs[r as usize].phys = Some(p);
                    p
                }
            };
            *pinned |= 1 << p;
            Some(p)
        }

        /// `r` as an `r/m` operand: its register if it has one, straight
        /// from memory if no later instruction reads it (`after`, its next
        /// read, is the exit or never), loaded otherwise.
        fn operand(&mut self, r: u32, after: u32, pinned: &mut u16) -> Option<Rm> {
            if self.regs[r as usize].phys.is_none() && (after == NONE || after == self.end) {
                return self.addr(r);
            }
            Some(Rm::Reg(self.in_reg(r, pinned)?))
        }

        /// Records that `r` was just read and is next read at `after`,
        /// freeing its register if it is dead.
        fn retire(&mut self, r: u32, after: u32) {
            if let Some(p) = self.regs[r as usize].phys {
                if after == NONE {
                    self.held[p as usize] = NONE;
                    self.regs[r as usize].phys = None;
                } else {
                    self.next[p as usize] = after;
                }
            }
        }

        /// Drops the old value of `d`, about to be overwritten.
        fn forget(&mut self, d: u32) {
            if let Some(p) = self.regs[d as usize].phys.take() {
                self.held[p as usize] = NONE;
            }
        }

        /// A physical register for `d`'s new value, next read at `next`.
        fn define(&mut self, d: u32, next: u32) -> Option<u8> {
            self.forget(d);
            let p = self.victim(0)?;
            self.held[p as usize] = d;
            self.next[p as usize] = next;
            self.dirty[p as usize] = true;
            let t = &mut self.regs[d as usize];
            t.phys = Some(p);
            t.home = Home::Reg;
            Some(p)
        }
    }

    /// Next reads, in one backward pass: for instruction `i`, entries
    /// `0..n` give the next read after `i` of each operand's value (in
    /// `for_each_read` order) and entry 3 the first read of the value `i`
    /// writes — `end` when only the exit reads it, `NONE` when nothing
    /// does.
    fn next_reads(tape: &[Instr], num_regs: usize, out_regs: &[u32]) -> Vec<[u32; 4]> {
        let end = tape.len() as u32;
        let mut next = vec![NONE; num_regs];
        for &r in out_regs {
            next[r as usize] = end;
        }
        let mut uses = vec![[NONE; 4]; tape.len()];
        for (i, &ins) in tape.iter().enumerate().rev() {
            let d = ins.dst() as usize;
            uses[i][3] = next[d];
            next[d] = NONE;
            let (regs, n) = reads(ins);
            for k in 0..n {
                uses[i][k] = next[regs[k] as usize];
            }
            for &r in &regs[..n] {
                next[r as usize] = i as u32;
            }
        }
        uses
    }

    /// Lowers the tape, in order, to one function
    /// `extern "C" fn(inputs: *const S, outputs: *mut S, consts: *const S)`
    /// that keeps values in registers, spills to its own stack frame, and
    /// reads `inputs` and writes `outputs` in place. Every instruction
    /// reads its operands before its one write; fused opcodes run as two
    /// rounded steps through `TMP`. Appends the function to `code` and
    /// returns its report, or `None` (with `code` untouched) if a
    /// displacement or the frame overflows 32 bits.
    fn lower(
        row: &'static Row,
        tape: &[Instr],
        num_regs: usize,
        out_regs: &[u32],
        negates: bool,
        code: &mut Vec<u8>,
    ) -> Option<JitReport> {
        let end = u32::try_from(tape.len()).ok()?;
        let mut regs = vec![
            TapeReg {
                phys: None,
                home: Home::Input,
                slot: None,
                first_out: NONE,
                stored_out: false,
            };
            num_regs
        ];
        let mut next_out = vec![NONE; out_regs.len()];
        for (o, &r) in out_regs.iter().enumerate().rev() {
            next_out[o] = regs[r as usize].first_out;
            regs[r as usize].first_out = o as u32;
        }
        let mut e = Lowering {
            row,
            code: Vec::with_capacity(12 * tape.len() + 64),
            end,
            held: [NONE; ALLOC],
            next: [NONE; ALLOC],
            dirty: [false; ALLOC],
            regs,
            next_out,
            slots: 0,
            spills: 0,
            reloads: 0,
        };
        if negates {
            // The float sign bit into every lane of `MASK`: `vmovd`/`vmovq`
            // from eax/rax, then `vpbroadcastq` for the 256-bit row.
            if row.single {
                e.code.push(0xB8); // mov eax, imm32
                e.code.extend_from_slice(&0x8000_0000_u32.to_le_bytes());
            } else {
                e.code.extend_from_slice(&[0x48, 0xB8]); // movabs rax, imm64
                e.code
                    .extend_from_slice(&0x8000_0000_0000_0000_u64.to_le_bytes());
            }
            let w = u8::from(!row.single);
            vex(&mut e.code, (1, 0, w, 1), 0x6E, MASK, 0, Rm::Reg(0));
            if row.l == 1 {
                vex(&mut e.code, (1, 1, 0, 2), 0x59, MASK, 0, Rm::Reg(MASK));
            }
        }
        let uses = next_reads(tape, num_regs, out_regs);
        for (&ins, u) in tape.iter().zip(&uses) {
            let (op1, konst, fused) = match ins {
                Instr::Const { idx, dst } => {
                    e.forget(dst);
                    e.regs[dst as usize].home = Home::Const(idx);
                    continue;
                }
                Instr::Mul { .. } => (OP_MUL, None, false),
                Instr::MulConst { idx, .. } => (OP_MUL, Some(idx), false),
                Instr::Add { .. } => (OP_ADD, None, false),
                Instr::Sub { .. } => (OP_SUB, None, false),
                Instr::Neg { .. } => (OP_XOR, None, false),
                Instr::MulAdd { .. } => (OP_MUL, None, true),
                Instr::MulConstAdd { idx, .. } => (OP_MUL, Some(idx), true),
                Instr::AddAdd { .. } => (OP_ADD, None, true),
                Instr::NegAdd { .. } => (OP_XOR, None, true),
            };
            let (src, n) = reads(ins);
            let mut pinned = 0;
            let pa = e.in_reg(src[0], &mut pinned)?;
            // The first step is `a <op> b`, `a · const`, or the negation
            // `mask ^ a`; a fused add's `c` is the last operand read.
            let (vvvv, rm1) = if op1 == OP_XOR {
                (MASK, Rm::Reg(pa))
            } else if let Some(k) = konst {
                (pa, Rm::Mem(CONSTS, disp(k, row.size)?))
            } else {
                (pa, e.operand(src[1], u[1], &mut pinned)?)
            };
            let rm2 = match fused {
                true => Some(e.operand(src[n - 1], u[n - 1], &mut pinned)?),
                false => None,
            };
            for k in 0..n {
                e.retire(src[k], u[k]);
            }
            let pd = e.define(ins.dst(), u[3])?;
            match rm2 {
                Some(rm2) => {
                    e.op(op1, TMP, vvvv, rm1);
                    e.op(OP_ADD, pd, TMP, rm2);
                }
                None => e.op(op1, pd, vvvv, rm1),
            }
            if u[3] == NONE {
                e.forget(ins.dst());
            }
        }
        for (o, &r) in out_regs.iter().enumerate() {
            let t = e.regs[r as usize];
            if t.stored_out {
                continue;
            }
            let p = match t.phys {
                Some(p) => p,
                None => {
                    let from = e.addr(r)?;
                    e.op(OP_LOAD, TMP, 0, from);
                    TMP
                }
            };
            let to = Rm::Mem(OUTPUTS, disp(o as u32, row.size)?);
            e.op(OP_STORE, p, 0, to);
        }

        // Frame: `sub rsp` in page steps, touching each page so no access
        // can skip the stack's guard page; the body; `add rsp`; `ret`.
        let frame = disp(e.slots, row.size)?;
        let start = code.len();
        code.reserve(e.code.len() + 32 + 12 * (frame as usize / PAGE));
        let mut left = frame;
        while left > 0 {
            let step = left.min(PAGE as i32);
            code.extend_from_slice(&[0x48, 0x81, 0xEC]); // sub rsp, imm32
            code.extend_from_slice(&step.to_le_bytes());
            if step == PAGE as i32 {
                code.extend_from_slice(&[0x48, 0x83, 0x0C, 0x24, 0x00]); // or qword [rsp], 0
            }
            left -= step;
        }
        code.extend_from_slice(&e.code);
        if row.l == 1 {
            code.extend_from_slice(&[0xC5, 0xF8, 0x77]); // vzeroupper
        }
        if frame > 0 {
            code.extend_from_slice(&[0x48, 0x81, 0xC4]); // add rsp, imm32
            code.extend_from_slice(&frame.to_le_bytes());
        }
        code.push(0xC3); // ret
        Some(JitReport {
            instrs: tape.len(),
            code_bytes: code.len() - start,
            spills: e.spills,
            reloads: e.reloads,
            mappings: 0,
        })
    }

    /// A compiled tape emitted as one contiguous native function, in a
    /// mapping shared with the rest of its batch.
    ///
    /// Cloning is cheap: the code mapping is `Arc`-shared.
    #[derive(Debug)]
    pub(crate) struct JitTape<S> {
        /// Keeps the executable mapping, shared by every tape of the batch
        /// it was emitted with, alive; `entry` points into it.
        code: Arc<CodeBuf>,
        entry: unsafe extern "C" fn(*const S, *mut S, *const S),
        /// The input, output and constant counts every emitted address
        /// was checked against.
        n_inputs: usize,
        n_outputs: usize,
        n_consts: usize,
        report: JitReport,
    }

    impl<S> Clone for JitTape<S> {
        fn clone(&self) -> Self {
            Self {
                code: Arc::clone(&self.code),
                entry: self.entry,
                n_inputs: self.n_inputs,
                n_outputs: self.n_outputs,
                n_consts: self.n_consts,
                report: self.report,
            }
        }
    }

    /// Function entries start on this boundary; the gaps hold `int3`.
    const ENTRY_ALIGN: usize = 16;

    impl<S: Scalar> JitTape<S> {
        /// Emits each tape as native code for `S`'s row, every function
        /// in one mapping: the code is assembled, mapped read+write,
        /// copied in, and flipped to read+execute once. Each tape's
        /// inputs are registers `0..n_inputs` and output `o` is register
        /// `outputs[o]` at the end. A tape's entry is `None` (it then runs
        /// the interpreter) if a displacement overflows; every entry is
        /// `None` if `S` has no row on this host or the mapping cannot be
        /// created or protected.
        ///
        /// # Panics
        ///
        /// Panics if a tape breaks an invariant `check_tape` states — a
        /// compiler invariant violation, never a user error.
        pub(crate) fn emit_all<T: Borrow<Tape>>(tapes: &[T]) -> Vec<Option<Self>> {
            let none = || tapes.iter().map(|_| None).collect();
            let Some(row) = row_for::<S>() else {
                return none();
            };
            let instrs = tapes.iter().map(|t| t.borrow().instrs.len()).sum();
            let _span = robo_trace::span_items("tape.jit.emit", instrs);
            let mut code = Vec::new();
            let mut funcs = Vec::with_capacity(tapes.len());
            {
                let _span = robo_trace::span_items("tape.jit.lower", instrs);
                for tape in tapes {
                    let tape = tape.borrow();
                    let out_regs: Vec<u32> = tape.outputs.iter().map(|(_, r)| *r).collect();
                    let n_consts = tape.const_values.len();
                    let n_inputs = tape.input_names.len();
                    let negates =
                        check_tape(&tape.instrs, tape.num_regs, n_inputs, n_consts, &out_regs);
                    code.resize(code.len().next_multiple_of(ENTRY_ALIGN), 0xCC); // int3
                    let start = code.len();
                    let report = lower(
                        row,
                        &tape.instrs,
                        tape.num_regs,
                        &out_regs,
                        negates,
                        &mut code,
                    );
                    funcs.push(report.map(|r| (start, r, n_inputs, out_regs.len(), n_consts)));
                }
            }
            if funcs.iter().all(Option::is_none) {
                return none();
            }
            let Some(buf) = CodeBuf::map_rw(code.len().div_ceil(PAGE) * PAGE) else {
                return none();
            };
            // SAFETY: `buf` is a fresh read+write mapping at least
            // `code.len()` bytes long, disjoint from `code`'s heap
            // allocation.
            unsafe { core::ptr::copy_nonoverlapping(code.as_ptr(), buf.ptr.as_ptr(), code.len()) };
            {
                let _span = robo_trace::span("tape.jit.protect");
                if !buf.protect_rx() {
                    return none();
                }
            }
            let buf = Arc::new(buf);
            let mut mappings = 1;
            funcs
                .into_iter()
                .map(|func| {
                    let (start, mut report, n_inputs, n_outputs, n_consts) = func?;
                    report.mappings = core::mem::take(&mut mappings);
                    // SAFETY: the mapping now holds, read+execute, a
                    // complete x86-64 function with the `extern "C"`
                    // signature `fn(*const S, *mut S, *const S)` starting
                    // `start` bytes in (emitted there by `lower` above, and
                    // `start < code.len()`); the pointer is its first
                    // instruction.
                    let entry = unsafe {
                        core::mem::transmute::<
                            *mut u8,
                            unsafe extern "C" fn(*const S, *mut S, *const S),
                        >(buf.ptr.as_ptr().add(start))
                    };
                    Some(Self {
                        code: Arc::clone(&buf),
                        entry,
                        n_inputs,
                        n_outputs,
                        n_consts,
                        report,
                    })
                })
                .collect()
        }

        /// Executes the emitted function: reads `inputs` and `consts`,
        /// writes `outputs` — bit-identical to the interpreter (identical
        /// operation semantics in identical order). Allocation-free.
        ///
        /// # Panics
        ///
        /// Panics unless `inputs`, `outputs` and `consts` have exactly the
        /// lengths the tape was checked against.
        pub(crate) fn run(&self, inputs: &[S], outputs: &mut [S], consts: &[S]) {
            assert_eq!(inputs.len(), self.n_inputs, "input slot count mismatch");
            assert_eq!(outputs.len(), self.n_outputs, "output count mismatch");
            assert_eq!(consts.len(), self.n_consts, "constant table mismatch");
            // SAFETY: `entry` is the function `emit` lowered from a tape
            // whose every input index is below `n_inputs`, every output
            // index below `n_outputs` and every constant index below
            // `n_consts`; it reads memory only at `inputs + slot·size` and
            // `consts + slot·size`, writes only `outputs + slot·size`, and
            // otherwise touches only its own stack frame, which it
            // allocates below `rsp` page by page (each page probed, so a
            // frame cannot skip the guard page) and releases before
            // `ret`. The assertions above put every slot in bounds; every
            // move accepts any alignment; the slices cannot overlap
            // (`outputs` is a unique borrow). `S`'s row exists on this
            // host (AVX, or AVX2 for the 256-bit row, was detected), and
            // `self.code` keeps the executable mapping alive for the
            // whole call.
            unsafe { (self.entry)(inputs.as_ptr(), outputs.as_mut_ptr(), consts.as_ptr()) }
        }

        /// Emitted-code statistics for this tape.
        pub(crate) fn report(&self) -> JitReport {
            self.report
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        /// A tape over `n_inputs` inputs and `n_consts` constants.
        fn tape(
            instrs: &[Instr],
            num_regs: usize,
            n_inputs: usize,
            n_consts: usize,
            outs: &[u32],
        ) -> Tape {
            Tape {
                name: "t".to_owned(),
                input_names: (0..n_inputs).map(|k| format!("x{k}")).collect(),
                const_values: vec![0.0; n_consts],
                instrs: instrs.to_vec(),
                num_regs,
                outputs: outs.iter().map(|r| (format!("r{r}"), *r)).collect(),
                fusion: Default::default(),
            }
        }

        fn emit(
            instrs: &[Instr],
            num_regs: usize,
            n_inputs: usize,
            n_consts: usize,
            outs: &[u32],
        ) -> JitTape<f64> {
            let tape = tape(instrs, num_regs, n_inputs, n_consts, outs);
            JitTape::emit_all(&[tape])
                .pop()
                .flatten()
                .expect("x86-64 Linux AVX host emits f64")
        }

        /// The emitted function's bytes.
        fn bytes(jit: &JitTape<f64>) -> &[u8] {
            // SAFETY: the function lies inside the mapping, which is
            // readable (read+execute) and alive as long as `jit`; it is
            // `code_bytes` long from its entry.
            unsafe { core::slice::from_raw_parts(jit.entry as *const u8, jit.report.code_bytes) }
        }

        #[test]
        fn a_batch_shares_one_mapping_and_each_entry_runs_its_own_tape() {
            let tapes: Vec<Tape> = (1..=3)
                .map(|k| {
                    let adds = vec![Instr::Add { a: 0, b: 1, dst: 1 }; k];
                    tape(&adds, 2, 2, 0, &[1])
                })
                .collect();
            let jits: Vec<JitTape<f64>> = JitTape::emit_all(&tapes)
                .into_iter()
                .map(|j| j.expect("emits"))
                .collect();
            let base = Arc::as_ptr(&jits[0].code);
            let mut entries = Vec::new();
            for (k, jit) in jits.iter().enumerate() {
                assert!(core::ptr::eq(Arc::as_ptr(&jit.code), base), "one mapping");
                assert_eq!(jit.report().mappings, usize::from(k == 0));
                assert_eq!(jit.entry as usize % ENTRY_ALIGN, 0);
                entries.push(jit.entry as usize);
                let mut out = [0.0];
                jit.run(&[1.0, 0.5], &mut out, &[]);
                assert_eq!(out[0], 0.5 + (k + 1) as f64);
            }
            entries.dedup();
            assert_eq!(entries.len(), 3);
            let total: JitReport = jits.iter().map(JitTape::report).sum();
            assert_eq!((total.instrs, total.mappings), (6, 1));
        }

        #[test]
        fn scalar_row_keeps_its_encoding() {
            // Inputs r0, r1; outputs (r0, r3). Every value fits in the
            // registers, so nothing spills; `c` of the fused op is `a`'s
            // register, which dies there and becomes the destination.
            let tape = [
                Instr::MulAdd {
                    a: 0,
                    b: 1,
                    c: 0,
                    dst: 2,
                },
                Instr::Neg { a: 2, dst: 3 },
                Instr::Sub { a: 3, b: 1, dst: 1 },
                Instr::MulConst {
                    a: 1,
                    idx: 0,
                    dst: 0,
                },
            ];
            let jit = emit(&tape, 4, 2, 1, &[0, 3]);
            let want: &[u8] = &[
                0x48, 0xB8, 0, 0, 0, 0, 0, 0, 0, 0x80, // movabs rax, sign bit
                0xC4, 0x61, 0xF9, 0x6E, 0xF8, // vmovq xmm15, rax
                0xC5, 0xFB, 0x10, 0x07, // vmovsd xmm0, [rdi]
                0xC5, 0xFB, 0x10, 0x4F, 0x08, // vmovsd xmm1, [rdi+8]
                0xC5, 0x7B, 0x59, 0xF1, // vmulsd xmm14, xmm0, xmm1
                0xC5, 0x8B, 0x58, 0xC0, // vaddsd xmm0, xmm14, xmm0
                0xC5, 0x80, 0x57, 0xC0, // vxorps xmm0, xmm15, xmm0
                0xC5, 0xFB, 0x5C, 0xC9, // vsubsd xmm1, xmm0, xmm1
                0xC5, 0xF3, 0x59, 0x0A, // vmulsd xmm1, xmm1, [rdx]
                0xC5, 0xFB, 0x11, 0x0E, // vmovsd [rsi], xmm1
                0xC5, 0xFB, 0x11, 0x46, 0x08, // vmovsd [rsi+8], xmm0
                0xC3, // ret
            ];
            assert_eq!(bytes(&jit), want);
            let report = jit.report();
            assert_eq!((report.instrs, report.spills, report.reloads), (4, 0, 0));
            let (x, y, k) = (1.25_f64, -0.75, 3.0);
            let mut out = [0.0; 2];
            jit.run(&[x, y], &mut out, &[k]);
            let r3 = -(x * y + x);
            assert_eq!(
                out.map(f64::to_bits),
                [((r3 - y) * k).to_bits(), r3.to_bits()]
            );
        }

        #[test]
        fn live_values_beyond_the_registers_spill_to_the_frame() {
            // 20 partial sums stay live until a final reduction: six more
            // than the allocatable registers, so some spill and reload.
            let n = 20;
            let mut tape: Vec<Instr> = (0..n)
                .map(|k| Instr::MulConst {
                    a: 0,
                    idx: k % 2,
                    dst: 1 + k,
                })
                .collect();
            tape.extend((2..=n).map(|k| Instr::Add { a: 1, b: k, dst: 1 }));
            let jit = emit(&tape, n as usize + 1, 1, 2, &[1]);
            let report = jit.report();
            assert!(report.spills > 0 && report.reloads > 0, "{report:?}");
            let mut out = [0.0];
            jit.run(&[1.5], &mut out, &[0.1, -3.0]);
            let want = (1..n).fold(1.5_f64 * 0.1, |acc, k| {
                acc + 1.5 * [0.1, -3.0][(k % 2) as usize]
            });
            assert_eq!(out[0].to_bits(), want.to_bits());
        }

        #[test]
        fn jit_survives_clone_and_original_drop() {
            // The clone shares the same code mapping; dropping the
            // original must keep it alive (Arc-shared).
            let tape: Vec<_> = (0..5).map(|_| Instr::Add { a: 0, b: 1, dst: 1 }).collect();
            let jit = emit(&tape, 2, 2, 0, &[1]);
            let clone = jit.clone();
            drop(jit);
            let mut out = [0.0];
            clone.run(&[1.0, 0.0], &mut out, &[]);
            assert_eq!(out[0], 5.0);
        }

        #[test]
        fn empty_tape_copies_inputs_to_outputs() {
            let jit = emit(&[], 1, 1, 0, &[0, 0]);
            let mut out = [0.0; 2];
            jit.run(&[7.0], &mut out, &[]);
            assert_eq!(out, [7.0, 7.0]);
            assert_eq!(jit.report().instrs, 0);
        }

        #[test]
        #[should_panic(expected = "output count mismatch")]
        fn run_rejects_short_output_slices() {
            let jit = emit(&[Instr::Add { a: 0, b: 1, dst: 2 }], 3, 2, 0, &[2]);
            jit.run(&[0.0; 2], &mut [], &[]);
        }

        #[test]
        #[should_panic(expected = "register index out of bounds")]
        fn emit_rejects_out_of_bounds_registers() {
            let _ = emit(&[Instr::Add { a: 0, b: 7, dst: 1 }], 2, 2, 0, &[]);
        }

        #[test]
        #[should_panic(expected = "register read before it is written")]
        fn emit_rejects_reads_of_unwritten_registers() {
            let _ = emit(&[Instr::Add { a: 0, b: 2, dst: 1 }], 3, 2, 0, &[]);
        }

        #[test]
        #[should_panic(expected = "constant index out of bounds")]
        fn emit_rejects_out_of_bounds_constants() {
            let _ = emit(&[Instr::Const { idx: 3, dst: 0 }], 2, 0, 2, &[]);
        }
    }
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub(crate) use native::JitTape;

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
mod fallback {
    use super::{JitReport, Tape};
    use robo_spatial::Scalar;

    /// Uninhabited stand-in on targets without the JIT backend:
    /// [`JitTape::emit_all`] always returns `None`s, so no value of this type
    /// ever exists and every tape runs the interpreter.
    #[derive(Debug)]
    pub(crate) struct JitTape<S> {
        never: core::convert::Infallible,
        marker: core::marker::PhantomData<fn(S)>,
    }

    impl<S> Clone for JitTape<S> {
        fn clone(&self) -> Self {
            match self.never {}
        }
    }

    impl<S: Scalar> JitTape<S> {
        /// No JIT backend on this target: every tape runs the
        /// interpreter.
        pub(crate) fn emit_all<T>(tapes: &[T]) -> Vec<Option<Self>> {
            tapes.iter().map(|_| None).collect()
        }

        /// Unreachable: no `JitTape` value exists on this target.
        pub(crate) fn run(&self, _inputs: &[S], _outputs: &mut [S], _consts: &[S]) {
            let _ = self.marker;
            match self.never {}
        }

        /// Unreachable: no `JitTape` value exists on this target.
        pub(crate) fn report(&self) -> JitReport {
            match self.never {}
        }
    }
}

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
pub(crate) use fallback::JitTape;
