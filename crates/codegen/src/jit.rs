//! Copy-and-patch template JIT: every compiled tape becomes one
//! straight-line native function.
//!
//! The `match` interpreter (`CompiledNetlist::eval_into_regs_interp`)
//! pays a dispatch branch per instruction and a bounds check per operand.
//! This module removes both by lowering the fused tape, in fusion order —
//! the interpreter's own order — into one leaf function: each
//! instruction becomes 2–4 SIMD/SSE instructions (`mov`/`add`/`sub`/`mul`
//! and their lane forms) whose disp32 fields are patched with the
//! operand's byte offset (register or constant slot × element size). No
//! dispatch, no calls, no operand-table traffic, no loop bookkeeping.
//!
//! # One encoder, one row per float lane type
//!
//! The instruction shapes are the same for every float type; only the
//! prefix bytes, the slot size and the sign-mask set-up differ. Each
//! lowered type is one `Row`:
//!
//! | type | encoding | slot | operands |
//! |---|---|---|---|
//! | `f64` / `f32` | scalar SSE (`F2`/`F3 0F`) | 8 / 4 B | any alignment |
//! | `F64x2` / `F32x4` | packed SSE (`66 0F` / `0F`) | 16 B | 16-byte aligned by their `repr` |
//! | `F64x4`, `Lanes<f64, 4>` / `F32x8`, `Lanes<f32, 8>` (AVX2 hosts) | VEX.256 (`C5 FD` / `C5 FC`) | 32 B | any alignment |
//!
//! Bit-exactness holds by construction, in every row: fused opcodes keep
//! their two rounding steps (a multiply then an add, never FMA), negation
//! is the IEEE sign-bit flip (`xorps`/`vxorps` against a hoisted,
//! broadcast sign mask — exactly what the compiler emits for `-x`), and
//! every operand is read before the single destination store, so
//! destination-recycling instructions behave as in the interpreter. The
//! VEX rows end in `vzeroupper` so callers never pay an AVX→SSE
//! transition.
//!
//! # Safety argument
//!
//! [`JitTape::emit`] checks every register index against the register
//! file size and every constant index against the constant table length,
//! and panics on a violation (a compiler bug, never a user error). Every
//! patched displacement is therefore inside the buffers whose lengths
//! [`JitTape::run`] re-asserts on each call, and the emitted code touches
//! memory only through the `regs` (`rdi`) and `consts` (`rsi`) pointers
//! it is handed.
//!
//! # W^X lifecycle
//!
//! Code lives in an anonymous private mapping obtained with raw Linux
//! syscalls (`mmap`/`mprotect`/`munmap` — `libc` is deliberately not a
//! dependency). The mapping is created read+write, filled, and then
//! flipped to read+execute before the entry pointer is ever formed; it
//! is **never writable and executable at the same time**, and the flip
//! is a full `mprotect` so there is no writable alias left behind. x86
//! instruction caches are coherent with stores from the same core after
//! an `mprotect` round trip, so no explicit icache flush is needed.
//!
//! # Fallback rules
//!
//! [`JitTape::emit`] returns `None` — and the tape runs the interpreter —
//! whenever the target is not x86-64 Linux, the scalar type has no row
//! on this host (fixed point, other `Lanes` widths, the 32-byte types
//! without AVX2), the `mmap` or the `mprotect` flip fails, or an operand
//! displacement would overflow the 32-bit field.

use crate::compiled::Instr;

/// Emitted-code statistics for one JIT-compiled tape, surfaced through
/// [`CompiledNetlist::jit_report`](crate::CompiledNetlist::jit_report)
/// and the `codegen_stats` experiment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JitReport {
    /// Tape instructions lowered into the function.
    pub instrs: usize,
    /// Total machine-code bytes emitted.
    pub code_bytes: usize,
    /// Immediate fields patched into the instruction templates: one
    /// disp32 per operand and destination, plus the sign-mask immediate
    /// when the tape negates.
    pub patches: usize,
}

impl std::ops::Add for JitReport {
    type Output = Self;

    /// The report of two tapes taken together.
    fn add(self, rhs: Self) -> Self {
        Self {
            instrs: self.instrs + rhs.instrs,
            code_bytes: self.code_bytes + rhs.code_bytes,
            patches: self.patches + rhs.patches,
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
    use super::{Instr, JitReport};
    use core::any::TypeId;
    use core::ptr::NonNull;
    use robo_spatial::simd::{F32x4, F32x8, F64x2, F64x4};
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

    // SAFETY: after construction (`JitTape::emit` finishes before any
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

    /// ModRM byte addressing `[rdi + disp32]` (the register file) with
    /// xmm0/ymm0 (mod=10 disp32, reg=0, rm=rdi).
    const RM_REGS: u8 = 0x87;
    /// ModRM byte addressing `[rsi + disp32]` (the constant table) with
    /// xmm0/ymm0 (mod=10 disp32, reg=0, rm=rsi).
    const RM_CONSTS: u8 = 0x86;
    /// Opcode bytes (after the row's prefix) for `mov* x0, m`,
    /// `mov* m, x0`, and `add*`/`mul*`/`sub* x0, m`.
    const OP_LOAD: u8 = 0x10;
    const OP_STORE: u8 = 0x11;
    const OP_ADD: u8 = 0x58;
    const OP_MUL: u8 = 0x59;
    const OP_SUB: u8 = 0x5C;

    /// How one float lane type lowers: everything the encoder varies by
    /// type. The instruction shapes — load, fold the remaining operands
    /// from memory, store — are shared by every row.
    #[derive(Debug)]
    struct Row {
        /// Bytes per register or constant slot: `size_of::<S>()`.
        size: usize,
        /// Minimum alignment the row's memory operands need: 16 for
        /// legacy packed SSE, 1 otherwise.
        align: usize,
        /// Prefix and opcode-map bytes before every load/arith/store
        /// opcode byte: legacy SSE `[F2|F3|66] 0F`, or two-byte VEX.256.
        prefix: &'static [u8],
        /// Whether the lanes are 32-bit: selects the sign-mask immediate
        /// (`mov eax, imm32` vs `movabs rax, imm64`).
        single: bool,
        /// Moves the sign-mask immediate from `rax`/`eax` into
        /// xmm2/ymm2, broadcast across every lane.
        mask: &'static [u8],
        /// `xmm0 ^= xmm2` (or the ymm form): negation as a sign flip.
        negate: &'static [u8],
        /// Bytes before `ret`: `vzeroupper` for the VEX rows.
        exit: &'static [u8],
    }

    /// `movq xmm2, rax`.
    const MOVQ: [u8; 5] = [0x66, 0x48, 0x0F, 0x6E, 0xD0];
    /// `movd xmm2, eax`.
    const MOVD: [u8; 4] = [0x66, 0x0F, 0x6E, 0xD0];
    /// `xorps xmm0, xmm2`.
    const XORPS: [u8; 3] = [0x0F, 0x57, 0xC2];

    /// `f64`: scalar SSE2 (`movsd`/`addsd`/`mulsd`/`subsd`).
    const SD: Row = Row {
        size: 8,
        align: 1,
        prefix: &[0xF2, 0x0F],
        single: false,
        mask: &MOVQ,
        negate: &XORPS,
        exit: &[],
    };
    /// `f32`: scalar SSE (`movss`/`addss`/`mulss`/`subss`).
    const SS: Row = Row {
        size: 4,
        align: 1,
        prefix: &[0xF3, 0x0F],
        single: true,
        mask: &MOVD,
        negate: &XORPS,
        exit: &[],
    };
    /// `F64x2`: packed SSE2 (`movupd`/`addpd`/…); mask broadcast by
    /// `pshufd xmm2, xmm2, 0x44`.
    const PD: Row = Row {
        size: 16,
        align: 16,
        prefix: &[0x66, 0x0F],
        single: false,
        mask: &[0x66, 0x48, 0x0F, 0x6E, 0xD0, 0x66, 0x0F, 0x70, 0xD2, 0x44],
        negate: &XORPS,
        exit: &[],
    };
    /// `F32x4`: packed SSE (`movups`/`addps`/…); mask broadcast by
    /// `pshufd xmm2, xmm2, 0`.
    const PS: Row = Row {
        size: 16,
        align: 16,
        prefix: &[0x0F],
        single: true,
        mask: &[0x66, 0x0F, 0x6E, 0xD0, 0x66, 0x0F, 0x70, 0xD2, 0x00],
        negate: &XORPS,
        exit: &[],
    };
    /// Four `f64` lanes: VEX.256 (`vmovupd`/`vaddpd`/…); mask by
    /// `vmovq xmm2, rax` + `vpbroadcastq ymm2, xmm2`.
    const VPD: Row = Row {
        size: 32,
        align: 1,
        prefix: &[0xC5, 0xFD],
        single: false,
        mask: &[0xC4, 0xE1, 0xF9, 0x6E, 0xD0, 0xC4, 0xE2, 0x7D, 0x59, 0xD2],
        negate: &[0xC5, 0xFC, 0x57, 0xC2],
        exit: &[0xC5, 0xF8, 0x77],
    };
    /// Eight `f32` lanes: VEX.256 (`vmovups`/`vaddps`/…); mask by
    /// `vmovd xmm2, eax` + `vpbroadcastd ymm2, xmm2`.
    const VPS: Row = Row {
        size: 32,
        align: 1,
        prefix: &[0xC5, 0xFC],
        single: true,
        mask: &[0xC5, 0xF9, 0x6E, 0xD0, 0xC4, 0xE2, 0x7D, 0x58, 0xD2],
        negate: &[0xC5, 0xFC, 0x57, 0xC2],
        exit: &[0xC5, 0xF8, 0x77],
    };

    /// The row that lowers `S` on this host, or `None` when `S` runs the
    /// interpreter. The 32-byte rows need AVX2; the portable
    /// `Lanes<f64, 4>`/`Lanes<f32, 8>` share them because
    /// `repr(transparent)` gives them the native bundles' layout.
    ///
    /// # Panics
    ///
    /// Panics if `S`'s size or alignment disagrees with its row — the
    /// displacement scaling and the legacy-SSE alignment rule depend on
    /// both.
    fn row_for<S: Scalar>() -> Option<&'static Row> {
        let is = |t: TypeId| TypeId::of::<S>() == t;
        let row = if is(TypeId::of::<f64>()) {
            &SD
        } else if is(TypeId::of::<f32>()) {
            &SS
        } else if is(TypeId::of::<F64x2>()) {
            &PD
        } else if is(TypeId::of::<F32x4>()) {
            &PS
        } else if !std::arch::is_x86_feature_detected!("avx2") {
            return None;
        } else if is(TypeId::of::<F64x4>()) || is(TypeId::of::<Lanes<f64, 4>>()) {
            &VPD
        } else if is(TypeId::of::<F32x8>()) || is(TypeId::of::<Lanes<f32, 8>>()) {
            &VPS
        } else {
            return None;
        };
        assert_eq!(core::mem::size_of::<S>(), row.size, "JIT row size mismatch");
        assert!(
            core::mem::align_of::<S>() >= row.align,
            "JIT row alignment mismatch"
        );
        Some(row)
    }

    /// Panics unless every register index in `tape` is below `num_regs`
    /// and every constant index below `n_consts` — the bounds every
    /// patched displacement relies on.
    fn check_bounds(tape: &[Instr], num_regs: usize, n_consts: usize) {
        let reg = |r: u32| assert!((r as usize) < num_regs, "register index out of bounds");
        for &ins in tape {
            reg(ins.dst());
            ins.for_each_read(&reg);
            if let Instr::Const { idx, .. }
            | Instr::MulConst { idx, .. }
            | Instr::MulConstAdd { idx, .. } = ins
            {
                assert!((idx as usize) < n_consts, "constant index out of bounds");
            }
        }
    }

    /// The code under construction for one row.
    struct Emitter {
        row: &'static Row,
        code: Vec<u8>,
        patches: usize,
    }

    impl Emitter {
        /// `prefix op modrm disp32` with `disp32 = slot · size`; `None`
        /// if the displacement overflows 32 bits.
        fn mem(&mut self, op: u8, rm: u8, slot: u32) -> Option<()> {
            let disp = i32::try_from(slot as usize * self.row.size).ok()?;
            self.code.extend_from_slice(self.row.prefix);
            self.code.extend_from_slice(&[op, rm]);
            self.code.extend_from_slice(&disp.to_le_bytes());
            self.patches += 1;
            Some(())
        }

        /// Loads register `a` into x0.
        fn load(&mut self, a: u32) -> Option<()> {
            self.mem(OP_LOAD, RM_REGS, a)
        }

        /// `x0 = x0 <op> regs[r]`.
        fn reg(&mut self, op: u8, r: u32) -> Option<()> {
            self.mem(op, RM_REGS, r)
        }

        /// `x0 = x0 <op> consts[k]`.
        fn konst(&mut self, op: u8, k: u32) -> Option<()> {
            self.mem(op, RM_CONSTS, k)
        }

        fn negate(&mut self) {
            self.code.extend_from_slice(self.row.negate);
        }

        /// Hoisted sign-mask prologue: the float sign bit in every lane
        /// of x2, once, for every `Neg`/`NegAdd` in the tape.
        fn sign_mask(&mut self) {
            if self.row.single {
                self.code.push(0xB8); // mov eax, imm32
                self.code.extend_from_slice(&0x8000_0000_u32.to_le_bytes());
            } else {
                self.code.extend_from_slice(&[0x48, 0xB8]); // movabs rax, imm64
                self.code
                    .extend_from_slice(&0x8000_0000_0000_0000_u64.to_le_bytes());
            }
            self.code.extend_from_slice(self.row.mask);
            self.patches += 1;
        }
    }

    /// Lowers the tape, in order, to one leaf function
    /// `extern "C" fn(regs: *mut S, consts: *const S)`: per instruction,
    /// a load of the first operand into x0, 0–2 arithmetic ops folding
    /// the remaining operands straight from memory, and the destination
    /// store — all reads before the single write, fused opcodes as two
    /// rounded steps. Returns the code and the patch count, or `None` if
    /// a displacement overflows 32 bits.
    fn lower(row: &'static Row, tape: &[Instr]) -> Option<(Vec<u8>, usize)> {
        // ≤ 4 memory ops of ≤ 8 bytes plus a negation per instruction,
        // and the mask prologue and epilogue: one allocation.
        let mut e = Emitter {
            row,
            code: Vec::with_capacity(40 * tape.len() + 32),
            patches: 0,
        };
        if tape
            .iter()
            .any(|i| matches!(i, Instr::Neg { .. } | Instr::NegAdd { .. }))
        {
            e.sign_mask();
        }
        for &ins in tape {
            match ins {
                Instr::Const { idx, .. } => e.konst(OP_LOAD, idx)?,
                Instr::Mul { a, b, .. } => {
                    e.load(a)?;
                    e.reg(OP_MUL, b)?;
                }
                Instr::MulConst { a, idx, .. } => {
                    e.load(a)?;
                    e.konst(OP_MUL, idx)?;
                }
                Instr::Add { a, b, .. } => {
                    e.load(a)?;
                    e.reg(OP_ADD, b)?;
                }
                Instr::Sub { a, b, .. } => {
                    e.load(a)?;
                    e.reg(OP_SUB, b)?;
                }
                Instr::Neg { a, .. } => {
                    e.load(a)?;
                    e.negate();
                }
                Instr::MulAdd { a, b, c, .. } => {
                    e.load(a)?;
                    e.reg(OP_MUL, b)?;
                    e.reg(OP_ADD, c)?;
                }
                Instr::MulConstAdd { a, idx, c, .. } => {
                    e.load(a)?;
                    e.konst(OP_MUL, idx)?;
                    e.reg(OP_ADD, c)?;
                }
                Instr::AddAdd { a, b, c, .. } => {
                    e.load(a)?;
                    e.reg(OP_ADD, b)?;
                    e.reg(OP_ADD, c)?;
                }
                Instr::NegAdd { a, c, .. } => {
                    e.load(a)?;
                    e.negate();
                    e.reg(OP_ADD, c)?;
                }
            }
            e.mem(OP_STORE, RM_REGS, ins.dst())?;
        }
        e.code.extend_from_slice(row.exit);
        e.code.push(0xC3); // ret — leaf function, no saved registers
        Some((e.code, e.patches))
    }

    /// A compiled tape emitted as one contiguous native function.
    ///
    /// Cloning is cheap: the code mapping is `Arc`-shared.
    #[derive(Debug)]
    pub(crate) struct JitTape<S> {
        /// Keeps the executable mapping alive; `entry` points into it.
        code: Arc<CodeBuf>,
        entry: unsafe extern "C" fn(*mut S, *const S),
        /// Register-file length every register index was checked
        /// against.
        min_regs: usize,
        /// Constant-table length every constant index was checked
        /// against.
        n_consts: usize,
        report: JitReport,
    }

    impl<S> Clone for JitTape<S> {
        fn clone(&self) -> Self {
            Self {
                code: Arc::clone(&self.code),
                entry: self.entry,
                min_regs: self.min_regs,
                n_consts: self.n_consts,
                report: self.report,
            }
        }
    }

    impl<S: Scalar> JitTape<S> {
        /// Emits `tape` as native code for `S`'s row. Returns `None` (the
        /// tape then runs the interpreter) if `S` has no row on this
        /// host, a displacement overflows, or the mapping cannot be
        /// created or protected.
        ///
        /// # Panics
        ///
        /// Panics if any instruction references a register `>= num_regs`
        /// or a constant `>= n_consts` — a compiler invariant violation,
        /// never a user error.
        pub(crate) fn emit(tape: &[Instr], num_regs: usize, n_consts: usize) -> Option<Self> {
            let row = row_for::<S>()?;
            let _span = robo_trace::span_items("tape.jit.emit", tape.len());
            check_bounds(tape, num_regs, n_consts);
            let (code, patches) = {
                let _span = robo_trace::span_items("tape.jit.patch", tape.len());
                lower(row, tape)?
            };
            let code_bytes = code.len();

            let buf = CodeBuf::map_rw(code_bytes.div_ceil(PAGE) * PAGE)?;
            // SAFETY: `buf` is a fresh read+write mapping at least
            // `code.len()` bytes long, disjoint from `code`'s heap
            // allocation.
            unsafe { core::ptr::copy_nonoverlapping(code.as_ptr(), buf.ptr.as_ptr(), code.len()) };
            {
                let _span = robo_trace::span("tape.jit.protect");
                if !buf.protect_rx() {
                    return None;
                }
            }
            // SAFETY: the mapping now holds, read+execute, a complete
            // x86-64 leaf function with the `extern "C"` signature
            // `fn(*mut S, *const S)` (emitted by `lower` above); the
            // pointer is its first instruction.
            let entry = unsafe {
                core::mem::transmute::<*mut u8, unsafe extern "C" fn(*mut S, *const S)>(
                    buf.ptr.as_ptr(),
                )
            };
            Some(Self {
                code: Arc::new(buf),
                entry,
                min_regs: num_regs,
                n_consts,
                report: JitReport {
                    instrs: tape.len(),
                    code_bytes,
                    patches,
                },
            })
        }

        /// Executes the emitted function over `regs`, reading constants
        /// from `consts` — bit-identical to the interpreter (identical
        /// operation semantics in identical order). Allocation-free.
        ///
        /// # Panics
        ///
        /// Panics if `regs` is shorter than the register file the tape
        /// was checked against, or `consts` is not exactly the checked
        /// constant-table length.
        pub(crate) fn run(&self, regs: &mut [S], consts: &[S]) {
            assert!(regs.len() >= self.min_regs, "register file too small");
            assert_eq!(consts.len(), self.n_consts, "constant table mismatch");
            // SAFETY: `entry` is the function `emit` lowered from a tape
            // whose every register index is below `min_regs` and every
            // constant index below `n_consts`; it touches memory only at
            // `regs + slot·size` and `consts + slot·size`, which the
            // assertions above put in bounds, with the alignment
            // `row_for` asserted `S` provides. `S`'s row exists on this
            // host (AVX2 was detected for the VEX rows), and `self.code`
            // keeps the executable mapping alive for the whole call.
            unsafe { (self.entry)(regs.as_mut_ptr(), consts.as_ptr()) }
        }

        /// Emitted-code statistics for this tape.
        pub(crate) fn report(&self) -> JitReport {
            self.report
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;

        fn emit(tape: &[Instr], num_regs: usize, n_consts: usize) -> JitTape<f64> {
            JitTape::emit(tape, num_regs, n_consts).expect("x86-64 Linux host emits f64")
        }

        #[test]
        fn scalar_row_keeps_its_template_bytes() {
            // Const loads, a MAC chain, a negation (the hoisted sign
            // mask) and a subtraction. Expected bytes/patches: sign-mask
            // prologue 15 B / 1, 3 × Const at 16 B / 2, 7 × MulAdd at
            // 32 B / 4, Neg at 19 B / 2, Sub at 24 B / 3, and the
            // 1-byte ret — every 8-byte memory op carries one disp32.
            let mut tape = vec![
                Instr::Const { idx: 0, dst: 0 },
                Instr::Const { idx: 1, dst: 1 },
                Instr::Const { idx: 0, dst: 2 },
            ];
            tape.extend((0..7).map(|_| Instr::MulAdd {
                a: 0,
                b: 1,
                c: 2,
                dst: 2,
            }));
            tape.push(Instr::Neg { a: 2, dst: 3 });
            tape.push(Instr::Sub { a: 2, b: 3, dst: 4 });
            let jit = emit(&tape, 5, 2);
            let mut regs = [0.0; 5];
            jit.run(&mut regs, &[1.5, 0.25]);
            // r2 ← 1.5·0.25 + r2 seven times from 1.5.
            let r2 = (0..7).fold(1.5, |acc, _| 1.5 * 0.25 + acc);
            assert_eq!(
                regs.map(f64::to_bits),
                [1.5, 0.25, r2, -r2, 2.0 * r2].map(f64::to_bits)
            );
            let report = jit.report();
            assert_eq!(report.instrs, tape.len());
            assert_eq!(report.code_bytes, 15 + 3 * 16 + 7 * 32 + 19 + 24 + 1);
            assert_eq!(report.patches, 1 + 3 * 2 + 7 * 4 + 2 + 3);
        }

        #[test]
        fn jit_survives_clone_and_original_drop() {
            // The clone shares the same code mapping; dropping the
            // original must keep it alive (Arc-shared).
            let tape: Vec<_> = (0..5).map(|_| Instr::Add { a: 0, b: 1, dst: 1 }).collect();
            let jit = emit(&tape, 2, 0);
            let clone = jit.clone();
            drop(jit);
            let mut regs = [1.0, 0.0];
            clone.run(&mut regs, &[]);
            assert_eq!(regs[1], 5.0);
        }

        #[test]
        fn empty_tape_emits_a_trivial_function() {
            let jit = emit(&[], 1, 0);
            let mut regs = [7.0];
            jit.run(&mut regs, &[]);
            assert_eq!(regs[0], 7.0);
            assert_eq!(jit.report().instrs, 0);
        }

        #[test]
        #[should_panic(expected = "register file too small")]
        fn run_rejects_short_register_files() {
            let jit = emit(&[Instr::Add { a: 0, b: 1, dst: 2 }], 3, 0);
            jit.run(&mut [0.0; 2], &[]);
        }

        #[test]
        #[should_panic(expected = "register index out of bounds")]
        fn emit_rejects_out_of_bounds_registers() {
            let _ = emit(&[Instr::Add { a: 0, b: 7, dst: 1 }], 2, 0);
        }

        #[test]
        #[should_panic(expected = "constant index out of bounds")]
        fn emit_rejects_out_of_bounds_constants() {
            let _ = emit(&[Instr::Const { idx: 3, dst: 0 }], 2, 2);
        }
    }
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub(crate) use native::JitTape;

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
mod fallback {
    use super::{Instr, JitReport};
    use robo_spatial::Scalar;

    /// Uninhabited stand-in on targets without the JIT backend:
    /// [`JitTape::emit`] always returns `None`, so no value of this type
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
        /// No JIT backend on this target: always `None`.
        pub(crate) fn emit(_tape: &[Instr], _num_regs: usize, _n_consts: usize) -> Option<Self> {
            None
        }

        /// Unreachable: no `JitTape` value exists on this target.
        pub(crate) fn run(&self, _regs: &mut [S], _consts: &[S]) {
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
