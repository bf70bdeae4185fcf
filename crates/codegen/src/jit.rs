//! Copy-and-patch template JIT for direct-threaded tapes.
//!
//! The direct-threaded tape (`threaded.rs`) already collapsed the
//! interpreter's central dispatch into one indirect call per
//! superinstruction block, but two costs remain: the dispatch loop
//! still walks the block table between calls (its induction state
//! spills around every call), and every handler still loads its operand
//! indices from the `OpArgs` table and re-indexes the register file for
//! every instruction. This module removes those costs by stitching the
//! scheduled tape into **one contiguous native function**, with two
//! lowerings selected by scalar type:
//!
//! * **inline** (`f64` and `f32` — the serving-path types): every
//!   decoded instruction lowers to 2–4 SSE scalar instructions
//!   (`movsd`/`addsd`/`subsd`/`mulsd` and their single-precision
//!   forms) whose disp32 fields are patched with the operand's byte
//!   offset (register or constant slot × element size). The result is
//!   a straight-line leaf function — no dispatch, no calls, no
//!   operand-table traffic, no loop bookkeeping. Bit-exactness holds
//!   by construction: fused opcodes keep their two rounding steps
//!   (`mulsd` then `addsd`, never FMA), negation is the IEEE sign-bit
//!   flip (`xorps` against a hoisted sign mask — exactly what the
//!   compiler emits for the handlers' `-x`), and every operand is read
//!   before the single destination store, so destination-recycling
//!   instructions behave as in the interpreter.
//! * **call stubs** (every other scalar type — fixed point and the
//!   SIMD lane bundles): each scheduled block becomes a fixed 26-byte
//!   stub — pre-encoded template bytes patched with the block's
//!   operand-table displacement and its pre-compiled handler address
//!   (the same `extern "C"` handler bodies the threaded tape
//!   dispatches to, including the AVX2-attributed ones). Stubs are
//!   stitched with straight-line fallthrough, so every call site is
//!   monomorphic and the inter-block dispatch bookkeeping disappears.
//!   (On big out-of-order cores the indirect-target predictor tracks a
//!   looping tape's repeating call sequence well, so stubs alone
//!   roughly tie the threaded tape — the inline lowering above is
//!   where the scalar speedup comes from.)
//!
//! Both lowerings sit behind the same `eval_into_regs` interface, and
//! the `match` interpreter remains the bit-exactness oracle.
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
//! [`JitTape::emit`] returns `None` — and callers keep the threaded tape
//! — whenever the target is not x86-64 Linux, the `mmap` fails, the
//! `mprotect` flip fails, or an operand displacement would overflow a
//! template's 32-bit field. Every platform builds; only x86-64 Linux
//! ever executes emitted code.

/// Emitted-code statistics for one JIT-compiled tape, surfaced through
/// [`CompiledNetlist::jit_report`](crate::CompiledNetlist::jit_report)
/// and the `codegen_stats` experiment.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct JitReport {
    /// Superinstruction blocks stitched into the function.
    pub blocks: usize,
    /// Total machine-code bytes emitted.
    pub code_bytes: usize,
    /// Immediate fields patched into the instruction templates: operand
    /// displacements plus, per lowering, handler addresses and the
    /// operand-table base (stubs) or the sign-mask immediate (inline).
    pub patches: usize,
}

impl std::ops::Add for JitReport {
    type Output = Self;

    /// The report of two tapes taken together.
    fn add(self, rhs: Self) -> Self {
        Self {
            blocks: self.blocks + rhs.blocks,
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
    use super::JitReport;
    use crate::threaded::{OpArgs, OpFn, Opcode, ThreadedTape};
    use core::any::TypeId;
    use core::ptr::NonNull;
    use robo_spatial::Scalar;
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

    /// An anonymous private mapping holding the stitched function.
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

    // ------------------------------------------------------------------
    // Call-stub lowering: any scalar type.
    // ------------------------------------------------------------------

    /// Encoded byte sizes of the three stub templates below.
    const PROLOGUE_BYTES: usize = 22;
    const STUB_BYTES: usize = 26;
    const EPILOGUE_BYTES: usize = 7;

    /// Function prologue: save the three callee-saved scratch registers
    /// (also realigning the stack: entry `rsp ≡ 8 (mod 16)`, three
    /// pushes make every `call` site 16-byte aligned as the SysV ABI
    /// requires), park `regs` in `r14` and `consts` in `r15`, and load
    /// the operand-table base (a patched imm64) into `r12`.
    fn emit_prologue(code: &mut Vec<u8>, args_base: u64) {
        code.extend_from_slice(&[0x41, 0x54]); // push r12
        code.extend_from_slice(&[0x41, 0x56]); // push r14
        code.extend_from_slice(&[0x41, 0x57]); // push r15
        code.extend_from_slice(&[0x49, 0x89, 0xFE]); // mov r14, rdi
        code.extend_from_slice(&[0x49, 0x89, 0xF7]); // mov r15, rsi
        code.extend_from_slice(&[0x49, 0xBC]); // movabs r12, imm64
        code.extend_from_slice(&args_base.to_le_bytes());
    }

    /// One superinstruction-block call stub: reload the handler's three
    /// `extern "C"` arguments (`rdi` = regs, `rsi` = consts, `rdx` =
    /// `&args[at]` as base + patched disp32) and call the patched
    /// handler address. Every stub's call site has exactly one target,
    /// so each is a perfectly predicted monomorphic call — unlike the
    /// threaded loop's single dispatch site cycling every handler.
    fn emit_stub(code: &mut Vec<u8>, handler: u64, disp: i32) {
        code.extend_from_slice(&[0x4C, 0x89, 0xF7]); // mov rdi, r14
        code.extend_from_slice(&[0x4C, 0x89, 0xFE]); // mov rsi, r15
        code.extend_from_slice(&[0x49, 0x8D, 0x94, 0x24]); // lea rdx, [r12 + disp32]
        code.extend_from_slice(&disp.to_le_bytes());
        code.extend_from_slice(&[0x48, 0xB8]); // movabs rax, imm64
        code.extend_from_slice(&handler.to_le_bytes());
        code.extend_from_slice(&[0xFF, 0xD0]); // call rax
    }

    /// Function epilogue: restore the callee-saved registers and return.
    fn emit_epilogue(code: &mut Vec<u8>) {
        code.extend_from_slice(&[0x41, 0x5F]); // pop r15
        code.extend_from_slice(&[0x41, 0x5E]); // pop r14
        code.extend_from_slice(&[0x41, 0x5C]); // pop r12
        code.push(0xC3); // ret
    }

    /// Lowers every scheduled block to a call stub against the threaded
    /// tape's handler table. Returns the code bytes and the patch
    /// count, or `None` if an operand displacement overflows the stub's
    /// 32-bit field.
    fn emit_stubbed<S>(blocks: &[(OpFn<S>, u32)], args_base: u64) -> Option<(Vec<u8>, usize)> {
        let code_bytes = PROLOGUE_BYTES + STUB_BYTES * blocks.len() + EPILOGUE_BYTES;
        let mut code = Vec::with_capacity(code_bytes);
        let mut patches = 0usize;
        emit_prologue(&mut code, args_base);
        patches += 1; // the operand-table base imm64
        for &(f, at) in blocks {
            let disp = i32::try_from(at as usize * core::mem::size_of::<OpArgs>()).ok()?;
            emit_stub(&mut code, f as usize as u64, disp);
            patches += 2; // handler imm64 + operand disp32
        }
        emit_epilogue(&mut code);
        debug_assert_eq!(code.len(), code_bytes);
        Some((code, patches))
    }

    // ------------------------------------------------------------------
    // Inline SSE lowering: f64 / f32.
    // ------------------------------------------------------------------

    /// ModRM byte addressing `[rdi + disp32]` (the register file) with
    /// xmm0 (mod=10 disp32, reg=xmm0, rm=rdi).
    const RM_REGS: u8 = 0x87;
    /// ModRM byte addressing `[rsi + disp32]` (the constant table) with
    /// xmm0 (mod=10 disp32, reg=xmm0, rm=rsi).
    const RM_CONSTS: u8 = 0x86;
    /// SSE opcode bytes for `adds*`/`muls*`/`subs*` `xmm0, m`.
    const OP_ADD: u8 = 0x58;
    const OP_MUL: u8 = 0x59;
    const OP_SUB: u8 = 0x5C;

    /// Template parameters of the inline lowering for one float type:
    /// the SSE scalar-size prefix (`F2` = double, `F3` = single) and
    /// the element size the slot displacements scale by.
    struct InlineEnc {
        prefix: u8,
        elem: usize,
    }

    /// Picks the inline lowering for `S`: `f64`/`f32` lower each tape
    /// instruction to native SSE scalar arithmetic; every other scalar
    /// type keeps the call-stub lowering (`None`).
    fn inline_enc<S: Scalar>() -> Option<InlineEnc> {
        if TypeId::of::<S>() == TypeId::of::<f64>() {
            Some(InlineEnc {
                prefix: 0xF2,
                elem: 8,
            })
        } else if TypeId::of::<S>() == TypeId::of::<f32>() {
            Some(InlineEnc {
                prefix: 0xF3,
                elem: 4,
            })
        } else {
            None
        }
    }

    impl InlineEnc {
        /// Appends (and counts as a patch) the disp32 for `slot`.
        /// `None` if `slot · elem` overflows the 32-bit field.
        fn disp(&self, code: &mut Vec<u8>, patches: &mut usize, slot: u32) -> Option<()> {
            let d = i32::try_from(slot as usize * self.elem).ok()?;
            code.extend_from_slice(&d.to_le_bytes());
            *patches += 1;
            Some(())
        }

        /// `movsd/movss xmm0, [base + slot·elem]`.
        fn load(&self, code: &mut Vec<u8>, patches: &mut usize, rm: u8, slot: u32) -> Option<()> {
            code.extend_from_slice(&[self.prefix, 0x0F, 0x10, rm]);
            self.disp(code, patches, slot)
        }

        /// `adds*/muls*/subs* xmm0, [base + slot·elem]` (`op` is one of
        /// [`OP_ADD`]/[`OP_MUL`]/[`OP_SUB`]).
        fn arith(
            &self,
            code: &mut Vec<u8>,
            patches: &mut usize,
            op: u8,
            rm: u8,
            slot: u32,
        ) -> Option<()> {
            code.extend_from_slice(&[self.prefix, 0x0F, op, rm]);
            self.disp(code, patches, slot)
        }

        /// `movsd/movss [rdi + slot·elem], xmm0` — the instruction's
        /// single destination store, always into the register file.
        fn store(&self, code: &mut Vec<u8>, patches: &mut usize, slot: u32) -> Option<()> {
            code.extend_from_slice(&[self.prefix, 0x0F, 0x11, RM_REGS]);
            self.disp(code, patches, slot)
        }

        /// `xorps xmm0, xmm2` — IEEE negation as a sign-bit flip against
        /// the hoisted mask (bitwise, so it is exact for every value
        /// including NaNs, matching the compiler's lowering of `-x`).
        fn negate(&self, code: &mut Vec<u8>) {
            code.extend_from_slice(&[0x0F, 0x57, 0xC2]);
        }

        /// Hoisted sign-mask prologue: materializes the float sign bit
        /// in xmm2 once, for every `Neg`/`NegAdd` in the tape.
        fn emit_mask(&self, code: &mut Vec<u8>, patches: &mut usize) {
            if self.elem == 8 {
                code.extend_from_slice(&[0x48, 0xB8]); // movabs rax, imm64
                code.extend_from_slice(&0x8000_0000_0000_0000_u64.to_le_bytes());
                code.extend_from_slice(&[0x66, 0x48, 0x0F, 0x6E, 0xD0]); // movq xmm2, rax
            } else {
                code.push(0xB8); // mov eax, imm32
                code.extend_from_slice(&0x8000_0000_u32.to_le_bytes());
                code.extend_from_slice(&[0x66, 0x0F, 0x6E, 0xD0]); // movd xmm2, eax
            }
            *patches += 1; // the sign-mask immediate
        }
    }

    /// Lowers the decoded instruction list to straight-line SSE scalar
    /// code: per instruction, an xmm0 load of the first operand, 0–2
    /// arithmetic ops folding the remaining operands straight from
    /// memory, and the destination store — all reads before the single
    /// write, fused opcodes as two rounded steps, exactly the handler
    /// semantics. Returns the code bytes and the patch count, or `None`
    /// if a displacement overflows 32 bits.
    fn emit_inline(enc: &InlineEnc, ops: &[Opcode], args: &[OpArgs]) -> Option<(Vec<u8>, usize)> {
        // ≤ 32 bytes per instruction (4 × 8-byte memory ops) + mask
        // prologue and ret: one allocation for the whole function.
        let mut code = Vec::with_capacity(32 * ops.len() + 16);
        let mut patches = 0usize;
        if ops
            .iter()
            .any(|o| matches!(o, Opcode::Neg | Opcode::NegAdd))
        {
            enc.emit_mask(&mut code, &mut patches);
        }
        for (&op, a) in ops.iter().zip(args) {
            match op {
                Opcode::Const => {
                    enc.load(&mut code, &mut patches, RM_CONSTS, a.a)?;
                }
                Opcode::Mul => {
                    enc.load(&mut code, &mut patches, RM_REGS, a.a)?;
                    enc.arith(&mut code, &mut patches, OP_MUL, RM_REGS, a.b)?;
                }
                Opcode::MulConst => {
                    enc.load(&mut code, &mut patches, RM_REGS, a.a)?;
                    enc.arith(&mut code, &mut patches, OP_MUL, RM_CONSTS, a.b)?;
                }
                Opcode::Add => {
                    enc.load(&mut code, &mut patches, RM_REGS, a.a)?;
                    enc.arith(&mut code, &mut patches, OP_ADD, RM_REGS, a.b)?;
                }
                Opcode::Sub => {
                    enc.load(&mut code, &mut patches, RM_REGS, a.a)?;
                    enc.arith(&mut code, &mut patches, OP_SUB, RM_REGS, a.b)?;
                }
                Opcode::Neg => {
                    enc.load(&mut code, &mut patches, RM_REGS, a.a)?;
                    enc.negate(&mut code);
                }
                Opcode::MulAdd => {
                    enc.load(&mut code, &mut patches, RM_REGS, a.a)?;
                    enc.arith(&mut code, &mut patches, OP_MUL, RM_REGS, a.b)?;
                    enc.arith(&mut code, &mut patches, OP_ADD, RM_REGS, a.c)?;
                }
                Opcode::MulConstAdd => {
                    enc.load(&mut code, &mut patches, RM_REGS, a.a)?;
                    enc.arith(&mut code, &mut patches, OP_MUL, RM_CONSTS, a.b)?;
                    enc.arith(&mut code, &mut patches, OP_ADD, RM_REGS, a.c)?;
                }
                Opcode::AddAdd => {
                    enc.load(&mut code, &mut patches, RM_REGS, a.a)?;
                    enc.arith(&mut code, &mut patches, OP_ADD, RM_REGS, a.b)?;
                    enc.arith(&mut code, &mut patches, OP_ADD, RM_REGS, a.c)?;
                }
                Opcode::NegAdd => {
                    enc.load(&mut code, &mut patches, RM_REGS, a.a)?;
                    enc.negate(&mut code);
                    enc.arith(&mut code, &mut patches, OP_ADD, RM_REGS, a.c)?;
                }
            }
            enc.store(&mut code, &mut patches, a.dst)?;
        }
        code.push(0xC3); // ret — leaf function, no saved registers
        Some((code, patches))
    }

    /// A threaded tape stitched into one contiguous native function.
    ///
    /// Cloning is cheap: the code mapping and the operand table are
    /// `Arc`-shared, and the emitted code embeds their absolute
    /// addresses, so both must (and do) stay stable across clones.
    #[derive(Debug)]
    pub(crate) struct JitTape<S> {
        /// Keeps the executable mapping alive; `entry` points into it.
        code: Arc<CodeBuf>,
        /// Owned copy of the decoded operands. The stub lowering embeds
        /// this allocation's absolute address in the emitted code, so
        /// the tape must own it (the threaded tape's `Vec` would
        /// relocate on clone). The inline lowering reads it only at
        /// emit time.
        args: Arc<[OpArgs]>,
        entry: unsafe extern "C" fn(*mut S, *const S),
        min_regs: usize,
        n_consts: usize,
        report: JitReport,
    }

    impl<S> Clone for JitTape<S> {
        fn clone(&self) -> Self {
            Self {
                code: Arc::clone(&self.code),
                args: Arc::clone(&self.args),
                entry: self.entry,
                min_regs: self.min_regs,
                n_consts: self.n_consts,
                report: self.report,
            }
        }
    }

    impl<S: Scalar> JitTape<S> {
        /// Stitches `threaded`'s scheduled tape into one native
        /// function — inline SSE arithmetic for `f64`/`f32`, call stubs
        /// against the handler table for every other scalar type.
        /// Returns `None` (callers keep the threaded tape) if the
        /// mapping cannot be created or protected, or an operand
        /// displacement overflows a template's 32-bit field.
        pub(crate) fn emit(threaded: &ThreadedTape<S>) -> Option<Self> {
            let blocks = threaded.blocks();
            let _span = robo_trace::span_items("tape.jit.emit", blocks.len());

            let args: Arc<[OpArgs]> = threaded.op_args().into();
            let (code, patches) = {
                let _span = robo_trace::span_items("tape.jit.patch", blocks.len());
                match inline_enc::<S>() {
                    Some(enc) => emit_inline(&enc, threaded.op_codes(), &args)?,
                    None => emit_stubbed(blocks, args.as_ptr() as u64)?,
                }
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
            // x86-64 function with the `extern "C"` signature
            // `fn(*mut S, *const S)` (emitted by `emit_inline` or
            // `emit_stubbed` above); the pointer is its first
            // instruction.
            let entry = unsafe {
                core::mem::transmute::<*mut u8, unsafe extern "C" fn(*mut S, *const S)>(
                    buf.ptr.as_ptr(),
                )
            };
            Some(Self {
                code: Arc::new(buf),
                args,
                entry,
                min_regs: threaded.min_regs(),
                n_consts: threaded.n_consts(),
                report: JitReport {
                    blocks: blocks.len(),
                    code_bytes,
                    patches,
                },
            })
        }

        /// Executes the stitched function over `regs`, reading constants
        /// from `consts` — same contract and panics as
        /// `ThreadedTape::run`, and bit-identical results (identical
        /// operation semantics in identical order). Allocation-free.
        ///
        /// # Panics
        ///
        /// Panics if `regs` is shorter than the register file the source
        /// tape was validated against, or `consts` is not exactly the
        /// validated constant-table length.
        pub(crate) fn run(&self, regs: &mut [S], consts: &[S]) {
            assert!(regs.len() >= self.min_regs, "register file too small");
            assert_eq!(consts.len(), self.n_consts, "constant table mismatch");
            // The mapping `entry` points into:
            let _ = &self.code;
            // SAFETY: `entry` is the function emitted over this tape's
            // instruction list: it only touches `regs`/`consts` at
            // build-validated offsets (inline lowering) or calls
            // build-validated `OpFn` handlers with
            // `regs`/`consts`/`&args[at]` (stub lowering); the
            // assertions above re-establish the buffer bounds every
            // operand index was validated against, `self.args` pins the
            // operand table at the embedded address, and `self.code`
            // keeps the executable mapping alive for the whole call.
            unsafe { (self.entry)(regs.as_mut_ptr(), consts.as_ptr()) }
        }

        /// Emitted-code statistics for this tape.
        pub(crate) fn report(&self) -> JitReport {
            self.report
        }
    }
}

#[cfg(all(target_arch = "x86_64", target_os = "linux"))]
pub(crate) use native::JitTape;

#[cfg(not(all(target_arch = "x86_64", target_os = "linux")))]
mod fallback {
    use super::JitReport;
    use crate::threaded::ThreadedTape;
    use robo_spatial::Scalar;

    /// Uninhabited stand-in on targets without the JIT backend:
    /// [`JitTape::emit`] always returns `None`, so no value of this type
    /// ever exists and callers stay on the threaded tape.
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
        pub(crate) fn emit(_threaded: &ThreadedTape<S>) -> Option<Self> {
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

#[cfg(test)]
mod tests {
    #[cfg(all(target_arch = "x86_64", target_os = "linux"))]
    mod native {
        use crate::jit::JitTape;
        use crate::threaded::{Opcode, ThreadedTape};

        #[test]
        fn jit_matches_threaded_execution() {
            // A mixed tape exercising const loads, a fusable MAC run
            // (×4/×2/×1 tiling), negation (the hoisted sign mask), and
            // a single.
            let mut decoded = vec![
                Opcode::Const.args(0, 0, 0, 0),
                Opcode::Const.args(1, 0, 0, 1),
                Opcode::Const.args(0, 0, 0, 2),
            ];
            decoded.extend((0..7).map(|_| Opcode::MulAdd.args(0, 1, 2, 2)));
            decoded.push(Opcode::Neg.args(2, 0, 0, 3));
            decoded.push(Opcode::Sub.args(2, 3, 0, 4));

            let threaded = ThreadedTape::<f64>::build(&decoded, 5, 2);
            let jit = JitTape::emit(&threaded).expect("x86-64 Linux host emits");
            let consts = [1.5, 0.25];

            let mut regs_t = [0.0; 5];
            threaded.run(&mut regs_t, &consts);
            let mut regs_j = [0.0; 5];
            jit.run(&mut regs_j, &consts);
            assert_eq!(
                regs_t.map(f64::to_bits),
                regs_j.map(f64::to_bits),
                "JIT must be bit-identical to the threaded tape"
            );

            // f64 takes the inline lowering. Expected bytes/patches:
            // sign-mask prologue 15 B / 1 patch (the tape has a Neg),
            // 3 × Const at 16 B / 2, 7 × MulAdd at 32 B / 4, Neg at
            // 19 B / 2, Sub at 24 B / 3, plus the 1-byte ret — every
            // 8-byte load/arith/store carries one disp32 patch.
            let report = jit.report();
            assert_eq!(report.blocks, threaded.block_count());
            assert_eq!(report.code_bytes, 15 + 3 * 16 + 7 * 32 + 19 + 24 + 1);
            assert_eq!(report.patches, 1 + 3 * 2 + 7 * 4 + 2 + 3);
        }

        #[test]
        fn inline_f32_covers_every_opcode() {
            // One instruction per opcode, chained so later results
            // depend on earlier ones (any mis-encoded displacement or
            // operand order changes the bits).
            let decoded = [
                Opcode::Const.args(0, 0, 0, 0),
                Opcode::Const.args(1, 0, 0, 1),
                Opcode::Mul.args(0, 1, 0, 2),
                Opcode::MulConst.args(2, 1, 0, 3),
                Opcode::Add.args(2, 3, 0, 4),
                Opcode::Sub.args(4, 0, 0, 5),
                Opcode::Neg.args(5, 0, 0, 6),
                Opcode::MulAdd.args(5, 6, 4, 6),
                Opcode::MulConstAdd.args(6, 0, 3, 7),
                Opcode::AddAdd.args(6, 7, 5, 7),
                Opcode::NegAdd.args(7, 0, 2, 7),
            ];
            let threaded = ThreadedTape::<f32>::build(&decoded, 8, 2);
            let jit = JitTape::emit(&threaded).expect("x86-64 Linux host emits");
            let consts = [1.375_f32, -0.5];

            let mut regs_t = [0.0_f32; 8];
            threaded.run(&mut regs_t, &consts);
            let mut regs_j = [0.0_f32; 8];
            jit.run(&mut regs_j, &consts);
            assert_eq!(
                regs_t.map(f32::to_bits),
                regs_j.map(f32::to_bits),
                "f32 inline JIT must be bit-identical to the threaded tape"
            );
        }

        #[test]
        fn stub_lowering_keeps_template_shape() {
            // Non-float scalars (here a SIMD lane bundle) take the
            // call-stub lowering, whose template sizes are fixed:
            // 22-byte prologue + 26 bytes per block + 7-byte epilogue,
            // with 2 patches per stub plus the operand-table base.
            use robo_spatial::simd::F64x4;
            let decoded: Vec<_> = (0..11).map(|_| Opcode::MulAdd.args(0, 1, 2, 2)).collect();
            let threaded = ThreadedTape::<F64x4>::build(&decoded, 3, 0);
            let jit = JitTape::emit(&threaded).expect("x86-64 Linux host emits");

            let report = jit.report();
            assert_eq!(report.blocks, threaded.block_count());
            assert_eq!(report.patches, 2 * report.blocks + 1);
            assert_eq!(report.code_bytes, 22 + 26 * report.blocks + 7);

            // And the stitched stubs execute the same handlers.
            let mut regs_t = [F64x4::splat(2.0), F64x4::splat(1.0), F64x4::splat(1.0)];
            threaded.run(&mut regs_t, &[]);
            let mut regs_j = [F64x4::splat(2.0), F64x4::splat(1.0), F64x4::splat(1.0)];
            jit.run(&mut regs_j, &[]);
            assert_eq!(regs_t, regs_j);
        }

        #[test]
        fn jit_survives_clone_and_original_drop() {
            // The clone shares the same code mapping; dropping the
            // original must keep it alive (Arc-shared).
            let decoded: Vec<_> = (0..5).map(|_| Opcode::Add.args(0, 1, 0, 1)).collect();
            let threaded = ThreadedTape::<f64>::build(&decoded, 2, 0);
            let jit = JitTape::emit(&threaded).expect("x86-64 Linux host emits");
            let clone = jit.clone();
            drop(jit);
            let mut regs = [1.0, 0.0];
            clone.run(&mut regs, &[]);
            assert_eq!(regs[1], 5.0);
        }

        #[test]
        fn empty_tape_emits_a_trivial_function() {
            let threaded = ThreadedTape::<f64>::build(&[], 1, 0);
            let jit = JitTape::emit(&threaded).expect("x86-64 Linux host emits");
            let mut regs = [7.0];
            jit.run(&mut regs, &[]);
            assert_eq!(regs[0], 7.0);
            assert_eq!(jit.report().blocks, 0);
        }

        #[test]
        #[should_panic(expected = "register file too small")]
        fn run_rejects_short_register_files() {
            let decoded = [Opcode::Add.args(0, 1, 0, 2)];
            let threaded = ThreadedTape::<f64>::build(&decoded, 3, 0);
            let jit = JitTape::emit(&threaded).expect("x86-64 Linux host emits");
            jit.run(&mut [0.0; 2], &[]);
        }
    }
}
