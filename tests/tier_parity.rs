//! Bit-identity of the batch and JIT execution paths.
//!
//! Three promises pin the serving stack to the scalar semantics:
//!
//! * **Lanes ≡ scalar.** A batch evaluated through the one batch
//!   workspace, `Lanes<S, SERVE_LANES>`, must reproduce per-state scalar
//!   `eval_into` bit for bit — including the ragged scalar tail. Every
//!   batch holds at least one full lane group, so for `f64` on an AVX2
//!   host the transposed gather/scatter runs. Exercised for `f64` and
//!   `f32`, on both the §4 X-unit tape and the merged full-pipeline tape.
//!
//! * **JIT ≡ interpreter.** `CompiledNetlist::compile` emits every
//!   `f64` and `f32` tape as one native function (the copy-and-patch
//!   template JIT), and on AVX2 hosts the tape widened to
//!   `Lanes<f64, 4>` too; `eval_into_regs` runs it and must match the
//!   `match`-dispatch oracle (`eval_into_regs_interp`) bit for bit — on
//!   the X-unit, full-pipeline, and fused multifunction family tapes,
//!   through both the scalar path and the batch path (ragged tail
//!   included). `Lanes<f32, 4>` and `Fix32_16` have no inline lowering:
//!   they run the interpreter and still match.
//!
//! * **Default executor ≡ interpreter.** `threaded_matches_interp_*` keep
//!   the names they had when `eval_into_regs` ran the direct-threaded
//!   tape. They pin whichever executor `eval_into_regs` now picks (the
//!   emitted function, or the interpreter loop for `Fix32_16`) to the
//!   oracle on the scalar path over a wider input range, (−3, 3) for the
//!   float types.
//!
//! Inputs mix ordinary values with ±0.0 — the one input where a sign-flip
//! negation and `0 − x` differ — and `f64`/`f32` subnormals. All
//! comparisons go through `to_f64().to_bits()` so even a `-0.0` vs `0.0`
//! discrepancy is caught.

use proptest::prelude::*;
use robomorphic::codegen::{
    generate_kernel_family, generate_x_pipeline, generate_x_unit_with_mask, optimize,
    BatchEvalWorkspace, CompiledNetlist, EvalWorkspace,
};
use robomorphic::engine::KernelKind;
use robomorphic::fixed::Fix32_16;
use robomorphic::model::robots;
use robomorphic::sparsity::superposition_pattern;
use robomorphic::spatial::{ExecTier, Lanes, Scalar, SERVE_LANES};

/// A tape input: mostly ordinary magnitudes in (−`max`, `max`), mixed with
/// ±0.0 and an `f64` and an `f32` subnormal.
fn input_value(max: f64) -> impl Strategy<Value = f64> {
    (0_u32..10, -max..max).prop_map(|(pick, x)| match pick {
        0 => -0.0,
        1 => 0.0,
        2 => 1.0e-310,
        3 => -3.0e-39,
        _ => x,
    })
}

/// Exact bit pattern of a scalar, through the (lossless for all supported
/// types) `f64` representation.
fn bits<S: Scalar>(x: S) -> u64 {
    x.to_f64().to_bits()
}

/// The §4 example joint's X-unit tape, compiled for scalar type `S`.
fn xunit_tape<S: Scalar>() -> CompiledNetlist<S> {
    let robot = robots::iiwa14();
    let sup = superposition_pattern(&robot);
    CompiledNetlist::compile(&optimize(&generate_x_unit_with_mask(&robot, 1, sup)))
}

/// The merged all-joints pipeline tape — long enough that the batch path
/// runs long emitted functions and full gather/scatter groups.
fn pipeline_tape<S: Scalar>() -> CompiledNetlist<S> {
    let robot = robots::iiwa14();
    let sup = superposition_pattern(&robot);
    CompiledNetlist::compile(&optimize(&generate_x_pipeline(&robot, sup)))
}

/// Batch evaluation through the serving lane workspace must match
/// per-state scalar evaluation bit for bit, ragged tail included.
fn tier_parity<S: Scalar>(tape: &CompiledNetlist<S>, vals: &[f64], count: usize) {
    assert!(
        count >= SERVE_LANES,
        "the batch must hold a full lane group"
    );
    let n_in = tape.input_names().len();
    let n_out = tape.num_outputs();
    let states: Vec<Vec<S>> = (0..count)
        .map(|i| {
            (0..n_in)
                .map(|k| S::from_f64(vals[(i * n_in + k) % vals.len()]))
                .collect()
        })
        .collect();
    let refs: Vec<&[S]> = states.iter().map(|s| s.as_slice()).collect();

    let mut ws = EvalWorkspace::for_netlist(tape);
    let mut want = vec![S::zero(); count * n_out];
    for (i, s) in states.iter().enumerate() {
        tape.eval_into(s, &mut ws, &mut want[i * n_out..(i + 1) * n_out]);
    }

    let mut batch = BatchEvalWorkspace::<Lanes<S, SERVE_LANES>>::for_netlist(tape);
    let mut got = vec![S::zero(); count * n_out];
    batch.eval_batch_into(tape, &refs, &mut got);
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        assert_eq!(
            bits(*g),
            bits(*w),
            "{}: output {} of state {} diverged",
            S::name(),
            i % n_out,
            i / n_out,
        );
    }
}

/// The merged RNEA / FD / ∇ID multifunction family tape — the largest
/// tape in the workspace.
fn family_tape<S: Scalar>() -> CompiledNetlist<S> {
    let robot = robots::iiwa14();
    let sup = superposition_pattern(&robot);
    let (netlist, _report, _sharing) = generate_kernel_family(&robot, sup, &KernelKind::ALL)
        .expect("distinct kernels never collide on output names");
    CompiledNetlist::compile(&netlist)
}

/// `eval_into_regs` — the emitted function if the tape has one, else the
/// interpreter loop — must match the `match` oracle bit for bit.
fn oracle_parity<S: Scalar>(tape: &CompiledNetlist<S>, vals: &[f64]) {
    let n_in = tape.input_names().len();
    let n_out = tape.num_outputs();
    let inputs: Vec<S> = (0..n_in)
        .map(|k| S::from_f64(vals[k % vals.len()]))
        .collect();
    let mut regs = vec![S::zero(); tape.num_regs()];
    let mut run = vec![S::zero(); n_out];
    let mut interp = vec![S::zero(); n_out];
    tape.eval_into_regs(&inputs, &mut regs, &mut run);
    tape.eval_into_regs_interp(&inputs, &mut regs, &mut interp);
    for (o, (r, i)) in run.iter().zip(&interp).enumerate() {
        assert_eq!(bits(*r), bits(*i), "output {o} diverged from the oracle");
    }
}

/// The emitted function must match the `match` oracle bit for bit,
/// through both the scalar path and the batch path (whose widened tape
/// is emitted at `Lanes<S, SERVE_LANES>` where that has a row; the
/// ragged tail runs the scalar tape). `emits` says whether `S` has an
/// inline lowering, `wide_emits` whether `Lanes<S, SERVE_LANES>` does.
fn jit_parity<S: Scalar>(
    tape: CompiledNetlist<S>,
    vals: &[f64],
    count: usize,
    emits: bool,
    wide_emits: bool,
) {
    // The JIT is mandatory where the platform supports it — a silent
    // fallback on x86-64 Linux would turn this whole test into an
    // interpreter-vs-interpreter no-op.
    if cfg!(all(target_arch = "x86_64", target_os = "linux")) {
        assert_eq!(tape.jit_report().is_some(), emits, "{}", S::name());
        let wide = tape.widen::<SERVE_LANES>();
        assert_eq!(
            wide.jit_report().is_some(),
            wide_emits,
            "{}",
            <Lanes<S, SERVE_LANES>>::name()
        );
    }

    // Scalar path: `eval_into_regs` runs the emitted function.
    oracle_parity(&tape, vals);

    // Batch path: the emitted tapes must still reproduce per-state
    // scalar evaluation (itself oracle-checked above) bit for bit —
    // `count` is small so lane-width tails are ragged.
    tier_parity(&tape, vals, count);
}

/// Whether `Lanes<f64, 4>` has its VEX.256 row on this host.
fn avx2() -> bool {
    ExecTier::detect() == ExecTier::Avx2
}

/// Whether `f64` and `f32` have their scalar VEX rows on this host.
fn avx() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("avx");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    #[test]
    fn tiers_match_scalar_f64_xunit(
        vals in prop::collection::vec(input_value(2.0), 16..48),
        count in 4_usize..13,
    ) {
        tier_parity::<f64>(&xunit_tape(), &vals, count);
    }

    #[test]
    fn tiers_match_scalar_f32_xunit(
        vals in prop::collection::vec(input_value(2.0), 16..48),
        count in 4_usize..13,
    ) {
        tier_parity::<f32>(&xunit_tape(), &vals, count);
    }

    #[test]
    fn tiers_match_scalar_f64_pipeline(
        vals in prop::collection::vec(input_value(2.0), 16..80),
        count in 4_usize..11,
    ) {
        tier_parity::<f64>(&pipeline_tape(), &vals, count);
    }

    #[test]
    fn tiers_match_scalar_f32_pipeline(
        vals in prop::collection::vec(input_value(2.0), 16..80),
        count in 4_usize..11,
    ) {
        tier_parity::<f32>(&pipeline_tape(), &vals, count);
    }

    #[test]
    fn threaded_matches_interp_f64(vals in prop::collection::vec(input_value(3.0), 8..64)) {
        oracle_parity::<f64>(&xunit_tape(), &vals);
        oracle_parity::<f64>(&pipeline_tape(), &vals);
    }

    #[test]
    fn threaded_matches_interp_f32(vals in prop::collection::vec(input_value(3.0), 8..64)) {
        oracle_parity::<f32>(&xunit_tape(), &vals);
        oracle_parity::<f32>(&pipeline_tape(), &vals);
    }

    #[test]
    fn threaded_matches_interp_fixed(vals in prop::collection::vec(input_value(2.0), 8..64)) {
        oracle_parity::<Fix32_16>(&xunit_tape(), &vals);
        oracle_parity::<Fix32_16>(&pipeline_tape(), &vals);
    }

    #[test]
    fn jit_matches_interp_f64(
        vals in prop::collection::vec(input_value(2.0), 16..80),
        count in 4_usize..11,
    ) {
        jit_parity::<f64>(xunit_tape(), &vals, count, avx(), avx2());
        jit_parity::<f64>(pipeline_tape(), &vals, count, avx(), avx2());
        jit_parity::<f64>(family_tape(), &vals, count, avx(), avx2());
    }

    #[test]
    fn jit_matches_interp_f32(
        vals in prop::collection::vec(input_value(2.0), 16..80),
        count in 4_usize..11,
    ) {
        jit_parity::<f32>(xunit_tape(), &vals, count, avx(), false);
        jit_parity::<f32>(pipeline_tape(), &vals, count, avx(), false);
        jit_parity::<f32>(family_tape(), &vals, count, avx(), false);
    }

    #[test]
    fn jit_matches_interp_fixed(
        vals in prop::collection::vec(input_value(2.0), 16..80),
        count in 4_usize..11,
    ) {
        jit_parity::<Fix32_16>(xunit_tape(), &vals, count, false, false);
        jit_parity::<Fix32_16>(pipeline_tape(), &vals, count, false, false);
        jit_parity::<Fix32_16>(family_tape(), &vals, count, false, false);
    }
}
