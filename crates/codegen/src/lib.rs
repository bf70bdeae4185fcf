//! Code generation for robomorphic accelerators.
//!
//! §7 of the paper sketches the automation path: "the design of the
//! parameterized hardware template can be automated using a
//! domain-specific language and a high-level synthesis flow ... users can
//! then create accelerators without intervention from roboticists or
//! hardware engineers". This crate is that flow's back end:
//!
//! * [`Netlist`] — an executable structural IR for generated functional
//!   units, with a text format ([`Netlist::to_text`] / [`Netlist::parse`])
//!   and an evaluator generic over any
//!   [`Scalar`](robo_spatial::Scalar) — so every generated circuit can be
//!   run against the software reference;
//! * [`generate_x_unit`] / [`generate_xt_unit`] — emit the pruned `X·` /
//!   `Xᵀ·` transform units (Figure 7) for any joint of any robot,
//!   constant-folding ±1/0 coefficients;
//! * [`generate_kernel_netlist`] / [`generate_kernel_family`] — merge the
//!   RNEA / FD / ∇ID kernel datapaths into one shared-subexpression
//!   netlist with per-kernel namespaced outputs, with shared-vs-dedicated
//!   resource accounting in a [`SharingReport`];
//! * [`optimize`] — IR passes (constant folding, identity simplification,
//!   CSE, dead-node elimination) that prune the netlist the way §5.2
//!   prunes the RTL, with pre/post [`NetlistStats`] via [`OptReport`];
//! * [`CompiledNetlist`] — the serving-path evaluator: inputs interned to
//!   dense slots, constants hoisted per scalar type, a flat register-
//!   recycling tape with allocation-free [`CompiledNetlist::eval_into`]
//!   and batched [`CompiledNetlist::eval_batch`];
//! * [`to_verilog`] / [`lint`] — lowers netlists to Q-format Verilog and
//!   structurally checks the result;
//! * [`generate_top`] — emits the Figure 8 top level: limb processors,
//!   per-link ∂q/∂q̇ datapaths, the fused `−M⁻¹` lanes, the interstage
//!   SRAM, and the §7 torso synchronizer for multi-limb robots.
//!
//! The flow is *build → optimize → compile → simulate/lower*: the same
//! optimized netlist feeds both the Verilog backend and the simulator's
//! compiled functional units (`robo-sim`).
//!
//! # Example
//!
//! ```
//! use robo_codegen::{generate_x_unit, optimize, to_verilog, lint, RtlFormat};
//! use robo_model::robots;
//!
//! let robot = robots::iiwa14();
//! let unit = generate_x_unit(&robot, 1); // the §4 example joint
//! assert_eq!(unit.stats().muls, 13);     // 13 DSP multipliers, not 36
//!
//! let verilog = to_verilog(&optimize(&unit), RtlFormat::q16_16());
//! lint(&verilog).expect("structurally valid RTL");
//! ```

#![warn(missing_docs)]
// Index-based loops over fixed-size matrix dimensions are clearer than
// iterator chains in this numerical code.
#![allow(clippy::needless_range_loop)]

mod compiled;
mod jit;
mod netlist;
mod opt;
mod top;
mod verilog;
mod xunit_gen;

pub use compiled::{
    BatchEvalWorkspace, CompiledNetlist, EvalWorkspace, FusionCounts, TieredBatchEval,
};
pub use jit::JitReport;
pub use netlist::{Netlist, NetlistError, NetlistStats, Node, NodeId};
pub use opt::{optimize, optimize_with_report, OptReport};
pub use top::{generate_top, TopLevel};
pub use verilog::{lint, to_verilog, RtlFormat};
pub use xunit_gen::{
    generate_dx_unit_with_mask, generate_kernel_family, generate_kernel_netlist,
    generate_x_pipeline, generate_x_unit, generate_x_unit_with_mask, generate_xt_unit,
    generate_xt_unit_with_mask, snap, x_unit_input_names, x_unit_output_names, SharingReport,
};
