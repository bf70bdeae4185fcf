//! Spatial (6-D) vector algebra for rigid body dynamics.
//!
//! This crate is the mathematical substrate of the robomorphic-computing
//! workspace. It provides, generically over a [`Scalar`] type:
//!
//! * [`Vec3`] / [`Mat3`] — ordinary 3-D linear algebra;
//! * [`Motion`] / [`Force`] — Featherstone spatial vectors with the motion
//!   (`×`) and force (`×*`) cross products;
//! * [`Transform`] — Plücker coordinate transforms stored structurally as a
//!   rotation plus translation (the `ᵢX_λᵢ` matrices of the paper, whose
//!   sparsity patterns the accelerator prunes);
//! * [`SpatialInertia`] — rigid-body inertias (the `Iᵢ` matrices, whose
//!   entries become hardware constants);
//! * [`Mat6`] / [`MatN`] — dense matrices for composite inertias, the
//!   joint-space mass matrix, and its LDLᵀ-based inverse.
//!
//! The [`Scalar`] trait is implemented by `f32`/`f64` here and by the
//! Q-format fixed-point types in the `robo-fixed` crate, so every algorithm
//! built on this crate can run in the accelerator's arithmetic.
//!
//! # Example
//!
//! ```
//! use robo_spatial::{Mat3, Motion, Transform, Vec3};
//!
//! // Velocity propagation across a joint: v_child = X v_parent + S q̇.
//! let x = Transform::<f64>::new(Mat3::coord_rotation_z(0.3), Vec3::new(0.0, 0.0, 0.4));
//! let v_parent = Motion::new(Vec3::new(0.0, 0.0, 1.0), Vec3::zero());
//! let s_qd = Motion::new(Vec3::new(0.0, 0.0, 2.0), Vec3::zero());
//! let v_child = x.apply_motion(v_parent) + s_qd;
//! assert!((v_child.ang.z - 3.0).abs() < 1e-12);
//! ```

#![warn(missing_docs)]
// Index-based loops over fixed-size matrix dimensions are clearer than
// iterator chains in this numerical code.
#![allow(clippy::needless_range_loop)]

mod inertia;
mod lanes;
mod mat3;
mod mat6;
mod matn;
mod motion;
mod scalar;
mod tier;
mod transform;
mod vec3;
mod wide;

pub use inertia::SpatialInertia;
pub use lanes::{Lanes, SERVE_LANES};
pub use mat3::Mat3;
pub use mat6::Mat6;
pub use matn::{FactorizeError, Ldlt, MatN};
pub use motion::{Force, Motion};
pub use scalar::Scalar;
pub use tier::ExecTier;
pub use transform::Transform;
pub use vec3::Vec3;
pub use wide::WideScalar;
