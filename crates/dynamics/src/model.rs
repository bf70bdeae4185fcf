//! A robot model pre-converted to a given scalar type for dynamics.

use robo_model::{JointType, RobotModel};
use robo_spatial::{Lanes, Motion, Scalar, SpatialInertia, Transform, Vec3};

/// Standard gravitational acceleration (m/s²).
pub const STANDARD_GRAVITY: f64 = 9.81;

/// A kinematic tree prepared for dynamics computations in scalar type `S`.
///
/// Construction casts all per-robot constants (tree placements `X_T`, link
/// inertias `Iᵢ`, motion subspaces `Sᵢ`) into `S` once, mirroring how the
/// accelerator bakes them into functional-unit constants at customization
/// time. All dynamics algorithms in this crate take a `DynamicsModel`.
///
/// # Examples
///
/// ```
/// use robo_dynamics::DynamicsModel;
/// use robo_model::robots;
///
/// let model = DynamicsModel::<f64>::new(&robots::iiwa14());
/// assert_eq!(model.dof(), 7);
/// ```
#[derive(Debug, Clone)]
pub struct DynamicsModel<S> {
    parents: Vec<Option<usize>>,
    joints: Vec<JointType>,
    trees: Vec<Transform<S>>,
    inertias: Vec<SpatialInertia<S>>,
    subspaces: Vec<Motion<S>>,
    /// Bit `j` of `ancestor_mask[i]` is set iff `j` is an ancestor of `i`
    /// or `j == i`.
    ancestor_mask: Vec<u64>,
    base_acceleration: Motion<S>,
}

impl<S: Scalar> DynamicsModel<S> {
    /// Prepares `robot` for dynamics with standard gravity along −z.
    ///
    /// # Panics
    ///
    /// Panics if the robot has more than 64 links (the ancestor bit-mask
    /// representation's limit; far above any robot in the paper).
    pub fn new(robot: &RobotModel) -> Self {
        Self::with_gravity(robot, Vec3::new(0.0, 0.0, -STANDARD_GRAVITY))
    }

    /// Prepares `robot` with an explicit gravity vector (world frame).
    ///
    /// Gravity is realized, as is standard for the RNEA, by giving the base
    /// a fictitious upward acceleration `a₀ = −g`.
    ///
    /// # Panics
    ///
    /// Panics if the robot has more than 64 links.
    pub fn with_gravity(robot: &RobotModel, gravity: Vec3<f64>) -> Self {
        let n = robot.dof();
        assert!(n <= 64, "robots with more than 64 links are not supported");
        let mut ancestor_mask = vec![0u64; n];
        for i in 0..n {
            let mut mask = 1u64 << i;
            if let Some(p) = robot.parent(i) {
                mask |= ancestor_mask[p];
            }
            ancestor_mask[i] = mask;
        }
        Self {
            parents: (0..n).map(|i| robot.parent(i)).collect(),
            joints: robot.links().iter().map(|l| l.joint).collect(),
            trees: robot.links().iter().map(|l| l.tree.cast()).collect(),
            inertias: robot.links().iter().map(|l| l.inertia.cast()).collect(),
            subspaces: robot
                .links()
                .iter()
                .map(|l| l.joint.motion_subspace())
                .collect(),
            ancestor_mask,
            base_acceleration: Motion::new(Vec3::zero(), (-gravity).cast()),
        }
    }

    /// Re-targets the plan at the wide scalar `Lanes<S, W>` for the SoA
    /// serving path: every per-robot constant is broadcast into all `W`
    /// lanes, so a wide kernel run is bit-identical, lane for lane, to `W`
    /// scalar runs over this model.
    ///
    /// The splat is exact: casting goes through `f64`, and for every
    /// supported scalar type the round trip `S::from_f64(s.to_f64())`
    /// reproduces `s` (floats trivially; fixed point because `to_f64` of
    /// an `i64` raw value is an exact dyadic rational).
    pub fn widen<const W: usize>(&self) -> DynamicsModel<Lanes<S, W>> {
        self.cast_to::<Lanes<S, W>>()
    }

    /// Re-targets the plan at any scalar type — the general form of
    /// [`DynamicsModel::widen`], also used by the engine's backend core
    /// to build its lane-type model. Casting goes through `f64`
    /// (exact for every supported scalar; see `widen`).
    pub fn cast_to<T: Scalar>(&self) -> DynamicsModel<T> {
        DynamicsModel {
            parents: self.parents.clone(),
            joints: self.joints.clone(),
            trees: self.trees.iter().map(|t| t.cast()).collect(),
            inertias: self.inertias.iter().map(|i| i.cast()).collect(),
            subspaces: self.subspaces.iter().map(|s| s.cast()).collect(),
            ancestor_mask: self.ancestor_mask.clone(),
            base_acceleration: self.base_acceleration.cast(),
        }
    }

    /// Number of joints / links.
    pub fn dof(&self) -> usize {
        self.parents.len()
    }

    /// Parent of link `i`.
    pub fn parent(&self, i: usize) -> Option<usize> {
        self.parents[i]
    }

    /// Joint type of link `i`.
    pub fn joint(&self, i: usize) -> JointType {
        self.joints[i]
    }

    /// Fixed tree placement `X_T` of link `i`.
    pub fn tree(&self, i: usize) -> &Transform<S> {
        &self.trees[i]
    }

    /// Spatial inertia `Iᵢ` of link `i`.
    pub fn inertia(&self, i: usize) -> &SpatialInertia<S> {
        &self.inertias[i]
    }

    /// Motion subspace `Sᵢ` of link `i`.
    pub fn subspace(&self, i: usize) -> Motion<S> {
        self.subspaces[i]
    }

    /// The fictitious base acceleration encoding gravity (`a₀ = −g`).
    pub fn base_acceleration(&self) -> Motion<S> {
        self.base_acceleration
    }

    /// The full joint transform `ᵢX_λᵢ = X_J(qᵢ)·X_T` at joint position `q`.
    pub fn joint_transform(&self, i: usize, q: S) -> Transform<S> {
        self.joints[i].joint_transform(q).compose(&self.trees[i])
    }

    /// Whether link `j` is an ancestor of link `i` (or `i` itself) — i.e.
    /// whether joint `j`'s position influences link `i`'s kinematics.
    #[inline]
    pub fn influences(&self, j: usize, i: usize) -> bool {
        self.ancestor_mask[i] & (1u64 << j) != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use robo_model::robots;

    #[test]
    fn ancestor_masks_on_chain() {
        let m = DynamicsModel::<f64>::new(&robots::serial_chain(4, JointType::RevoluteZ));
        assert!(m.influences(0, 3));
        assert!(m.influences(2, 2));
        assert!(!m.influences(3, 0));
    }

    #[test]
    fn ancestor_masks_on_tree() {
        let m = DynamicsModel::<f64>::new(&robots::hyq());
        // Legs are independent: first leg's hip does not influence the
        // second leg's knee.
        assert!(m.influences(0, 2));
        assert!(!m.influences(0, 5));
    }

    #[test]
    fn gravity_encoded_as_base_acceleration() {
        let m = DynamicsModel::<f64>::new(&robots::iiwa14());
        assert_eq!(m.base_acceleration().lin.z, STANDARD_GRAVITY);
        let moon =
            DynamicsModel::<f64>::with_gravity(&robots::iiwa14(), Vec3::new(0.0, 0.0, -1.62));
        assert_eq!(moon.base_acceleration().lin.z, 1.62);
    }
}
