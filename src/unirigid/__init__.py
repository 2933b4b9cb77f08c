"""Rigid-body dynamics on the rigid placement group.

One quasi-velocity engine drives every formulation: picking the body-twist
chart gives the Kirchhoff (and, for a CoM-centered frame, Newton-Euler)
equations, picking the Euler-angle coordinate chart gives the Lagrange
equations, and the Gauss least-constraint solver provides both constrained
dynamics and an independent cross-check of the unconstrained engine.
"""

from .charts import (
    ChartEval,
    ChartId,
    ChartState,
    Frame,
    Twist,
    advance_pose,
    body_twist,
    chart_eval,
    chart_from_body_twist,
    hamel_coefficients,
)
from .dynamics import (
    ForceModel,
    Momentum,
    SpatialInertia,
    Wrench,
    assemble_inertia,
    body_wrench,
    chart_rhs,
    energy,
    gravity_potential,
    kirchhoff_rhs,
    momentum,
    newton_euler_rhs,
    spatial_angular_momentum,
)
from .errors import (
    AngleNearPiError,
    FrameNotAtCoMError,
    GimbalLockError,
    NonFiniteStateError,
    NotPositiveDefiniteError,
    RankDeficientConstraintError,
    ScenarioParseError,
    ScenarioValidationError,
    UniRigidError,
)
from .gauss import (
    AccelConstraint,
    FixedPointConstraint,
    constrained_accel,
    fixed_point_constraint,
    gauss_functional,
    steady_precession_rates,
)
from .geom3 import (
    EulerAngles,
    Pose,
    Rotation,
    adjoint,
    euler_to_rotation,
    exp_so3,
    geodesic_distance,
    hat,
    log_so3,
    pose_compose,
    pose_inverse,
    quaternion_to_rotation,
    rotation_to_euler,
    rotation_to_quaternion,
    se3_ad,
    vee,
)
from .integrate import (
    Formulation,
    IntegratorId,
    TrajectorySample,
    simulate,
    step,
)
from .scenario import Scenario, load_scenario

__version__ = "0.1.0"
