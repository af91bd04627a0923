"""Serial-chain forward kinematics for the end-effector distance metric.

The chain is a list of Denavit-Hartenberg rows applied in the distal
convention, Rz(theta) Tz(d) Tx(a) Rx(alpha), so a single revolute joint
with link length a sweeps the link in the XY plane. Joint positions are
radians, link parameters meters; reports convert to millimeters.
`load_chain` reads a chain from a JSON file of the form
{"kind": "kinematic_chain", "a": [...], "d": [...], "alpha": [...],
"theta_offset": [...]}, one entry per joint.
"""

import json
import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class KinematicChain:
    """Per-joint DH rows: link length a, offset d, twist alpha, theta offset."""

    a: tuple
    d: tuple
    alpha: tuple
    theta_offset: tuple

    def __post_init__(self):
        n = len(self.a)
        if n < 1:
            raise ValueError("chain needs at least one joint")
        if not (len(self.d) == len(self.alpha) == len(self.theta_offset) == n):
            raise ValueError("all DH parameter tuples must have equal length")
        for row in (self.a, self.d, self.alpha, self.theta_offset):
            if not all(math.isfinite(x) for x in row):
                raise ValueError("DH parameters must be finite")

    @property
    def n_joints(self):
        return len(self.a)

    @classmethod
    def from_dict(cls, obj):
        return cls(tuple(float(v) for v in obj["a"]),
                   tuple(float(v) for v in obj["d"]),
                   tuple(float(v) for v in obj["alpha"]),
                   tuple(float(v) for v in obj["theta_offset"]))


def joint_transform(a, d, alpha, theta):
    """Homogeneous transform of one DH row (distal convention)."""
    ct, st = math.cos(theta), math.sin(theta)
    ca, sa = math.cos(alpha), math.sin(alpha)
    return np.array([
        [ct, -st * ca, st * sa, a * ct],
        [st, ct * ca, -ct * sa, a * st],
        [0.0, sa, ca, d],
        [0.0, 0.0, 0.0, 1.0],
    ])


def fk_position(chain: KinematicChain, q) -> np.ndarray:
    """Translation of the final chain frame for joint positions q, meters."""
    q = np.asarray(q, dtype=float)
    if q.shape != (chain.n_joints,):
        raise ValueError(
            f"expected {chain.n_joints} joint values, got shape {q.shape}")
    frame = np.eye(4)
    for j in range(chain.n_joints):
        frame = frame @ joint_transform(chain.a[j], chain.d[j],
                                        chain.alpha[j],
                                        q[j] + chain.theta_offset[j])
    return frame[:3, 3].copy()


def fk_positions(chain: KinematicChain, q_rows) -> np.ndarray:
    """fk_position for every row of a (T, n_joints) array."""
    q_rows = np.asarray(q_rows, dtype=float)
    return np.stack([fk_position(chain, row) for row in q_rows])


def final_distances(pred, truth, chain: KinematicChain) -> np.ndarray:
    """Final-sample end-effector distance of each trajectory pair, meters.

    `pred` and `truth` are equal-length sequences of (T, n_joints) joint
    trajectories, e.g. two (B, T, n_joints) arrays. Returns shape (B,).
    """
    if len(pred) != len(truth):
        raise ValueError(f"{len(pred)} predictions but {len(truth)} "
                         "ground-truth trajectories")
    return np.array([np.linalg.norm(fk_position(chain, p[-1])
                                    - fk_position(chain, g[-1]))
                     for p, g in zip(pred, truth)])


# Stand-in 7-joint chain. The real arm's kinematic parameters are not part
# of this project's data; distances stay internally consistent for any
# fixed chain, so these values only need to be a plausible 7R geometry.
DEFAULT_CHAIN = KinematicChain(
    a=(0.0, 0.0, 0.0825, -0.0825, 0.0, 0.088, 0.0),
    d=(0.333, 0.0, 0.316, 0.0, 0.384, 0.0, 0.107),
    alpha=(-math.pi / 2, math.pi / 2, math.pi / 2, -math.pi / 2,
           math.pi / 2, math.pi / 2, 0.0),
    theta_offset=(0.0,) * 7,
)


def default_chain() -> KinematicChain:
    return DEFAULT_CHAIN


def load_chain(path) -> KinematicChain:
    with open(path) as fh:
        obj = json.load(fh)
    if obj.get("kind") != "kinematic_chain":
        raise ValueError(f"{path} is not a kinematic chain config")
    return KinematicChain.from_dict(obj)
