"""Serial-chain forward kinematics for the end-effector distance metric.

The chain is a list of Denavit-Hartenberg rows applied in the distal
convention, Rz(theta) Tz(d) Tx(a) Rx(alpha), so a single revolute joint
with link length a sweeps the link in the XY plane. Joint positions are
radians, link parameters meters; reports convert to millimeters.
`fk_position` takes joint positions of any shape (..., n_joints), so one
call covers a whole split or trajectory.
`load_chain` reads a chain from a JSON file of the form
{"kind": "kinematic_chain", "a": [...], "d": [...], "alpha": [...],
"theta_offset": [...]}, one entry per joint.
"""

import json
import math
import sys
from dataclasses import dataclass

import numpy as np

from mprim.jsonio import read_json_object


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


def joint_transform(a, d, alpha, theta):
    """Homogeneous transform of one DH row (distal convention). An array
    `theta` gives one transform per entry, shape theta.shape + (4, 4)."""
    ct, st = np.cos(theta), np.sin(theta)
    ca, sa = math.cos(alpha), math.sin(alpha)
    out = np.empty(np.shape(theta) + (16,))   # the last 8 are constant
    np.stack([ct, -st * ca, st * sa, a * ct, st, ct * ca, -ct * sa, a * st],
             axis=-1, out=out[..., :8])
    out[..., 8:] = (0.0, sa, ca, d, 0.0, 0.0, 0.0, 1.0)
    return out.reshape(np.shape(theta) + (4, 4))


def fk_position(chain: KinematicChain, q) -> np.ndarray:
    """Translation of the final chain frame, meters, for joint positions
    `q` of shape (..., n_joints); returns shape (..., 3). One stack of 4x4
    transforms per joint covers every row of `q`."""
    q = np.asarray(q, dtype=float)
    if q.shape[-1:] != (chain.n_joints,):
        raise ValueError(
            f"expected {chain.n_joints} joint values, got shape {q.shape}")
    frame = np.broadcast_to(np.eye(4), q.shape[:-1] + (4, 4))
    for j in range(chain.n_joints):
        frame = frame @ joint_transform(chain.a[j], chain.d[j],
                                        chain.alpha[j],
                                        q[..., j] + chain.theta_offset[j])
    return frame[..., :3, 3].copy()


def final_distances(pred, truth, chain: KinematicChain) -> np.ndarray:
    """Final-sample end-effector distance of each trajectory pair, meters.

    `pred` and `truth` are equal-length sequences of (T, n_joints) joint
    trajectories, e.g. two (B, T, n_joints) arrays. Returns shape (B,).
    """
    if len(pred) != len(truth):
        raise ValueError(f"{len(pred)} predictions but {len(truth)} "
                         "ground-truth trajectories")
    if not len(pred):
        return np.zeros(0)
    diff = (fk_position(chain, np.asarray(pred, float)[:, -1])
            - fk_position(chain, np.asarray(truth, float)[:, -1]))
    # a row times a column is the BLAS dot of np.linalg.norm on one row, so
    # each distance is the per-row norm bit for bit
    return np.sqrt((diff[:, None, :] @ diff[:, :, None]).reshape(-1))


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


def load_chain(path) -> KinematicChain:
    """Read a chain config. Text that is not UTF-8 or not JSON, a document
    that is not a chain object and a DH field that is missing or not a
    list of numbers within float64's range raise ValueError naming the
    file and the byte, the JSON line or the field."""
    obj = read_json_object(path, "a kinematic chain config")
    if obj.get("kind") != "kinematic_chain":
        raise ValueError(f"{path} is not a kinematic chain config: expected "
                         f'a JSON object with "kind": "kinematic_chain"')
    rows = []
    for name in ("a", "d", "alpha", "theta_offset"):
        row = obj.get(name)
        if not isinstance(row, list) or not all(   # ints compare exactly
                type(v) in (int, float) and abs(v) <= sys.float_info.max
                for v in row):
            raise ValueError(f"{path}: field {name!r} must be a list of "
                             f"numbers, got {json.dumps(row)}")
        rows.append(tuple(map(float, row)))
    try:
        return KinematicChain(*rows)
    except ValueError as err:
        raise ValueError(f"{path}: {err}") from None
