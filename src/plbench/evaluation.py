"""Trajectory metrics: ATE and RPE with closed-form SE(3) alignment.

Trajectories are lists of world-to-camera poses (T_cw). Each is read once
as a stack, rotations R (n, 3, 3) from one ``quat_to_matrix`` call and
translations t (n, 3), and every error is one stacked product over all
frames or frame pairs: ATE on the camera centers -R^T t, RPE on the
relative motions. Translation statistics are in meters, rotation
statistics in degrees.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Pose, quat_to_matrix, rigid_fit, rotation_angles, row_norms


@dataclass(frozen=True)
class ErrorStats:
    rmse: float
    median: float
    mean: float
    std: float

    @staticmethod
    def from_errors(errors: np.ndarray) -> "ErrorStats":
        errors = np.asarray(errors, dtype=float)
        return ErrorStats(
            rmse=float(np.sqrt(np.mean(errors**2))),
            median=float(np.median(errors)),
            mean=float(np.mean(errors)),
            std=float(np.std(errors)),
        )


@dataclass(frozen=True)
class MetricSummary:
    """Translation stats always present; rotation stats only for RPE."""

    translation: ErrorStats
    rotation: ErrorStats | None = None


def _check_matched(est, gt, minimum=2):
    if len(est) != len(gt):
        raise ValueError(f"trajectory length mismatch: {len(est)} vs {len(gt)}")
    if len(est) < minimum:
        raise ValueError(f"need at least {minimum} matched poses")


def _stack(traj: list[Pose]) -> tuple[np.ndarray, np.ndarray]:
    """R (n, 3, 3) and t (n, 3) of a trajectory."""
    return quat_to_matrix(np.array([p.q for p in traj])), np.array([p.t for p in traj])


def _centers(traj: list[Pose]) -> np.ndarray:
    """Camera centers (n, 3), each equal to ``Pose.center()`` bit for bit."""
    R, t = _stack(traj)
    return -(R.transpose(0, 2, 1) @ t[..., None])[..., 0]


def _aligned(est: list[Pose], gt: list[Pose]) -> tuple[np.ndarray, np.ndarray, Pose]:
    """The camera centers of est and of gt, and ``align_se3(est, gt)``."""
    _check_matched(est, gt)
    P, Q = _centers(est), _centers(gt)
    return P, Q, Pose.from_rt(*rigid_fit(P, Q))


def align_se3(est: list[Pose], gt: list[Pose]) -> Pose:
    """Least-squares rigid alignment of estimated camera centers onto
    ground truth (Umeyama without scale; metric depth makes scale observable).

    Returns G such that G(center_est) best matches center_gt.
    """
    return _aligned(est, gt)[2]


def ate(est: list[Pose], gt: list[Pose]) -> MetricSummary:
    """Absolute trajectory error: statistics of ``ate_per_frame``."""
    return MetricSummary(translation=ErrorStats.from_errors(ate_per_frame(est, gt)))


def ate_per_frame(est: list[Pose], gt: list[Pose]) -> np.ndarray:
    """Per-frame camera-center distance after SE(3) alignment, in meters."""
    P, Q, G = _aligned(est, gt)
    return np.linalg.norm(P @ G.rotation().T + G.t - Q, axis=1)


def rpe(est: list[Pose], gt: list[Pose], delta: int = 1) -> MetricSummary:
    """Relative pose error over frame gap ``delta``.

    For each i the error motion is E = rel_gt^-1 o rel_est with
    rel = T_i o T_{i+delta}^-1; translation error is |t(E)| and rotation
    error the geodesic angle of R(E). With the trajectories as stacks,
    rel = (R_i R_{i+delta}^T, t_i - R(rel) t_{i+delta}) and
    E = (R_g^T R_e, R_g^T (t_e - t_g)) for rel_est = (R_e, t_e) and
    rel_gt = (R_g, t_g), each one product over all pairs.
    """
    _check_matched(est, gt)
    if delta < 1 or delta >= len(est):
        raise ValueError(f"delta must be in [1, {len(est) - 1}]")

    def relative(R, t):
        R_rel = R[:-delta] @ R[delta:].transpose(0, 2, 1)
        return R_rel, t[:-delta] - (R_rel @ t[delta:, :, None])[..., 0]

    (R_e, t_e), (R_g, t_g) = relative(*_stack(est)), relative(*_stack(gt))
    R_gT = R_g.transpose(0, 2, 1)
    return MetricSummary(
        translation=ErrorStats.from_errors(row_norms((R_gT @ (t_e - t_g)[..., None])[..., 0])),
        rotation=ErrorStats.from_errors(np.degrees(rotation_angles(R_gT @ R_e))),
    )
