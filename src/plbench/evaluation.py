"""Trajectory metrics: ATE and RPE with closed-form SE(3) alignment.

Trajectories are lists of world-to-camera poses (T_cw); errors are computed
on camera centers and relative motions. Translation statistics are in
meters, rotation statistics in degrees.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import Pose, rigid_fit, rotation_angle


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


def align_se3(est: list[Pose], gt: list[Pose]) -> Pose:
    """Least-squares rigid alignment of estimated camera centers onto
    ground truth (Umeyama without scale; metric depth makes scale observable).

    Returns G such that G(center_est) best matches center_gt.
    """
    _check_matched(est, gt)
    P = np.array([p.center() for p in est])
    Q = np.array([p.center() for p in gt])
    R, t = rigid_fit(P, Q)
    return Pose.from_rt(R, t)


def ate(est: list[Pose], gt: list[Pose]) -> MetricSummary:
    """Absolute trajectory error: statistics of ``ate_per_frame``."""
    return MetricSummary(translation=ErrorStats.from_errors(ate_per_frame(est, gt)))


def ate_per_frame(est: list[Pose], gt: list[Pose]) -> np.ndarray:
    """Per-frame camera-center distance after SE(3) alignment, in meters."""
    G = align_se3(est, gt)
    P = np.array([p.center() for p in est])
    Q = np.array([p.center() for p in gt])
    return np.linalg.norm(P @ G.rotation().T + G.t - Q, axis=1)


def rpe(est: list[Pose], gt: list[Pose], delta: int = 1) -> MetricSummary:
    """Relative pose error over frame gap ``delta``.

    For each i the error motion is E = rel_gt^-1 o rel_est with
    rel = T_i o T_{i+delta}^-1; translation error is |t(E)| and rotation
    error the geodesic angle of R(E).
    """
    _check_matched(est, gt)
    if delta < 1 or delta >= len(est):
        raise ValueError(f"delta must be in [1, {len(est) - 1}]")
    trans_err = []
    rot_err = []
    for i in range(len(est) - delta):
        rel_est = est[i].compose(est[i + delta].inverse())
        rel_gt = gt[i].compose(gt[i + delta].inverse())
        E = rel_gt.inverse().compose(rel_est)
        trans_err.append(np.linalg.norm(E.t))
        rot_err.append(np.degrees(rotation_angle(E.rotation())))
    return MetricSummary(
        translation=ErrorStats.from_errors(np.array(trans_err)),
        rotation=ErrorStats.from_errors(np.array(rot_err)),
    )
