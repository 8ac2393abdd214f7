"""Point-line SLAM benchmark toolkit.

Pipeline: generate synthetic point/line sequences with ground truth, track
camera poses (frame-to-frame or map-to-frame), build co-visibility factor
graphs and evaluate their point and line re-projection cost, and score
trajectories with ATE/RPE.
"""

__version__ = "0.1.0"
