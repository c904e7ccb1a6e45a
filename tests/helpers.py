"""Shared test utilities, built on the package's public API only."""

import numpy as np

from cloee import (
    FRAME_CONSTANTS,
    PHR_CODE,
    PSDU_CODE,
    HeaderSuccess,
    ModeMetrics,
    PhyMode,
    energy_breakdown,
    mode_for,
)


def single_pb_metrics(p_b: float, mode: PhyMode = mode_for(1)) -> ModeMetrics:
    """ModeMetrics with every frame section (SHR, PHR, PSDU) at one bit error
    probability; its success(n_t) is the textbook single-p_b PPDU success."""
    return ModeMetrics(mode=mode, distance=1.0, chi=0.0, p_b=p_b,
                       header=HeaderSuccess.at(p_b, p_b, FRAME_CONSTANTS, PHR_CODE),
                       energy=energy_breakdown(mode), consts=FRAME_CONSTANTS, code=PSDU_CODE)


def sign_changes(values, rel_tol: float = 1e-12) -> int:
    """Sign changes in the first differences of a sequence.

    Differences below rel_tol of the largest magnitude count as zero so a
    flat floating-point plateau is not read as oscillation.
    """
    diffs = np.diff(np.asarray(values, dtype=float))
    if diffs.size == 0:
        return 0
    scale = float(np.max(np.abs(diffs)))
    if scale == 0.0:
        return 0
    signs = [int(np.sign(d)) for d in diffs if abs(d) > rel_tol * scale]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def is_unimodal_max(values, rel_tol: float = 1e-12) -> bool:
    """True when first differences go + to - at most once and never - to +."""
    diffs = np.diff(np.asarray(values, dtype=float))
    if diffs.size == 0:
        return True
    scale = float(np.max(np.abs(diffs)))
    if scale == 0.0:
        return True
    falling = False
    for d in diffs:
        if abs(d) <= rel_tol * scale:
            continue
        if d < 0:
            falling = True
        elif falling:
            return False
    return True


def grid_argmax(values, nts) -> int:
    """First-occurrence argmax over a frame-size grid."""
    values = np.asarray(values, dtype=float)
    return int(np.asarray(nts)[int(np.argmax(values))])
