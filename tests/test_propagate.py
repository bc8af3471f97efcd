"""One Magnus attempt of ``propagate._frozen_step`` against an explicit reference.

The reference builds the sixth-order exponent of Blanes, Casas & Ros
(BIT 40, 2000) from 2x2 matrices and commutators at the three Gauss
nodes of each step, exponentiates it with ``scipy.linalg.expm`` and
follows the angle of (w, u) = (cos phi, sin phi) through fine sub-steps
of the frozen flow to find its band.
"""

import math

import numpy as np
import pytest
from scipy.linalg import expm

from shwave.propagate import _frozen_step, _pack

SUBSTEPS = 4000

# (Omega, K, phi) by kind; gamma = mu (Omega (2 + 3 e^-y) - K), so at
# depth Omega = K/2 leaves |gamma| < 1e-11, and Omega = K = 0 an exponent
# with disc = 0 exactly
MEMBERS = {
    "elliptic": [(10.0, 1.0, 0.3), (40.0, 1.0, 7.5), (300.0, 4.0, -1.2)],
    "hyperbolic": [(0.5, 4.0, 0.7), (1.0, 400.0, 2.5), (0.2, 3.0, -4.0)],
    "small": [(0.5, 1.0, 0.4), (0.5 + 1e-7, 1.0, 1.9), (0.5 - 1e-7, 1.0, -0.3),
              (0.0, 0.0, 0.9)],
}
# each kind is one lane, with its own start depth and step length
LANES = {"elliptic": (30.0, 0.4), "hyperbolic": (26.0, 0.3),
         "small": (33.0, 0.5)}


class Medium:
    """A stiffness that varies at every node and a density ~ 2 mu at depth."""

    @staticmethod
    def stiffness(y):
        return 1.5 + 0.5 * np.sin(y)

    def coef_pair(self, y):
        mu = self.stiffness(y)
        return mu * (2.0 + 3.0 * np.exp(-y)), mu


def _magnus(medium, y, h, K, Omega):
    def a_at(t):
        p, q = medium.coef_pair(y + h * t)
        return np.array([[0.0, -(Omega * p - K * q)],
                         [1.0 / medium.stiffness(y + h * t), 0.0]])

    r = math.sqrt(15.0)
    a_1, a_2, a_3 = (a_at(0.5 - r / 10.0), a_at(0.5), a_at(0.5 + r / 10.0))
    b1 = h * a_2
    b2 = r / 3.0 * h * (a_3 - a_1)
    b3 = 10.0 / 3.0 * h * (a_3 - 2.0 * a_2 + a_1)

    def comm(x, z):
        return x @ z - z @ x

    c1 = comm(b1, b2)
    c2 = -comm(b1, 2.0 * b3 + c1) / 60.0
    return b1 + b3 / 12.0 + comm(-20.0 * b1 - b3 + c1, b2 + c2) / 240.0


def _flow(omega, x, theta):
    """State and continuous angle of (w, u) after exp(omega) from (x, theta)."""
    sub = expm(omega / SUBSTEPS)
    z, track = x.copy(), theta
    for _ in range(SUBSTEPS):
        z = sub @ z
        turn = math.atan2(z[1], z[0]) - track
        track += (turn + math.pi) % (2.0 * math.pi) - math.pi
    end = expm(omega) @ x
    ang = math.atan2(end[1], end[0])
    return end, ang + 2.0 * math.pi * round((track - ang) / (2.0 * math.pi))


def _reference(medium, y, h, K, Omega, phi):
    omegas = (_magnus(medium, y, h, K, Omega),
              _magnus(medium, y, h / 2, K, Omega),
              _magnus(medium, y + h / 2, h / 2, K, Omega))
    x0 = np.array([math.cos(phi), math.sin(phi)])
    _, full = _flow(omegas[0], x0, phi)
    x1, half1 = _flow(omegas[1], x0, phi)
    x2, half = _flow(omegas[2], x1, half1)
    disc = [-np.linalg.det(o) for o in omegas]
    return full, half, math.log(np.hypot(*x2)), disc


@pytest.mark.parametrize("sign", [1.0, -1.0], ids=["forward", "backward"])
@pytest.mark.parametrize("case", ["elliptic", "hyperbolic", "small", "mixed"])
def test_frozen_step_matches_explicit_magnus(case, sign):
    # "mixed" steps the three lanes of the other cases in one attempt
    kinds = [k for k in MEMBERS if case in ("mixed", k)]
    members = sum((MEMBERS[k] for k in kinds), [])
    Omega, K, phi = (np.array(col) for col in zip(*members))
    y = np.array([LANES[k][0] for k in kinds])
    h = sign * np.array([LANES[k][1] for k in kinds])
    lane = np.repeat(np.arange(len(kinds)), [len(MEMBERS[k]) for k in kinds])
    weights = [np.array((Omega[lane == ln], K[lane == ln], np.ones((lane == ln).sum())))
               for ln in range(len(kinds))]
    medium = Medium()
    full, half, rot_max, logmag, _, g_end = _frozen_step(
        medium.coef_pair, medium.stiffness, y, h, phi,
        _pack(weights, np.sign(h)), True, np.full(phi.shape, np.nan))
    assert rot_max.shape == y.shape
    y_m, h_m = y[lane], h[lane]
    y_end = y_m + h_m - np.copysign(
        np.minimum(1e-12 * np.maximum(1.0, np.abs(y_m + h_m)), np.abs(h_m) / 2), h_m)
    p_end, q_end = medium.coef_pair(y_end)
    scale = np.abs(Omega * p_end) + np.abs(K * q_end)
    assert np.all(np.abs(g_end - (Omega * p_end - K * q_end)) <= 1e-11 * scale)
    for j, ln in enumerate(lane):
        kind = kinds[ln]
        ref_full, ref_half, ref_mag, disc = _reference(
            medium, y_m[j], h_m[j], K[j], Omega[j], phi[j])
        # each member is of the kind it is listed under, on all three steps
        if kind == "small":
            assert max(abs(d) for d in disc) < 1e-6
        else:
            assert all(abs(d) > 1e-6 and (d > 0) == (kind == "hyperbolic")
                       for d in disc)
        assert abs(full[j] - ref_full) <= 1e-11
        assert abs(half[j] - ref_half) <= 1e-11
        assert abs(logmag[j] - ref_mag) <= 1e-11 * max(1.0, abs(ref_mag))
    if "elliptic" in kinds:
        # the bands of several crossings
        assert rot_max[kinds.index("elliptic")] > math.pi
