"""Mode search, branch tracing, mode-count estimate, oscillation test.

A matched surface mode at wavenumber-squared K is a frequency-squared
Omega where the lifted surface angle phi0(y_bar) and the decaying-tail
angle phi+(y_bar) agree modulo pi.  The mismatch

    Phi(Omega) = phi0(y_bar; Omega) - phi+(y_bar; Omega)

is strictly increasing in Omega at a fixed matching depth (the forward
angle grows with the coefficient, the decaying angle shrinks), so each
crossing of an integer multiple of pi is a certified bracket, refined
by ITP (interpolate, truncate, project) on the sign of Phi - n*pi.  The
integer n at the root indexes the mode: the matched tail angle lies in
((n + 1/2)pi, (n + 1)pi), i.e. mode m = n + 1.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, replace
from typing import Optional

import numpy as np

from . import liouville
from .decay import (NEAR_THRESHOLD_DELTA, MatchingConfig,
                    decaying_phase_batch, matching_config, matching_depths,
                    _window_depths)
from .errors import NoNegativeTailError, TailSelectionError
from .prufer import IntegratorSettings, _check_positive
from .profile import (MaterialProfile, ProfileClass, _halves_every_three,
                      admissible_interval, classify, interval_is_empty)

_REASON_GLOBAL_NEGATIVE = ("nonexistence: globally negative monotonicity "
                           "(Arg a(y) >= Arg a_inf at every depth)")
_REASON_EMPTY_INTERVAL = "nonexistence: empty admissible frequency interval"
_MAX_ROUNDS = 80                # refinement rounds per batch of brackets


@dataclass(frozen=True)
class Mode:
    """One matched root (K, Omega) with its matching diagnostics.

    ``phi_surface``, ``phi_decay`` and ``residual`` = |Phi - (m-1)*pi|
    are evaluated at ``Omega`` itself.
    """

    K: float
    Omega: float
    m: int
    phi_surface: float
    phi_decay: float
    residual: float
    matching: MatchingConfig
    flag: Optional[str] = None

    @property
    def omega(self) -> float:
        return math.sqrt(self.Omega)


@dataclass
class ModeSearchResult:
    """All modes found at one K, sorted by Omega ascending.

    ``scan_ceiling`` is the largest frequency actually examined; it can
    sit below the cutoff guard band when the decaying tail becomes
    numerically unreachable there (possible only in regimes where no
    modes accumulate toward the cutoff).
    """

    K: float
    modes: list
    interval: tuple
    nonexistence_reason: Optional[str] = None
    truncated: bool = False
    scan_ceiling: Optional[float] = None

    def __iter__(self):
        return iter(self.modes)

    def __len__(self):
        return len(self.modes)


@dataclass(frozen=True)
class Branch:
    """One dispersion curve: points (k, omega) of a fixed mode index."""

    m: int
    points: tuple          # ((k, omega), ...) sorted by k
    gaps: tuple            # k values >= first appearance with the mode missing


@dataclass(frozen=True)
class SearchOptions:
    """Knobs of find_modes; defaults implement the documented strategy."""

    max_modes: int = 64
    omega_grid_n: int = 256
    root_tol: float = 1e-10          # relative, in Omega
    residual_tol: float = 1e-8       # absolute, in angle
    settings: IntegratorSettings = field(default_factory=IntegratorSettings)
    space: str = "y"                 # "y" or "tau"

    def __post_init__(self):
        for name, least in (("max_modes", 1), ("omega_grid_n", 8)):
            value = getattr(self, name)
            if isinstance(value, bool) or not (
                    isinstance(value, numbers.Integral) and value >= least):
                raise ValueError("%s must be an integer of at least %d, got %r"
                                 % (name, least, value))
        _check_positive(self, "root_tol", "residual_tol")
        if not isinstance(self.settings, IntegratorSettings):
            raise ValueError("settings must be an IntegratorSettings, got %r"
                             % (self.settings,))
        if self.space not in ("y", "tau"):
            raise ValueError("space must be 'y' or 'tau'")


DEFAULT_OPTIONS = SearchOptions()


def _problem_for(profile: MaterialProfile, space: str):
    return profile if space == "y" else liouville.transform(profile)


def _mismatch_batch(problem, K, omegas, cfg, settings: IntegratorSettings,
                    tail_check: bool = True):
    """(Phi, phi0, phi_plus, windows) for a batch of points (K, Omega).

    ``K`` is a scalar or one value per member, and ``cfg`` one tail
    window shared by every member or one per member, valid for its
    members (a window valid for the largest Omega of a K covers its
    smaller ones).  Both sweeps read each member off at its window's
    y_bar, so every read is one the band check of decaying_phase_batch
    covers.  The surface sweep, the decaying sweep and, with
    ``tail_check``, its tail check are one sweep_phase call, each K on
    its own lanes; only a failed check sweeps again, for its own window
    (see decaying_phase_batch).  ``windows`` lists the window each
    member's check accepted.
    """
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    phi_plus, _, windows, (phi0, _) = decaying_phase_batch(
        problem, K, omegas, cfg, settings=settings, check=tail_check,
        surface=(K, omegas, _window_depths(cfg, omegas.size)[1]))
    return phi0 - phi_plus, phi0, phi_plus, windows


def find_modes(profile: MaterialProfile, K: float,
               opts: SearchOptions = DEFAULT_OPTIONS,
               classification: Optional[ProfileClass] = None) -> ModeSearchResult:
    """All trapped-mode frequencies at one squared wavenumber.

    The admissible interval is scanned on a uniform grid plus a
    geometric refinement toward the cutoff (where high modes
    accumulate); every upward crossing of Phi through a multiple of pi
    is refined by ITP to ``root_tol`` relative in Omega, all brackets in
    one batch.  Profiles whose material angle never drops below its
    limit are rejected without solving, and frequencies at or below
    K*min(mu/rho) are never scanned - no modes can live there.  This is
    the one-K case of :func:`trace_branches`.
    """
    if not 0 < K < math.inf:
        raise ValueError("K must be a finite number > 0, got %r" % (K,))
    return _search(profile, [K], opts, classification or classify(profile))[0]


@dataclass
class _Scan:
    """The scan of one K: its progress and what it hands to the refinement."""

    K: float
    chunks: list                # Omega grids: uniform, then geometric
    # (a, b, n, noisy): Phi crosses n*pi on (a, b); noisy: Phi fell there
    brackets: list = field(default_factory=list)
    cfg: Optional[MatchingConfig] = None    # window of the last bracket chunk
    truncated: bool = False
    scan_ceiling: Optional[float] = None
    grown: Optional[MatchingConfig] = None  # window grown to the chunk's top
    last: tuple = ()            # (Omega, Phi) of the last point swept, if any
    at_limit: bool = False      # the tail became unreachable in a chunk


def _chunks(lo, hi, n):
    """The scan's chunks on (lo, hi): a uniform grid of n points, then
    points that halve the gap to the cutoff hi."""
    cap = hi * (1.0 - NEAR_THRESHOLD_DELTA)
    uniform = lo + (hi - lo) * np.arange(1, n) / n
    uniform = np.concatenate([[lo + (hi - lo) * 1e-6], uniform[uniform < cap]])
    geo = []
    g = (hi - uniform[-1]) * 0.5
    while hi - g > uniform[-1] and g / hi > NEAR_THRESHOLD_DELTA:
        geo.append(hi - g)
        g *= 0.5
    return [uniform, np.asarray(geo)] if geo else [uniform]


def _grow_window(problem, sc: _Scan, chunk):
    """Grow the window of ``sc`` to the top of ``chunk``; the chunk part
    it covers, or None if it covers none.

    Approaching the cutoff the decay length diverges; when no reachable
    tail-start depth exists for the top of the chunk, the feasible prefix
    is scanned and the scan of this K stops there (modes can hide past
    that point only in the oscillatory-accumulation regime, whose deeper
    matching windows keep the tail reachable).
    """
    for j in range(len(chunk) - 1, -1, -1):
        try:
            cfg = matching_config(problem, (sc.K, float(chunk[j])))
        except (TailSelectionError, NoNegativeTailError):
            if j == 0 and sc.grown is None:
                raise
            continue
        # a window valid for the chunk's top covers every lower frequency
        # of this K, so the refinement reuses the window of its last chunk
        sc.grown = cfg
        sc.at_limit = j < len(chunk) - 1
        return chunk[: j + 1]
    return None


def _scan(problem, jobs, opts: SearchOptions) -> list:
    """One _Scan per (K, lo, hi) of ``jobs``: every crossing of Phi
    through a multiple of pi on (lo, hi), bracketed.

    The chunks of every K (see _chunks) are walked by index, and chunk i
    of every K still scanning is swept in one batch at loosened
    settings.  Each K's window is grown to the top of its own chunk, and
    its members are swept in that window and read off at its depth.  A
    K stops once it holds ``max_modes`` brackets or its tail became
    unreachable.
    """
    settings = opts.settings
    scan_settings = IntegratorSettings(
        rel_tol=max(settings.rel_tol, 1e-8), abs_tol=max(settings.abs_tol, 1e-10))
    scans = [_Scan(K, _chunks(lo, hi, opts.omega_grid_n)) for K, lo, hi in jobs]
    for i in range(2):          # the uniform chunk, then the geometric one
        batch = []
        for sc in scans:
            if i >= len(sc.chunks):
                continue
            full = len(sc.brackets) >= opts.max_modes
            if full or sc.at_limit:
                sc.truncated = sc.truncated or full
                continue
            chunk = _grow_window(problem, sc, sc.chunks[i])
            if chunk is not None:
                batch.append((sc, chunk))
        if not batch:
            break
        sizes = [len(c) for _, c in batch]
        phi = _mismatch_batch(
            problem, np.repeat([sc.K for sc, _ in batch], sizes),
            np.concatenate([c for _, c in batch]),
            [sc.grown for sc, c in batch for _ in c], scan_settings)[0]
        for (sc, omegas), phis in zip(batch,
                                      np.split(phi, np.cumsum(sizes)[:-1])):
            sc.scan_ceiling = float(omegas[-1])
            omegas = np.concatenate([sc.last[:1], omegas])
            phis = np.concatenate([sc.last[1:], phis])
            new = []
            for j in range(len(omegas) - 1):
                fa, fb = phis[j], phis[j + 1]
                noisy = bool(fb < fa - 1e-6)
                n_lo = math.floor(fa / math.pi) + 1
                n_hi = math.floor(fb / math.pi)
                for nn in range(max(n_lo, 0), n_hi + 1):
                    new.append((float(omegas[j]), float(omegas[j + 1]), nn,
                                noisy))
            sc.last = (float(omegas[-1]), float(phis[-1]))
            room = opts.max_modes - len(sc.brackets)
            if len(new) > room:
                sc.truncated = True
                new = new[:room]
            if new:
                sc.brackets.extend(new)
                sc.cfg = sc.grown
    return scans


def _search(profile: MaterialProfile, Ks, opts: SearchOptions,
            cls: ProfileClass) -> list:
    """One ModeSearchResult per K of ``Ks``.

    Every K with a nonempty admissible interval is scanned in one
    _scan, one batch per chunk over all K; then the brackets of all K
    are refined in one _refine_brackets batch, each bracket with its own
    K and its own window: its K's window at the depth polished for it.
    """
    results = []
    jobs = []
    for K in Ks:
        lo, hi = admissible_interval(profile, K, cls)
        reason = (_REASON_GLOBAL_NEGATIVE if cls.global_negative else
                  _REASON_EMPTY_INTERVAL if interval_is_empty(lo, hi) else None)
        results.append(ModeSearchResult(K=K, modes=[], interval=(lo, hi),
                                        nonexistence_reason=reason))
        if reason is None:
            jobs.append((K, lo, hi))
    if not jobs:
        return results
    problem = _problem_for(profile, opts.space)
    scans = _scan(problem, jobs, opts)

    live = [sc for sc in scans if sc.brackets]
    modes = []
    if live:
        Kb = np.concatenate([np.full(len(sc.brackets), float(sc.K))
                             for sc in live])
        windows = [replace(sc.cfg, y_bar=float(depth)) for sc in live
                   for depth in _polish_depths(
                       problem, sc.K, [b[1] for b in sc.brackets], sc.cfg)]
        modes = _refine_brackets(problem, Kb,
                                 [b for sc in live for b in sc.brackets],
                                 windows, opts)

    by_K: dict = {}
    for md in modes:
        by_K.setdefault(md.K, []).append(md)
    scanned = {sc.K: sc for sc in scans}
    for res in results:
        sc = scanned.get(res.K)
        if sc is not None:
            res.modes = _dedupe(by_K.get(res.K, []))
            res.truncated = sc.truncated
            res.scan_ceiling = sc.scan_ceiling
    return results


def _dedupe(modes):
    """The modes sorted by Omega, one per index.

    Two roots with one index mean a band slip: the smaller residual is
    kept and flagged.  The scan caps the brackets of one K at max_modes.
    """
    by_m: dict[int, Mode] = {}
    duplicated = set()
    for md in modes:
        cur = by_m.get(md.m)
        if cur is not None:
            duplicated.add(md.m)
        if cur is None or md.residual < cur.residual:
            by_m[md.m] = md
    return sorted((replace(md, flag=_add_flag(md.flag, "duplicate mode index"))
                   if md.m in duplicated else md for md in by_m.values()),
                  key=lambda md: md.Omega)


def _polish_depths(problem, K, omega_tops, cfg: MatchingConfig):
    """:func:`matching_depths` of each bracket top, capped at ``cfg.y_bar``.

    The scan's window depth serves the chunk's top frequency; below it
    the mismatch can be a steep step in Omega, so each bracket matches
    behind its own top's turning point instead.
    """
    return np.minimum(matching_depths(problem, K, omega_tops), cfg.y_bar)


def _add_flag(flag: Optional[str], note: str) -> str:
    return flag + "; " + note if flag else note


def _settle(pts, third):
    """The bracket ends and third point after a round, per bracket.

    ``pts`` (4, P, n) holds rows (Omega, g, phi0, phi+) of P points in
    each of n brackets, ``third`` (2, n) the (Omega, g) kept so far
    (nan for none).  Sorted by Omega, the first point with g >= 0 is the
    upper end and the one before it the lower end; where no point or the
    first one has g >= 0 the last or first pair is kept, so an
    unbracketed end moves as bisection would move it.  Of the other
    points the one with the smallest |g| is kept as the next third
    point.  The old third point competes too: when the new points
    coincide with an end, it is the only one left (without it,
    criterion 3's k = 1..40 trace took 36 rounds instead of 18).
    Returns ends (4, 2, n) and third (2, n).
    """
    n_pts, cols = pts.shape[1], np.arange(pts.shape[2])
    pts = np.take_along_axis(pts, np.argsort(pts[0], axis=0)[None], axis=1)
    nonneg = pts[1] >= 0
    hi = np.where(nonneg.any(axis=0), nonneg.argmax(axis=0), n_pts - 1)
    hi = np.clip(hi, 1, n_pts - 1)
    ends = np.stack([pts[:, hi - 1, cols], pts[:, hi, cols]], axis=1)
    cand = np.concatenate([pts[:2], third[:, None]], axis=1)
    score = np.abs(cand[1])
    # a repeated member is no third point: it sits on an end
    score[(cand[0] == ends[0, 0]) | (cand[0] == ends[0, 1])
          | np.isnan(score)] = np.inf
    pick = score.argmin(axis=0)
    third = np.where(np.isfinite(score[pick, cols]), cand[:, pick, cols],
                     np.nan)
    return ends, third


def _refine_brackets(problem, K, brackets, windows, opts):
    """Refine all pending brackets simultaneously by ITP, one batch per sweep.

    ITP (Oliveira & Takahashi, ACM TOMS 47(1), 2020) steps from the
    regula-falsi point toward the midpoint and projects it into a
    radius that halves every round, so it converges superlinearly on
    the smooth mismatch yet needs at most n0 = 3 rounds more than
    bisection.  The slack keeps the radius open: with n0 = 1, a bracket
    whose first points move one end only (its residual already small,
    its width still above root_tol) reaches radius 0 within a few
    rounds and bisects from then on.  A point is kept at least 0.4
    root_tol inside the bracket (Brent's guard), which stops a bracket
    from shrinking one-sidedly just above the tolerance.

    ITP alone nears the root from one side and needs more rounds to
    move the far end, so every round also sweeps two straddle points
    x_s - e and x_s + e.  x_s is the inverse quadratic interpolate
    through both ends and a third point kept from earlier rounds (round
    0 gives a, the midpoint and b), or the regula-falsi point where that
    interpolate leaves the bracket.  The disagreement of the two
    estimates sizes the step, e = max(0.4 tol, 0.3 |x_IQI - x_rf|) with
    tol = root_tol max(|a|, |b|), so the pair tends to fall on both
    sides of the root and the bracket collapses to about 2e.  A straddle
    point outside the guarded bracket is replaced by the ITP point,
    which costs nothing: sweep_phase sweeps identical members once.  The
    new ends are the sign change among the old ends and the three points
    (see _settle).  Extra points only shrink a bracket, and ITP's point
    lies within its radius of the midpoint whatever the bracket, so the
    width after round j stays within ITP's bound and the worst case
    stays n_max rounds.  Brackets move only by the sign of
    g = Phi - n*pi, so every root stays certified.

    ``brackets`` holds the scan's (a, b, n, noisy) tuples, and ``K``
    and ``windows`` each bracket's squared wavenumber and its K's tail
    window at its matching depth (see _polish_depths), so the brackets
    of many K share every sweep, each K on its own lanes, and every
    read is band-checked (see decaying_phase_batch).  Round 0
    evaluates both ends and the midpoint of every bracket with the tail
    check on (the scan's values come from looser settings and other
    depths); later rounds reuse the tail windows it accepted.  A mode
    reports the bracket end with the smaller |g|, with its angles and
    its accepted window as ``matching``.
    """
    nb = len(brackets)
    K = np.asarray(K, dtype=float)
    a0 = np.array([b[0] for b in brackets])
    b0 = np.array([b[1] for b in brackets])
    targets = np.array([b[2] * math.pi for b in brackets])

    def rows(x, idx, phi, phi0, phip):
        # (Omega, g, phi0, phi+) of the points x (3, len(idx)), swept as
        # one batch of 3 len(idx) members, row after row
        return np.stack([x.ravel(), phi - np.tile(targets[idx], 3), phi0,
                         phip]).reshape(4, 3, -1)

    x0 = np.stack([a0, 0.5 * (a0 + b0), b0])
    phi, phi0, phip, windows = _mismatch_batch(problem, np.tile(K, 3),
                                               x0.ravel(), list(windows) * 3,
                                               opts.settings, tail_check=True)
    windows = windows[:nb]      # the three points of a bracket share one
    # ends[:, s, j] = (Omega, g, phi0, phi+) at the lower (s=0) or upper
    # (s=1) end of bracket j; third[:, j] = (Omega, g) of its third point
    ends, third = _settle(rows(x0, np.arange(nb), phi, phi0, phip),
                          np.full((2, nb), np.nan))

    # ITP from the halved brackets: kappa1 = 0.2/w0, kappa2 = 2, n0 = 3
    w0 = ends[0, 1] - ends[0, 0]
    eps = 0.5 * opts.root_tol * np.max(np.abs(ends[0]), axis=0)
    n_max = np.ceil(np.log2(w0 / (2.0 * eps))) + 3.0
    kappa1 = 0.2 / w0
    for j in range(_MAX_ROUNDS - 1):
        (a, b), (ga, gb), (c, gc) = ends[0], ends[1], third
        width = b - a
        tol = opts.root_tol * np.maximum(np.abs(a), np.abs(b))
        resid = np.minimum(np.abs(ga), np.abs(gb))
        at_float_limit = width <= 8 * np.finfo(float).eps * np.abs(b)
        active = ((width > tol) | (resid > opts.residual_tol)) & ~at_float_limit
        if not np.any(active):
            break
        mid = 0.5 * (a + b)
        bracketed = (ga < 0) & (gb > 0)
        x_f = np.where(bracketed, (b * ga - a * gb)
                       / np.where(bracketed, ga - gb, 1.0), mid)
        sigma = np.sign(mid - x_f)
        delta = kappa1 * width ** 2
        x_t = np.where(delta <= np.abs(mid - x_f), x_f + sigma * delta, mid)
        radius = np.maximum(eps * 2.0 ** (n_max - j) - 0.5 * width, 0.0)
        x = np.where(np.abs(x_t - mid) <= radius, x_t, mid - sigma * radius)
        guard = np.minimum(0.4 * tol, 0.5 * width)
        lo, hi = a + guard, b - guard
        x = np.where(bracketed, np.clip(x, lo, hi), mid)

        # straddle x_s -+ e, e = max(0.4 tol, 0.3 |x_IQI - x_rf|); a
        # missing third point or equal g values give e = 0.4 tol
        with np.errstate(all="ignore"):
            x_q = (a * gb * gc / ((ga - gb) * (ga - gc))
                   + b * ga * gc / ((gb - ga) * (gb - gc))
                   + c * ga * gb / ((gc - ga) * (gc - gb)))
            spread = np.abs(x_q - x_f)
        e = np.maximum(0.4 * tol, 0.3 * np.where(np.isfinite(spread),
                                                 spread, 0.0))
        x_s = np.where((x_q > a) & (x_q < b), x_q, x_f)
        pair = x_s + np.array([[-1.0], [1.0]]) * e
        pair = np.where(bracketed & (pair >= lo) & (pair <= hi), pair, x)

        idx = np.nonzero(active)[0]
        x3 = np.concatenate([x[None], pair])[:, idx]
        phi, phi0, phip, _ = _mismatch_batch(problem, np.tile(K[idx], 3),
                                             x3.ravel(),
                                             [windows[i] for i in idx] * 3,
                                             opts.settings,
                                             tail_check=False)
        ends[:, :, idx], third[:, idx] = _settle(
            np.concatenate([ends[:, :, idx], rows(x3, idx, phi, phi0, phip)],
                           axis=1), third[:, idx])

    best = (np.abs(ends[1, 1]) < np.abs(ends[1, 0])).astype(int)
    omega, g, phi0, phip = ends[:, best, np.arange(nb)]
    out = []
    for j, (_, _, nn, noisy) in enumerate(brackets):
        resid = abs(float(g[j]))
        flag = None
        if resid > opts.residual_tol:
            flag = "residual above tolerance"
        if noisy:
            flag = _add_flag(flag, "non-monotone scan values")
        out.append(Mode(K=float(K[j]), Omega=float(omega[j]), m=nn + 1,
                        phi_surface=float(phi0[j]), phi_decay=float(phip[j]),
                        residual=resid, matching=windows[j], flag=flag))
    return out


def trace_branches(profile: MaterialProfile, k_grid,
                   opts: SearchOptions = DEFAULT_OPTIONS,
                   classification: Optional[ProfileClass] = None):
    """Dispersion branches over a strictly increasing wavenumber grid.

    Every k is scanned on find_modes' grid, all k in one batch per scan
    chunk, each k in its own window; then the brackets of all k are
    refined in one ITP batch (see _refine_brackets), each with its own K
    and its matching depth polished in its own k's window.  Each k is
    swept on lanes of its own, so it takes the steps it would take
    alone: every mode, ``matching`` included, is the one find_modes
    gives at that k.  Modes are associated across k by their index m.
    """
    k_grid = np.asarray(k_grid, dtype=float)
    with np.errstate(over="ignore"):
        finite = np.square(k_grid) < math.inf
    if not (np.all((k_grid > 0) & finite) and np.all(np.diff(k_grid) > 0)):
        raise ValueError("k_grid must be positive, strictly increasing and "
                         "finite when squared")
    results = _search(profile, [float(k) ** 2 for k in k_grid], opts,
                      classification or classify(profile))

    by_m: dict[int, list] = {}
    found_at: dict[int, set] = {}
    for k, res in zip(k_grid, results):
        for md in res.modes:
            by_m.setdefault(md.m, []).append((float(k), md.omega))
            found_at.setdefault(md.m, set()).add(float(k))
    branches = []
    for m in sorted(by_m):
        pts = tuple(sorted(by_m[m]))
        first_k = pts[0][0]
        gaps = tuple(float(k) for k in k_grid
                     if k >= first_k and float(k) not in found_at[m])
        branches.append(Branch(m=m, points=pts, gaps=gaps))
    return branches, results


# ---------------------------------------------------------------------------
# mode-count estimate and oscillation test


def estimate_mode_count(profile: MaterialProfile, K: float):
    """Phase-integral estimate of the number of modes at wavenumber^2 K.

    Evaluates (1/pi) * integral of sqrt(max(gamma_{A_inf}, 0)/mu) dy at
    the limit-ray parameter A_inf = (K, K*mu_inf/rho_inf); the division
    by mu renders the count invariant under the coordinate substitution
    that removes a variable stiffness.  Since gamma_{A_inf} equals
    (K/rho_inf) * gamma_hat, this is sqrt(K/rho_inf)/pi times one
    K-independent integral: exactly linear in k.  Returns +inf unless
    oscillation_test finds that integral convergent ("non_oscillatory").
    """
    if not 0 < K < math.inf:
        raise ValueError("K must be a finite number > 0, got %r" % (K,))
    if oscillation_test(profile).verdict != "non_oscillatory":
        return math.inf
    ghat = profile.limit_gamma_hat

    def f(y):
        return np.sqrt(np.maximum(ghat(y), 0.0) / profile.mu(y))

    # truncation depth: integrand below 1e-14
    ys = np.geomspace(1.0, 2.0 ** 25, 512)
    above = np.nonzero(f(ys) >= 1e-14)[0]
    y_tr = float(ys[above[-1]] * 1.05) if len(above) else 2.0
    ys = np.linspace(0.0, y_tr, 4096)
    nonneg = np.asarray(ghat(ys)) >= 0.0    # turning points: sign flips
    turning = 0.5 * (ys[1:] + ys[:-1])[nonneg[1:] != nonneg[:-1]]
    pieces = [0.0] + turning.tolist() + [y_tr]
    total = 0.0
    for aa, bb in zip(pieces[:-1], pieces[1:]):
        total += _adaptive_integral(f, aa, bb)
    return math.sqrt(K / profile.rho_inf) / math.pi * total


def _adaptive_integral(f, a, b, depth=0):
    from numpy.polynomial.legendre import leggauss

    if not hasattr(_adaptive_integral, "_nodes"):
        _adaptive_integral._nodes = (leggauss(10), leggauss(20))
    (x1, w1), (x2, w2) = _adaptive_integral._nodes
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    c = half * float(np.dot(w1, f(mid + half * x1)))
    fine = half * float(np.dot(w2, f(mid + half * x2)))
    if abs(fine - c) <= 1e-11 * max(1.0, abs(fine)) or depth > 48:
        return fine
    m = 0.5 * (a + b)
    return (_adaptive_integral(f, a, m, depth + 1)
            + _adaptive_integral(f, m, b, depth + 1))


@dataclass(frozen=True)
class OscillationVerdict:
    """Outcome of the oscillation test with its window evidence."""

    verdict: str                # "oscillatory" | "non_oscillatory" | "inconclusive"
    reason: str
    windows: tuple              # (T, I_window, V_window) rows


def oscillation_test(profile: MaterialProfile) -> OscillationVerdict:
    """Decide whether the limit-ray equation oscillates.

    The limit-ray coefficient
    gamma_hat = mu_inf*(rho - rho_inf) - rho_inf*(mu - mu_inf) must be
    positive on the tail with a divergent integral of sqrt(gamma_hat/mu)
    while the relative variation of log(mu*gamma_hat) stays subordinate
    to it; then every solution oscillates all the way to infinity and
    modes accumulate at the cutoff for every K.
    Evidence is gathered on doubling windows [T, 2T] from T = 1 to 2**19.
    """
    ghat = profile.limit_gamma_hat
    floor = 1e-14 * profile.mu_inf * profile.rho_inf

    rows = []          # (T, I_window, V_window, has_pos, has_neg)
    t = 1.0
    while 2 * t <= 2.0 ** 20:
        ys = np.geomspace(t, 2 * t, 512)
        g = np.asarray(ghat(ys), dtype=float)
        mu = np.asarray(profile.mu(ys), dtype=float)
        has_pos = bool(np.any(g > floor))
        has_neg = bool(np.any(g < -floor))
        iw = float(np.trapezoid(np.sqrt(np.maximum(g, 0.0) / mu), ys))
        if np.all(g > floor):
            logv = np.log(mu * g)
            vw = float(np.sum(np.abs(np.diff(logv))))
        else:
            vw = math.inf
        rows.append((float(t), iw, vw, has_pos, has_neg))
        t *= 2.0

    if not any(r[3] for r in rows):
        return OscillationVerdict(
            "non_oscillatory",
            "limit-ray coefficient is nonpositive on the tail",
            tuple(rows))
    if any(r[4] for r in rows[-4:]):
        return OscillationVerdict(
            "inconclusive", "limit-ray coefficient changes sign on the tail",
            tuple(rows))

    iw = np.array([r[1] for r in rows])
    # convergent phase integral: the last windows collapse over three doublings
    if _halves_every_three(iw[-6:], 1e-12 * max(iw.max(), 1e-300)):
        return OscillationVerdict(
            "non_oscillatory",
            "the phase integral of the limit-ray equation converges",
            tuple(rows))
    growing = all(iw[j + 1] >= 0.8 * iw[j] for j in range(len(iw) - 4, len(iw) - 1))
    icum = np.cumsum(iw)
    vcum = np.cumsum([r[2] for r in rows])
    ratios = vcum[-4:] / icum[-4:]
    subordinate = bool(np.all(np.isfinite(ratios)) and np.all(np.diff(ratios) < 0))
    if growing and subordinate:
        return OscillationVerdict(
            "oscillatory",
            "unsaturated phase integral with subordinate relative variation",
            tuple(rows))
    return OscillationVerdict(
        "inconclusive", "window growth pattern matches neither regime",
        tuple(rows))
