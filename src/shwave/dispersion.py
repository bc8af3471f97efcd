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
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Optional

import numpy as np

from . import liouville
from .decay import (DEFAULT_MARGIN, DEFAULT_Y_BAR, NEAR_THRESHOLD_DELTA,
                    MatchingConfig, decaying_phase_batch, matching_config)
from .errors import NoNegativeTailError, TailSelectionError
from .prufer import DEFAULT_SETTINGS, HALF_PI, IntegratorSettings, phase_batch
from .profile import (MaterialProfile, ProfileClass, _as_param, _gamma,
                      _sign_scan, _trapezoid, admissible_interval, classify,
                      interval_is_empty)

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
    tail_stretch: float = 1.0        # >1 widens the tail window (robustness runs)
    space: str = "y"                 # "y" or "tau"


DEFAULT_OPTIONS = SearchOptions()


def _problem_for(profile: MaterialProfile, space: str):
    if space == "y":
        return profile
    if space == "tau":
        return liouville.transform(profile)
    raise ValueError("space must be 'y' or 'tau'")


def _mismatch_batch(problem, K, omegas, cfg: MatchingConfig,
                    settings: IntegratorSettings, y_bars=None,
                    tail_check: bool = True):
    """(Phi, phi0, phi_plus, cfg) for a vector of frequencies at one K.

    All members share the tail window of cfg, which must be valid for
    the largest Omega in the batch (it then covers the smaller ones).
    ``y_bars`` optionally assigns each member its own matching depth;
    both sweeps then use dense output and are read off per member.  The
    returned cfg carries the tail window the decaying sweep accepted.
    """
    omegas = np.atleast_1d(np.asarray(omegas, dtype=float))
    phi0 = phase_batch(partial(_gamma, problem, K, omegas), problem.stiffness,
                       np.full(omegas.shape, HALF_PI), 0.0, cfg.y_bar,
                       settings=settings, read_at=y_bars,
                       breakpoints=problem.breakpoints)
    phi_plus, cfg = decaying_phase_batch(problem, K, omegas, cfg,
                                         settings=settings, y_bars=y_bars,
                                         check=tail_check)
    return phi0 - phi_plus, phi0, phi_plus, cfg


def mismatch(profile, K, Omega, cfg: Optional[MatchingConfig] = None,
             settings: Optional[IntegratorSettings] = None,
             space: str = "y") -> float:
    """Lifted angle difference Phi(Omega); roots on pi*Z are matched modes."""
    problem = _problem_for(profile, space) if isinstance(profile, MaterialProfile) \
        else profile
    A = _as_param((K, Omega))
    settings = settings or DEFAULT_SETTINGS
    if cfg is None:
        cfg = matching_config(problem, A)
    phi = _mismatch_batch(problem, K, np.array([Omega]), cfg, settings)[0]
    return float(phi[0])


def _grow_cfg(problem, K, omega_top, cfg_prev: Optional[MatchingConfig],
              tail_stretch: float) -> MatchingConfig:
    """Worst-case matching window for everything scanned so far at this K.

    Depths only ever grow while the scan climbs toward the cutoff, so
    every bracket refinement reuses a window that is valid for it.
    """
    cfg = matching_config(problem, (K, omega_top))
    if tail_stretch != 1.0:
        cfg = cfg.stretched(tail_stretch)
    if cfg_prev is not None:
        y_bar = max(cfg.y_bar, cfg_prev.y_bar)
        y_tail = max(cfg.y_tail, cfg_prev.y_tail, y_bar)
        cfg = replace(cfg, y_bar=y_bar, y_tail=y_tail,
                      strict_tail=cfg.strict_tail and cfg_prev.strict_tail)
    return cfg


def find_modes(profile: MaterialProfile, K: float,
               opts: SearchOptions = DEFAULT_OPTIONS,
               classification: Optional[ProfileClass] = None) -> ModeSearchResult:
    """All trapped-mode frequencies at one squared wavenumber.

    The admissible interval is scanned on a uniform grid plus a
    geometric refinement toward the cutoff (where high modes
    accumulate); every upward crossing of Phi through a multiple of pi
    is refined by ITP to ``root_tol`` relative in Omega.  Profiles whose
    material angle never drops below its limit are rejected without
    solving, and frequencies at or below K*min(mu/rho) are never
    scanned - no modes can live there.
    """
    if K <= 0:
        raise ValueError("K must be positive")
    cls = classification or classify(profile)
    lo, hi = admissible_interval(profile, K, cls)
    if cls.global_negative:
        return ModeSearchResult(K=K, modes=[], interval=(lo, hi),
                                nonexistence_reason=_REASON_GLOBAL_NEGATIVE)
    if interval_is_empty(lo, hi):
        return ModeSearchResult(K=K, modes=[], interval=(lo, hi),
                                nonexistence_reason=_REASON_EMPTY_INTERVAL)

    problem = _problem_for(profile, opts.space)
    settings = opts.settings
    scan_settings = IntegratorSettings(
        rel_tol=max(settings.rel_tol, 1e-8), abs_tol=max(settings.abs_tol, 1e-10))

    cap = hi * (1.0 - NEAR_THRESHOLD_DELTA)
    width = hi - lo
    n = max(opts.omega_grid_n, 8)
    uniform = lo + width * np.arange(1, n) / n
    head = np.array([lo + width * 1e-6])
    uniform = np.concatenate([head, uniform[uniform < cap]])

    gap0 = hi - uniform[-1]
    geo = []
    g = gap0 * 0.5
    while hi - g > uniform[-1] and g / hi > NEAR_THRESHOLD_DELTA:
        geo.append(hi - g)
        g *= 0.5
    chunks = [uniform]
    if geo:
        chunks.append(np.asarray(geo))

    modes: list[Mode] = []
    cfg_cache: Optional[MatchingConfig] = None
    prev_omega = None
    prev_phi = None
    truncated = False
    scan_ceiling = None
    hit_tail_limit = False

    for chunk in chunks:
        if len(modes) >= opts.max_modes or hit_tail_limit:
            truncated = truncated or len(modes) >= opts.max_modes
            break
        # approaching the cutoff the decay length diverges; when no
        # reachable tail-start depth exists for the top of the chunk,
        # scan the feasible prefix and stop there (modes can hide past
        # that point only in the oscillatory-accumulation regime, whose
        # deeper matching windows keep the tail reachable)
        try:
            cfg_cache = _grow_cfg(problem, K, float(chunk[-1]), cfg_cache,
                                  opts.tail_stretch)
        except (TailSelectionError, NoNegativeTailError):
            feasible = None
            for j in range(len(chunk) - 2, -1, -1):
                try:
                    cfg_cache = _grow_cfg(problem, K, float(chunk[j]),
                                          cfg_cache, opts.tail_stretch)
                    feasible = j
                    break
                except (TailSelectionError, NoNegativeTailError):
                    continue
            if feasible is None:
                if cfg_cache is None:
                    raise
                break
            chunk = chunk[: feasible + 1]
            hit_tail_limit = True
        scan_ceiling = float(chunk[-1])
        phi_chunk = _mismatch_batch(problem, K, chunk, cfg_cache,
                                    scan_settings)[0]
        omegas = chunk
        phis = phi_chunk
        if prev_omega is not None:
            omegas = np.concatenate([[prev_omega], omegas])
            phis = np.concatenate([[prev_phi], phis])
        brackets = []
        noisy_flags = []
        for i in range(len(omegas) - 1):
            fa, fb = phis[i], phis[i + 1]
            pair_noisy = bool(fb < fa - 1e-6)
            n_lo = math.floor(fa / math.pi) + 1
            n_hi = math.floor(fb / math.pi)
            for nn in range(max(n_lo, 0), n_hi + 1):
                brackets.append((float(omegas[i]), float(omegas[i + 1]), nn,
                                 float(fa), float(fb)))
                noisy_flags.append(pair_noisy)
        prev_omega = float(omegas[-1])
        prev_phi = float(phis[-1])
        room = opts.max_modes - len(modes)
        if len(brackets) > room:
            truncated = True
            brackets = brackets[:room]
            noisy_flags = noisy_flags[:room]
        if brackets:
            modes.extend(_refine_brackets(problem, K, brackets, cfg_cache,
                                          settings, opts, noisy_flags))

    # two roots with one index mean a band slip: keep the smaller
    # residual and flag it
    by_m: dict[int, Mode] = {}
    duplicated = set()
    for md in modes:
        cur = by_m.get(md.m)
        if cur is not None:
            duplicated.add(md.m)
        if cur is None or md.residual < cur.residual:
            by_m[md.m] = md
    out = sorted((replace(md, flag=_add_flag(md.flag, "duplicate mode index"))
                  if md.m in duplicated else md for md in by_m.values()),
                 key=lambda md: md.Omega)
    if len(out) > opts.max_modes:
        out = out[: opts.max_modes]
        truncated = True
    return ModeSearchResult(K=K, modes=out, interval=(lo, hi),
                            truncated=truncated, scan_ceiling=scan_ceiling)


def _polish_depths(problem, K, omega_tops, cfg: MatchingConfig):
    """Per-bracket matching depths, kept close to each turning point.

    The mismatch step between modes sharpens like exp(-2 * integral of
    the decay rate over [turning point, y_bar]); the deep worst-case
    depth of the scan makes low modes at large K exponentially
    ill-conditioned in the residual.  Each bracket therefore matches
    just behind its own last sign change of gamma, with the margin
    shrunk so the contraction integral over it stays O(1).  All
    brackets are resolved on one shared grid; any bracket whose shallow
    depth cannot be verified negative falls back to the scan depth.
    """
    omega_tops = np.asarray(omega_tops, dtype=float)
    hi = cfg.y_bar + 1.0
    ys = np.concatenate([np.linspace(0.0, min(8.0, hi), 2048, endpoint=False),
                         np.linspace(min(8.0, hi), hi, 2048)]) \
        if hi > 8.0 else np.linspace(0.0, hi, 4096)
    G = _gamma(problem, K, omega_tops, ys)
    last, _ = _sign_scan(ys, G)

    out = np.full(omega_tops.shape, min(DEFAULT_Y_BAR, cfg.y_bar))
    for j in np.nonzero(last >= 0)[0]:
        i = last[j]
        y_star = ys[i]
        i2 = min(i + 16, ys.size - 1)
        slope = abs(G[j, i2] - G[j, i]) / max(ys[i2] - ys[i], 1e-9)
        margin = min(DEFAULT_MARGIN,
                     max(0.05, (2.25 / max(math.sqrt(slope), 1e-9)) ** (2.0 / 3.0)))
        y_bar = y_star + margin
        # gamma < 0 on the grid past y_star, so only a y_bar beyond the
        # grid is unverified
        if y_bar > ys[-1]:
            y_bar = min(y_star + DEFAULT_MARGIN, cfg.y_bar)
        out[j] = min(y_bar, cfg.y_bar)
    return out


def _add_flag(flag: Optional[str], note: str) -> str:
    return flag + "; " + note if flag else note


def _refine_brackets(problem, K, brackets, cfg, settings, opts, noisy_flags):
    """Refine all pending brackets simultaneously by ITP, one batch per sweep.

    ITP (Oliveira & Takahashi, ACM TOMS 47(1), 2020) steps from the
    regula-falsi point toward the midpoint and projects it into a
    radius that halves every round, so it converges superlinearly on
    the smooth mismatch yet never needs more rounds than bisection.  A
    point is kept at least 0.4 root_tol inside the bracket (Brent's
    guard), which stops a bracket from shrinking one-sidedly just above
    the tolerance.  Brackets move only by the sign of g = Phi - n*pi, so
    every root stays certified.

    Round 0 evaluates both ends and the midpoint of every bracket with
    the tail check on (the scan's values come from looser settings and
    other depths); later rounds reuse the tail window it accepted.  Each
    bracket gets its own matching depth near its turning point (see
    _polish_depths); the shared backward sweep starts at the worst-case
    tail depth and every member is read off at its own y_bar.  A mode
    reports the bracket end with the smaller |g|, with its angles.
    """
    nb = len(brackets)
    a0 = np.array([b[0] for b in brackets])
    b0 = np.array([b[1] for b in brackets])
    targets = np.array([b[2] * math.pi for b in brackets])
    y_bars = _polish_depths(problem, K, b0, cfg)

    def rows(omegas, n_pi, phi, phi0, phip):
        return np.stack([omegas, phi - n_pi, phi0, phip])

    def update(idx, new):
        ends[(new[1] >= 0).astype(int), :, idx] = new.T

    x0 = np.concatenate([a0, 0.5 * (a0 + b0), b0])
    phi, phi0, phip, cfg = _mismatch_batch(problem, K, x0, cfg, settings,
                                           y_bars=np.tile(y_bars, 3),
                                           tail_check=True)
    first = rows(x0, np.tile(targets, 3), phi, phi0, phip).reshape(4, 3, nb)
    # ends[s, :, j] = (Omega, g, phi0, phi+) at the lower (s=0) or upper
    # (s=1) end of bracket j; the midpoint then replaces one of them
    ends = first[:, 0::2].swapaxes(0, 1).copy()
    all_idx = np.arange(nb)
    update(all_idx, first[:, 1])

    # ITP from the halved brackets: kappa1 = 0.2/w0, kappa2 = 2, n0 = 1
    w0 = ends[1, 0] - ends[0, 0]
    eps = 0.5 * opts.root_tol * np.max(np.abs(ends[:, 0]), axis=0)
    n_max = np.ceil(np.log2(w0 / (2.0 * eps))) + 1.0
    kappa1 = 0.2 / w0
    for j in range(_MAX_ROUNDS - 1):
        (a, ga), (b, gb) = ends[0, :2], ends[1, :2]
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
        x = np.where(bracketed, np.clip(x, a + guard, b - guard), mid)

        idx = np.nonzero(active)[0]
        phi, phi0, phip, _ = _mismatch_batch(problem, K, x[idx], cfg, settings,
                                             y_bars=y_bars[idx],
                                             tail_check=False)
        update(idx, rows(x[idx], targets[idx], phi, phi0, phip))

    best = (np.abs(ends[1, 1]) < np.abs(ends[0, 1])).astype(int)
    omega, g, phi0, phip = ends[best, :, all_idx].T
    out = []
    for j, (_, _, nn, _, _) in enumerate(brackets):
        resid = abs(float(g[j]))
        flag = None
        if resid > opts.residual_tol:
            flag = "residual above tolerance"
        if noisy_flags[j]:
            flag = _add_flag(flag, "non-monotone scan values")
        out.append(Mode(K=K, Omega=float(omega[j]), m=nn + 1,
                        phi_surface=float(phi0[j]), phi_decay=float(phip[j]),
                        residual=resid,
                        matching=replace(cfg, y_bar=float(y_bars[j])),
                        flag=flag))
    return out


def trace_branches(profile: MaterialProfile, k_grid,
                   opts: SearchOptions = DEFAULT_OPTIONS, workers: int = 1,
                   classification: Optional[ProfileClass] = None):
    """Dispersion branches over a strictly increasing wavenumber grid.

    Runs an independent find_modes at every k (in parallel when
    ``workers > 1``) and associates modes across k by their index m.
    Results are assembled deterministically regardless of worker count.
    """
    k_grid = np.asarray(k_grid, dtype=float)
    if np.any(k_grid <= 0) or np.any(np.diff(k_grid) <= 0):
        raise ValueError("k_grid must be positive and strictly increasing")
    cls = classification or classify(profile)

    # Per-k searches are independent and share nothing mutable.  No
    # state is carried between wavenumbers, so serial and parallel
    # execution produce bit-identical results.
    search = partial(find_modes, profile, opts=opts, classification=cls)
    Ks = [float(k) ** 2 for k in k_grid]
    if workers > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(search, Ks))
    else:
        results = list(map(search, Ks))

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
    that removes a variable stiffness.  Returns +inf when the integrand
    fails to decay (the oscillatory regime has unbounded counts).
    """
    if K <= 0:
        raise ValueError("K must be positive")
    omega_bar = K * profile.mu_inf / profile.rho_inf

    def f(y):
        return np.sqrt(np.maximum(_gamma(profile, K, omega_bar, y), 0.0)
                       / profile.stiffness(y))

    # doubling-window divergence screen
    windows = []
    a = 1.0
    for _ in range(24):
        windows.append(_trapezoid(f, a, 2 * a, 257))
        a *= 2.0
    windows = np.asarray(windows)
    scale = max(float(np.max(windows)), 1e-300)
    for j in range(len(windows) - 3):
        if windows[j + 3] > 0.5 * windows[j] and windows[j + 3] > 1e-10 * scale:
            return math.inf
    # truncation depth: integrand below 1e-14 and negligible windows
    y_cut = 2.0 * a
    ys = np.geomspace(1.0, y_cut, 512)
    vals = f(ys)
    below = np.nonzero(vals >= 1e-14)[0]
    y_tr = float(ys[below[-1]] * 1.05) if len(below) else 2.0
    ys = np.linspace(0.0, y_tr, 4096)
    _, turning = _sign_scan(ys, _gamma(profile, K, omega_bar, ys))
    pieces = [0.0] + turning.tolist() + [y_tr]
    total = 0.0
    for aa, bb in zip(pieces[:-1], pieces[1:]):
        total += _adaptive_integral(f, aa, bb)
    return total / math.pi


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

    The limit-ray coefficient gamma_hat = mu_inf*rho_hat - rho_inf*mu_hat
    must be positive on the tail with a divergent integral of
    sqrt(gamma_hat/mu) while the relative variation of log(mu*gamma_hat)
    stays subordinate to it; then every solution oscillates all the way
    to infinity and modes accumulate at the cutoff for every K.
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

    tail_rows = rows[-4:]
    if any(r[4] for r in tail_rows):
        if not any(r[3] for r in rows):
            return OscillationVerdict(
                "non_oscillatory",
                "limit-ray coefficient is nonpositive on the tail",
                tuple(rows))
        return OscillationVerdict(
            "inconclusive", "limit-ray coefficient changes sign on the tail",
            tuple(rows))
    if not any(r[3] for r in rows):
        return OscillationVerdict(
            "non_oscillatory",
            "limit-ray coefficient is nonpositive on the tail",
            tuple(rows))

    iw = np.array([r[1] for r in rows])
    # convergent phase integral: windows collapse over three doublings
    converged = all(
        iw[j + 3] <= 0.5 * iw[j] or iw[j + 3] <= 1e-12 * max(iw.max(), 1e-300)
        for j in range(max(len(iw) - 6, 0), len(iw) - 3))
    if converged:
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
