"""Material profile construction, evaluation and classification."""

import math

import numpy as np
import pytest

import shwave as sw
from shwave.errors import DomainError, ProfileError


def test_eval_constant(constant_profile):
    assert constant_profile.eval(3.0) == (1.0, 1.0)


def test_eval_exponential_surface(exp_profile):
    rho, mu = exp_profile.eval(0.0)
    assert abs(rho - 6.0) < 1e-14
    assert mu == 1.0


def test_eval_table_clamps_beyond_data():
    table = sw.from_table([(0.0, 2.0, 1.0), (1.0, 1.0, 1.0)], rho_inf=1.0)
    assert table.eval(2.0) == (1.0, 1.0)
    assert table.tail_constant_from == 1.0


def test_eval_negative_depth_rejected(exp_profile):
    with pytest.raises(DomainError):
        exp_profile.eval(-0.5)


def test_eval_nan_depth_rejected(exp_profile):
    for y in (math.nan, [1.0, math.nan]):
        for accessor in (exp_profile.rho, exp_profile.mu, exp_profile.eval):
            with pytest.raises(DomainError):
                accessor(y)
    # the limit depth stays accepted
    assert exp_profile.eval(math.inf) == (1.0, 1.0)


def test_non_numeric_parameters_rejected():
    with pytest.raises(ProfileError, match="'drho'"):
        sw.from_registry("exp_density", {"drho": "x"})
    with pytest.raises(ProfileError, match="'width'"):
        sw.from_registry("smoothed_layer", {
            "rho_1": 2.0, "mu_1": 1.0, "rho_s": 1.0, "mu_s": 1.0,
            "y_s": 2.0, "width": None})
    with pytest.raises(ProfileError, match="triples of numbers"):
        sw.from_registry("table", {"rows": [[0, "a", 1], [1, 1, 1]]})


_LAYER = {"rho_1": 2.0, "mu_1": 1.0, "rho_s": 1.0, "mu_s": 1.0, "y_s": 2.0}


@pytest.mark.parametrize("name, params, accepted", [
    ("constant", {"rho": 1.0, "mu": 1.0, "rh0": 2.0}, ("rho", "mu")),
    ("exp_density", {"drho": 5.0, "depth": 3.0}, ("rho_inf", "drho", "d", "mu")),
    ("power_density", {"c": 3.0, "p": 1.5, "q": 1.0}, ("rho_inf", "c", "p", "mu")),
    ("smoothed_layer", dict(_LAYER, widht=0.5),
     ("rho_1", "mu_1", "rho_s", "mu_s", "y_s", "width")),
    ("table", {"rows": [[0, 2, 1], [1, 1, 1]], "mu_infinity": 1.0},
     ("rows", "rho_inf", "mu_inf")),
], ids=["constant", "exp_density", "power_density", "smoothed_layer", "table"])
def test_unknown_parameters_rejected(name, params, accepted):
    # a misspelt key must not silently leave its parameter at the default
    stray = (set(params) - set(accepted)).pop()
    with pytest.raises(ProfileError, match=repr(stray)) as err:
        sw.from_registry(name, params)
    assert str(err.value).endswith("accepts " + ", ".join(accepted))


def test_boolean_parameters_rejected():
    # float(True) is 1.0, but a boolean is no material parameter
    with pytest.raises(ProfileError, match="'mu'"):
        sw.from_registry("constant", {"rho": 1.0, "mu": True})
    with pytest.raises(ProfileError, match="'width'"):
        sw.from_registry("smoothed_layer", dict(_LAYER, width=np.bool_(True)))
    with pytest.raises(ProfileError, match=r"'rows'.*\(row 2\)"):
        sw.from_registry("table", {"rows": [[0, 2, 1], [1, True, 1]]})
    # from_table hands its values to the same checks unconverted
    with pytest.raises(ProfileError, match=r"'rows'.*\(row 1\)"):
        sw.from_table([(0, True, 1), (1, 1, 1)])
    with pytest.raises(ProfileError, match="'rho_inf'"):
        sw.from_table([(0, 2, 1), (1, 1, 1)], rho_inf=True)
    with pytest.raises(ProfileError, match="'mu_inf'"):
        sw.from_table([(0, 2, 1), (1, 1, 1)], mu_inf=np.bool_(True))


def test_table_validation_errors():
    with pytest.raises(ProfileError, match="row 3"):
        sw.from_table([(0, 1, 1), (1, 1, 1), (0.5, 1, 1)])
    with pytest.raises(ProfileError, match="positive"):
        sw.from_table([(0, -1, 1), (1, 1, 1)])
    with pytest.raises(ProfileError, match="last table row"):
        sw.from_table([(0, 2, 1), (1, 1.5, 1)], rho_inf=1.0)
    # NaN gets past every ordering and sign comparison
    for rows, row in (([(0, 1, 1), (math.nan, 1, 1), (2, 1, 1)], 2),
                      ([(0, math.inf, 1), (1, 1, 1)], 1),
                      ([(0, 2, 1), (1, 1, math.nan)], 2)):
        with pytest.raises(ProfileError, match=r"finite \(row %d\)" % row):
            sw.from_table(rows)


def test_table_interpolation_monotone_no_overshoot():
    table = sw.from_table(
        [(0.0, 5.0, 1.0), (1.0, 3.0, 1.0), (2.0, 1.2, 1.0), (3.0, 1.0, 1.0)],
        rho_inf=1.0, mu_inf=1.0)
    ys = np.linspace(0, 3, 301)
    rho = table.rho(ys)
    assert np.all(np.diff(rho) <= 1e-12)
    assert np.all(rho >= 1.0 - 1e-12)
    assert np.all(rho <= 5.0 + 1e-12)


def test_gamma_values(exp_profile, constant_profile):
    assert constant_profile.gamma((1.0, 2.0), 4.7) == 1.0
    assert constant_profile.gamma((1.0, 1.0), 0.3) == 0.0
    assert abs(exp_profile.gamma((1.0, 0.5), 0.0) - 2.0) < 1e-14


def test_gamma_definitional_identity(exp_profile):
    rng = np.random.default_rng(0)
    for _ in range(50):
        K, Om = rng.uniform(0.1, 20, 2)
        y = rng.uniform(0, 30)
        rho, mu = exp_profile.eval(y)
        assert exp_profile.gamma((K, Om), y) == Om * rho - K * mu


def test_arg_a(exp_profile):
    p = sw.from_registry("constant", {"rho": 1.0, "mu": 1.0})
    assert abs(p.arg_a(0.0) - math.pi / 4) < 1e-15
    p2 = sw.from_registry("constant", {"rho": math.sqrt(3.0), "mu": 1.0})
    assert abs(p2.arg_a(1.0) - math.pi / 6) < 1e-15
    ys = np.linspace(0, 20, 64)
    assert np.all(exp_profile.arg_a(ys) < exp_profile.arg_a_inf)


def test_arg_sign_relation(exp_profile):
    # Arg a below Arg A forces a positive coefficient and vice versa
    rng = np.random.default_rng(7)
    for _ in range(200):
        K, Om = rng.uniform(0.05, 10, 2)
        y = rng.uniform(0, 10)
        arg_a = float(exp_profile.arg_a(y))
        arg_A = math.atan2(Om, K)
        g = exp_profile.gamma((K, Om), y)
        if arg_a < arg_A - 1e-12:
            assert g > 0
        elif arg_a > arg_A + 1e-12:
            assert g < 0


def test_classify(exp_profile, shallow_profile, constant_profile, stiff_profile):
    cls = sw.classify(shallow_profile)
    assert cls.global_negative
    assert cls.monotonicity_at_inf == "negative"

    cls = sw.classify(exp_profile)
    assert not cls.global_negative
    assert cls.monotonicity_at_inf == "positive"
    assert abs(cls.min_mu_over_rho - 1.0 / 6.0) < 1e-10
    assert abs(cls.y_check) < 1e-6

    cls = sw.classify(constant_profile)
    assert cls.global_negative

    assert sw.classify(stiff_profile).global_negative


def test_admissible_interval(exp_profile, constant_profile, power_profile):
    lo, hi = sw.admissible_interval(constant_profile, 1.0)
    assert lo == hi == 1.0
    assert sw.interval_is_empty(lo, hi)

    lo, hi = sw.admissible_interval(exp_profile, 1.0)
    assert abs(lo - 1.0 / 6.0) < 1e-10
    assert hi == 1.0

    lo, hi = sw.admissible_interval(power_profile, 4.0)
    assert abs(lo - 1.0) < 1e-9
    assert hi == 4.0


@pytest.mark.parametrize("K", [math.nan, math.inf, 0.0])
def test_admissible_interval_rejects_nonfinite_K(exp_profile, K):
    with pytest.raises(ProfileError, match="finite"):
        sw.admissible_interval(exp_profile, K)


def test_admissible_interval_scales_linearly(exp_profile):
    cls = sw.classify(exp_profile)
    lo1, hi1 = sw.admissible_interval(exp_profile, 2.0, cls)
    lo2, hi2 = sw.admissible_interval(exp_profile, 6.0, cls)
    assert abs(lo2 - 3 * lo1) < 1e-12
    assert abs(hi2 - 3 * hi1) < 1e-12


def test_limit_gamma_hat(exp_profile, constant_profile, stiff_profile):
    ys = np.array([0.0, 1.0, 2.5])
    assert np.allclose(exp_profile.limit_gamma_hat(ys), 5 * np.exp(-ys))
    assert np.allclose(constant_profile.limit_gamma_hat(ys), 0.0)
    assert np.allclose(stiff_profile.limit_gamma_hat(ys), -np.exp(-ys))


def test_limit_gamma_hat_vanishes_at_depth(exp_profile):
    assert abs(exp_profile.limit_gamma_hat(80.0)) < 1e-30


def test_check_assumptions(exp_profile, constant_profile):
    rep = sw.check_assumptions(exp_profile)
    assert rep.integrable
    assert abs(rep.integral_estimate - 5.0) < 1e-3
    assert rep.lipschitz_ok

    rep = sw.check_assumptions(constant_profile)
    assert rep.integrable
    assert rep.integral_estimate == 0.0

    slow = sw.from_registry("power_density", {"rho_inf": 1.0, "c": 1.0, "p": 1.0})
    rep = sw.check_assumptions(slow)
    assert not rep.integrable

    power = sw.from_registry("power_density", {"rho_inf": 1.0, "c": 3.0, "p": 1.5})
    assert sw.check_assumptions(power).integrable


def test_registry_validation():
    with pytest.raises(ProfileError):
        sw.from_registry("exp_density", {"drho": -2.0})   # negative surface density
    with pytest.raises(ProfileError):
        sw.from_registry("no_such_profile", {})
    with pytest.raises(ProfileError, match="drho"):
        sw.from_registry("exp_density", {})
    with pytest.raises(ProfileError):
        sw.from_registry("smoothed_layer", {"rho_1": 1, "mu_1": 1, "rho_s": 1,
                                            "mu_s": 1, "y_s": 1.0, "width": 2.0})


def test_profile_pickles_by_name(exp_profile):
    import pickle

    clone = pickle.loads(pickle.dumps(exp_profile))
    assert clone.eval(1.3) == exp_profile.eval(1.3)
    table = sw.from_table([(0, 2, 1), (1, 1, 1)], rho_inf=1.0)
    clone = pickle.loads(pickle.dumps(table))
    assert clone.eval(0.25) == table.eval(0.25)


def test_callable_profile_pickles_by_callables():
    import pickle

    from tests.conftest import mu_exp_bump, rho_one

    profile = sw.from_callables(rho_one, mu_exp_bump, 1.0, 1.0,
                                tail_constant_from=40.0, name="bump",
                                breakpoints=(0.5,))
    clone = pickle.loads(pickle.dumps(profile))
    assert clone.eval(1.3) == profile.eval(1.3)
    assert (clone.name, clone.tail_constant_from, clone.breakpoints) \
        == ("bump", 40.0, (0.5,))


def test_classification_perturbation_regression(exp_profile):
    # nearby profiles classify the same way and have nearby interval ends
    base = sw.classify(exp_profile)
    pert = sw.from_registry("exp_density",
                            {"rho_inf": 1.0, "drho": 5.0 + 1e-6, "d": 1.0})
    cls = sw.classify(pert)
    assert cls.monotonicity_at_inf == base.monotonicity_at_inf
    assert abs(cls.min_mu_over_rho - base.min_mu_over_rho) < 1e-6


def _rho_exp(y):
    return 1.0 + 5.0 * np.exp(-np.asarray(y, dtype=float))


@pytest.mark.parametrize("tail", [-3.0, 0.0, 5.0, math.nan, math.inf])
def test_from_callables_rejects_bad_tail(tail):
    # the solvers start the decaying tail at tail_constant_from unchecked:
    # a negative or shallow depth put every mode's tail at the scan's
    # y_bar (mode 3 at K=4 off by 4e-6, unflagged), nan failed in the scan
    from tests.conftest import ones

    with pytest.raises(ProfileError, match="tail_constant_from"):
        sw.from_callables(_rho_exp, ones, 1.0, 1.0, tail_constant_from=tail)


def test_from_callables_accepts_constant_tail():
    from tests.conftest import ones

    p = sw.from_callables(_rho_exp, ones, 1.0, 1.0, tail_constant_from=40.0)
    assert p.tail_constant_from == 40.0
    assert sw.from_callables(_rho_exp, ones, 1.0, 1.0).tail_constant_from \
        is None
