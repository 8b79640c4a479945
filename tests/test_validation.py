import numpy as np
import pytest

from thinfilm import validation


def orders_of(fn, t_span, y_span, dt, dy, levels=3):
    reports = [validation.tfe_residual(fn, t_span, y_span, dt / 2**i, dy / 2**i)
               for i in range(levels)]
    maxima = [r.max_residual for r in reports]
    return [np.log2(maxima[i] / maxima[i + 1]) for i in range(levels - 1)], reports


def test_traveling_wave_residual_order():
    orders, reports = orders_of(validation.traveling_wave, (0.0, 0.8), (1.0, 6.0), 0.05, 0.1)
    assert all(o >= 1.8 for o in orders)


def test_traveling_wave_contact_stencils_skipped():
    # the window crosses the contact line; degenerate stencils are dropped, so it reads
    # the residual of the smooth window (0.0600 both); with them kept it reads 0.2267
    rep = validation.tfe_residual(validation.traveling_wave, (0.0, 0.4), (-1.0, 4.0),
                                  0.05, 0.1)
    full = validation.tfe_residual(validation.traveling_wave, (0.0, 0.4), (3.0, 8.0),
                                   0.05, 0.1)
    assert rep.max_residual < 1.5 * full.max_residual


def test_a_window_without_positive_stencils_raises():
    # the film is zero on y < 0 at t = 0..0.4: every stencil sits on the floor
    with pytest.raises(ValueError, match="no stencil lies inside the positivity region"):
        validation.tfe_residual(validation.traveling_wave, (0.0, 0.4), (-2.0, -1.0), 0.05, 0.1)


def test_equilibrium_residual_is_rounding():
    rep = validation.tfe_residual(validation.equilibrium, (0.0, 0.8), (0.5, 4.0), 0.05, 0.1)
    assert rep.max_residual < 1e-6


def test_smyth_hill_residual_order():
    orders, _ = orders_of(validation.smyth_hill, (0.0, 0.8), (-0.6, 0.6), 0.02, 0.02)
    assert all(o >= 1.8 for o in orders)


def test_smyth_hill_profile_properties():
    y = np.linspace(-2.0, 2.0, 401)
    h = validation.smyth_hill(0.0, y)
    assert np.all(h >= 0)
    assert h[0] == 0.0 and h[-1] == 0.0
    assert validation.smyth_hill(0.0, np.array([0.0]))[0] == pytest.approx(1 / 120)


def test_residual_requires_positive_region():
    def vanished(t, y):
        return np.zeros_like(np.asarray(y, dtype=float)) + 0 * np.asarray(t)

    with pytest.raises(ValueError):
        validation.tfe_residual(vanished, (0.0, 0.5), (0.0, 3.0), 0.05, 0.1)


def test_residual_span_checks():
    with pytest.raises(ValueError):
        validation.tfe_residual(validation.equilibrium, (0.0, 0.1), (0.0, 0.2), 0.05, 0.1)


def test_tw_ode_check():
    x = np.linspace(0.0, 3.0, 301)
    assert validation.tw_ode_check(6.0, 1.0, x) < 1e-7
    assert validation.tw_ode_check(2.5, 0.3, x) < 1e-7
    with pytest.raises(ValueError):
        validation.tw_ode_check(6.0, 1.0, np.array([0.0, 0.1, 0.3]))
    with pytest.raises(ValueError):
        validation.tw_ode_check(6.0, 1.0, np.geomspace(0.1, 1.0, 20))
