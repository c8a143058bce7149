"""`greenlab verify` is the user's self-check of the closed kernels: it must
fail when one of their ingredients is off by a relative 1e-11.

Each case scales one ingredient by (1 + 1e-11): the coefficients of the
record series F, H or r (`ball_stats._record_series`, on both sides of the
mean), the mirror's Laurent coefficients (`green._laurent_parts` as
`ball_stats` reads it: CP^n, HP^n, OP^2 and even S^n past the mean), or
the odd form's parts behind odd S^n's far side. Every cache the kernels
and the bound search fill is cleared before and after, so no value
computed with or without the error outlives its case.
"""

import io

import pytest

from greenlab import ball_stats as bs
from greenlab import bounds, verify

SCALE = 1.0 + 1e-11


def _clear_caches():
    bs._record_series.cache_clear()
    bs._record_route.cache_clear()
    bounds._lattice.cache_clear()
    bounds._bracket.cache_clear()
    bounds._REPORTS.clear()


@pytest.fixture
def fresh_caches():
    _clear_caches()
    yield
    _clear_caches()


def _scaled_series(row):
    series = bs._record_series

    def scaled(m, k, s):
        rows = list(series(m, k, s))
        rows[row] = tuple(v * SCALE for v in rows[row])
        return tuple(rows)

    return scaled


def _scaled_laurent(record, parts=bs._laurent_parts):
    c, a, b = parts(record)
    return [v * SCALE for v in c], a, b * SCALE


def _scaled_odd(k, parts=bs._odd_parts):
    A, g, R, P, F, c = parts(k)
    return A * SCALE, [v * SCALE for v in g], [v * SCALE for v in R], P, F * SCALE, c


MUTATIONS = {
    "F": ("_record_series", _scaled_series(0)),
    "H": ("_record_series", _scaled_series(1)),
    "r": ("_record_series", _scaled_series(2)),
    "mirror Laurent": ("_laurent_parts", _scaled_laurent),
    "mirror odd form": ("_odd_parts", _scaled_odd),
}


def test_verify_passes_unperturbed(fresh_caches):
    assert verify.run_verification(quick=False, stream=io.StringIO())


@pytest.mark.parametrize("ingredient", MUTATIONS)
def test_verify_fails_on_a_perturbed_ingredient(ingredient, fresh_caches, monkeypatch):
    name, mutated = MUTATIONS[ingredient]
    monkeypatch.setattr(bs, name, mutated)
    out = io.StringIO()
    assert not verify.run_verification(quick=False, stream=out)
    failed = [line for line in out.getvalue().splitlines() if line.startswith("FAIL")]
    assert failed and not any("raised" in line for line in failed), failed
