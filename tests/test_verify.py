"""`greenlab verify` is the user's self-check of the closed profiles and
kernels: it must fail when one of their ingredients is off by a relative 1e-11.

Each case scales one ingredient by (1 + 1e-11) with a single patch on
`records`, which every module reads the exact algebra from: the
coefficients of the record series F, H or r (`records.record_series`, read
by the kernels on both sides of the mean and by odd S^n's profile past
pi/2); the Laurent parts (`records.laurent_parts`: the profile of every
integer-m record, and the mirror's H that the kernels read on CP^n, HP^n,
OP^2 and even S^n past the mean), in all, in phi_hat's coefficients only or
in the log coefficient only; the mean-zero moment c_m
(`records.laurent_moment`); the odd form's parts behind odd S^n and RP^n
(`records.odd_parts`), in all, in R only or in RP^n's constant only; the
volume (`records.volume`, behind `manifold.volume`); and the incomplete
beta's constant (`records.kernel_scale`, which `special_math.incomplete_beta`
reads for the ball fraction, the oracles and both beta checks, and the
kernels for mu). Every greenlab cache is cleared before and after (the
`fresh_caches` fixture), so no value computed with or without the error
outlives its case.
"""

import io

import pytest

from greenlab import records, verify

SCALE = 1.0 + 1e-11


def _scaled_items(*items):
    """The function's tuple with the entries at `items` scaled, each a number or a sequence of them."""

    def mutate(fn):
        def scaled(*args):
            out = list(fn(*args))
            for i in items:
                out[i] = type(out[i])(v * SCALE for v in out[i]) if hasattr(out[i], "__len__") else out[i] * SCALE
            return tuple(out)

        return scaled

    return mutate


def _scaled_value(fn):
    return lambda *args: fn(*args) * SCALE


# ingredient -> (function of `records`, mutation of the function)
MUTATIONS = {
    "F": ("record_series", _scaled_items(0)),
    "H": ("record_series", _scaled_items(1)),
    "r": ("record_series", _scaled_items(2)),
    "Laurent parts": ("laurent_parts", _scaled_items(0, 2)),
    "Laurent phi_hat coefficients": ("laurent_parts", _scaled_items(0)),
    "log coefficient": ("laurent_parts", _scaled_items(2)),
    "c_m": ("laurent_moment", _scaled_value),
    "odd form": ("odd_parts", _scaled_items(0, 1, 2, 4)),
    "odd R": ("odd_parts", _scaled_items(2)),
    "odd RP constant": ("odd_parts", _scaled_items(5)),
    "volume": ("volume", _scaled_value),
    "incomplete beta constant": ("kernel_scale", _scaled_value),
}


def test_verify_passes_unperturbed(fresh_caches):
    assert verify.run_verification(quick=False, stream=io.StringIO())


@pytest.mark.parametrize("ingredient", MUTATIONS)
def test_verify_fails_on_a_perturbed_ingredient(ingredient, fresh_caches, monkeypatch):
    name, mutate = MUTATIONS[ingredient]
    monkeypatch.setattr(records, name, mutate(getattr(records, name)))
    out = io.StringIO()
    assert not verify.run_verification(quick=False, stream=out)
    failed = [line for line in out.getvalue().splitlines() if line.startswith("FAIL")]
    assert failed and not any("raised" in line for line in failed), failed
