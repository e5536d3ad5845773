"""One rule for every integer size and count: ``errors._at_least``."""

import json
import re
import sys

import numpy as np
import pytest

from berglab import DiscGrid, PowerSeries, QuadratureSpec
from berglab.analysis import check_schedule, check_shift_window, mix_sandwich_check
from berglab.cli import parse_scenario
from berglab.disc import normalized_kernel_coeffs
from berglab.errors import ConfigError
from berglab.toeplitz import check_size


def _cli(field):
    """The parsed ``field`` of a 3.2 scenario, its value passed through a JSON file's
    text as a config on disk would carry it (an np.int64 is written as an integer)."""
    config = {"name": "t", "kind": "theorem_check", "check": "3.2", "count": 2,
              "matrix_size": 4, "s": 2.0, "seed": 1, "vector_trials": 5}

    def check(n):
        text = json.dumps({**config, field: n}, default=int)
        return getattr(parse_scenario(json.loads(text)), field)

    return check


#: every integer bound check: (check of one value, returning the value it keeps; the
#: bound; the error text's start; what a non-integer raises)
VALIDATORS = {
    "check_size": (check_size, 1, "n", TypeError),
    "check_schedule": (lambda n: check_schedule((n, 100, 200))[0], 1, "schedule sizes", TypeError),
    "check_shift_window": (check_shift_window, 8, "n", TypeError),
    "mix_sandwich_check.trials": (
        lambda n: mix_sandwich_check(np.eye(2), 2.0, trials=n, rng=0).trials, 1, "trials",
        TypeError,
    ),
    "normalized_kernel_coeffs": (
        lambda n: len(normalized_kernel_coeffs(0.5, n)), 1, "n", TypeError,
    ),
    "QuadratureSpec.radial_nodes": (
        lambda n: QuadratureSpec(n, 8).radial_nodes, 2, "radial_nodes", TypeError,
    ),
    "QuadratureSpec.angular_nodes": (
        lambda n: QuadratureSpec(4, n).angular_nodes, 4, "angular_nodes", TypeError,
    ),
    "DiscGrid.angles_per_radius": (
        lambda n: DiscGrid((0.5,), n).angles_per_radius, 4, "angles_per_radius", TypeError,
    ),
    "PowerSeries.mul.degree": (
        lambda n: PowerSeries([1.0, 2.0]).mul(PowerSeries([3.0]), n).degree, 0, "degree",
        TypeError,
    ),
    # a negative degree used to cut from the end: degree -2 kept all but the last coefficient
    "PowerSeries.truncated.degree": (
        lambda n: PowerSeries([1.0, 2.0, 3.0]).truncated(n).degree, 0, "degree", TypeError,
    ),
    # a JSON float is refused by the schema before the rule, naming the field's path
    **{
        f"cli.{field}": (_cli(field), least, f"config.{field}: {field}", ConfigError)
        for field, least in (("count", 1), ("matrix_size", 1), ("vector_trials", 1), ("seed", 0))
    },
}


@pytest.mark.parametrize("check, least, text, non_integer", VALIDATORS.values(), ids=VALIDATORS)
def test_one_rule_for_every_integer_size(check, least, text, non_integer):
    with pytest.raises(non_integer):
        check(4.5)
    with pytest.raises(ValueError, match=f"^{re.escape(text)} must be at least {least}$"):
        check(least - 1)
    got = check(np.int64(least))
    assert type(got) is int and got == least


SIZES = {k: v for k, v in VALIDATORS.items() if k != "cli.seed"}


@pytest.mark.parametrize("check, least, text, non_integer", SIZES.values(), ids=SIZES)
def test_no_size_beyond_what_numpy_indexes(check, least, text, non_integer):
    # such sizes passed, and failed deep in numpy: an OverflowError, or an empty arange
    for n in (sys.maxsize + 1, 10**400):
        with pytest.raises(ValueError, match=f"^{re.escape(text)} must be at most {sys.maxsize}$"):
            check(n)


def test_a_seed_may_be_any_nonnegative_integer():
    # np.random.default_rng takes it, however large
    assert _cli("seed")(10**400) == 10**400
