import os
import sys

import pytest
from hypothesis import settings

# Shared CI runners: the same examples on every run and no per-example
# deadline, so a slow runner or a fresh random draw cannot fail the job.
settings.register_profile("ci", derandomize=True, deadline=None)
if os.environ.get("CI"):
    settings.load_profile("ci")


@pytest.fixture
def default_int_str_limit():
    if not hasattr(sys, "set_int_max_str_digits"):
        pytest.skip("no int-to-str digit limit before Python 3.11")
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(sys.int_info.default_max_str_digits)
    yield sys.int_info.default_max_str_digits
    sys.set_int_max_str_digits(saved)


def _forget_built_groups():
    from ordseq.catalog import frobenius20, frobenius21, modular16, semidihedral16
    from ordseq.fields import affine_frobenius_group
    from ordseq.groups import _abelian, alternating, dicyclic, dihedral, direct_product, heisenberg, symmetric

    for build in (
        _abelian,
        direct_product,
        dihedral,
        dicyclic,
        heisenberg,
        symmetric,
        alternating,
        frobenius20,
        frobenius21,
        modular16,
        semidihedral16,
        affine_frobenius_group,
    ):
        build.cache_clear()


@pytest.fixture
def fresh_builds():
    """Forget the memoized group constructors, so each group asked for from here
    on is built; call the returned function to forget them again."""
    _forget_built_groups()
    return _forget_built_groups
