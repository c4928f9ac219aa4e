"""Working-memory bounds of the quadrature checks, and the memory an
evaluator of eval_batch and the group cache keep, through tracemalloc.

numpy reports its data buffers to tracemalloc, so the traced peak of a
call is the largest set of arrays it held at once, and it is the same on
every run.  Each bound says which arrays it leaves room for; the routes
these functions replaced formed an R x R (or resolution^n) array, and
their peaks are given beside each bound.
"""

import gc
import tracemalloc

import numpy as np
import pytest

from orbitfuncs import orbitfn, weyl
from orbitfuncs.analysis import PlaneWaveQuadrature, _eigen_residual
from orbitfuncs.rootsys import build
from orbitfuncs.transforms import _integral_transform, fundamental_domain_quadrature

MIB = 2 ** 20


def _peak(call) -> int:
    """The traced peak in bytes of the arrays allocated during call()."""
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("resolution", [400, 1000])
@pytest.mark.parametrize("power", [1, 4])
def test_the_eigen_residual_forms_no_tensor(resolution, power):
    # the factors, their images under K and blocks of 2^14 entries, with
    # K built beforehand; both R x R tensors took 6.25 MiB at R = 400 and
    # 38.3 MiB at R = 1000
    q = PlaneWaveQuadrature.make(6.0, resolution)
    eig = 1j ** 3 if power == 1 else 1
    assert _peak(lambda: _eigen_residual(q, (2, 1), "anti", power, eig)) < MIB


def test_the_quadrature_kernel_is_filled_in_place():
    # the matrix and one slab of about 3000 phases, or the ufunc buffers of
    # a conjugate copy; the full-size temporaries took 1.55 x the matrix
    PlaneWaveQuadrature.make(6.0, 3)   # the first call of _cis builds its table
    holder = []
    peak = _peak(lambda: holder.append(PlaneWaveQuadrature.make(6.0, 400)))
    assert peak <= 1.15 * holder[0].matrix.nbytes


def test_the_integral_transform_forms_no_dense_kernel():
    # the nodes (2 R^2 floats), f's values, and the kernel with its one
    # temporary (R^2 floats each): 5 R^2 floats, 6.1 MiB at R = 400, so the
    # bound is 6 R^2 floats; the (R^2, 2, 2) complex kernel alone was 10 MiB
    R = 400
    _integral_transform(lambda pts: np.ones(len(pts)), [(2, 1)], 0.5, 3, True)
    peak = _peak(lambda: _integral_transform(lambda pts: np.ones(len(pts)),
                                             [(2, 1), (3, 1)], 0.5, R, True))
    assert peak < 6 * R * R * 8


def test_the_fundamental_domain_is_masked_a_slab_at_a_time():
    # B3 at resolution 100: 0.64 MiB of nodes, held twice while they are
    # joined, and one slab of about 6 x 10^4 box points with its coordinates
    # and masks; the whole 10^6-point box took 80.1 MiB
    rs = build("B3")
    fundamental_domain_quadrature(rs, 2)
    assert _peak(lambda: fundamental_domain_quadrature(rs, 100)) < 8 * MIB


def test_the_e6_rho_evaluator_keeps_a_prefix_tree_not_per_term_lists():
    # what the antisymmetric rho evaluator of E6 keeps once built, with the
    # group closed beforehand (the group array is weyl's cache's): the
    # prefix tree over half of the 51 840 terms, 3.9 MiB; the per-term
    # lists of (column, exponent) tuples it replaced kept 23.7 MiB
    rs = build("E6")
    weyl._group(rs)
    tracemalloc.start()
    try:
        evaluate = orbitfn._power_sum(*orbitfn._exponent_terms(rs, "antisymmetric", rs.rho))
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert evaluate(np.zeros((1, 6)))[0] == 0
    assert kept < 12 * MIB



def test_the_group_cache_keeps_no_element_view():
    # generate_group builds its WeylElement tuple on every call from the
    # cached arrays, so once the result is dropped none of its elements is
    # left; the pinned view kept all of it (0.5 MiB on F4, 35.6 MiB on E6).
    # What stays traced after the drop is the interpreter's tuple free
    # lists, at most 2000 tuples of each length: about 0.27 MiB on F4
    rs = build("F4")
    group = weyl._group(rs)

    def elements() -> int:
        return sum(isinstance(o, weyl.WeylElement) for o in gc.get_objects())
    before = elements()
    tracemalloc.start()
    try:
        view = weyl.generate_group(rs)
        held = tracemalloc.get_traced_memory()[0]
        assert len(view) == 1152
        del view
        kept = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert elements() == before
    assert kept < held / 2
    assert weyl._group(rs) is group and isinstance(group.parents, np.ndarray)
