"""Malformed input is rejected with a named error class whose message names
the offending field."""

import pytest

from mincop import DimensionMismatchError, InputError, ValidationError
from mincop.core import (
    CheckerboardCopula,
    GlueProduct,
    MeasureEstimate,
    MixtureCopula,
    Permuted,
    ProductCopula,
    Reflected,
    RefutedCopula,
    SegmentCopula,
    as_points,
    sample,
    set_dimension_cap,
)
from mincop.negdep import GFunc, HyperplaneSpec, hyperplane_mass
from mincop.transforms import discretize, uniform_cuts

PI2 = ProductCopula(2)
AFFINE = GFunc("affine")
MIDDLE = dict(a=[0.25, 0.25], b=[0.75, 0.75])

CASES = [
    # CheckerboardCopula
    (lambda: CheckerboardCopula([[0, 1]], [1.0]), InputError, "dimension >= 2"),
    (lambda: CheckerboardCopula([[0, 1], [0, 1]], [1.0]), InputError, "rank"),
    (
        lambda: CheckerboardCopula([[0, 1], [0, 0.5]], [[1.0]]),
        InputError,
        r"cuts\[1\] must run from 0 to 1",
    ),
    (
        lambda: CheckerboardCopula([[0, 1], [0, 0.5, 0.5, 1]], [[0.5, 0.0, 0.5]]),
        InputError,
        r"cuts\[1\] must be strictly increasing",
    ),
    (lambda: CheckerboardCopula([[0, 1], [0, 0.5, 1]], [[1.0]]), InputError, "shape"),
    # SegmentCopula
    (lambda: SegmentCopula([[0.0]], [[1.0]], [1.0]), InputError, "dimension >= 2"),
    (lambda: SegmentCopula([[-0.5, 0]], [[1, 1]], [1.0]), InputError, "endpoints"),
    (lambda: SegmentCopula([[0, 0]], [[1, 1.5]], [1.0]), InputError, "endpoints"),
    (
        lambda: SegmentCopula([[0, 0], [0, 0]], [[1, 1], [1, 1]], [1.0, 0.0]),
        InputError,
        "masses must be positive",
    ),
    (lambda: SegmentCopula([[0, 0]], [[1, 1]], [0.5]), ValidationError, "masses sum"),
    (lambda: SegmentCopula([[0, 0]], [[1, 0]], [1.0]), InputError, "degenerate"),
    # RefutedCopula
    (lambda: RefutedCopula(PI2, [0.5], [0.5], 0.25), DimensionMismatchError, "a and b"),
    (lambda: RefutedCopula(PI2, [0.6, 0.6], [0.5, 0.5], 0.25), InputError, "a <= b"),
    (lambda: RefutedCopula(PI2, [0.0, 0.5], [0.5, 0.5], 0.0), InputError, "corners"),
    (lambda: RefutedCopula(PI2, p=0.7, **MIDDLE), InputError, r"mass p"),
    (lambda: RefutedCopula(PI2, p=0.0, **MIDDLE), InputError, r"mass p"),
    # MixtureCopula
    (lambda: MixtureCopula([]), InputError, "at least one part"),
    (
        lambda: MixtureCopula([(PI2, 0.5), (ProductCopula(3), 0.5)]),
        DimensionMismatchError,
        "share a dimension",
    ),
    # transforms and glue
    (lambda: Reflected(PI2, [2]), InputError, "reflection set"),
    (lambda: Permuted(PI2, [0, 0]), InputError, "permutation"),
    (lambda: GlueProduct(ProductCopula(1), ProductCopula(1)), InputError, "total dimension"),
    # module-level checks
    (lambda: sample(PI2, 0, -1), InputError, "sample count"),
    (lambda: set_dimension_cap(1), InputError, "dimension cap"),
    (lambda: as_points([1.5, 0.5], 2), InputError, r"\[0, 1\]"),
    (lambda: MeasureEstimate(0.1, "exact", 0.1), InputError, "error_bound 0"),
    (lambda: MeasureEstimate(0.1, "quadrature", -1.0), InputError, "error_bound"),
    # K-CM data
    (lambda: GFunc("cubic"), InputError, "form"),
    (lambda: GFunc("affine", alpha=0.0), InputError, "alpha"),
    (lambda: GFunc("power", gamma=0.0), InputError, "gamma"),
    (lambda: HyperplaneSpec((0, 1), (AFFINE,), 1.0), InputError, "one g per axis"),
    (lambda: HyperplaneSpec((0, 0), (AFFINE, AFFINE), 1.0), InputError, "distinct axes"),
    (
        lambda: hyperplane_mass(PI2, HyperplaneSpec((0, 2), (AFFINE, AFFINE), 1.0)),
        InputError,
        "hyperplane axes",
    ),
    # grids
    (lambda: uniform_cuts(2, [3]), InputError, "one resolution per axis"),
    (lambda: discretize(PI2, [[0, 1]]), InputError, "one cut list per axis"),
    (lambda: discretize(PI2, [[0, 0.5], [0, 1]]), InputError, "run from 0 to 1"),
]


@pytest.mark.parametrize("make, error, field", CASES)
def test_malformed_input_names_its_field(make, error, field):
    with pytest.raises(error, match=field) as info:
        make()
    assert type(info.value) is error
