import pytest

from gpfkit.filtration import Filtration
from gpfkit.primes import MONOMIAL
from gpfkit.gpf import ExistsReport, IffReport
from gpfkit.record import Record


class Pair(Record):
    __slots__ = ("left", "right", "tag")
    _defaults = ("none",)


def test_fields_fill_by_position_then_name_then_default():
    p = Pair(1, 2, "t")
    assert (p.left, p.right, p.tag) == (1, 2, "t")
    p = Pair(1, right=2)
    assert (p.left, p.right, p.tag) == (1, 2, "none")
    p = Pair(tag="u", right=2, left=1)
    assert (p.left, p.right, p.tag) == (1, 2, "u")


@pytest.mark.parametrize(
    "args, named",
    [
        ((1,), {}),  # a field without a default is missing
        ((1, 2, 3, 4), {}),  # more values than fields
        ((1, 2), {"left": 0}),  # a field given twice
        ((1, 2), {"colour": 0}),  # no such field
    ],
)
def test_bad_arguments_raise_type_error(args, named):
    with pytest.raises(TypeError):
        Pair(*args, **named)


def test_library_records_keep_their_defaults():
    f = Filtration(None, None, ())
    assert (f.ass_complete, f.source) == (True, MONOMIAL)
    r = IffReport(False, [], failed_index=2)
    assert (r.filtration, r.failed_index) == (None, 2)
    assert ExistsReport(False, None, []).factors is None
