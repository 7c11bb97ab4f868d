"""The single error model: every library exception is a GrlError.

The command line maps GrlError to exit code 2, so an input check that
raised anything else would escape it as a traceback.
"""

import importlib
import inspect
import json
import pkgutil

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import grlcodes
from grlcodes.cli import main
from grlcodes.gf import ZERO, GrlError, field_new
from grlcodes.grl import GrlSpec, build_generator
from grlcodes.linalg import rank


def _exception_classes():
    for info in pkgutil.iter_modules(grlcodes.__path__):
        mod = importlib.import_module(f"grlcodes.{info.name}")
        for obj in vars(mod).values():
            if (inspect.isclass(obj) and issubclass(obj, BaseException)
                    and obj.__module__ == mod.__name__):
                yield obj


def test_one_exception_hierarchy():
    classes = list(_exception_classes())
    names = [cls.__name__ for cls in classes]
    assert len(names) == len(set(names)), sorted(names)
    assert {"GrlError", "TooLarge", "BudgetExceeded"} <= set(names)
    # NonIntegerResult marks a broken internal identity, not bad input
    strays = [cls.__qualname__ for cls in classes
              if not issubclass(cls, GrlError)]
    assert strays == ["NonIntegerResult"]


json_scalars = (st.none() | st.booleans() | st.integers()
                | st.floats(allow_nan=False) | st.text(max_size=12))
json_values = st.recursive(
    json_scalars, lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4), max_leaves=12)
literals = st.sampled_from(["0", "1", "g^0", "g^3", "g^-2", " g^7 "])
valid_shape = st.fixed_dictionaries({
    "field": st.sampled_from(["3", "7", "3^2", "5^2"]), "k": st.integers(-1, 6), "l": st.integers(-1, 4),
    "alpha": st.lists(literals, max_size=6),
    "v": st.lists(literals, max_size=6) | st.none(),
    "A": st.lists(st.lists(literals, max_size=3), max_size=3),
})


@st.composite
def spec_like(draw):
    """A spec-shaped object with at most one key dropped or replaced by
    another JSON value."""
    d = draw(valid_shape)
    key = draw(st.sampled_from([None, *d]))
    if key is not None:
        if draw(st.booleans()):
            del d[key]
        else:
            d[key] = draw(st.integers() | st.text(max_size=4)
                          | st.lists(json_scalars, max_size=3) | json_values)
    return d


@st.composite
def near_valid(draw):
    """A GF(7) spec with distinct points whose A may be singular, v may hold
    a zero and k may exceed n: valid often enough to exercise every check."""
    els = ["0", "1", "g^1", "g^2", "g^3", "g^4", "g^5"]
    alpha = draw(st.lists(st.sampled_from(els), min_size=2, max_size=7,
                          unique=True))
    l = draw(st.integers(2, 3))
    row = st.lists(st.sampled_from(els[:4]), min_size=l, max_size=l)
    spec = {"field": "7", "k": draw(st.integers(l, 5)), "l": l,
            "alpha": alpha, "A": draw(st.lists(row, min_size=l, max_size=l))}
    if draw(st.booleans()):  # otherwise v is omitted: all ones
        spec["v"] = draw(st.lists(st.sampled_from(["0", "1", "g^3"]),
                                  min_size=len(alpha), max_size=len(alpha)))
    return spec


SPEC = {"field": "7", "k": 3, "l": 2, "alpha": ["0", "1", "g^1", "g^2"],
        "A": [["1", "0"], ["0", "1"]]}


@settings(max_examples=300, deadline=None)
@given(spec_like() | near_valid() | json_values)
@example(SPEC)
@example([SPEC])
@example({**SPEC, "A": [5, 6]})
@example({**SPEC, "A": ["10", "01"]})
@example({**SPEC, "v": 5})
def test_spec_from_json_returns_a_spec_or_raises_grl_error(value):
    """Every spec that exists is valid: the guarantee the hull, dual and
    distance engines rely on instead of re-proving rank(G)."""
    try:
        spec = GrlSpec.from_json_dict(value)
    except GrlError:
        return
    assert isinstance(spec, GrlSpec)
    assert len(set(spec.alpha)) == spec.n
    assert len(spec.v) == spec.n and ZERO not in spec.v
    assert 2 <= spec.l <= spec.k <= spec.n <= spec.ctx.q
    assert spec.a.cols == spec.l and rank(spec.a) == spec.l
    assert rank(build_generator(spec)) == spec.k


# a present "v" is read as given, and a null one is refused: only an
# omitted one means all ones.  A JSON true or false for k or l is refused
# where any other non-int is
SHAPE_ERRORS = {
    "empty-v": ({**SPEC, "alpha": ["1", "g^1", "g^2"], "v": []},
                "v must have length n"),
    "null-v": ({**SPEC, "v": None}, "spec needs key 'v' of type list"),
    "k-true": ({**SPEC, "k": True}, "spec needs key 'k' of type int"),
    "k-false": ({**SPEC, "k": False}, "spec needs key 'k' of type int"),
    "l-true": ({**SPEC, "l": True}, "spec needs key 'l' of type int"),
}


@pytest.mark.parametrize("spec,message", SHAPE_ERRORS.values(),
                         ids=SHAPE_ERRORS.keys())
def test_spec_shape_errors(spec, message, tmp_path, capsys):
    """Refused by from_json_dict with its message, and by `report` with
    exit code 2 and that message on one error line."""
    with pytest.raises(GrlError, match=message):
        GrlSpec.from_json_dict(spec)
    path = tmp_path / "spec.json"
    path.write_text(json.dumps(spec))
    assert main(["report", "--spec", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: {message}\n"


def test_omitted_v_means_all_ones():
    spec = GrlSpec.from_json_dict(SPEC)
    assert spec.v == [spec.ctx.one()] * spec.n


@settings(max_examples=300, deadline=None)
@given(literals | st.text(max_size=4).map("g^".__add__) | json_scalars)
def test_parse_returns_an_element_or_raises_grl_error(value):
    ctx = field_new(3, 2)
    try:
        x = ctx.parse(value)
    except GrlError:
        return
    assert x == ZERO or 0 <= x < ctx.n
