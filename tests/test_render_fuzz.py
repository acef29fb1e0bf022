"""Property test of the one-pass JSON renderer: over nested dicts, lists
and tuples of strings (non-ASCII, quotes, control characters), ints, bools,
None and floats (±inf, NaN, -0.0), ``reporting.render_structured`` gives
the bytes of ``json.dumps(indent=2)`` with the non-finite floats written as
null (``test_process_reuse._reference``).
"""

import math

import pytest

pytest.importorskip("hypothesis")

from hypothesis import given, settings, strategies as st  # noqa: E402

from contactpairs.reporting import render_structured  # noqa: E402
from test_process_reuse import _reference  # noqa: E402

_STRINGS = st.one_of(st.text(), st.sampled_from(["", "\"", "\\", "\n\t\r\b\f", "\x00\x1f\x7f", "é ü ∂ 𝔤"]))
_SCALARS = st.one_of(
    _STRINGS, st.integers(), st.booleans(), st.none(),
    st.floats(allow_nan=True, allow_infinity=True), st.sampled_from([-0.0, math.inf, -math.inf, math.nan]),
)
_VALUES = st.recursive(
    _SCALARS,
    lambda children: st.one_of(
        st.lists(children, max_size=4),
        st.lists(children, max_size=4).map(tuple),
        st.dictionaries(_STRINGS, children, max_size=4),
    ),
    max_leaves=30,
)


@settings(max_examples=300, deadline=None)
@given(_VALUES)
def test_render_structured_matches_json_dumps_on_nested_values(value):
    assert render_structured(value) == _reference(value)
