"""Residual summarization and deterministic serialization."""

import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import flat_chart, warped_line_spec
from dwpcheck.geometry import sample_points
from dwpcheck.specfile import load_spec
from dwpcheck.reporting import (
    FAIL,
    PASS,
    SKIP,
    normalized_residual,
    render_json,
    skipped,
    summarize,
    summarize_columns,
)


def at(points):
    """A flat chart's record at the points (N, d), as the summaries read
    them: its `p`, and its `rank`."""
    points = np.asarray(points, dtype=float)
    return flat_chart([f"x{i}" for i in range(points.shape[1])]).values_at(
        points)


class TestSummarize:
    def test_pass_fail_threshold(self):
        pts = [[0.0], [1.0]]
        assert summarize("c", [1e-9, 1e-10], at(pts), 1e-8).status == PASS
        assert summarize("c", [1e-9, 1e-7], at(pts), 1e-8).status == FAIL

    def test_worst_point_is_argmax(self):
        s = summarize("c", [0.1, 0.5, 0.2], at([[1.0], [2.0], [3.0]]), 1.0)
        assert s.max_abs_residual == 0.5
        assert s.worst_point == (2.0,)

    def test_tie_breaks_lexicographically(self):
        s = summarize("c", [0.5, 0.5], at([[3.0, 1.0], [2.0, 9.0]]), 1.0)
        assert s.worst_point == (2.0, 9.0)

    def test_unique_maximum_wins_at_lexicographically_last_point(self):
        s = summarize("c", [0.2, 0.5, 0.2, 0.1],
                      at([[1.0, 0.0], [3.0, 2.0], [2.0, 5.0], [3.0, 1.0]]),
                      1.0)
        assert s.max_abs_residual == 0.5
        assert s.worst_point == (3.0, 2.0)

    @pytest.mark.parametrize("residuals", [[0.0, np.nan], [np.nan, 0.0]])
    def test_nan_residual_fails_in_any_position(self, residuals):
        pts = [[1.0], [2.0]]
        s = summarize("c", residuals, at(pts), 1e-8)
        assert s.status == FAIL
        assert np.isnan(s.max_abs_residual)
        assert s.worst_point == (pts[residuals.index(0.0) - 1][0],)

    def test_nan_outranks_infinity_and_ties_break_lexicographically(self):
        s = summarize("c", [np.inf, np.nan, np.nan],
                      at([[1.0], [3.0], [2.0]]), 1e-8)
        assert s.status == FAIL
        assert s.worst_point == (2.0,)

    def test_empty_residuals_rejected(self):
        with pytest.raises(ValueError):
            summarize("c", [], None, 1e-8)

    def test_skipped_record(self):
        s = skipped("c", "skipped: because", 1e-8)
        assert s.status == SKIP
        assert s.max_abs_residual is None
        assert s.worst_point is None


class TestSummarizeColumns:
    POINTS = [[0.0, 1.0], [2.0, -1.0], [1.0, 5.0], [2.0, -3.0], [0.5, 0.5]]
    COLUMNS = {
        # a unique maximum at the lexicographically last point
        "unique-last": [0.1, 0.7, 0.2, 0.3, 0.0],
        "unique-first": [0.9, 0.7, 0.2, 0.3, 0.0],
        # ties: the lexicographically first of the tied points
        "tie": [0.1, 0.5, 0.2, 0.5, 0.1],
        "tie-at-first-index": [0.5, 0.5, 0.2, 0.5, 0.1],
        "tie-zero": [0.0, 0.0, 0.0, 0.0, 0.0],
        "one-nan": [0.1, 0.2, np.nan, 0.9, 0.3],
        "several-nans": [0.1, np.nan, 0.2, np.nan, 0.3],
        "inf": [0.1, np.inf, 0.2, 0.3, 0.0],
        "inf-and-nan": [np.inf, 0.2, 0.1, np.nan, 0.0],
        "minus-inf": [-np.inf, 0.2, 0.1, -np.inf, 0.0],
        "all-minus-inf": [-np.inf] * 5,
        "failing": [1e-3, 2e-3, 1e-9, 1e-3, 0.0],
    }

    def test_each_column_equals_its_own_summary(self):
        ids = list(self.COLUMNS)
        residuals = np.array(list(self.COLUMNS.values())).T
        got = summarize_columns(ids, residuals, at(self.POINTS), 1e-8)
        assert len(got) == len(ids)
        for check_id, column, summary in zip(ids, residuals.T, got):
            # repr: a NaN residual is equal to nothing, its text is exact
            assert repr(summary) == repr(
                summarize(check_id, column, at(self.POINTS), 1e-8)), check_id

    def test_a_single_point(self):
        got = summarize_columns(["a", "b"], [[np.nan, 2.0]], at([[1.0]]),
                                1.0)
        assert [repr(s) for s in got] == [
            repr(summarize("a", [np.nan], at([[1.0]]), 1.0)),
            repr(summarize("b", [2.0], at([[1.0]]), 1.0))]

    def test_no_residual_is_an_error(self):
        with pytest.raises(ValueError):
            summarize_columns([], np.empty((0, 0)), None, 1e-8)


def reference_worst(column, points):
    """The worst (residual, point) of one column by the plain rule: the
    largest residual, NaN above every number, and among equal ones the
    lexicographically first point, the first row on equal points."""
    def key(n):
        r = column[n]
        nan = math.isnan(r)
        return (not nan, 0.0 if nan else -r, tuple(points[n]), n)
    n = min(range(len(column)), key=key)
    return column[n], tuple(points[n])


def same_residual(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


# few values, so that ties, NaNs and equal points are frequent (-0.0 and
# 0.0 are equal coordinates)
_COORDINATE = st.sampled_from([-1.0, -0.0, 0.0, 0.5, 2.0])
_RESIDUAL = st.sampled_from([0.0, 1e-9, 0.25, np.inf, np.nan])


@st.composite
def _tied_batches(draw):
    n, dim, k = draw(st.integers(1, 7)), draw(st.integers(1, 3)), \
        draw(st.integers(1, 4))
    points = draw(st.lists(st.lists(_COORDINATE, min_size=dim,
                                    max_size=dim), min_size=n, max_size=n))
    residuals = draw(st.lists(st.lists(_RESIDUAL, min_size=k, max_size=k),
                              min_size=n, max_size=n))
    return points, residuals


class TestTieBreak:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(_tied_batches())
    def test_summaries_pick_the_plain_rules_worst_point(self, batch):
        points, residuals = batch
        record = at(points)
        columns = np.array(residuals).T
        ids = [f"c{j}" for j in range(len(columns))]
        together = summarize_columns(ids, np.array(residuals), record, 1.0)
        for check_id, column, joint in zip(ids, columns, together):
            residual, point = reference_worst(column.tolist(), points)
            for s in (summarize(check_id, column, record, 1.0), joint):
                assert s.worst_point == point
                assert same_residual(s.max_abs_residual, residual)
                assert s.points == len(points)

    def test_rank_is_the_place_in_lexicographic_order(self):
        points = [[0.5, 2.0], [-1.0, 0.0], [0.5, -1.0], [-1.0, 0.0],
                  [0.0, 0.0]]
        # (-1, 0) twice, first row first; then (0, 0), (0.5, -1), (0.5, 2)
        assert at(points).rank.tolist() == [4, 0, 3, 1, 2]

    def test_restriction_records_rank_their_own_points(self, tmp_path):
        spec = tmp_path / "h3.spec"
        spec.write_text(warped_line_spec("hyperbolic-flat", line_first=True))
        dwp, _, sampling, _ = load_spec(str(spec))
        box = np.broadcast_to(np.array(sampling["box"], dtype=float)
                              .reshape(-1, 2), (dwp.m, 2))
        d = dwp.point_data(sample_points(dwp.product, box, 8, 5),
                           box.mean(axis=1))
        for which in (1, 2):
            r = d.restriction(which)
            assert r.rank is r.product.rank
            expected = sorted(range(len(r.p)),
                              key=lambda n: (tuple(r.p[n]), n))
            assert np.argsort(r.rank).tolist() == expected
            s = summarize("c", np.zeros(len(r.p)), r, 1.0)
            assert s.worst_point == tuple(r.p[expected[0]])
        assert d.rank is d.product.rank


class TestNormalizedResidual:
    def test_scale_is_one_plus_largest_term(self):
        a, b = np.array([3.0, -1.0]), np.array([2.5, -4.0])
        assert normalized_residual((a - b)[None], [a[None], b[None]])[0] \
            == 3.0 / 5.0

    def test_per_slice_mode_matches_loop_over_slices(self):
        rng = np.random.default_rng(0)
        closed = rng.normal(size=(2, 3, 4))
        oracle = closed + rng.normal(scale=1e-3, size=closed.shape)
        loop = max(
            normalized_residual((c - o)[None], [c[None], o[None]])[0]
            for c, o in zip(closed.reshape(-1, 4), oracle.reshape(-1, 4))
        )
        block = normalized_residual((closed - oracle)[None],
                                    [closed[None], oracle[None]], axis=-1)[0]
        assert block == loop


class TestRenderJson:
    def test_output_is_valid_json_with_sorted_keys(self):
        doc = {"b": [1, 2.5, "x"], "a": {"z": None, "y": True}}
        text = render_json(doc)
        assert json.loads(text) == doc
        assert text.index('"a"') < text.index('"b"')
        assert text.endswith("\n")

    def test_floats_use_17_significant_digits(self):
        assert "0.1000000000000000" in render_json({"v": 0.1})

    def test_unserializable_type_rejected(self):
        with pytest.raises(TypeError):
            render_json({"v": object()})

    def test_byte_stable(self):
        doc = {"checks": [{"r": 1 / 3, "id": "a"}], "n": 7}
        assert render_json(doc) == render_json(doc)

    def test_bytes_are_pinned(self):
        # every kind of value a report holds, nested three deep, with the
        # exact text it renders to
        doc = {
            "zeta": [{"b": np.float64(0.1), "a": np.int64(-3)}, [], {}],
            "alpha": {"nested": {"deep": [1.5e-300, -0.0, 2, None]},
                      "flags": [True, False]},
            "non-finite": [float("nan"), np.inf, -np.inf, np.float64("nan")],
            'quote "and" \\slash': "café ∆ \"q\"\n\ttab",
            "tuple": (1 / 3, "x"),
        }
        assert render_json(doc) == """\
{
  "alpha": {
    "flags": [
      true,
      false
    ],
    "nested": {
      "deep": [
        1.5000000000000001e-300,
        -0,
        2,
        null
      ]
    }
  },
  "non-finite": [
    "nan",
    "inf",
    "-inf",
    "nan"
  ],
  "quote \\"and\\" \\\\slash": "caf\\u00e9 \\u2206 \\"q\\"\\n\\ttab",
  "tuple": [
    0.33333333333333331,
    "x"
  ],
  "zeta": [
    {
      "a": -3,
      "b": 0.10000000000000001
    },
    [],
    {}
  ]
}
"""


class TestNonFiniteRendering:
    def test_report_with_non_finite_residuals_is_valid_json(self):
        records = [
            summarize("a", [0.0, np.nan], at([[1.0], [2.0]]),
                      1e-8).as_dict(),
            summarize("b", [np.inf], at([[1.0]]), 1e-8).as_dict(),
            {"c": -np.inf},
        ]
        doc = json.loads(render_json({"checks": records}))
        assert doc["checks"][0]["max_abs_residual"] == "nan"
        assert doc["checks"][1]["max_abs_residual"] == "inf"
        assert doc["checks"][2]["c"] == "-inf"
