"""Residual summarization and deterministic serialization."""

import json

import numpy as np
import pytest

from dwpcheck.reporting import (
    FAIL,
    PASS,
    SKIP,
    normalized_residual,
    render_json,
    skipped,
    summarize,
)


class TestSummarize:
    def test_pass_fail_threshold(self):
        pts = [[0.0], [1.0]]
        assert summarize("c", [1e-9, 1e-10], pts, 1e-8).status == PASS
        assert summarize("c", [1e-9, 1e-7], pts, 1e-8).status == FAIL

    def test_worst_point_is_argmax(self):
        s = summarize("c", [0.1, 0.5, 0.2], [[1.0], [2.0], [3.0]], 1.0)
        assert s.max_abs_residual == 0.5
        assert s.worst_point == (2.0,)

    def test_tie_breaks_lexicographically(self):
        s = summarize("c", [0.5, 0.5], [[3.0, 1.0], [2.0, 9.0]], 1.0)
        assert s.worst_point == (2.0, 9.0)

    def test_unique_maximum_wins_at_lexicographically_last_point(self):
        s = summarize("c", [0.2, 0.5, 0.2, 0.1],
                      [[1.0, 0.0], [3.0, 2.0], [2.0, 5.0], [3.0, 1.0]], 1.0)
        assert s.max_abs_residual == 0.5
        assert s.worst_point == (3.0, 2.0)

    @pytest.mark.parametrize("residuals", [[0.0, np.nan], [np.nan, 0.0]])
    def test_nan_residual_fails_in_any_position(self, residuals):
        pts = [[1.0], [2.0]]
        s = summarize("c", residuals, pts, 1e-8)
        assert s.status == FAIL
        assert np.isnan(s.max_abs_residual)
        assert s.worst_point == (pts[residuals.index(0.0) - 1][0],)

    def test_nan_outranks_infinity_and_ties_break_lexicographically(self):
        s = summarize("c", [np.inf, np.nan, np.nan], [[1.0], [3.0], [2.0]],
                      1e-8)
        assert s.status == FAIL
        assert s.worst_point == (2.0,)

    def test_empty_residuals_rejected(self):
        with pytest.raises(ValueError):
            summarize("c", [], [], 1e-8)

    def test_skipped_record(self):
        s = skipped("c", "skipped: because", 1e-8)
        assert s.status == SKIP
        assert s.max_abs_residual is None
        assert s.worst_point is None


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
            summarize("a", [0.0, np.nan], [[1.0], [2.0]], 1e-8).as_dict(),
            summarize("b", [np.inf], [[1.0]], 1e-8).as_dict(),
            {"c": -np.inf},
        ]
        doc = json.loads(render_json({"checks": records}))
        assert doc["checks"][0]["max_abs_residual"] == "nan"
        assert doc["checks"][1]["max_abs_residual"] == "inf"
        assert doc["checks"][2]["c"] == "-inf"
