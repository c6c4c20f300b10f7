"""Problem file parsing, validation, and load-time sanity checks."""

import hashlib
import json
import math
from pathlib import Path

import pytest

from jetham.errors import ProblemFormatError
from jetham.problem import MAX_POINTS, load_problem, problem_from_dict


EXAMPLE = Path(__file__).resolve().parent.parent / "problems" / "example.json"


def nan_example():
    """The bundled example, sampled at the single point (t, x, p) =
    (1.2, 1.9, 1.1, 0.7, -1.3), where exp(400*t)^2 and exp(400*x2)^2
    overflow to inf."""
    doc = json.loads(EXAMPLE.read_text())
    doc["sample"] = {"points": [[1.2, 1.9, 1.1, 0.7, -1.3]]}
    return doc


def base_doc():
    return {
        "n": 2,
        "time_metric": "exp(2*t)",
        "space_metric": [["1", "0"], ["0", "x1^2"]],
        "charts": [
            {
                "name": "shear",
                "t_fwd": "t^2",
                "t_inv": "t^(1/2)",
                "x_fwd": ["x1 + x2^3", "x2"],
                "x_inv": ["x1 - x2^3", "x2"],
            }
        ],
        "sample": {"seed": 7, "count": 5, "box": {"t": [0.5, 2], "x": [0.5, 2], "p": [-3, 3]}},
        "tolerance": 1e-9,
    }


def sample_doc(sample):
    doc = base_doc()
    doc["sample"] = sample
    return doc


# sha256 of the exact bits (float.hex) of every coordinate of every seeded
# sample point: a change in draw order or in the arithmetic of a draw moves
# them, where comparing two loads by the same code would not
SAMPLE_SHA256 = {
    "example": (
        lambda: json.loads(EXAMPLE.read_text()),
        "437be57da71ce4df766aa90d62de21a974a735a70840efbe2be0810ad3b2c558",
    ),
    "per_axis": (
        lambda: sample_doc(
            {
                "seed": 11,
                "count": 6,
                "box": {"t": [1, 1.5], "x": [[0.5, 1.0], [1.0, 2.0]], "p": [[-1, 0], [2, 4]]},
            }
        ),
        "8c964b1e2158bee0af2610892610576479e4fcdf479e8140fead88281f0ffb5c",
    ),
    "defaults": (
        lambda: sample_doc({"seed": 3, "count": 6, "box": {}}),
        "b7fe6da92d175f51bdcf871aa5c3873bf9901d7160e91b87619898219b81397a",
    ),
    "t_only": (
        lambda: sample_doc({"seed": 5, "count": 6, "box": {"t": [1.0, 1.25]}}),
        "9e9bc97e87bed123a1159cd76b71794d9a093ce0d04be10634e6c69ece3e8882",
    ),
}


class TestLoading:
    def test_round_trips(self):
        problem = problem_from_dict(base_doc())
        assert problem.n == 2
        assert len(problem.points) == 5
        assert problem.charts[0].name == "shear"
        assert problem.tolerance == 1e-9

    def test_from_file(self, tmp_path):
        path = tmp_path / "p.json"
        path.write_text(json.dumps(base_doc()))
        assert load_problem(path).n == 2

    def test_seeded_sampling_is_deterministic(self):
        a = problem_from_dict(base_doc())
        b = problem_from_dict(base_doc())
        assert a.points == b.points

    @pytest.mark.parametrize("box", sorted(SAMPLE_SHA256))
    def test_seeded_sample_bits_are_pinned(self, box):
        make_doc, digest = SAMPLE_SHA256[box]
        points = problem_from_dict(make_doc()).points
        text = "\n".join(" ".join(map(float.hex, q.flat())) for q in points)
        assert hashlib.sha256(text.encode()).hexdigest() == digest

    def test_explicit_points(self):
        doc = base_doc()
        doc["sample"] = {"points": [[1.0, 1.0, 1.0, 2.0, 3.0]]}
        problem = problem_from_dict(doc)
        assert problem.points[0].p == (2.0, 3.0)

    def test_hamiltonian_optional(self):
        doc = base_doc()
        assert problem_from_dict(doc).hamiltonian is None
        doc["hamiltonian"] = "p1^2 + p2^2"
        assert problem_from_dict(doc).hamiltonian is not None

    def test_default_tolerance(self):
        doc = base_doc()
        del doc["tolerance"]
        assert problem_from_dict(doc).tolerance == 1e-9

    def test_per_axis_box(self):
        doc = base_doc()
        doc["sample"]["box"]["x"] = [[0.5, 1.0], [1.0, 2.0]]
        problem = problem_from_dict(doc)
        for q in problem.points:
            assert 0.5 <= q.x[0] <= 1.0 and 1.0 <= q.x[1] <= 2.0


class TestRejection:
    def test_missing_keys(self):
        with pytest.raises(ProblemFormatError, match="missing keys"):
            problem_from_dict({"n": 2})

    def test_unexpected_keys(self):
        doc = base_doc()
        doc["extra"] = 1
        with pytest.raises(ProblemFormatError, match="unexpected keys"):
            problem_from_dict(doc)

    def test_bad_expression_reports_location(self):
        doc = base_doc()
        doc["time_metric"] = "exp(2*t"
        with pytest.raises(ProblemFormatError, match="time_metric"):
            problem_from_dict(doc)

    def test_bad_metric_shape(self):
        doc = base_doc()
        doc["space_metric"] = [["1"]]
        # JSON true is a bool, an int subclass: it must not pass for n = 1
        one_by_one = base_doc()
        one_by_one.update(n=True, space_metric=[["1"]], tolerance=1e-9)
        one_by_one["charts"][0].update(x_fwd=["x1 + 1"], x_inv=["x1 - 1"])
        for d, message in ((doc, "space_metric"), (one_by_one, "n: positive integer")):
            with pytest.raises(ProblemFormatError, match=message):
                problem_from_dict(d)

    def test_asymmetric_metric(self):
        doc = base_doc()
        doc["space_metric"] = [["1", "x1"], ["x2", "1"]]
        with pytest.raises(ProblemFormatError):
            problem_from_dict(doc)

    def test_chart_keys_exact(self):
        doc = base_doc()
        del doc["charts"][0]["t_inv"]
        with pytest.raises(ProblemFormatError, match="charts\\[0\\]"):
            problem_from_dict(doc)

    def test_duplicate_chart_names(self):
        doc = base_doc()
        doc["charts"].append(dict(doc["charts"][0]))
        with pytest.raises(ProblemFormatError, match="unique"):
            problem_from_dict(doc)

    def test_singular_metric_on_box(self):
        doc = base_doc()
        doc["space_metric"] = [["1", "0"], ["0", "x1^2"]]
        doc["sample"] = {"points": [[1.0, 0.0, 1.0, 1.0, 1.0]]}  # x1 = 0
        # h11 = NaN at the point: exp(480)^2 overflows, and inf - inf is NaN
        nan_h11 = nan_example()
        nan_h11["time_metric"] = (
            "exp(2*t) + (exp(400*t)*exp(400*t) - exp(400*t)*exp(400*t))"
        )
        for d, message in ((doc, "singular"), (nan_h11, "time metric is singular")):
            with pytest.raises(ProblemFormatError, match=message):
                problem_from_dict(d)

    def test_wrong_chart_inverse_caught_at_load(self):
        doc = base_doc()
        doc["charts"][0]["x_inv"] = ["x1 - x2^2", "x2"]  # wrong inverse
        # a round trip that is NaN at the point
        nan_round_trip = nan_example()
        nan_round_trip["charts"][0]["x_inv"][0] = (
            "x1 - x2^3 + (exp(400*x2)*exp(400*x2) - exp(400*x2)*exp(400*x2))"
        )
        for d, message in ((doc, "x_inv"), (nan_round_trip, "chart 'shear': x_inv")):
            with pytest.raises(ProblemFormatError, match=message):
                problem_from_dict(d)

    def test_domain_error_names_the_failed_check(self):
        # log(t - 10) is undefined on the box; the message names the check
        # that evaluated it, then the domain error
        bad_time = base_doc()
        bad_time["time_metric"] = "exp(2*t) + log(t - 10)"
        bad_chart = base_doc()
        bad_chart["charts"][0]["t_inv"] = "t^(1/2) + log(t - 10)"
        for d, message in (
            (bad_time, r"time metric is singular at t=[^:]*: log of a non-positive value"),
            (bad_chart, r"chart 'shear': t_inv\(t_fwd\(t\)\): log of a non-positive value"),
        ):
            with pytest.raises(ProblemFormatError, match=message):
                problem_from_dict(d)

    def test_bad_point_arity(self):
        doc = base_doc()
        # 10**400 is longer than a double holds
        for row in ([1.0, 1.0, 1.0], [True, 1.0, 1.0, 2.0, 3.0], [1.0, 1.0, 1.0, 2.0, 10**400]):
            doc["sample"] = {"points": [row]}
            with pytest.raises(ProblemFormatError, match="coordinates"):
                problem_from_dict(doc)

    def test_parse_errors_name_their_field_once(self):
        bad_entry = base_doc()
        bad_entry["space_metric"][1][1] = "x1^(1/0)"
        bad_chart = base_doc()
        bad_chart["charts"][0]["t_fwd"] = "t^(1/0)"
        for d, field in ((bad_entry, "space_metric[1][1]"), (bad_chart, "charts[0].t_fwd")):
            with pytest.raises(ProblemFormatError) as err:
                problem_from_dict(d)
            message = str(err.value)
            assert message.startswith(f"{field}: exponent has a zero denominator")
            assert message.count(field.partition("[")[0]) == 1

    def test_non_finite_literal_names_its_field(self):
        doc = base_doc()
        doc["time_metric"] = "exp(2*t) + 1e999"
        with pytest.raises(ProblemFormatError, match="^time_metric: number '1e999' is not a finite"):
            problem_from_dict(doc)

    def test_non_finite_numbers_name_their_field(self):
        box = base_doc()["sample"]["box"]
        for sample, message in (
            ({"points": [[1.0, math.nan, 1.0, 2.0, 3.0]]}, r"sample.points\[0\]: expected 5"),
            ({"points": [[1.0, 1.0, 1.0, math.nan, 3.0]]}, r"sample.points\[0\]: expected 5"),
            ({"points": [[1.0, 1.0, 1.0, 2.0, -math.inf]]}, r"sample.points\[0\]: expected 5"),
            ({"seed": 7, "count": 5, "box": {**box, "t": [0.5, math.inf]}}, "sample.box.t:"),
            ({"seed": 7, "count": 5, "box": {**box, "x": [[0.5, 2], [-math.inf, 2]]}},
             r"sample.box.x\[1\]:"),
            # a pair of scalars is one [lo, hi], also for n = 2
            ({"seed": 7, "count": 5, "box": {**box, "p": [math.nan, 3]}}, "sample.box.p:"),
        ):
            doc = base_doc()
            doc["sample"] = sample
            with pytest.raises(ProblemFormatError, match="^" + message):
                problem_from_dict(doc)

    def test_empty_or_overflowing_box_names_its_field(self):
        box = base_doc()["sample"]["box"]
        for key, interval, message in (
            # each end is finite, but hi - lo is not, so every sample would
            # be inf or NaN; verify used to stop at "non-finite value inf in
            # 'p1'"
            ("p", [-1.7e308, 1.7e308], "sample.box.p: hi - lo is inf, not a finite double"),
            ("x", [[0.5, 2], [-1e308, 1e308]], r"sample.box.x\[1\]: hi - lo is inf"),
            ("t", [-1.7e308, 1.7e308], "sample.box.t: hi - lo is inf"),
            # this used to say "empty interval [2.0, 1.0]", naming no field
            ("t", [2, 1], r"sample.box.t: empty interval \[2.0, 1.0\]"),
            ("p", [[-3, 3], [1, 1]], r"sample.box.p\[1\]: empty interval"),
        ):
            doc = base_doc()
            doc["sample"] = {"seed": 1, "count": 3, "box": {**box, key: interval}}
            with pytest.raises(ProblemFormatError, match="^" + message):
                problem_from_dict(doc)

    def test_bad_tolerance(self):
        doc = base_doc()
        for tolerance in (-1.0, True, math.inf, math.nan, 10**400):
            doc["tolerance"] = tolerance
            with pytest.raises(ProblemFormatError, match="tolerance"):
                problem_from_dict(doc)

    def test_invalid_json_file(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ProblemFormatError, match="invalid JSON"):
            load_problem(path)

    def test_empty_sample(self):
        doc = base_doc()
        box = doc["sample"]["box"]
        for sample, message in (
            ({"points": []}, "at least one"),
            ({"seed": True, "count": 5}, "sample.seed"),
            ({"seed": 7, "count": True}, "sample.count"),
            ({"seed": 7, "count": 5, "box": {**box, "t": [True, 2]}}, "sample.box.t"),
            ({"seed": 7, "count": 5, "box": {**box, "t": [0.5, 10**400]}}, "sample.box.t"),
            ({"seed": 7, "count": 5, "box": {**box, "p": [-3, True]}}, "sample.box.p"),
            ({"seed": 7, "count": 5, "box": {**box, "x": [[0.5, 1], [True, 2]]}}, "box.x"),
        ):
            doc["sample"] = sample
            with pytest.raises(ProblemFormatError, match=message):
                problem_from_dict(doc)

    def test_points_must_be_a_list(self):
        doc = base_doc()
        for points in (5, None, True):
            doc["sample"] = {"points": points}
            with pytest.raises(ProblemFormatError, match="sample.points: expected a list of points"):
                problem_from_dict(doc)

    def test_point_count_is_capped(self):
        doc = base_doc()
        row = [1.0, 1.0, 1.0, 2.0, 3.0]
        for sample, message in (
            ({"seed": 7, "count": 10**12}, "sample.count: at most 10000 points allowed"),
            ({"seed": 7, "count": MAX_POINTS + 1}, "sample.count: at most 10000"),
            ({"points": [row] * (MAX_POINTS + 1)}, "sample.points: at most 10000"),
        ):
            doc["sample"] = sample
            with pytest.raises(ProblemFormatError, match=message):
                problem_from_dict(doc)
        # the limit itself loads
        doc["sample"] = {"points": [row] * MAX_POINTS}
        assert len(problem_from_dict(doc).points) == MAX_POINTS
