"""A mutant matrix: which wrong engines does ``verify`` still pass?

Each mutant builds one paper-level object wrongly.  It is made in process,
by wrapping the object's builder where ``jetham.cli`` looks it up, so no
source file is edited.  A mutant is caught on a bundled problem when
``cmd_verify`` gives a failing report there (``jetham verify`` exits 2).

The covariance laws of a tensorial object are homogeneous, so a constant
factor on that object, made alike in every chart, passes them.  Four of
the seven mutants are not caught for this reason.  That is a known defect,
not a wanted result, so those rows are strict xfails.  Once a value check
in the problem's own chart (ROADMAP item 7) makes ``verify`` fail them,
each strict xfail that passes is an error, which forces its mark off.
"""

from pathlib import Path

import numpy as np
import pytest

import jetham.cli
from jetham.cli import cmd_verify
from jetham.dtensor import DTensor
from jetham.expr import Components, const
from jetham.nlconn import NonlinearConnection
from jetham.problem import load_problem

BUNDLED = Path(__file__).resolve().parent.parent / "problems"
PROBLEMS = ("example.json", "full_n4.json", "hamiltonian_n2.json")


def _scaled(comps: np.ndarray, factor: float) -> np.ndarray:
    return np.array([const(factor) * e for e in comps.flat], dtype=object).reshape(comps.shape)


def _dtensor_times(factor):
    def mutate(build):
        def mutant(*args):
            T = build(*args)
            return DTensor(T.n, _scaled(T.comps, factor), T.signature)
        return mutant
    return mutate


def _components_times(factor):
    def mutate(build):
        def mutant(*args):
            G = build(*args)
            return Components(G.n, _scaled(G.comps, factor))
        return mutant
    return mutate


def _hamiltonian_times_2(build):
    return lambda h, g: const(2.0) * build(h, g)


def _connection_temporal_times_2(build):
    def mutant(h, g):
        N = build(h, g)
        return NonlinearConnection(N.n, _scaled(N.temporal.comps, 2.0), N.spatial)
    return mutant


# name -> (the builder's name in jetham.cli, its mutation, caught)
MUTANTS = {
    # 1/2 becomes 1
    "vertical_metrical_without_half": ("vertical_metrical", _dtensor_times(2.0), False),
    "momentum_liouville_times_2": ("momentum_liouville", _dtensor_times(2.0), False),
    "h_normalization_times_3": ("h_normalization", _dtensor_times(3.0), False),
    "metric_hamiltonian_times_2": ("metric_hamiltonian", _hamiltonian_times_2, False),
    # 1/2 becomes 1: the inhomogeneous term of the law is not doubled
    "canonical_temporal_without_half": ("canonical_temporal", _components_times(2.0), True),
    "canonical_spatial_sign_flipped": ("canonical_spatial", _components_times(-1.0), True),
    "canonical_connection_temporal_times_2":
        ("canonical_connection", _connection_temporal_times_2, True),
}

# only the report's assertion may fail: a mutant that is never built is an
# error of the matrix itself
UNCAUGHT = pytest.mark.xfail(
    strict=True,
    raises=AssertionError,
    reason="ROADMAP item 7: verify checks covariance, not values, so a constant factor passes",
)


def _cases():
    for name, (_, _, caught) in MUTANTS.items():
        for problem in PROBLEMS:
            # hamiltonian_n2.json gives its own Hamiltonian, so no chart
            # builds the metric one there: no check can see this mutant
            if name == "metric_hamiltonian_times_2" and problem == "hamiltonian_n2.json":
                continue
            yield pytest.param(name, problem, marks=() if caught else UNCAUGHT)


@pytest.mark.parametrize("mutant, problem", _cases())
def test_mutant_fails_verify(monkeypatch, mutant, problem):
    builder, mutate, _ = MUTANTS[mutant]
    wrong = mutate(getattr(jetham.cli, builder))
    built = []

    def counted(*args):
        built.append(args)
        return wrong(*args)

    monkeypatch.setattr(jetham.cli, builder, counted)
    report = cmd_verify(load_problem(BUNDLED / problem))
    if not built:
        raise LookupError(f"cmd_verify never built {builder}")
    assert not report.passed
