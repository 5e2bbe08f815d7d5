import numpy as np
import pytest

from coset_reference import leech_basis
from leechdesign.coherent import classify_pairs, intersection_numbers
from leechdesign.construct import BlockStats, build_design, build_Y
from leechdesign.lattice import A_CANONICAL, B_CANONICAL, default_context
from leechdesign.unique import (
    build_dual_frame,
    enumerate_candidates,
    integralize_X1,
    split_candidates,
    twin_design,
)

# An alternative valid anchor pair for anchor-independence checks: both norm
# 4, inner product -1.
A_ALTERNATE = np.array([0, 0, 4, 4] + [0] * 20, dtype=np.int64)
B_ALTERNATE = np.array([1, 1, 1, -3] + [1] * 20, dtype=np.int64)

# A lattice member of true norm about 7.4e19 whose int64 self-dot wraps to
# 32 (norm 4), and whose int64 dot with B_CANONICAL is -8 (product -1).
A_WRAPPING = A_CANONICAL + 2**32 * np.array([0, 0, 4, -4] + [0] * 20, dtype=np.int64)


@pytest.fixture
def block_calls(monkeypatch):
    """The operand row counts (len(a), len(b)) of every `BlockStats.of`
    call made while the test runs: one per block whose histogram is read."""
    calls = []
    of = BlockStats.of

    def counted(cls, a, b):
        calls.append((len(a), len(b)))
        return of(a, b)

    monkeypatch.setattr(BlockStats, "of", classmethod(counted))
    return calls


@pytest.fixture
def coset_calls(monkeypatch):
    """The constraint keys ((anchor, value), ...) of every coset-shell filter
    run while the test runs, through any module that binds the function."""
    from leechdesign import cli, construct

    calls = []
    enumerate_shell = construct.enumerate_coset_shell

    def counted(constraints, norm):
        calls.append(tuple((tuple(c.anchor.tolist()), c.value) for c in constraints))
        return enumerate_shell(constraints, norm)

    for module in (cli, construct):
        monkeypatch.setattr(module, "enumerate_coset_shell", counted)
    return calls


@pytest.fixture(scope="session")
def ctx():
    return default_context()


@pytest.fixture(scope="session")
def basis(ctx):
    return leech_basis(ctx.code)


@pytest.fixture(scope="session")
def design():
    return build_design(A_CANONICAL, B_CANONICAL)


@pytest.fixture(scope="session")
def ys():
    return build_Y(A_CANONICAL, B_CANONICAL)


@pytest.fixture(scope="session")
def alt_design():
    return build_design(A_ALTERNATE, B_ALTERNATE)


@pytest.fixture(scope="session")
def partition(design):
    return classify_pairs(design)


@pytest.fixture(scope="session")
def tensor(partition):
    return intersection_numbers(partition)


@pytest.fixture(scope="session")
def alt_tensor(alt_design):
    return intersection_numbers(classify_pairs(alt_design))


@pytest.fixture(scope="session")
def x1_integral(design):
    return integralize_X1(design)


@pytest.fixture(scope="session")
def dual_frame(x1_integral):
    return build_dual_frame(x1_integral)


@pytest.fixture(scope="session")
def candidates(dual_frame, x1_integral):
    return enumerate_candidates(dual_frame, x1_integral)


@pytest.fixture(scope="session")
def split(candidates, design):
    return split_candidates(candidates, design)


@pytest.fixture(scope="session")
def twin(design, split):
    return twin_design(design, split)
