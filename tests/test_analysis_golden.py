"""Golden fingerprints of the analysis phase.

The ordering and symbolic pipeline is allowed to get faster, never to
produce a different permutation, elimination tree, column counts,
permuted pattern or block symbol: every D8xx baseline and every
``results/BENCH_fig*`` figure is a function of them.  The digests in
``tests/data/analysis_golden.json`` were recorded at commit 75ae8d3
(before the array-native rewrite of ``graph``/``ordering``/``symbolic``)
with ``python -m tests.test_analysis_golden --record``.

Every digest is checked through whatever backend this host runs by
default (the C helper of ``repro.graph.native`` when it loads, its nested
dissection on 1, 2 and 4 threads) and through the Python bodies, which
must agree byte for byte.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from repro.graph import native
from repro.ordering import dissection
from repro.sparse import grid_laplacian_2d, load_matrix
from repro.sparse.collection import collection_names
from repro.symbolic import SymbolicOptions, analyze
from tests.conftest import COMPONENT_SIZES, many_component_matrix

GOLDEN = Path(__file__).parent / "data" / "analysis_golden.json"

#: (matrix, scale) of ``benchmarks/e2e/harness.WORKLOADS`` (frozen).
E2E_INPUTS = {
    "shell2d_lu": ("afshell10", 0.5),
    "vol3d_ldlt": ("Serena", 0.5),
    "helm3d_zldlt": ("pmlDF", 1.3),
    "elast3d_llt_seq_rhs16": ("audi", 1.0),
}

#: The analysis without a fill-reducing ordering: etree, column counts,
#: supernodes and symbol of the matrix as given.
VARIANTS = {
    "natural": SymbolicOptions(ordering="natural"),
}


def fingerprint(res) -> str:
    """SHA-256 over every array the numeric phases read from an analysis."""
    sym = res.symbol
    h = hashlib.sha256()
    for arr in (res.perm.perm, sym.cblk_ptr, sym.blok_ptr, sym.blok_frow,
                sym.blok_lrow, sym.blok_face, res.parent, res.counts,
                res.pattern.colptr, res.pattern.rowind):
        h.update(np.ascontiguousarray(arr).tobytes())
    return h.hexdigest()


def _cases():
    for name in collection_names():
        yield f"collection/{name}@0.3", (name, 0.3), None
    for wl, inp in E2E_INPUTS.items():
        yield f"e2e/{wl}", inp, None
    for label, opts in VARIANTS.items():
        yield f"variant/{label}", None, opts
    yield "components/300v40c", "components", None


def _digest(inp, opts) -> str:
    if inp is None:
        matrix = grid_laplacian_2d(24, jitter=0.05, seed=4)
    elif inp == "components":
        # Leaves of 12 vertices, so that components get separators too.
        matrix = many_component_matrix(COMPONENT_SIZES, seed=21)
        with mock.patch.object(dissection, "LEAF_SIZE", 12):
            return fingerprint(analyze(matrix, opts))
    else:
        matrix = load_matrix(inp[0], inp[1], 0)
    return fingerprint(analyze(matrix, opts))


@pytest.fixture
def etree_calls(monkeypatch):
    """Calls that reached the C helper (every analysis needs an
    elimination tree, whatever its ordering: the C analysis builds it in
    its second pass, :func:`repro.graph.native.order`)."""
    calls = []
    inner = native.order

    def spy(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(native, "order", spy)
    return calls


CASES = pytest.mark.parametrize("key,inp,opts", list(_cases()),
                                ids=[c[0] for c in _cases()])


@CASES
def test_analysis_matches_golden(key, inp, opts, etree_calls):
    golden = json.loads(GOLDEN.read_text())
    assert _digest(inp, opts) == golden[key]
    assert bool(etree_calls) == (native.availability() is None)


@CASES
def test_python_bodies_match_golden(key, inp, opts, etree_calls,
                                    python_analysis):
    golden = json.loads(GOLDEN.read_text())
    assert _digest(inp, opts) == golden[key]
    assert not etree_calls


def test_golden_covers_every_case():
    golden = json.loads(GOLDEN.read_text())
    assert sorted(golden) == sorted(c[0] for c in _cases())


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: python -m tests.test_analysis_golden --record")
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(
        {key: _digest(inp, opts) for key, inp, opts in _cases()},
        indent=2, sort_keys=True) + "\n")
