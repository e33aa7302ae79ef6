"""The input contract of every public function that takes a colouring with a
vertex set, a colour or a per-colour list.

``EdgeColouring`` states the two rules: a colour lies in [0, r), else
InvalidColour, and a vertex set has no vertex outside [0, n), else
InvalidVertex, which every negative int breaks.  ``geometry`` states the
per-colour rule: one Y set and one positive alpha per colour, else
InvalidInput.  Each entry point below is called with valid inputs by default,
and each case replaces one input by a bad one.
"""

import inspect
from fractions import Fraction as F

import pytest

from ramseybook.book_engine import EngineParams, run
from ramseybook.colouring import pentagon_colouring
from ramseybook.errors import InvalidColour, InvalidInput, InvalidVertex
from ramseybook.geometry import (
    build_embedding,
    find_lambda_witness,
    key_lemma_step,
    min_density,
    verify_key_step,
    verify_witness,
)
from ramseybook.oracle import max_mono_clique

C = pentagon_colouring()
N, R, V = C.n, C.r, C.vertices
YS, ALPHAS = [V] * R, [F(1, 10)] * R
STEP = key_lemma_step(C, V, YS, ALPHAS)
WITNESS = find_lambda_witness(build_embedding(C, V, YS, ALPHAS))
PARAMS = EngineParams(t=2, lambda0=F(10), delta=F(1, 16))

# every vertex of the bad sets lies outside [0, n), so none overlaps a valid set
BIT_N = 1 << N
NEGATIVE = -(1 << N)

ENTRY_POINTS = {
    "neighbourhood": lambda v=0, colour=0: C.neighbourhood(v, colour),
    "is_mono_clique": lambda subset=V, colour=0: C.is_mono_clique(subset, colour),
    "is_mono_book": lambda spine=0b1, pages=0b10010, colour=0: C.is_mono_book(spine, pages, colour),
    "min_density": lambda x=V, y=V, colour=0: min_density(C, x, y, colour),
    "build_embedding": lambda x=V, ys=YS, alphas=ALPHAS: build_embedding(C, x, ys, alphas),
    "key_lemma_step": lambda x=V, ys=YS, alphas=ALPHAS: key_lemma_step(C, x, ys, alphas),
    "verify_key_step": lambda x=V, ys=YS, alphas=ALPHAS: verify_key_step(C, x, ys, alphas, STEP),
    "verify_witness": lambda x=V, ys=YS, alphas=ALPHAS: verify_witness(C, x, ys, alphas, WITNESS),
    "run": lambda x=V, ys=YS: run(C, x, ys, PARAMS),
    "max_mono_clique": lambda colour=0, within=V: max_mono_clique(C, colour, within=within),
}

VERTEX_SET = [("bit-n", BIT_N, InvalidVertex), ("negative", NEGATIVE, InvalidVertex)]
# per parameter, the bad values: (case id, value, the error it must raise)
BAD = {
    "v": [("n", N, InvalidVertex), ("negative", -1, InvalidVertex)],
    "colour": [("r", R, InvalidColour), ("minus-one", -1, InvalidColour)],
    **dict.fromkeys(["subset", "spine", "pages", "x", "y", "within"], VERTEX_SET),
    "ys": [
        ("y1-bit-n", [V, BIT_N], InvalidVertex),
        ("y1-negative", [V, NEGATIVE], InvalidVertex),
        ("r-minus-one-sets", [V] * (R - 1), InvalidInput),
    ],
    "alphas": [("alpha-zero", [F(0), F(1, 10)], InvalidInput)],
}

CASES = [
    pytest.param(call, {name: value}, error, id=f"{entry}-{name}-{case}")
    for entry, call in ENTRY_POINTS.items()
    for name in inspect.signature(call).parameters
    for case, value, error in BAD[name]
]


@pytest.mark.parametrize("call", ENTRY_POINTS.values(), ids=ENTRY_POINTS.keys())
def test_default_inputs_are_valid(call):
    call()


@pytest.mark.parametrize("call, kwargs, error", CASES)
def test_bad_input_raises_its_typed_error(call, kwargs, error):
    with pytest.raises(InvalidInput) as info:
        call(**kwargs)
    assert info.type is error
    if error is InvalidVertex and "v" not in kwargs:
        assert str(info.value).endswith(f"contains vertices out of range [0, {N})")
