"""Desk-scale, exactly-verifiable multicolour book algorithm for edge
colourings of complete graphs, with brute-force oracles and a bounds
calculator."""

from .colouring import (
    EdgeColouring,
    full_mask,
    mask_of,
    parse_colouring,
    pentagon_colouring,
    product_colouring,
    random_colouring,
    vertex_list,
)
from .geometry import (
    Embedding,
    KeyStepResult,
    WitnessReport,
    build_embedding,
    check_special_bounds,
    find_lambda_witness,
    key_lemma_step,
    min_density,
)
from .book_engine import EngineOutcome, EngineParams, Trace, read_trace, run, write_trace
from .monitors import run_all_monitors
from .oracle import SearchBudget, best_book, max_mono_clique, ramsey_exhaustive
from .pipeline import DriverConfig, desk_ramsey_driver, lemma53_check, regularise
from .bounds import appendix_check, es_upper, thm51_chain, thm_book_hypotheses

__version__ = "0.1.0"
