"""Decoding engine and benchmark harness for block-diffusion generation."""

from .core import (
    Algorithm,
    BlockState,
    DecodingConfig,
    GenerationResult,
    PositionPrediction,
    RowTable,
    StepRecord,
    StopReason,
    TccfConfig,
    TccfTrace,
    Vocab,
    lint_config,
    validate_config,
)
from .denoisers import (
    ContractViolation,
    Denoiser,
    FixtureError,
    MarkovDenoiser,
    OracleDenoiser,
    ScriptedDenoiser,
    load_scripted,
    markov_fit,
    predict,
)
from .metrics import (
    Category,
    RunSummary,
    aggregate,
    classify,
    detect_repetition,
    mean_confidence,
    summarize,
    tpf,
)
from .noise import forward_mask, nelbo_estimate
from .sampling import (
    BacdState,
    decode_block,
    select_bacd,
    select_dynamic,
    select_entropy_bounded,
    select_static,
)
from .scheduler import GenerationSession, find_marker, generate, generate_tccf

__version__ = "0.1.0"
