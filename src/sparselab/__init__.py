"""sparselab: a laboratory for cut and spectral sparsification of dense graphs.

Measurement modules (cuts, spectral, nbwalk, martingale, bounds) operate on
the shared WeightedGraph value type, and cuts and spectral also take a
Clique value as the reference; the harness module wires them into
seeded, replayable experiments behind the ``sparselab`` CLI.
"""

from .bounds import (
    AppendixReport,
    RamanujanBound,
    RSBound,
    TailBound,
    azuma_fan_bound,
    erf_inv,
    main_constant,
    phi_matching,
    ramanujan_epsilon,
    rs_bound,
    small_cut_delta,
    tail_bound_generic,
    tail_bound_regime,
    verify_appendix_inequalities,
)
from .cuts import (
    CutErrorReport,
    CutProfile,
    cut_error_exhaustive,
    cut_error_sampled,
    cut_profile,
)
from .errors import (
    DegenerateInputError,
    InvalidArgumentError,
    NotComparableError,
    OutOfRegimeError,
    ParseError,
    SizeLimitError,
    SparselabError,
    UnsupportedInputError,
)
from .graph import (
    Clique,
    WeightedGraph,
    collapse_multiedges,
    first_matchings_subgraph,
    make_clique,
    make_cycle,
    read_edge_list,
    sample_regular_multigraph,
    scale_weights,
    write_edge_list,
)
from .martingale import EmpiricalTail, RevealTrace, empirical_tail, simulate_reveal
from .nbwalk import (
    CertificateReport,
    PseudoGirthReport,
    certify_lower_bound,
    pseudo_girth,
)
from .rng import RNG_ALGORITHM, derive_seed, make_generator
from .spectral import SpectralReport, spectral_error

__version__ = "0.1.0"
