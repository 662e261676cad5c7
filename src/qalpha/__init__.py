"""Numerical laboratory for increment-kernel and band-energy norms on the torus."""

from .corpus import CorpusSpec, default_corpus, generate, load_corpus_file
from .cubes import (
    AllowedClassification,
    CountSummary,
    DyadicCube,
    TreeSets,
    allowed_cubes,
    classify_allowed,
    count_summary,
    gamma_set,
    kernel_sum,
    required_max_level,
    sample_pairs,
    tree_sets,
)
from .errors import ConfigError, InvariantViolation
from .filterbank import (
    BandDecomposition,
    BandProfile,
    build_profiles,
    decompose,
    profiles_to_csv,
)
from .grid import (
    Cube,
    CubeFamily,
    GridFunction,
    cube_lattice,
    cube_mean,
    enumerate_cubes,
    l2_on_cube,
    read_grid,
    write_grid,
)
from .norms import (
    CubeTable,
    MorreyBesovReport,
    NormReport,
    campanato,
    dyadic_lp,
    dyadic_lp_rearranged,
    lp_morrey,
    morrey_besov,
    q_alpha,
)
from .verify import (
    DecayRecord,
    EmbeddingReport,
    EquivalenceReport,
    Lemma23Record,
    embedding_check,
    equivalence_report,
    fubini_identity_check,
    kernel_decay_check,
    lemma23_check,
)

__version__ = "0.1.0"
