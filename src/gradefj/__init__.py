"""gradefj: a resource-aware Featherweight Java toolchain.

Grade algebras (ordered semirings), heterogeneous grade combination, a
graded type checker with elaboration, standard and grade-instrumented
interpreters, and a harness that checks the soundness results over a
program corpus.
"""

from .grades import (
    AFFINITY,
    BOOLEAN,
    EXTREAL,
    NAT,
    PPRIVACY,
    PRIVACY,
    TRIVIAL,
    Algebra,
    AmbiguousResidual,
    CarrierMismatch,
    ExtendAlgebra,
    FiniteAlgebra,
    FiniteTable,
    GradeError,
    GradeValue,
    Hom,
    PartialMap,
    ProductAlgebra,
    iota,
    validate_algebra,
    validate_hom,
)
from .hetero import (
    GradeUniverse,
    KindedGrade,
    ONE_D,
    RefinementEdge,
    ZERO_D,
    check_universe_laws,
    default_universe,
    load_universe,
    universe_from_config,
    validate_universe,
)
from .syntax import GradedType, Program, erase, parse_program
from .typecheck import (
    CheckDiag,
    CheckError,
    TypingResult,
    annotate_program,
    check,
    check_configuration,
    elaborate_program,
)
from .runtime import (
    Env,
    Enumerate,
    GradedConfig,
    Minimal,
    graded_config_step,
    graded_run,
    std_run,
)
from .props import check_entry, load_corpus, theorem_suite

__version__ = "0.1.0"
