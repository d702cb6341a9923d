"""blockcs: block-sparse compressed sensing at desk scale.

Mixed l2/l1 recovery solvers, exact block restricted-isometry constants by
support enumeration, the sharp recovery condition delta < t/(4-t) with both
of its error bounds, the threshold-attaining counterexample construction,
and the combinatorial identities behind the analysis.
"""

from . import blocks, sensing, ric, solvers, oracle, identities, seeding
from .blocks import *
from .sensing import *
from .ric import *
from .solvers import *
from .oracle import *
from .identities import *
from .experiments import (CounterexampleReport, ExperimentSpec, TrialRecord, demo_counterexample,
                          run_experiment)
from .seeding import *

__version__ = "0.1.0"

# each module's __all__ decides which of its names are public
__all__ = [*blocks.__all__, *sensing.__all__, *ric.__all__, *solvers.__all__, *oracle.__all__,
           *identities.__all__, "CounterexampleReport", "ExperimentSpec", "TrialRecord",
           "demo_counterexample", "run_experiment", *seeding.__all__]
