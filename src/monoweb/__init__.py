"""monoweb: local monodromy, orbit indices, and index-sum verification for
branched sections defined by binary differential equations.

The usual entry points:

* :mod:`monoweb.expr` — expression parsing and exact derivatives,
* :mod:`monoweb.fiber` — fiber systems, root solving, singular sets,
* :mod:`monoweb.monodromy` — loop tracking and orbit lifts,
* :mod:`monoweb.index` — winding classes and exact-rational indices,
* :mod:`monoweb.geometry` — surfaces, curvature-line equations, and the
  index-sum identity,
* :mod:`monoweb.cli` — the ``monoweb`` command.
"""

__version__ = "0.1.0"

from .expr import Expr, eval_expr, parse  # noqa: F401
from .fiber import (BinaryForm, CircleSystem, FiberKind,  # noqa: F401
                    ProjectiveSystem, PuncturedPlaneSystem, Rect,
                    SingularPoint, find_singularities, solve_fiber)
from .geometry import (SurfacePatch, WeightedPatch,  # noqa: F401
                       curvature_line_bde, fundamental_forms,
                       integrate_gauss_curvature, verify_index_theorem)
from .index import (OrbitIndexReport, PointIndexReport,  # noqa: F401
                    alternative_normalizations, index_report, winding_class)
from .monodromy import (LoopSpec, MonodromyResult,  # noqa: F401
                        TrackedPath, orbit_lift, track_loop)
