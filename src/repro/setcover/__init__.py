"""Generic set-cover machinery.

MQDP reduces to (weighted-cardinality) set cover — every post induces the set
of ``(post, label)`` pairs it lambda-covers — and both the GreedySC algorithm
(Section 4.2) and our exact cross-checking baseline are expressed on top of
the solvers in this package:

* :func:`repro.setcover.greedy.greedy_set_cover` — the classical
  ``ln(k)``-approximate greedy rule.  Candidates are kept in a lazy max-heap
  by default; the paper's linear rescan makes the same picks and stays for
  the figure drivers, the ablation study and the tests.
* :func:`repro.setcover.exact.exact_set_cover` — a branch-and-bound exact
  solver for small universes, used to validate approximation bounds.
"""

from .exact import exact_set_cover
from .greedy import greedy_set_cover

__all__ = ["greedy_set_cover", "exact_set_cover"]
