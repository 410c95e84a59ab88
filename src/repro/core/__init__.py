"""Intersection-management policies — the paper's core.

Three intersection managers share one substrate:

* :class:`VtimIM` — the plain Velocity-Transaction IM of Ch 4.  Replies
  with a target velocity the vehicle executes *on receipt*; must
  therefore schedule with an extra RTD buffer (``v_max * WC-RTD``).
* :class:`AimIM` — the query-based AIM baseline of Ch 5.2 (Dresner &
  Stone).  The vehicle proposes its own arrival time; the IM simulates
  the trajectory over a space-time tile grid and answers yes/no.  No
  RTD buffer, but no optimisation either — and every (re-)request costs
  a full trajectory simulation.
* :class:`CrossroadsIM` — the contribution (Ch 6).  A VT-IM whose reply
  carries an execution time ``TE = TT + WC-RTD``; the vehicle actuates
  exactly at ``TE`` so its position is deterministic and only the
  sensing buffer is needed.

:class:`ConflictScheduler` is the FCFS conflict-aware slot assigner the
two VT-style IMs use.  Each of them books a request through one
function, :func:`~repro.core.vtim.book_vtim` or
:func:`~repro.core.crossroads.book_crossroads`, which owns the whole
request-to-booking step (TE, the state planned from, the planner, the
buffer); the analytic engine books through the same two.  They share
the rest of the IM in :class:`~repro.core.base.SchedulerIM`.
:mod:`repro.core.compute` models IM computation delay (the "C" in
WC-RTD).
"""

from repro._lazy import export

__all__ = export(__name__, {
    "repro.core.aim": ("AimConfig", "AimIM"),
    "repro.core.base": ("BaseIM", "IMConfig", "IMStats"),
    "repro.core.compute": (
        "AimComputeModel", "ComputeModel", "LinearComputeModel",
    ),
    "repro.core.crossroads": ("CrossroadsIM",),
    "repro.core.policy": ("make_im",),
    "repro.core.registry": (
        "PolicySpec", "iter_policies", "normalize_policy", "policy",
        "portable_name", "register_policy", "resolve_policy",
    ),
    "repro.core.scheduler": ("ConflictScheduler", "ScheduledCrossing"),
    "repro.core.vtim": ("VtimIM",),
})
