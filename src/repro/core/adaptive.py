"""Dynamic partition sizing (paper §VIII, first future-work avenue).

§IV-C describes the trade-off: small partitions make user decryption fast
(quadratic in the partition size) but multiply the administrator's per-
revocation work (one O(1) re-key *per partition*); large partitions do the
reverse.  The paper fixes the size ahead of time; this extension picks it
from the observed workload.

Cost model per unit time, for group size ``n``, partition size ``m``,
revocation rate ``r`` (ops/s) and decrypt rate ``d`` (ops/s)::

    cost(m) = r · c_rekey · (n / m)  +  d · c_decrypt · m²

Minimising over m gives the closed form::

    m* = cbrt( r · c_rekey · n / (2 · d · c_decrypt) )

The coefficients ``c_rekey`` (seconds per partition re-key) and
``c_decrypt`` (seconds per member per member — the quadratic constant) are
calibrated from measurements or left at defaults estimated from the
microbenchmarks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

from repro.core.admin import GroupAdministrator
from repro.errors import ParameterError


@dataclass(frozen=True)
class CoefficientFit:
    """One calibrated cost coefficient with its fit diagnostics.

    ``coefficient`` is the slope of a least-squares line through the
    measured ``(x, seconds)`` samples — ``x`` is partition *count* for
    the re-key fit and partition size *squared* for the decrypt fit, so
    the slope is directly ``c_rekey`` (seconds per partition re-key) or
    ``c_decrypt`` (seconds per member²).  ``intercept`` absorbs the
    fixed per-operation overhead (commit, signing, dispatch) so it does
    not pollute the marginal cost, and ``residual`` is the RMS error of
    the fit — large residuals mean the measurements do not follow the
    assumed cost model and the calibration should not be trusted.
    """

    coefficient: float
    intercept: float
    residual: float
    samples: Tuple[Tuple[float, float], ...]

    def describe(self) -> str:
        return (f"{self.coefficient:.3e} (intercept {self.intercept:.3e}, "
                f"rms residual {self.residual:.3e}, "
                f"{len(self.samples)} samples)")


def fit_linear_cost(samples: Sequence[Tuple[float, float]]) -> CoefficientFit:
    """Least-squares line ``seconds = coefficient·x + intercept``.

    The workhorse of empirical calibration: feed it ``(partition_count,
    remove_user_seconds)`` pairs to recover ``c_rekey``, or
    ``(partition_size², decrypt_seconds)`` pairs to recover
    ``c_decrypt``.  Requires at least two distinct ``x`` values; the
    slope is clamped at 0 (a negative marginal cost is measurement
    noise, not physics).
    """
    if len(samples) < 2:
        raise ParameterError("calibration needs at least 2 samples")
    xs = [float(x) for x, _ in samples]
    ys = [float(y) for _, y in samples]
    n = float(len(samples))
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    var_x = sum((x - mean_x) ** 2 for x in xs)
    if var_x <= 0.0:
        raise ParameterError(
            "calibration samples must span at least two distinct sizes")
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys))
    slope = max(0.0, cov / var_x)
    intercept = mean_y - slope * mean_x
    residual = math.sqrt(sum(
        (y - (slope * x + intercept)) ** 2 for x, y in zip(xs, ys)) / n)
    return CoefficientFit(
        coefficient=slope, intercept=intercept, residual=residual,
        samples=tuple((float(x), float(y)) for x, y in samples),
    )


@dataclass(frozen=True)
class CutoffPoint:
    """The recommended partition size at one group size, next to the
    paper's fixed ``sqrt(n)`` rule for comparison."""

    group_size: int
    optimal: int
    sqrt_rule: int
    #: ``optimal / sqrt(n)`` — 1.0 means the measured workload agrees
    #: with the paper's cutoff; >1 favours larger partitions (rekey-
    #: dominated), <1 smaller ones (decrypt-dominated).
    ratio: float


@dataclass(frozen=True)
class AdaptivePolicy:
    """Closed-form optimal partition size with hysteresis."""

    #: Seconds per partition re-key.  Sized when a re-key raised the
    #: stored C3 on the variable-base ladder; at ``std160`` it is now two
    #: tabled lookups, a GT power, an envelope and a record signature,
    #: about 2e-3.  The cube root mutes it (m* moves by 1.36x): calibrate
    #: (:meth:`from_fits`) where the optimum matters.
    c_rekey: float = 5e-3
    c_decrypt: float = 2e-7      # seconds per (partition member)²
    min_capacity: int = 8
    max_capacity: int = 4000
    #: Re-partitioning is only recommended when the optimum differs from
    #: the current size by more than this factor (avoids thrashing).
    hysteresis: float = 1.5

    def optimal_capacity(self, group_size: int, revocation_rate: float,
                         decrypt_rate: float) -> int:
        """``m*`` for the given workload mix."""
        if group_size < 1:
            raise ParameterError("group size must be positive")
        if revocation_rate < 0 or decrypt_rate < 0:
            raise ParameterError("rates must be non-negative")
        if decrypt_rate == 0:
            # Nobody decrypts: make partitions as large as allowed.
            return min(self.max_capacity, max(self.min_capacity, group_size))
        if revocation_rate == 0:
            # Nobody is revoked: minimize decrypt cost.
            return self.min_capacity
        optimum = (
            revocation_rate * self.c_rekey * group_size
            / (2.0 * decrypt_rate * self.c_decrypt)
        ) ** (1.0 / 3.0)
        clamped = int(round(optimum))
        return max(self.min_capacity, min(self.max_capacity, clamped))

    def should_repartition(self, current_capacity: int,
                           optimal: int) -> bool:
        """True when the optimum has drifted past the hysteresis band.

        The band is closed: an optimum at *exactly* ``hysteresis ×``
        (or ``1/hysteresis ×``) the current size does **not** trigger —
        re-partitioning recreates the whole group, so the boundary case
        stays put (noise straddling the boundary must not thrash).
        """
        if current_capacity <= 0:
            return True
        ratio = optimal / current_capacity
        return ratio > self.hysteresis or ratio < 1.0 / self.hysteresis

    @classmethod
    def calibrated(cls, rekey_fit: CoefficientFit,
                   decrypt_fit: CoefficientFit,
                   **overrides) -> "AdaptivePolicy":
        """A policy whose coefficients come from measurement, not the
        microbenchmark defaults (see :func:`fit_linear_cost`).  Keyword
        overrides pass through to the dataclass (``min_capacity`` etc.)."""
        if rekey_fit.coefficient <= 0.0 or decrypt_fit.coefficient <= 0.0:
            raise ParameterError(
                "calibrated coefficients must be positive — the fit "
                "found no marginal cost, so the measurements are noise")
        return cls(c_rekey=rekey_fit.coefficient,
                   c_decrypt=decrypt_fit.coefficient, **overrides)

    def cutoff_curve(self, group_sizes: Sequence[int],
                     revocation_rate: float, decrypt_rate: float,
                     ) -> List[CutoffPoint]:
        """The recommended cutoff ``m*(n)`` across group sizes, against
        the paper's ``sqrt(n)`` rule (§IV-C fixes ``m = sqrt(n)`` ahead
        of time; this is the empirical re-derivation of that choice
        for a *measured* workload mix)."""
        curve: List[CutoffPoint] = []
        for n in group_sizes:
            optimal = self.optimal_capacity(n, revocation_rate, decrypt_rate)
            sqrt_rule = max(1, int(round(math.sqrt(n))))
            curve.append(CutoffPoint(
                group_size=n, optimal=optimal, sqrt_rule=sqrt_rule,
                ratio=optimal / sqrt_rule,
            ))
        return curve


@dataclass
class WorkloadWindow:
    """Sliding counters of observed operations for one group."""

    revocations: int = 0
    decrypts: int = 0
    window_ops: int = 0

    def record_revocation(self) -> None:
        self.revocations += 1
        self.window_ops += 1

    def record_add(self) -> None:
        self.window_ops += 1

    def record_decrypt(self) -> None:
        self.decrypts += 1

    def reset(self) -> None:
        self.revocations = 0
        self.decrypts = 0
        self.window_ops = 0


@dataclass(frozen=True)
class ReviewPoint:
    """One adaptation review: what the policy saw and what it decided.

    The sequence of review points for a group is its *partition-size
    trajectory* — the scale suite (:mod:`repro.workloads.scale`) records
    it to show how the adaptive cutoff converges (or thrashes) under a
    realistic workload mix.
    """

    group_id: str
    group_size: int
    revocation_rate: float
    decrypt_rate: float
    current_capacity: int
    optimal_capacity: int
    repartitioned: bool

    def summary(self) -> dict:
        return {
            "group": self.group_id,
            "size": self.group_size,
            "rev_rate": round(self.revocation_rate, 4),
            "dec_rate": round(self.decrypt_rate, 4),
            "capacity": self.current_capacity,
            "optimal": self.optimal_capacity,
            "repartitioned": self.repartitioned,
        }


class AdaptiveAdministrator:
    """Wraps a :class:`GroupAdministrator` with workload-driven sizing.

    Clients report decryptions through :meth:`record_decrypt` (in a real
    deployment, a coarse counter piggybacked on long-poll requests);
    membership operations are observed directly.  Every ``review_every``
    membership operations the policy re-evaluates the partition size and
    triggers a re-partition when warranted.  Every review is appended to
    :attr:`trajectory` (bounded), repartition or not, so the adaptation
    path can be inspected after a run.
    """

    #: Trajectory entries kept (FIFO) — bounds memory on soak runs.
    MAX_TRAJECTORY = 4096

    def __init__(self, admin: GroupAdministrator,
                 policy: Optional[AdaptivePolicy] = None,
                 review_every: int = 64) -> None:
        if review_every < 1:
            raise ParameterError("review_every must be >= 1")
        self.admin = admin
        self.policy = policy or AdaptivePolicy()
        self.review_every = review_every
        self._windows: Dict[str, WorkloadWindow] = {}
        self.resizes = 0
        self.trajectory: List[ReviewPoint] = []

    # -- pass-through operations with observation --------------------------------

    def create_group(self, group_id: str, members) -> None:
        self.admin.create_group(group_id, members)
        self._windows[group_id] = WorkloadWindow()

    def add_user(self, group_id: str, user: str) -> None:
        self.admin.add_user(group_id, user)
        window = self._window(group_id)
        window.record_add()
        self._maybe_review(group_id)

    def remove_user(self, group_id: str, user: str) -> None:
        self.admin.remove_user(group_id, user)
        window = self._window(group_id)
        window.record_revocation()
        self._maybe_review(group_id)

    def record_decrypt(self, group_id: str, count: int = 1) -> None:
        window = self._window(group_id)
        for _ in range(count):
            window.record_decrypt()

    # -- the adaptation loop ---------------------------------------------------------

    def _maybe_review(self, group_id: str) -> None:
        window = self._window(group_id)
        if window.window_ops < self.review_every:
            return
        state = self.admin.group_state(group_id)
        group_size = len(state.table)
        if group_size == 0:
            window.reset()
            return
        # Rates are per membership operation; the shared factor cancels in
        # the ratio inside the cube root.
        revocation_rate = window.revocations / max(window.window_ops, 1)
        decrypt_rate = window.decrypts / max(window.window_ops, 1)
        optimal = self.policy.optimal_capacity(
            group_size, revocation_rate, max(decrypt_rate, 1e-6)
        )
        repartitioned = self.policy.should_repartition(
            state.table.capacity, optimal)
        point = ReviewPoint(
            group_id=group_id, group_size=group_size,
            revocation_rate=revocation_rate, decrypt_rate=decrypt_rate,
            current_capacity=state.table.capacity,
            optimal_capacity=optimal, repartitioned=repartitioned,
        )
        if len(self.trajectory) >= self.MAX_TRAJECTORY:
            del self.trajectory[0]
        self.trajectory.append(point)
        if repartitioned:
            self.admin.repartition(group_id, new_capacity=optimal)
            self.resizes += 1
        window.reset()

    def _window(self, group_id: str) -> WorkloadWindow:
        window = self._windows.get(group_id)
        if window is None:
            window = WorkloadWindow()
            self._windows[group_id] = window
        return window
