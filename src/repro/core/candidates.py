"""Split-candidate statistics and bounded candidate storage for the DMT.

Every node of a Dynamic Model Tree evaluates split candidates, i.e.
``(feature, threshold)`` pairs.  For each stored candidate the node keeps the
accumulated loss, gradient and count of the *parent* model restricted to the
left partition (``x[feature] <= threshold``); right-partition statistics are
recovered by subtracting from the node totals (Algorithm 1).

Because the number of distinct candidates can grow quickly for continuous
features, the DMT stores only a bounded number of candidate statistics
(default ``3 · m``) and allows a fixed fraction of them (default 50%) to be
replaced by newly observed candidates at every time step (Section V-D).

The store keeps its statistics in structure-of-arrays form (one array per
field, candidates in insertion order), so the per-batch refresh of every
stored candidate is a single broadcast mask matrix ``X[:, feats] <= thrs``
followed by one ``(n, k) x (n, p)`` contraction instead of a Python loop per
candidate.  The accumulation primitives are chosen for bit-equivalence with
the per-candidate reference loops in ``tests/oracles.py``: losses and
gradients use ``np.einsum`` (sequential accumulation over rows, exactly like
summing the masked rows of a loss-augmented gradient matrix along axis 0)
rather than a BLAS matmul, whose blocked partial sums differ in the last
ulp, and the gain sweep's squared gradient norms use the same einsum loop
order as the scalar reference in :func:`approximate_candidate_loss`.

Admission bound.  Once the store is full, a fresh candidate enters only by
beating the weakest stored gain ``w``, and most fresh candidates cannot.  The
store skips the exact statistics of those candidates without changing any
output.  Take a batch of ``n`` rows with per-sample losses
``ℓₙ``, per-sample gradients ``gₙ``, batch loss ``L_b``, batch gradient
``G = Σₙ gₙ`` and learning rate ``λ``.  A fresh candidate sends ``c_l`` rows
left and ``c_r = n − c_l`` rows right, with subset losses ``L_l + L_r = L_b``
and gradients ``g_l + g_r = G``.  With ``a_l = λ‖g_l‖²/c_l`` and
``a_r = λ‖g_r‖²/c_r`` its batch gain is

    ``L_b − max(L_l − a_l, 0) − max(L_r − a_r, 0)
    = min(L_l, a_l) + min(L_r, a_r) ≤ min(L_b, a_l + a_r)``.

Writing ``d = Σ_left (gₙ − G/n) = −Σ_right (gₙ − G/n)`` gives the exact
identity ``a_l + a_r = λ·(‖G‖²/n + n·‖d‖²/(c_l·c_r))``.  Cauchy–Schwarz on
either side bounds ``‖d‖² ≤ c_l·S_l`` and ``‖d‖² ≤ c_r·S_r``, where
``S_l`` and ``S_r`` sum ``‖gₙ − G/n‖²`` over the left and right rows.  So

* stage 1 (no threshold proposed yet): ``gain ≤ min(L_b, λ·Σₙ‖gₙ‖²) + M``,
  since ``‖g_l‖²/c_l ≤ Σ_left ‖gₙ‖²``;
* stage 2 (per candidate, from its mask column only):
  ``gain ≤ min(L_b, λ·(‖G‖²/n + n·min(S_l/c_r, S_r/c_l))) + M``.

Both cost ``O(n·p + n·k)`` with no matrix–matrix product.  A candidate whose
bound is ``<= w`` has a gain no larger than any stored gain, so the
admission loop would stop at it: pruning it leaves every admission and
eviction unchanged, and the kept candidates still take their statistics from
the full ``nk,np->kp`` contraction.  ``M`` covers the rounding of both the
gain sweep and the bound.  Every sum above has at most
``K = 2n + p + 8`` roundings per term, so the standard summation bound
``|fl(Σ xᵢ) − Σ xᵢ| ≤ γ_K·Σ|xᵢ|`` with ``γ_K = K·u/(1 − K·u)`` and
``u = 2⁻⁵³`` (Higham, *Accuracy and Stability of Numerical Algorithms*,
Lemma 3.1 and §4.2) applies to each.  The largest error lies in
``n·S_l/c_r``, whose rows' errors add up to at most ``9·γ_K·n²·λ·Σₙ‖gₙ‖²``.
Hence

    ``M = 16·γ_K·(Σₙ|ℓₙ| + (1 + λ)·(n + 1)²·(Σₙ‖gₙ‖² + t))``,

where ``t`` is the smallest normal double: it covers products that underflow,
each of which loses at most ``u·t``.  The bound is used only while that
scale stays below ``2¹⁰⁰⁰``, so no step of the sweep or the bound overflows
and every fresh gain is finite.  It is not used while a stored gain is NaN:
the admission loop admits any newcomer that meets a NaN.  Nothing about it
is configurable.  The per-candidate reference in ``tests/oracles.py`` never
prunes and stays the oracle the store is tested against.

Stage 3 is a screen that runs under the same conditions (a full store, a
certified batch, no NaN stored gain).  It takes the stage-2 survivors' sums
from a BLAS product ``masks.T @ augmented`` and sweeps their gains ``s``
with :func:`candidate_gain_sweep`.  Both paths sum the same masked terms:
the einsum adds them in sequence, BLAS in an order of its own.  A mask
entry is 0 or 1, so every product is exact.  For a conventional
(non-Strassen) gemm, with or without FMA, each entry obeys
``|fl(Σ) − Σ| ≤ γ_n·Σ|terms|`` in any order of evaluation (Higham, §3.1
and §3.5); OpenBLAS's kernels are conventional, which this assumes.  That
is the summation bound the derivation of ``M`` applies to every sum, and
that derivation counts the roundings of each term, not their order.  So
``M`` bounds the distance of either path's swept gain from the gain in
exact arithmetic, and the two lie within ``2M`` of each other.  With
``E = 3M`` the interval ``[s − E, s + E]`` contains the gain the einsum
path computes; the third ``M`` covers the rounding of ``s ± E``, at most
``u·(|s| + E)``.  As ``|s| ≤ 3·Σₙ|ℓₙ| + λ·(n + 1)·Σₙ‖gₙ‖² + M`` and
``γ_K ≥ 13·u``, that rounding is below ``M/50``.

Let ``R_j`` count the candidates whose lower end is above candidate ``j``'s
upper end.  Each of them has a larger exact gain than ``j``, so the
admission loop, which pairs newcomers in descending gain order with stored
gains in ascending order, reaches ``j`` no earlier than at place ``R_j``
and pairs it with a stored gain no smaller than ``r_{R_j}``, the stored
gain at that place.  ``j`` is dropped when ``R_j`` is at least the
replacement budget (the loop ends first) or when ``s_j + E ≤ r_{R_j}``
(the loop stops at or before ``j``).  Dropping a candidate the loop does
not admit leaves every admission unchanged: the candidates before it keep
their places, and whichever takes its place has no larger gain, so the
loop stops where it stopped.  The survivors go through the einsum, the
sweep and the admission loop unchanged; no BLAS value is ever stored.

The product runs in blocks of at most ``2¹⁸`` multiply-adds
(:data:`_SCREEN_BLOCK`), the largest gemm OpenBLAS keeps on the calling
thread whatever its thread count: its limit is
``65536 · GEMM_MULTITHREAD_THRESHOLD`` (default 4).  In one piece, the
125 × 500 × 52 product of ``dmt/hyperplane`` took 5.2 ms of CPU time on
2 BLAS threads against 0.23 ms on one; in blocks it takes 0.23 ms on
either.  The screen runs only when the einsum it may skip holds at least
one block of work, which the einsum sums in about 140 µs, while the
screen's fixed cost is 75–90 µs.  Without that threshold, on
``dmt/agrawal`` (100k rows), whose einsums hold at most 90,200
multiply-adds, 3,401 screens took 257–298 ms to save 74–94 ms of einsum
(two runs).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.core.gains import approximate_candidate_loss, split_gain
from repro.persistence.registry import register
from repro.telemetry import (
    DMT_CANDIDATES,
    DMT_CANDIDATES_ADMITTED_TOTAL,
    DMT_CANDIDATES_EVICTED_TOTAL,
    DMT_CANDIDATES_SUMMED_TOTAL,
    TELEMETRY,
)

_UNIT_ROUNDOFF = np.finfo(float).eps / 2
_SMALLEST_NORMAL = float(np.finfo(float).tiny)
#: Largest batch scale for which the admission bound's margin is certified.
_MAX_BOUND_SCALE = 2.0**1000
#: Multiply-adds per block of the stage-3 product, and the least einsum work
#: the screen runs for (both measured; see the module docstring).
_SCREEN_BLOCK = 2**18
#: Approximated left and right child losses (7) of a set of candidates, as
#: one sweep of them returns them (:func:`candidate_child_losses`).
ChildLosses = tuple[np.ndarray, np.ndarray]


@register
@dataclass
class CandidateStatistics:
    """Accumulated left-partition statistics of one split candidate.

    Used as the materialised per-candidate view of the structure-of-arrays
    store, as the scalar reference implementation of the gain sweep, and as
    the payload format of legacy serialized models.
    """

    feature: int
    threshold: float
    loss: float = 0.0
    gradient: np.ndarray = field(default_factory=lambda: np.zeros(0))
    count: float = 0.0

    @property
    def key(self) -> tuple[int, float]:
        return (self.feature, self.threshold)

    def add(self, loss: float, gradient: np.ndarray, count: float) -> None:
        """Accumulate the statistics of a new batch."""
        self.loss += float(loss)
        if self.gradient.size == 0:
            self.gradient = np.asarray(gradient, dtype=float).copy()
        else:
            self.gradient = self.gradient + gradient
        self.count += float(count)

    def gain(
        self,
        node_loss: float,
        node_gradient: np.ndarray,
        node_count: float,
        learning_rate: float,
        reference_loss: float | None = None,
    ) -> float:
        """Loss-based gain of this candidate.

        Parameters
        ----------
        node_loss, node_gradient, node_count:
            Accumulated statistics of the node owning this candidate.  The
            right-child statistics are derived as node minus left.
        learning_rate:
            SGD step size used in the candidate-loss approximation.
        reference_loss:
            The loss the candidate competes against.  For a leaf node this is
            the node's own loss (equation (3)); for an inner node it is the
            summed loss of the subtree's leaves (equation (4)).  Defaults to
            ``node_loss``.
        """
        if reference_loss is None:
            reference_loss = node_loss
        left_loss, right_loss = self.child_losses(
            node_loss, node_gradient, node_count, learning_rate
        )
        return split_gain(reference_loss, left_loss, right_loss)

    def child_losses(
        self,
        node_loss: float,
        node_gradient: np.ndarray,
        node_count: float,
        learning_rate: float,
    ) -> tuple[float, float]:
        """Approximated losses (7) of the left and the right child."""
        left_loss = approximate_candidate_loss(
            self.loss, self.gradient, self.count, learning_rate
        )
        right_gradient = (
            node_gradient - self.gradient
            if self.gradient.size
            else node_gradient
        )
        right_loss = approximate_candidate_loss(
            node_loss - self.loss,
            right_gradient,
            node_count - self.count,
            learning_rate,
        )
        return left_loss, right_loss


def augment_batch(
    per_sample_loss: np.ndarray, per_sample_gradient: np.ndarray
) -> np.ndarray:
    """Gradient matrix with the per-sample loss as an extra last column.

    The candidate store accumulates losses and gradients through one einsum
    contraction of this matrix, the same sequential summation as the
    reference's axis-0 sum of its masked rows -- a separate 1-D
    ``loss[mask].sum()`` would sum the compressed subset pairwise and drift
    from the contraction in the last ulp.  The column layout (loss last)
    is a contract between this function, :meth:`CandidateManager.update_stored`
    and :meth:`DMTNode.update_statistics`.
    """
    return np.concatenate(
        [per_sample_gradient, per_sample_loss[:, None]], axis=1
    )


def candidate_child_losses(
    losses: np.ndarray,
    gradients: np.ndarray,
    counts: np.ndarray,
    node_loss: float,
    node_gradient: np.ndarray,
    node_count: float,
    learning_rate: float,
    assume_counts_positive: bool = False,
) -> ChildLosses:
    """Approximated left and right child losses (7) of all candidates at once.

    Bit-identical to :meth:`CandidateStatistics.child_losses` per candidate:
    the squared gradient norms use the same einsum accumulation order as the
    scalar reference, everything else is elementwise.
    ``assume_counts_positive`` skips the empty-subset guard on the left
    child; the candidate store guarantees it (candidates are only admitted
    with observations and counts never decrease).
    """
    if len(losses) == 0:
        return np.zeros(0), np.zeros(0)
    left_norms = np.einsum("kp,kp->k", gradients, gradients)
    right_gradients = node_gradient - gradients
    right_norms = np.einsum("kp,kp->k", right_gradients, right_gradients)

    if assume_counts_positive or (counts > 0).all():
        # Common case (every stored/fresh candidate has observations):
        # skip the empty-subset guards, saving several temporaries per sweep.
        left_losses = np.maximum(
            losses - (learning_rate / counts) * left_norms, 0.0
        )
    else:
        positive = counts > 0
        safe_counts = np.where(positive, counts, 1.0)
        left_losses = np.where(
            positive,
            np.maximum(losses - (learning_rate / safe_counts) * left_norms, 0.0),
            losses,
        )
    right_counts = node_count - counts
    right_subset_losses = node_loss - losses
    right_positive = right_counts > 0
    if right_positive.all():
        right_losses = np.maximum(
            right_subset_losses - (learning_rate / right_counts) * right_norms,
            0.0,
        )
    else:
        safe_right = np.where(right_positive, right_counts, 1.0)
        right_losses = np.where(
            right_positive,
            np.maximum(
                right_subset_losses - (learning_rate / safe_right) * right_norms,
                0.0,
            ),
            right_subset_losses,
        )
    return left_losses, right_losses


def candidate_gain_sweep(
    losses: np.ndarray,
    gradients: np.ndarray,
    counts: np.ndarray,
    node_loss: float,
    node_gradient: np.ndarray,
    node_count: float,
    learning_rate: float,
    reference_loss: float | None = None,
    assume_counts_positive: bool = False,
) -> np.ndarray:
    """Gains of all candidates in one sweep -- equations (3), (4) and (7).

    ``(reference_loss − left) − right`` over :func:`candidate_child_losses`,
    bit-identical to calling :meth:`CandidateStatistics.gain` per candidate.
    """
    if reference_loss is None:
        reference_loss = node_loss
    left_losses, right_losses = candidate_child_losses(
        losses, gradients, counts, node_loss, node_gradient, node_count,
        learning_rate, assume_counts_positive,
    )
    return reference_loss - left_losses - right_losses


class _AdmissionBound:
    """Upper bounds on the batch gains of a batch's fresh candidates.

    The three stages of the admission bound derived in the module
    docstring: ``batch_bound`` holds for every fresh candidate of the batch,
    :meth:`candidate_bounds` for each informative one, and :meth:`screen`
    ranks candidates against each other.  ``certified`` is false when the
    batch is too large in scale, or not finite, for the rounding margin to
    hold; then no stage may be used.
    """

    def __init__(
        self,
        per_sample_loss: np.ndarray,
        per_sample_gradient: np.ndarray,
        batch_loss: float,
        batch_gradient: np.ndarray,
        learning_rate: float,
    ) -> None:
        n_rows, width = per_sample_gradient.shape
        energy = float(
            np.einsum("np,np->n", per_sample_gradient, per_sample_gradient).sum()
        )
        scale = float(np.abs(per_sample_loss).sum()) + (
            (1.0 + learning_rate) * (n_rows + 1.0) ** 2
        ) * (energy + _SMALLEST_NORMAL)
        terms = 2 * n_rows + width + 8
        gamma = terms * _UNIT_ROUNDOFF / (1.0 - terms * _UNIT_ROUNDOFF)
        self.certified = scale < _MAX_BOUND_SCALE
        self._margin = 16.0 * gamma * scale
        self._gradient = per_sample_gradient
        self._batch_loss = batch_loss
        self._batch_gradient = batch_gradient
        self._learning_rate = learning_rate
        self.batch_bound = min(batch_loss, learning_rate * energy) + self._margin

    def candidate_bounds(
        self, masks: np.ndarray, counts: np.ndarray
    ) -> np.ndarray:
        """Bound per candidate from its float left mask (column of ``masks``)."""
        n_rows = len(self._gradient)
        deviations = self._gradient - self._batch_gradient / n_rows
        spread = np.einsum("np,np->n", deviations, deviations)
        left = spread @ masks
        right = spread.sum() - left
        cross = np.minimum(left / (n_rows - counts), right / counts)
        mean_term = (
            np.einsum("p,p->", self._batch_gradient, self._batch_gradient)
            / n_rows
        )
        spread_bound = self._learning_rate * (mean_term + n_rows * cross)
        return np.minimum(self._batch_loss, spread_bound) + self._margin

    def gain_intervals(
        self, masks: np.ndarray, counts: np.ndarray, augmented: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """``(s − E, s + E)`` per candidate, ``s`` swept from BLAS sums.

        Each interval contains the gain the exact path computes from the
        einsum sums of the same float left mask (column of ``masks``).
        """
        step = max(_SCREEN_BLOCK // augmented.size, 1)
        sums = np.concatenate([
            masks[:, start : start + step].T @ augmented
            for start in range(0, masks.shape[1], step)
        ])
        gains = candidate_gain_sweep(
            sums[:, -1], sums[:, :-1], counts, self._batch_loss,
            self._batch_gradient, float(len(augmented)), self._learning_rate,
            assume_counts_positive=True,
        )
        return gains - 3.0 * self._margin, gains + 3.0 * self._margin

    def screen(
        self,
        masks: np.ndarray,
        counts: np.ndarray,
        augmented: np.ndarray,
        rivals: np.ndarray,
    ) -> np.ndarray:
        """Whether the admission loop might admit each candidate (stage 3).

        ``rivals`` are the stored gains the loop pairs newcomers with,
        weakest first, one per replacement slot.
        """
        lower, upper = self.gain_intervals(masks, counts, augmented)
        # Candidates certain to come before each one in the admission loop.
        ahead = len(lower) - np.searchsorted(np.sort(lower), upper, side="right")
        rival = rivals[np.minimum(ahead, len(rivals) - 1)]
        return (ahead < len(rivals)) & ~(upper <= rival)


@register
class CandidateManager:
    """Bounded store of split-candidate statistics for one DMT node.

    Parameters
    ----------
    n_features:
        Number of input features ``m``.
    max_candidates:
        Maximum number of candidate statistics kept in memory.  The paper
        recommends ``3 · m``.
    replacement_rate:
        Fraction of the stored candidates that may be replaced by newly
        observed candidates at each time step (the paper recommends 0.5).
    max_values_per_feature:
        Cap on the number of distinct thresholds proposed per feature from a
        single batch.  If a batch contains more unique values, evenly spaced
        quantiles are used instead; this mirrors how practical incremental
        trees bound the candidate space for continuous features.

    One sweep per batch.  The stored candidates' child losses (7) are swept
    once per batch (:meth:`child_losses`), after :meth:`update_stored` has
    accumulated it.  The caller hands that sweep to :meth:`consider_new`,
    whose admission loop reads gain (3) from it, and then to
    :meth:`best_index` for the node's split check, which applies the node's
    own reference: its loss for gain (3), its subtree's leaf loss for gain
    (4).  Only a batch that admits or evicts a candidate changes the store,
    and :meth:`consider_new` says so, so the caller sweeps it again then.
    No sweep is kept on the store.
    """

    #: Pure caches skipped by the persistence encoder and rebuilt by
    #: :meth:`_init_transient` (which also migrates legacy payloads that
    #: stored a dict of :class:`CandidateStatistics`).
    _repro_transient = ("_key_index",)

    def __init__(
        self,
        n_features: int,
        max_candidates: int | None = None,
        replacement_rate: float = 0.5,
        max_values_per_feature: int = 10,
    ) -> None:
        if n_features < 1:
            raise ValueError(f"n_features must be >= 1, got {n_features}.")
        if not 0.0 <= replacement_rate <= 1.0:
            raise ValueError(
                f"replacement_rate must be in [0, 1], got {replacement_rate!r}."
            )
        if max_values_per_feature < 1:
            raise ValueError(
                "max_values_per_feature must be >= 1, "
                f"got {max_values_per_feature!r}."
            )
        self.n_features = int(n_features)
        self.max_candidates = (
            3 * self.n_features if max_candidates is None else int(max_candidates)
        )
        if self.max_candidates < 1:
            raise ValueError(
                f"max_candidates must be >= 1, got {self.max_candidates!r}."
            )
        self.replacement_rate = float(replacement_rate)
        self.max_values_per_feature = int(max_values_per_feature)
        self._features = np.zeros(0, dtype=np.intp)
        self._thresholds = np.zeros(0, dtype=float)
        self._losses = np.zeros(0, dtype=float)
        self._counts = np.zeros(0, dtype=float)
        self._gradients = np.zeros((0, 0), dtype=float)
        self._init_transient()

    # -------------------------------------------------------------- decoding
    def _init_transient(self) -> None:
        """Rebuild the key index; migrate legacy dict-of-dataclass payloads."""
        legacy = self.__dict__.pop("_candidates", None)
        if legacy is not None:
            stats = list(legacy.values())
            width = max((stat.gradient.size for stat in stats), default=0)
            self._features = np.array(
                [stat.feature for stat in stats], dtype=np.intp
            )
            self._thresholds = np.array(
                [stat.threshold for stat in stats], dtype=float
            )
            self._losses = np.array([stat.loss for stat in stats], dtype=float)
            self._counts = np.array([stat.count for stat in stats], dtype=float)
            gradients = np.zeros((len(stats), width))
            for row, stat in enumerate(stats):
                if stat.gradient.size:
                    gradients[row] = stat.gradient
            self._gradients = gradients
        self._rebuild_key_index()

    def _rebuild_key_index(self) -> None:
        """Re-establish the keys-mirror-arrays invariant after any mutation."""
        self._key_index = {
            (int(feature), float(threshold)): index
            for index, (feature, threshold) in enumerate(
                zip(self._features, self._thresholds)
            )
        }

    # ------------------------------------------------------------ accessors
    def __len__(self) -> int:
        return len(self._features)

    def __contains__(self, key: tuple[int, float]) -> bool:
        return (int(key[0]), float(key[1])) in self._key_index

    @property
    def candidates(self) -> list[CandidateStatistics]:
        return [self.candidate(index) for index in range(len(self))]

    def get(self, key: tuple[int, float]) -> CandidateStatistics | None:
        index = self._key_index.get((int(key[0]), float(key[1])))
        return None if index is None else self.candidate(index)

    def clear(self) -> None:
        width = self._gradients.shape[1]
        self._features = np.zeros(0, dtype=np.intp)
        self._thresholds = np.zeros(0, dtype=float)
        self._losses = np.zeros(0, dtype=float)
        self._counts = np.zeros(0, dtype=float)
        self._gradients = np.zeros((0, width), dtype=float)
        self._rebuild_key_index()

    def candidate(self, index: int) -> CandidateStatistics:
        """Per-candidate dataclass view of one row of the store (a copy)."""
        return CandidateStatistics(
            feature=int(self._features[index]),
            threshold=float(self._thresholds[index]),
            loss=float(self._losses[index]),
            gradient=self._gradients[index].copy(),
            count=float(self._counts[index]),
        )

    def _ensure_width(self, width: int) -> None:
        if self._gradients.shape[1] == width:
            return
        if len(self._features):
            raise ValueError(
                f"Gradient width changed from {self._gradients.shape[1]} to "
                f"{width} while candidates are stored."
            )
        self._gradients = np.zeros((0, width), dtype=float)

    # -------------------------------------------------------------- updates
    def propose_thresholds(self, X: np.ndarray) -> dict[int, np.ndarray]:
        """Candidate thresholds per feature observed in the current batch.

        All features go through one sort and one quantile interpolation
        (:meth:`_propose_concat`), bit-identical to per-feature
        ``np.unique``/``np.quantile`` calls.
        """
        X = np.asarray(X, dtype=float)
        features, thresholds = self._propose_concat(X)
        boundaries = np.searchsorted(features, np.arange(self.n_features + 1))
        return {
            feature: thresholds[boundaries[feature] : boundaries[feature + 1]]
            for feature in range(self.n_features)
        }

    def _propose_concat(self, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """All proposed ``(feature, threshold)`` pairs of a batch at once.

        Returns ``(features, thresholds)`` in proposal order (feature
        ascending, thresholds ascending within a feature).  Bit-identical to
        the per-feature ``np.unique``/``np.quantile`` reference: one shared
        column sort replaces the per-feature sorts, consecutive-duplicate
        masks replace ``np.unique``, and numpy's ``linear`` quantile method
        (virtual index ``q * (n - 1)``, two-sided lerp switching to
        ``b - diff * (1 - gamma)`` at ``gamma >= 0.5``) is replicated as one
        batched interpolation over every capped feature.
        """
        n_rows, n_features = X.shape
        sorted_columns = np.sort(X, axis=0)
        keep = np.empty((n_rows, n_features), dtype=bool)
        keep[:1] = True
        np.not_equal(sorted_columns[1:], sorted_columns[:-1], out=keep[1:])
        counts = keep.sum(axis=0)
        # Per-feature unique values, concatenated feature-contiguously.
        flat = sorted_columns.T[keep.T]
        offsets = np.concatenate(([0], np.cumsum(counts)))
        capped = np.flatnonzero(counts > self.max_values_per_feature)
        if not len(capped):
            features = np.repeat(
                np.arange(n_features, dtype=np.intp), counts
            )
            return features, flat
        quantiles = np.linspace(0.0, 1.0, self.max_values_per_feature + 2)[1:-1]
        virtual = quantiles[None, :] * (counts[capped, None] - 1)
        previous = np.floor(virtual)
        gamma = virtual - previous
        base = offsets[capped][:, None]
        low = flat[base + previous.astype(np.intp)]
        high = flat[base + np.ceil(virtual).astype(np.intp)]
        diff = high - low
        interpolated = low + diff * gamma
        upper = gamma >= 0.5
        interpolated[upper] = high[upper] - diff[upper] * (1.0 - gamma[upper])
        keep_quantiles = np.empty_like(interpolated, dtype=bool)
        keep_quantiles[:, :1] = True
        np.not_equal(
            interpolated[:, 1:], interpolated[:, :-1], out=keep_quantiles[:, 1:]
        )
        pieces: list[np.ndarray] = []
        final_counts = np.empty(n_features, dtype=np.intp)
        capped_row = {int(feature): row for row, feature in enumerate(capped)}
        for feature in range(n_features):
            row = capped_row.get(feature)
            if row is None:
                values = flat[offsets[feature] : offsets[feature + 1]]
            else:
                values = interpolated[row][keep_quantiles[row]]
            pieces.append(values)
            final_counts[feature] = len(values)
        features = np.repeat(np.arange(n_features, dtype=np.intp), final_counts)
        return features, np.concatenate(pieces)

    def update_stored(
        self,
        X: np.ndarray,
        per_sample_loss: np.ndarray,
        per_sample_gradient: np.ndarray,
        augmented: np.ndarray | None = None,
    ) -> None:
        """Accumulate the current batch into every stored candidate.

        ``augmented`` optionally supplies a precomputed
        :func:`augment_batch` matrix so one batch can feed both this method
        and :meth:`consider_new` with a single construction.
        """
        if not len(self._features):
            return
        X = np.asarray(X, dtype=float)
        per_sample_loss = np.asarray(per_sample_loss, dtype=float)
        per_sample_gradient = np.asarray(per_sample_gradient, dtype=float)
        self._ensure_width(per_sample_gradient.shape[1])
        if augmented is None:
            augmented = augment_batch(per_sample_loss, per_sample_gradient)
        masks = X[:, self._features] <= self._thresholds
        sums = np.einsum("nk,np->kp", masks.astype(float), augmented)
        self._gradients += sums[:, :-1]
        self._losses += sums[:, -1]
        self._counts += masks.sum(axis=0)

    def consider_new(
        self,
        X: np.ndarray,
        per_sample_loss: np.ndarray,
        per_sample_gradient: np.ndarray,
        node_loss: float,
        node_gradient: np.ndarray,
        node_count: float,
        learning_rate: float,
        augmented: np.ndarray | None = None,
        batch_loss: float | None = None,
        batch_gradient: np.ndarray | None = None,
        child_losses: ChildLosses | None = None,
    ) -> bool:
        """Propose new candidates from the current batch and admit the best.

        New candidates are scored on the current batch only (their statistics
        start from this batch, as described in Section V-D).  They fill free
        slots first; once the store is full, a newcomer only evicts the
        weakest stored candidate when its batch gain exceeds the gain (3)
        that candidate has accumulated so far, bounded by the replacement
        budget.

        ``batch_loss`` and ``batch_gradient`` are the batch's summed loss and
        gradient, and ``child_losses`` the store's sweep after
        :meth:`update_stored` (:meth:`child_losses`); each is computed here
        when not given.  Returns whether the store changed, which makes that
        sweep stale.
        """
        X = np.asarray(X, dtype=float)
        per_sample_loss = np.asarray(per_sample_loss, dtype=float)
        per_sample_gradient = np.asarray(per_sample_gradient, dtype=float)
        self._ensure_width(per_sample_gradient.shape[1])
        if augmented is None:
            augmented = augment_batch(per_sample_loss, per_sample_gradient)
        if batch_loss is None:
            batch_loss = float(per_sample_loss.sum())
        if batch_gradient is None:
            batch_gradient = per_sample_gradient.sum(axis=0)
        batch_count = float(len(per_sample_loss))
        budget = int(np.floor(self.replacement_rate * self.max_candidates))

        if child_losses is None:
            child_losses = self.child_losses(
                node_loss, node_gradient, node_count, learning_rate
            )
        left_losses, right_losses = child_losses
        stored_gains = node_loss - left_losses - right_losses
        stored_order = np.argsort(stored_gains, kind="stable")
        admission = rivals = None
        if len(self._features) >= self.max_candidates:
            # Full store: skip what provably cannot be admitted (the
            # admission bound of the module docstring).
            if budget == 0:
                return False
            if not np.isnan(stored_gains).any():
                admission = _AdmissionBound(
                    per_sample_loss, per_sample_gradient, batch_loss,
                    batch_gradient, learning_rate,
                )
                # The stored gains the admission loop pairs newcomers with.
                rivals = stored_gains[stored_order[:budget]]
                if not admission.certified:
                    admission = None
                elif admission.batch_bound <= rivals[0]:
                    return False

        fresh = self._propose_fresh(X, augmented, admission, rivals)
        if fresh is None:
            return False
        fresh_features, fresh_thresholds, fresh_losses, fresh_gradients, fresh_counts = fresh
        if TELEMETRY.enabled:
            TELEMETRY.counter(DMT_CANDIDATES_SUMMED_TOTAL).inc(len(fresh_features))

        fresh_gains = candidate_gain_sweep(
            fresh_losses,
            fresh_gradients,
            fresh_counts,
            node_loss=batch_loss,
            node_gradient=batch_gradient,
            node_count=batch_count,
            learning_rate=learning_rate,
            assume_counts_positive=True,
        )

        # Stable descending order == the stable Python sort it replaces:
        # ties keep proposal order (feature, then threshold ascending).
        order = np.argsort(-fresh_gains, kind="stable")
        free_slots = max(self.max_candidates - len(self._features), 0)
        admitted = list(order[:free_slots])
        remaining = order[free_slots:]

        evicted: list[int] = []
        if len(remaining) and budget > 0 and len(self._features):
            for newcomer, weakest in zip(remaining, stored_order):
                if len(evicted) >= budget:
                    break
                if fresh_gains[newcomer] <= stored_gains[weakest]:
                    # Stored gains ascend while newcomer gains descend
                    # from here on, so no later pair can qualify either.
                    break
                evicted.append(int(weakest))
                admitted.append(newcomer)

        if evicted:
            keep = np.ones(len(self._features), dtype=bool)
            keep[evicted] = False
            self._features = self._features[keep]
            self._thresholds = self._thresholds[keep]
            self._losses = self._losses[keep]
            self._counts = self._counts[keep]
            self._gradients = self._gradients[keep]
        if admitted:
            self._features = np.concatenate(
                [self._features, fresh_features[admitted]]
            )
            self._thresholds = np.concatenate(
                [self._thresholds, fresh_thresholds[admitted]]
            )
            self._losses = np.concatenate([self._losses, fresh_losses[admitted]])
            self._counts = np.concatenate([self._counts, fresh_counts[admitted]])
            self._gradients = np.concatenate(
                [self._gradients, fresh_gradients[admitted]], axis=0
            )
        if evicted or admitted:
            self._rebuild_key_index()
            if TELEMETRY.enabled:
                TELEMETRY.emit(
                    DMT_CANDIDATES,
                    n_admitted=len(admitted),
                    n_evicted=len(evicted),
                    n_stored=len(self._features),
                )
                TELEMETRY.counter(DMT_CANDIDATES_ADMITTED_TOTAL).inc(len(admitted))
                if evicted:
                    TELEMETRY.counter(DMT_CANDIDATES_EVICTED_TOTAL).inc(len(evicted))
        return bool(evicted or admitted)

    def _propose_fresh(
        self,
        X: np.ndarray,
        augmented: np.ndarray,
        admission: _AdmissionBound | None = None,
        rivals: np.ndarray | None = None,
    ):
        """Statistics of the batch's informative, not-yet-stored candidates.

        Returns ``None`` when the batch proposes nothing new, otherwise the
        tuple ``(features, thresholds, losses, gradients, counts)`` in
        proposal order (feature ascending, threshold ascending).  With an
        ``admission`` bound, candidates that stages 2 and 3 rule out against
        ``rivals`` (the stored gains the admission loop pairs newcomers
        with, weakest first) are dropped before their statistics are summed.
        """
        fresh_features, fresh_thresholds = self._propose_concat(X)
        if len(self._features):
            # Drop proposals already stored: exact (feature, threshold)
            # matches, the same comparison the key-dict lookup performs.
            duplicate = (
                (fresh_features[:, None] == self._features)
                & (fresh_thresholds[:, None] == self._thresholds)
            ).any(axis=1)
            if duplicate.any():
                fresh_features = fresh_features[~duplicate]
                fresh_thresholds = fresh_thresholds[~duplicate]
        if not len(fresh_features):
            return None
        masks = X[:, fresh_features] <= fresh_thresholds
        counts = masks.sum(axis=0)
        # A candidate that does not separate the batch carries no
        # information yet.
        informative = (counts > 0) & (counts < len(X))
        if not np.any(informative):
            return None
        fresh_features = fresh_features[informative]
        fresh_thresholds = fresh_thresholds[informative]
        masks = masks[:, informative]
        counts = counts[informative]
        weights = masks.astype(float)
        if admission is not None:
            keep = ~(admission.candidate_bounds(weights, counts) <= rivals[0])
            if np.count_nonzero(keep) * augmented.size >= _SCREEN_BLOCK:
                survivors = weights if keep.all() else weights[:, keep]
                keep[keep] = admission.screen(
                    survivors, counts[keep], augmented, rivals
                )
            if not keep.any():
                return None
            if not keep.all():
                fresh_features = fresh_features[keep]
                fresh_thresholds = fresh_thresholds[keep]
                weights = weights[:, keep]
                counts = counts[keep]
        sums = np.einsum("nk,np->kp", weights, augmented)
        return (
            fresh_features,
            fresh_thresholds,
            sums[:, -1],
            sums[:, :-1],
            counts.astype(float),
        )

    def child_losses(
        self,
        node_loss: float,
        node_gradient: np.ndarray,
        node_count: float,
        learning_rate: float,
    ) -> ChildLosses:
        """Left and right child losses (7) of every stored candidate: the sweep."""
        return candidate_child_losses(
            self._losses,
            self._gradients,
            self._counts,
            node_loss=node_loss,
            node_gradient=node_gradient,
            node_count=node_count,
            learning_rate=learning_rate,
            assume_counts_positive=True,
        )

    # ---------------------------------------------------------------- query
    def best_index(
        self,
        reference_loss: float,
        child_losses: ChildLosses,
        exclude: tuple[int, float] | None = None,
    ) -> tuple[int | None, float]:
        """Index of the stored candidate with the highest gain, and the gain.

        ``child_losses`` is the store's current sweep (:meth:`child_losses`).
        Each gain is ``(reference_loss − left) − right``, the operation order
        of :func:`candidate_gain_sweep`.  Ties keep the first-inserted
        candidate, matching the strict ``>`` comparison of the per-candidate
        reference loop.
        """
        if not len(self._features):
            return None, -np.inf
        left_losses, right_losses = child_losses
        gains = reference_loss - left_losses - right_losses
        if exclude is not None:
            index = self._key_index.get((int(exclude[0]), float(exclude[1])))
            if index is not None:
                if len(self._features) == 1:
                    return None, -np.inf
                gains[index] = -np.inf
        best = int(np.argmax(gains))
        if np.isnan(gains[best]):
            # argmax lands on a NaN whenever one exists; NaN never beats a
            # finite gain in the scalar reference, so retry with NaNs masked.
            gains = np.where(np.isnan(gains), -np.inf, gains)
            best = int(np.argmax(gains))
        if gains[best] == -np.inf:
            return None, -np.inf
        return best, float(gains[best])

    def best_candidate(
        self,
        node_loss: float,
        node_gradient: np.ndarray,
        node_count: float,
        learning_rate: float,
        reference_loss: float | None = None,
        exclude: tuple[int, float] | None = None,
    ) -> tuple[CandidateStatistics | None, float]:
        """Return the stored candidate with the highest gain and its gain.

        Sweeps the store and asks :meth:`best_index`; ``reference_loss``
        defaults to ``node_loss`` (gain (3)).
        """
        if reference_loss is None:
            reference_loss = node_loss
        best, gain = self.best_index(
            reference_loss,
            self.child_losses(node_loss, node_gradient, node_count, learning_rate),
            exclude,
        )
        return (None if best is None else self.candidate(best)), gain
