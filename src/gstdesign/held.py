"""Gram matrices ``F^T F`` held by their smaller side.

A matrix summed from ``m`` stacked rows ``F`` has rank at most ``m``.
While ``m`` is below its width it is kept as ``F`` itself, and from ``m``
rows on as the Gram ``F^T F`` (:class:`HeldFim`).  Fisher matrices
(:mod:`gstdesign.fisher`) and germ-selection Grams (:mod:`gstdesign.germs`)
are both held this way.  Either form is read through its small-side Gram,
``F F^T`` or ``F^T F``, by two rules that do not depend on the form:

* *Noise:* a spectrum is that Gram's eigenvalues, descending, padded
  with exact zeros to the width (:func:`padded_spectrum`), and its
  eigenvalues at or below :data:`COMPRESS_RTOL` of the largest are
  rounding noise and read ``0.0``.
* *Rayleigh quotients:* ``v^T M v`` of a block of directions comes from
  the rows as ``||F v||^2`` or from the Gram (:meth:`HeldFim.rayleigh`).

Rows can also be compressed (:func:`compressed_rows`): with
``F F^T = U Lambda U^T``, the rows ``U_r^T F`` of the ``r`` eigenvalues
above noise keep the matrix's Gram less the dropped eigen-directions.
Those are orthogonal, so the two differ in norm by at most
``COMPRESS_RTOL`` of the top eigenvalue: two decades below germ
selection's rank cutoff :data:`~gstdesign.model.GRAM_RANK_RTOL`, and
about ten times the level at which a dense symmetric eigensolve places
exact zeros.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["HeldFim", "above_noise", "compressed_rows", "padded_spectrum", "COMPRESS_RTOL"]

# Relative cutoff at or below which a small-side Gram's eigenvalues are
# rounding noise, read as 0.0 and dropped by compression.  Exact zeros
# come out of eigh within 1e-15 of the largest eigenvalue (at most 4.7e-16 on
# the XYI germ candidates, 1.0e-15 on XYCPHASE ones) and the smallest kept
# eigenvalues there are above 0.05, so the cutoff sits in that gap.  Fisher
# row Grams are certified with the same cutoff: on XYCPHASE germs Gxi and
# Gcphase Gxi Giy, 4 x 3 fiducials, L <= 4 (404 rows), every row Gram block
# has its noise at most 3.0e-16 and its kept eigenvalues from 2.9e-12 up.
COMPRESS_RTOL = 1e-14


def above_noise(evals: np.ndarray) -> np.ndarray:
    """Mask of a small-side Gram's eigenvalues, ascending along the last
    axis, above :data:`COMPRESS_RTOL` of the largest; the others are
    rounding noise."""
    return evals > COMPRESS_RTOL * evals[..., -1:]


def padded_spectrum(evals: np.ndarray, width: int) -> np.ndarray:
    """A ``width``-wide matrix's descending spectrum from the ascending
    eigenvalues ``evals`` of its small-side Gram: rounding noise (see
    :func:`above_noise`) reads exact ``0.0``, and one ``0.0`` follows per
    missing eigenvalue, so no entry is negative."""
    kept = np.where(above_noise(evals), evals, 0.0)[::-1]
    return np.concatenate([kept, np.zeros(width - len(kept))])


def compressed_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Compress each member of a stack of row matrices ``(N, m, n)``.

    Returns the ``(N, r, n)`` rows ``U^T F`` and the ``(N,)`` ranks:
    member ``k`` keeps its rank-``r_k`` rows, largest eigenvalue first,
    followed by zero rows up to the widest rank ``r`` of the stack.  A
    member's kept rows are those of its batch of one, bit for bit.
    """
    evals, vecs = np.linalg.eigh(rows @ rows.transpose(0, 2, 1))
    ranks = np.sum(above_noise(evals), axis=1)
    width = int(ranks.max(initial=0))
    # every member's product is m rows deep, whatever the stack's width
    rotated = vecs.transpose(0, 2, 1) @ rows
    kept = np.ascontiguousarray(rotated[:, ::-1][:, :width])
    kept[np.arange(width) >= ranks[:, None]] = 0.0
    return kept, ranks


@dataclass(frozen=True, eq=False)
class HeldFim:
    """A matrix ``F^T F`` held by its smaller side: ``rows`` is ``F``
    itself (``m x width``, ``m < width``), or ``gram`` is ``F^T F``.
    Exactly one of the two is set."""

    rows: np.ndarray | None = None
    gram: np.ndarray | None = None

    @staticmethod
    def from_rows(rows: np.ndarray) -> HeldFim:
        """``rows^T rows``, held by its smaller side."""
        return HeldFim(rows=rows) if len(rows) < rows.shape[1] else HeldFim(gram=rows.T @ rows)

    @property
    def width(self) -> int:
        return (self.gram if self.rows is None else self.rows).shape[1]

    def matrix(self) -> np.ndarray:
        """The dense ``width x width`` matrix ``F^T F``."""
        return self.gram if self.rows is None else self.rows.T @ self.rows

    def eigvalsh(self) -> np.ndarray:
        """Descending eigenvalues, ``width`` of them, from the small-side
        Gram by :func:`padded_spectrum`'s rule."""
        small = self.gram if self.rows is None else self.rows @ self.rows.T
        return padded_spectrum(np.linalg.eigvalsh(small), self.width)

    def rayleigh(self, vecs: np.ndarray) -> np.ndarray:
        """``v^T M v`` for each column ``v`` of ``vecs``: ``||F v||^2`` from
        the rows, or the quadratic form of the Gram."""
        if self.rows is None:
            # gram.T is gram, but BLAS rounds the transposed product
            # differently, and certify's Gram-held outputs keep this form's bits
            return np.sum(vecs * (self.gram.T @ vecs), axis=0)
        return np.sum((self.rows @ vecs) ** 2, axis=0)

    def __add__(self, other: HeldFim) -> HeldFim:
        """The sum, held as the stacked rows while they are fewer than the
        width.  A sum with no rows is the other operand itself, not a copy."""
        if self.rows is not None and not len(self.rows):
            return other
        if other.rows is not None and not len(other.rows):
            return self
        if self.rows is not None and other.rows is not None and len(self.rows) + len(other.rows) < self.width:
            return HeldFim(rows=np.concatenate([self.rows, other.rows]))
        return HeldFim(gram=self.matrix() + other.matrix())
