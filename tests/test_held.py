import numpy as np
import pytest

from gstdesign.held import COMPRESS_RTOL, HeldFim, compressed_rows


def low_rank_rows(rng, m, n, rank):
    return rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))


@pytest.mark.parametrize("held_as", ["rows", "gram"])
def test_compress_keeps_the_matrix_in_rank_rows(rng, held_as):
    """Compressed rows are right either side of the width: 9 rows of a
    14-wide matrix, held as rows, or 20, so many that it is held as its Gram."""
    rows = low_rank_rows(rng, 9 if held_as == "rows" else 20, 14, 4)
    assert (HeldFim.from_rows(rows).rows is None) == (held_as == "gram")
    (kept,), (rank,) = compressed_rows(rows[None])
    assert kept.shape == (4, 14) and rank == 4
    gram = rows.T @ rows
    top = np.linalg.eigvalsh(gram)[-1]
    assert np.abs(kept.T @ kept - gram).max() <= 1e-12 * top
    # the kept rows are orthogonal, largest first
    inner = kept @ kept.T
    assert np.abs(inner - np.diag(np.diag(inner))).max() <= 1e-12 * top
    assert np.all(np.diff(np.diag(inner)) <= 0)


def test_compress_drops_only_directions_below_the_cutoff(rng):
    q, _ = np.linalg.qr(rng.standard_normal((10, 10)))
    scales = np.array([1.0, 0.5, 1e-6, 1e-8, 1e-9])  # squared: 1, 0.25, 1e-12, 1e-16, 1e-18
    rows = scales[:, None] * q[:5]
    (kept,), _ = compressed_rows(rows[None])
    assert len(kept) == 3 == np.sum(scales**2 > COMPRESS_RTOL)


def test_stacked_compression_is_each_batch_of_one(rng):
    stack = np.stack([low_rank_rows(rng, 6, 11, r) for r in (1, 3, 5)] + [np.zeros((6, 11))])
    kept, ranks = compressed_rows(stack)
    assert ranks.tolist() == [1, 3, 5, 0]
    assert kept.shape == (4, 5, 11)
    for member, rank, rows in zip(stack, ranks, kept):
        alone, (alone_rank,) = compressed_rows(member[None])
        assert alone_rank == rank
        assert np.array_equal(rows[:rank], alone[0][:rank])
        assert not rows[rank:].any()


def test_compress_of_no_rows():
    (kept,), (rank,) = compressed_rows(np.zeros((1, 0, 7)))
    assert kept.shape == (0, 7) and rank == 0


def test_rank_deficient_matrix_reads_alike_from_rows_and_gram(rng):
    """Both rules on a rank-4 matrix held either way: the spectrum is the
    dense one with exact zeros past the rank, and ``v^T M v`` agrees."""
    rows = low_rank_rows(rng, 9, 14, 4)
    dense = np.linalg.eigvalsh(rows.T @ rows)[::-1]
    top = dense[0]
    vecs = rng.standard_normal((14, 6))
    quotients = []
    for fim in (HeldFim(rows=rows), HeldFim(gram=rows.T @ rows)):
        spectrum = fim.eigvalsh()
        assert spectrum.shape == (14,)
        assert np.all(spectrum[:4] > 0.0) and list(spectrum[4:]) == [0.0] * 10
        assert np.max(np.abs(spectrum[:4] - dense[:4])) <= 1e-12 * top
        quotients.append(fim.rayleigh(vecs))
    reference = np.einsum("ik,ij,jk->k", vecs, rows.T @ rows, vecs)
    for got in quotients:
        assert np.max(np.abs(got - reference)) <= 1e-12 * np.max(reference)


@pytest.mark.parametrize("held_as", ["rows", "gram"])
def test_a_sum_with_no_rows_is_the_other_operand(rng, held_as):
    block = HeldFim.from_rows(rng.standard_normal((3 if held_as == "rows" else 9, 7)))
    assert (block.rows is None) == (held_as == "gram")
    empty = HeldFim(rows=np.zeros((0, 7)))
    assert empty + block is block
    assert block + empty is block
