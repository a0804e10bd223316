import numpy as np
import pytest

from gstdesign.held import COMPRESS_RTOL, HeldFim, compressed_rows


def low_rank_rows(rng, m, n, rank):
    return rng.standard_normal((m, rank)) @ rng.standard_normal((rank, n))


@pytest.mark.parametrize("held_as", ["rows", "gram"])
def test_compress_keeps_the_matrix_in_rank_rows(rng, held_as):
    rows = low_rank_rows(rng, 9, 14, 4)
    fim = HeldFim(rows=rows) if held_as == "rows" else HeldFim(gram=rows.T @ rows)
    kept = fim.compress().rows
    assert kept.shape == (4, 14)
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
    kept = HeldFim(rows=rows).compress().rows
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
    kept = HeldFim(rows=np.zeros((0, 7))).compress().rows
    assert kept.shape == (0, 7)

