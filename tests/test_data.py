import hashlib

import numpy as np
import pytest

from pada.data import (
    DomainShiftSpec,
    apply_shift,
    gen_domain_shift,
    rotation_matrix,
)
from pada.trainer import LabeledBatch

SMALL = DomainShiftSpec(
    num_classes=3,
    input_dim=8,
    source_unlabeled=100,
    source_labeled=100,
    target_eval=50,
)


def task_digest(task):
    h = hashlib.sha256()
    for batch in (task.source_unlabeled, task.source_labeled, task.target_labeled, task.target_eval):
        h.update(batch.x.tobytes())
        if isinstance(batch, LabeledBatch):
            h.update(batch.y.tobytes())
    return h.hexdigest()


def test_identity_shift_is_exact_identity():
    spec = DomainShiftSpec(rotation_deg=0.0, feature_scale=1.0, noise_std=0.0)
    rng = np.random.default_rng(0)
    x = rng.normal(size=(20, spec.input_dim))
    assert np.array_equal(apply_shift(spec, x), x)
    assert np.array_equal(rotation_matrix(spec.input_dim, 0.0), np.eye(spec.input_dim))


def test_rotation_matrix_is_orthogonal():
    for dim, deg in ((8, 35.0), (7, 60.0), (16, 10.0)):
        r = rotation_matrix(dim, deg)
        np.testing.assert_allclose(r @ r.T, np.eye(dim), atol=1e-12)


def test_nonidentity_shift_changes_features():
    spec = DomainShiftSpec(rotation_deg=30.0, feature_scale=1.2, noise_std=0.0)
    rng = np.random.default_rng(1)
    x = rng.normal(size=(10, spec.input_dim))
    assert not np.allclose(apply_shift(spec, x), x)


def test_fixed_seed_reproducible():
    a = gen_domain_shift(123, SMALL)
    b = gen_domain_shift(123, SMALL)
    assert task_digest(a) == task_digest(b)
    assert task_digest(a) != task_digest(gen_domain_shift(124, SMALL))


def test_target_labeled_default_ratio():
    spec = DomainShiftSpec(source_labeled=5000)
    assert spec.target_labeled_size == 100  # 1/50 of the source labeled set
    assert DomainShiftSpec(source_labeled=5000, target_labeled=7).target_labeled_size == 7
    task = gen_domain_shift(0, SMALL)
    assert task.target_labeled.n == SMALL.source_labeled // 50


def test_degenerate_spec_rejected():
    with pytest.raises(ValueError, match="class"):
        DomainShiftSpec(num_classes=0)
    with pytest.raises(ValueError):
        DomainShiftSpec(input_dim=0)
    with pytest.raises(ValueError):
        DomainShiftSpec(source_labeled=0)


def test_split_shapes_and_labels():
    task = gen_domain_shift(5, SMALL)
    assert task.source_unlabeled.x.shape == (100, 8)
    assert task.source_labeled.x.shape == (100, 8)
    assert task.target_eval.x.shape == (50, 8)
    for batch in (task.source_labeled, task.target_labeled, task.target_eval):
        assert batch.y.min() >= 0
        assert batch.y.max() < SMALL.num_classes
