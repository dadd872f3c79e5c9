import numpy as np
import pytest

from pada.params import ParameterSet, StructureMismatchError, Tensor
from pada.pruning import Mask, MaskEntry, apply_zeroing, prune_count, sparsity
from pada.strategies import cdtaw_mask, initial_model, tag_mask, taw_mask
from pada.trainer import LabeledBatch, ModelArch, TrainConfig, finetune_supervised, init_model

ARCH = ModelArch(input_dim=5, hidden=(8,), num_classes=3)


def vec_set(values):
    return ParameterSet([Tensor("w", np.array(values, dtype=np.float32))])


def toy_labeled(n=40, seed=0):
    rng = np.random.default_rng(seed)
    means = rng.normal(0, 2.0, size=(3, 5))
    y = rng.integers(0, 3, size=n)
    return LabeledBatch(means[y] + rng.normal(0, 0.5, size=(n, 5)), y)


def mask_bits(mask):
    return np.concatenate([e.bits.ravel() for e in mask.entries])


def test_tag_rate_zero_identity():
    pre = init_model(ARCH, 0)
    mask = tag_mask(pre, 0.0)
    assert mask.zero_bits == 0
    ps0, m = initial_model(pre, "TAG", 0.0)
    assert ps0.tensors == pre.tensors
    assert m == mask


def test_tag_fixture():
    pre = vec_set([[3.0, 1.0], [2.0, 4.0]])
    mask = tag_mask(pre, 25.0)
    assert mask.source == "TAG"
    assert mask_bits(mask).tolist() == [True, False, True, True]


def finetuned_on(pre, data_seed, updates, seed):
    cfg = TrainConfig(lr=0.05, batch=8, updates=updates, seed=seed)
    return finetune_supervised(pre, toy_labeled(seed=data_seed), cfg)


def test_taw_zero_updates_equals_tag():
    pre = init_model(ARCH, 1)
    assert taw_mask(pre, finetuned_on(pre, 2, 0, 3), 35.0) == tag_mask(pre, 35.0)


def test_taw_deterministic():
    pre = init_model(ARCH, 4)
    m1 = taw_mask(pre, finetuned_on(pre, 5, 60, 6), 40.0)
    m2 = taw_mask(pre, finetuned_on(pre, 5, 60, 6), 40.0)
    assert m1 == m2
    assert m1.source == "TAW"
    assert m1 != tag_mask(pre, 40.0)


def test_taw_rate_100_all_zero():
    pre = init_model(ARCH, 7)
    mask = taw_mask(pre, finetuned_on(pre, 8, 30, 9), 100.0)
    assert mask.zero_bits == mask.total_bits


def test_taw_requires_nonempty_data():
    # the fine-tune that supplies TAW's model refuses an empty target set
    pre = init_model(ARCH, 13)
    empty = LabeledBatch(np.zeros((0, 5)), np.zeros(0, dtype=np.int64))
    cfg = TrainConfig(lr=0.05, batch=8, updates=5, seed=0)
    with pytest.raises(ValueError, match="empty"):
        finetune_supervised(pre, empty, cfg)


def test_taw_structural_error_names_mismatch():
    pre = init_model(ARCH, 13)
    other = init_model(ModelArch(input_dim=5, hidden=(7,), num_classes=3), 14)
    with pytest.raises(StructureMismatchError, match="fine-tuned model.*shape"):
        taw_mask(pre, other, 40.0)


def test_cdtaw_degenerate_donor_equals_tag():
    pre = init_model(ARCH, 14)
    mask = cdtaw_mask(pre, pre, 40.0)
    assert mask == tag_mask(pre, 40.0)
    assert mask.source == "CD-TAW"


def test_cdtaw_fixture_mask_from_donor_zeroing_on_pretrained():
    donor = vec_set([[9.0, 0.1], [8.0, 7.0]])
    pre = vec_set([[1.0, 2.0], [3.0, 4.0]])
    mask = cdtaw_mask(pre, donor, 25.0)
    assert mask_bits(mask).tolist() == [True, False, True, True]
    ps0 = apply_zeroing(pre, mask)
    assert ps0["w"].data.ravel().tolist() == [1.0, 0.0, 3.0, 4.0]


def test_cdtaw_structural_error_names_mismatch():
    pre = init_model(ARCH, 15)
    donor = init_model(ARCH, 16)
    donor.tensors.append(Tensor("extra", np.ones((2, 2), dtype=np.float32)))
    with pytest.raises(StructureMismatchError, match="count"):
        cdtaw_mask(pre, donor, 40.0)


def test_cdtaw_never_reads_pretrained_values():
    # metamorphic: scaling every pretrained value must not change the mask
    pre = init_model(ARCH, 17)
    donor = init_model(ARCH, 18)
    scaled = pre.copy()
    for t in scaled.tensors:
        t.data = (t.data * 3.7).astype(np.float32)
    assert cdtaw_mask(pre, donor, 40.0) == cdtaw_mask(scaled, donor, 40.0)


@pytest.mark.parametrize("r1", [0.0, 40.0, 100.0])
def test_cdtaw_ranking_the_pretrained_model_is_tag(r1):
    # a donor fine-tuned for 0 updates is the pretrained model itself, so
    # CD-TAW ranks what TAG ranks: the same model and mask, bit for bit
    pre = init_model(ARCH, 30)
    model, mask = initial_model(pre, "CD-TAW", r1, donor=pre)
    tag_model, tag = initial_model(pre, "TAG", r1)
    assert model == tag_model
    assert mask == tag and [e.bits.tobytes() for e in mask.entries] == [
        e.bits.tobytes() for e in tag.entries
    ]


def test_a_cdtaw_run_with_the_pretrained_model_as_donor_is_the_tag_run():
    from pada.schedule import PruneSchedule, run_pada

    pre = init_model(ARCH, 31)
    data = toy_labeled(seed=32)
    cfg = TrainConfig(lr=0.05, batch=8, updates=30, seed=33)
    sched = PruneSchedule("dynamic_iterative", (40.0, 20.0, 10.0), 10)
    cdtaw, cdtaw_log = run_pada(pre, "CD-TAW", sched, data, cfg, donor=pre, eval_data=data)
    tag, tag_log = run_pada(pre, "TAG", sched, data, cfg, eval_data=data)
    assert cdtaw == tag
    assert cdtaw_log.events == tag_log.events


def test_initial_model_sparsity_exact():
    pre = init_model(ARCH, 19)
    d = pre.d_prunable
    for rate in (10.0, 33.3, 40.0, 75.0):
        ps0, _ = initial_model(pre, "TAG", rate)
        assert sparsity(ps0) == prune_count(rate, d) / d


def test_initial_model_cdtaw_differs_from_tag_for_permuted_donor():
    pre = init_model(ARCH, 20)
    donor = pre.copy()
    for t in donor.tensors:
        if t.prunable:
            flat = t.data.ravel()
            t.data = flat[::-1].reshape(t.data.shape).copy()  # permute magnitudes
    _, m_tag = initial_model(pre, "TAG", 40.0)
    _, m_cd = initial_model(pre, "CD-TAW", 40.0, donor=donor)
    assert m_tag != m_cd


def test_strategies_differ_only_in_mask_provenance():
    # same bits => same zeroed model, whatever the source tag says
    pre = init_model(ARCH, 21)
    mask = tag_mask(pre, 40.0)
    relabeled = Mask(
        [MaskEntry(e.name, e.bits.copy()) for e in mask.entries], source="CD-TAW", rate=40.0
    )
    assert apply_zeroing(pre, mask) == apply_zeroing(pre, relabeled)


def test_initial_model_missing_inputs():
    pre = init_model(ARCH, 22)
    with pytest.raises(ValueError, match="target fine-tuned model"):
        initial_model(pre, "TAW", 40.0)
    with pytest.raises(ValueError, match="donor"):
        initial_model(pre, "CD-TAW", 40.0)


def test_initial_model_validation():
    pre = init_model(ARCH, 23)
    with pytest.raises(ValueError, match="kind"):
        initial_model(pre, "MAGIC", 40.0)
    with pytest.raises(ValueError, match=r"\[0, 100\]"):
        initial_model(pre, "TAG", 101.0)


def test_only_the_table_names_the_strategy_kinds():
    # the executor and the CLI ask RANKED_MODEL what a kind ranks, so a new
    # kind is one row of the table; docstrings may still name the kinds
    import ast
    from pathlib import Path

    import pada
    from pada.pruning import RANKED_MODEL, STRATEGY_KINDS

    assert STRATEGY_KINDS == tuple(RANKED_MODEL) == ("TAG", "TAW", "CD-TAW")
    for module in ("schedule.py", "cli.py"):
        tree = ast.parse(Path(pada.__file__).with_name(module).read_text(encoding="utf-8"))
        docstrings = {
            id(node.body[0].value)
            for node in ast.walk(tree)
            if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))
            and ast.get_docstring(node) is not None
        }
        named = [
            (node.lineno, node.value)
            for node in ast.walk(tree)
            if isinstance(node, ast.Constant) and node.value in STRATEGY_KINDS
            and id(node) not in docstrings
        ]
        assert named == [], module
