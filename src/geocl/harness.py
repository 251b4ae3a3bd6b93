"""Continual-learning orchestration: task streams, memory buffer, the
per-step training loop (which starts from the previous-step model that the
structure losses compare with), evaluation, and the aggregate metrics."""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, field

import numpy as np

from . import diffgeo
from . import gis as gis_mod
from . import model as mdl
from .autodiff import Tensor
from .errors import ConfigurationError, ContractViolation, NumericalDomainError
from .product import MixedSpace

# Stable per-phase stream ids so every phase draws from its own rng and
# adding draws to one phase cannot shift any other.
_PHASES = {"data": 1, "init": 2, "warmup": 3, "gis": 4, "main": 5,
           "pairs": 6, "buffer": 7}


def phase_rng(seed: int, step: int, phase: str) -> np.random.Generator:
    return np.random.default_rng([seed, step, _PHASES[phase]])


@dataclass(frozen=True)
class StreamTask:
    step: int
    x_train: np.ndarray
    y_train: np.ndarray
    x_test: np.ndarray
    y_test: np.ndarray

    @property
    def labels(self) -> tuple[int, ...]:
        return tuple(sorted(set(int(v) for v in self.y_train)))


def _tree_means(n_leaves: int, dim: int, rng: np.random.Generator,
                scale: float = 4.0, decay: float = 0.55) -> np.ndarray:
    """Class means at the leaves of a random balanced binary tree.

    Each child sits at its parent plus a random direction whose length
    shrinks geometrically with depth, giving nested clusters.
    """
    depth = max(1, int(np.ceil(np.log2(max(n_leaves, 2)))))
    nodes = [np.zeros(dim)]
    for level in range(depth):
        nxt = []
        step = scale * decay ** level
        for parent in nodes:
            for _ in range(2):
                direction = rng.normal(size=dim)
                direction /= np.linalg.norm(direction)
                nxt.append(parent + step * direction)
        nodes = nxt
    return np.stack(nodes[:n_leaves])


def _cycle_means(n_classes: int, dim: int, rng: np.random.Generator,
                 radius: float = 3.0, per_circle: int = 8) -> np.ndarray:
    """Class means evenly spaced on random circles."""
    means = []
    remaining = n_classes
    while remaining > 0:
        k = min(per_circle, remaining)
        center = rng.normal(size=dim) * 2.0
        basis = np.linalg.qr(rng.normal(size=(dim, 2)))[0].T
        for i in range(k):
            angle = 2.0 * np.pi * i / k
            means.append(center + radius * (np.cos(angle) * basis[0] + np.sin(angle) * basis[1]))
        remaining -= k
    return np.stack(means)


def generate_synthetic_stream(classes: int, steps: int, samples_per_class: int,
                              test_per_class: int, ambient_dim: int,
                              tree_fraction: float, noise: float,
                              seed: int) -> list[StreamTask]:
    """Tree- plus cycle-structured Gaussian class clusters, split into
    disjoint label groups per step. Deterministic under the seed."""
    if classes % steps != 0:
        raise ConfigurationError(f"{classes} classes do not divide into {steps} steps")
    rng = np.random.default_rng([seed, 0, _PHASES["data"]])
    n_tree = int(round(tree_fraction * classes))
    parts = []
    if n_tree > 0:
        parts.append(_tree_means(n_tree, ambient_dim, rng))
    if classes - n_tree > 0:
        parts.append(_cycle_means(classes - n_tree, ambient_dim, rng))
    means = np.concatenate(parts)
    # Interleave structure types across steps.
    order = rng.permutation(classes)
    per_step = classes // steps
    tasks = []
    for t in range(steps):
        labels = order[t * per_step:(t + 1) * per_step]
        xs_tr, ys_tr, xs_te, ys_te = [], [], [], []
        for lab in labels:
            total = samples_per_class + test_per_class
            pts = means[lab] + noise * rng.normal(size=(total, ambient_dim))
            xs_tr.append(pts[:samples_per_class])
            ys_tr.append(np.full(samples_per_class, lab))
            xs_te.append(pts[samples_per_class:])
            ys_te.append(np.full(test_per_class, lab))
        tasks.append(StreamTask(
            step=t + 1,
            x_train=np.concatenate(xs_tr), y_train=np.concatenate(ys_tr).astype(int),
            x_test=np.concatenate(xs_te), y_test=np.concatenate(ys_te).astype(int),
        ))
    return tasks


def stream_from_arrays(x: np.ndarray, y: np.ndarray, steps: int, train_ratio: float,
                       seed: int) -> list[StreamTask]:
    """Partition labeled data into a class-incremental stream.

    Classes (sorted) are chunked into equal groups per step; rows are
    assigned to train/test by a content hash, so the split is stable
    under row reordering. Every class needs a train row (evaluation maps
    test labels to classifier rows) and every step a test row.
    """
    labels = np.asarray(sorted(set(int(v) for v in y)))
    if len(labels) % steps != 0:
        raise ConfigurationError(f"{len(labels)} classes do not divide into {steps} steps")
    per_step = len(labels) // steps
    is_train = np.array([_hash_split(row, int(lab), seed, train_ratio)
                         for row, lab in zip(x, y)])
    for lab in labels:
        if not is_train[y == lab].any():
            raise ConfigurationError(f"class {lab} has no train row at train_ratio {train_ratio}")
    tasks = []
    for t in range(steps):
        group = labels[t * per_step:(t + 1) * per_step]
        mask = np.isin(y, group)
        tr = mask & is_train
        te = mask & ~is_train
        if not te.any():
            raise ConfigurationError(f"step {t + 1} (classes {group.tolist()}) has no test row "
                                     f"at train_ratio {train_ratio}")
        tasks.append(StreamTask(step=t + 1, x_train=x[tr], y_train=y[tr].astype(int),
                                x_test=x[te], y_test=y[te].astype(int)))
    return tasks


def _hash_split(row: np.ndarray, label: int, seed: int, train_ratio: float) -> bool:
    # One %-format per row; its "%.9g" is "{:.9g}" of each value.
    payload = f"{seed}:{label}:" + ",".join(["%.9g"] * len(row)) % tuple(row.tolist())
    digest = hashlib.sha256(payload.encode()).digest()
    frac = int.from_bytes(digest[:8], "big") / 2**64
    return frac < train_ratio


# -- memory buffer ------------------------------------------------------

@dataclass
class MemoryBuffer:
    x: np.ndarray | None = None
    y: np.ndarray | None = None

    def __len__(self):
        return 0 if self.y is None else len(self.y)

    def update(self, x_new: np.ndarray, y_new: np.ndarray, policy: str,
               per_class: int, budget: int, rng: np.random.Generator):
        """Append exemplars of the step's classes, then enforce capacity."""
        xs = [] if self.x is None else [self.x]
        ys = [] if self.y is None else [self.y]
        for lab in sorted(set(int(v) for v in y_new)):
            idx = np.nonzero(y_new == lab)[0]
            take = min(per_class if policy == "per_class" else len(idx), len(idx))
            pick = rng.choice(idx, size=take, replace=False)
            xs.append(x_new[pick])
            ys.append(y_new[pick])
        self.x = np.concatenate(xs)
        self.y = np.concatenate(ys).astype(int)
        if policy == "global":
            self._rebalance(budget, rng)

    def _rebalance(self, budget: int, rng: np.random.Generator):
        """Evict uniformly at random from over-represented classes: one row
        at a time from the largest class (the lowest label on a tie), chosen
        among that class's remaining rows in buffer order."""
        labs = sorted(set(self.y.tolist()))
        members = [list(np.flatnonzero(self.y == lab)) for lab in labs]
        counts = np.array([len(m) for m in members])
        keep = np.ones(len(self.y), dtype=bool)
        for _ in range(len(self.y) - budget):
            worst = int(np.argmax(counts))
            counts[worst] -= 1
            keep[members[worst].pop(rng.integers(len(members[worst])))] = False
        self.x = self.x[keep]
        self.y = self.y[keep]


# -- engine state and training loop -------------------------------------

@dataclass
class EngineState:
    params: dict[str, np.ndarray]
    classifier: np.ndarray                  # (n_seen, feature_dim)
    pool: MixedSpace                        # every candidate; each search re-curves it
    selected: frozenset = frozenset()       # union of every step's chosen factors
    space: MixedSpace | None = None
    buffer: MemoryBuffer = field(default_factory=MemoryBuffer)
    label_to_index: dict[int, int] = field(default_factory=dict)
    gis_trace: list[dict] = field(default_factory=list)


def init_state(backbone: mdl.Backbone, pool: MixedSpace, seed: int) -> EngineState:
    params = backbone.init_params(phase_rng(seed, 0, "init"))
    return EngineState(params=params, classifier=np.zeros((0, backbone.feature_dim)), pool=pool)


def run_step(state: EngineState, task: StreamTask, cfg: dict, seed: int) -> EngineState:
    """One full continual-learning step.

    Order: draw main training's batches over the step data plus the buffer,
    and the buffer rows that each batch measures the structure losses on;
    measure the previous-step model (the step-start params and space, which
    the warm-up and the search leave alone) on the pairs those losses read;
    append classifier rows for new classes; warm up the classifier; run the
    search and expand the space; train backbone and classifier on the drawn
    batches; refill the buffer.
    """
    t = task.step
    rng_main = phase_rng(seed, t, "main")
    batches = [batch for _ in range(cfg["epochs_main"])
               for batch in gis_mod.batches(len(task.y_train) + len(state.buffer),
                                            cfg["batch_size"], rng_main)]
    structure = None
    if len(state.buffer) > 1 and (cfg["lambda1"] > 0 or cfg["lambda2"] > 0):
        rows = _pair_rows(task, state.buffer, cfg, seed, len(batches))
        structure = _structure_context(state.params, state.space, state.buffer, rows)

    for lab in task.labels:
        if lab in state.label_to_index:
            raise ConfigurationError(f"label {lab} already seen")
        state.label_to_index[lab] = len(state.label_to_index)
    n_new = len(task.labels)
    init_rng = phase_rng(seed, t, "init")
    new_rows = init_rng.normal(0.0, 0.01, (n_new, state.classifier.shape[1]))
    state.classifier = np.concatenate([state.classifier, new_rows])
    n_classes = state.classifier.shape[0]

    y_train = np.array([state.label_to_index[int(v)] for v in task.y_train])
    feats = mdl.features_np(state.params, task.x_train)

    # Classifier warm-up then curvature/weight search, both with theta frozen.
    state.classifier = gis_mod.classifier_warmup(
        state.pool, feats, y_train, state.classifier,
        lr=cfg["lr_gis"], batch_size=cfg["batch_size"],
        rng=phase_rng(seed, t, "warmup"))
    weights, state.pool = gis_mod.gis_optimize(
        state.pool, feats, y_train, state.classifier, n_classes,
        epochs=cfg["epochs_gis"], lr=cfg["lr_gis"], batch_size=cfg["batch_size"],
        rng=phase_rng(seed, t, "gis"))
    chosen = gis_mod.select(weights, tau1=1.0 / n_classes, step=t)
    state.selected = state.selected | chosen
    state.space = gis_mod.expand(state.selected, state.pool)
    state.gis_trace.append(gis_mod.trace_record(t, state.pool, weights, chosen, state.selected))

    _main_training(state, task, y_train, batches, structure, cfg)

    buf_cfg = cfg["buffer"]
    state.buffer.update(task.x_train, y_train, buf_cfg["policy"],
                        buf_cfg["per_class"], buf_cfg["budget"],
                        phase_rng(seed, t, "buffer"))
    return state


def _pair_rows(task: StreamTask, buffer: MemoryBuffer, cfg: dict, seed: int,
               n_batches: int) -> list:
    """The buffer rows each of main training's ``n_batches`` batches
    measures the structure losses on: one index set per batch, in batch
    order, from the step's "pairs" stream."""
    rng = phase_rng(seed, task.step, "pairs")
    size = min(cfg["pair_batch"], len(buffer))
    return [rng.choice(len(buffer), size=size, replace=False) for _ in range(n_batches)]


def _structure_context(params: dict[str, np.ndarray], space: MixedSpace,
                       buffer: MemoryBuffer, rows: list) -> dict:
    """Previous-step-model quantities for the two structure losses, computed
    once per step from that model's params and space, for main training's
    batches of buffer rows ``rows``: tau2 and the int8 affinity (see
    :func:`_prev_affinity`), and the tangent cosines over the whole buffer
    with their validity mask. The cosines are computed after the distances
    are gone, so the two B x B float matrices are never held together.
    """
    prev_feats = mdl.features_np(params, buffer.x)
    tau2, affinity = _prev_affinity(prev_feats, space, buffer.y, rows)
    prev_cos, prev_valid = mdl.cosine_matrix_np(mdl.tangent_concat_np(prev_feats, space))
    return {"rows": rows, "prev_cos": prev_cos, "prev_valid": prev_valid,
            "affinity": affinity, "tau2": tau2}


def _prev_affinity(prev_feats: np.ndarray, space: MixedSpace, labels: np.ndarray,
                   rows: list) -> tuple[float, np.ndarray]:
    """tau2 and the affinity of the previous-step features ``prev_feats``.

    The squared distances are measured only on the pairs main training
    reads: the same-class pairs, which set tau2, and the pairs within each
    row set, which set the affinity. Every other distance is +inf, which is
    never a neighbor. The distances are mirrored and masked in place.
    """
    read = labels[:, None] == labels[None, :]
    for idx in rows:
        read[np.ix_(idx, idx)] = True
    np.fill_diagonal(read, False)
    # Measured above the diagonal only and mirrored (the rest is zero): the
    # forward-only matrix is symmetric bit for bit, since a tile product and
    # that of its transpose are transposes of each other.
    prev_d2 = diffgeo.sq_dist_matrix(prev_feats, prev_feats, space, pairs=np.triu(read))
    prev_d2 += prev_d2.T  # NumPy reads the overlapping transpose from a copy
    prev_d2[~read] = np.inf
    tau2 = mdl.tau2_same_class_mean(prev_d2, labels)
    return tau2, mdl.affinity_matrix(prev_d2, labels, tau2)


def _main_training(state: EngineState, task: StreamTask, y_train: np.ndarray,
                   batches: list, structure: dict | None, cfg: dict):
    """Train backbone and classifier on ``batches`` (index sets into the step
    data followed by the buffer), each with its row set of ``structure``."""
    t = task.step
    if len(state.buffer):
        x_all = np.concatenate([task.x_train, state.buffer.x])
        y_all = np.concatenate([y_train, state.buffer.y])
    else:
        x_all = task.x_train
        y_all = y_train
    rows = [None] * len(batches) if structure is None else structure["rows"]
    lr = cfg["lr_main"]
    cap = cfg["repulsion_cap"]
    for batch, idx in zip(batches, rows):
        tensors = {k: Tensor(v) for k, v in state.params.items()}
        wt = Tensor(state.classifier)
        feats = mdl.features_t(tensors, x_all[batch])
        loss = mdl.ce_loss_t(feats, wt, y_all[batch], state.space)
        if structure is not None:
            buf_feats = mdl.features_t(tensors, state.buffer.x[idx])
            g_term = mdl.angular_reg_loss_t(
                buf_feats, state.space,
                structure["prev_cos"][np.ix_(idx, idx)],
                structure["prev_valid"][np.ix_(idx, idx)])
            cap_val = None if not cap else cap * structure["tau2"]
            l_term = mdl.neighbor_robustness_loss_t(
                buf_feats, state.space,
                structure["affinity"][np.ix_(idx, idx)].astype(float), repulsion_cap=cap_val)
            loss = mdl.total_loss_t(loss, cfg["lambda1"], g_term, cfg["lambda2"], l_term)
        if not np.isfinite(loss.value):
            raise NumericalDomainError(
                f"training loss diverged at step {t} (batch of {len(batch)})")
        loss.backward()
        for k, p in tensors.items():
            state.params[k] = state.params[k] - lr * p.grad
        state.classifier = state.classifier - lr * wt.grad


def evaluate(state: EngineState, tasks: list[StreamTask]) -> list[float]:
    """Per-task accuracy over all seen classes (class-incremental protocol):
    one pass over the test rows of every task, whose hits are then split
    by task. A row's features and distances do not depend on the other rows
    of a pass, so the accuracies are those of one pass per task; only a
    task with a single test row could differ, in the last bit of its
    distances, since a one-row pass takes BLAS's matrix-vector products.
    A row's prediction is its nearest prototype, the argmax of the softmax
    over negated distances: equal distances give equal probabilities, and
    both pick the first such class. They differ only where two distances
    lie closer together than ``exp`` resolves near 1."""
    if state.space is None:
        raise ContractViolation("model has not been trained yet")
    feats = mdl.features_np(state.params, np.concatenate([task.x_test for task in tasks]))
    pred = mdl.sq_dist_matrix_np(feats, state.classifier, state.space).argmin(axis=1)
    truth = np.array([state.label_to_index[int(v)] for task in tasks for v in task.y_test])
    ends = np.cumsum([len(task.y_test) for task in tasks])[:-1]
    return [float(hits.mean()) for hits in np.split(pred == truth, ends)]


@dataclass
class MetricsRecord:
    """Lower-triangular accuracy matrix a[t][j] plus per-step test sizes."""

    accuracy: list[list[float]] = field(default_factory=list)
    test_sizes: list[int] = field(default_factory=list)

    def add_row(self, accs: list[float], sizes: list[int]):
        self.accuracy.append(list(accs))
        self.test_sizes = list(sizes)


# The summary metrics, in the order metrics.json and the reports list them.
SUMMARY_METRICS = ("final_accuracy", "average_accuracy",
                   "average_incremental_accuracy", "average_forgetting")


def summary_metrics(record: MetricsRecord) -> dict:
    """Final accuracy, average accuracy, average incremental accuracy, and
    average forgetting from a complete accuracy matrix."""
    acc = record.accuracy
    steps = len(acc)
    if steps == 0 or any(len(row) != i + 1 for i, row in enumerate(acc)):
        raise ContractViolation("incomplete accuracy matrix")
    sizes = np.asarray(record.test_sizes, dtype=float)

    def aggregate(row):
        w = sizes[:len(row)]
        return float(np.average(row, weights=w))

    final_acc = aggregate(acc[-1])
    avg_acc = float(np.mean(acc[-1]))
    aia = float(np.mean([aggregate(row) for row in acc]))
    if steps == 1:
        forgetting = None
    else:
        drops = []
        for j in range(steps - 1):
            peak = max(acc[t][j] for t in range(j, steps - 1))
            drops.append(peak - acc[-1][j])
        forgetting = float(np.mean(drops))
    return dict(zip(SUMMARY_METRICS, (final_acc, avg_acc, aia, forgetting)))


def run_stream(tasks: list[StreamTask], cfg: dict, seed: int,
               backbone: mdl.Backbone, pool: MixedSpace) -> tuple[EngineState, MetricsRecord]:
    """Execute the whole stream and collect the accuracy matrix."""
    state = init_state(backbone, pool, seed)
    record = MetricsRecord()
    for t, task in enumerate(tasks, start=1):
        run_step(state, task, cfg, seed)
        accs = evaluate(state, tasks[:t])
        record.add_row(accs, [len(x.y_test) for x in tasks[:t]])
    return state, record
