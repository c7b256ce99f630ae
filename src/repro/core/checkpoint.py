"""Checkpointing: save/restore a trained model with its config.

A checkpoint is a single ``.npz`` holding the model's parameter arrays
plus a JSON-encoded config and entity-index manifest, so a restored
recommender is guaranteed to interpret embedding rows identically.

Three format versions coexist:

* **v1** (``repro.checkpoint.v1``) — parameters + config + index.
  Enough to serve a model.
* **v2** (``repro.checkpoint.v2``) — v1 plus a *training state*: the
  optimizer's moment arrays (``__opt_m__<i>`` / ``__opt_v__<i>`` in
  parameter order), epoch/step counters, and the master RNG state.
  Enough to *resume* an interrupted run bit-exactly (see
  :meth:`repro.parallel.DataParallelTrainer.train`).
* **v3** (``repro.checkpoint.v3``) — what :func:`save_checkpoint` now
  writes: v2's layout plus a recorded parameter ``dtype`` in the
  manifest (serve-only v3 files simply omit the training section, as
  v1 did).  Loaders restore the arrays in the recorded dtype by
  default; passing ``precision=`` casts explicitly — this is how v1/v2
  f64 checkpoints load under an f32 policy (and vice versa).

All versions load through the same functions: files without a training
section simply carry no training state, and files without a recorded
dtype (v1/v2) are float64 by construction.  Paths are normalized to the ``.npz`` suffix on save
*and* load, so ``save_checkpoint(..., "ckpt")`` and
``load_checkpoint("ckpt")`` agree on ``ckpt.npz`` (``np.savez`` appends
the suffix on write, which previously made suffixless round trips
fail).  Writes go through a temporary file and an atomic rename, so a
crash mid-save never corrupts the last good checkpoint.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Optional, Tuple, Union

import numpy as np

from repro.core.config import STTransRecConfig
from repro.core.model import STTransRec
from repro.data.vocabulary import DatasetIndex

PathLike = Union[str, Path]

_MANIFEST_KEY = "__manifest__"
_FORMAT_V1 = "repro.checkpoint.v1"
_FORMAT_V2 = "repro.checkpoint.v2"
_FORMAT_V3 = "repro.checkpoint.v3"
_FORMATS = (_FORMAT_V1, _FORMAT_V2, _FORMAT_V3)
_OPT_M_PREFIX = "__opt_m__"
_OPT_V_PREFIX = "__opt_v__"


@dataclass
class TrainingState:
    """Resume information carried by a v2 checkpoint.

    ``optimizer_state`` follows the optimizer's ``state_dict()``
    convention (for Adam: ``step_count`` plus per-parameter ``m``/``v``
    moment arrays in registration order).  ``rng_state`` is the master
    trainer's ``bit_generator.state`` dict at save time; resume replays
    the batch stream and verifies it lands on exactly this state.
    """

    epochs_completed: int = 0
    global_step: int = 0
    optimizer_state: Dict[str, object] = field(default_factory=dict)
    rng_state: Optional[dict] = None


def normalize_checkpoint_path(path: PathLike) -> Path:
    """Append ``.npz`` when missing, mirroring ``np.savez``'s behaviour."""
    path = Path(path)
    if path.suffix != ".npz":
        path = path.with_name(path.name + ".npz")
    return path


def save_checkpoint(model: STTransRec, index: DatasetIndex,
                    path: PathLike,
                    training_state: Optional[TrainingState] = None,
                    generation: Optional[int] = None) -> None:
    """Write model parameters + config + index manifest to ``path``.

    Files are written as format v3: the manifest records the parameter
    dtype, and with ``training_state`` the file additionally carries
    optimizer moments, counters, and RNG state (resumable); without it
    the training section is simply absent (serve-only, as v1 was).
    ``generation`` records a monotone publication number in the
    manifest — :mod:`repro.streaming.publisher` uses it to detect torn
    publications, and :meth:`repro.fleet.router.ShardRouter.swap`
    refuses to swap a fleet *backward* to a stale generation.
    """
    path = normalize_checkpoint_path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays = {name: value for name, value in model.state_dict().items()}
    param_dtypes = {str(v.dtype) for v in arrays.values()}
    if len(param_dtypes) != 1:
        raise ValueError(
            f"model parameters carry mixed dtypes {sorted(param_dtypes)}; "
            f"a checkpoint records exactly one")
    manifest = {
        "format": _FORMAT_V3,
        "dtype": param_dtypes.pop(),
        "config": model.config.__dict__,
        "users": index.users.keys(),
        "pois": index.pois.keys(),
        "words": index.words.keys(),
    }
    if generation is not None:
        if generation < 0:
            raise ValueError(f"generation must be >= 0, got {generation}")
        manifest["generation"] = int(generation)
    if training_state is not None:
        opt = dict(training_state.optimizer_state)
        for i, m in enumerate(opt.pop("m", [])):
            arrays[f"{_OPT_M_PREFIX}{i}"] = m
        for i, v in enumerate(opt.pop("v", [])):
            arrays[f"{_OPT_V_PREFIX}{i}"] = v
        manifest["training"] = {
            "epochs_completed": int(training_state.epochs_completed),
            "global_step": int(training_state.global_step),
            "optimizer": opt,        # scalars only (e.g. step_count)
            "rng_state": training_state.rng_state,
        }
    arrays[_MANIFEST_KEY] = np.frombuffer(
        json.dumps(manifest, default=list).encode("utf-8"), dtype=np.uint8
    )
    # Atomic replace: a crash mid-write must never clobber the previous
    # checkpoint, or an interrupted run would lose its resume point.
    tmp = path.with_name(path.name + ".tmp.npz")
    np.savez(tmp, **arrays)
    os.replace(tmp, path)


def _read_archive(path: PathLike):
    path = normalize_checkpoint_path(path)
    with np.load(path) as archive:
        if _MANIFEST_KEY not in archive:
            raise ValueError(f"{path} is not a repro checkpoint")
        manifest = json.loads(bytes(archive[_MANIFEST_KEY]).decode("utf-8"))
        found = manifest.get("format")
        if found not in _FORMATS:
            raise ValueError(
                f"unsupported checkpoint format in {path}: "
                f"found {found!r}, expected one of "
                f"({_FORMAT_V1!r}, {_FORMAT_V2!r}, {_FORMAT_V3!r})"
            )
        arrays = {name: archive[name] for name in archive.files
                  if name != _MANIFEST_KEY}
    return manifest, arrays


def _target_dtype(manifest, precision) -> np.dtype:
    """The dtype a load should restore arrays in.

    Explicit ``precision`` wins; otherwise the manifest's recorded
    dtype; v1/v2 files recorded none and were float64 by construction.
    """
    from repro.nn.dtypes import resolve

    if precision is not None:
        return resolve(precision)
    return np.dtype(manifest.get("dtype", "float64"))


def _cast(arrays, dtype):
    """Cast floating arrays to ``dtype`` (no-op when they match)."""
    return {name: (value.astype(dtype)
                   if np.issubdtype(value.dtype, np.floating)
                   and value.dtype != dtype else value)
            for name, value in arrays.items()}


def _build_model(manifest, state, dtype) -> Tuple[STTransRec, DatasetIndex]:
    from repro.nn.dtypes import using_dtype

    config_dict = dict(manifest["config"])
    # Files written before the per-tower decay was dropped carry it as
    # null; one that set it trained with a decay this model cannot apply.
    if config_dict.pop("tower_weight_decay", None) is not None:
        raise ValueError(
            f"checkpoint sets tower_weight_decay="
            f"{manifest['config']['tower_weight_decay']!r}; that field is "
            f"gone (weight_decay applies to every parameter)")
    # Tuples serialize as lists; restore the fields that need tuples.
    if config_dict.get("grid_shape") is not None:
        config_dict["grid_shape"] = tuple(config_dict["grid_shape"])
    config = STTransRecConfig(**config_dict)
    index = DatasetIndex(
        user_ids=manifest["users"],
        poi_ids=manifest["pois"],
        words=manifest["words"],
    )
    with using_dtype(dtype):
        model = STTransRec(
            num_users=index.num_users,
            num_pois=index.num_pois,
            num_words=index.num_words,
            config=config,
        )
    model.load_state_dict(_cast(state, dtype))
    model.eval()
    return model, index


def _split_arrays(arrays):
    """Separate parameter arrays from optimizer moment arrays."""
    params, m_arrays, v_arrays = {}, {}, {}
    for name, value in arrays.items():
        if name.startswith(_OPT_M_PREFIX):
            m_arrays[int(name[len(_OPT_M_PREFIX):])] = value
        elif name.startswith(_OPT_V_PREFIX):
            v_arrays[int(name[len(_OPT_V_PREFIX):])] = value
        else:
            params[name] = value
    m = [m_arrays[i] for i in sorted(m_arrays)]
    v = [v_arrays[i] for i in sorted(v_arrays)]
    return params, m, v


def read_checkpoint_manifest(path: PathLike) -> dict:
    """The checkpoint's manifest dict without loading any parameters.

    Cheap relative to :func:`load_checkpoint` — only the manifest entry
    of the archive is decompressed; publication tooling uses this to
    check a file's recorded ``generation`` before committing to a full
    load.
    """
    path = normalize_checkpoint_path(path)
    with np.load(path) as archive:
        if _MANIFEST_KEY not in archive:
            raise ValueError(f"{path} is not a repro checkpoint")
        manifest = json.loads(bytes(archive[_MANIFEST_KEY]).decode("utf-8"))
    found = manifest.get("format")
    if found not in _FORMATS:
        raise ValueError(
            f"unsupported checkpoint format in {path}: found {found!r}, "
            f"expected one of "
            f"({_FORMAT_V1!r}, {_FORMAT_V2!r}, {_FORMAT_V3!r})"
        )
    return manifest


def load_checkpoint(path: PathLike,
                    precision=None) -> Tuple[STTransRec, DatasetIndex]:
    """Restore the model and entity index saved by :func:`save_checkpoint`.

    Accepts v1/v2/v3 files (training state, if present, is simply
    ignored — use :func:`load_training_checkpoint` to get it too).
    ``precision`` (``"f64"``/``"f32"``/dtype) casts the parameters
    explicitly; by default they restore in the checkpoint's recorded
    dtype (float64 for v1/v2 files, which predate the record).

    Raises
    ------
    ValueError:
        If the file lacks the manifest or has an unknown format version.
    """
    manifest, arrays = _read_archive(path)
    params, _m, _v = _split_arrays(arrays)
    return _build_model(manifest, params, _target_dtype(manifest, precision))


def load_training_checkpoint(
        path: PathLike,
        precision=None) -> Tuple[STTransRec, DatasetIndex,
                                 Optional[TrainingState]]:
    """Like :func:`load_checkpoint`, plus the training state.

    Returns ``(model, index, state)`` where ``state`` is ``None`` for
    serve-only files.  ``precision`` casts parameters *and* optimizer
    moments, so a resumed run continues entirely in the requested
    dtype.
    """
    manifest, arrays = _read_archive(path)
    params, m, v = _split_arrays(arrays)
    dtype = _target_dtype(manifest, precision)
    model, index = _build_model(manifest, params, dtype)
    m = [a.astype(dtype) if np.issubdtype(a.dtype, np.floating)
         and a.dtype != dtype else a for a in m]
    v = [a.astype(dtype) if np.issubdtype(a.dtype, np.floating)
         and a.dtype != dtype else a for a in v]
    training = manifest.get("training")
    if training is None:
        return model, index, None
    optimizer_state = dict(training.get("optimizer", {}))
    optimizer_state["m"] = m
    optimizer_state["v"] = v
    state = TrainingState(
        epochs_completed=int(training["epochs_completed"]),
        global_step=int(training["global_step"]),
        optimizer_state=optimizer_state,
        rng_state=training.get("rng_state"),
    )
    return model, index, state
