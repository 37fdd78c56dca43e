"""Supervised training loop on cross-entropy, with checkpoints and a numerics check.

The trainer times the optimisation loop and the validation passes on the
host clock and counts the optimisation steps it executes.  It keeps no
simulated device time: Tables 4 and 5 cost a run as a model's simulated
per-step time times ``TrainingHistory.steps``
(:mod:`repro.experiments.table4`, :mod:`repro.experiments.table5`).
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.faults.checkpoint import CheckpointError, CheckpointManager
from repro.nn.data import DataLoader
from repro.nn.losses import accuracy, cross_entropy
from repro.nn.module import Module
from repro.nn.optim import Optimizer
from repro.nn.tensor import Tensor, no_grad
from repro.obs import get_logger, get_registry, get_tracer

__all__ = ["NumericsError", "TrainingHistory", "Trainer"]


class NumericsError(RuntimeError):
    """Training produced a non-finite loss or gradient.

    Raised by :meth:`Trainer.fit` the step the divergence is observed,
    with the context needed to reproduce or recover: ``epoch`` and
    ``step`` (global optimisation step) of the poisoned update, the
    ``loss`` value, the name of the first non-finite parameter gradient
    (``param``, ``None`` when the loss itself was non-finite), and —
    when the run was checkpointing — ``rolled_back_to_step``, the global
    step of the checkpoint the model/optimiser state was restored to
    before raising (``None`` if there was nothing to roll back to).
    """

    def __init__(
        self,
        message: str,
        *,
        epoch: int,
        step: int,
        loss: float,
        param: str | None = None,
        rolled_back_to_step: int | None = None,
    ) -> None:
        super().__init__(message)
        self.epoch = epoch
        self.step = step
        self.loss = loss
        self.param = param
        self.rolled_back_to_step = rolled_back_to_step


@dataclass
class TrainingHistory:
    """Per-epoch metrics, host times and the optimisation step count.

    ``train_time_s`` and ``val_time_s`` separate the optimisation loop
    from validation passes (the paper's Table 4 wall-clock protocol times
    training only).
    """

    train_loss: list[float] = field(default_factory=list)
    train_accuracy: list[float] = field(default_factory=list)
    val_loss: list[float] = field(default_factory=list)
    val_accuracy: list[float] = field(default_factory=list)
    train_time_s: float = 0.0
    val_time_s: float = 0.0
    steps: int = 0
    #: Optimisation steps executed in each epoch (resumed epochs count
    #: their pre-kill steps too, so the list describes the epoch, not
    #: the process that ran it).
    steps_per_epoch: list[int] = field(default_factory=list)
    #: Global step of the checkpoint this run resumed from, if any.
    resumed_from_step: int | None = None


#: The :class:`TrainingHistory` fields a checkpoint carries under its
#: ``history`` key; the step count travels as the top-level ``steps``.
_CHECKPOINTED_HISTORY = (
    "train_loss",
    "train_accuracy",
    "val_loss",
    "val_accuracy",
    "steps_per_epoch",
    "train_time_s",
    "val_time_s",
)


class Trainer:
    """Minimal supervised-classification training driver."""

    def __init__(self, model: Module, optimizer: Optimizer) -> None:
        self.model = model
        self.optimizer = optimizer

    def train_step(self, x: np.ndarray, y: np.ndarray) -> tuple[float, float]:
        """One optimisation step; returns (loss, accuracy) on the batch."""
        self.model.train()
        self.optimizer.zero_grad()
        logits = self.model(Tensor(x))
        loss = cross_entropy(logits, y)
        loss.backward()
        self.optimizer.step()
        return loss.item(), accuracy(logits, y)

    def evaluate(self, loader: DataLoader) -> tuple[float, float]:
        """Mean loss and accuracy over *loader* without recording a graph."""
        self.model.eval()
        total_loss = 0.0
        correct = 0.0
        count = 0
        with no_grad():
            for x, y in loader:
                logits = self.model(Tensor(x))
                loss = cross_entropy(logits, y)
                total_loss += loss.item() * len(y)
                correct += accuracy(logits, y) * len(y)
                count += len(y)
        if count == 0:
            return 0.0, 0.0
        return total_loss / count, correct / count

    def _nonfinite_gradient(self) -> str | None:
        """Name of the first parameter with a non-finite gradient, if any.

        A sum with an inf or NaN term is not finite, so a finite sum clears
        a gradient without a pass that allocates a bool per element; the
        elements are scanned only when the sum is not finite, which an
        overflow of finite terms can also make it.  The sum's overflow or
        ``inf - inf`` raises no warning: the scan gives the verdict.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            for name, param in self.model.named_parameters():
                grad = param.grad
                if (
                    grad is not None
                    and not np.isfinite(grad.sum())
                    and not np.isfinite(grad).all()
                ):
                    return name
        return None

    def _handle_numerics_fault(
        self,
        *,
        epoch: int,
        step: int,
        loss: float,
        param: str | None,
        history: TrainingHistory,
        checkpoint: CheckpointManager | None,
        train_loader: DataLoader,
        val_loader: DataLoader | None,
        registry,
    ) -> None:
        """Roll back to the last checkpoint (if any) and raise.

        The model/optimiser/loader state left behind is the restored
        checkpoint's — never the poisoned weights — so a caller that
        catches :class:`NumericsError` can adjust hyper-parameters and
        call :meth:`fit` again from healthy state.
        """
        rolled_back: int | None = None
        if checkpoint is not None:
            latest = checkpoint.load_latest()
            if latest is not None:
                ckpt_step, arrays, meta = latest
                self._restore_checkpoint(
                    arrays, meta, history, train_loader, val_loader
                )
                rolled_back = ckpt_step
        if registry.enabled:
            registry.counter("trainer.numerics_errors").inc()
        log = get_logger()
        if log.enabled:
            log.error(
                "trainer.numerics_rollback",
                f"non-finite {'gradient' if param else 'loss'}",
                epoch=epoch,
                step=step,
                param=param,
                rolled_back_to_step=rolled_back,
            )
        what = (
            f"gradient of parameter {param!r} is non-finite"
            if param is not None
            else f"loss is non-finite ({loss!r})"
        )
        message = (
            f"numerics fault at epoch {epoch}, step {step}: {what}"
        )
        if rolled_back is not None:
            message += (
                f"; model and optimiser rolled back to the step-"
                f"{rolled_back} checkpoint"
            )
        elif checkpoint is not None:
            message += "; no checkpoint available to roll back to"
        raise NumericsError(
            message,
            epoch=epoch,
            step=step,
            loss=float(loss),
            param=param,
            rolled_back_to_step=rolled_back,
        )

    # -- checkpoint plumbing --------------------------------------------------

    def _save_checkpoint(
        self,
        checkpoint: CheckpointManager,
        history: TrainingHistory,
        epoch: int,
        step_in_epoch: int,
        partial_losses: list[float],
        partial_accs: list[float],
        epoch_rng_state: dict,
        val_loader: DataLoader | None,
        **span_attributes,
    ) -> None:
        """Write model + optimiser + cursor state as the checkpoint for
        the current step; :meth:`_restore_checkpoint` reads it back."""
        with get_tracer().span(
            "checkpoint.save",
            category="train",
            step=history.steps,
            **span_attributes,
        ):
            arrays: dict[str, np.ndarray] = {}
            for name, arr in self.model.state_dict().items():
                arrays[f"model/{name}"] = arr
            opt_state = self.optimizer.state_dict()
            slot_mask: dict[str, list[bool]] = {}
            for slot, buffers in opt_state["slots"].items():
                mask = []
                for i, buf in enumerate(buffers):
                    mask.append(buf is not None)
                    if buf is not None:
                        arrays[f"opt/{slot}/{i}"] = buf
                slot_mask[slot] = mask
            meta = {
                "epoch": epoch,
                "step_in_epoch": step_in_epoch,
                "steps": history.steps,
                "history": {
                    name: getattr(history, name)
                    for name in _CHECKPOINTED_HISTORY
                },
                "partial": {
                    "losses": list(partial_losses),
                    "accs": list(partial_accs),
                },
                "rng": {
                    "train_epoch_start": epoch_rng_state,
                    "val": val_loader.rng_state()
                    if val_loader is not None
                    else None,
                },
                "optimizer": {
                    "scalars": opt_state["scalars"],
                    "slot_mask": slot_mask,
                },
            }
            checkpoint.save(history.steps, arrays, meta)
        get_registry().counter("trainer.checkpoint_writes").inc()

    def _restore_checkpoint(
        self,
        arrays: dict[str, np.ndarray],
        meta: dict,
        history: TrainingHistory,
        train_loader: DataLoader,
        val_loader: DataLoader | None,
    ) -> None:
        """Load a checkpoint payload back into model/optimiser/loaders."""
        model_state = {
            name[len("model/") :]: arr
            for name, arr in arrays.items()
            if name.startswith("model/")
        }
        self.model.load_state_dict(model_state)
        opt_meta = meta["optimizer"]
        slots = {
            slot: [
                arrays[f"opt/{slot}/{i}"] if present else None
                for i, present in enumerate(mask)
            ]
            for slot, mask in opt_meta["slot_mask"].items()
        }
        self.optimizer.load_state_dict(
            {"scalars": opt_meta["scalars"], "slots": slots}
        )
        # Read only the named fields: older checkpoints carry one more
        # key under "history".
        for name in _CHECKPOINTED_HISTORY:
            setattr(history, name, meta["history"][name])
        history.steps = int(meta["steps"])
        train_loader.set_rng_state(meta["rng"]["train_epoch_start"])
        if val_loader is not None and meta["rng"]["val"] is not None:
            val_loader.set_rng_state(meta["rng"]["val"])

    def fit(
        self,
        train_loader: DataLoader,
        val_loader: DataLoader | None = None,
        epochs: int = 1,
        verbose: bool = False,
        checkpoint: CheckpointManager | None = None,
        checkpoint_every: int = 0,
    ) -> TrainingHistory:
        """Train for *epochs* and return the collected history.

        With a :class:`~repro.faults.checkpoint.CheckpointManager` the
        trainer writes an atomic checkpoint after every epoch (and every
        ``checkpoint_every`` optimisation steps, if nonzero).  When the
        manager already holds a readable checkpoint, fit first restores
        model, optimiser, metric history and the data loaders' RNG
        streams from it, continuing mid-epoch at the exact batch cursor.
        The resumed run's losses, accuracies and final parameters are
        bit-identical to an uninterrupted run; only the host wall-clock
        fields differ.

        Every step's loss and parameter gradients are checked for
        NaN/inf; a divergence raises :class:`NumericsError` at the
        offending step instead of training on through poisoned weights.
        When a checkpoint manager is present, model and optimiser state
        are first rolled back to the last checkpoint (the exception
        records which one), so the caller can lower the learning rate
        and resume from healthy state.

        Every epoch releases the model's gradients once its steps end,
        before validation and the checkpoint, so each parameter's
        ``grad`` is ``None`` when fit returns.
        """
        if checkpoint_every < 0:
            raise ValueError(
                f"checkpoint_every must be >= 0, got {checkpoint_every}"
            )
        if checkpoint_every and checkpoint is None:
            raise ValueError(
                "checkpoint_every requires a CheckpointManager"
            )
        history = TrainingHistory()
        start_epoch = 0
        skip = 0
        partial_losses: list[float] = []
        partial_accs: list[float] = []
        if checkpoint is not None:
            latest = checkpoint.load_latest()
            if latest is not None:
                ckpt_step, arrays, meta = latest
                self._restore_checkpoint(
                    arrays, meta, history, train_loader, val_loader
                )
                start_epoch = int(meta["epoch"])
                skip = int(meta["step_in_epoch"])
                partial_losses = [
                    float(v) for v in meta["partial"]["losses"]
                ]
                partial_accs = [float(v) for v in meta["partial"]["accs"]]
                history.resumed_from_step = ckpt_step
        tracer = get_tracer()
        registry = get_registry()
        with tracer.span(
            "trainer.fit", category="train", epochs=epochs
        ) as fit_span:
            for epoch in range(start_epoch, epochs):
                epoch_rng = train_loader.rng_state()
                losses = partial_losses
                accs = partial_accs
                partial_losses, partial_accs = [], []
                consumed = 0
                t0 = time.perf_counter()
                with tracer.span(
                    "epoch", category="train", epoch=epoch
                ):
                    for x, y in train_loader:
                        consumed += 1
                        if consumed <= skip:
                            continue
                        if registry.enabled:
                            t_step = time.perf_counter()
                        if tracer.enabled:
                            with tracer.span("train_step", category="train"):
                                loss, acc = self.train_step(x, y)
                            tracer.counter(
                                "train", {"loss": loss, "accuracy": acc}
                            )
                        else:
                            loss, acc = self.train_step(x, y)
                        if registry.enabled:
                            registry.histogram("trainer.step_s").observe(
                                time.perf_counter() - t_step
                            )
                            registry.counter("trainer.steps").inc()
                            registry.gauge("trainer.loss").set(loss)
                            registry.gauge("trainer.accuracy").set(acc)
                        bad_param = None
                        if np.isfinite(loss):
                            bad_param = self._nonfinite_gradient()
                        if not np.isfinite(loss) or bad_param:
                            self._handle_numerics_fault(
                                epoch=epoch,
                                step=history.steps + 1,
                                loss=loss,
                                param=bad_param,
                                history=history,
                                checkpoint=checkpoint,
                                train_loader=train_loader,
                                val_loader=val_loader,
                                registry=registry,
                            )
                        losses.append(loss)
                        accs.append(acc)
                        history.steps += 1
                        if (
                            checkpoint_every
                            and history.steps % checkpoint_every == 0
                        ):
                            self._save_checkpoint(
                                checkpoint,
                                history,
                                epoch,
                                consumed,
                                losses,
                                accs,
                                epoch_rng,
                                val_loader,
                            )
                if consumed == 0:
                    raise ValueError(
                        "train_loader is exhausted: it yielded no batches "
                        f"in epoch {epoch} (dataset of "
                        f"{len(train_loader.dataset)} samples, batch_size="
                        f"{train_loader.batch_size})"
                    )
                if consumed < skip:
                    raise CheckpointError(
                        f"checkpoint cursor {skip} exceeds the "
                        f"{consumed} batches the train loader yields per "
                        "epoch; the checkpoint does not match this loader"
                    )
                skip = 0
                history.train_time_s += time.perf_counter() - t0
                history.steps_per_epoch.append(len(losses))
                history.train_loss.append(
                    float(np.mean(losses)) if losses else 0.0
                )
                history.train_accuracy.append(
                    float(np.mean(accs)) if accs else 0.0
                )
                # Nothing reads a gradient between epochs (each step
                # zeroes them first, checkpoints store none), so release
                # them before validation allocates its activations.
                self.model.zero_grad()
                if val_loader is not None:
                    t0 = time.perf_counter()
                    with tracer.span(
                        "validate", category="eval", epoch=epoch
                    ):
                        vl, va = self.evaluate(val_loader)
                    history.val_time_s += time.perf_counter() - t0
                    history.val_loss.append(vl)
                    history.val_accuracy.append(va)
                    if tracer.enabled:
                        tracer.counter(
                            "val", {"loss": vl, "accuracy": va}
                        )
                    if registry.enabled:
                        registry.gauge("trainer.val_loss").set(vl)
                        registry.gauge("trainer.val_accuracy").set(va)
                log = get_logger()
                if checkpoint is not None:
                    self._save_checkpoint(
                        checkpoint,
                        history,
                        epoch + 1,
                        0,
                        [],
                        [],
                        train_loader.rng_state(),
                        val_loader,
                        epoch_end=True,
                    )
                    if log.enabled:
                        log.info(
                            "trainer.checkpoint",
                            epoch=epoch + 1,
                            step=history.steps,
                        )
                if registry.enabled:
                    registry.counter("trainer.epochs").inc()
                if log.enabled:
                    log.info(
                        "trainer.epoch",
                        epoch=epoch + 1,
                        epochs=epochs,
                        loss=history.train_loss[-1],
                        accuracy=history.train_accuracy[-1],
                    )
                if verbose:
                    msg = (
                        f"epoch {epoch + 1}/{epochs} "
                        f"loss={history.train_loss[-1]:.4f} "
                        f"acc={history.train_accuracy[-1]:.3f}"
                    )
                    if val_loader is not None:
                        msg += (
                            f" val_loss={history.val_loss[-1]:.4f} "
                            f"val_acc={history.val_accuracy[-1]:.3f}"
                        )
                    print(msg)  # noqa: T201
            if tracer.enabled:
                fit_span.attributes.update(
                    steps=history.steps,
                    train_time_s=history.train_time_s,
                    val_time_s=history.val_time_s,
                )
        return history
