"""End-to-end training integration: the synthetic task separates methods.

A reduced (dim=256) version of the Table 4 mechanism that runs in seconds:
expressive parameterisations (dense, butterfly) must clearly beat the
restricted ones (rank-1), with the raw-pixel linear shortcut closed off.
"""

import pytest

from repro import nn
from repro.datasets import SyntheticSpec, make_classification

# trains real models: excluded from the
# `-m "not slow"` fast loop (docs/VERIFICATION.md).
pytestmark = pytest.mark.slow


DIM = 256


@pytest.fixture(scope="module")
def data():
    spec = SyntheticSpec(
        dim=DIM, n_classes=4, support_size=16, noise=0.25
    )
    train = make_classification(1500, spec, seed=1, split=0)
    test = make_classification(600, spec, seed=1, split=1)
    return train, test


def train_shl(hidden, train, test, epochs=8, lr=0.02, seed=0):
    model = nn.Sequential(hidden, nn.ReLU(), nn.Linear(DIM, 4, seed=1))
    trainer = nn.Trainer(
        model, nn.SGD(model.parameters(), lr=lr, momentum=0.9)
    )
    trainer.fit(nn.DataLoader(train, 50, seed=seed), epochs=epochs)
    _, acc = trainer.evaluate(nn.DataLoader(test, 200, shuffle=False))
    return acc


@pytest.fixture(scope="module")
def accuracies(data):
    train, test = data
    return {
        "baseline": train_shl(nn.Linear(DIM, DIM, seed=2), train, test),
        "butterfly": train_shl(
            nn.ButterflyLinear(DIM, DIM, seed=2), train, test
        ),
        "lowrank": train_shl(
            nn.LowRankLinear(DIM, DIM, rank=1, seed=2), train, test
        ),
        "pixelfly": train_shl(
            nn.PixelflyLinear(DIM, block_size=16, rank=24, seed=2),
            train,
            test,
        ),
    }


class TestAccuracyOrdering:
    def test_expressive_methods_learn(self, accuracies):
        assert accuracies["baseline"] > 0.5
        assert accuracies["butterfly"] > 0.5

    def test_rank1_collapses(self, accuracies):
        # The paper's low-rank row: far below every expressive method,
        # collapsing toward chance (0.25).  The exact value moves a few
        # points with the shuffle stream, so pin the tier, not the point.
        assert accuracies["lowrank"] < 0.55
        assert accuracies["lowrank"] < accuracies["baseline"] - 0.3

    def test_butterfly_beats_lowrank_decisively(self, accuracies):
        assert accuracies["butterfly"] > accuracies["lowrank"] + 0.2

    def test_pixelfly_between(self, accuracies):
        assert accuracies["pixelfly"] > accuracies["lowrank"]

    def test_butterfly_within_baseline_band(self, accuracies):
        # Paper: butterfly within ~1.3 points of baseline (and on MNIST it
        # even improves).  Tolerate either direction within a wide band.
        assert accuracies["butterfly"] > accuracies["baseline"] - 0.10


class TestRawPixelShortcutClosed:
    def test_linear_probe_on_raw_pixels_is_weak(self, data):
        train, test = data
        model = nn.Sequential(nn.Linear(DIM, 4, seed=3))
        trainer = nn.Trainer(
            model, nn.SGD(model.parameters(), lr=0.02, momentum=0.9)
        )
        trainer.fit(nn.DataLoader(train, 50, seed=0), epochs=8)
        _, acc = trainer.evaluate(nn.DataLoader(test, 200, shuffle=False))
        # Class means are ~zero by construction: a raw linear model cannot
        # do much better than chance (0.25 here).
        assert acc < 0.45


class TestMNISTPath:
    def test_butterfly_handles_non_pow2_input(self):
        from repro.datasets import load_mnist

        train, test = load_mnist(n_train=400, n_test=100, seed=0)
        model = nn.Sequential(
            nn.ButterflyLinear(784, 784, seed=0),
            nn.ReLU(),
            nn.Linear(784, 10, seed=1),
        )
        trainer = nn.Trainer(
            model, nn.SGD(model.parameters(), lr=0.02, momentum=0.9)
        )
        history = trainer.fit(nn.DataLoader(train, 50, seed=0), epochs=2)
        assert history.train_loss[-1] < history.train_loss[0]

    def test_pixelfly_rejects_mnist_like_paper(self):
        with pytest.raises(ValueError):
            nn.PixelflyLinear(784)

