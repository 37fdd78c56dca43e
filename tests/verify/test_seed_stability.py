"""Cross-process seed stability: ``(seed, index)`` is the whole story.

The committed corpus and CI replay both assume a case regenerates
byte-identically anywhere — in this process, in a ``spawn``-ed child
(fresh interpreter, no inherited RNG state), in a child forked from a
``forkserver``, regardless of import order or ambient ``np.random``
seeding.
"""

import multiprocessing

import numpy as np
import pytest

from repro.verify import canonical_json, generate_case

COORDS = [(0, 0), (0, 1), (0, 17), (3, 5), (123456789, 42)]


def _child(coords, queue):
    # Deliberately perturb ambient RNG state before generating.
    np.random.seed(999)
    np.random.default_rng(1).random(100)
    from repro.verify import canonical_json as cj
    from repro.verify import generate_case as gc

    queue.put([cj(gc(seed, index)) for seed, index in coords])


class TestSeedStability:
    @pytest.mark.parametrize("method", ["spawn", "forkserver"])
    def test_spawned_process_reproduces_cases_byte_identically(self, method):
        parent = [
            canonical_json(generate_case(seed, index))
            for seed, index in COORDS
        ]
        ctx = multiprocessing.get_context(method)
        queue = ctx.Queue()
        proc = ctx.Process(target=_child, args=(COORDS, queue))
        proc.start()
        child = queue.get(timeout=60)
        proc.join(timeout=60)
        assert proc.exitcode == 0
        assert child == parent

    def test_stable_against_ambient_rng_perturbation(self):
        before = [
            canonical_json(generate_case(seed, index))
            for seed, index in COORDS
        ]
        np.random.seed(31337)
        after = [
            canonical_json(generate_case(seed, index))
            for seed, index in COORDS
        ]
        assert after == before

    def test_known_case_fingerprint(self):
        # A pinned fingerprint: if this changes, every stored corpus
        # entry silently stops matching its (seed, index) coordinates.
        # Bump the corpus together with any intentional generator change.
        import hashlib

        digest = hashlib.sha256(
            "\n".join(
                canonical_json(generate_case(0, index))
                for index in range(50)
            ).encode()
        ).hexdigest()
        assert digest == EXPECTED_DIGEST


EXPECTED_DIGEST = (
    "c493be453002c56d76d14c85821a978e1799f8df14a907a7bb9546db550aca8f"
)
