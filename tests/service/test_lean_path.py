"""The serving process loads and keeps only what the native path reads.

``serve`` without ``--workers`` imports neither :mod:`networkx` (tests and
structural analysis only), the static analyzer, nor the worker pool and
:mod:`multiprocessing`; and with the native kernels no served batch, in
process or in a pool worker, builds the Python rows of a compiled topology
(``CSRAdjacency.rows``), which only the pure-Python paths read.
"""

from __future__ import annotations

import json
import subprocess
import sys

import pytest

from repro.backend.array_syndrome import ArraySyndrome
from repro.core import native
from repro.core.faults import random_faults
from repro.networks.registry import cached_network
from repro.parallel import WorkerPool
from repro.parallel.pool import worker_network
from repro.service import DiagnosisRequest
from repro.service.executor import resolve_topology, run_batch_local, run_batch_task

needs_native = pytest.mark.skipif(
    not native.native_kernel_active(), reason="no C compiler available"
)

#: Modules the in-process serving path must never load.
NOT_SERVED = ("networkx", "repro.analysis", "repro.parallel.pool", "multiprocessing")

#: The seeded_mix topologies: Q_12, Q_14 and S_7.
MIX = (("hypercube", {"dimension": 12}), ("hypercube", {"dimension": 14}),
       ("star", {"n": 7}))


def _serve_in_fresh_interpreter(tmp_path, *flags: str) -> dict:
    """Run ``serve --requests`` over the mix in a new interpreter; report
    its exit code and which of :data:`NOT_SERVED` it loaded."""
    requests = tmp_path / "requests.jsonl"
    requests.write_text("".join(
        json.dumps({"family": family, "params": params, "seed": seed}) + "\n"
        for family, params in MIX for seed in (1, 2)
    ))
    code = (
        "import json, sys\n"
        "from repro.cli import main\n"
        f"code = main(['serve', '--requests', {str(requests)!r}, *{list(flags)!r}])\n"
        f"loaded = [name for name in {NOT_SERVED!r} if name in sys.modules]\n"
        "print(json.dumps({'code': code, 'loaded': loaded}))\n"
    )
    result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                            text=True, timeout=300)
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout.strip().splitlines()[-1])


class TestImportClosure:
    def test_in_process_serving_loads_none_of_the_unserved_modules(self, tmp_path):
        report = _serve_in_fresh_interpreter(tmp_path)
        assert report == {"code": 0, "loaded": []}

    def test_a_pooled_service_still_loads_the_pool(self, tmp_path):
        report = _serve_in_fresh_interpreter(tmp_path, "--workers", "1")
        assert report["code"] == 0
        assert "repro.parallel.pool" in report["loaded"]
        assert "multiprocessing" in report["loaded"]
        assert "networkx" not in report["loaded"]


def _mixed_requests(network, csr, family, params) -> list[DiagnosisRequest]:
    """Seeded requests of every behaviour plus one explicit syndrome."""
    requests = [
        DiagnosisRequest.seeded(family, params, seed=seed, behavior=behavior)
        for seed in (1, 2) for behavior in ("random", "mimic", "all_one")
    ]
    faults = random_faults(network, network.diagnosability(), seed=9)
    syndrome = ArraySyndrome.from_faults(csr, faults, seed=9)
    requests.append(DiagnosisRequest.from_syndrome(family, params, syndrome))
    return requests


def _rows_left_unbuilt_in_worker(handle, family, params, requests):
    """Pool task: serve one batch, then report on the worker's topology.

    The worker is forked, so its registry-memo network may carry an
    adjacency, rows included, that an earlier test built in this process;
    dropping it first makes the batch run on the handle's CSR, as it does
    in a worker forked by ``serve``, which never builds rows.
    """
    cached_network(family, **dict(params))._csr_adjacency = None
    responses, _ = run_batch_task(handle, family, params, requests)
    _, csr = worker_network(family, params, handle)
    return [response.ok for response in responses], csr._rows is None


@needs_native
class TestRowsStayUnbuilt:
    @pytest.mark.parametrize("family, params", MIX[::2])
    def test_in_process(self, family, params):
        network, csr = resolve_topology(family, params)
        responses, _ = run_batch_local(
            network, csr, _mixed_requests(network, csr, family, params)
        )
        assert all(response.ok for response in responses)
        assert csr._rows is None

    def test_in_a_pool_worker(self):
        family, params = "hypercube", {"dimension": 8}
        network, csr = resolve_topology(family, params)
        requests = _mixed_requests(network, csr, family, params)
        with WorkerPool(max_workers=1) as pool:
            handle = pool.publish_topology(csr)
            oks, unbuilt = pool.submit(
                _rows_left_unbuilt_in_worker, handle, family,
                tuple(sorted(params.items())), requests,
            ).result(timeout=120)
        assert all(oks) and len(oks) == len(requests)
        assert unbuilt
        assert csr._rows is None
