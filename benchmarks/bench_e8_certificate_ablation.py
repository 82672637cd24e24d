"""Experiment E8 (ablation): partition class size vs. certificate.

The paper chooses the smallest sub-network with more nodes than the
diagnosability (e.g. the minimal ``m`` with ``2^m > n`` for ``Q_m ⊂ Q_n``) and
assumes the restricted ``Set_Builder`` run on a fault-free class reaches the
``all_healthy`` certificate.  The reproduction finds that this class size is
one doubling too small: on a fault-free ``Q_m`` the builder tree has exactly
``2^{m-1}`` internal nodes, so the certificate needs ``2^m > 2n``.

The ablation measures the cost of the three driver configurations:

* ``paper`` — partition probing starting from the paper's level-0 classes
  (the driver escalates automatically when level 0 cannot certify);
* ``exact`` — partition probing starting directly at the minimal certifying
  level (what the paper intended);
* ``no-partition`` — the fallback that skips partitions and probes arbitrary
  nodes with a budgeted unrestricted run.

All three are exact; the timings and probe counts quantify the cost of the
paper's gap.
"""

from __future__ import annotations

import pytest

from repro.core.diagnosis import GeneralDiagnoser
from repro.core.partitions import class_certifies_when_fault_free, minimal_certifying_level
from repro.networks import Hypercube

from .conftest import prepared_instance

DIMENSION = 10


def _diagnoser(mode: str) -> GeneralDiagnoser:
    cube = Hypercube(DIMENSION)
    if mode == "no-partition":
        return GeneralDiagnoser(cube, use_partition=False)
    return GeneralDiagnoser(cube)


@pytest.mark.parametrize("mode", ["paper", "no-partition"])
def test_driver_configuration_cost(benchmark, mode):
    cube = Hypercube(DIMENSION)
    faults, syndrome = prepared_instance(cube, seed=29)
    diagnoser = _diagnoser(mode)

    def run():
        syndrome.reset_lookups()
        return diagnoser.diagnose(syndrome)

    result = benchmark(run)
    assert result.faulty == faults
    benchmark.extra_info["experiment"] = "E8"
    benchmark.extra_info["mode"] = mode
    benchmark.extra_info["probes"] = result.num_probes
    benchmark.extra_info["lookups"] = result.lookups


def test_certificate_threshold_table(benchmark):
    """Regenerate the paper-choice-vs-required-size table for Q_7 .. Q_12."""

    def build_table():
        rows = []
        for n in range(7, 13):
            cube = Hypercube(n)
            level0 = cube.partition_scheme(0).first(1)[0]
            rows.append(
                (
                    n,
                    level0.size,
                    class_certifies_when_fault_free(cube, level0),
                    minimal_certifying_level(cube),
                )
            )
        return rows

    rows = benchmark(build_table)

    for n, paper_size, paper_certifies, min_level in rows:
        # The reproduction's finding: the paper's minimal class never
        # certifies, one doubling always does.
        assert paper_size <= 2 * n
        assert not paper_certifies
        assert min_level == 1
    benchmark.extra_info["experiment"] = "E8"
    benchmark.extra_info["rows"] = [list(map(str, row)) for row in rows]
