"""Partition-probing utilities for the generic diagnosis driver.

The paper's per-family drivers (e.g. ``Faults_in_Hypercubes``, Section 5)
locate a certifiably healthy start node by running the restricted
``Set_Builder`` on the representatives of a partition of the network into
many node-disjoint connected classes (the diagnoser probes the first
``δ + 1`` classes of each level).  This module provides:

* :func:`class_certifies_when_fault_free` — whether the restricted
  ``Set_Builder`` run on a *fault-free* copy of a class reaches the
  contributor certificate.  The paper implicitly assumes this for its choice
  of class size; the assumption fails for the smallest admissible classes
  (see :mod:`repro.core.diagnosis`), and this predicate is what the driver
  and the E8 ablation use to quantify that gap;
* :func:`minimal_certifying_level` — the smallest partition level whose
  fault-free classes certify.
"""

from __future__ import annotations

from ..networks.base import InterconnectionNetwork, PartitionClass
from .set_builder import set_builder
from .syndrome import generate_syndrome

__all__ = [
    "class_certifies_when_fault_free",
    "minimal_certifying_level",
]


def class_certifies_when_fault_free(
    network: InterconnectionNetwork, partition_class: PartitionClass
) -> bool:
    """Would a restricted ``Set_Builder`` run certify this class if it were fault-free?

    The check simulates the run against the all-healthy syndrome (every test
    by every node returns 0), which is exactly the syndrome the class exhibits
    when it contains no faults; the outcome is therefore the ground truth for
    whether the paper's probing strategy can succeed on this class.
    """
    healthy = generate_syndrome(network, ())
    result = set_builder(
        network,
        healthy,
        partition_class.representative,
        diagnosability=network.diagnosability(),
        restrict=partition_class.contains,
        stop_on_certificate=True,
    )
    return result.all_healthy


def minimal_certifying_level(network: InterconnectionNetwork) -> int | None:
    """Smallest partition level whose fault-free classes reach the certificate.

    Returns ``None`` when no level certifies (the driver then falls back to
    unrestricted probing).  Only the first class of each level is simulated;
    for the structured partitions of Section 5 all classes of a level are
    isomorphic, so this is representative (the driver itself remains correct
    regardless, because certification is checked per probe at run time).
    """
    for level in range(network.max_partition_level() + 1):
        try:
            first = network.partition_scheme(level).first(1)
        except ValueError:
            break
        if not first:
            continue
        if class_certifies_when_fault_free(network, first[0]):
            return level
    return None
