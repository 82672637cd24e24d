"""Command-line interface.

Eight sub-commands cover the common workflows:

``repro-diagnose diagnose``
    Inject a fault set into a chosen network, generate the MM-model syndrome
    and run the paper's algorithm, printing the diagnosis and its cost.

``repro-diagnose survey``
    Run one diagnosis on every family of the paper's Section 5 and print a
    summary table (a quick end-to-end health check of the reproduction).

``repro-diagnose distributed``
    Run the event-driven distributed protocol engine — concurrent roots,
    per-link latency, message loss/duplication, optional replayable trace —
    and compare its cost against the extended-star gossip on the same
    channel.

``repro-diagnose properties``
    Print the structural properties (degree, diagnosability, connectivity)
    of a chosen network instance and whether Theorem 1 applies.

``repro-diagnose serve``
    Run the asyncio diagnosis service (:mod:`repro.service`) over a stream
    of requests — a JSONL file or a seeded demo mix — with request
    coalescing, a bounded topology cache, an optional persistent result
    store (TTL/row-bounded via ``--store-ttl``/``--store-max-rows``) and an
    optional worker pool, then print the ``stats`` snapshot.  With
    ``--http PORT`` it becomes the HTTP/JSON frontend instead (``POST
    /diagnose``, ``GET /stats``, ``GET /healthz``), shedding with 429 once
    ``--max-queue`` requests are queued, until SIGINT/SIGTERM drains it.
    ``--fabric-port N`` additionally accepts remote fabric workers
    (:mod:`repro.fabric`): live workers execute the service's batches over
    a framed-socket protocol with lease/retry/requeue recovery, and the
    local path serves as fallback while none are connected.

``repro-diagnose worker``
    Run one remote fabric worker: connect to a ``serve --fabric-port``
    coordinator (``--connect HOST:PORT``), heartbeat, and execute leased
    batches through the exact in-process batch path (bit-identical
    results).  ``--loss-rate``/``--duplicate-rate``/``--latency`` inject
    seeded data-plane faults for chaos testing.

``repro-diagnose load``
    Seeded closed-loop load generator: ``--clients N`` clients each issue
    ``--requests M`` requests against a freshly built service; reports
    throughput, latency percentiles and coalescing/cache evidence, with
    ``--verify`` checking every answer against the direct pipeline.
    ``--http URL`` drives the same closed-loop load over the wire against a
    running ``serve --http`` frontend, counting (and retrying) 429-shed
    requests.

``repro-diagnose lint``
    Run the codebase-aware static analyzer; its arguments are forwarded
    verbatim to ``python -m repro.analysis``.
"""

from __future__ import annotations

import argparse
import contextlib
import inspect
import sys

from .core.diagnosis import GeneralDiagnoser
from .core.faults import PLACEMENTS, random_faults
from .core.syndrome import FaultyTesterBehavior, generate_syndrome, syndrome_table_size
from .networks.registry import FAMILIES, available_families, cached_network

__all__ = ["main", "build_parser"]


def _usage_error(message: str) -> SystemExit:
    """A malformed command line: one line on stderr, then exit status 2,
    as argparse's own usage errors."""
    print(f"repro-diagnose: error: {message}", file=sys.stderr)
    return SystemExit(2)


def _family_params(family: str, pairs: list[str], *, context: str = "") -> dict[str, int]:
    """``name=value`` pairs as constructor parameters of ``family``.

    Every name must be one the family's constructor takes, every value an
    integer, and every parameter without a default present; otherwise a
    one-line usage error names the family's parameters.  No pairs means
    the registry's small instance.
    """
    if not pairs:
        return dict(FAMILIES[family].small)
    signature = inspect.signature(FAMILIES[family].constructor).parameters
    takes = f"{family} takes " + ", ".join(f"{name}=INT" for name in signature)
    params: dict[str, int] = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        try:
            if not sep or name not in signature:
                raise ValueError(pair)
            params[name] = int(value)
        except ValueError:
            raise _usage_error(f"{context}bad parameter {pair!r}; {takes}") from None
    missing = [name for name, parameter in signature.items()
               if parameter.default is inspect.Parameter.empty and name not in params]
    if missing:
        raise _usage_error(f"{context}missing parameter {missing[0]!r}; {takes}")
    return params


def _family_network(family: str, params: dict[str, int], *, context: str = ""):
    """The registry's ``family(**params)`` instance, with a diagnosability.

    A parameter out of the family's range (the constructor refuses it, or
    the instance is too small for the literature's ``δ``) is a one-line
    usage error that names the family and quotes the refusal.
    """
    try:
        network = cached_network(family, **params)
        network.diagnosability()
    except ValueError as exc:
        given = ", ".join(f"{name}={value}" for name, value in params.items())
        raise _usage_error(f"{context}no {family} instance with {given}: {exc}") from None
    return network


def _parse_instance(spec: str) -> tuple[str, dict[str, int]]:
    """Parse ``family`` or ``family:name=value,name=value`` mix entries."""
    family, _, rest = spec.partition(":")
    if family not in available_families():
        raise _usage_error(
            f"unknown network family {family!r} in instance {spec!r}; "
            f"available: {', '.join(available_families())}"
        )
    pairs = rest.split(",") if rest else []
    context = f"bad instance {spec!r}: "
    params = _family_params(family, pairs, context=context)
    _family_network(family, params, context=context)
    return family, params


def build_parser() -> argparse.ArgumentParser:
    """The argparse parser for the ``repro-diagnose`` entry point."""
    parser = argparse.ArgumentParser(
        prog="repro-diagnose",
        description="Fault diagnosis under the comparison (MM) model — Stewart (IPDPS 2010)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    diag = sub.add_parser("diagnose", help="diagnose an injected fault set on one network")
    diag.add_argument("--family", choices=available_families(), default="hypercube")
    diag.add_argument("--param", action="append", default=[], metavar="NAME=VALUE",
                      help="network constructor parameter (repeatable), e.g. dimension=10")
    diag.add_argument("--faults", type=int, default=None,
                      help="number of faults to inject (default: the diagnosability)")
    diag.add_argument("--placement", choices=sorted(PLACEMENTS), default="random")
    diag.add_argument("--behavior", default="random", choices=FaultyTesterBehavior.NAMES,
                      help="how faulty testers answer their comparison tests")
    diag.add_argument("--seed", type=int, default=0)

    dist = sub.add_parser(
        "distributed",
        help="run the event-driven distributed protocol engine on one network",
    )
    dist.add_argument("--family", choices=available_families(), default="hypercube")
    dist.add_argument("--param", action="append", default=[], metavar="NAME=VALUE",
                      help="network constructor parameter (repeatable), e.g. dimension=8")
    dist.add_argument("--faults", type=int, default=None,
                      help="number of faults to inject (default: the diagnosability)")
    dist.add_argument("--placement", choices=sorted(PLACEMENTS), default="random")
    dist.add_argument("--behavior", default="random", choices=FaultyTesterBehavior.NAMES)
    dist.add_argument("--seed", type=int, default=0)
    dist.add_argument("--roots", type=int, default=1,
                      help="number of concurrent known-healthy start nodes")
    dist.add_argument("--loss-rate", type=float, default=0.0,
                      help="per-transmission message-loss probability")
    dist.add_argument("--duplicate-rate", type=float, default=0.0,
                      help="per-transmission duplicate-delivery probability")
    dist.add_argument("--latency", default="fixed:1", metavar="SPEC",
                      help="per-link latency distribution: fixed:K or uniform:A:B")
    dist.add_argument("--radius", type=int, default=3,
                      help="extended-star gossip radius for the comparison row")
    dist.add_argument("--trace", metavar="PATH", default=None,
                      help="write the replayable event log to PATH")

    serve = sub.add_parser(
        "serve",
        help="run the batched diagnosis service over a request stream "
             "or as an HTTP frontend",
    )
    serve.add_argument("--requests", metavar="PATH", default=None,
                       help="JSONL request file (one JSON object per line with "
                            "family/params/placement/fault_count/behavior/seed); "
                            "default: a seeded built-in demo mix")
    serve.add_argument("--demo-requests", type=int, default=12,
                       help="size of the built-in demo mix when no --requests "
                            "file is given")
    serve.add_argument("--http", type=int, default=None, metavar="PORT",
                       help="serve HTTP/JSON on PORT instead of a request "
                            "stream (0 picks an ephemeral port); endpoints: "
                            "POST /diagnose, GET /stats, GET /metrics, "
                            "GET /dashboard, GET /healthz; "
                            "runs until SIGINT/SIGTERM, then drains gracefully")
    serve.add_argument("--host", default="127.0.0.1",
                       help="bind address for --http (default: 127.0.0.1)")
    serve.add_argument("--ready-file", metavar="PATH", default=None,
                       help="with --http: atomically write the JSON object "
                            '{"host": ..., "port": ...} to PATH once the '
                            "listener is bound (ephemeral-port handshake)")
    serve.add_argument("--max-queue", type=int, default=None, metavar="N",
                       help="admission control: shed requests (HTTP 429 / "
                            "RejectedError) once N requests are queued "
                            "undispatched (default: unbounded)")
    serve.add_argument("--max-queue-per-tenant", type=int, default=None,
                       metavar="N",
                       help="per-tenant admission quota: shed a tenant's "
                            "requests once it has N queued undispatched "
                            "(store hits and coalesced joins never count)")
    serve.add_argument("--tenant-weight", action="append", default=[],
                       metavar="NAME=W",
                       help="fair-queueing weight of tenant NAME (positive "
                            "integer, repeatable; unnamed tenants weigh 1)")
    serve.add_argument("--workers", type=int, default=None, metavar="W",
                       help="dispatch batches over a W-process shared-memory "
                            "worker pool (default: in-process batches)")
    serve.add_argument("--store", metavar="PATH", default=None,
                       help="persist results in a SQLite store at PATH "
                            "(repeats are then served from disk)")
    serve.add_argument("--store-ttl", type=float, default=None, metavar="S",
                       help="evict stored results idle longer than S seconds "
                            "(swept at batch-commit time)")
    serve.add_argument("--store-max-rows", type=int, default=None, metavar="N",
                       help="bound the store to N result rows, evicting "
                            "least-recently-used rows at batch-commit time")
    serve.add_argument("--cache-capacity", type=int, default=16,
                       help="bound of the compiled-topology LRU cache")
    serve.add_argument("--max-batch", type=int, default=64,
                       help="most requests one batch takes; a batch forms "
                            "when an executor slot frees")
    serve.add_argument("--batch-delay-ms", type=float, default=None,
                       help="ignored: batches form when an executor slot "
                            "frees, not after a timer (kept so old command "
                            "lines still parse)")
    serve.add_argument("--stats-json", metavar="PATH", default=None,
                       help="write the service stats snapshot to PATH as JSON "
                            "(atomically: temp file + rename)")
    serve.add_argument("--fabric-port", type=int, default=None, metavar="PORT",
                       help="with --http: also accept remote fabric workers "
                            "on PORT (0 picks an ephemeral port); batches "
                            "dispatch to live workers, falling back to the "
                            "local path while none are connected")
    serve.add_argument("--lease-timeout", type=float, default=10.0,
                       metavar="S",
                       help="with --fabric-port: seconds an unanswered batch "
                            "lease waits before retry (default: 10)")
    serve.add_argument("--heartbeat-interval", type=float, default=1.0,
                       metavar="S",
                       help="with --fabric-port: worker heartbeat interval; "
                            "a worker silent for 3 intervals is declared "
                            "dead and its leases requeue (default: 1)")

    worker = sub.add_parser(
        "worker",
        help="run a remote fabric worker attached to a 'serve --fabric-port' "
             "coordinator",
    )
    worker.add_argument("--connect", required=True, metavar="HOST:PORT",
                        help="the coordinator's fabric endpoint")
    worker.add_argument("--id", default=None, metavar="NAME",
                        help="stable worker identity across reconnects "
                             "(default: worker-<pid>)")
    worker.add_argument("--ready-file", metavar="PATH", default=None,
                        help="atomically write {\"worker\": ..., \"pid\": ...} "
                             "to PATH once the coordinator welcomed us")
    worker.add_argument("--cache-capacity", type=int, default=8,
                        help="bound of the worker-local compiled-topology LRU")
    worker.add_argument("--loss-rate", type=float, default=0.0,
                        help="fault injection: drop each data-plane frame "
                             "(lease in, result out) with this probability")
    worker.add_argument("--duplicate-rate", type=float, default=0.0,
                        help="fault injection: deliver each surviving "
                             "data-plane frame twice with this probability")
    worker.add_argument("--latency", default="fixed:1", metavar="SPEC",
                        help="fault injection: link latency spec "
                             "('fixed:K' or 'uniform:A:B', rounds; "
                             "'fixed:1' = no added delay)")
    worker.add_argument("--delay-unit-ms", type=float, default=10.0,
                        help="milliseconds per latency round above the first")
    worker.add_argument("--fault-seed", type=int, default=0,
                        help="seed of the injected fault pattern")

    load = sub.add_parser(
        "load",
        help="closed-loop load generator against a freshly built service",
    )
    load.add_argument("--clients", type=int, default=4,
                      help="number of concurrent closed-loop clients")
    load.add_argument("--requests", type=int, default=8,
                      help="requests issued per client")
    load.add_argument("--instance", action="append", default=[], metavar="SPEC",
                      help="mix entry 'family' or 'family:name=value,...' "
                           "(repeatable; default: hypercube:dimension=8 + star:n=6)")
    load.add_argument("--seed", type=int, default=0)
    load.add_argument("--seed-pool", type=int, default=8,
                      help="distinct syndrome seeds per topology (small pools "
                           "produce repeats, exercising coalescing and the store)")
    load.add_argument("--tenant", default=None, metavar="NAME",
                      help="bill every generated request to tenant NAME "
                           "(default: the 'default' tenant)")
    load.add_argument("--http", metavar="URL", default=None,
                      help="drive the load over the wire against a running "
                           "'serve --http' frontend at URL (http://host:port); "
                           "429-shed requests are counted and retried")
    load.add_argument("--fairness", action="store_true",
                      help="run the adversarial multi-tenant mix instead: one "
                           "hot tenant bursting open-loop against a per-tenant "
                           "quota while cold tenants trickle closed-loop; "
                           "fails unless every cold request completes")
    load.add_argument("--hot-requests", type=int, default=32, metavar="N",
                      help="with --fairness: size of the hot tenant's burst")
    load.add_argument("--cold-tenants", type=int, default=4, metavar="N",
                      help="with --fairness: number of cold tenants")
    load.add_argument("--cold-requests", type=int, default=4, metavar="N",
                      help="with --fairness: closed-loop requests per cold tenant")
    load.add_argument("--tenant-quota", type=int, default=4, metavar="N",
                      help="with --fairness: the per-tenant admission quota "
                           "the hot burst slams into")
    load.add_argument("--expect-rejections", type=int, default=None, metavar="N",
                      help="with --http: exit nonzero unless at least N "
                           "requests were shed with 429 before being served")
    load.add_argument("--workers", type=int, default=None, metavar="W",
                      help="dispatch batches over a W-process pool")
    load.add_argument("--store", metavar="PATH", default=None,
                      help="SQLite result store path ('' for in-memory); "
                           "default: in-memory store")
    load.add_argument("--verify", action="store_true",
                      help="check every response against the direct pipeline")
    load.add_argument("--expect-coalesced", type=int, default=None, metavar="N",
                      help="exit nonzero unless at least N coalesced batches ran")
    load.add_argument("--expect-store-hits", type=int, default=None, metavar="N",
                      help="exit nonzero unless at least N requests were served "
                           "from the result store")
    load.add_argument("--stats-json", metavar="PATH", default=None,
                      help="write the load report (summary + stats) to PATH")

    survey = sub.add_parser("survey", help="diagnose one instance of every family")
    survey.add_argument("--size", choices=["small", "medium"], default="small")
    survey.add_argument("--seed", type=int, default=0)

    props = sub.add_parser("properties", help="structural properties of one network")
    props.add_argument("--family", choices=available_families(), default="hypercube")
    props.add_argument("--param", action="append", default=[], metavar="NAME=VALUE")
    props.add_argument("--exact-connectivity", action="store_true",
                       help="compute the exact vertex connectivity (slow on large instances)")

    # "lint" is dispatched in main() before this parser runs (its argv is
    # forwarded verbatim to repro.analysis, whose own parser owns the
    # flags); registered here only so it shows in --help.
    sub.add_parser(
        "lint",
        help="run the codebase-aware static analyzer (python -m repro.analysis)",
    )
    return parser


def _cmd_diagnose(args: argparse.Namespace) -> int:
    params = _family_params(args.family, args.param)
    network = _family_network(args.family, params)
    delta = network.diagnosability()
    count = delta if args.faults is None else args.faults
    faults = PLACEMENTS[args.placement](network, count, seed=args.seed)
    syndrome = generate_syndrome(network, faults, behavior=args.behavior, seed=args.seed)
    result = GeneralDiagnoser(network).diagnose(syndrome)
    correct = result.faulty == faults

    print(f"network          : {args.family} {params} (N={network.num_nodes}, Δ={network.max_degree})")
    print(f"diagnosability δ : {delta}")
    print(f"injected faults  : {sorted(faults)}")
    print(f"diagnosed faults : {sorted(result.faulty)}")
    print(f"correct          : {correct}")
    print(f"probes           : {result.num_probes}")
    print(f"syndrome lookups : {result.lookups} (full table: {syndrome_table_size(network)})")
    print(f"elapsed          : {result.elapsed_seconds * 1e3:.2f} ms")
    return 0 if correct else 1


def _cmd_distributed(args: argparse.Namespace) -> int:
    from .backend.array_syndrome import ArraySyndrome
    from .backend.csr import compile_network
    from .distributed import ChannelConfig, ProtocolEngine, spread_roots

    params = _family_params(args.family, args.param)
    network = _family_network(args.family, params)
    csr = compile_network(network)
    count = network.diagnosability() if args.faults is None else args.faults
    faults = PLACEMENTS[args.placement](network, count, seed=args.seed)
    syndrome = ArraySyndrome.from_faults(csr, faults, behavior=args.behavior,
                                         seed=args.seed)
    healthy = [v for v in range(network.num_nodes) if v not in faults]
    try:
        roots = spread_roots(healthy, args.roots)
    except ValueError as exc:
        raise SystemExit(str(exc))
    config = ChannelConfig(latency=args.latency, loss_rate=args.loss_rate,
                           duplicate_rate=args.duplicate_rate, seed=args.seed)
    engine = ProtocolEngine(csr, config=config)
    outcome = engine.run_set_builder(syndrome, roots, trace=args.trace is not None)
    gossip = engine.run_gossip(args.radius)
    false_positives = sorted(outcome.faulty - faults)

    print(f"network          : {args.family} {params} (N={network.num_nodes})")
    print(f"channel          : {config.describe()}")
    print(f"roots            : {list(roots)}")
    print(f"injected faults  : {sorted(faults)}")
    print(f"diagnosed faults : {sorted(outcome.faulty)}")
    print(f"false positives  : {false_positives}")
    print(f"rounds           : {outcome.rounds} "
          f"(growth {outcome.growth_rounds} + convergecast {outcome.convergecast_rounds})")
    print(f"messages         : {outcome.messages} "
          f"(invites {outcome.invites}, accepts {outcome.accepts}, "
          f"reports {outcome.reports}, retries {outcome.retries})")
    print(f"channel faults   : drops {outcome.drops}, duplicates {outcome.duplicates}, "
          f"collisions {outcome.collisions}")
    print(f"tree             : size {outcome.tree_size}, depth {outcome.tree_depth}, "
          f"contributors {outcome.contributors}, merges {outcome.merges}")
    print(f"gossip (r={args.radius})     : {gossip.rounds} rounds, "
          f"{gossip.messages} messages "
          f"({gossip.messages / max(outcome.messages, 1):.1f}x the engine)")
    if args.trace is not None:
        _write_text_atomic(args.trace, outcome.trace.to_text())
        print(f"trace            : {len(outcome.trace)} events -> {args.trace}")
    return 0 if not false_positives else 1


def _write_json_atomic(path: str, payload) -> None:
    """Dump JSON to ``path`` via a same-directory temp file + ``os.replace``.

    CI smokes (and anything else downstream) parse these files; a crash
    mid-dump must leave either the previous content or the new content,
    never truncated JSON.
    """
    import json

    _write_text_atomic(path, json.dumps(payload, indent=2))


def _write_text_atomic(path: str, text: str) -> None:
    """Write ``text`` to ``path`` via a same-directory temp file + rename,
    fsyncing both the file and its directory, so downstream readers (trace
    differs, CI smokes) never observe a torn artifact."""
    import os
    import tempfile

    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp_path = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp_path, path)
        # The rename itself lives in the directory entry: without fsyncing
        # the directory, a crash can lose the replace and resurrect the old
        # file even though the data blocks were flushed above.
        dir_fd = os.open(directory, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)
    except BaseException:
        if os.path.exists(tmp_path):
            os.unlink(tmp_path)
        raise


def _demo_requests(count: int):
    """The built-in ``serve`` demo mix (seeded, includes repeats)."""
    from .service import DiagnosisRequest

    mix = (("hypercube", {"dimension": 7}), ("star", {"n": 6}))
    return [
        DiagnosisRequest.seeded(
            *mix[i % len(mix)], seed=(i // len(mix)) % max(1, count // 3)
        )
        for i in range(count)
    ]


def _read_requests_file(path: str):
    import json

    from .service import DiagnosisRequest

    requests = []
    try:
        with open(path) as fh:
            for number, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                try:
                    requests.append(DiagnosisRequest.from_dict(json.loads(line)))
                except (ValueError, TypeError) as exc:
                    raise SystemExit(f"{path}:{number}: bad request: {exc}")
    except OSError as exc:
        raise SystemExit(f"cannot read requests file: {exc}")
    if not requests:
        raise SystemExit(f"{path}: no requests found")
    return requests


def _parse_tenant_weights(entries: list) -> dict | None:
    """``NAME=W`` pairs from repeated ``--tenant-weight`` flags."""
    from .service import validate_tenant

    if not entries:
        return None
    weights: dict[str, int] = {}
    for entry in entries:
        name, separator, value = entry.partition("=")
        if not separator or not name:
            raise SystemExit(
                f"--tenant-weight takes NAME=W, got {entry!r}"
            )
        try:
            validate_tenant(name)
        except ValueError as exc:
            raise SystemExit(f"--tenant-weight {entry!r}: {exc}")
        if not value.isdigit() or int(value) < 1:
            raise SystemExit(
                f"--tenant-weight {entry!r}: weight must be a positive integer"
            )
        weight = int(value)
        if name in weights:
            raise SystemExit(f"--tenant-weight names {name!r} twice")
        weights[name] = weight
    return weights


def _validate_serve_args(args: argparse.Namespace) -> None:
    if args.workers is not None and args.workers < 1:
        raise SystemExit("--workers must be at least 1")
    if args.cache_capacity < 0:
        raise SystemExit("--cache-capacity must be non-negative")
    if args.max_batch < 1:
        raise SystemExit("--max-batch must be at least 1")
    if args.batch_delay_ms is not None:
        if args.batch_delay_ms < 0:
            raise SystemExit("--batch-delay-ms must be non-negative")
        print("note: --batch-delay-ms is ignored; batches form when an "
              "executor slot frees", file=sys.stderr)
    if args.max_queue is not None and args.max_queue < 1:
        raise SystemExit("--max-queue must be at least 1")
    if args.max_queue_per_tenant is not None and args.max_queue_per_tenant < 1:
        raise SystemExit("--max-queue-per-tenant must be at least 1")
    if args.store_ttl is not None and args.store_ttl <= 0:
        raise SystemExit("--store-ttl must be positive")
    if args.store_max_rows is not None and args.store_max_rows < 1:
        raise SystemExit("--store-max-rows must be at least 1")
    if args.store is None and (args.store_ttl is not None
                               or args.store_max_rows is not None):
        raise SystemExit("--store-ttl/--store-max-rows need --store")
    if args.http is not None:
        if not 0 <= args.http <= 65535:
            raise SystemExit("--http PORT must be within 0..65535")
        if args.requests is not None:
            raise SystemExit("--http serves network clients; drop --requests")
    elif args.ready_file is not None:
        raise SystemExit("--ready-file only makes sense with --http")
    elif args.fabric_port is not None:
        raise SystemExit("--fabric-port only makes sense with --http")
    if args.fabric_port is not None and not 0 <= args.fabric_port <= 65535:
        raise SystemExit("--fabric-port must be within 0..65535")
    if args.lease_timeout <= 0:
        raise SystemExit("--lease-timeout must be positive")
    if args.heartbeat_interval <= 0:
        raise SystemExit("--heartbeat-interval must be positive")


@contextlib.contextmanager
def _service_factory(args: argparse.Namespace):
    """The ``serve`` flags' optional worker pool and store, torn down on
    exit, and a factory for the :class:`DiagnosisService` over them (to be
    called inside the event loop).  The pool module is imported only under
    ``--workers``, so in-process serving never loads it."""
    from .service import DiagnosisService, ResultStore

    pool = store = None
    try:
        if args.workers is not None:
            from .parallel import WorkerPool

            pool = WorkerPool(max_workers=args.workers)
        if args.store is not None:
            store = ResultStore(args.store, ttl_seconds=args.store_ttl,
                                max_rows=args.store_max_rows)
        yield lambda: DiagnosisService(
            pool=pool,
            max_batch_size=args.max_batch,
            topology_cache_capacity=args.cache_capacity,
            store=store,
            max_queue_depth=args.max_queue,
            max_queue_per_tenant=args.max_queue_per_tenant,
            tenant_weights=_parse_tenant_weights(args.tenant_weight),
        )
    finally:
        if pool is not None:
            pool.shutdown()
        if store is not None:
            store.close()


def _serve_http(args: argparse.Namespace) -> int:
    import asyncio
    import signal

    from .service import HttpFrontend

    async def _run(make_service) -> dict:
        service = make_service()
        coordinator = None
        if args.fabric_port is not None:
            from .fabric import FabricCoordinator

            coordinator = FabricCoordinator(
                host=args.host,
                port=args.fabric_port,
                metrics=service.metrics,
                heartbeat_interval=args.heartbeat_interval,
                lease_timeout=args.lease_timeout,
            )
            await coordinator.start()
            service.remote = coordinator
            print(f"fabric workers welcome on {coordinator.address}",
                  flush=True)
        frontend = HttpFrontend(service, host=args.host, port=args.http)
        await frontend.start()
        print(f"listening on {frontend.address} "
              f"(max queue {args.max_queue or 'unbounded'}, "
              f"store {args.store or 'none'})", flush=True)
        if args.ready_file is not None:
            ready = {"host": args.host, "port": frontend.port}
            if coordinator is not None:
                ready["fabric_port"] = coordinator.port
            _write_json_atomic(args.ready_file, ready)
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stop.set)
        await stop.wait()
        print("shutting down: draining in-flight requests", flush=True)
        await frontend.close()
        await service.close()
        if coordinator is not None:
            await coordinator.close()
        stats = service.stats()
        stats["http"] = frontend.stats()
        return stats

    with _service_factory(args) as make_service:
        stats = asyncio.run(_run(make_service))
    print(f"served {stats['http']['requests']} HTTP requests "
          f"({stats['http']['shed']} shed with 429, "
          f"{stats['http']['client_errors']} client errors) over "
          f"{stats['http']['connections_total']} connections")
    if args.stats_json is not None:
        _write_json_atomic(args.stats_json, stats)
        print(f"stats -> {args.stats_json}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    _validate_serve_args(args)
    if args.http is not None:
        return _serve_http(args)
    if args.requests is not None:
        requests = _read_requests_file(args.requests)
    else:
        if args.demo_requests < 1:
            raise SystemExit("--demo-requests must be at least 1")
        requests = _demo_requests(args.demo_requests)

    async def _serve(make_service):
        async with make_service() as service:
            responses = await service.submit_many(requests)
            return responses, service.stats()

    from .service import RejectedError

    try:
        with _service_factory(args) as make_service:
            responses, stats = asyncio.run(_serve(make_service))
    except RejectedError as exc:
        # A JSONL stream submits everything at once, so a tight --max-queue
        # sheds part of its own input — an operator error, not a crash.
        raise SystemExit(
            f"request shed by admission control: {exc} "
            f"(the stream submits all requests at once; raise --max-queue)"
        )
    except (ValueError, TypeError) as exc:
        # e.g. a params name the constructor rejects, only detectable once
        # the topology is actually built.
        raise SystemExit(f"request failed: {exc}")

    for request, response in zip(requests, responses):
        status = f"{len(response.faulty)} faults" if response.ok else response.error
        print(f"{request.describe():<55} -> {status:<20} "
              f"[{response.source}, batch={response.batch_size}, "
              f"{response.elapsed_seconds * 1e3:.1f} ms]")
    print(f"\nserved {stats['requests']} requests: "
          f"{stats['computed']} computed in {stats['batches']} batches "
          f"({stats['coalesced_batches']} coalesced) in {stats['turns']} "
          f"turns, {stats['store_hits']} from store, "
          f"{stats['coalesced_duplicates']} coalesced duplicates")
    print(f"worker compiles: {stats['worker_compiles']}, "
          f"topology cache: {stats['topology_cache']}")
    if args.stats_json is not None:
        _write_json_atomic(args.stats_json, stats)
        print(f"stats -> {args.stats_json}")
    return 0


def _cmd_worker(args: argparse.Namespace) -> int:
    import asyncio
    import os
    import signal

    from .fabric import run_worker
    from .service.http import parse_http_target

    try:
        host, port = parse_http_target(args.connect)
    except ValueError as exc:
        raise SystemExit(str(exc))
    if args.cache_capacity < 0:
        raise SystemExit("--cache-capacity must be non-negative")
    if args.delay_unit_ms < 0:
        raise SystemExit("--delay-unit-ms must be non-negative")

    fault_config = None
    if args.loss_rate or args.duplicate_rate or args.latency != "fixed:1":
        from .distributed.events import ChannelConfig

        try:
            fault_config = ChannelConfig(
                latency=args.latency,
                loss_rate=args.loss_rate,
                duplicate_rate=args.duplicate_rate,
                seed=args.fault_seed,
            )
        except ValueError as exc:
            raise SystemExit(str(exc))

    def _on_ready(worker) -> None:
        print(f"worker {worker.worker_id} joined {host}:{port} "
              f"(generation {worker.generation})", flush=True)
        if args.ready_file is not None:
            _write_json_atomic(
                args.ready_file,
                {"worker": worker.worker_id, "pid": os.getpid(),
                 "generation": worker.generation},
            )

    async def _run():
        stop = asyncio.Event()
        loop = asyncio.get_running_loop()
        for signum in (signal.SIGINT, signal.SIGTERM):
            loop.add_signal_handler(signum, stop.set)
        return await run_worker(
            host, port,
            worker_id=args.id,
            fault_config=fault_config,
            delay_unit=args.delay_unit_ms / 1e3,
            topology_cache_capacity=args.cache_capacity,
            ready=_on_ready,
            stop=stop,
        )

    try:
        worker = asyncio.run(_run())
    except ConnectionError as exc:
        raise SystemExit(f"worker: {exc}")
    print(f"worker {worker.worker_id} done: "
          f"{worker.leases_received} leases received, "
          f"{worker.leases_served} served, "
          f"{worker.leases_dropped} dropped by fault injection")
    return 0


def _cmd_load_fairness(args: argparse.Namespace) -> int:
    """The adversarial multi-tenant mix (``load --fairness``).

    Runs the hot-burst-vs-cold-trickle scenario twice with the same seed and
    insists the shed splits agree byte for byte — admission decisions must be
    a pure function of submission order — then gates on 100% cold-tenant
    completion.
    """
    import json

    for flag, present in (("--http", args.http is not None),
                          ("--verify", args.verify),
                          ("--workers", args.workers is not None),
                          ("--store", args.store is not None),
                          ("--tenant", args.tenant is not None),
                          ("--expect-coalesced", args.expect_coalesced is not None),
                          ("--expect-store-hits", args.expect_store_hits is not None),
                          ("--expect-rejections", args.expect_rejections is not None)):
        if present:
            raise SystemExit(f"--fairness runs its own in-process scenario; "
                             f"drop {flag}")
    for name, value in (("--hot-requests", args.hot_requests),
                        ("--cold-tenants", args.cold_tenants),
                        ("--cold-requests", args.cold_requests),
                        ("--tenant-quota", args.tenant_quota)):
        if value < 1:
            raise SystemExit(f"{name} must be at least 1")

    mix = [_parse_instance(spec) for spec in args.instance] or [
        ("hypercube", {"dimension": 8}),
        ("star", {"n": 6}),
    ]
    from .service import FairnessSpec, run_fairness_sync

    spec = FairnessSpec.from_mix(
        mix,
        hot_requests=args.hot_requests,
        cold_tenants=args.cold_tenants,
        cold_requests_per_tenant=args.cold_requests,
        max_queue_per_tenant=args.tenant_quota,
        seed=args.seed,
        seed_pool=args.seed_pool,
    )
    report = run_fairness_sync(spec)
    repeat = run_fairness_sync(spec)
    summary = report.summary()
    print(f"fairness: hot tenant {summary['hot_served']}/"
          f"{summary['hot_requests']} served, {summary['hot_shed']} shed "
          f"(quota {summary['max_queue_per_tenant']}); "
          f"{summary['cold_tenants']} cold tenants "
          f"{summary['cold_requests']} requests, "
          f"completion {summary['cold_completion']:.0%} "
          f"in {summary['wall_seconds']} s")

    exit_code = 0
    first = json.dumps(report.split(), sort_keys=True)
    second = json.dumps(repeat.split(), sort_keys=True)
    if first != second:
        print("FAIL: two seeded runs shed different requests\n"
              f"  run 1: {first}\n  run 2: {second}")
        exit_code = 1
    if report.cold_completion < 1.0:
        print(f"FAIL: cold tenants completed {report.cold_completion:.0%} "
              f"of their requests (expected 100%)")
        exit_code = 1
    if report.hot_shed == 0 and args.hot_requests > args.tenant_quota:
        print("FAIL: the hot burst exceeded its quota but nothing was shed")
        exit_code = 1
    if args.stats_json is not None:
        _write_json_atomic(
            args.stats_json,
            {"fairness": summary, "split": report.split(),
             "stats": report.stats},
        )
        print(f"report -> {args.stats_json}")
    return exit_code


def _cmd_load(args: argparse.Namespace) -> int:
    if args.clients < 1:
        raise SystemExit("--clients must be at least 1")
    if args.requests < 1:
        raise SystemExit("--requests must be at least 1")
    if args.seed_pool < 1:
        raise SystemExit("--seed-pool must be at least 1")
    if args.workers is not None and args.workers < 1:
        raise SystemExit("--workers must be at least 1")
    if args.fairness:
        return _cmd_load_fairness(args)
    if args.http is not None:
        # The server at URL owns the service configuration; flags that
        # would build a local service contradict the wire transport.
        for flag, present in (("--workers", args.workers is not None),
                              ("--store", args.store is not None)):
            if present:
                raise SystemExit(f"--http drives a remote server; drop {flag}")
    elif args.expect_rejections is not None:
        raise SystemExit("--expect-rejections needs --http (in-process runs "
                         "never shed: they have no admission bound)")
    mix = [_parse_instance(spec) for spec in args.instance] or [
        ("hypercube", {"dimension": 8}),
        ("star", {"n": 6}),
    ]

    from .service import DEFAULT_TENANT, LoadSpec, ResultStore, run_load_sync

    try:
        spec = LoadSpec.from_mix(
            mix,
            clients=args.clients,
            requests_per_client=args.requests,
            seed=args.seed,
            seed_pool=args.seed_pool,
            tenant=args.tenant if args.tenant is not None else DEFAULT_TENANT,
        )
    except ValueError as exc:
        raise SystemExit(str(exc))

    if args.http is not None:
        from .service import HttpError, run_load_http_sync

        mode = "http"
        try:
            report = run_load_http_sync(spec, args.http, verify=args.verify)
        except ValueError as exc:
            raise SystemExit(str(exc))
        except (HttpError, OSError) as exc:
            raise SystemExit(f"HTTP load against {args.http} failed: {exc}")
    else:
        mode = "batched"
        pool = None
        if args.workers is not None:
            from .parallel import WorkerPool

            pool = WorkerPool(max_workers=args.workers)
        store = ResultStore(args.store if args.store else ":memory:")
        try:
            report = run_load_sync(spec, pool=pool, store=store, verify=args.verify)
        finally:
            if pool is not None:
                pool.shutdown()
            store.close()

    summary = report.summary()
    print(f"{mode}: {summary['requests']} requests / "
          f"{summary['wall_seconds']} s = {summary['throughput_rps']} req/s "
          f"(sources {summary['sources']}, errors {summary['errors']}, "
          f"rejections {summary['rejections']})")
    stats = summary["stats"]
    print(f"  batches {stats['batches']} ({stats['coalesced_batches']} coalesced, "
          f"mean size {stats['mean_batch_size']}) in {stats['turns']} turns, "
          f"store hits "
          f"{stats['store_hits']}, coalesced duplicates "
          f"{stats['coalesced_duplicates']}, worker compiles "
          f"{stats['worker_compiles']}, latency p50/p99 "
          f"{stats['latency_ms'].get('p50')}/{stats['latency_ms'].get('p99')} ms")
    if args.verify:
        print(f"  verified against the direct pipeline: "
              f"{summary['mismatches']} mismatches")

    if args.stats_json is not None:
        _write_json_atomic(args.stats_json, {mode: summary})
        print(f"report -> {args.stats_json}")

    exit_code = 0
    if args.verify and report.mismatches:
        print("FAIL: served responses diverged from the direct pipeline")
        exit_code = 1
    if args.expect_coalesced is not None:
        coalesced = stats["coalesced_batches"]
        if coalesced < args.expect_coalesced:
            print(f"FAIL: expected >= {args.expect_coalesced} coalesced batches, "
                  f"saw {coalesced}")
            exit_code = 1
    if args.expect_store_hits is not None:
        hits = stats["store_hits"]
        if hits < args.expect_store_hits:
            print(f"FAIL: expected >= {args.expect_store_hits} store hits, saw {hits}")
            exit_code = 1
    if args.expect_rejections is not None:
        if report.rejections < args.expect_rejections:
            print(f"FAIL: expected >= {args.expect_rejections} 429-shed "
                  f"requests, saw {report.rejections}")
            exit_code = 1
    return exit_code


def _cmd_survey(args: argparse.Namespace) -> int:
    from .analysis.reporting import format_table

    rows = []
    exit_code = 0
    for name, spec in sorted(FAMILIES.items()):
        params = spec.small if args.size == "small" else spec.medium
        network = cached_network(name, **params)
        delta = network.diagnosability()
        faults = random_faults(network, delta, seed=args.seed)
        syndrome = generate_syndrome(network, faults, seed=args.seed)
        result = GeneralDiagnoser(network).diagnose(syndrome)
        correct = result.faulty == faults
        if not correct:
            exit_code = 1
        rows.append((name, str(params), network.num_nodes, delta, correct,
                     result.lookups, f"{result.elapsed_seconds * 1e3:.1f}"))
    print(format_table(
        ["family", "params", "N", "δ", "correct", "lookups", "ms"],
        rows,
        title=f"Survey of the paper's Section 5 families ({args.size} instances)",
    ))
    return exit_code


def _cmd_properties(args: argparse.Namespace) -> int:
    from .analysis.reporting import format_table
    from .networks.properties import verify_theorem1_preconditions

    params = _family_params(args.family, args.param)
    network = _family_network(args.family, params)
    report = verify_theorem1_preconditions(network, compute_connectivity=args.exact_connectivity)
    print(format_table(
        ["family", "N", "degree", "regular", "δ", "κ (claimed)", "κ (measured)", "Theorem 1 applies"],
        [report.as_row()],
        title=f"Structural properties of {args.family} {params}",
    ))
    print(f"full syndrome table size: {syndrome_table_size(network)} entries")
    return 0


def main(argv: list[str] | None = None) -> int:
    """Entry point (returns a process exit code)."""
    raw = sys.argv[1:] if argv is None else list(argv)
    if raw and raw[0] == "lint":
        # Forwarded verbatim: the analyzer's parser owns every lint flag,
        # so `repro-diagnose lint X` == `python -m repro.analysis X`.
        from repro.analysis.__main__ import main as lint_main

        return lint_main(raw[1:])
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "diagnose":
        return _cmd_diagnose(args)
    if args.command == "distributed":
        return _cmd_distributed(args)
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "worker":
        return _cmd_worker(args)
    if args.command == "load":
        return _cmd_load(args)
    if args.command == "survey":
        return _cmd_survey(args)
    if args.command == "properties":
        return _cmd_properties(args)
    parser.error(f"unknown command {args.command!r}")
    return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
