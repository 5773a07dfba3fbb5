"""Audit harness: cross-check the linear passes against the exact oracles.

For every instance the harness checks three layers:

  (a) validity: the emitted Steiner dominating set contains every leaf,
      repeats no vertex, spans the tree, and dominates it;
  (b) minimum-domination agreement: the core is the forest induced
      outside N[leaves], the set is exactly the leaves plus the solver's
      set for the core, and that set and the forest pass on the whole
      instance each dominate their forest, at every size, with as many
      vertices as the DP and, within its cap, enumeration find;
  (c) the headline size: construction size (= leaf count + core
      domination number) versus the exact Steiner domination number.

Layer (c) is the interesting one.  The construction can lose; every
instance where the oracle finds a strictly smaller set becomes a
DiscrepancyCertificate, written as a .par file plus a JSON sidecar that
re-validates from the files alone.  Discrepancies are findings, not
failures: the run exits 0 when clean, 2 when certificates were written,
and 1 only on genuine internal errors such as a validity break or the
impossible case of the construction beating the verified optimum.

Instances are processed sequentially in a deterministic order, so a rerun
with the same arguments reproduces the report byte for byte.
"""

from __future__ import annotations

import json
import random
from itertools import chain, repeat
from pathlib import Path

from .corpus import ENUMERATION_MAX_N, FIXTURES, enumerate_parent_arrays, gen
from .forest_domination import forest_domination
from .oracles import (
    DOMINATING_CAP,
    STEINER_DOMINATING_CAP,
    domination_number_dp,
    induced_forest,
    is_dominating_set,
    is_steiner_set,
    min_dominating_set,
    min_steiner_dominating_set,
)
from .steiner_domination import steiner_domination
from .tree_model import (
    AdjacencyTree,
    ParentArray,
    Record,
    ValidationError,
    build_adjacency,
    closed_neighborhood,
    format_parent_file,
    leaf_set,
    parse_parent_file,
)

AUDIT_FIXTURE = "theorem1-audit-8"


class DiscrepancyCertificate(Record):
    """Proof that the construction overshoots on one instance.

    Carries the instance, both sizes, and a witness set strictly smaller
    than the construction's output.  Construction re-runs both definitions,
    is_steiner_set and is_dominating_set, on the witness and refuses
    inconsistent contents, so an in-memory certificate is always
    self-consistent.
    """

    __slots__ = ("instance", "algorithm_size", "oracle_size", "oracle_witness")

    def __init__(
        self, instance: ParentArray, algorithm_size: int, oracle_size: int,
        oracle_witness: tuple[int, ...],
    ) -> None:
        if not oracle_size < algorithm_size:
            raise ValidationError(
                f"certificate needs oracle_size < algorithm_size, got "
                f"{oracle_size} vs {algorithm_size}"
            )
        if len(oracle_witness) != oracle_size:
            raise ValidationError(
                f"witness has {len(oracle_witness)} vertices, "
                f"claimed size {oracle_size}"
            )
        distinct = len(set(oracle_witness))
        if distinct != oracle_size:
            raise ValidationError(
                f"witness repeats a vertex: {distinct} distinct of {oracle_size}"
            )
        t = build_adjacency(instance)
        if not (is_steiner_set(t, oracle_witness) and is_dominating_set(t, oracle_witness)):
            raise ValidationError("certificate witness failed a definitional check")
        super().__init__(instance, algorithm_size, oracle_size, oracle_witness)


def _certificate_fields(cert: DiscrepancyCertificate) -> dict:
    """The fields that the sidecar and the report's entry share."""
    return {
        "n": cert.instance.n,
        "instance": list(cert.instance.parent),
        "algorithm_size": cert.algorithm_size,
        "oracle_size": cert.oracle_size,
    }


def _certificate_json(cert: DiscrepancyCertificate) -> str:
    payload = _certificate_fields(cert)
    payload["oracle_witness"] = list(cert.oracle_witness)
    # a certificate exists only if its witness passed both checks
    payload["checks"] = {"steiner": True, "dominating": True}
    return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def write_certificate(
    cert: DiscrepancyCertificate, cert_dir: str | Path, stem: str
) -> tuple[Path, Path]:
    """Write <stem>.par and <stem>.json under cert_dir, creating it."""
    directory = Path(cert_dir)
    directory.mkdir(parents=True, exist_ok=True)
    par_path = directory / f"{stem}.par"
    json_path = directory / f"{stem}.json"
    par_path.write_text(format_parent_file(cert.instance))
    json_path.write_text(_certificate_json(cert))
    return par_path, json_path


def revalidate_certificate(
    par_path: str | Path, json_path: str | Path
) -> DiscrepancyCertificate:
    """Re-derive a certificate from its files alone.

    Recomputes the construction side, re-runs both witness checks, and,
    when the instance is small enough for the enumeration oracle, confirms
    the claimed oracle size really is the minimum.  Raises ValidationError
    on any mismatch with the sidecar, a sidecar that is not JSON and a
    missing or mistyped field included, and ParseError, as ``solve`` does,
    on a .par file outside the grammar or with a non-ASCII byte.
    """
    parents = parse_parent_file(Path(par_path).read_bytes())
    try:
        data = json.loads(Path(json_path).read_text())
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ValidationError(f"sidecar is not JSON: {exc}") from None
    n = _sidecar_field(data, "n", int)
    instance = _sidecar_field(data, "instance", list)
    algorithm_size = _sidecar_field(data, "algorithm_size", int)
    oracle_size = _sidecar_field(data, "oracle_size", int)
    witness = _sidecar_field(data, "oracle_witness", list)
    if n != parents.n or instance != tuple(parents.parent):
        raise ValidationError("sidecar instance does not match the .par file")
    recomputed = steiner_domination(parents).size
    if recomputed != algorithm_size:
        raise ValidationError(
            f"recomputed construction size {recomputed} != recorded {algorithm_size}"
        )
    cert = DiscrepancyCertificate(parents, algorithm_size, oracle_size, witness)
    if parents.n <= STEINER_DOMINATING_CAP:
        exact = min_steiner_dominating_set(build_adjacency(parents))[0]
        if exact != oracle_size:
            raise ValidationError(
                f"recorded oracle size {oracle_size} but enumeration finds {exact}"
            )
    return cert


def _sidecar_field(data: object, key: str, kind: type) -> int | tuple[int, ...]:
    """A sidecar's integer field, or its list of integers as a tuple; a
    missing or mistyped field is a ValidationError that names it."""
    value = data.get(key) if isinstance(data, dict) else None
    items = value if kind is list and isinstance(value, list) else [value]
    if not isinstance(value, kind) or any(type(x) is not int for x in items):
        noun = "a list of integers" if kind is list else "an integer"
        raise ValidationError(f"sidecar field {key!r} must be {noun}, got {value!r}")
    return tuple(value) if kind is list else value


class InstanceAudit(Record):
    """All per-instance audit outcomes, pass/fail per layer; oracle_size is
    None when the instance exceeds every oracle cap."""

    __slots__ = (
        "algorithm_size", "oracle_size", "validity_ok", "optimality_ok",
        "certificate", "internal_error",
    )


def _is_minimum_dominating_set(f: AdjacencyTree, s: tuple[int, ...]) -> bool:
    """True iff s dominates the forest f with the DP's domination number
    of vertices, and, within DOMINATING_CAP, enumeration's minimum too."""
    return (
        len(s) == domination_number_dp(f)
        and is_dominating_set(f, s)
        and (f.n > DOMINATING_CAP or len(s) == min_dominating_set(f)[0])
    )


def audit_instance(parents: ParentArray) -> InstanceAudit:
    """Run all three audit layers on a single tree."""
    t = build_adjacency(parents)
    res = steiner_domination(parents)
    # the result builds each tuple on every read: read each one once
    sd, size, core_set = res.steiner_dominating_set, res.size, res.core_dominating_set
    leaves = res.leaves

    validity_ok = (
        set(leaves) <= set(sd)
        and is_steiner_set(t, sd)
        and is_dominating_set(t, sd)
        and len(set(sd)) == len(sd) == size
    )

    nl = set(closed_neighborhood(t, leaf_set(t)))
    core, core_labels = induced_forest(t, [v for v in range(1, t.n + 1) if v not in nl])
    core_dom = set(core_set)
    core_local = tuple(h for h, v in enumerate(core_labels, start=1) if v in core_dom)
    optimality_ok = (
        res.core.to_tree == core_labels
        and len(core_local) == len(core_set)
        and set(sd) == core_dom.union(leaves)
        and _is_minimum_dominating_set(core, core_local)
        and _is_minimum_dominating_set(t, forest_domination(parents))
    )

    oracle_size: int | None = None
    certificate: DiscrepancyCertificate | None = None
    internal_error: str | None = None
    if t.n <= STEINER_DOMINATING_CAP:
        oracle_size, witness = min_steiner_dominating_set(t)
        if oracle_size < size:
            certificate = DiscrepancyCertificate(parents, size, oracle_size, witness)
        elif oracle_size > size:
            # sd itself is a valid candidate of this size, so the
            # enumeration finding anything larger means an oracle bug
            internal_error = (
                f"construction size {size} beats enumeration minimum "
                f"{oracle_size} on {list(parents.parent)}"
            )
    return InstanceAudit(
        size, oracle_size, validity_ok, optimality_ok, certificate, internal_error
    )


class VerifyReport(Record):
    """A verify run's totals; fixture_outcome is "certificate" or "clean"."""

    __slots__ = (
        "mode", "max_n", "count", "seed", "instances", "oracle_checked",
        "validity_failures", "optimality_failures", "internal_errors", "certificates",
        "certificate_files", "fixture_name", "fixture_algorithm_size",
        "fixture_oracle_size", "fixture_outcome", "exit_code",
    )

    def to_json_text(self) -> str:
        payload = {
            "mode": self.mode,
            "max_n": self.max_n,
            "count": self.count,
            "seed": self.seed,
            "instances": self.instances,
            "oracle_checked": self.oracle_checked,
            "validity_failures": self.validity_failures,
            "optimality_failures": self.optimality_failures,
            "internal_errors": list(self.internal_errors),
            "discrepancies": len(self.certificates),
            "certificates": [
                {"file": stem, **_certificate_fields(cert)}
                for stem, cert in zip(self.certificate_files, self.certificates)
            ],
            "fixture": {
                "name": self.fixture_name,
                "algorithm_size": self.fixture_algorithm_size,
                "oracle_size": self.fixture_oracle_size,
                "outcome": self.fixture_outcome,
            },
            "exit_code": self.exit_code,
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _instance_stream(mode, max_n, count, seed):
    if mode == "exhaustive":
        for n in range(2, max_n + 1):
            yield from enumerate_parent_arrays(n, "trees")
    else:
        rng = random.Random(seed)
        for _ in range(count):
            n = rng.randint(2, max_n)
            yield gen("prufer", n, rng.getrandbits(64))


def run_verify(
    mode: str,
    max_n: int,
    count: int = 0,
    seed: int = 0,
    report_path: str | Path | None = None,
    cert_dir: str | Path | None = None,
) -> VerifyReport:
    """Audit a corpus and the named fixture; optionally write files.

    exhaustive mode walks every tree parent array with 2 <= n <= max_n
    (max_n <= 10); random mode draws ``count`` uniform random trees with n
    in [2, max_n], max_n <= 24, the Steiner oracle's cap.  Certificates are
    written under cert_dir when given; the report JSON is written to
    report_path when given.  The returned report always carries the
    certificates in memory.
    """
    if mode not in ("exhaustive", "random"):
        raise ValidationError(f"mode must be 'exhaustive' or 'random', got {mode!r}")
    if mode == "exhaustive":
        if not 2 <= max_n <= ENUMERATION_MAX_N:
            raise ValidationError(
                f"exhaustive mode needs 2 <= max_n <= {ENUMERATION_MAX_N}, got {max_n}"
            )
        count = 0  # exhaustive runs ignore the sample count
    else:
        if not 2 <= max_n <= STEINER_DOMINATING_CAP:
            raise ValidationError(
                f"random mode needs 2 <= max_n <= {STEINER_DOMINATING_CAP} "
                f"(the Steiner oracle's cap), got {max_n}"
            )
        if count < 1:
            raise ValidationError(f"random mode needs count >= 1, got {count}")

    instances = 0
    oracle_checked = 0
    validity_failures = 0
    optimality_failures = 0
    internal_errors: list[str] = []
    certificates: list[DiscrepancyCertificate] = []
    certificate_files: list[str] = []

    # the fixture is audited last, under its own stem, and is no instance
    stream = zip(_instance_stream(mode, max_n, count, seed), repeat(None))
    for parents, stem in chain(stream, [(FIXTURES[AUDIT_FIXTURE], AUDIT_FIXTURE)]):
        audit = audit_instance(parents)
        if stem is None:
            instances += 1
        if audit.oracle_size is not None:
            oracle_checked += 1
        if not audit.validity_ok:
            validity_failures += 1
        if not audit.optimality_ok:
            optimality_failures += 1
        if audit.internal_error is not None:
            internal_errors.append(audit.internal_error)
        if audit.certificate is not None:
            stem = stem or f"discrepancy-{len(certificates):05d}"
            certificates.append(audit.certificate)
            certificate_files.append(stem)
            if cert_dir is not None:
                write_certificate(audit.certificate, cert_dir, stem)

    exit_code = 0
    if certificates:
        exit_code = 2
    if validity_failures or optimality_failures or internal_errors:
        exit_code = 1

    report = VerifyReport(
        mode=mode,
        max_n=max_n,
        count=count,
        seed=seed,
        instances=instances,
        oracle_checked=oracle_checked,
        validity_failures=validity_failures,
        optimality_failures=optimality_failures,
        internal_errors=tuple(internal_errors),
        certificates=tuple(certificates),
        certificate_files=tuple(certificate_files),
        fixture_name=AUDIT_FIXTURE,
        # the loop ends on the fixture's audit
        fixture_algorithm_size=audit.algorithm_size,
        fixture_oracle_size=audit.oracle_size,
        fixture_outcome="certificate" if audit.certificate else "clean",
        exit_code=exit_code,
    )
    if report_path is not None:
        path = Path(report_path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(report.to_json_text())
    return report
