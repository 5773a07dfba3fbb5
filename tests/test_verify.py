"""Audit harness: per-instance audits, reports, certificates, revalidation."""

import importlib.util
import json
from pathlib import Path
from types import SimpleNamespace

import pytest

from steinerdom import (
    AUDIT_FIXTURE,
    FIXTURES,
    DiscrepancyCertificate,
    ParentArray,
    ParseError,
    ValidationError,
    audit_instance,
    revalidate_certificate,
    run_verify,
    write_certificate,
)
from steinerdom import oracles, verify
from steinerdom.steiner_domination import CoreForest

P5 = ParentArray(5, (0, 1, 1, 3, 4))
GADGET_8 = FIXTURES[AUDIT_FIXTURE]

# two copies of the 8-vertex audit gadget with an edge between the centers;
# the construction overshoots by two, which leaves room for a sidecar that
# records a valid but non-minimum oracle size
GADGET_16 = ParentArray(16, (0, 1, 1, 1, 3, 4, 5, 6, 1, 9, 9, 9, 11, 12, 13, 14))
GADGET_16_ALG = 10
GADGET_16_MIN = 8
GADGET_16_WITNESS = (1, 2, 7, 8, 9, 10, 15, 16)
GADGET_16_PADDED = (1, 2, 3, 7, 8, 9, 10, 15, 16)

# 26 vertices, above every Steiner oracle cap: centre 1, pendant leaf 2 and
# eight legs of length three, 3-11-19 through 10-18-26.  Its leaves span
# it, and the centre dominates 3..10, so the minimum is 10; the
# construction takes the leaves and the isolated core 3..10, 17 in all.
SPIDER_26 = ParentArray(26, (0, 1, *[1] * 8, *range(3, 19)))
# marks a sidecar field to delete rather than overwrite
_MISSING = object()


# what audit_instance reads of the solver's result
_VIEWS = ("leaves", "core", "core_dominating_set", "steiner_dominating_set", "size")


def _altered(res, **changes):
    """The solver's result as audit_instance reads it, with some views
    changed: a namespace of res's views and the changes.  The result
    itself holds flags, which cannot repeat a vertex or miscount a size."""
    return SimpleNamespace(**{**{name: getattr(res, name) for name in _VIEWS}, **changes})


class TestAuditInstance:
    def test_clean_path(self):
        audit = audit_instance(P5)
        assert audit.algorithm_size == 3
        assert audit.oracle_size == 3
        assert audit.validity_ok and audit.optimality_ok
        assert audit.certificate is None
        assert audit.internal_error is None

    def test_fixture_overshoots_by_one(self):
        audit = audit_instance(GADGET_8)
        assert (audit.algorithm_size, audit.oracle_size) == (5, 4)
        assert audit.validity_ok and audit.optimality_ok
        assert audit.certificate is not None
        assert audit.certificate.oracle_witness == (1, 2, 7, 8)
        assert audit.internal_error is None

    def test_oracle_skipped_beyond_caps(self):
        audit = audit_instance(SPIDER_26)
        assert audit.algorithm_size == 17
        assert audit.oracle_size is None
        assert audit.certificate is None
        assert audit.validity_ok and audit.optimality_ok

    @pytest.mark.parametrize(
        "n, routes",
        [(18, ["oracle"]), (19, ["oracle", "leaf supersets"]),
         (24, ["oracle", "leaf supersets"]), (25, [])],
        ids=["bit-sliced-18", "leaf-supersets-19", "leaf-supersets-24", "none-25"],
    )
    def test_steiner_oracle_route_at_the_caps(self, monkeypatch, n, routes):
        # the audit asks the oracle through n = 24, which searches leaf
        # supersets beyond n = 18; none is asked beyond n = 24
        seen = []

        def spy(name, function):
            def call(t):
                seen.append(name)
                return function(t)
            return call

        monkeypatch.setattr(verify, "min_steiner_dominating_set",
                            spy("oracle", verify.min_steiner_dominating_set))
        monkeypatch.setattr(oracles, "_leaf_superset_search",
                            spy("leaf supersets", oracles._leaf_superset_search))
        audit = audit_instance(ParentArray(n, (0, *[1] * (n - 1))))
        assert seen == routes
        assert audit.oracle_size == (n - 1 if routes else None)
        assert audit.validity_ok and audit.optimality_ok


class TestAuditChecksTheCore:
    # P8's core is 3-4-5-6, a path whose forest pass returns (3, 5)
    @pytest.mark.parametrize(
        "changes",
        [
            dict(core=CoreForest(3, (4, 5, 6))),  # a core vertex missing
            dict(core_dominating_set=(3, 4, 5)),  # larger than the minimum
            dict(core_dominating_set=(3, 4)),  # minimum size, misses 6
        ],
    )
    def test_wrong_core_fails_optimality(self, monkeypatch, changes):
        solver = verify.steiner_domination
        monkeypatch.setattr(
            verify,
            "steiner_domination",
            lambda pa: _altered(solver(pa), **changes),
        )
        pa = ParentArray(8, (0, 1, 2, 3, 4, 5, 6, 7))
        assert solver(pa).core_dominating_set == (3, 5)
        assert not audit_instance(pa).optimality_ok

    def test_core_set_that_misses_a_vertex_above_the_cap_fails(self, monkeypatch):
        # P26's core is 3..24, above DOMINATING_CAP; swapping 23 for 22
        # keeps every size and leaves 24 undominated
        solver = verify.steiner_domination
        monkeypatch.setattr(
            verify,
            "steiner_domination",
            lambda pa: _altered(
                solver(pa),
                core_dominating_set=(3, 5, 8, 11, 14, 17, 20, 22),
                steiner_dominating_set=(1, 3, 5, 8, 11, 14, 17, 20, 22, 26),
            ),
        )
        pa = ParentArray(26, tuple(range(26)))
        assert solver(pa).core_dominating_set == (3, 5, 8, 11, 14, 17, 20, 23)
        assert not audit_instance(pa).optimality_ok


class TestAuditChecksTheSet:
    # P5's set is (2, 3, 5); leaf 2 returned twice fails validity, whether
    # or not size counts the repeat
    @pytest.mark.parametrize("size", [3, 4])
    def test_repeated_leaf_fails_validity(self, monkeypatch, size):
        solver = verify.steiner_domination
        monkeypatch.setattr(
            verify,
            "steiner_domination",
            lambda pa: _altered(solver(pa), steiner_dominating_set=(2, 2, 3, 5), size=size),
        )
        assert solver(P5).steiner_dominating_set == (2, 3, 5)
        assert not audit_instance(P5).validity_ok

    def test_set_beyond_the_leaves_and_core_set_fails_optimality(self, monkeypatch):
        # P8's set is the leaves 1, 8 and the core's set (3, 5); adding
        # support vertex 2 keeps it valid but no longer the construction
        solver = verify.steiner_domination
        monkeypatch.setattr(
            verify,
            "steiner_domination",
            lambda pa: _altered(solver(pa), steiner_dominating_set=(1, 2, 3, 5, 8), size=5),
        )
        pa = ParentArray(8, (0, 1, 2, 3, 4, 5, 6, 7))
        assert solver(pa).steiner_dominating_set == (1, 3, 5, 8)
        audit = audit_instance(pa)
        assert audit.validity_ok
        assert not audit.optimality_ok


class TestRunVerifyExhaustive:
    def test_full_sweep_to_seven(self):
        report = run_verify("exhaustive", 7)
        # sum of (n-1)! for n = 2..7
        assert report.instances == 873
        assert report.oracle_checked == 874  # stream plus the fixture
        assert report.validity_failures == 0
        assert report.optimality_failures == 0
        assert report.internal_errors == ()
        # first n with an overshoot is 8, so the only certificate is the fixture
        assert report.certificate_files == (AUDIT_FIXTURE,)
        assert report.fixture_algorithm_size == 5
        assert report.fixture_oracle_size == 4
        assert report.fixture_outcome == "certificate"
        assert report.exit_code == 2

    def test_count_zeroed(self):
        report = run_verify("exhaustive", 4, count=999)
        assert report.count == 0

    def test_reruns_are_byte_identical(self):
        a = run_verify("exhaustive", 6)
        b = run_verify("exhaustive", 6)
        assert a.to_json_text() == b.to_json_text()


    def test_failed_audits_exit_1(self, monkeypatch):
        # the three trees with n <= 3 fail one layer each; the fixture's
        # certificate does not lower the exit code to 2
        failed = iter([
            verify.InstanceAudit(2, 2, False, True, None, None),
            verify.InstanceAudit(2, 2, True, False, None, None),
            verify.InstanceAudit(2, 2, True, True, None, "oracle disagrees"),
        ])
        real = verify.audit_instance
        monkeypatch.setattr(
            verify, "audit_instance",
            lambda parents: next(failed, None) or real(parents),
        )
        report = run_verify("exhaustive", 3)
        assert report.instances == 3
        assert report.validity_failures == 1
        assert report.optimality_failures == 1
        assert report.internal_errors == ("oracle disagrees",)
        assert report.certificate_files == (AUDIT_FIXTURE,)
        assert report.exit_code == 1


class TestRunVerifyRandom:
    def test_same_seed_same_report(self):
        a = run_verify("random", 12, count=30, seed=5)
        b = run_verify("random", 12, count=30, seed=5)
        assert a.to_json_text() == b.to_json_text()
        assert a.instances == 30

    def test_report_file_matches_in_memory_text(self, tmp_path):
        path = tmp_path / "report.json"
        report = run_verify("random", 10, count=10, seed=1, report_path=path)
        assert path.read_text() == report.to_json_text()
        data = json.loads(path.read_text())
        assert data["fixture"]["outcome"] == "certificate"
        assert data["exit_code"] == report.exit_code

    def test_certificates_written_and_revalidate(self, tmp_path):
        cert_dir = tmp_path / "certs"
        report = run_verify("random", 14, count=60, seed=9, cert_dir=cert_dir)
        assert AUDIT_FIXTURE in report.certificate_files
        for stem in report.certificate_files:
            par = cert_dir / f"{stem}.par"
            sidecar = cert_dir / f"{stem}.json"
            assert par.is_file() and sidecar.is_file()
            cert = revalidate_certificate(par, sidecar)
            idx = report.certificate_files.index(stem)
            assert cert == report.certificates[idx]


class TestRunVerifyValidation:
    @pytest.mark.parametrize(
        "kwargs",
        [
            dict(mode="sweep", max_n=5),
            dict(mode="exhaustive", max_n=1),
            dict(mode="exhaustive", max_n=11),
            dict(mode="random", max_n=10, count=0),
            dict(mode="random", max_n=25, count=5),
        ],
    )
    def test_rejected_arguments(self, kwargs):
        with pytest.raises(ValidationError):
            run_verify(**kwargs)


class TestCertificateObjects:
    def test_make_certificate_on_fixture(self, tmp_path):
        cert = DiscrepancyCertificate(GADGET_8, 5, 4, (1, 2, 7, 8))
        sidecar = write_certificate(cert, tmp_path, "case")[1]
        checks = json.loads(sidecar.read_text())["checks"]
        assert checks == {"steiner": True, "dominating": True}

    def test_oracle_must_beat_algorithm(self):
        with pytest.raises(ValidationError, match="oracle_size < algorithm_size"):
            DiscrepancyCertificate(GADGET_8, 4, 4, (1, 2, 7, 8))

    def test_witness_length_must_match(self):
        with pytest.raises(ValidationError, match="witness"):
            DiscrepancyCertificate(GADGET_8, 5, 3, (1, 2, 7, 8))

    def test_witness_that_repeats_a_vertex_is_refused(self, tmp_path):
        # the leaves, the centre and vertex 3 make a valid 11-vertex
        # witness; SPIDER_26 is above the oracle caps, so only the witness
        # itself can show that 12 entries hold 11 vertices
        honest = (1, 2, 3, *range(19, 27))
        repeated = (*honest, 26)
        with pytest.raises(ValidationError, match="witness repeats a vertex"):
            DiscrepancyCertificate(SPIDER_26, 17, 12, repeated)
        par, sidecar = write_certificate(
            DiscrepancyCertificate(SPIDER_26, 17, 11, honest), tmp_path, "case"
        )
        data = json.loads(sidecar.read_text())
        data.update(oracle_size=12, oracle_witness=list(repeated))
        sidecar.write_text(json.dumps(data))
        with pytest.raises(ValidationError, match="witness repeats a vertex"):
            revalidate_certificate(par, sidecar)

    def test_witness_must_pass_checks(self):
        # (1, 2, 3, 8) leaves vertex 7 undominated
        with pytest.raises(ValidationError, match="definitional check"):
            DiscrepancyCertificate(GADGET_8, 5, 4, (1, 2, 3, 8))

    def test_direct_construction_also_guarded(self):
        # (2, 3, 7, 8) holds every leaf, so it is a Steiner set, but
        # leaves vertex 4 undominated
        with pytest.raises(ValidationError, match="definitional check"):
            DiscrepancyCertificate(
                instance=GADGET_8,
                algorithm_size=5,
                oracle_size=4,
                oracle_witness=(2, 3, 7, 8),
            )


class TestRevalidation:
    def _write(self, tmp_path, cert):
        return write_certificate(cert, tmp_path, "case")

    def test_roundtrip(self, tmp_path):
        cert = DiscrepancyCertificate(GADGET_8, 5, 4, (1, 2, 7, 8))
        par, sidecar = self._write(tmp_path, cert)
        assert revalidate_certificate(par, sidecar) == cert

    def _tamper(self, sidecar, key, value):
        data = json.loads(sidecar.read_text())
        data[key] = value
        sidecar.write_text(json.dumps(data))

    def test_tampered_instance(self, tmp_path):
        cert = DiscrepancyCertificate(GADGET_8, 5, 4, (1, 2, 7, 8))
        par, sidecar = self._write(tmp_path, cert)
        self._tamper(sidecar, "instance", [0, 1, 1, 1, 3, 4, 5, 5])
        with pytest.raises(ValidationError, match="does not match"):
            revalidate_certificate(par, sidecar)

    def test_tampered_algorithm_size(self, tmp_path):
        cert = DiscrepancyCertificate(GADGET_8, 5, 4, (1, 2, 7, 8))
        par, sidecar = self._write(tmp_path, cert)
        self._tamper(sidecar, "algorithm_size", 6)
        with pytest.raises(ValidationError, match="recomputed construction"):
            revalidate_certificate(par, sidecar)

    def test_tampered_oracle_size(self, tmp_path):
        cert = DiscrepancyCertificate(GADGET_8, 5, 4, (1, 2, 7, 8))
        par, sidecar = self._write(tmp_path, cert)
        self._tamper(sidecar, "oracle_size", 3)
        with pytest.raises(ValidationError, match="witness"):
            revalidate_certificate(par, sidecar)

    def test_tampered_witness(self, tmp_path):
        cert = DiscrepancyCertificate(GADGET_8, 5, 4, (1, 2, 7, 8))
        par, sidecar = self._write(tmp_path, cert)
        self._tamper(sidecar, "oracle_witness", [1, 2, 3, 8])
        with pytest.raises(ValidationError, match="definitional check"):
            revalidate_certificate(par, sidecar)

    @pytest.mark.parametrize(
        "key, value",
        [
            ("n", _MISSING),
            ("oracle_witness", _MISSING),
            ("instance", None),
            ("oracle_size", "4"),
            ("oracle_witness", [1, 2, "7", 8]),
        ],
    )
    def test_malformed_field_is_named(self, tmp_path, key, value):
        cert = DiscrepancyCertificate(GADGET_8, 5, 4, (1, 2, 7, 8))
        par, sidecar = self._write(tmp_path, cert)
        data = json.loads(sidecar.read_text())
        if value is _MISSING:
            del data[key]
        else:
            data[key] = value
        sidecar.write_text(json.dumps(data))
        with pytest.raises(ValidationError, match=f"sidecar field '{key}'"):
            revalidate_certificate(par, sidecar)

    @pytest.mark.parametrize("content", [b'{"n": 8,', b"\xff"])
    def test_sidecar_that_is_not_json(self, tmp_path, content):
        cert = DiscrepancyCertificate(GADGET_8, 5, 4, (1, 2, 7, 8))
        par, sidecar = self._write(tmp_path, cert)
        sidecar.write_bytes(content)
        with pytest.raises(ValidationError, match="sidecar is not JSON"):
            revalidate_certificate(par, sidecar)

    def test_non_ascii_par_is_a_parse_error(self, tmp_path):
        cert = DiscrepancyCertificate(GADGET_8, 5, 4, (1, 2, 7, 8))
        par, sidecar = self._write(tmp_path, cert)
        par.write_bytes(par.read_bytes().replace(b" 5", b" \xff", 1))
        with pytest.raises(ParseError, match=r"^line 2: byte 0xff is not ASCII$"):
            revalidate_certificate(par, sidecar)

    def test_recorded_size_must_be_the_minimum(self, tmp_path):
        # a 9-vertex witness is valid and beats the construction's 10, but
        # the enumeration knows the true minimum is 8
        cert = DiscrepancyCertificate(
            GADGET_16, GADGET_16_ALG, GADGET_16_MIN + 1, GADGET_16_PADDED
        )
        par, sidecar = self._write(tmp_path, cert)
        with pytest.raises(ValidationError, match="enumeration finds 8"):
            revalidate_certificate(par, sidecar)

    def test_honest_minimum_revalidates(self, tmp_path):
        cert = DiscrepancyCertificate(
            GADGET_16, GADGET_16_ALG, GADGET_16_MIN, GADGET_16_WITNESS
        )
        par, sidecar = self._write(tmp_path, cert)
        assert revalidate_certificate(par, sidecar) == cert

    def test_beyond_caps_skips_the_minimality_check(self, tmp_path):
        # above both oracle caps the sidecar consistency checks still run,
        # but minimality is accepted as recorded: the leaves, the centre and
        # vertex 3 make a valid 11-vertex witness, one more than the minimum
        witness = (1, 2, 3, *range(19, 27))
        cert = DiscrepancyCertificate(SPIDER_26, 17, 11, witness)
        par, sidecar = self._write(tmp_path, cert)
        assert revalidate_certificate(par, sidecar) == cert


class TestRunAudit:
    """scripts/run_audit.py runs each campaign part as one verify command
    and exits with the worst code: 1 over 2 over 0."""

    TINY = ("tiny", "--mode exhaustive --max-n 3")
    # a usage error of verify's, which exits 1
    BAD = ("bad", "--mode random --max-n 99")

    @staticmethod
    def _main(tmp_path, campaign):
        script = Path(__file__).resolve().parent.parent / "scripts" / "run_audit.py"
        spec = importlib.util.spec_from_file_location("run_audit", script)
        run_audit = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(run_audit)
        run_audit.CAMPAIGN = campaign  # a fresh module per call
        return run_audit.main(["--out", str(tmp_path)])

    def test_the_fixture_certificate_exits_2(self, tmp_path, capsys):
        assert self._main(tmp_path, (self.TINY,)) == 2
        assert (tmp_path / "tiny" / f"{AUDIT_FIXTURE}.par").is_file()
        report = json.loads((tmp_path / "tiny.json").read_text())
        assert (report["instances"], report["exit_code"]) == (3, 2)
        # the verify command's own summary, once per part
        assert capsys.readouterr().out.count("instances: 3  oracle checked: 4") == 1

    @pytest.mark.parametrize("order", ["bad last", "bad first"])
    def test_a_usage_error_exits_1(self, tmp_path, capsys, order):
        campaign = (self.TINY, self.BAD) if order == "bad last" else (self.BAD, self.TINY)
        assert self._main(tmp_path, campaign) == 1
        assert "max_n <= 24" in capsys.readouterr().err
