"""End-to-end checks of the command line front end.

Most tests drive ``cli.main`` in process and read the report files it
writes.  Some go through a real subprocess: to pin down determinism
across BLAS thread counts, and to check the process entry point, which
freezes the import-time heap and returns its free pages before it calls
``main``.
"""

import ast
import gc
import io
import json
import math
import os
import re
import resource
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from gmrafilters import (
    GridSpec,
    cli,
    derive_journe,
    emit_bundle,
    journe_profile,
    make_journe_family,
    parse_bundle,
    ruelle,
)
from gmrafilters.cli import (
    EXIT_NOT_PURE,
    EXIT_OK,
    EXIT_UNDECIDED,
    EXIT_USAGE,
    EXIT_VERIFY_FAIL,
    GENERATORS,
    main,
)
from gmrafilters.filters import _coset_deviation

from helpers import (
    DEFAULT_DEPTHS,
    column_violation_filter,
    near_constant_filter,
    planted_filter,
    random_scalar_filter,
    run_python,
)


def generate(tmp_path, name, *extra):
    path = tmp_path / f"{name}.json"
    code = main(["generate", name, *extra, "--out", str(path)])
    assert code == EXIT_OK
    return path


def run_json(argv):
    code = main(argv)
    return code


def count_coset_grams(monkeypatch) -> list[int]:
    """The order of every coset Gram matrix formed from here on."""
    orders = []

    def counted(filt, order=1):
        orders.append(order)
        return _coset_deviation(filt, order)

    monkeypatch.setattr("gmrafilters.filters._coset_deviation", counted)
    return orders


def report_of(path):
    return json.loads(path.read_text())


# The stages each report times, in order; they sum to about total_s.
VERIFY_STAGES = ("parse_s", "residual_s", "generalized_s", "isometry_s")
CLASSIFY_STAGES = ("parse_s", "residual_s", "analysis_s")


def assert_stages_sum_to_total(timings, stages):
    parts = [timings[key] for key in stages]
    assert all(part >= 0.0 for part in parts)
    # What is left is building the report dict, well under a millisecond.
    assert -1e-9 <= timings["total_s"] - sum(parts) < 0.01


class TestGenerate:
    def test_stdout_is_a_loadable_bundle(self, capsys):
        assert main(["generate", "haar"]) == EXIT_OK
        text = capsys.readouterr().out
        filt, provenance = parse_bundle(text)
        assert filt.count == 1
        assert filt.cells == 16
        assert provenance == {"generator": "haar", "depth": 4}

    def test_text_is_written_in_bounded_slices(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "_WRITE_CHARS", 7)
        # Multi-byte characters fall on slice boundaries.
        text = "[\u00e9\u221e\n" * 50
        writes = []

        class Recording(io.StringIO):
            def write(self, s):
                writes.append(len(s))
                return super().write(s)

        stdout = Recording()
        monkeypatch.setattr(sys, "stdout", stdout)
        cli._write_text(None, text)
        assert stdout.getvalue() == text
        assert max(writes) == 7 and sum(writes) == len(text)
        path = tmp_path / "out.txt"
        cli._write_text(str(path), text)
        assert path.read_text(encoding="utf-8") == text

    def test_round_trip_is_byte_exact(self, tmp_path):
        path = generate(tmp_path, "journe_step")
        text = path.read_text()
        filt, provenance = parse_bundle(text)
        assert emit_bundle(filt, provenance) == text

    def test_journe_provenance_records_the_derivation(self, tmp_path):
        path = generate(tmp_path, "journe", "--delta", "0.1")
        _, provenance = parse_bundle(path.read_text())
        assert provenance["delta"] == "0.1"
        assert provenance["r"] == "0.003125"
        assert provenance["r_off_block_budget"] == "0.003125"
        assert provenance["interval_denominator"] == 112
        assert provenance["region"] == [["0/1", "1/112"], ["111/112", "1/1"]]
        assert provenance["transition"] == "exp_bump"

    def test_half_turn_phases_flag_flips_signs(self, tmp_path):
        plain, _ = parse_bundle(generate(tmp_path, "journe_step").read_text())
        flipped_path = tmp_path / "flipped.json"
        assert (
            main(
                [
                    "generate",
                    "journe_step",
                    "--half-turn-phases",
                    "--out",
                    str(flipped_path),
                ]
            )
            == EXIT_OK
        )
        flipped, provenance = parse_bundle(flipped_path.read_text())
        assert provenance["half_turn_phases"] is True
        assert np.array_equal(flipped.samples, -plain.samples)

    def test_journe_profile_is_sampled_once(self, tmp_path, monkeypatch):
        # derive_journe samples the profile to place the region and
        # make_journe_family reads it again; the params cache it.
        calls = []

        def counted(params):
            calls.append(params)
            return journe_profile(params)

        monkeypatch.setattr("gmrafilters.filters.journe_profile", counted)
        path = generate(tmp_path, "journe", "--depth", "5")
        assert len(calls) == 1
        filt, _ = parse_bundle(path.read_text())
        params = derive_journe(0.1, grid=GridSpec(2, 56, 5)).params
        assert np.array_equal(filt.samples, make_journe_family(params).samples)

    @pytest.mark.parametrize("name", GENERATORS)
    def test_no_depth_is_the_builders_default(self, tmp_path, name):
        assert sorted(DEFAULT_DEPTHS) == list(GENERATORS)
        text = generate(tmp_path, name).read_text()
        depth = str(DEFAULT_DEPTHS[name])
        assert text == generate(tmp_path, name, "--depth", depth).read_text()
        assert json.loads(text)["provenance"]["depth"] == DEFAULT_DEPTHS[name]

    def test_unknown_generator_is_a_usage_error(self):
        assert main(["generate", "daubechies"]) == EXIT_USAGE

    @pytest.mark.parametrize("name", GENERATORS)
    def test_depth_zero_is_a_usage_error(self, name, capsys):
        capsys.readouterr()
        assert main(["generate", name, "--depth", "0"]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("gmrafilters: ")

    @pytest.mark.parametrize("depth", [40, 60, 64, 100])
    @pytest.mark.parametrize("name", GENERATORS)
    def test_grid_too_large_to_allocate_is_a_usage_error(self, name, depth):
        # Depth 40 asks for terabytes.  An address-space limit on the child
        # makes that allocation fail at once whatever the host's overcommit
        # policy, so the test never touches the memory it asks for.  Deeper
        # grids, too large for numpy to size, are refused before any array
        # exists, without printing their cell count.
        def limit_address_space():
            resource.setrlimit(resource.RLIMIT_AS, (2**32, 2**32))

        env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1")
        proc = subprocess.run(
            [sys.executable, "-m", "gmrafilters.cli", "generate", name,
             "--depth", str(depth)],
            capture_output=True,
            text=True,
            env=env,
            preexec_fn=limit_address_space,
            timeout=60,
            check=False,
        )
        assert proc.returncode == EXIT_USAGE
        assert proc.stdout == ""
        lines = proc.stderr.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith("gmrafilters: ")
        if depth > 40:
            base = {"journe": 56, "journe_step": 28, "shannon": 4}.get(name, 1)
            assert lines[0] == (
                f"gmrafilters: grid of {base} * 2**{depth} cells "
                "exceeds the cap of 2**48 cells"
            )


class TestVerify:
    def test_clean_bundle_passes(self, tmp_path):
        bundle = generate(tmp_path, "haar")
        out = tmp_path / "verify.json"
        assert main(["verify", str(bundle), "--out", str(out)]) == EXIT_OK
        report = report_of(out)
        assert report["ok"] is True
        assert float(report["filter_equation"]["max_residual"]) <= 1e-12
        orders = [g["order"] for g in report["generalized_equation"]]
        assert orders == [1, 2, 3]
        assert all("skipped" not in g for g in report["generalized_equation"])
        assert report["isometry"]["trials"] == 0
        assert report["isometry"]["max_deviation"] == "0.0"
        assert float(report["isometry"]["worst_case_deviation"]) <= 1e-12
        timings = report["timings"]
        assert set(timings) == set(VERIFY_STAGES) | {"total_s"}
        assert 0.0 < timings["parse_s"] <= timings["total_s"]

    def test_corrupted_sample_fails_with_witness(self, tmp_path):
        bundle = generate(tmp_path, "haar")
        raw = json.loads(bundle.read_text())
        raw["entries"][0]["samples"][0] = ["5.0", "0.0"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        out = tmp_path / "verify.json"
        assert main(["verify", str(bad), "--out", str(out)]) == EXIT_VERIFY_FAIL
        report = report_of(out)
        assert report["ok"] is False
        assert report["filter_equation"]["witness_cell"] == 0
        assert float(report["filter_equation"]["max_residual"]) > 1.0

    @staticmethod
    def haar_with_sample(tmp_path, value):
        bundle = generate(tmp_path, "haar")
        raw = json.loads(bundle.read_text())
        raw["entries"][0]["samples"][3] = [value, "0.0"]
        bad = tmp_path / f"haar_{value}.json"
        bad.write_text(json.dumps(raw))
        return bad

    def test_nan_sample_reports_a_nan_isometry_deviation(self, tmp_path):
        bad = self.haar_with_sample(tmp_path, "nan")
        out = tmp_path / "verify.json"
        assert main(["verify", str(bad), "--out", str(out)]) == EXIT_VERIFY_FAIL
        report = report_of(out)
        assert report["ok"] is False
        assert report["isometry"]["worst_case_deviation"] == "nan"
        assert report["isometry"]["witness_cell"] == 3

    def test_inf_sample_fails_without_warnings(self, tmp_path, capsys):
        bad = self.haar_with_sample(tmp_path, "inf")
        out = tmp_path / "verify.json"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", str(bad), "--out", str(out)]) == EXIT_VERIFY_FAIL
        assert capsys.readouterr().err == ""
        report = report_of(out)
        assert report["ok"] is False
        residuals = [float(g["max_residual"]) for g in report["generalized_equation"]]
        assert len(residuals) == 3
        assert not any(math.isfinite(r) for r in residuals)

    def test_huge_sample_fails_without_warnings(self, tmp_path, capsys):
        bad = self.haar_with_sample(tmp_path, "1e200")
        out = tmp_path / "verify.json"
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["verify", str(bad), "--out", str(out)]) == EXIT_VERIFY_FAIL
        assert capsys.readouterr().err == ""
        report = report_of(out)
        assert report["ok"] is False
        assert report["isometry"]["worst_case_deviation"] == "inf"
        assert report["isometry"]["witness_cell"] == 3

    def test_column_violation_is_reported(self, tmp_path, capsys):
        # Cell 58 of 224 lies outside sigma_2, and its double inside sigma_1.
        bundle = generate(tmp_path, "journe_step", "--depth", "3")
        raw = json.loads(bundle.read_text())
        (entry,) = [e for e in raw["entries"] if (e["row"], e["col"]) == (0, 1)]
        entry["samples"][58] = ["0.5", "0.0"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        out = tmp_path / "verify.json"
        capsys.readouterr()
        assert main(["verify", str(bad), "--out", str(out)]) == EXIT_VERIFY_FAIL
        assert capsys.readouterr().err == ""
        report = report_of(out)
        assert report["ok"] is False
        assert report["filter_equation"]["support"]["column_violations"] == [[0, 1, 58]]

    def test_support_rule_alone_fails_every_command(self, tmp_path, capsys):
        # The residual is within tolerance; only the support rule fails.
        bundle = tmp_path / "moved.json"
        bundle.write_text(emit_bundle(column_violation_filter()))
        reports = []
        for command in ("verify", "classify"):
            out = tmp_path / f"{command}.json"
            assert main([command, str(bundle), "--out", str(out)]) == EXIT_VERIFY_FAIL
            reports.append(report_of(out))
        for report in reports:
            assert report["ok"] is False
            section = report["filter_equation"]
            assert float(section["max_residual"]) <= ruelle.VERIFY_TOL
            assert section["support"]["column_violations"] == [[0, 1, 56]]
        assert reports[1]["status"] == "verification_failed"
        capsys.readouterr()
        assert main(["spectrum", str(bundle)]) == EXIT_VERIFY_FAIL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"gmrafilters: {bundle} fails verification: defining identity "
            f"residual {section['max_residual']}, support rule violated\n"
        )

    @pytest.mark.parametrize(
        "text",
        [
            b"{not json",
            # not UTF-8
            b"\xff\xfe{}",
            # nested past the recursion limit
            b"[" * 100000 + b"]" * 100000,
            # an integer past Python's digit limit for int(str)
            b'{"depth": ' + b"1" * 5000 + b"}",
        ],
        ids=["garbled", "not_utf8", "too_deep", "too_many_digits"],
    )
    def test_malformed_json_is_a_usage_error(self, tmp_path, capsys, text):
        bad = tmp_path / "garbled.json"
        bad.write_bytes(text)
        for command in ("verify", "classify", "spectrum"):
            capsys.readouterr()
            assert main([command, str(bad)]) == EXIT_USAGE
            captured = capsys.readouterr()
            assert captured.out == ""
            lines = captured.err.splitlines()
            assert len(lines) == 1
            assert lines[0].startswith("gmrafilters: ")

    @pytest.mark.parametrize(
        "depth, message",
        [
            (
                45,
                "gmrafilters: entry (0, 0) carries 16 samples, "
                "the grid has 35184372088832 cells",
            ),
            (
                20000,
                "gmrafilters: bundle does not assemble: grid of 1 * 2**20000 "
                "cells exceeds the cap of 2**48 cells",
            ),
        ],
        ids=["45", "20000"],
    )
    def test_oversized_grid_is_refused_before_allocating(
        self, tmp_path, capsys, depth, message
    ):
        bundle = generate(tmp_path, "haar")
        raw = json.loads(bundle.read_text())
        raw["depth"] = depth
        big = tmp_path / "big.json"
        big.write_text(json.dumps(raw))
        capsys.readouterr()
        assert main(["verify", str(big)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [message]

    def test_missing_file_is_a_usage_error(self, tmp_path):
        assert main(["verify", str(tmp_path / "absent.json")]) == EXIT_USAGE

    @pytest.mark.parametrize("name, formed", [("haar", [1, 2, 3]), ("journe", [1, 2])])
    def test_order_one_gram_is_formed_once(self, tmp_path, monkeypatch, name, formed):
        # The residual, generalized order 1 and the isometry defect share
        # it; journe's depth-2 grid skips order 3.
        bundle = generate(tmp_path, name)
        out = tmp_path / "verify.json"
        orders = count_coset_grams(monkeypatch)
        assert main(["verify", str(bundle), "--out", str(out)]) == EXIT_OK
        assert sorted(orders) == formed
        generalized = report_of(out)["generalized_equation"]
        assert ["skipped" not in g for g in generalized] == [
            order in formed for order in (1, 2, 3)
        ]

    def test_report_is_deterministic(self, tmp_path):
        bundle = generate(tmp_path, "shannon")
        first, second = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["verify", str(bundle), "--out", str(first)]) == EXIT_OK
        assert main(["verify", str(bundle), "--out", str(second)]) == EXIT_OK
        a, b = report_of(first), report_of(second)
        a.pop("timings")
        b.pop("timings")
        assert a == b


class TestClassify:
    def test_haar_is_certified_pure(self, tmp_path):
        bundle = generate(tmp_path, "haar")
        out = tmp_path / "classify.json"
        assert main(["classify", str(bundle), "--out", str(out)]) == EXIT_OK
        report = report_of(out)
        assert report["status"] == "pure_certified"
        cert = report["certificate"]
        assert cert["block_size"] == 1
        assert cert["delta"] == "0.3870398453221475"
        assert cert["region"] == [["0/1", "1/16"], ["15/16", "1/1"]]
        table = report["intersection"]["equivalence"]
        assert table["tail_intersection_nontrivial"] == "no"
        assert table["modulus_one_eigenvector"] == "ruled_out"

    def test_constant_is_certified_non_pure(self, tmp_path):
        bundle = generate(tmp_path, "constant")
        out = tmp_path / "classify.json"
        assert main(["classify", str(bundle), "--out", str(out)]) == EXIT_NOT_PURE
        report = report_of(out)
        assert report["status"] == "not_pure_certified"
        assert report["certificate"] is None
        pair = report["purity"]["eigenpairs"][0]
        assert abs(float(pair["eigenvalue"][0]) - 1.0) <= 1e-12
        assert abs(float(pair["eigenvalue"][1])) <= 1e-12
        assert "martingale_max_dev" in report["purity"]
        caution = report["intersection"]["dimension_caution"]
        assert "No dimension" in caution
        timings = report["timings"]
        assert 0.0 <= timings["fixed_cell_s"] <= timings["total_s"]

    def test_journe_family_is_certified_pure(self, tmp_path):
        bundle = generate(tmp_path, "journe", "--delta", "0.1")
        out = tmp_path / "classify.json"
        assert main(["classify", str(bundle), "--out", str(out)]) == EXIT_OK
        report = report_of(out)
        assert report["status"] == "pure_certified"
        assert report["certificate"]["block_size"] == 1
        assert report["certificate"]["delta"] == "0.41420665701657633"

    def test_gate_residual_is_not_recomputed(self, tmp_path, monkeypatch):
        bundle = generate(tmp_path, "haar")
        out = tmp_path / "classify.json"
        orders = count_coset_grams(monkeypatch)
        assert main(["classify", str(bundle), "--out", str(out)]) == EXIT_OK
        assert report_of(out)["status"] == "pure_certified"
        assert orders.count(1) == 1

    def test_unverified_bundle_short_circuits(self, tmp_path):
        bundle = generate(tmp_path, "haar")
        raw = json.loads(bundle.read_text())
        raw["entries"][0]["samples"][3] = ["2.0", "0.0"]
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        out = tmp_path / "classify.json"
        assert main(["classify", str(bad), "--out", str(out)]) == EXIT_VERIFY_FAIL
        report = report_of(out)
        assert report["status"] == "verification_failed"
        assert "purity" not in report
        assert set(report["timings"]) == {"parse_s", "residual_s", "total_s"}

    def test_nan_sample_fails_closed(self, tmp_path, capsys):
        bundle = generate(tmp_path, "haar")
        raw = json.loads(bundle.read_text())
        raw["entries"][0]["samples"][3] = ["nan", "0.0"]
        bad = tmp_path / "nan.json"
        bad.write_text(json.dumps(raw))
        out = tmp_path / "classify.json"
        capsys.readouterr()
        assert main(["classify", str(bad), "--out", str(out)]) == EXIT_VERIFY_FAIL
        assert report_of(out)["status"] == "verification_failed"
        assert capsys.readouterr().err == ""
        assert main(["spectrum", str(bad)]) == EXIT_VERIFY_FAIL
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1

    def test_exceeded_dimension_cap_is_a_usage_error(
        self, tmp_path, capsys, monkeypatch
    ):
        # The cap binds spectrum only: classify builds no matrix, even for
        # the constant filter, whose eigenpair it finds at the fixed cell.
        # Haar does not coarsen, so spectrum solves all 16 of its fine
        # coordinates.
        haar = generate(tmp_path, "haar")
        constant = generate(tmp_path, "constant")
        out = tmp_path / "classify.json"
        capsys.readouterr()
        # The cap is the module constant alone; no variable lowers it.
        monkeypatch.setenv("GMRAFILTERS_DIM_CAP", "8")
        assert main(["spectrum", str(haar)]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        assert len(captured.out.splitlines()) == 1 + 16
        monkeypatch.setattr(ruelle, "DIM_CAP", 8)
        assert main(["spectrum", str(haar)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "gmrafilters: transfer matrix dimension 16 exceeds cap 8"
        ]
        assert main(["classify", str(haar), "--out", str(out)]) == EXIT_OK
        assert main(["classify", str(constant), "--out", str(out)]) == EXIT_NOT_PURE
        assert capsys.readouterr().err == ""
        # The cap is read on every spectrum call, one that coarsens too, and
        # binds the dimension solved: constant's 2 coordinates at depth 1.
        monkeypatch.setattr(ruelle, "DIM_CAP", 1)
        assert main(["spectrum", str(constant)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "gmrafilters: transfer matrix dimension 2 exceeds cap 1"
        ]
        monkeypatch.setattr(ruelle, "DIM_CAP", 2)
        assert main(["spectrum", str(constant)]) == EXIT_OK
        assert len(capsys.readouterr().out.splitlines()) == 1 + 16

    @pytest.mark.parametrize(
        "name, code, spectrum_code",
        [
            pytest.param("haar", EXIT_OK, EXIT_USAGE, id="haar-0"),
            pytest.param("constant", EXIT_NOT_PURE, EXIT_OK, id="constant-3"),
        ],
    )
    def test_cap_binds_spectrum_only(
        self, tmp_path, capsys, monkeypatch, name, code, spectrum_code
    ):
        bundle = generate(tmp_path, name, "--depth", "8")
        monkeypatch.setattr(ruelle, "DIM_CAP", 64)
        out = tmp_path / "classify.json"
        assert main(["classify", str(bundle), "--out", str(out)]) == code
        report = report_of(out)
        assert report["purity"]["dimension"] == 256
        capsys.readouterr()
        # Haar's 256 fine coordinates are solved as they are; constant
        # coarsens to depth 1 and solves 2.
        assert main(["spectrum", str(bundle)]) == spectrum_code
        captured = capsys.readouterr()
        if spectrum_code == EXIT_USAGE:
            assert captured.out == ""
            assert captured.err.splitlines() == [
                "gmrafilters: transfer matrix dimension 256 exceeds cap 64"
            ]
        else:
            assert captured.err == ""
            assert len(captured.out.splitlines()) == 1 + 256

    def test_constant_past_the_dense_cap_is_certified_non_pure(self, tmp_path, capsys):
        bundle = generate(tmp_path, "constant", "--depth", "13")
        out = tmp_path / "classify.json"
        assert main(["classify", str(bundle), "--out", str(out)]) == EXIT_NOT_PURE
        report = report_of(out)
        assert report["status"] == "not_pure_certified"
        assert report["purity"]["dimension"] == 8192
        (pair,) = report["purity"]["eigenpairs"]
        assert pair["eigenvalue"] == ["1.0", "0.0"]
        assert pair["residual"] == "0.0"
        field = pair["field"]["component_0"]
        assert len(field) == 4096
        assert all(z == ["1.0", "0.0"] for z in field)
        assert "square-summable" in report["intersection"]["narrative"]
        # spectrum solves the 2-cell filter it refines: (1, chi) exactly,
        # re-tested at depth 13, and 8191 exact zeros.
        capsys.readouterr()
        assert main(["spectrum", str(bundle)]) == EXIT_OK
        captured = capsys.readouterr()
        assert captured.err == ""
        header, first, *rest = captured.out.splitlines()
        assert header == "eigenvalue_re,eigenvalue_im,modulus,passes_eigen_test"
        assert first == "1.0,0.0,1.0,true"
        assert len(rest) == 8191
        assert set(rest) == {"0.0,0.0,0.0,false"}
        # Haar does not coarsen: past the dense cap, spectrum exits 2.
        haar = generate(tmp_path, "haar", "--depth", "13")
        assert main(["spectrum", str(haar)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.splitlines() == [
            "gmrafilters: transfer matrix dimension 8192 exceeds cap 4096"
        ]

    def test_report_carries_the_contraction_and_no_spectrum(self, tmp_path):
        # The contraction rho(K) < 1 is carried as its proof at the fixed
        # cell: the spectrum of H(0)^T, its margin and its allowance.
        bundle = generate(tmp_path, "haar")
        out = tmp_path / "classify.json"
        assert main(["classify", str(bundle), "--out", str(out)]) == EXIT_OK
        report = report_of(out)
        assert "spectrum" not in report
        assert report["purity"]["fixed_cell"] == {
            "eigenvalues": [["1.414213562373095", "0.0"]],
            "margin": "0.4142135623730949",
            "allowance": "2.220446049250313e-16",
        }
        assert report["purity"]["candidates_tested"] == []
        keys = {"status", "dimension", "eigenpairs", "candidates_tested",
                "anomalies", "fixed_cell"}
        assert set(report["purity"]) == keys
        timings = report["timings"]
        assert set(timings) == set(CLASSIFY_STAGES) | {
            "certificate_s", "fixed_cell_s", "total_s"
        }
        assert 0.0 < timings["fixed_cell_s"] <= timings["total_s"]
        assert 0.0 < timings["certificate_s"] <= timings["total_s"]
        assert 0.0 < timings["parse_s"] <= timings["total_s"]
        bundle = generate(tmp_path, "constant")
        assert main(["classify", str(bundle), "--out", str(out)]) == EXIT_NOT_PURE
        report = report_of(out)
        assert report["purity"]["fixed_cell"] == {
            "eigenvalues": [["1.0", "0.0"]],
            "margin": "0.0",
            "allowance": "2.220446049250313e-16",
        }
        assert report["purity"]["candidates_tested"] == [
            {"eigenvalue": ["1.0", "0.0"], "residual": "0.0", "passed": True}
        ]
        assert set(report["purity"]) == keys | {"martingale_max_dev"}

    def test_random_filter_is_certified_by_the_contraction_bound(self, tmp_path):
        # No block certificate: the fixed cell bounds the spectrum of K
        # inside the unit circle on its own.
        rng = np.random.default_rng(0)
        filt = random_scalar_filter(rng, depth=4)
        bundle = tmp_path / "random.json"
        bundle.write_text(emit_bundle(filt), encoding="utf-8")
        out = tmp_path / "classify.json"
        assert main(["classify", str(bundle), "--out", str(out)]) == EXIT_OK
        report = report_of(out)
        assert report["status"] == "pure_certified"
        assert report["certificate"] is None
        cell = report["purity"]["fixed_cell"]
        assert float(cell["margin"]) == pytest.approx(0.0779, abs=1e-4)
        assert cell["allowance"] == "2.220446049250313e-16"
        table = report["intersection"]["equivalence"]
        assert table["modulus_one_eigenvector"] == "ruled_out"
        assert table["tail_intersection_nontrivial"] == "no"
        assert "fixed point 0" in report["intersection"]["narrative"]

    def test_uncertified_filter_is_left_undecided(self, tmp_path):
        # Unimodular samples put H(0) on the unit circle, and its field
        # fails the re-test.
        rng = np.random.default_rng(0)
        filt = near_constant_filter(rng, depth=4, eps=0.0)
        bundle = tmp_path / "unimodular.json"
        bundle.write_text(emit_bundle(filt), encoding="utf-8")
        out = tmp_path / "classify.json"
        assert main(["classify", str(bundle), "--out", str(out)]) == EXIT_UNDECIDED
        report = report_of(out)
        assert report["status"] == "pure_at_resolution"
        assert report["certificate"] is None
        assert float(report["purity"]["fixed_cell"]["margin"]) <= 1e-8
        assert [c["passed"] for c in report["purity"]["candidates_tested"]] == [False]
        table = report["intersection"]["equivalence"]
        assert table["modulus_one_eigenvector"] == "none_found"
        assert table["tail_intersection_nontrivial"] == "undetermined"

    def test_near_constant_filter_is_certified_at_the_fixed_cell(self, tmp_path):
        rng = np.random.default_rng(0)
        filt = near_constant_filter(rng, depth=4, eps=1e-3)
        bundle = tmp_path / "near_constant.json"
        bundle.write_text(emit_bundle(filt), encoding="utf-8")
        out = tmp_path / "classify.json"
        assert main(["classify", str(bundle), "--out", str(out)]) == EXIT_OK
        report = report_of(out)
        assert report["status"] == "pure_certified"
        assert report["certificate"] is None
        assert float(report["purity"]["fixed_cell"]["margin"]) == pytest.approx(
            1e-3, rel=1e-3
        )
        assert report["purity"]["candidates_tested"] == []
        table = report["intersection"]["equivalence"]
        assert table["modulus_one_eigenvector"] == "ruled_out"
        assert table["tail_intersection_nontrivial"] == "no"

    def test_planted_non_pure_filter_is_certified_non_pure(self, tmp_path):
        # Samples of modulus 1 + 2^-52 around 0 would give this filter a
        # certificate with delta = 2^-52 but for the margin allowance, and
        # the verdict would be inconclusive (exit 4).
        rng = np.random.default_rng(4)
        filt, _ = planted_filter(rng, 2, 3, np.exp(2j * np.pi * 0.3))
        bundle = tmp_path / "planted.json"
        bundle.write_text(emit_bundle(filt), encoding="utf-8")
        out = tmp_path / "classify.json"
        assert main(["classify", str(bundle), "--out", str(out)]) == EXIT_NOT_PURE
        report = report_of(out)
        assert report["status"] == "not_pure_certified"
        assert report["certificate"] is None
        assert report["purity"]["anomalies"] == []

    @staticmethod
    def _stdout_per_thread_count(argv, expected_code):
        outputs = []
        for threads in ("1", "2"):
            env = dict(os.environ)
            env["OMP_NUM_THREADS"] = threads
            env["OPENBLAS_NUM_THREADS"] = threads
            proc = subprocess.run(
                [sys.executable, "-m", "gmrafilters.cli", *argv],
                capture_output=True,
                text=True,
                env=env,
                check=False,
            )
            assert proc.returncode == expected_code
            outputs.append(proc.stdout)
        return outputs

    def _reports_per_thread_count(self, bundle, expected_code):
        outputs = []
        for text in self._stdout_per_thread_count(["classify", str(bundle)], expected_code):
            report = json.loads(text)
            report.pop("timings")
            outputs.append(json.dumps(report, sort_keys=True))
        return outputs

    def test_report_survives_thread_count_changes(self, tmp_path):
        bundle = generate(tmp_path, "haar")
        outputs = self._reports_per_thread_count(bundle, EXIT_OK)
        assert outputs[0] == outputs[1]

    # The spectra of these two differ across thread counts in their last
    # bits; the classify report carries no spectrum, so it must not.
    @pytest.mark.parametrize(
        "name, depth, code", [("constant", "9", EXIT_NOT_PURE), ("haar", "8", EXIT_OK)]
    )
    def test_deeper_reports_survive_thread_count_changes(
        self, tmp_path, name, depth, code
    ):
        bundle = generate(tmp_path, name, "--depth", depth)
        outputs = self._reports_per_thread_count(bundle, code)
        assert outputs[0] == outputs[1]

    def test_coarsened_spectrum_survives_thread_count_changes(self, tmp_path):
        # Solved on the full grid, constant 9's K smeared its nilpotent
        # zeros to moduli up to 7e-3, and 255 of the 512 rows followed the
        # BLAS thread count; solved at depth 1 they are exact zeros.
        bundle = generate(tmp_path, "constant", "--depth", "9")
        outputs = self._stdout_per_thread_count(["spectrum", str(bundle)], EXIT_OK)
        assert len(outputs[0].splitlines()) == 1 + 512
        assert outputs[0] == outputs[1]

    def test_uncoarsened_spectrum_survives_thread_count_changes(self, tmp_path):
        # Haar 8 does not coarsen: its 256 x 256 K is solved as it is, and
        # two OpenBLAS threads move the last bits of 127 rows, by up to
        # 1.1e-13, unless the solve is held to one thread.
        bundle = generate(tmp_path, "haar", "--depth", "8")
        outputs = self._stdout_per_thread_count(["spectrum", str(bundle)], EXIT_OK)
        assert len(outputs[0].splitlines()) == 1 + 256
        assert outputs[0] == outputs[1]


class TestSpectrum:
    def test_csv_shape_and_order(self, tmp_path, capsys):
        bundle = generate(tmp_path, "shannon")
        assert main(["spectrum", str(bundle)]) == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "eigenvalue_re,eigenvalue_im,modulus,passes_eigen_test"
        moduli = []
        for line in lines[1:]:
            fields = line.split(",")
            assert len(fields) == 4
            assert fields[3] in {"true", "false"}
            moduli.append(float(fields[2]))
        assert moduli == sorted(moduli, reverse=True)
        assert moduli[0] <= 1 / np.sqrt(2) + 1e-12

    def test_writes_to_file(self, tmp_path):
        bundle = generate(tmp_path, "constant")
        out = tmp_path / "spectrum.csv"
        assert main(["spectrum", str(bundle), "--out", str(out)]) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("eigenvalue_re")
        top = lines[1].split(",")
        assert abs(float(top[2]) - 1.0) <= 1e-10
        assert top[3] == "true"

    def test_tol_norm_is_not_a_spectrum_option(self, tmp_path, capsys):
        # The CSV has no unit-norm column, so spectrum takes no --tol-norm.
        bundle = generate(tmp_path, "constant")
        assert main(["spectrum", str(bundle), "--tol-norm", "1e-6"]) == EXIT_USAGE
        assert "--tol-norm" in capsys.readouterr().err
        out = tmp_path / "classify.json"
        args = ["classify", str(bundle), "--tol-norm", "1e-6", "--out", str(out)]
        assert main(args) == EXIT_NOT_PURE

    @pytest.mark.parametrize("library", ["missing", "without_thread_calls"])
    def test_no_bundled_openblas_exits_2_in_one_line(
        self, tmp_path, capsys, monkeypatch, library
    ):
        # spectrum holds numpy's bundled OpenBLAS to one thread around the
        # solve; a numpy without one (or whose library lacks the thread
        # calls) cannot give thread-independent bytes, so spectrum refuses.
        bundle = generate(tmp_path, "haar")
        site = tmp_path / "site"
        (site / "numpy").mkdir(parents=True)
        if library == "without_thread_calls":
            import _ctypes

            libs = site / "numpy.libs"
            libs.mkdir()
            (libs / "libscipy_openblas64_.so").symlink_to(_ctypes.__file__)
        monkeypatch.setattr(np, "__file__", str(site / "numpy" / "__init__.py"))
        assert main(["spectrum", str(bundle)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("gmrafilters: cannot hold BLAS to one thread")
        assert captured.err.count("\n") == 1
        # classify never solves K, so it needs no library.
        assert main(["classify", str(bundle), "--out", str(tmp_path / "c.json")]) == 0


class TestStageTimings:
    @pytest.mark.parametrize("name", ["haar", "journe"])
    def test_verify_stages_sum_to_the_total(self, tmp_path, name):
        bundle = generate(tmp_path, name)
        out = tmp_path / "verify.json"
        assert main(["verify", str(bundle), "--out", str(out)]) == EXIT_OK
        timings = report_of(out)["timings"]
        assert set(timings) == set(VERIFY_STAGES) | {"total_s"}
        assert_stages_sum_to_total(timings, VERIFY_STAGES)

    @pytest.mark.parametrize("name, code", [("haar", EXIT_OK), ("constant", EXIT_NOT_PURE)])
    def test_classify_stages_sum_to_the_total(self, tmp_path, name, code):
        bundle = generate(tmp_path, name)
        out = tmp_path / "classify.json"
        assert main(["classify", str(bundle), "--out", str(out)]) == code
        timings = report_of(out)["timings"]
        assert set(timings) == set(CLASSIFY_STAGES) | {
            "certificate_s", "fixed_cell_s", "total_s"
        }
        assert_stages_sum_to_total(timings, CLASSIFY_STAGES)
        # The certificate search and the cell 0 analysis are parts of the
        # analysis stage.
        parts = timings["certificate_s"] + timings["fixed_cell_s"]
        assert 0.0 <= parts <= timings["analysis_s"]


class TestImportFootprint:
    # Seeding numpy.random imports OpenSSL's libcrypto through secrets and
    # hmac, about 5.4 MB of peak RSS; verify's isometry probe once did.
    FORBIDDEN = ("numpy.random", "secrets", "hashlib", "_hashlib")

    @pytest.mark.parametrize("command", ["generate", "verify", "classify", "spectrum"])
    def test_no_subcommand_loads_numpy_random_or_openssl(self, tmp_path, command):
        if command == "generate":
            argv = ["generate", "journe"]
        else:
            argv = [command, str(generate(tmp_path, "journe"))]
        argv += ["--out", str(tmp_path / "out")]
        out = run_python(
            "import sys\n"
            "from gmrafilters.cli import main\n"
            f"code = main({argv!r})\n"
            f"print(code, [m for m in {self.FORBIDDEN!r} if m in sys.modules])\n"
        )
        assert out == f"{EXIT_OK} []\n"

    # The block-expansion certificate and the intersection report, which
    # only classify and generate journe run; no other call compiles them.
    CERTIFICATE = ("gmrafilters.gmra", "gmrafilters.lowpass")

    @pytest.mark.parametrize(
        "argv, loads",
        [
            (["generate", "haar"], []),
            (["verify", "BUNDLE"], []),
            (["spectrum", "BUNDLE"], []),
            # derive_journe searches a certificate; gmra stays out.
            (["generate", "journe"], ["gmrafilters.lowpass"]),
            (["classify", "BUNDLE"], list(CERTIFICATE)),
        ],
    )
    def test_only_classify_and_generate_journe_load_the_certificate(
        self, tmp_path, argv, loads
    ):
        bundle = str(generate(tmp_path, "journe"))
        argv = [bundle if a == "BUNDLE" else a for a in argv]
        argv += ["--out", str(tmp_path / "out")]
        out = run_python(
            "import sys\n"
            "from gmrafilters.cli import main\n"
            f"code = main({argv!r})\n"
            f"print(code, [m for m in {self.CERTIFICATE!r} if m in sys.modules])\n"
        )
        assert out == f"{EXIT_OK} {loads}\n"

    @pytest.mark.parametrize("module", ["gmrafilters", "gmrafilters.cli"])
    def test_import_loads_no_certificate_module(self, module):
        out = run_python(
            f"import sys, {module}\n"
            f"print([m for m in {self.CERTIFICATE!r} if m in sys.modules])\n"
        )
        assert out == "[]\n"

    @pytest.mark.parametrize("entry", ["console_main", "python_m"])
    @pytest.mark.parametrize(
        "argv, loads",
        [
            (["classify", "BUNDLE"], list(CERTIFICATE)),
            (["generate", "journe"], ["gmrafilters.lowpass"]),
            (["generate", "haar"], []),
        ],
    )
    def test_the_certificate_is_imported_before_the_last_freeze(
        self, tmp_path, entry, argv, loads
    ):
        # A stand-in gc.freeze records sys.modules: a module first imported
        # after the last freeze would compile on top of the bundle, untrimmed.
        bundle = str(generate(tmp_path, "journe"))
        argv = [bundle if a == "BUNDLE" else a for a in argv]
        argv = ["gmrafilters", *argv, "--out", str(tmp_path / "out")]
        # The report comes from an atexit handler, since ``python -m`` ends
        # the process at its last write; run_python requires exit code 0,
        # which is EXIT_OK.
        if entry == "console_main":
            run = "import gmrafilters.cli as cli\nsys.exit(cli.console_main())\n"
        else:
            run = "import runpy\nrunpy.run_module('gmrafilters.cli', run_name='__main__')\n"
        out = run_python(
            "import atexit, gc, sys\n"
            "frozen = []\n"
            "freeze = gc.freeze\n"
            "gc.freeze = lambda: frozen.append(set(sys.modules)) or freeze()\n"
            "def report():\n"
            "    late = [m for m in sys.modules if m.startswith('gmrafilters')\n"
            "            and m not in frozen[-1]]\n"
            f"    print([m for m in {self.CERTIFICATE!r} if m in frozen[-1]], late)\n"
            "atexit.register(report)\n"
            f"sys.argv = {argv!r}\n"
            + run
        )
        assert out == f"{loads} []\n"

    # The first LAPACK call pages in OpenBLAS, 0.9-1.6 MB of peak RSS; at
    # c <= 2 classify, and spectrum on a filter that coarsens to one cell,
    # solve their 1 x 1 and 2 x 2 matrices in closed form instead.
    LAPACK = ("eig", "eigvals", "eigvalsh", "svd", "cond")

    @pytest.mark.parametrize(
        "command,generator,depth,code",
        [
            ("classify", "haar", "10", EXIT_OK),
            ("classify", "constant", "10", EXIT_NOT_PURE),
            ("classify", "journe", "5", EXIT_OK),
            ("classify", "journe_step", None, EXIT_OK),
            ("spectrum", "constant", "10", EXIT_OK),
        ],
    )
    def test_small_counts_call_no_lapack(
        self, tmp_path, monkeypatch, command, generator, depth, code
    ):
        extra = ("--depth", depth) if depth else ()
        bundle = generate(tmp_path, generator, *extra)

        def refuse(*args, **kwargs):
            raise AssertionError("numpy.linalg called")

        for name in self.LAPACK:
            monkeypatch.setattr(np.linalg, name, refuse)
        assert main([command, str(bundle), "--out", str(tmp_path / "out")]) == code


class TestNumericFlags:
    # Each once failed open: classify on the constant filter with
    # --tol-res nan, --tol-eig nan or --tol-eig -1 exited 4 with
    # pure_at_resolution, and verify with --trials -3 --nmax -2 exited 0
    # having checked nothing; verify --seed -1 ended in a traceback and
    # exit 1, the code of a failed verification.
    @pytest.mark.parametrize(
        "command, flag, value",
        [
            ("verify", "--tol", "nan"),
            ("verify", "--tol", "-1e-10"),
            ("verify", "--trials", "-3"),
            ("verify", "--trials", "-1"),
            ("verify", "--nmax", "-2"),
            # No grid has more than 2**48 cells, so every higher order would
            # be skipped; --nmax 100000 once wrote 8.7 MB of such entries.
            ("verify", "--nmax", "49"),
            ("verify", "--seed", "-1"),
            ("classify", "--tol-eig", "nan"),
            ("classify", "--tol-eig", "-1"),
            ("classify", "--tol-res", "nan"),
            ("classify", "--tol-norm", "inf"),
            ("classify", "--verify-tol", "-inf"),
            ("spectrum", "--tol-eig", "inf"),
            ("spectrum", "--tol-res", "-1"),
            ("spectrum", "--verify-tol", "nan"),
        ],
    )
    def test_bad_value_is_a_usage_error(self, tmp_path, capsys, command, flag, value):
        bundle = generate(tmp_path, "constant")
        out = tmp_path / "report.out"
        assert main([command, str(bundle), flag, value, "--out", str(out)]) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert f"argument {flag}: " in captured.err
        assert not out.exists()

    def test_boundary_values_are_accepted(self, tmp_path):
        bundle = generate(tmp_path, "constant")
        out = tmp_path / "report.json"
        args = ["verify", str(bundle), "--trials", "1", "--nmax", "0", "--out", str(out)]
        assert main(args) == EXIT_OK
        report = report_of(out)
        assert report["generalized_equation"] == []
        assert report["isometry"]["trials"] == 1
        args = ["verify", str(bundle), "--nmax", "48", "--out", str(out)]
        assert main(args) == EXIT_OK
        skipped = ["skipped" in g for g in report_of(out)["generalized_equation"]]
        assert skipped == [False] * 4 + [True] * 44
        args = ["verify", str(bundle), "--trials", "0", "--out", str(out)]
        assert main(args) == EXIT_OK
        assert report_of(out)["isometry"]["max_deviation"] == "0.0"
        args = ["classify", str(bundle), "--tol-norm", "0", "--out", str(out)]
        assert main(args) == EXIT_NOT_PURE
        assert report_of(out)["tolerances"]["tol_norm"] == "0.0"
        # The probe's generator takes a seed of any size.
        args = ["verify", str(bundle), "--seed", str(2**70), "--out", str(out)]
        assert main(args) == EXIT_OK
        assert report_of(out)["isometry"]["seed"] == 2**70

    def test_opt_in_probe_keeps_its_deviation(self, tmp_path):
        # The probe's stream is unchanged since it became opt-in: this is
        # the deviation verify reported when it drew 20 probes by default.
        bundle = generate(tmp_path, "haar")
        out = tmp_path / "report.json"
        args = ["verify", str(bundle), "--trials", "20", "--seed", "5"]
        assert main(args + ["--out", str(out)]) == EXIT_OK
        iso = report_of(out)["isometry"]
        assert iso["max_deviation"] == "3.3306690738754696e-16"
        assert float(iso["max_deviation"]) <= float(iso["worst_case_deviation"])


def _run_child(argv, **kwargs):
    """``python argv`` with its output block-buffered, as a pipe's is by
    default, so that a report still buffered at exit must be flushed."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    if "stdout" not in kwargs:
        kwargs["capture_output"] = True
    return subprocess.run(
        [sys.executable, *argv], text=True, env=env, timeout=120, check=False, **kwargs
    )


def _without_timings(text):
    return re.sub(r'"timings": \{[^{}]*\}', '"timings": {}', text)


class TestProcessEntry:
    """The process entry point, which in-process calls of ``main`` never reach."""

    @staticmethod
    def _entry_name():
        """The entry function ``[project.scripts]`` names, checked against ``__main__``."""
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
        module, name = scripts["gmrafilters"].split(":")
        assert module == "gmrafilters.cli"
        tree = ast.parse(Path(cli.__file__).read_text())
        blocks = [
            node for node in tree.body
            if isinstance(node, ast.If) and ast.unparse(node.test) == "__name__ == '__main__'"
        ]
        assert len(blocks) == 1
        called = {
            node.func.id for node in ast.walk(blocks[0])
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
        }
        assert called == {name}
        return name

    def test_both_entry_points_freeze_the_import_heap(self):
        # The stub stands in for main, so this shows the freeze happens
        # before main runs, and that main is not the entry point itself.
        script = (
            "import gc, sys\n"
            "import gmrafilters.cli as cli\n"
            "before = gc.get_freeze_count()\n"
            "cli.main = lambda: print(before, gc.get_freeze_count()) or 0\n"
            f"sys.exit(cli.{self._entry_name()}())\n"
        )
        proc = _run_child(["-c", script])
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        before, after = map(int, proc.stdout.split())
        assert before == 0
        assert after > 1000

    @pytest.mark.skipif(
        not Path("/proc/self/status").exists(), reason="reads RssAnon from /proc"
    )
    def test_entry_point_returns_free_heap_before_main(self):
        # Freeing all but every 50th of 5000 4-kB buffers leaves about
        # 19 MB of free heap that sits below a live buffer; only an
        # explicit trim gives it back.
        script = (
            "import sys\n"
            "import gmrafilters.cli as cli\n"
            "def anon():\n"
            "    with open('/proc/self/status') as fh:\n"
            "        return next(int(line.split()[1]) for line in fh\n"
            "                    if line.startswith('RssAnon'))\n"
            "kept = [bytes(4000) for _ in range(5000)][::50]\n"
            "before = anon()\n"
            "cli.main = lambda: print(before, anon()) or 0\n"
            "sys.exit(cli.console_main())\n"
        )
        proc = _run_child(["-c", script])
        assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        before, after = map(int, proc.stdout.split())
        assert before - after > 10_000

    def test_import_leaves_no_garbage(self):
        # The freeze pays off only while the import-time heap is all live:
        # an import-time reference cycle would be frozen, never freed.
        proc = _run_child(["-c", "import gc, gmrafilters.cli; print(gc.collect())"])
        assert (proc.returncode, proc.stderr, proc.stdout) == (0, "", "0\n")

    def test_main_leaves_the_collector_alone(self, tmp_path):
        before = (gc.get_freeze_count(), gc.isenabled())
        bundle = str(generate(tmp_path, "journe"))
        out = str(tmp_path / "out")
        assert main(["verify", bundle, "--out", out]) == EXIT_OK
        assert main(["classify", bundle, "--out", out]) == EXIT_OK
        assert main(["spectrum", bundle, "--out", out]) == EXIT_OK
        assert (gc.get_freeze_count(), gc.isenabled()) == before

    @pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
    @pytest.mark.parametrize("name", ["haar", "journe"])
    def test_python_m_matches_in_process_main(self, tmp_path, capsys, name, to_file):
        bundle = str(generate(tmp_path, name))
        for command in ("generate", "verify", "classify", "spectrum"):
            argv = [command, name if command == "generate" else bundle]
            outputs = []
            for side in ("main", "child"):
                out = tmp_path / f"{command}.{side}"
                full = argv + ["--out", str(out)] if to_file else argv
                if side == "main":
                    capsys.readouterr()
                    assert main(full) == EXIT_OK
                    stdout, stderr = capsys.readouterr()
                else:
                    proc = _run_child(["-m", "gmrafilters.cli", *full])
                    assert proc.returncode == EXIT_OK
                    stdout, stderr = proc.stdout, proc.stderr
                assert stderr == ""
                if to_file:
                    assert stdout == ""
                    stdout = out.read_text()
                outputs.append(_without_timings(stdout))
            assert outputs[0] == outputs[1], command
            assert outputs[0]

    @staticmethod
    def _entry_argv(entry, argv):
        """The child argv of a CLI call through one process entry point."""
        if entry == "python_m":
            return ["-m", "gmrafilters.cli", *argv]
        # As the console script pip writes runs the entry function.
        name = TestProcessEntry._entry_name()
        return ["-c", f"import sys\nfrom gmrafilters.cli import {name}\n"
                f"sys.argv[0] = 'gmrafilters'\nsys.exit({name}())\n", *argv]

    @pytest.mark.parametrize("entry", ["python_m", "script"])
    def test_exit_codes_and_stderr_match_main(self, tmp_path, capsys, entry):
        haar = generate(tmp_path, "haar")
        bad = tmp_path / "bad.json"
        raw = json.loads(haar.read_text())
        raw["entries"][0]["samples"][0] = ["5.0", "0.0"]
        bad.write_text(json.dumps(raw))
        out = str(tmp_path / "out")
        calls = [
            (EXIT_OK, ["verify", str(haar), "--out", out]),
            (EXIT_VERIFY_FAIL, ["verify", str(bad), "--out", out]),
            (EXIT_USAGE, ["verify", str(tmp_path / "missing.json")]),
            (EXIT_USAGE, ["verify", str(haar), "--tol", "nan"]),
            (EXIT_NOT_PURE, ["classify", str(generate(tmp_path, "constant")), "--out", out]),
        ]
        for code, argv in calls:
            capsys.readouterr()
            assert main(argv) == code
            expected = capsys.readouterr().err
            proc = _run_child(self._entry_argv(entry, argv))
            assert (proc.returncode, proc.stderr) == (code, expected), argv

    @pytest.mark.parametrize("entry", ["python_m", "script"])
    @pytest.mark.parametrize("command", ["generate", "verify"])
    def test_stdout_through_a_pipe_matches_out(self, tmp_path, entry, command):
        if command == "generate":
            argv = ["generate", "haar", "--depth", "12"]
        else:
            argv = ["verify", str(generate(tmp_path, "journe"))]
        out = tmp_path / "out"
        piped = _run_child(self._entry_argv(entry, argv))
        written = _run_child(self._entry_argv(entry, [*argv, "--out", str(out)]))
        for proc in (piped, written):
            assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
        assert written.stdout == ""
        text = out.read_text(encoding="utf-8")
        if command == "verify":
            piped_text, text = map(_without_timings, (piped.stdout, text))
        else:
            piped_text = piped.stdout
        assert piped_text == text
        # The bundle spans several writes; the report fits the buffer.
        assert len(text) > (4 * cli._WRITE_CHARS if command == "generate" else 1000)

    @pytest.mark.parametrize("argv", [["verify", "BUNDLE"], ["generate", "haar", "--depth", "12"]])
    def test_closed_stdout_exits_2_in_one_line(self, tmp_path, argv):
        # A verify report sits in the stdout buffer until the exit flushes
        # it; a depth 12 bundle overflows the buffer, so its write fails
        # inside main.  Either way there is one line and no traceback.
        argv = [str(generate(tmp_path, "haar")) if a == "BUNDLE" else a for a in argv]
        read, write = os.pipe()
        os.close(read)
        try:
            proc = _run_child(["-m", "gmrafilters.cli", *argv], stdout=write,
                              stderr=subprocess.PIPE)
        finally:
            os.close(write)
        assert (proc.returncode, proc.stderr) == (
            EXIT_USAGE, "gmrafilters: [Errno 32] Broken pipe\n"
        )

    @pytest.mark.parametrize("to_file", [True, False], ids=["out", "stdout"])
    def test_no_stdout_at_all(self, tmp_path, to_file):
        # Started with file descriptor 1 closed, so sys.stdout is None.
        out = tmp_path / "out.json"
        argv = ["generate", "haar", *(["--out", str(out)] if to_file else [])]
        close_stdout = "import os, sys\nos.close(1)\nos.execv(sys.executable, sys.argv[1:])\n"
        proc = _run_child(["-c", close_stdout, sys.executable, "-m", "gmrafilters.cli", *argv])
        if to_file:
            assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
            assert out.read_bytes() == generate(tmp_path, "haar").read_bytes()
        else:
            assert (proc.returncode, proc.stderr) == (
                EXIT_USAGE, "gmrafilters: [Errno 9] Bad file descriptor: '<stdout>'\n"
            )

    def test_exit_runs_atexit_handlers_and_skips_teardown(self, tmp_path):
        # An object held by a module's namespace (here cli's) is freed only
        # by the interpreter's teardown, which the exit skips; the atexit
        # handler still runs, and what it prints is flushed.
        script = (
            "import atexit, os, sys\n"
            "import gmrafilters.cli as cli\n"
            "class Witness:\n"
            "    def __del__(self):\n"
            "        os.write(1, b'teardown\\n')\n"
            "cli.witness = Witness()\n"
            "atexit.register(print, 'atexit')\n"
            f"sys.argv = ['gmrafilters', 'generate', 'haar', '--out', {str(tmp_path / 'b')!r}]\n"
            f"sys.exit(cli.{self._entry_name()}())\n"
        )
        proc = _run_child(["-c", script])
        assert (proc.returncode, proc.stderr, proc.stdout) == (EXIT_OK, "", "atexit\n")

    def test_only_the_exit_function_calls_os_exit(self):
        found = []
        for path in sorted(Path(cli.__file__).parent.glob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            owner = {}
            for func in ast.walk(tree):
                if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    for node in ast.walk(func):
                        owner.setdefault(id(node), func.name)
            for node in ast.walk(tree):
                if (
                    (isinstance(node, ast.Attribute) and node.attr == "_exit")
                    or (isinstance(node, ast.Name) and node.id == "_exit")
                    or (isinstance(node, ast.alias) and node.name == "_exit")
                ):
                    found.append((path.name, owner.get(id(node))))
        assert found == [("cli.py", self._entry_name())]
