import dataclasses
import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from resistor import cli, evaluator, harness, oracles
from resistor.evaluator import MCBudget, contenders, piece_values, rescale_to_smoothness
from resistor.geometry import OrthonormalBasis
from resistor.harness import (
    CSV_COLUMNS,
    RunConfig,
    RunReport,
    MinCrossCheck,
    RefusedArgument,
    UnsupportedOrderError,
    audit_instance,
    emit_report,
    run_experiment,
    run_verification,
    sweep,
    verify_invariance,
    verify_lipschitz,
    verify_locality,
)
from resistor.instance import (
    DETERMINISTIC,
    RANDOMIZED,
    HardInstance,
    InstanceParams,
    params_deterministic,
    params_randomized,
    pessimal_point,
)
from resistor.optimizers import run_method
from resistor.oracles import AdaptiveOracle, RandomizedOracle

from conftest import margins_masked, unit


class TestRunExperiment:
    def test_deterministic_t16_psg(self):
        report = run_experiment(RunConfig(mode=DETERMINISTIC, T=16, k=1, method="psg", seed=0))
        assert len(report.rows) == 16
        assert all(row.certified_gap >= 0.125 for row in report.rows)
        assert report.floor == 0.125
        assert report.passed

    def test_rescaled_floor_column(self):
        report = run_experiment(
            RunConfig(mode=DETERMINISTIC, T=4, k=1, method="psg", seed=0, rescale_L=1.0)
        )
        assert report.floor == 0.00078125
        assert all(row.floor == 0.00078125 for row in report.rows)
        assert report.passed

    def test_randomized_run(self):
        report = run_experiment(
            RunConfig(mode=RANDOMIZED, T=4, k=1, method="psg", seed=11, mc_samples=10_000)
        )
        assert report.event_e_held is not None
        assert report.passed
        assert all(row.event_e_margin is not None for row in report.rows)

    def test_unknown_mode(self):
        with pytest.raises(ValueError, match="mode"):
            run_experiment(RunConfig(mode="hybrid"))

    def test_witness_crosscheck_exact(self):
        report = run_experiment(RunConfig(mode=DETERMINISTIC, T=9, k=2, method="psg", seed=3))
        oracle = AdaptiveOracle(params_deterministic(9, 2), seed=3)
        run_method(oracle, "psg")
        final, _ = oracle.finalize()
        xhat, _ = pessimal_point(final)
        check = report.min_crosscheck
        assert (check.estimate, check.stderr) == (piece_values(final, xhat).f_tilde, 0.0)
        assert check.passed and check.estimate <= check.bound

    def test_witness_crosscheck_monte_carlo_under_broken_schedule(self, monkeypatch):
        # 2*k*delta > gamma/m puts the witness point in the tie band
        def broken(T, k):
            p = params_deterministic(T, k)
            return dataclasses.replace(p, delta=p.gamma / p.m)

        monkeypatch.setattr(harness, "params_deterministic", broken)
        report = run_experiment(
            RunConfig(mode=DETERMINISTIC, T=4, k=1, method="psg", seed=0, mc_samples=5_000)
        )
        assert report.min_crosscheck.stderr > 0


def _empty_report():
    return RunReport(
        mode=DETERMINISTIC,
        T=4,
        k=1,
        method="psg",
        seed=0,
        rescale=1.0,
        floor=0.25,
        rows=[],
        floor_ok=True,
        consistency_ok=True,
        consistency_first_mismatch=None,
        event_e_held=None,
        event_e_first_violation=None,
        min_crosscheck=MinCrossCheck(0.0, 0.0, 0.0, True),
        passed=True,
    )


class TestEmitReport:
    def test_empty_run_header_only(self, tmp_path):
        path = emit_report(_empty_report(), "csv", tmp_path / "empty.csv")
        text = path.read_text(encoding="utf-8")
        assert text == ",".join(CSV_COLUMNS) + "\n"

    def test_sixteen_rows_plus_header(self, tmp_path):
        report = run_experiment(RunConfig(mode=DETERMINISTIC, T=16, k=1, seed=0))
        path = emit_report(report, "csv", tmp_path / "r.csv")
        lines = path.read_text(encoding="utf-8").splitlines()
        assert len(lines) == 17
        assert lines[0] == "iter,certified_gap,floor,regime,event_e_margin,value,grad_norm"
        assert path.read_text(encoding="utf-8").endswith("\n")

    def test_json_round_trip(self, tmp_path):
        report = run_experiment(RunConfig(mode=DETERMINISTIC, T=4, k=1, seed=0))
        path = emit_report(report, "json", tmp_path / "r.json")
        assert json.loads(path.read_text(encoding="utf-8")) == report.to_dict()

    def test_replay_byte_identical(self, tmp_path):
        config = RunConfig(mode=DETERMINISTIC, T=9, k=2, method="cubic", seed=5)
        p1 = emit_report(run_experiment(config), "csv", tmp_path / "a.csv")
        p2 = emit_report(run_experiment(config), "csv", tmp_path / "b.csv")
        assert p1.read_bytes() == p2.read_bytes()

    def test_unknown_format(self, tmp_path):
        with pytest.raises(ValueError, match="format"):
            emit_report(_empty_report(), "xml", tmp_path / "r.xml")


# SHA-256 of the CSV report and of the transcript of run_experiment at seed
# 0: any change to an answer, a certificate or the emitted format shows
# here. Randomized agd at T = 100 has one answer with two contenders.
PINNED_RUNS = {
    (DETERMINISTIC, 9, 1, "psg"): (
        "ae74d789d5b5aded90d411d60f72e87c224f0a16d426477f0a4e54c792e701d0",
        "4edaa9098ce4ad93faea2d9b0956d8a8a622a1c63e3b58ff3230463684ed1ee4",
    ),
    (DETERMINISTIC, 9, 2, "cubic"): (
        "1e6a4e78cbb8d231f1a5c24a67ec4182b4fc439f06b0618810d6f8ed24f96402",
        "89c6d4d7fd161133b08ae2b6d8116ad0691dd57b11bcea9c772141d0471b6172",
    ),
    (DETERMINISTIC, 16, 1, "agd"): (
        "53fd30d0311837b000deb1c0dec47de3838225e13095ba9b3abbdb056af7f7a8",
        "dac613593c1dc38adb99df7b79728111ccce035bd04dab6c52110ab059bf274c",
    ),
    (RANDOMIZED, 9, 1, "psg"): (
        "d0ea71bb26fcf88202f1eb34610e209758f7feceae33559eb04c6a38fc62f062",
        "edaa38b66b36fa55c7a74adb7fa33dec57c5f3a37ca07a4b9411c2d3a1dc5b75",
    ),
    (RANDOMIZED, 100, 1, "agd"): (
        "29d5da7c8751b9dff78711dff8057f3e2f5a6b819d42d79ea6ad36e46770deac",
        "1430f1ca7b2d240fa2d4f4982fd2c6cb4102f4dd813658100450007b5a8c1aad",
    ),
}


# The same files with every event_e_margin value blanked (margins_masked):
# they hold while a change moves margins and nothing else.
PINNED_RUNS_MASKED = {
    (DETERMINISTIC, 9, 1, "psg"): (
        "492367e80bb5a04a01ff611cee336cdcab894bdc09d1890e12dccd974657a1bb",
        "65375fb75971c1a628eadc5f70a490f995212f3634132c4b1a68483e54e9b611",
    ),
    (DETERMINISTIC, 9, 2, "cubic"): (
        "e0f3450dcf09167436c49ccd2cb71553a7ab79f9a59aa876ce5316a8c522aeef",
        "1aacf21a447511daa28b8266f37f89031aacb0280dbc87597912aa12c8ab1623",
    ),
    (DETERMINISTIC, 16, 1, "agd"): (
        "ed8b4dac9cefba6341fefe26612916de879148dd4b442331632e416384241d49",
        "b7d66006c43e85e857c25d11fd5669beb5e8b0d460b1a5f8e4a7111ce7f3d277",
    ),
    (RANDOMIZED, 9, 1, "psg"): (
        "d6dbd6c0d1749e553db2cd764cd2df2b2e588fd6832ad2cb9e063b91b43b4c90",
        "bde666852f54256627245309b6a9720517b254ce21406f759a90ee3fb0f0e486",
    ),
    (RANDOMIZED, 100, 1, "agd"): (
        "9c0d756e175e8357eaa94923c2aa67dc2ad53863eeb549c434d2f253a16cfef7",
        "18041ee8e0875d912ab05f560c1c51e5ce2509ce6c36518390e794a2c24ddddc",
    ),
}


def _sha256(data: str | bytes) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


def _run_outputs(tmp_path, cell) -> list[bytes]:
    """The CSV report and the transcript run_experiment writes at seed 0."""
    mode, T, k, method = cell
    out = tmp_path / "run.csv"
    run_experiment(RunConfig(mode=mode, T=T, k=k, method=method, seed=0, out=str(out)))
    return [p.read_bytes() for p in (out, tmp_path / "run.csv.transcript.jsonl")]


@pytest.mark.parametrize("cell", sorted(PINNED_RUNS), ids=lambda c: "-".join(map(str, c)))
def test_run_output_bytes_are_pinned(tmp_path, cell):
    assert tuple(map(_sha256, _run_outputs(tmp_path, cell))) == PINNED_RUNS[cell]


@pytest.mark.parametrize("cell", sorted(PINNED_RUNS_MASKED), ids=lambda c: "-".join(map(str, c)))
def test_run_output_bytes_but_margins_are_pinned(tmp_path, cell):
    masked = (_sha256(margins_masked(data)) for data in _run_outputs(tmp_path, cell))
    assert tuple(masked) == PINNED_RUNS_MASKED[cell]


# SHA-256 of what the CLI writes: the `verify --suite all --T 9 --k 2
# --seed 0` summary, the `run --T 9 --k 1 --method psg --seed 0 --format
# json` report per mode, the `sweep --seeds 3 --T 4 --k 1` report and the
# --help texts at an 80-column terminal
PINNED_VERIFY_STDOUT = "ce63928738c801e6b3c656102e4b199f6aee416878c724870b60a9d2f58e45d5"
PINNED_JSON_REPORTS = {
    "det": "1555a621d84852b22723c8127a6d60d7556d51bd50b6f5ffa81de045a0a15aff",
    "rand": "870000c308d0b7bd2ef55fdeccd0aee51d0fe7e7b076e00190e73d1d93887397",
}
PINNED_JSON_REPORTS_MASKED = {  # the same with margins_masked
    "det": "c91f554663b5882f5e25e9b4797a49b34e72d9143aa75ad6495fd5bf84257847",
    "rand": "0e268a61f83ee62b76d79ed32e5e1d1930333b3d618e65f2fb8c83c7e9b7254e",
}
PINNED_SWEEP_REPORT = "7e879bbe4720d09d960601f2bc22ff5d30aa5b30eec0ceb4aecf6e6146d34dba"
PINNED_HELP = {
    "grid": "9e150210d1b509119ba15020be134ebc76325f398c7191959a5dbcd9685e88d8",
    "resistor": "a4567fcb6cdb52c596836f3e1a592144ac4521ef38c36928e07f2553c183fbea",
    "run": "60ca2d421bd08eef3aa57c28a87dc6663adcdd928b1e25f8c92ccb3486f6b496",
    "sweep": "1deeeca74d974dcf2ca43a8a032805a51a0ae9d1e224d97c3e8da713b016c85c",
    "verify": "e347601f547861cf7a30e6f7fcf6142cca79a7b689467fbb2bbac82a801be196",
}
# the `grid --budgets 4 9 25 100 400 --seed 0` table without its time column
PINNED_ACCEPTANCE_GRID = "550fb4dc8f059586575218e00e1db9fc78800d3f0bcb8f9cbba87a3270347345"


def test_verify_stdout_is_pinned(capsys):
    assert cli.main(["verify", "--suite", "all", "--T", "9", "--k", "2", "--seed", "0"]) == 0
    assert _sha256(capsys.readouterr().out) == PINNED_VERIFY_STDOUT


def _json_report(tmp_path, mode) -> bytes:
    out = tmp_path / "run.json"
    argv = ["run", "--mode", mode, "--T", "9", "--k", "1", "--method", "psg", "--seed", "0"]
    assert cli.main([*argv, "--format", "json", "--out", str(out)]) == 0
    return out.read_bytes()


@pytest.mark.parametrize("mode", sorted(PINNED_JSON_REPORTS))
def test_json_report_bytes_are_pinned(tmp_path, mode):
    assert _sha256(_json_report(tmp_path, mode)) == PINNED_JSON_REPORTS[mode]


@pytest.mark.parametrize("mode", sorted(PINNED_JSON_REPORTS_MASKED))
def test_json_report_bytes_but_margins_are_pinned(tmp_path, mode):
    assert _sha256(margins_masked(_json_report(tmp_path, mode))) == PINNED_JSON_REPORTS_MASKED[mode]


def test_sweep_report_bytes_are_pinned(tmp_path):
    out = tmp_path / "sweep.json"
    assert cli.main(["sweep", "--seeds", "3", "--T", "4", "--k", "1", "--out", str(out)]) == 0
    assert _sha256(out.read_bytes()) == PINNED_SWEEP_REPORT


@pytest.mark.parametrize("command", sorted(PINNED_HELP))
def test_help_text_is_pinned(monkeypatch, capsys, command):
    # argparse wraps at the terminal width, read from COLUMNS; "resistor"
    # is the top-level help
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exit_info:
        cli.main([*([] if command == "resistor" else [command]), "--help"])
    assert exit_info.value.code == 0
    assert _sha256(capsys.readouterr().out) == PINNED_HELP[command]


class TestVerifyLipschitz:
    def test_value_audit_within_unit_bound(self):
        audit = verify_lipschitz(audit_instance(4, 1), 0, n_pairs=15, samples=4_000, seed=0)
        assert audit.bound == 1.0
        assert audit.passed

    def test_gradient_audit_t9_k2_bound(self):
        inst = audit_instance(9, 2)
        audit = verify_lipschitz(inst, 1, n_pairs=10, samples=4_000, seed=0)
        assert audit.bound == pytest.approx(9.0 * 486.0, rel=1e-12)
        assert audit.bound <= (10.0 * 2) * 9.0**2.5
        assert audit.passed
        assert audit.max_ratio < audit.bound / 100.0

    def test_hessian_audit_runs(self):
        audit = verify_lipschitz(audit_instance(9, 2), 2, n_pairs=4, samples=2_000, seed=1)
        assert audit.bound == pytest.approx((9.0 * 486.0) ** 2, rel=1e-12)
        assert audit.passed

    def test_one_piece_gradient_ratio_vanishes(self):
        p = InstanceParams(T=4, k=1, m=4, d=5, gamma=1.0 / 6, delta=1.0 / 72, mode=DETERMINISTIC)
        inst = HardInstance.from_basis(p, OrthonormalBasis(unit(5, 0)[None, :]))
        audit = verify_lipschitz(inst, 1, n_pairs=6, samples=4_000, seed=2)
        assert audit.max_ratio <= 0.05

    def test_rescale_scales_bound_exactly(self):
        inst = audit_instance(4, 1)
        base = verify_lipschitz(inst, 1, n_pairs=3, samples=1_000, seed=3)
        scaled = verify_lipschitz(inst, 1, n_pairs=3, samples=1_000, seed=3, rescale=0.5)
        assert scaled.bound == 0.5 * base.bound

    def test_hessian_audit_sees_a_tie_off_the_probed_row(self, monkeypatch):
        # pieces 2 and 3 of four axis pieces tie at x, y is exact-affine:
        # pair 0's Hessian difference lives on rows 2 and 3, none of them
        # basis row 0 mod T, and the whole-Hessian comparison still sees it
        params = InstanceParams(T=4, k=2, m=16, d=5, gamma=2.0, delta=1.0 / 64.0, mode=DETERMINISTIC)
        inst = HardInstance.from_basis(params, OrthonormalBasis(np.eye(5)[:4]))
        x, y = 0.25 * unit(5, 1) + 0.375 * unit(5, 2), 0.5 * unit(5, 0)
        assert contenders(inst, piece_values(inst, x)).tolist() == [1, 2]
        dist = float(np.linalg.norm(x - y))
        monkeypatch.setattr(harness, "_separated_pairs", lambda *args: [(x, y, dist)])
        audit = verify_lipschitz(inst, 2, n_pairs=1, samples=64, seed=0)
        hess, _, frame = harness._tensor_coords_mc(inst, x, 2, MCBudget(64, 0))
        assert audit.n_tie_band == 1 and audit.passed
        assert audit.max_ratio == float(np.linalg.norm(frame.T @ hess @ frame)) / dist > 0.0

    def test_high_orders_reported_unsupported(self):
        with pytest.raises(UnsupportedOrderError, match="order 3"):
            verify_lipschitz(audit_instance(9, 2), 3)

    def test_order_above_instance_smoothness(self):
        with pytest.raises(ValueError, match="exceeds"):
            verify_lipschitz(audit_instance(4, 1), 2)


def _nan_value(instance, x, budget, regime=None):
    return math.nan, 0.01


def _nan_gradient_error(instance, x, budget, regime=None):
    return np.zeros(instance.basis.dim), math.nan


def _nan_hessian(instance, x, order, budget, regime=None):
    # a NaN Hessian in the frame of the first piece
    return np.full((1, 1), math.nan), 1.0, instance.piece_matrix[:1]


# (audited order, estimator the audit calls, a stand-in answering NaN)
NAN_ESTIMATES = [
    (0, "smoothed_value_mc", _nan_value),
    (1, "smoothed_gradient_mc", _nan_gradient_error),
    (2, "_tensor_coords_mc", _nan_hessian),
]


class TestLipschitzAuditFailsClosed:
    @pytest.mark.parametrize("order, name, fake", NAN_ESTIMATES)
    def test_nan_estimate_fails_the_audit(self, monkeypatch, order, name, fake):
        monkeypatch.setattr(harness, name, fake)
        audit = verify_lipschitz(audit_instance(4, 2), order, n_pairs=3, samples=64, seed=0)
        assert math.isnan(audit.max_excess)
        assert not audit.passed

    def test_nan_value_sticks_in_max_ratio(self, monkeypatch):
        monkeypatch.setattr(harness, "smoothed_value_mc", _nan_value)
        audit = verify_lipschitz(audit_instance(4, 1), 0, n_pairs=3, samples=64, seed=0)
        assert math.isnan(audit.max_ratio)

    def test_n_tie_band_counts_the_pairs_with_two_or_more_contenders(self, monkeypatch):
        # the points the audit estimates at, x then y of each pair; a pair
        # is in the tie band when either point has two or more contenders
        points = []
        real = harness.smoothed_value_mc

        def recording(instance, x, *args, **kwargs):
            points.append(x)
            return real(instance, x, *args, **kwargs)

        monkeypatch.setattr(harness, "smoothed_value_mc", recording)
        inst = audit_instance(9, 2)
        audit = verify_lipschitz(inst, 0, n_pairs=30, samples=2_000, seed=0)
        band = [len(contenders(inst, piece_values(inst, z))) > 1 for z in points]
        in_band = sum(bx or by for bx, by in zip(band[::2], band[1::2]))
        assert len(points) == 60 and audit.n_tie_band == in_band and 0 < in_band < audit.n_pairs

    def test_no_pairs_is_refused(self):
        # an audit of zero pairs has no evidence to pass on
        with pytest.raises(ValueError, match="n_pairs must be at least 1, got 0"):
            verify_lipschitz(audit_instance(4, 1), 0, n_pairs=0)

    @pytest.mark.parametrize("order, name, fake", NAN_ESTIMATES)
    def test_verify_exits_1(self, monkeypatch, capsys, order, name, fake):
        monkeypatch.setattr(harness, name, fake)
        code = cli.main(
            ["verify", "--suite", "lipschitz", "--T", "4", "--k", "2", "--pairs", "3",
             "--mc-samples", "64"]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert f"lipschitz order {order}: max ratio" in out and "suite lipschitz: FAIL" in out


class TestVerifyInvariance:
    def test_standard_instance(self):
        audit = verify_invariance(audit_instance(4, 1), n_points=15, samples=4_000, seed=0)
        assert audit.passed
        assert audit.n_exact > 0

    def test_wide_tie_band_exercises_monte_carlo(self, plane_instance):
        import dataclasses

        wide = dataclasses.replace(
            plane_instance, params=dataclasses.replace(plane_instance.params, delta=0.05)
        )
        audit = verify_invariance(wide, n_points=40, samples=4_000, seed=1)
        assert audit.passed
        assert audit.n_monte_carlo > 0

    @pytest.mark.parametrize(
        "audit, samples",
        [(verify_invariance, 1), (lambda inst, samples: verify_lipschitz(inst, 1, samples=samples), 3)],
    )
    def test_budget_refused_before_any_pair_is_drawn(self, monkeypatch, audit, samples):
        # at T = 25 no invariance pair lands in the tie band, so only the
        # entry check can refuse the budget
        inst = audit_instance(25, 1)
        monkeypatch.setattr(harness, "sample_ball", _queried)
        with pytest.raises(ValueError, match=f"needs n_samples >= {samples + 1} .* got {samples}$"):
            audit(inst, samples=samples)

    def test_needs_orthogonal_complement(self):
        p = InstanceParams(T=2, k=1, m=2, d=2, gamma=0.1, delta=0.01, mode=DETERMINISTIC)
        inst = HardInstance.from_basis(p, OrthonormalBasis(np.eye(2)))
        with pytest.raises(ValueError, match="complement"):
            verify_invariance(inst)

    def test_zero_shift_trivially_equal(self, plane_instance):
        from resistor.evaluator import MCBudget, smoothed_value_mc

        x = np.array([0.25, 0.30, 0.0])
        v1, _ = smoothed_value_mc(plane_instance, x, MCBudget(2_000, 5))
        v2, _ = smoothed_value_mc(plane_instance, x + np.zeros(3), MCBudget(2_000, 5))
        assert v1 == v2


@pytest.mark.parametrize("suite, k, least", [("lipschitz", 1, 4), ("lipschitz", 3, 8), ("invariance", 1, 2),
                                              ("locality", 2, 0)])
def test_verify_takes_the_fewest_samples_its_estimates_take(suite, k, least):
    # the least sample count each suite accepts is enough for every
    # estimate it makes; locality makes none
    summary = run_verification(suite, 4, k, n_pairs=3, samples=least)
    assert len(summary.lipschitz) == (min(k, 2) + 1 if suite == "lipschitz" else 0)


def test_verify_locality_suite():
    audit = verify_locality(9, 1, seed=0)
    assert audit.passed


def _broken_radius(monkeypatch):
    # delta = 0.02 violates 2*k*delta <= gamma/m: the final instance
    # contradicts 8 of the 9 recorded exact-affine flags
    real = harness.params_deterministic
    monkeypatch.setattr(
        harness, "params_deterministic", lambda T, k: dataclasses.replace(real(T, k), delta=0.02)
    )


@pytest.mark.parametrize("seed", range(4))
def test_verify_locality_fails_on_regime_mismatch(monkeypatch, seed):
    _broken_radius(monkeypatch)
    audit = verify_locality(9, 1, seed=seed)
    assert not audit.passed
    oracle = AdaptiveOracle(harness.params_deterministic(9, 1), seed=seed)
    run_method(oracle, "psg")
    _, replay = oracle.finalize()
    assert [e.reason for e in replay.entries].count("regime_mismatch") == 8


def test_verify_locality_mismatch_exits_1(monkeypatch, capsys):
    _broken_radius(monkeypatch)
    code = cli.main(["verify", "--suite", "locality", "--T", "9", "--k", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "replay MISMATCH" in out and "suite locality: FAIL" in out


def test_verify_cli_reports_the_tie_band_counts(capsys):
    # the default 30 pairs per order at T = 9, k = 2, seed 0
    assert cli.main(["verify", "--suite", "all", "--T", "9", "--k", "2", "--seed", "0"]) == 0
    lines = {line.split(":")[0]: line for line in capsys.readouterr().out.splitlines()}
    for order, count in enumerate((2, 3, 4)):
        assert f"({count}/30 pairs in the tie band)" in lines[f"lipschitz order {order}"]
    assert "tie-band pairs" in lines["invariance"] and lines["suite all"] == "suite all: PASS"


# SHA-256 of repr(run_verification("all", T, k, seed)), every field of
# every audit, keyed by (T, k, seed)
PINNED_VERIFICATIONS = {
    (4, 1, 0): "30609d77e434ee49d37185b04110021514a3ed9f5f989d9786fab3ce3d8007b9",
    (9, 2, 0): "dce881d65d19b457cc73fdbc7647c84ef9458e879fc2291f58cf32b30d88fba5",
    (9, 2, 3): "26d027387f656fe5591a9232d69703f2235c5e954bb315deee28b03c0e200310",
    (16, 2, 1): "8e8836c29af146a819a8cde05f06b0507143dd197b11f19357192a3a88c44b4f",
    (25, 1, 2): "303d7c18985495995ca7318341d0c6ca34f5dc91bed108b57f03a3120cddf7fd",
    (9, 1, 5): "98af3a107ba04ffd47475c2aaf2cce77ccd81cd57f88ac8e38e01b71c3ff9dc6",
    (4, 2, 7): "e8e68a33fa010505ee3648511b0eea01342e3891ea51dbd4525ef8b2db3c0c45",
}


@pytest.mark.parametrize("config", sorted(PINNED_VERIFICATIONS), ids=lambda c: "-".join(map(str, c)))
def test_verification_summaries_are_pinned(config):
    assert _sha256(repr(run_verification("all", *config))) == PINNED_VERIFICATIONS[config]


@pytest.mark.parametrize("suite, k", [("lipschitz", 1), ("lipschitz", 2), ("invariance", 2)])
def test_each_audited_point_is_evaluated_once(monkeypatch, suite, k):
    # every np.vecdot against the whole piece matrix, counted by the
    # points it evaluates: one per audited point, x and y of each pair,
    # a and b of each invariance pair
    instance = audit_instance(9, k, seed=0)
    evaluated = []
    real = np.vecdot

    def counting(a, b, *args, **kwargs):
        if a is instance.piece_matrix:
            evaluated.append(b.size // b.shape[-1])
        return real(a, b, *args, **kwargs)

    monkeypatch.setattr(np, "vecdot", counting)
    if suite == "lipschitz":
        audits = [verify_lipschitz(instance, order, n_pairs=30, seed=0) for order in range(k + 1)]
        points = sum(2 * audit.n_pairs for audit in audits)
    else:
        audit = verify_invariance(instance, n_points=30, seed=0)
        points = 2 * (audit.n_exact + audit.n_monte_carlo)
    assert sum(evaluated) == points


def test_run_verification_all():
    summary = run_verification("all", 4, 2, seed=0, n_pairs=6, samples=2_000)
    assert summary.lipschitz and summary.invariance and summary.locality
    assert {a.order for a in summary.lipschitz} == {0, 1, 2}
    assert summary.passed
    with pytest.raises(ValueError, match="suite"):
        run_verification("everything", 4, 1)


class TestSweep:
    def test_deterministic_sweep(self):
        report = sweep(RunConfig(mode=DETERMINISTIC, T=4, k=1, seed=0), 3)
        assert report.n_seeds == 3
        assert report.passed
        assert report.held_count is None

    def test_randomized_sweep_threshold(self):
        report = sweep(
            RunConfig(mode=RANDOMIZED, T=4, k=1, seed=0, mc_samples=5_000), 5
        )
        p = 0.2
        expected = (1.0 - p) - 3.0 * math.sqrt(p * (1.0 - p) / 5)
        assert report.held_threshold == pytest.approx(expected, rel=1e-12)
        assert report.passed


class TestCLI:
    def test_python_dash_m_runs_the_cli(self):
        src = str(Path(cli.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run(
            [sys.executable, "-m", "resistor", "--help"], capture_output=True, text=True, env=env
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.startswith("usage: resistor")

    def test_run_csv(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = cli.main(
            ["run", "--mode", "det", "--T", "9", "--k", "1", "--method", "psg",
             "--seed", "0", "--out", str(out)]
        )
        assert code == 0
        assert out.exists()
        assert "PASS" in capsys.readouterr().out

    def test_run_exit_code_reflects_floor(self):
        code = cli.main(["run", "--mode", "det", "--T", "4", "--k", "2", "--method", "cubic"])
        assert code == 0

    def test_rescaled_cubic_run_at_k2_passes(self, capsys):
        code = cli.main(["run", "--T", "9", "--k", "2", "--method", "cubic", "--rescale-L", "1.0"])
        assert code == 0 and "[PASS]" in capsys.readouterr().out

    def test_run_prints_the_low_correlation_event(self, capsys):
        assert cli.main(["run", "--mode", "rand", "--T", "4", "--k", "1"]) == 0
        assert capsys.readouterr().out.splitlines()[1] == "  low-correlation event: held"

    def test_run_prints_the_first_replay_mismatch(self, monkeypatch, capsys):
        _broken_radius(monkeypatch)
        assert cli.main(["run", "--T", "9", "--k", "1"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].endswith("[FAIL]") and lines[1:] == ["  replay mismatch at query 1"]

    def test_run_prints_a_failed_witness_check(self, monkeypatch, capsys):
        monkeypatch.setattr(harness, "smoothed_value_mc", lambda *args, **kwargs: (1.0, 0.0))
        assert cli.main(["run", "--T", "4", "--k", "1"]) == 1
        lines = capsys.readouterr().out.splitlines()
        assert lines[0].endswith("[FAIL]")
        assert lines[1:] == ["  witness cross-check failed: estimate 1 > bound -0.319444 + 3*stderr"]

    def test_verify(self, capsys):
        code = cli.main(
            ["verify", "--suite", "locality", "--T", "4", "--k", "1", "--seed", "0"]
        )
        assert code == 0
        assert "locality" in capsys.readouterr().out

    def test_sweep(self, tmp_path, capsys):
        out = tmp_path / "sweep.json"
        code = cli.main(
            ["sweep", "--seeds", "3", "--mode", "det", "--T", "4", "--k", "1",
             "--out", str(out)]
        )
        assert code == 0
        assert json.loads(out.read_text())["n_seeds"] == 3

    def test_grid(self, capsys):
        code = cli.main(["grid", "--budgets", "4", "9", "--seed", "1"])
        out = capsys.readouterr().out.splitlines()
        assert code == 0
        # header, 5 deterministic (k, method) cells and randomized psg x 2 budgets, verdict
        assert len(out) == 1 + 12 + 1
        assert out[-1] == "grid: PASS"
        assert [line.split()[:4] for line in out[1:3]] == [
            ["det", "psg", "1", "4"], ["det", "psg", "1", "9"]
        ]
        rand = [line.split() for line in out[-3:-1]]
        assert [row[:4] for row in rand] == [["rand", "psg", "1", "4"], ["rand", "psg", "1", "9"]]
        assert all(row[6:8] == ["exact", "held"] for row in rand)
        # the acceptance grid prints the same table, time column aside
        assert cli.main(["grid", "--budgets", "4", "9", "25", "100", "400", "--seed", "0"]) == 0
        lines = capsys.readouterr().out.splitlines()
        table = "\n".join([*(line.rsplit(None, 1)[0] for line in lines[:-1]), lines[-1]])
        assert _sha256(table) == PINNED_ACCEPTANCE_GRID

    def test_grid_exit_code_reflects_failures(self, monkeypatch, capsys):
        real = cli.run_experiment

        def failing(config):
            return dataclasses.replace(real(config), passed=config.method != "agd")

        monkeypatch.setattr(cli, "run_experiment", failing)
        assert cli.main(["grid", "--budgets", "4"]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "grid: 2 failures"

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
    def test_rescale_target_must_be_positive_and_finite(self, value, capsys):
        # nan and inf used to pass and fail only at the query gate; a
        # refused target is a usage error naming it
        with pytest.raises(SystemExit) as exit_info:
            cli.main(["run", "--mode", "det", "--T", "4", "--k", "1", "--rescale-L", value])
        assert exit_info.value.code == 2
        assert "L_target" in capsys.readouterr().err

    def test_psg_step_at_the_largest_rescale_stays_on_the_sphere(self, tmp_path):
        # at --rescale-L 1e308 the squared norm of the first step overflows;
        # the step is measured by its largest entry instead of being
        # divided by inf (which zeroed it), and no overflow is warned of
        out = tmp_path / "run.csv"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code = cli.main(
                ["run", "--mode", "det", "--T", "4", "--k", "1", "--rescale-L", "1e308", "--out", str(out)]
            )
        assert code == 0
        transcript = tmp_path / "run.csv.transcript.jsonl"
        rows = [json.loads(line) for line in transcript.read_text().splitlines()]
        assert rows[0]["x_norm"] == 0.0
        assert rows[1]["x_norm"] == pytest.approx(1.0, abs=1e-12)
        assert all(math.isfinite(row["grad_norm"]) for row in rows)

    def test_psg_nan_step_still_refused(self, monkeypatch):
        real = oracles.oracle_answer

        def poisoned(*args, **kwargs):
            response = real(*args, **kwargs)
            return dataclasses.replace(response, gradient=np.full_like(response.gradient, np.nan))

        monkeypatch.setattr(oracles, "oracle_answer", poisoned)
        with pytest.raises(ValueError, match="unit ball"):
            cli.main(["run", "--mode", "det", "--T", "4", "--k", "1", "--rescale-L", "1e308"])

    def test_dump_vectors_transcript(self, tmp_path):
        out = tmp_path / "run.csv"
        cli.main(
            ["run", "--mode", "det", "--T", "4", "--k", "1", "--out", str(out), "--dump-vectors"]
        )
        transcript = tmp_path / "run.csv.transcript.jsonl"
        rows = [json.loads(line) for line in transcript.read_text().splitlines()]
        assert len(rows) == 4 and "x" in rows[0]


def _queried(*args, **kwargs):
    raise AssertionError("a refused argument reached the work it gates")


@pytest.mark.parametrize(
    "config, name",
    [
        (RunConfig(T=4, k=1, method="cubic"), "needs k >= 2"),
        (RunConfig(T=4, method="newton"), "unknown method"),
        (RunConfig(T=4, seed=-1), "seed must be non-negative"),
        (RunConfig(mode=RANDOMIZED, T=4, seed=-1), "seed must be non-negative"),
        (RunConfig(T=4, format="xml"), "format"),
        (RunConfig(T=4.5), "T must be an integer"),
        (RunConfig(T=4, k=2.0, method="cubic"), "k must be an integer"),
    ],
)
def test_run_refuses_an_argument_before_any_query(config, name):
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "run_method", _queried)
        with pytest.raises(RefusedArgument, match=name):
            run_experiment(config)


@pytest.mark.parametrize(
    "call, name",
    [
        (lambda: params_deterministic(10**400, 1), "T"),
        (lambda: params_deterministic(4, 10**400), "k"),
        (lambda: params_randomized(10**400, 1, 0.2), "T"),
        (lambda: params_randomized(4, 10**400, 0.2), "k"),
        (lambda: params_randomized(10**103, 1, 0.2), "T"),
        (lambda: params_randomized(4, 1, 5e-324), "T"),
        (lambda: rescale_to_smoothness(10**400, 1, 4), "L_target"),
        (lambda: rescale_to_smoothness(1.0, 200, 4), "k"),
        (["run", "--T", "4", "--k", "200", "--rescale-L", "1"], "k"),
        (["run", "--T", str(10**400)], "T"),
        # delta = gamma/(3kT) or 1/(20 k T^1.5) rounds to 0, a tie band of
        # zero; the schedule passed
        (lambda: params_deterministic(4, 10**308), "k"),
        (lambda: params_randomized(4, 10**308, 0.2), "k"),
        (lambda: params_deterministic(10**300, 10**10), "T"),
        # the multiplier rounds to 0: refused as rescale, or as k where T
        # is past the float range
        (lambda: rescale_to_smoothness(1.0, 100, 4), "k"),
        (lambda: rescale_to_smoothness(1.0, 1, 10**400), "T"),
        (["run", "--T", "4", "--k", "100", "--rescale-L", "1"], "k"),
        # the sample floor 2^k has past 4300 digits: its text raised
        (["run", "--T", "4", "--k", "20000"], "mc_samples"),
    ],
)
def test_numbers_past_the_float_range_are_refused_by_name(capsys, call, name):
    # float arithmetic on these overflowed or rounded to 0: an error naming
    # no argument or the wrong one, and a traceback at the CLI
    if callable(call):
        with pytest.raises(ValueError, match=f"^{name} must"):
            call()
        return
    with pytest.raises(SystemExit) as exit_info:
        cli.main(call)
    assert exit_info.value.code == 2
    assert f"run: {name} must" in capsys.readouterr().err


@pytest.mark.parametrize("rescale", [0, 0.0, -1.0, math.nan, math.inf, 10**400, Fraction(1, 10**400)])
def test_a_lipschitz_audit_refuses_a_scale_it_cannot_count_on(rescale):
    # a zero rescale made every ratio and bound 0, and the audit passed on
    # no evidence; a NaN or infinite one ran every pair to a failure
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(harness, "stream", _queried)
        with pytest.raises(ValueError, match="^rescale must lie in the range of positive floats"):
            verify_lipschitz(_AUDITED, 0, rescale=rescale)


# A string without digits, so that no CLI flag parses it as a valid number.
WORDS = st.text(st.characters(blacklist_categories=("Nd",)), max_size=4)
# Not an integer: any float (NaN, infinities and fractions among them), a
# Fraction, a bool or a string.
NOT_INTEGERS = st.one_of(st.floats(), st.fractions(), st.booleans(), WORDS)
# Not a count of at least 1: not an integer, or an integer below 1.
BAD_COUNTS = st.one_of(NOT_INTEGERS, st.integers(max_value=0))
# Not a seed: not an integer, or a negative one.
BAD_SEEDS = st.one_of(NOT_INTEGERS, st.integers(max_value=-1))
# Not a positive finite scale: NaN, an infinity, zero or a negative (float,
# integer or Fraction), a bool or a string.
BAD_SCALES = st.one_of(
    st.sampled_from([math.nan, math.inf, -math.inf]),
    st.floats(max_value=0.0),
    st.integers(max_value=0),
    st.fractions(max_value=0),
    st.booleans(),
    WORDS,
)
# Not a probability in (0, 1).
BAD_PROBABILITIES = st.one_of(BAD_SCALES, st.floats(min_value=1.0))
# name -> (argument checked, bad values, call, names whose use would mean the
# check came too late)
GATES = {
    "run_verification": ("n_pairs", BAD_COUNTS, lambda v: run_verification("all", 4, 1, n_pairs=v),
                         ["audit_instance", "verify_locality"]),
    "run_verification samples": ("samples", BAD_COUNTS, lambda v: run_verification("all", 4, 1, samples=v),
                                 ["verify_lipschitz", "verify_invariance", "verify_locality"]),
    "verify_lipschitz": ("n_pairs", BAD_COUNTS, lambda v: verify_lipschitz(_AUDITED, 0, n_pairs=v),
                         ["stream"]),
    "verify_invariance": ("n_points", BAD_COUNTS, lambda v: verify_invariance(_AUDITED, n_points=v),
                          ["stream"]),
    "sweep": ("n_seeds", BAD_COUNTS, lambda v: sweep(RunConfig(T=4), v), ["run_experiment"]),
    "params_deterministic T": ("T", BAD_COUNTS, lambda v: params_deterministic(v, 1), []),
    "params_deterministic k": ("k", BAD_COUNTS, lambda v: params_deterministic(4, v), []),
    "params_deterministic d": ("d", BAD_COUNTS, lambda v: params_deterministic(4, 1, v), []),
    "params_randomized T": ("T", BAD_COUNTS, lambda v: params_randomized(v, 1, 0.2), []),
    "params_randomized k": ("k", BAD_COUNTS, lambda v: params_randomized(4, v, 0.2), []),
    "params_randomized fail_prob": ("fail_prob", BAD_PROBABILITIES,
                                    lambda v: params_randomized(4, 1, v), []),
    "MCBudget n_samples": ("n_samples", BAD_COUNTS, lambda v: MCBudget(v, 0), []),
    "MCBudget seed": ("seed", BAD_SEEDS, lambda v: MCBudget(100, v), []),
}
for _oracle, _params in ((AdaptiveOracle, params_deterministic(4, 1)),
                         (RandomizedOracle, params_randomized(4, 1, 0.2))):
    for _name, _values in (("rescale", BAD_SCALES), ("seed", BAD_SEEDS), ("mc_samples", BAD_COUNTS)):
        GATES[f"{_oracle.__name__} {_name}"] = (
            _name, _values, lambda v, o=_oracle, p=_params, n=_name: o(p, **{n: v}), []
        )
_AUDITED = audit_instance(4, 1)


@given(st.data())
@settings(max_examples=400, deadline=None)
def test_every_gate_refuses_what_it_cannot_count_on(data):
    # each argument of a public constructor, and each public count or
    # scale that could let a gate pass on no evidence, or answer NaN, inf,
    # 0 or a flipped value, is refused with an error that names it, before
    # the work it gates starts
    gate = data.draw(st.sampled_from(sorted(GATES)))
    name, values, call, late = GATES[gate]
    value = data.draw(values)
    with pytest.MonkeyPatch.context() as patch:
        for attr in late:
            patch.setattr(harness, attr, _queried)
        with pytest.raises((ValueError, TypeError), match=name):
            call(value)


# -10^5000 has 5001 digits, past Python's 4300-digit int-to-text limit
_LONG = -(10**5000)


@pytest.mark.parametrize(
    "name, call",
    [
        ("rescale", lambda: AdaptiveOracle(params_deterministic(4, 1), rescale=_LONG)),
        ("seed", lambda: RandomizedOracle(params_randomized(4, 1, 0.2), seed=_LONG)),
        ("mc_samples", lambda: AdaptiveOracle(params_deterministic(4, 1), mc_samples=_LONG)),
        ("n_pairs", lambda: verify_lipschitz(_AUDITED, 0, n_pairs=_LONG)),
        ("n_points", lambda: verify_invariance(_AUDITED, n_points=_LONG)),
        ("n_seeds", lambda: sweep(RunConfig(T=4), _LONG)),
        ("samples", lambda: run_verification("all", 4, 1, samples=_LONG)),
        ("d", lambda: params_deterministic(4, 1, _LONG)),
        ("L_target", lambda: rescale_to_smoothness(_LONG, 1, 4)),
    ],
)
def test_a_refused_integer_past_the_digit_limit_is_named(name, call):
    # the message names the argument and gives the digit count, where
    # formatting the digits would raise an error that names nothing
    with pytest.raises(ValueError, match=f"^{name} must .*, got an integer of 5001 digits$"):
        call()


def test_budgets_are_checked_once_per_oracle_and_audit(monkeypatch):
    # an oracle or audit checks its root budget's count and seed once; no
    # query, replayed record or audited point checks them again
    calls = []
    for name in ("as_count", "as_seed"):
        real = getattr(evaluator, name)
        monkeypatch.setattr(evaluator, name, lambda *args, real=real: calls.append(args) or real(*args))
    for cls, params in ((AdaptiveOracle, params_deterministic(9, 1)),
                        (RandomizedOracle, params_randomized(9, 1, 0.2))):
        oracle = cls(params, seed=5)
        assert calls == [(100_000, "n_samples"), (5,)]
        run_method(oracle, "psg")
        _, report = oracle.finalize()
        assert len(oracle.transcript) == 9 and report.all_equal
        assert len(calls) == 2
        calls.clear()
    instance = audit_instance(9, 2)
    for audit in (lambda: verify_lipschitz(instance, 2, n_pairs=30, samples=64, seed=3),
                  lambda: verify_invariance(instance, n_points=30, samples=64, seed=3)):
        audit()
        assert calls == [(64, "n_samples"), (3,)]
        calls.clear()


@pytest.mark.parametrize(
    "argv, name",
    [
        (["verify", "--suite", "lipschitz", "--T", "4", "--pairs", "0"], "n_pairs"),
        (["verify", "--suite", "all", "--T", "4", "--pairs", "-3"], "n_pairs"),
        (["sweep", "--seeds", "0", "--T", "4"], "n_seeds"),
        (["run", "--T", "4", "--k", "1", "--rescale-L", "nan"], "L_target"),
        (["run", "--T", "4", "--k", "1", "--method", "cubic"], "needs k >= 2"),
        (["run", "--T", "4", "--seed", "-1"], "seed must be non-negative"),
        (["verify", "--suite", "locality", "--T", "4", "--seed", "-1"], "seed must be non-negative"),
        (["verify", "--suite", "locality", "--T", "0"], "T and k"),
        # fewer samples than the suite's estimates take: 2^(j+1) at Lipschitz
        # order j = min(k, 2), 2 for invariance
        (["verify", "--T", "4", "--k", "2", "--mc-samples", "3"], "samples must be at least 8"),
        (["verify", "--suite", "lipschitz", "--T", "4", "--k", "3", "--mc-samples", "7"],
         "samples must be at least 8"),
        (["verify", "--suite", "lipschitz", "--T", "4", "--k", "1", "--mc-samples", "3"],
         "samples must be at least 4"),
        (["verify", "--suite", "invariance", "--T", "4", "--mc-samples", "1"], "samples must be at least 2"),
        (["verify", "--suite", "all", "--T", "4", "--mc-samples", "-5"], "samples must be at least 4"),
    ],
)
def test_cli_refuses_an_empty_audit_or_sweep(capsys, argv, name):
    # a usage error (exit status 2) naming the argument, not a traceback
    with pytest.raises(SystemExit) as exit_info:
        cli.main(argv)
    assert exit_info.value.code == 2
    out, err = capsys.readouterr()
    assert name in err and "PASS" not in out



# flag -> (bad values, the rest of its command line, valid and small)
_RUN = ["run", "--T", "4", "--k", "1"]
CLI_FLAGS = {
    "--T": (BAD_COUNTS, _RUN),
    "--k": (BAD_COUNTS, _RUN),
    "--seed": (BAD_SEEDS, _RUN),
    "--mc-samples": (st.one_of(NOT_INTEGERS, st.integers(max_value=1)), _RUN),
    "--fail-prob": (BAD_PROBABILITIES, [*_RUN, "--mode", "rand"]),
    "--rescale-L": (BAD_SCALES, _RUN),
    "--pairs": (BAD_COUNTS, ["verify", "--T", "4", "--k", "1"]),
}
# the work a refused flag must not reach
_WORK = [(AdaptiveOracle, "query"), (RandomizedOracle, "query"), (harness, "run_method"),
         (harness, "verify_lipschitz"), (harness, "verify_invariance"), (harness, "verify_locality")]


@given(st.sampled_from(sorted(CLI_FLAGS)), st.data())
@settings(max_examples=200, deadline=None)
def test_cli_flags_refuse_bad_values_before_any_query(flag, data):
    # NaN, the infinities, bools, floats, strings, negatives and zero, as
    # far as each flag refuses them: a usage error (exit status 2) before
    # any oracle query or audit. A Fraction's text is an integer or a
    # ratio, so the command line has no Fraction to refuse.
    values, argv = CLI_FLAGS[flag]
    value = data.draw(values.filter(lambda v: not isinstance(v, Fraction)))
    with pytest.MonkeyPatch.context() as patch:
        for owner, attr in _WORK:
            patch.setattr(owner, attr, _queried)
        with pytest.raises(SystemExit) as exit_info:
            cli.main([*argv, f"{flag}={value}"])
    assert exit_info.value.code == 2
