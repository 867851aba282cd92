import dataclasses
import json
import math

import numpy as np
import pytest

from resistor import cli, harness
from resistor.evaluator import piece_values
from resistor.geometry import OrthonormalBasis
from resistor.harness import (
    CSV_COLUMNS,
    RunConfig,
    RunReport,
    MinCrossCheck,
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
    pessimal_point,
)
from resistor.optimizers import run_method
from resistor.oracles import AdaptiveOracle

from conftest import unit


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

    def test_high_orders_reported_unsupported(self):
        with pytest.raises(UnsupportedOrderError, match="order 3"):
            verify_lipschitz(audit_instance(9, 2), 3)

    def test_order_above_instance_smoothness(self):
        with pytest.raises(ValueError, match="exceeds"):
            verify_lipschitz(audit_instance(4, 1), 2)


def _nan_value(instance, x, budget):
    return math.nan, 0.01


def _nan_gradient_error(instance, x, budget):
    return np.zeros(instance.basis.dim), math.nan


def _nan_hessian(instance, x, order, budget):
    r = instance.smoothing_dim
    return np.full((r, r), math.nan), 1.0


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

    def test_no_pairs_keeps_the_empty_fold(self):
        audit = verify_lipschitz(audit_instance(4, 1), 0, n_pairs=0)
        assert (audit.max_ratio, audit.max_excess, audit.passed) == (0.0, -math.inf, True)

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


def test_verify_locality_suite():
    audit = verify_locality(9, 1, seed=0)
    assert audit.consistency_ok and audit.regimes_consistent and audit.passed


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
    assert not audit.regimes_consistent and not audit.consistency_ok and not audit.passed
    oracle = AdaptiveOracle(harness.params_deterministic(9, 1), seed=seed)
    run_method(oracle, "psg")
    _, replay = oracle.finalize()
    assert [e.reason for e in replay.entries].count("regime_mismatch") == 8


def test_verify_locality_mismatch_exits_1(monkeypatch, capsys):
    _broken_radius(monkeypatch)
    code = cli.main(["verify", "--suite", "locality", "--T", "9", "--k", "1"])
    out = capsys.readouterr().out
    assert code == 1
    assert "regimes MISMATCH" in out and "suite locality: FAIL" in out


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

    def test_grid_exit_code_reflects_failures(self, monkeypatch, capsys):
        real = cli.run_experiment

        def failing(config):
            return dataclasses.replace(real(config), passed=config.method != "agd")

        monkeypatch.setattr(cli, "run_experiment", failing)
        assert cli.main(["grid", "--budgets", "4"]) == 1
        assert capsys.readouterr().out.splitlines()[-1] == "grid: 2 failures"

    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "0"])
    def test_rescale_target_must_be_positive_and_finite(self, value):
        # nan and inf used to pass and fail only at the query gate
        with pytest.raises(ValueError, match="L_target"):
            cli.main(["run", "--mode", "det", "--T", "4", "--k", "1", "--rescale-L", value])

    def test_dump_vectors_transcript(self, tmp_path):
        out = tmp_path / "run.csv"
        cli.main(
            ["run", "--mode", "det", "--T", "4", "--k", "1", "--out", str(out), "--dump-vectors"]
        )
        transcript = tmp_path / "run.csv.transcript.jsonl"
        rows = [json.loads(line) for line in transcript.read_text().splitlines()]
        assert len(rows) == 4 and "x" in rows[0]
