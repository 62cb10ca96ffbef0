"""CLI subcommands, exit codes, and output file determinism."""

import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import lsradapt
import lsradapt.lsr_repr
import lsradapt.train_harness
from lsradapt import (
    LowRankPlant,
    LsrProductPlant,
    OptimizerConfig,
    PrecisionBudget,
    check_precision,
    condition_number,
    gen_task,
    init,
    kron,
    materialize,
    plan_shapes,
)
from lsradapt.cli import build_parser, main
from lsradapt.io import read_separated, write_matrix_binary, write_matrix_text


def run(capsys, *args):
    code = main(list(args))
    return code, capsys.readouterr().out


def grab(out, label):
    for line in out.splitlines():
        if line.startswith(label):
            return line[len(label):].split()[-1]
    raise AssertionError(f"no line starting with {label!r} in:\n{out}")


def _binary_bytes(path, version=1):
    """A well-formed 2x2 binary matrix file's bytes, with the given
    version byte."""
    write_matrix_binary(path, np.arange(4.0).reshape(2, 2))
    data = bytearray(path.read_bytes())
    data[4] = version
    return bytes(data)


@pytest.mark.parametrize("cap", ["nan", "abc", "-1", "inf"])
@pytest.mark.parametrize("command", ["approx", "bench"])
def test_malformed_memory_cap_is_usage_error(tmp_path, capsys, monkeypatch,
                                             command, cap):
    src = tmp_path / "m.txt"
    write_matrix_text(src, np.eye(4))
    reads = []
    monkeypatch.setattr(lsradapt.io, "read_matrix", reads.append)
    monkeypatch.setenv("LSR_MEM_CAP_MB", cap)
    args = {"approx": ["approx", str(src), "--left", "2x2", "--right", "2x2",
                       "--terms", "1", "--out", str(tmp_path / "dec")],
            "bench": ["bench", "--w1", "4", "--w2", "4", "--r", "1",
                      "--s", "1", "--repeats", "1"]}[command]
    code, out = run(capsys, *args)
    assert code == 2
    assert "LSR_MEM_CAP_MB" in out
    assert reads == []
    assert not (tmp_path / "dec").exists()


class TestApprox:
    def test_planted_kron_is_exact(self, tmp_path, capsys):
        g = np.random.default_rng(100)
        M = kron(g.normal(size=(2, 3)), g.normal(size=(3, 2)))
        src = tmp_path / "m.txt"
        write_matrix_text(src, M)
        code, out = run(capsys, "approx", str(src), "--left", "2x3",
                        "--right", "3x2", "--terms", "1",
                        "--out", str(tmp_path / "dec"))
        assert code == 0
        assert float(grab(out, "relative error")) <= 1e-12
        assert abs(float(grab(out, "condition number")) - 1.0) <= 1e-12
        back = read_separated(tmp_path / "dec" / "decomp.manifest")
        assert np.allclose(materialize(back), M, atol=1e-12)

    def test_excess_terms_dropped(self, tmp_path, capsys):
        g = np.random.default_rng(101)
        M = kron(g.normal(size=(2, 3)), g.normal(size=(3, 2)))
        src = tmp_path / "m.txt"
        write_matrix_text(src, M)
        code, out = run(capsys, "approx", str(src), "--left", "2x3",
                        "--right", "3x2", "--terms", "3",
                        "--out", str(tmp_path / "dec"))
        assert code == 0
        assert int(grab(out, "requested terms")) == 3
        assert int(grab(out, "kept terms")) == 1
        assert float(grab(out, "frobenius error")) <= 1e-10

    def test_error_monotone_in_terms(self, tmp_path, capsys):
        g = np.random.default_rng(102)
        src = tmp_path / "m.txt"
        write_matrix_text(src, g.normal(size=(12, 12)))
        errs = []
        for s in (1, 2, 4, 8):
            code, out = run(capsys, "approx", str(src), "--left", "3x4",
                            "--right", "4x3", "--terms", str(s),
                            "--out", str(tmp_path / f"dec{s}"))
            assert code == 0
            errs.append(float(grab(out, "frobenius error")))
        assert errs == sorted(errs, reverse=True)

    @pytest.mark.parametrize("link", ["decomp_t000_f0.lsrb",
                                      "decomp.manifest"])
    def test_symlinked_output_is_usage_error(self, tmp_path, capsys, link):
        src = tmp_path / "m.txt"
        write_matrix_text(src, np.eye(4))
        victim = tmp_path / "victim.txt"
        victim.write_bytes(b"not a factor\n")
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        (out_dir / link).symlink_to(victim)
        code, out = run(capsys, "approx", str(src), "--left", "2x2",
                        "--right", "2x2", "--terms", "1",
                        "--out", str(out_dir))
        assert code == 2
        assert f"{link} is a symbolic link" in out
        assert victim.read_bytes() == b"not a factor\n"
        assert [p.name for p in out_dir.iterdir()] == [link]

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        code, _ = run(capsys, "approx", str(tmp_path / "nope.txt"),
                      "--left", "2x2", "--right", "2x2", "--terms", "1",
                      "--out", str(tmp_path))
        assert code == 3

    @pytest.mark.parametrize("make", [
        lambda path: path.write_text("2 x\n1 2\n3 4\n"),
        lambda path: path.write_text("2 2\n1.0 2.0\n3.0\n"),
        lambda path: path.write_bytes(_binary_bytes(path)[:-8]),
        lambda path: path.write_bytes(_binary_bytes(path, version=2)),
        lambda path: path.write_bytes(b"2 2\n1 \xff\n3 4\n"),
    ], ids=["text-bad-header", "text-short-row", "binary-truncated",
            "binary-bad-version", "text-non-ascii"])
    def test_malformed_input_is_io_error(self, tmp_path, capsys, make):
        src = tmp_path / "m.in"
        make(src)
        code, out = run(capsys, "approx", str(src), "--left", "1x2",
                        "--right", "2x1", "--terms", "1",
                        "--out", str(tmp_path / "dec"))
        assert code == 3
        assert "cannot read" in out
        assert not (tmp_path / "dec").exists()

    @pytest.mark.parametrize("name", ["../escape", "a/b", "caf\u00e9"])
    def test_unreadable_name_is_usage_error(self, tmp_path, capsys, name):
        src = tmp_path / "in" / "m.txt"
        src.parent.mkdir()
        write_matrix_text(src, np.eye(4))
        code, out = run(capsys, "approx", str(src), "--left", "2x2",
                        "--right", "2x2", "--terms", "1",
                        "--out", str(tmp_path / "dec"), "--name", name)
        assert code == 2
        assert "printable ASCII" in out
        assert sorted(tmp_path.rglob("*")) == [src.parent, src]

    def test_name_is_checked_before_the_input_is_read(self, tmp_path, capsys,
                                                      monkeypatch):
        def unreadable(path):
            raise AssertionError(f"read {path} before checking the name")
        monkeypatch.setattr(lsradapt.io, "read_matrix", unreadable)
        code, out = run(capsys, "approx", str(tmp_path / "nope.txt"),
                        "--left", "2x2", "--right", "2x2", "--terms", "1",
                        "--out", str(tmp_path / "dec"), "--name", "../escape")
        assert code == 2
        assert "printable ASCII" in out
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("epsilon", ["nan", "0", "-1", "inf"])
    def test_epsilon_is_checked_before_the_input_is_read(
            self, tmp_path, capsys, monkeypatch, epsilon):
        def unreadable(path):
            raise AssertionError(f"read {path} before checking epsilon")
        monkeypatch.setattr(lsradapt.io, "read_matrix", unreadable)
        code, out = run(capsys, "approx", str(tmp_path / "nope.txt"),
                        "--left", "2x2", "--right", "2x2", "--terms", "1",
                        "--out", str(tmp_path / "dec"), f"--epsilon={epsilon}")
        assert code == 2
        assert "epsilon must be positive and finite" in out
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("terms", ["0", "-1", "two"])
    def test_terms_are_checked_before_the_input_is_read(
            self, tmp_path, capsys, monkeypatch, terms):
        src = tmp_path / "m.txt"
        write_matrix_text(src, np.eye(4))

        def unreadable(path):
            raise AssertionError(f"read {path} before checking --terms")
        monkeypatch.setattr(lsradapt.io, "read_matrix", unreadable)
        code = main(["approx", str(src), "--left", "2x2", "--right", "2x2",
                     f"--terms={terms}", "--out", str(tmp_path / "dec")])
        assert code == 2
        assert "argument --terms" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == [src]

    def test_nonconforming_shapes_is_usage_error(self, tmp_path, capsys):
        src = tmp_path / "m.txt"
        write_matrix_text(src, np.eye(6))
        code, _ = run(capsys, "approx", str(src), "--left", "2x2",
                      "--right", "2x2", "--terms", "1",
                      "--out", str(tmp_path))
        assert code == 2

    def test_zero_matrix_is_numerical_error(self, tmp_path, capsys):
        src = tmp_path / "m.txt"
        write_matrix_text(src, np.zeros((4, 4)))
        code, _ = run(capsys, "approx", str(src), "--left", "2x2",
                      "--right", "2x2", "--terms", "1",
                      "--out", str(tmp_path / "dec"))
        assert code == 4

    def test_overflowing_representation_is_numerical_error(
            self, tmp_path, capsys, monkeypatch):
        src = tmp_path / "m.txt"
        write_matrix_text(src, np.eye(4))
        huge = lsradapt.lsr_repr.SeparatedMatrix(
            (4, 4), [1e200], ([1e100 * np.eye(2)],) * 2)
        monkeypatch.setattr(lsradapt.lsr_repr, "nearest_kron_sum",
                            lambda *args: huge)
        code, out = run(capsys, "approx", str(src), "--left", "2x2",
                        "--right", "2x2", "--terms", "1",
                        "--out", str(tmp_path / "dec"))
        assert code == 4
        assert "overflows" in out
        assert not (tmp_path / "dec").exists()

    def test_overflowing_singular_value_is_numerical_error(self, tmp_path,
                                                           capsys):
        # the rearranged 1x4 matrix has norm 2e308: its singular value
        # overflows, and no RuntimeWarning may escape
        src = tmp_path / "m.txt"
        write_matrix_text(src, np.array([[1e308, -1e308], [-1e308, 1e308]]))
        code, out = run(capsys, "approx", str(src), "--left", "1x1",
                        "--right", "2x2", "--terms", "1",
                        "--out", str(tmp_path / "dec"))
        assert code == 4
        assert "overflow float64" in out
        assert not (tmp_path / "dec").exists()

    def test_overflowing_exact_svd_is_numerical_error(self, tmp_path,
                                                      capsys):
        # the exact SVD's QR triangle overflows: the error names the
        # overflow, not a failed convergence
        src = tmp_path / "m.txt"
        write_matrix_text(src, np.full((24, 24), 1.7e308))
        code, out = run(capsys, "approx", str(src), "--left", "4x4",
                        "--right", "6x6", "--terms", "2",
                        "--out", str(tmp_path / "dec"))
        assert code == 4
        assert "overflow float64" in out
        assert not (tmp_path / "dec").exists()

    @pytest.mark.parametrize("left, right", [("-2x4", "-12x6"),
                                             ("4x0", "6x6")])
    def test_non_positive_factor_shape_is_usage_error(self, tmp_path, capsys,
                                                      left, right):
        src = tmp_path / "m.txt"
        write_matrix_text(src, np.eye(24))
        code = main(["approx", str(src), f"--left={left}",
                     f"--right={right}", "--terms", "2",
                     "--out", str(tmp_path / "dec")])
        assert code == 2
        assert "expected positive ROWSxCOLS" in capsys.readouterr().err
        assert not (tmp_path / "dec").exists()

    def test_input_over_memory_cap_is_numerical_error(self, tmp_path, capsys,
                                                       monkeypatch):
        src = tmp_path / "m.txt"
        write_matrix_text(src, np.eye(12))
        monkeypatch.setenv("LSR_MEM_CAP_MB", "0.001")
        code, out = run(capsys, "approx", str(src), "--left", "3x4",
                        "--right", "4x3", "--terms", "1",
                        "--out", str(tmp_path / "dec"))
        assert code == 4
        assert "memory cap" in out
        assert not (tmp_path / "dec").exists()

    def test_one_materialization_and_library_diagnostics(self, tmp_path,
                                                         capsys, monkeypatch):
        g = np.random.default_rng(104)
        M = g.normal(size=(12, 12))
        src = tmp_path / "m.txt"
        write_matrix_text(src, M / np.linalg.norm(M))
        calls = []
        original = lsradapt.lsr_repr.materialize
        monkeypatch.setattr(lsradapt.lsr_repr, "materialize",
                            lambda S: calls.append(S) or original(S))
        code, out = run(capsys, "approx", str(src), "--left", "3x4",
                        "--right", "4x3", "--terms", "3", "--epsilon", "1e-5",
                        "--out", str(tmp_path / "dec"))
        assert code == 0
        assert len(calls) == 1
        S = calls[0]
        assert grab(out, "condition number") == f"{condition_number(S):.12f}"
        verdicts = [grab(out, f"precision mu=2^-{b}") for b in (11, 24)]
        assert verdicts == ["FAIL", "PASS"]
        for mu, verdict in zip((2.0**-11, 2.0**-24), verdicts):
            ok = check_precision(S, PrecisionBudget(mu, 1e-5))
            assert verdict == ("PASS" if ok else "FAIL")


class TestParams:
    def test_reference_configuration(self, capsys):
        code, out = run(capsys, "params", "--w1", "768", "--w2", "768",
                        "--r", "8")
        assert code == 0
        assert int(grab(out, "lora params")) == 12288
        code, out = run(capsys, "params", "--w1", "768", "--w2", "768",
                        "--r", "4", "--s", "16")
        assert code == 0
        assert int(grab(out, "lsr params")) == 3584

    @pytest.mark.parametrize("s", ["0", "-3"])
    def test_separation_rank_below_one_is_usage_error(self, capsys, s):
        code, out = run(capsys, "params", "--w1", "8", "--w2", "8",
                        "--r", "2", "--s", s)
        assert code == 2
        assert "separation rank" in out
        assert "lsr params" not in out


class TestTrain:
    def test_zero_steps(self, tmp_path, capsys):
        code, out = run(capsys, "train", "--w1", "12", "--w2", "12",
                        "--samples", "8", "--steps", "0", "--s", "2",
                        "--out", str(tmp_path / "run"))
        assert code == 0
        report = (tmp_path / "run.report").read_text()
        assert "final_loss=" in report
        curve = (tmp_path / "run.curve.csv").read_text().splitlines()
        assert curve[0] == "entry,loss"
        assert len(curve) == 2

    def test_deterministic_outputs(self, tmp_path, capsys):
        for name in ("a", "b"):
            code, _ = run(capsys, "train", "--w1", "12", "--w2", "12",
                          "--samples", "16", "--steps", "30",
                          "--batch-size", "8", "--s", "2", "--seed", "5",
                          "--out", str(tmp_path / name))
            assert code == 0
        assert (tmp_path / "a.report").read_bytes() \
            == (tmp_path / "b.report").read_bytes()
        assert (tmp_path / "a.curve.csv").read_bytes() \
            == (tmp_path / "b.curve.csv").read_bytes()

    def test_divergence_exit_code(self, tmp_path, capsys):
        code, _ = run(capsys, "train", "--w1", "12", "--w2", "12",
                      "--samples", "8", "--steps", "100",
                      "--optimizer", "sgd", "--lr", "1e12", "--s", "2",
                      "--out", str(tmp_path / "run"))
        assert code == 5

    @pytest.mark.parametrize("option", [("--lr", "1e308"),
                                        ("--lr", "1e150"),
                                        ("--alpha", "1e300")],
                             ids=["lr-1e308", "lr-1e150", "alpha-1e300"])
    def test_overflow_is_divergence(self, tmp_path, capsys, option):
        # each overflows inside train, which reports it by step, not by a
        # numpy warning (an error under this suite's warning filter)
        code, out = run(capsys, "train", "--w1", "8", "--w2", "8", "--r", "2",
                        "--s", "2", "--steps", "3", *option,
                        "--out", str(tmp_path / "run"))
        assert code == 5
        assert re.fullmatch(r"error: non-finite (loss|gradient) at step \d+\n",
                            out)

    def test_negative_seed_is_usage_error(self, tmp_path, capsys):
        code, out = run(capsys, "train", "--w1", "8", "--w2", "8", "--r", "2",
                        "--s", "2", "--steps", "3", "--seed", "-1",
                        "--out", str(tmp_path / "run"))
        assert code == 2
        assert "seed must be >= 0, got -1" in out
        assert not list(tmp_path.iterdir())

    def test_compare_mode(self, tmp_path, capsys):
        code, out = run(capsys, "train", "--w1", "12", "--w2", "12",
                        "--samples", "8", "--steps", "5", "--adapter",
                        "compare", "--r", "4", "--s", "2", "--lora-r", "4",
                        "--out", str(tmp_path / "cmp"))
        assert code == 0
        assert (tmp_path / "cmp.lora.report").exists()
        assert (tmp_path / "cmp.lsr.report").exists()
        assert "param ratio" in out

    @pytest.mark.parametrize("mode", ["lsr", "lora", "compare"])
    def test_report_numbers_parse_as_float(self, tmp_path, capsys, mode):
        code, _ = run(capsys, "train", "--w1", "12", "--w2", "12",
                      "--samples", "8", "--steps", "5", "--s", "2",
                      "--adapter", mode, "--out", str(tmp_path / "run"))
        assert code == 0
        reports = sorted(tmp_path.glob("*.report"))
        assert len(reports) == (2 if mode == "compare" else 1)
        for path in reports:
            fields = dict(line.split("=", 1)
                          for line in path.read_text().splitlines())
            assert set(fields) == {"adapter", "final_loss", "recovery_error",
                                   "trainable_params", "curve_points"}
            for key, value in fields.items():
                if key != "adapter":
                    float(value)

    @pytest.mark.parametrize("flag, value, field", [
        ("--eps-hat", "nan", "eps_hat"), ("--eps-hat", "0", "eps_hat"),
        ("--eps-hat", "-1", "eps_hat"), ("--lr", "inf", "learning_rate")])
    def test_invalid_optimizer_value_is_usage_error(self, tmp_path, capsys,
                                                    flag, value, field):
        code, out = run(capsys, "train", "--w1", "8", "--w2", "8", "--r",
                        "2", "--s", "2", "--steps", "3", flag, value,
                        "--out", str(tmp_path / "run"))
        assert code == 2
        assert field in out
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("noise_std", ["-1", "nan", "inf"])
    def test_invalid_noise_is_usage_error(self, tmp_path, capsys, noise_std):
        code, out = run(capsys, "train", "--w1", "8", "--w2", "8", "--r", "2",
                        "--s", "2", "--steps", "3",
                        f"--noise-std={noise_std}",
                        "--out", str(tmp_path / "run"))
        assert code == 2
        assert f"noise_std must be finite and >= 0, got {noise_std}" in out
        assert not list(tmp_path.iterdir())

    def test_bad_plant_flags(self, tmp_path, capsys):
        code, _ = run(capsys, "train", "--plant", "kron-sum",
                      "--out", str(tmp_path / "run"))
        assert code == 2

    def test_non_positive_plant_shape_is_usage_error(self, tmp_path, capsys):
        code = main(["train", "--w1", "12", "--w2", "12", "--plant",
                     "kron-sum", "--plant-left=-2x4", "--plant-right=-6x3",
                     "--out", str(tmp_path / "run")])
        assert code == 2
        assert "expected positive ROWSxCOLS" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("args, message", [
        (["--s", "-1"], "separation rank s must be >= 1, got -1"),
        (["--s", "0"], "separation rank s must be >= 1, got 0"),
        (["--adapter", "compare", "--lora-r", "-1"],
         "rank r must be >= 1, got -1"),
    ], ids=["s-negative", "s-zero", "lora-r-negative"])
    def test_adapter_rank_below_one_is_named(self, tmp_path, capsys, args,
                                             message):
        code, out = run(capsys, "train", "--w1", "8", "--w2", "8", "--r", "2",
                        "--steps", "3", *args, "--out", str(tmp_path / "run"))
        assert code == 2
        assert message in out

    def test_bare_train_uses_optimizer_config_defaults(self, tmp_path,
                                                       monkeypatch):
        # the optimizer flags' defaults are OptimizerConfig's own
        class Captured(Exception):
            pass

        def capture(layer, task, config):
            raise Captured(config)

        monkeypatch.setattr(lsradapt.train_harness, "train", capture)
        with pytest.raises(Captured) as caught:
            main(["train", "--out", str(tmp_path / "run")])
        assert caught.value.args == (OptimizerConfig(),)

    def test_bare_train_uses_the_default_alpha(self, tmp_path, monkeypatch):
        class Captured(Exception):
            pass

        def capture(layer, task, config):
            raise Captured(layer)

        monkeypatch.setattr(lsradapt.train_harness, "train", capture)
        with pytest.raises(Captured) as caught:
            main(["train", "--out", str(tmp_path / "run")])
        assert caught.value.args[0].alpha == lsradapt.adapter.DEFAULT_ALPHA

    @pytest.mark.parametrize("terms", ["0", "-1"])
    @pytest.mark.parametrize("plant", [
        ["lsr-product"],
        ["kron-sum", "--plant-left", "3x4", "--plant-right", "4x3"],
    ], ids=["lsr-product", "kron-sum"])
    def test_plant_without_terms_is_usage_error(self, tmp_path, capsys,
                                                plant, terms):
        code, out = run(capsys, "train", "--w1", "12", "--w2", "12",
                        "--samples", "8", "--steps", "5", "--plant", *plant,
                        "--plant-terms", terms, "--out", str(tmp_path / "run"))
        assert code == 2
        assert "plant terms" in out
        assert not list(tmp_path.iterdir())

    @pytest.mark.parametrize("flags, plant, config, alpha", [
        (["--optimizer", "sgd", "--momentum", "0.5"], None,
         dict(kind="sgd", momentum=0.5), 1.0),
        (["--alpha", "0.25"], None, {}, 0.25),
        (["--plant", "low-rank", "--plant-terms", "3"], LowRankPlant(3), {},
         1.0),
    ], ids=["momentum", "alpha", "low-rank-plant-terms"])
    def test_kept_option_reaches_the_run(self, tmp_path, capsys, flags,
                                         plant, config, alpha):
        common = ["--w1", "12", "--w2", "12", "--samples", "16", "--s", "2",
                  "--steps", "20", "--batch-size", "8", "--seed", "3"]
        for name, extra in (("base", []), ("run", flags)):
            code, _ = run(capsys, "train", *common, *extra,
                          "--out", str(tmp_path / name))
            assert code == 0
        plan = plan_shapes(12, 12, 4)
        task = gen_task(12, 12, plant or LsrProductPlant(4, plan), 16, 0.0,
                        seed=3)
        report = lsradapt.train_harness.train(
            init(task.W, plan, 2, alpha=alpha, seed=3), task,
            OptimizerConfig(**config, steps=20, batch_size=8, seed=3))
        fields = dict(line.split("=", 1) for line in
                      (tmp_path / "run.report").read_text().splitlines())
        assert fields["final_loss"] == repr(report.final_loss)
        assert fields["recovery_error"] == repr(report.recovery_error)
        assert (tmp_path / "run.curve.csv").read_text().splitlines()[1:] \
            == [f"{i},{v!r}" for i, v in enumerate(report.loss_curve)]
        assert (tmp_path / "run.report").read_bytes() \
            != (tmp_path / "base.report").read_bytes()

    @pytest.mark.parametrize("adapter, plant, n", [
        ("lsr", "lsr-product", 1), ("compare", "lsr-product", 1),
        ("lora", "dense", 0)])
    def test_prime_split_warns_once_per_command(self, tmp_path, capsys,
                                                adapter, plant, n):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, _ = run(capsys, "train", "--w1", "47", "--w2", "12",
                          "--r", "2", "--s", "2", "--lora-r", "2",
                          "--samples", "8", "--steps", "2", "--batch-size",
                          "4", "--adapter", adapter, "--plant", plant,
                          "--out", str(tmp_path / "run"))
        assert code == 0
        assert [str(w.message) for w in caught] \
            == ["w1=47 splits as 47x1, so its Kronecker factors do not "
                "factor"] * n

    @pytest.mark.parametrize("flag", [["--beta1", "0.5"], ["--beta2", "0.9"],
                                      ["--plant-rank", "3"]],
                             ids=["beta1", "beta2", "plant-rank"])
    def test_removed_option_is_usage_error(self, tmp_path, capsys, flag):
        code = main(["train", *flag, "--out", str(tmp_path / "run")])
        assert code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not list(tmp_path.iterdir())


class TestBench:
    def test_table_and_flop_ratio(self, capsys):
        code, out = run(capsys, "bench", "--w1", "12", "--w2", "12",
                        "--r", "4", "--s", "2", "--repeats", "3")
        assert code == 0
        assert "matrix-free forward" in out
        assert "materialized forward" in out
        # independent recomputation of both cost formulas; the plan for
        # (12, 12, 4) is a = b = (4, 3), r = (2, 2).  Forming A_sum and
        # B_sum costs 2 s (a1 r1 a2 r2 + r1 b1 r2 b2), each vector then
        # 2 r (w1 + w2)
        form = 2 * 2 * (4 * 2 * 3 * 2 + 2 * 4 * 2 * 3)
        per_vector = 2 * 4 * (12 + 12)
        want = (2 * 12 * 12) / (form + per_vector)
        assert float(grab(out, "flop-ratio")) == pytest.approx(want,
                                                               rel=1e-12)

    def test_warm_flop_ratio(self, capsys):
        code, out = run(capsys, "bench", "--w1", "12", "--w2", "10",
                        "--r", "4", "--s", "3", "--repeats", "3")
        assert code == 0
        # a warm forward reuses the formed factors: one thin product per
        # side, r w2 then w1 r multiply-adds, against w1 w2 for the dense
        # delta apply
        want = (12 * 10) / (4 * 10 + 12 * 4)
        assert float(grab(out, "warm-flop-ratio")) == pytest.approx(
            want, rel=1e-12)
        assert "times the warm path" in out

    def test_time_ratio_is_measured(self, capsys):
        code, out = run(capsys, "bench", "--w1", "12", "--w2", "12",
                        "--r", "4", "--s", "2", "--repeats", "3")
        assert code == 0
        rows = dict(line.rsplit(None, 1) for line in out.splitlines()[1:3])
        want = float(rows["materialized forward"]) / float(
            rows["matrix-free forward"])
        # the table rounds both medians to whole nanoseconds
        assert float(grab(out, "time-ratio")) == pytest.approx(want,
                                                               rel=1e-2)

    def test_memory_cap_skips_materialization(self, capsys, monkeypatch):
        monkeypatch.setenv("LSR_MEM_CAP_MB", "0")
        code, out = run(capsys, "bench", "--w1", "12", "--w2", "12",
                        "--r", "4", "--s", "2", "--repeats", "2")
        assert code == 0
        assert "skipped" in out
        assert grab(out, "time-ratio") == "skipped"

    @pytest.mark.parametrize("repeats", ["0", "-3"])
    def test_repeats_are_checked_before_any_draw(self, capsys, monkeypatch,
                                                 repeats):
        def undrawable(*args):
            raise AssertionError("drew a layer before checking --repeats")
        monkeypatch.setattr(lsradapt.verify, "random_layer", undrawable)
        code = main(["bench", "--w1", "4", "--w2", "4", "--r", "1", "--s", "1",
                     f"--repeats={repeats}"])
        assert code == 2
        assert "argument --repeats" in capsys.readouterr().err

    def test_negative_seed_is_usage_error(self, capsys):
        code, out = run(capsys, "bench", "--w1", "8", "--w2", "8", "--r", "2",
                        "--s", "2", "--seed", "-3")
        assert code == 2
        assert "seed must be >= 0, got -3" in out

    def test_degenerate_dims(self, capsys):
        code, out = run(capsys, "bench", "--w1", "1", "--w2", "1",
                        "--r", "1", "--s", "1", "--repeats", "2")
        assert code == 0
        assert "flop-ratio" in out


class TestVerify:
    def test_full_suite_passes(self, capsys):
        code, out = run(capsys, "verify")
        assert code == 0
        assert "FAIL" not in out

    def test_injected_fault_detected(self, capsys, inject_gradient_sign_fault):
        inject_gradient_sign_fault()
        code, out = run(capsys, "verify")
        assert code == 1
        assert any(line.startswith("FAIL") and "gradient-check" in line
                   for line in out.splitlines())

    @pytest.mark.parametrize("option", ["--quick", "--inject-fault"])
    def test_takes_no_options(self, capsys, option):
        assert main(["verify", option]) == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestUsage:
    def test_unknown_command(self, capsys):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag(self, capsys):
        assert main(["params", "--w1", "4"]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


def test_repeated_main_calls_match_fresh_processes(tmp_path, capsys):
    # the parser is built once per process; a run of different commands
    # in one process must give what each gives in a process of its own
    g = np.random.default_rng(103)
    src = tmp_path / "m.txt"
    write_matrix_text(src, g.normal(size=(12, 12)))
    commands = [
        ["params", "--w1", "768", "--w2", "768", "--r", "4", "--s", "16"],
        ["train", "--w1", "12", "--w2", "12", "--samples", "16", "--steps",
         "20", "--batch-size", "8", "--s", "2", "--seed", "3", "--out",
         "{out}/lsr"],
        ["approx", str(src), "--left", "3x4", "--right", "4x3", "--terms",
         "2", "--out", "{out}/dec"],
        ["train", "--w1", "12", "--w2", "8", "--adapter", "lora", "--r", "3",
         "--optimizer", "sgd", "--lr", "1e-3", "--samples", "8", "--steps",
         "10", "--out", "{out}/lora"],
        ["params", "--w1", "48", "--w2", "48", "--r", "8"],
        ["params", "--w1", "4"],
        ["train", "--w1", "12", "--w2", "12", "--samples", "16", "--steps",
         "20", "--batch-size", "8", "--s", "2", "--seed", "3", "--out",
         "{out}/lsr2"],
    ]

    def outputs(out_dir, code, text):
        text = re.sub(r"wall \S+s", "wall -",
                      text.replace(str(out_dir), "{out}"))
        files = {p.relative_to(out_dir).as_posix(): p.read_bytes()
                 for p in sorted(out_dir.rglob("*")) if p.is_file()}
        return code, text, files

    src_dir = str(Path(lsradapt.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src_dir, env.get("PYTHONPATH")) if p)
    for k, argv in enumerate(commands):
        here, fresh = tmp_path / f"here{k}", tmp_path / f"fresh{k}"
        here.mkdir()
        fresh.mkdir()
        code = main([a.format(out=here) for a in argv])
        got = outputs(here, code, capsys.readouterr().out)
        proc = subprocess.run(
            [sys.executable, "-c",
             "import sys; from lsradapt.cli import main; "
             "raise SystemExit(main(sys.argv[1:]))",
             *(a.format(out=fresh) for a in argv)],
            capture_output=True, text=True, env=env, timeout=120)
        want = outputs(fresh, proc.returncode, proc.stdout)
        assert got == want, argv
    assert build_parser() is build_parser()
    # the two identical train commands wrote identical files
    lsr = {p.name: p.read_bytes() for p in (tmp_path / "here1").iterdir()}
    lsr2 = {p.name.replace("lsr2", "lsr"): p.read_bytes()
            for p in (tmp_path / "here6").iterdir()}
    assert lsr == lsr2
