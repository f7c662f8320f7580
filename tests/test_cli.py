"""Command line behavior: exit codes, output formats, file round trips."""

import argparse
import hashlib
import inspect
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import polynet
from polynet import (
    LayerSpec,
    MonomialPower,
    MultiPoly,
    NetworkSpec,
    PolyActivation,
    UniPoly,
    load_network,
    poly_from_text,
    poly_to_text,
    save_network,
    unipoly_from_text,
)
from polynet.cli import build_parser, main
from polynet.experiments import load_reference_network, regression_target

CHECK_LINE = re.compile(r"^.+=.+ expected .+ ±.+ (PASS|FAIL)$")


def square_arch(hidden, outputs):
    first = LayerSpec(np.zeros((hidden, 3)), MonomialPower(2))
    second = LayerSpec(np.zeros((outputs, hidden + 1)))
    return NetworkSpec(2, (first, second))


def machine_values(out):
    values = {}
    for line in out.splitlines():
        if "=" in line:
            key, _, val = line.partition("=")
            values[key] = val
    return values


def test_approx_lsq_machine_output(capsys):
    rc = main(["approx", "--fn", "sigmoid", "--interval", "-8", "8", "--degree", "9"])
    assert rc == 0
    out = capsys.readouterr().out
    vals = machine_values(out)
    assert vals["approx.degree"] == "9"
    assert float(vals["approx.max_abs"]) == pytest.approx(0.015650146292355727, rel=1e-9)
    assert float(vals["approx.rmse"]) < float(vals["approx.max_abs"])
    # the polynomial itself rides along and is parseable
    poly_line = [l for l in out.splitlines() if l.startswith("unipoly:")]
    assert len(poly_line) == 1
    assert unipoly_from_text(poly_line[0]).degree == 9


def test_approx_fourier_text_output(capsys, tmp_path):
    out_path = tmp_path / "sig.upoly"
    rc = main(["approx", "--fn", "sigmoid", "--interval", "-8", "8",
               "--fourier-n", "4", "--out", str(out_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "max_abs=" in out and "rmse=" in out
    saved = unipoly_from_text(out_path.read_text())
    assert saved.degree == 49


def test_approx_fourier_needs_symmetric_interval(capsys):
    rc = main(["approx", "--fn", "sigmoid", "--interval", "-8", "6"])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert "symmetric" in err


def test_approx_lsq_non_finite_fit_exits_1(capsys):
    rc = main(["approx", "--fn", "sigmoid", "--interval", "-8", "8", "--degree", "1000"])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1].startswith("numeric error: the degree-1000 fit")  # after numpy's overflow warnings


def test_approx_lsq_fit_that_loses_its_digits_exits_1(capsys):
    # finite monomial coefficients, but max_abs was 9.2e+48 before the check
    rc = main(["approx", "--fn", "sigmoid", "--interval", "-8", "8", "--degree", "200"])
    assert rc == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1].startswith("numeric error: the degree-200 fit loses")


def test_approx_term_budget_refused_before_the_quadrature(monkeypatch, capsys):
    def no_quadrature(*args):
        raise AssertionError("fourier_fit ran before the term budget was checked")

    monkeypatch.setattr(polynet.cli, "fourier_fit", no_quadrature)
    factorials = "series terms need factorials beyond the double range; use at most 85"
    for flags, message in ((["--fourier-n", "3000"], "substituting"),
                           (["--fourier-n", "1000000000"], "substituting"),
                           (["--fourier-n", "1", "--terms", "1000000000"], f"1000000000 {factorials}"),
                           (["--fourier-n", "1", "--terms", "86"], f"86 {factorials}")):
        rc = main(["approx", "--fn", "sigmoid", "--interval", "-8", "8", *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: " + message)
        assert len(err.splitlines()) == 1
        if message == "substituting":
            assert "use the least-squares fit" in err


def test_approx_narrow_interval_refuses_powers_beyond_the_double_range(capsys):
    # s = pi / 0.04 = 78.5, and s**169, the top power fourier_to_poly takes, overflows
    rc = main(["approx", "--fn", "sigmoid", "--interval", "-0.04", "0.04", "--fourier-n", "1", "--terms", "85"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: substituting 85 series terms at 1 harmonics on [-0.04, 0.04] raises 78.5")
    assert len(err.splitlines()) == 1


def test_approx_harmonic_count_beyond_the_double_range_exits_2(monkeypatch, capsys):
    monkeypatch.setattr(polynet.cli, "fourier_fit", lambda *args: pytest.fail("quadrature ran"))
    huge = "1" + "0" * 400  # pi * n does not convert to a float
    for flags in (["--fourier-n", huge], ["--fourier-n", huge, "--terms", "5"]):
        rc = main(["approx", "--fn", "sigmoid", "--interval", "-8", "8", *flags])
        assert rc == 2
        err = capsys.readouterr().err
        assert err.startswith("error: the harmonic count is above 3.18e+14")
        assert len(err.splitlines()) == 1


def test_approx_infinite_interval_exits_2(capsys):
    rc = main(["approx", "--fn", "sigmoid", "--interval", "0", "1e309", "--degree", "9"])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: domain must be finite and satisfy lo < hi\n"


@pytest.mark.parametrize("flags, rc", [
    pytest.param(["-2", "3", "--degree", "5"], 0, id="lsq-asymmetric"),  # least squares needs no symmetry
    pytest.param(["-2", "2", "--degree", "3", "--fourier-n", "8"], 2, id="degree-fourier-n-default"),
    pytest.param(["-2", "2", "--degree", "3", "--fourier-n", "9"], 2, id="degree-fourier-n"),
    pytest.param(["-2", "2", "--degree", "3", "--terms", "5"], 2, id="degree-terms"),
])
def test_approx_flags_pick_the_fit(flags, rc, capsys):
    assert main(["approx", "--fn", "tanh", "--interval", *flags]) == rc
    out, err = capsys.readouterr()
    if rc == 0:
        assert "approx.degree=5" in out.splitlines()
        assert out.splitlines()[-1] == "result=PASS"
    else:
        assert (out, err) == ("", "error: --degree (least squares) takes no --fourier-n or --terms\n")


def test_approx_unknown_function(capsys):
    rc = main(["approx", "--fn", "gelu", "--interval", "-1", "1"])
    assert rc == 2
    assert "unknown function" in capsys.readouterr().err


def test_expand_single_output(tmp_path):
    net = NetworkSpec(2, (LayerSpec(np.array([[0.0, 1.0, 1.0]]), MonomialPower(2)),))
    net_path = tmp_path / "net.json"
    save_network(net, net_path)
    out_path = tmp_path / "expanded.poly"
    rc = main(["expand", "--net", str(net_path), "--out", str(out_path)])
    assert rc == 0
    p = poly_from_text(out_path.read_text())
    assert dict(p.terms) == {(2, 0): 1.0, (1, 1): 2.0, (0, 2): 1.0}


def test_expand_multi_output_inserts_an_index(tmp_path):
    net = NetworkSpec(2, (LayerSpec(np.array([[0.0, 1.0, 1.0], [1.0, 1.0, -1.0]]),
                                    MonomialPower(2)),))
    net_path = tmp_path / "net.json"
    save_network(net, net_path)
    rc = main(["expand", "--net", str(net_path), "--out", str(tmp_path / "expanded.poly")])
    assert rc == 0
    assert (tmp_path / "expanded.0.poly").exists()
    assert (tmp_path / "expanded.1.poly").exists()
    assert not (tmp_path / "expanded.poly").exists()


def test_expand_failed_write_leaves_no_output_file(tmp_path, capsys):
    net_path = tmp_path / "net.json"
    save_network(square_arch(2, 2), net_path)
    (tmp_path / "e.1.poly").mkdir()  # the second output cannot be written
    rc = main(["expand", "--net", str(net_path), "--out", str(tmp_path / "e.poly")])
    assert rc == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("error: ") and len(err.splitlines()) == 1
    assert not (tmp_path / "e.0.poly").exists()


def test_synth_round_trip(tmp_path, capsys):
    arch_path = tmp_path / "arch.json"
    save_network(square_arch(4, 1), arch_path)
    target_path = tmp_path / "target.poly"
    target_path.write_text(poly_to_text(regression_target()))
    solved_path = tmp_path / "solved.json"

    rc = main(["synth", "--arch", str(arch_path), "--targets", str(target_path),
               "--out", str(solved_path)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "converged.status=PASS" in out.splitlines()
    assert "restarts=" in out
    assert out.splitlines()[-1] == "result=PASS"

    net = load_network(solved_path)
    assert polynet.forward(net, [1.0, 1.0])[0] == pytest.approx(5.0, abs=1e-6)
    assert polynet.forward(net, [2.0, 1.0])[0] == pytest.approx(9.0, abs=1e-6)


def test_synth_zero_last_layer(tmp_path, capsys):
    first = LayerSpec(np.zeros((2, 3)), MonomialPower(2))
    last = LayerSpec(np.zeros((1, 3)), PolyActivation(UniPoly((0.0,))))
    arch_path = tmp_path / "arch.json"
    save_network(NetworkSpec(2, (first, last)), arch_path)
    target_path = tmp_path / "zero.poly"
    target_path.write_text(poly_to_text(MultiPoly(2)))
    rc = main(["synth", "--arch", str(arch_path), "--targets", str(target_path),
               "--out", str(tmp_path / "solved.json")])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert "converged.status=PASS" in lines
    assert lines[-1] == "result=PASS"


def test_synth_trace_goes_to_stderr(tmp_path, capsys):
    arch_path = tmp_path / "arch.json"
    save_network(square_arch(4, 1), arch_path)
    target_path = tmp_path / "target.poly"
    target_path.write_text(poly_to_text(regression_target()))

    rc = main(["synth", "--arch", str(arch_path), "--targets", str(target_path),
               "--trace"])
    assert rc == 0
    err = capsys.readouterr().err
    first = err.splitlines()[0]
    assert re.match(r"^\d+, \d+, \d\.\d{9}e[+-]\d{2,3}, ", first), first


def test_fit_data_round_trip(tmp_path):
    arch_path = tmp_path / "arch.json"
    save_network(NetworkSpec(1, (LayerSpec(np.zeros((1, 2))),)), arch_path)
    data_path = tmp_path / "data.csv"
    data_path.write_text("f1,y\n0,3\n1,5\n")
    out_path = tmp_path / "fit.json"

    rc = main(["fit-data", "--arch", str(arch_path), "--data", str(data_path),
               "--out", str(out_path)])
    assert rc == 0
    net = load_network(out_path)
    assert polynet.forward(net, [0.0])[0] == pytest.approx(3.0, abs=1e-6)
    assert polynet.forward(net, [1.0])[0] == pytest.approx(5.0, abs=1e-6)


def unfittable_data_argv(tmp_path):
    arch_path = tmp_path / "arch.json"
    save_network(NetworkSpec(1, (LayerSpec(np.zeros((1, 2))),)), arch_path)
    data_path = tmp_path / "data.csv"
    # two different labels for the same point: no exact fit exists
    data_path.write_text("f1,y\n0,0\n0,1\n")
    return ["fit-data", "--arch", str(arch_path), "--data", str(data_path)]


def test_fit_data_reports_nonconvergence(tmp_path, capsys):
    rc = main(unfittable_data_argv(tmp_path))
    assert rc == 1
    lines = capsys.readouterr().out.splitlines()
    assert "converged.status=FAIL" in lines
    assert lines[-1] == "result=FAIL"


def test_python_m_polynet_exit_codes(tmp_path):
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    for argv, rc, last in ((["verify-exp3", "--machine"], 0, "result=PASS"),
                           (unfittable_data_argv(tmp_path), 1, "result=FAIL")):
        done = subprocess.run([sys.executable, "-m", "polynet", *argv], env=env, capture_output=True,
                              text=True, timeout=120)
        assert done.returncode == rc, done.stderr
        assert done.stdout.splitlines()[-1] == last


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_cached_parser_leaks_nothing_between_calls(tmp_path, capsys):
    # Back-to-back calls in one process share the parser; each must give the exit
    # code, stdout and stderr of a fresh process.  Attempt 0 stalls on this target
    # and the seeded restarts converge, so --seed changes the report; verify-exp3
    # has no --seed, so a seed left over from the call before it would refuse it.
    arch = NetworkSpec(2, (LayerSpec(np.zeros((2, 3)), MonomialPower(2)), LayerSpec(np.zeros((1, 3)))))
    save_network(arch, tmp_path / "arch.json")
    teacher = polynet.with_weights(arch, [0.0, 0.8, 0.9, -0.3, 0.1, -0.4, 0.2, -0.3, -0.2])
    (tmp_path / "target.poly").write_text(poly_to_text(polynet.expand_network(teacher)[0]))
    synth = ["synth", "--arch", str(tmp_path / "arch.json"), "--targets", str(tmp_path / "target.poly")]
    calls = [[*synth, "--seed", "3", "--trace"], synth, synth[:3], [*synth, "--seed", "-1"],
             ["verify-exp3", "--machine"]]
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))}
    procs = [subprocess.Popen([sys.executable, "-m", "polynet", *argv], env=env, stdout=subprocess.PIPE,
                              stderr=subprocess.PIPE, text=True) for argv in calls]
    fresh = []
    for proc in procs:
        out, err = proc.communicate(timeout=120)
        fresh.append((proc.returncode, out, err))
    in_process = []
    for argv in calls:
        try:
            rc = main(argv)
        except SystemExit as exc:
            rc = exc.code
        in_process.append((rc, *capsys.readouterr()))
    assert in_process == fresh
    assert [rc for rc, _, _ in fresh] == [0, 0, 2, 2, 0]  # synth[:3] lacks --targets
    assert fresh[0][1] != fresh[1][1] and fresh[0][2] and not fresh[1][2]


def fit_power2(rows, tmp_path, capsys):
    """fit-data of y = (w0 + w1 * x)^2 on CSV rows: (exit code, stdout, stderr)."""
    arch_path = tmp_path / "arch.json"
    save_network(NetworkSpec(1, (LayerSpec(np.zeros((1, 2)), MonomialPower(2)),)), arch_path)
    data_path = tmp_path / "data.csv"
    data_path.write_text("f1,y\n" + rows)
    rc = main(["fit-data", "--arch", str(arch_path), "--data", str(data_path)])
    return (rc, *capsys.readouterr())


def test_fit_data_overflow_is_reported_once(tmp_path, capsys):
    # (1 + 1e200)^2 overflows at the first start
    err = "numeric error: residuals are not finite at the initial point\n"
    assert fit_power2("1e200,0\n", tmp_path, capsys) == (1, "", err)


def test_expansion_overflow_is_reported_once(tmp_path, capsys):
    # (1e200 + 1e200 x)^2 has coefficients 1e400, 2e400 and 1e400
    teacher = tmp_path / "teacher.json"
    save_network(NetworkSpec(1, (LayerSpec(np.full((1, 2), 1e200), MonomialPower(2)),)), teacher)
    student = tmp_path / "student.json"
    save_network(NetworkSpec(1, (LayerSpec(np.zeros((1, 2)), MonomialPower(2)),)), student)
    out = tmp_path / "e.poly"
    err = "numeric error: output 0 of the expansion has a non-finite coefficient\n"
    assert main(["expand", "--net", str(teacher), "--out", str(out)]) == 1
    assert capsys.readouterr() == ("", err)
    assert not out.exists()
    assert main(["compress", "--teacher", str(teacher), "--student-arch", str(student), "--degree", "2"]) == 1
    assert capsys.readouterr() == ("", err)


@pytest.mark.parametrize(
    "rows, message",
    [
        ("1e100,0\n", "residual sum of squares r'r is not finite"),  # r = 1e200 is finite, r'r is not
        ("1e100,1e200\n0,0\n", "normal matrix J'J is not finite"),  # r = (0, 1), J holds 2e200
    ],
)
def test_fit_data_normal_equations_overflow_is_reported_once(rows, message, tmp_path, capsys):
    assert fit_power2(rows, tmp_path, capsys) == (1, "", f"numeric error: {message}\n")


def test_compress_command(tmp_path):
    teacher_path = tmp_path / "teacher.json"
    base = load_reference_network(2)
    a, b = base.layers[0].weights, base.layers[1].weights
    a8 = np.vstack([a, a])
    b8 = np.concatenate([[b[0, 0]], 0.5 * b[0, 1:], 0.5 * b[0, 1:]])[None, :]
    save_network(NetworkSpec(2, (LayerSpec(a8, MonomialPower(2)), LayerSpec(b8))),
                 teacher_path)
    student_path = tmp_path / "student.json"
    save_network(square_arch(4, 1), student_path)
    out_path = tmp_path / "small.json"

    rc = main(["compress", "--teacher", str(teacher_path),
               "--student-arch", str(student_path), "--degree", "2",
               "--out", str(out_path)])
    assert rc == 0
    small = load_network(out_path)
    assert small.layers[0].weights.shape == (4, 3)


def test_compress_refuses_a_negative_degree_before_expanding(monkeypatch, tmp_path, capsys):
    monkeypatch.setattr(polynet.synthesis, "expand_network", lambda net: pytest.fail("teacher expanded"))
    argv = verb_argv("compress", tmp_path)
    argv[argv.index("--degree") + 1] = "-1"
    assert main(["compress", *argv]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: degree must be non-negative, got -1\n"


# SHA-256 of each experiment's --machine output: every reported value keeps its bits
VERIFY_DIGESTS = {
    1: "85b394a3b8d94e8352c1f0f5af014aec061c997388ec710334441990f71dec10",
    2: "43741a96340a9cb775d3720925e4031f28725bc140362dc0bf3e80ce2b8c6fb6",
    3: "31950ce34c14b06f82c3fb9b3a37020bd27da4e9fbbb3f038376fed92cb1a64b",
    4: "1dde7a8fbb229fbf2c725230b809fdf04a63736d495088032c52935843245918",
}


@pytest.mark.parametrize("exp_id", [1, 2, 3, 4])
def test_verify_commands_pass(exp_id, capsys):
    rc = main([f"verify-exp{exp_id}", "--machine"])
    out = capsys.readouterr().out
    assert rc == 0
    assert out.rstrip().splitlines()[-1] == "result=PASS"
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[exp_id]


def pool_problem_argv(label, tmp_path):
    """argv of problem compress0 or fit3 of perfbench's solver pools, whose
    inputs are drawn from the pools' seed as perfbench/jobs.py draws them."""

    def square_net(rng, d, hidden, outputs, k=2):
        return NetworkSpec(d, (LayerSpec(rng.uniform(-1.0, 1.0, (hidden, d + 1)), MonomialPower(k)),
                               LayerSpec(rng.uniform(-1.0, 1.0, (outputs, hidden + 1)))))

    def placeholder(net):
        return NetworkSpec(net.input_dim, tuple(LayerSpec(np.zeros_like(l.weights), l.activation) for l in net.layers))

    pool_seed = 2305_00663
    teacher_path, arch_path = tmp_path / "teacher.json", tmp_path / "arch.json"
    if label == "compress0":  # after the six synth problems' teachers
        rng = np.random.default_rng(pool_seed)
        for outputs in (1, 1, 1, 2, 2, 2):
            square_net(rng, 2, 4, outputs)
        save_network(square_net(rng, 2, 8, 1, k=4), teacher_path)
        save_network(placeholder(square_net(rng, 2, 4, 1)), arch_path)
        return ["compress", "--teacher", str(teacher_path), "--student-arch", str(arch_path), "--degree", "2"]
    rng = np.random.default_rng(pool_seed + 1)
    for d in (2, 3, 2, 3):  # fit0 to fit3
        teacher = square_net(rng, d, 4, 1)
        X = rng.uniform(-1.0, 1.0, (int(rng.integers(50, 201)), d))
    data_path = tmp_path / "data.csv"
    polynet.save_dataset(polynet.Dataset(X, np.array([polynet.forward(teacher, x)[0] for x in X])), data_path)
    save_network(placeholder(teacher), arch_path)
    return ["fit-data", "--arch", str(arch_path), "--data", str(data_path)]


# label: (accepted steps per attempt, residual_norm and iterations on stdout,
# SHA-256 of the --trace stream and of --out), recorded before the LM loop lost its nested wrappers
POOL_TRACES = {
    "compress0": ([195, 6], "2.547684285758578e-12", 6,
                  "819fef77cd33b649c15dd1e368affb82053746f53487002a9f5848f5fa6f276e",
                  "9f858698d8f11c9a7e55cac0d226dcb48184ed33d8c6677b80b44e605a7cda83"),
    "fit3": ([61, 7], "1.3322676295501878e-15", 7,
             "447f70a45d59543d883a4b448d694ed87716c4b25f378a0724c7dfbbd05228b2",
             "912d87fb53a2337a61f523613e1b6d131aa388c01b913078eaecee2b2cd86eb0"),
}


@pytest.mark.parametrize("label", POOL_TRACES)
def test_pool_solves_keep_their_trace_bits(label, tmp_path, capsys):
    # each first attempt stops short of converging, and the first restart converges;
    # every trace line holds the norm, damping and step length of one accepted step,
    # so the stream's bytes pin the solver's whole path, lambda included
    steps, norm, iterations, trace_digest, net_digest = POOL_TRACES[label]
    net_path = tmp_path / "net.json"
    rc = main(pool_problem_argv(label, tmp_path) + ["--seed", "0", "--trace", "--out", str(net_path)])
    captured = capsys.readouterr()
    assert rc == 0
    assert [sum(line.startswith(f"{a}, ") for line in captured.err.splitlines()) for a in range(2)] == steps
    assert captured.out == ("converged=1\nconverged.expected=1\nconverged.tol=0\nconverged.status=PASS\n"
                            f"residual_norm={norm}\niterations={iterations}\nrestarts=1\nresult=PASS\n")
    assert hashlib.sha256(captured.err.encode()).hexdigest() == trace_digest
    assert hashlib.sha256(net_path.read_bytes()).hexdigest() == net_digest


def test_verify_text_format(capsys):
    rc = main(["verify-exp3"])
    assert rc == 0
    lines = capsys.readouterr().out.rstrip().splitlines()
    body = [l for l in lines if " expected " in l]
    assert body and all(CHECK_LINE.match(l) for l in body)
    assert re.match(r"^checks: \d+/\d+ passed$", lines[-1])


def verb_argv(verb, tmp_path):
    """Small inputs for one run of `verb`, as the tests above use them."""
    if verb == "expand":
        save_network(square_arch(2, 2), tmp_path / "net.json")
        return ["--net", str(tmp_path / "net.json"), "--out", str(tmp_path / "expanded.poly")]
    if verb == "synth":
        save_network(square_arch(4, 1), tmp_path / "arch.json")
        (tmp_path / "target.poly").write_text(poly_to_text(regression_target()))
        return ["--arch", str(tmp_path / "arch.json"), "--targets", str(tmp_path / "target.poly")]
    if verb == "fit-data":
        save_network(NetworkSpec(1, (LayerSpec(np.zeros((1, 2))),)), tmp_path / "arch.json")
        (tmp_path / "data.csv").write_text("f1,y\n0,3\n1,5\n")
        return ["--arch", str(tmp_path / "arch.json"), "--data", str(tmp_path / "data.csv")]
    if verb == "compress":
        save_network(load_reference_network(2), tmp_path / "teacher.json")
        save_network(square_arch(4, 1), tmp_path / "student.json")
        return ["--teacher", str(tmp_path / "teacher.json"), "--student-arch", str(tmp_path / "student.json"),
                "--degree", "2", "--out", str(tmp_path / "small.json")]
    return {"approx": ["--fn", "tanh", "--interval", "-2", "2", "--degree", "5"],
            "verify-exp3": []}[verb]


@pytest.mark.parametrize("argv", [["approx"], ["expand"], ["synth"], ["fit-data"], ["compress"],
                                  ["verify-exp3", "--machine"], ["verify-exp3"]],
                         ids=lambda argv: "-".join(a.lstrip("-") for a in argv))
def test_machine_output_is_reproducible(argv, tmp_path, capsys):
    # every verb prints through the one report path: a verdict last, and no timings that
    # differ between runs; only verify-exp* have a text form, printed without --machine
    text_form = argv == ["verify-exp3"]
    argv = [*argv, *verb_argv(argv[0], tmp_path)]
    assert main(argv) == 0
    first = capsys.readouterr().out
    assert main(argv) == 0
    assert capsys.readouterr().out == first
    assert re.fullmatch(r"checks: (\d+)/\1 passed" if text_form else "result=PASS", first.splitlines()[-1])


def test_missing_file_exits_2(capsys):
    rc = main(["expand", "--net", "/nonexistent/net.json", "--out", "/tmp/x.poly"])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_malformed_input_exits_2(tmp_path, capsys):
    arch_path = tmp_path / "arch.json"
    save_network(square_arch(4, 1), arch_path)
    bad_target = tmp_path / "bad.poly"
    bad_target.write_text("not a polynomial\n")
    rc = main(["synth", "--arch", str(arch_path), "--targets", str(bad_target)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_non_finite_data_exits_2(tmp_path, capsys):
    arch_path = tmp_path / "arch.json"
    save_network(NetworkSpec(1, (LayerSpec(np.zeros((1, 2))),)), arch_path)
    data_path = tmp_path / "data.csv"
    data_path.write_text("f1,y\n0,3\nnan,5\n")
    rc = main(["fit-data", "--arch", str(arch_path), "--data", str(data_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: line 3: non-finite")


def test_non_finite_target_coefficient_exits_2(tmp_path, capsys):
    arch_path = tmp_path / "arch.json"
    save_network(square_arch(4, 1), arch_path)
    target_path = tmp_path / "target.poly"
    target_path.write_text("poly nvars=2\n2 1 0\nnan 0 2\n")
    rc = main(["synth", "--arch", str(arch_path), "--targets", str(target_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: line 3: non-finite")


def test_non_finite_poly_activation_exits_2(tmp_path, capsys):
    net_path = tmp_path / "net.json"
    net_path.write_text(
        '{"input_dim": 1, "layers": [{"weights": [[0, 1]], "activation": {"kind": "poly", "coeffs": [NaN, 1]}}]}'
    )
    out_path = tmp_path / "expanded.poly"
    rc = main(["expand", "--net", str(net_path), "--out", str(out_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: layer 0: poly activation coefficients must be finite")
    assert not out_path.exists()


def test_expansion_over_budget_exits_2(tmp_path, capsys):
    net_path = tmp_path / "net.json"
    save_network(NetworkSpec(10, (LayerSpec(np.ones((4, 11)), MonomialPower(16)),
                                  LayerSpec(np.ones((1, 5))))), net_path)
    out_path = tmp_path / "expanded.poly"
    rc = main(["expand", "--net", str(net_path), "--out", str(out_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error: expanding to degree 16 in 10 inputs")
    assert not out_path.exists()


NET = '{"input_dim": 1, "layers": [%s]}'
LAYER = '{"weights": [[0, 1]], "activation": %s}'
BIG = "9" * 400  # a JSON integer past the float range


@pytest.mark.parametrize(
    "verb, text, message",
    [
        ("expand", "{", "invalid JSON: "),
        ("expand", "[]", "top level must be an object"),
        ("expand", '{"input_dim": 0, "layers": []}', "'input_dim' must be a positive integer"),
        ("expand", '{"input_dim": true, "layers": []}', "'input_dim' must be a positive integer"),
        ("expand", NET % "", "'layers' must be a non-empty list"),
        ("expand", NET % "1", "layer 0: must be an object"),
        ("expand", NET % '{"weights": [[0, 1], [0]]}', "layer 0: 'weights' must be a rectangular numeric matrix"),
        ("expand", NET % '{"weights": [[0, "1"]]}', "layer 0: 'weights' must be a rectangular numeric matrix"),
        ("expand", NET % '{"weights": [[0, 1]]}', "layer 0: activation must be an object with a 'kind' field"),
        ("expand", NET % (LAYER % '{"kind": "power", "k": 0}'), "layer 0: power activation needs a positive integer 'k'"),
        ("expand", NET % (LAYER % '{"kind": "power", "k": 2.0}'), "layer 0: power activation needs a positive integer 'k'"),
        ("expand", NET % (LAYER % '{"kind": "poly", "coeffs": []}'),
         "layer 0: poly activation needs a non-empty numeric 'coeffs' list"),
        ("expand", NET % (LAYER % '{"kind": "poly", "coeffs": [true]}'),
         "layer 0: poly activation needs a non-empty numeric 'coeffs' list"),
        ("expand", NET % (LAYER % '{"kind": "relu"}'), "layer 0: unknown activation kind 'relu'"),
        ("expand", NET % '{"weights": [[0, %s]], "activation": {"kind": "identity"}}' % BIG,
         "layer 0: 'weights' holds an integer too large for a double"),
        ("expand", NET % (LAYER % '{"kind": "poly", "coeffs": [1, %s]}' % BIG),
         "layer 0: 'coeffs' holds an integer too large for a double"),
        ("fit-data --arch", NET % (LAYER % '{"kind": "power", "k": %s}' % BIG),
         "layer 0: 'k' holds an integer too large for a double"),
        ("expand", NET % '{"weights": [[0, 1e400]], "activation": {"kind": "identity"}}',
         "layer 0: weights must be finite"),
        ("fit-data", "", "empty CSV"),
        ("fit-data", "x,y\n1,2\n", "expected header f1,...,fd,y, got 'x,y'"),
        ("fit-data", "f1,y\n", "dataset has no example rows"),
        ("synth", "", "empty polynomial text"),
        ("synth", "poly nvars=two\n", "line 1: bad variable count in 'poly nvars=two'"),
        ("synth", "poly nvars=0\n", "line 1: nvars must be at least 1"),
    ],
)
def test_bad_inputs_exit_2(verb, text, message, tmp_path, capsys):
    bad = tmp_path / "bad"
    bad.write_text(text)
    arch = tmp_path / "arch.json"
    save_network(NetworkSpec(1, (LayerSpec(np.zeros((1, 2))),)), arch)
    data = tmp_path / "data.csv"
    data.write_text("f1,y\n0,1\n")
    argvs = {"expand": ["expand", "--net", str(bad), "--out", str(tmp_path / "out.poly")],
             "fit-data": ["fit-data", "--arch", str(arch), "--data", str(bad)],
             "fit-data --arch": ["fit-data", "--arch", str(bad), "--data", str(data)],
             "synth": ["synth", "--arch", str(arch), "--targets", str(bad)]}
    rc = main(argvs[verb])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: " + message)
    assert len(err.splitlines()) == 1


# the solver's iteration cap and tolerance are fixed, not flags, so argparse refuses them
DELETED_SOLVER_FLAGS = [["--max-iters", "0"], ["--tol", "0"], ["--tol", "nan"], ["--tol", "inf"]]
SOLVER_VERB_INPUTS = {
    **{f"verify-exp{i}": [] for i in (1, 2, 3, 4)},
    "synth": ["--arch", "a.json", "--targets", "t.poly"],
    "fit-data": ["--arch", "a.json", "--data", "d.csv"],
    "compress": ["--teacher", "t.json", "--student-arch", "s.json", "--degree", "2"],
}


@pytest.mark.parametrize("argv", [
    *[pytest.param(["verify-exp2", *flag], id=f"flag{i}") for i, flag in enumerate(DELETED_SOLVER_FLAGS)],
    *[pytest.param([verb, *inputs, "--seed", "-1"], id=verb) for verb, inputs in SOLVER_VERB_INPUTS.items()],
])
def test_bad_solver_settings_exit_2(argv, capsys):
    # refused before the verb runs, so the named files need not exist;
    # verify-exp* run at the solver's default seed and have no --seed
    if "--seed" not in argv or argv[0].startswith("verify-exp"):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1] == "polynet: error: unrecognized arguments: " + " ".join(argv[1:])
        return
    rc = main(argv)
    assert rc == 2
    assert capsys.readouterr().err == "error: seed must be non-negative\n"


SOLVER_OPTIONS = ["--seed", "--trace"]
VERB_OPTIONS = {
    "approx": ["--fn", "--interval", "--degree", "--fourier-n", "--terms", "--out"],
    "expand": ["--net", "--out"],
    "synth": ["--arch", "--targets", "--out", *SOLVER_OPTIONS],
    "fit-data": ["--arch", "--data", "--out", *SOLVER_OPTIONS],
    "compress": ["--teacher", "--student-arch", "--degree", "--out", *SOLVER_OPTIONS],
    **{f"verify-exp{i}": ["--machine"] for i in (1, 2, 3, 4)},  # fixed seed, untraced
}


def test_verb_options():
    # every flag of every verb; a new or deleted flag is a deliberate edit here
    (verbs,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    found = {name: [opt for a in sub._actions for opt in a.option_strings if opt not in ("-h", "--help")]
             for name, sub in verbs.choices.items()}
    assert found == VERB_OPTIONS


PUBLIC_NAMES = [
    "ApproxError", "ConfigurationError", "Dataset", "DimensionError", "Error", "FourierSeries", "Identity",
    "LayerSpec", "MonomialPower", "MultiPoly", "NetworkSpec", "NumericError", "ParseError", "PolyActivation",
    "ResidualSystem", "SampledFunction", "SolveReport", "StructuralError", "UniPoly", "UsageError",
    "approx_error", "build_coefficient_system", "build_data_system", "builtin", "class_target_poly",
    "classify", "compress_network", "dataset_from_csv", "dataset_to_csv", "expand_network", "expansion_degree",
    "forward", "fourier_fit", "fourier_to_poly", "load_dataset", "load_network", "lsq_poly_fit",
    "network_from_json", "network_to_json", "network_weights", "poly_eval", "poly_from_text", "poly_to_text",
    "residual_jacobian", "save_dataset", "save_network", "solve_system", "trig_term_budget", "truncate_degree",
    "unipoly_from_text", "unipoly_to_text", "with_weights",
]


def test_public_names():
    # every public name of the package; a new or deleted name is a deliberate edit here.
    # Submodules are left out: which of them are attributes depends on what was imported.
    found = sorted(n for n in dir(polynet) if not n.startswith("_") and not inspect.ismodule(getattr(polynet, n)))
    assert found == PUBLIC_NAMES


def test_bad_flags_exit_2():
    with pytest.raises(SystemExit) as exc:
        main(["approx"])  # missing required --fn/--interval
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2
    # the quadrature panels and grid size are fixed, not flags; --degree picks the fit,
    # and approx always prints the machine form
    for flag in (["--panels", "4096"], ["--gridpoints", "2001"], ["--method", "lsq"], ["--machine"]):
        with pytest.raises(SystemExit) as exc:
            main(["approx", "--fn", "sigmoid", "--interval", "-8", "8", *flag])
        assert exc.value.code == 2


def test_readme_examples_parse():
    # argparse opens no files, so the example paths need not exist
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```sh\n(.*?)^```", readme, re.M | re.S)
    lines = [line for block in blocks for line in block.splitlines() if line.startswith("polynet ")]
    assert lines
    for line in lines:
        build_parser().parse_args(shlex.split(line)[1:])
