"""Command-line surface: exit codes, JSON output, reproducibility."""

import json
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "opsplit.cli"]


def run_cli(*args, env=None, cwd=None):
    import os

    full_env = dict(os.environ)
    full_env.pop("OPSPLIT_SEED", None)
    if env:
        full_env.update(env)
    return subprocess.run(
        CLI + list(args), capture_output=True, text=True, env=full_env, cwd=cwd
    )


@pytest.fixture
def fb_instance(tmp_path):
    path = tmp_path / "fb.json"
    path.write_text(
        json.dumps(
            {
                "A": {"kind": "scaled_identity", "c": 2.0, "dim": 2},
                "B": {"kind": "scaled_identity", "c": -1.0, "dim": 2},
                "mu": 2.0,
                "omega": 1.0,
                "beta": 1.0,
                "case": "I",
                "x_star": [0.0, 0.0],
            }
        )
    )
    return path


@pytest.fixture
def dr_instance(tmp_path):
    path = tmp_path / "dr.json"
    path.write_text(
        json.dumps(
            {
                "A": {"kind": "subspace_normal", "basis": [[1.0, 0.0]], "mu": 2.0},
                "B": {"kind": "scaled_identity", "c": -1.0, "dim": 2},
                "mu": 2.0,
                "omega": 1.0,
            }
        )
    )
    return path


def test_compose_averaged_pair():
    r = run_cli("compose", "--class1", "averaged:0.5", "--class2", "averaged:0.5")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["alpha"] == pytest.approx(1 / 3, abs=1e-15)
    assert out["beta"] == pytest.approx(2 / 3, abs=1e-15)


def test_compose_guard_rejection_prints_fallback():
    r = run_cli("compose", "--class1", "conic:1.7", "--class2", "conic:0.7")
    assert r.returncode == 2
    out = json.loads(r.stdout)
    assert out["fallback_lipschitz"] == pytest.approx(2.4)


def test_compose_nonexpansive_pair():
    r = run_cli("compose", "--class1", "lipschitz:1", "--class2", "lipschitz:1")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert (out["alpha"], out["beta"]) == (0.0, 1.0)


def test_compose_chain_file(tmp_path):
    chain = tmp_path / "chain.json"
    chain.write_text(json.dumps([{"delta": 1.0, "alpha": 0.5}] * 3))
    r = run_cli("compose", "--chain", str(chain), "--r", "0")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["result"]["alpha"] == pytest.approx(0.75, abs=1e-15)

    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            [
                {"delta": 1.0, "alpha": 0.25},
                {"delta": 1.0, "alpha": 3.25},
                {"delta": 1.0, "alpha": 0.75},
            ]
        )
    )
    r = run_cli("compose", "--chain", str(bad), "--r", "1")
    assert r.returncode == 2


def test_compose_chain_fallback_is_a_lipschitz_bound(tmp_path):
    # Id ∘ (-5.5 Id) ∘ Id lies in these classes, so no bound below 5.5 is sound
    bad = tmp_path / "bad.json"
    bad.write_text(
        json.dumps(
            [
                {"delta": 1.0, "alpha": 0.25},
                {"delta": 1.0, "alpha": 3.25},
                {"delta": 1.0, "alpha": 0.75},
            ]
        )
    )
    r = run_cli("compose", "--chain", str(bad), "--r", "1")
    assert r.returncode == 2
    assert json.loads(r.stdout)["fallback_lipschitz"] == 5.5


def _compose_ok(class1, class2, theorem, result, alpha, beta):
    return {"alpha": alpha, "beta": beta,
            "config": {"class1": class1, "class2": class2},
            "result": result, "theorem": theorem}


def _compose_rejected(class1, class2, error, fallback):
    return {"config": {"class1": class1, "class2": class2}, "error": error,
            "fallback_lipschitz": fallback}


# Recorded stdout and exit code of `compose --class1 --class2`, one pair per
# ladder outcome: two-factor bound, scale-normalised bound (on its unit-ratio
# and its quotient branch), GuardError and DomainError rejection.
COMPOSE_TABLE = [
    ("averaged:0.5", "averaged:0.5", 0, _compose_ok(
        "averaged:0.5", "averaged:0.5", "two-factor-bound",
        {"alpha": 0.3333333333333333, "beta": 0.6666666666666666, "type": "in"},
        0.3333333333333333, 0.6666666666666666)),
    ("conic:1.7", "conic:0.45", 0, _compose_ok(
        "conic:1.7", "conic:0.45", "two-factor-bound",
        {"alpha": -1.6382978723404262, "beta": 2.6382978723404262, "type": "in"},
        -1.6382978723404262, 2.6382978723404262)),
    ("scaled-conic:2:0.75", "cocoercive:1.4", 0, _compose_ok(
        "scaled-conic:2:0.75", "cocoercive:1.4", "two-factor-bound",
        {"alpha": 0.5384615384615384, "beta": 2.266295363485575, "type": "in"},
        0.5384615384615384, 2.266295363485575)),
    ("neg-conic:2", "contraction:0.9", 0, _compose_ok(
        "neg-conic:2", "contraction:0.9", "scale-normalized-bound",
        {"alpha": 1.0, "delta": 2.7, "type": "scaled-conic"}, 0.0, 2.7)),
    ("nonexpansive", "lipschitz:0.8", 0, _compose_ok(
        "nonexpansive", "lipschitz:0.8", "scale-normalized-bound",
        {"alpha": 1.0, "delta": 0.8, "type": "scaled-conic"}, 0.0, 0.8)),
    ("averaged:0.3", "scaled-conic:3:0.4", 0, _compose_ok(
        "averaged:0.3", "scaled-conic:3:0.4", "scale-normalized-bound",
        {"alpha": 0.5227272727272727, "delta": 3.0, "type": "scaled-conic"},
        1.4318181818181819, 1.5681818181818181)),
    ("conic:1.7", "conic:0.7", 2, _compose_rejected(
        "conic:1.7", "conic:0.7",
        "no kappa-theta form certified: requires b1*b2/((a1+b1)(a2+b2)) < 1 "
        "or max ratio = 1, got product 1.19 and max 1.7", 2.4)),
    ("neg-conic:0.5", "neg-conic:0.5", 2, _compose_rejected(
        "neg-conic:0.5", "neg-conic:0.5",
        "requires alpha+beta > 0 for both factors, got 0.0, 0.0", 1.0)),
    # (1 - alpha)**2 overflows in the two-factor rule, which then does not
    # apply, and the fallback product overflows to inf.
    *((f"conic:{c}", f"conic:{c}", 2, _compose_rejected(
        f"conic:{c}", f"conic:{c}",
        "requires alpha+beta > 0 for both factors, got 0.0, 0.0", float("inf")))
      for c in ("1e200", "1e308")),
]


@pytest.mark.parametrize("class1,class2,code,expected", COMPOSE_TABLE)
def test_compose_table_matches_recorded_output(class1, class2, code, expected, capsys):
    from opsplit.cli import main

    assert main(["compose", "--class1", class1, "--class2", class2]) == code
    assert capsys.readouterr().out == json.dumps(expected, indent=2, sort_keys=True) + "\n"


def test_compose_parse_error_is_usage():
    r = run_cli("compose", "--class1", "averaged:1.5", "--class2", "averaged:0.5")
    assert r.returncode == 1
    r = run_cli("compose", "--class1", "gibberish", "--class2", "averaged:0.5")
    assert r.returncode == 1


def test_classify_output():
    r = run_cli("classify", "--alpha", "0.5", "--beta", "0.5")
    assert r.returncode == 0
    kinds = {l["kind"] for l in json.loads(r.stdout)["labels"]}
    assert {"averaged", "cocoercive", "lipschitz", "nonexpansive"} <= kinds


def test_classify_averaged_when_sum_rounds_to_one():
    r = run_cli("classify", "--alpha", "0.3", "--beta", "0.7")
    assert r.returncode == 0
    labels = json.loads(r.stdout)["labels"]
    assert {"kind": "averaged", "value": 0.7} in labels
    assert {"kind": "conic", "value": 0.7} in labels


def test_solve_fb_tight_rate(tmp_path, fb_instance):
    log = tmp_path / "out.csv"
    r = run_cli(
        "solve-fb", "--instance", str(fb_instance), "--gamma", "0.2",
        "--x0", "1,0", "--log", str(log),
    )
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["rate"]["empirical_rate"] == pytest.approx(0.75, abs=1e-12)
    assert out["rate"]["certified_rate"] == pytest.approx(0.75, abs=1e-12)
    assert out["rate"]["satisfied"] and out["result"]["converged"]
    header = log.read_text().splitlines()[0]
    assert header == "k,step_norm,err_norm,shadow_gap"


@pytest.mark.parametrize("case, plan, a, b, message", [
    # the plan's 0.75 contraction needs A 2-monotone; 0.5*Id is not
    ("I", {"mu": 2.0, "omega": 1.0, "beta": 1.0, "gamma": 0.2}, 0.5, -1.0,
     "modulus mismatch: A must be 2.0-monotone, spec certifies only 0.5"),
    ("II", {"mu": 1.0, "omega": 0.5, "beta": 1.0, "beta_bar": 2.0, "gamma": 0.5}, 0.5, 0.5,
     "modulus mismatch: B must be 1.0-monotone, spec certifies only 0.5"),
    ("III", {"mu": 2.0, "beta": 1.0, "beta_bar": 3.0, "gamma": 1.0}, -2.0, 2.0,
     "modulus mismatch: A must be -1.0-monotone, spec certifies only -2.0"),
])
def test_solve_fb_modulus_mismatch_is_rejected(case, plan, a, b, message, tmp_path):
    inst = tmp_path / "fb.json"
    inst.write_text(json.dumps({
        "A": {"kind": "scaled_identity", "c": a, "dim": 2},
        "B": {"kind": "scaled_identity", "c": b, "dim": 2},
        "case": case, **plan,
    }))
    r = run_cli("solve-fb", "--instance", str(inst), "--x0", "1,2")
    assert r.returncode == 2
    out = json.loads(r.stdout)
    assert out["error"] == message and set(out) == {"config", "error"}


# Planner inputs whose constants once divided by zero or overflowed: each is
# now an exit-2 rejection record.
_ROUNDING_EDGE_SOLVES = [
    # case Ib at 1 - gamma*omega = 0, where J_gB is not single-valued
    ("solve-fb", {"A": 1.6, "B": -1.0, "mu": 1.5, "omega": 1.0, "beta": 0.1, "case": "Ib",
                  "gamma": 1.0}, [],
     "case Ib requires gamma*omega < 1 (J_gB single-valued), got 1.0"),
    # case Ib where gamma*(mu+beta) - 1 rounds to 0
    ("solve-fb", {"A": 1.0, "B": 0.0, "mu": 1.0, "omega": 0.0, "beta": 1e-17, "case": "Ib",
                  "gamma": 1.0}, [],
     "case Ib: gamma*(mu+beta) - 1 rounds to 0 at gamma=1.0; no constants certified"),
    # 1 - lambda rounds to 1, and mu - omega - gamma*mu*omega to 0
    ("solve-dr", {"A": 5.0, "B": -4.9, "mu": 5.0, "omega": 4.9,
                  "gamma": 0.004081632653061209}, ["--lambda", "1e-17"],
     "mu - omega - gamma*mu*omega rounds to 0 at gamma=0.004081632653061209; "
     "no constants certified"),
    # gamma*mu overflows where omega = 0 leaves the interval unbounded; the plan
    # was nu = nan
    ("solve-dr", {"A": 2.0, "B": 0.0, "mu": 2.0, "omega": 0.0}, ["--gamma", "1e308"],
     "gamma*mu overflows at gamma=1e+308; no constants certified"),
    # mu*omega is subnormal, so the interval's end is inf; the plan was nu = -0.0
    ("solve-dr", {"A": 2.0, "B": -1e-323, "mu": 2.0, "omega": 1e-323},
     ["--lambda", "0.001", "--gamma", "1.7976931348623157e308"],
     "gamma*mu overflows at gamma=1.7976931348623157e+308; no constants certified"),
]


def _scalar_instance(tmp_path, inst):
    """Write ``inst`` with its ``A`` and ``B`` as 2-D scaled identities."""
    path = tmp_path / "inst.json"
    specs = {side: {"kind": "scaled_identity", "c": inst[side], "dim": 2} for side in "AB"}
    path.write_text(json.dumps({**inst, **specs}))
    return path


@pytest.mark.parametrize("command, inst, flags, message", _ROUNDING_EDGE_SOLVES)
def test_solve_at_a_rounding_edge_is_rejected(command, inst, flags, message, tmp_path, capsys):
    from opsplit.cli import main

    path = _scalar_instance(tmp_path, inst)
    assert main([command, "--instance", str(path), "--x0", "1,2", *flags]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == message and set(out) == {"config", "error"}


def test_forced_solve_at_a_singular_resolvent_is_usage(tmp_path, capsys):
    from opsplit.cli import main

    command, inst, _, _ = _ROUNDING_EDGE_SOLVES[0]
    path = _scalar_instance(tmp_path, inst)
    assert main([command, "--instance", str(path), "--x0", "1,2", "--force"]) == 1
    assert "resolvent not single-valued" in capsys.readouterr().err


# omega/mu = 0.9985: the conic route to nu loses about 8 digits, and these
# step sizes, 5% and 4% into ]0, 0.0379[, used to exit 3 on a float
# cross-check against it.
@pytest.mark.parametrize("gamma", ["0.0018772050770655114", "0.0015"])
def test_solve_dr_near_equal_moduli_plans(gamma, tmp_path, capsys):
    from opsplit.cli import main

    mu, omega = 0.01972509537269139, 0.019695644106618136
    path = _scalar_instance(tmp_path, {"A": mu, "B": -omega, "mu": mu, "omega": omega})
    assert main(["solve-dr", "--instance", str(path), "--gamma", gamma, "--lambda", "0.5",
                 "--x0", "1,2", "--max-iter", "200"]) == 0
    plan = json.loads(capsys.readouterr().out)["plan"]
    assert plan["gamma"] == float(gamma) and plan["gamma_range"] == "]0.0, 0.03790396774326983["


def test_solve_dr_refuses_specs_below_tiny_planned_moduli(tmp_path, capsys):
    # A = 1.1e-12*Id falls 9e-13 short of mu = 2e-12; the spec's own modulus
    # is exact, so the modulus check allows it no slack at all.
    from opsplit.cli import main

    inst = {"A": 1.1e-12, "B": -1e-12, "mu": 2e-12, "omega": 1e-12}
    path = _scalar_instance(tmp_path, inst)
    assert main(["solve-dr", "--instance", str(path), "--gamma", "1e11", "--lambda", "0.5",
                 "--x0", "1,2"]) == 2
    out = json.loads(capsys.readouterr().out)
    assert out["error"] == "modulus mismatch: A must be 2e-12-monotone, spec certifies only 1.1e-12"


def test_solve_takes_no_seed(fb_instance):
    # the solvers draw nothing at random, so there is no seed to echo or set
    r = run_cli("solve-fb", "--instance", str(fb_instance), "--gamma", "0.2")
    assert r.returncode == 0 and "seed" not in json.loads(r.stdout)["config"]
    r = run_cli("solve-fb", "--instance", str(fb_instance), "--gamma", "0.2", "--seed", "3")
    assert r.returncode == 1


def test_solve_dr_out_of_range_prints_interval(dr_instance):
    r = run_cli("solve-dr", "--instance", str(dr_instance), "--gamma", "0.3", "--x0", "0,1")
    assert r.returncode == 2
    out = json.loads(r.stdout)
    assert out["valid_interval"] == "]0.0, 0.25["


def test_solve_dr_forced_divergence(dr_instance):
    r = run_cli(
        "solve-dr", "--instance", str(dr_instance), "--gamma", "0.6",
        "--x0", "0,1", "--force", "--max-iter", "300",
    )
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["result"]["diverged"] and out["plan"] is None


def test_solve_dr_in_range_converges(dr_instance):
    r = run_cli("solve-dr", "--instance", str(dr_instance), "--gamma", "0.1", "--x0", "1,1")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["result"]["converged"]
    assert out["plan"]["averaged_alpha"] == pytest.approx(0.625)


def test_solve_max_iter_zero_takes_no_step(dr_instance, capsys):
    # a negative --max-iter is a usage error; 0 runs and stops at x0
    from opsplit.cli import main

    assert main(["solve-dr", "--instance", str(dr_instance), "--gamma", "0.1",
                 "--max-iter", "0"]) == 0
    result = json.loads(capsys.readouterr().out)["result"]
    assert result["iterations"] == 0 and result["final"] == [1.0, 0.0]
    assert result["reason"] == "no convergence within 0 iterations"


def test_solve_with_integer_fields_past_the_float_range_is_no_traceback(tmp_path, capsys):
    # JSON reads 10**308 as an int; gamma*mu = 2*10**308 has no float, so the
    # plan's overflow check must not convert it. The plan holds exactly and
    # the build then rejects the step.
    from opsplit.cli import main

    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"A": _SI_A, "B": dict(_SI_B, c=0.0), "mu": 2, "omega": 0,
                                "gamma": 10**308}))
    assert main(["solve-dr", "--instance", str(path), "--x0", "1,2"]) == 2
    assert "error" in json.loads(capsys.readouterr().out)


def test_forced_solve_with_a_non_finite_iterate_exits_3(tmp_path):
    # gamma*A = 1e309 overflows, so the forced run's first iterate is not finite
    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"A": {"kind": "affine", "matrix": [[1e308, 0], [0, 1e308]]},
                                "B": {"kind": "scaled_identity", "c": 1.0, "dim": 2},
                                "mu": 2.0, "beta": 1.0, "case": "I",
                                "gamma": 10.0}))
    r = run_cli("solve-fb", "--instance", str(path), "--force", "--x0", "1,2")
    assert r.returncode == 3
    assert r.stdout == ""
    assert r.stderr.endswith("numeric failure: non-finite iterate at iteration 1\n"), r.stderr


def test_verify_named_suite(tmp_path):
    report = tmp_path / "named.json"
    r = run_cli("verify", "--suite", "named", "--json", str(report))
    assert r.returncode == 0
    assert all(line.startswith("PASS") for line in r.stdout.strip().splitlines())
    cases = json.loads(report.read_text())["cases"]
    assert all(c["agree"] for c in cases) and len(cases) >= 9


def test_verify_named_suite_ignores_the_seed(tmp_path, monkeypatch, capsys):
    # The named cases always sample with DEFAULT_SEED, so --seed and
    # OPSPLIT_SEED move neither the report nor its recorded seed.
    from opsplit.cli import main

    def report(argv, env_seed=None):
        if env_seed is None:
            monkeypatch.delenv("OPSPLIT_SEED", raising=False)
        else:
            monkeypatch.setenv("OPSPLIT_SEED", env_seed)
        path = tmp_path / "named.json"
        assert main(["verify", "--suite", "named", "--json", str(path), *argv]) == 0
        return capsys.readouterr().out, path.read_bytes()

    default = report([])
    assert json.loads(default[1])["config"]["seed"] == 0xC0FFEE
    assert report(["--seed", "5"]) == default
    assert report([], env_seed="5") == default


def test_compose_scaled_conic_spec():
    r = run_cli("compose", "--class1", "scaled-conic:2:0.75", "--class2", "cocoercive:1.5")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    # scaled averaged against cocoercive: kappa-theta route applies
    assert out["theorem"] in ("two-factor-bound", "scale-normalized-bound")


def test_verify_random_reproducible(tmp_path):
    out1 = tmp_path / "r1.json"
    out2 = tmp_path / "r2.json"
    r1 = run_cli("verify", "--suite", "random", "--seed", "7", "--count", "6",
                 "--json", str(out1))
    r2 = run_cli("verify", "--suite", "random", "--seed", "7", "--count", "6",
                 "--json", str(out2))
    assert r1.returncode == 0 and r2.returncode == 0
    assert out1.read_bytes() == out2.read_bytes()
    assert json.loads(out1.read_text())["config"]["seed"] == 7


def test_seed_env_override(tmp_path):
    out = tmp_path / "r.json"
    r = run_cli("verify", "--suite", "random", "--seed", "7", "--count", "3",
                "--json", str(out), env={"OPSPLIT_SEED": "11"})
    assert r.returncode == 0
    assert json.loads(out.read_text())["config"]["seed"] == 11


def test_random_suite_without_a_seed_uses_the_default(tmp_path, monkeypatch, capsys):
    from opsplit.cli import main

    monkeypatch.delenv("OPSPLIT_SEED", raising=False)

    def report(argv):
        path = tmp_path / "random.json"
        assert main(["verify", "--suite", "random", "--count", "1", "--json", str(path),
                     *argv]) == 0
        return capsys.readouterr().out, path.read_bytes()

    default = report([])
    assert json.loads(default[1])["config"]["seed"] == 12648430
    assert report(["--seed", "12648430"]) == default


def test_non_integer_seed_env_is_usage(monkeypatch, capsys):
    from opsplit.cli import main

    monkeypatch.setenv("OPSPLIT_SEED", "abc")
    assert main(["verify", "--suite", "random", "--count", "1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: OPSPLIT_SEED must be an integer, got 'abc'\n"


@pytest.mark.parametrize("args,env,message", [
    (["--seed", "-1", "--count", "1"], {}, "error: --seed must be non-negative, got -1\n"),
    (["--count", "1"], {"OPSPLIT_SEED": "-3"},
     "error: OPSPLIT_SEED must be non-negative, got '-3'\n"),
])
def test_negative_seed_is_usage(args, env, message):
    r = run_cli("verify", "--suite", "random", *args, env=env)
    assert r.returncode == 1
    assert r.stdout == ""
    assert r.stderr == message


def test_figure_hash_stable(tmp_path):
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    r1 = run_cli("figure", "--preset", "averaged-averaged-0.5-0.5", "--out", str(a),
                 "--resolution", "128")
    r2 = run_cli("figure", "--preset", "averaged-averaged-0.5-0.5", "--out", str(b),
                 "--resolution", "128")
    assert r1.returncode == 0 and r2.returncode == 0
    assert a.read_bytes() == b.read_bytes()


def test_figure_unknown_preset_is_usage():
    r = run_cli("figure", "--preset", "nope", "--out", "x.svg")
    assert r.returncode == 1


def test_figure_resolution_out_of_memory_is_usage(monkeypatch, capsys, tmp_path):
    # numpy raises MemoryError when it cannot allocate a raster; the failed
    # allocation is simulated, so nothing large is allocated.
    from opsplit import cli, figures

    def out_of_memory(name, resolution):
        raise MemoryError(f"Unable to allocate a raster at resolution {resolution}")

    monkeypatch.setattr(figures, "preset_figure", out_of_memory)
    out = tmp_path / "x.svg"
    argv = ["figure", "--preset", "fb-relaxed", "--resolution", "3000000000", "--out", str(out)]
    assert cli.main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: --resolution 3000000000 needs more memory than is "
                            "available\n")
    assert not out.exists()


def test_figure_resolution_beyond_any_array_is_usage(capsys, tmp_path):
    # (resolution + 1)**2 samples exceed sys.maxsize, so no array could hold
    # the grid; the resolution is rejected before anything is allocated.
    from opsplit.cli import main
    from opsplit.figures import _MAX_RESOLUTION

    out = tmp_path / "x.svg"
    for resolution in (10**19, _MAX_RESOLUTION + 1):
        argv = ["figure", "--preset", "fb-relaxed", "--resolution", str(resolution),
                "--out", str(out)]
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (f"error: resolution must be <= {_MAX_RESOLUTION}, "
                                f"got {resolution}\n")
    assert not out.exists()


def test_affine_and_quadratic_instance_kinds(tmp_path):
    inst = tmp_path / "mixed.json"
    inst.write_text(
        json.dumps(
            {
                "A": {"kind": "affine", "matrix": [[2.0, 0.0], [0.0, 2.0]]},
                "B": {"kind": "quadratic", "matrix": [[-1.0, 0.0], [0.0, -1.0]]},
                "mu": 2.0,
                "omega": 1.0,
                "beta": 1.0,
                "case": "I",
            }
        )
    )
    r = run_cli("solve-fb", "--instance", str(inst), "--gamma", "0.2", "--x0", "1,0")
    assert r.returncode == 0
    out = json.loads(r.stdout)
    assert out["result"]["converged"]
    assert out["rate"]["empirical_rate"] == pytest.approx(0.75, abs=1e-12)


def test_unknown_instance_kind_is_usage(tmp_path):
    inst = tmp_path / "bad.json"
    inst.write_text(json.dumps({"A": {"kind": "mystery"}, "B": {}, "mu": 1.0}))
    r = run_cli("solve-fb", "--instance", str(inst), "--gamma", "0.1")
    assert r.returncode == 1


def test_replay_from_echoed_config(tmp_path, fb_instance):
    log1 = tmp_path / "a.csv"
    r = run_cli("solve-fb", "--instance", str(fb_instance), "--gamma", "0.2",
                "--x0", "1,0", "--log", str(log1))
    cfg = json.loads(r.stdout)["config"]
    log2 = tmp_path / "b.csv"
    r2 = run_cli(
        "solve-fb", "--instance", str(fb_instance),
        "--gamma", repr(cfg["gamma"]), "--x0", cfg["x0"],
        "--max-iter", str(cfg["max_iter"]), "--tol", repr(cfg["tol"]),
        "--log", str(log2),
    )
    assert json.loads(r2.stdout)["config"] == cfg
    assert log1.read_bytes() == log2.read_bytes()


_SI_A = {"kind": "scaled_identity", "c": 2.0}
_SI_B = {"kind": "scaled_identity", "c": -1.0}
_SN_A = {"kind": "subspace_normal", "basis": [[1.0, 0.0]], "mu": 2.0}
_NAN = float("nan")


# Non-finite or degenerate input is a usage error (exit 1), reported by the
# spec constructor or option parse it enters through, before any planning.
# ``inst`` overrides fields of the instance file.
_BAD_OFFSET = {"kind": "affine", "matrix": [[2.0, 0.0], [0.0, 2.0]], "offset": [1.0, 0.0, 0.0]}


@pytest.mark.parametrize("args,A,B,inst,message", [
    (["compose", "--class1", "cocoercive:0", "--class2", "averaged:0.5"],
     None, None, {}, "cocoercive diameter must be > 0"),
    (["compose", "--class1", "averaged:abc", "--class2", "averaged:0.5"],
     None, None, {}, "cannot parse class spec 'averaged:abc'"),
    (["compose"], None, None, {}, "compose needs --class1 and --class2 (or --chain)"),
    (["solve-fb", "--x0", "1e303,0"], _SI_A, _SI_B, {},
     "x0's norm 1e+303 is too large: the divergence cap 1e6*(1 + ||x0||) overflows"),
    (["solve-fb"], {"kind": "affine", "matrix": [[_NAN, 0.0], [0.0, 2.0]]}, _SI_B, {},
     "finite"),
    (["solve-dr"], {"kind": "affine", "matrix": [[_NAN, 0.0], [0.0, 2.0]]}, _SI_B, {},
     "finite"),
    (["solve-fb"], {"kind": "affine", "matrix": [[2.0, 0.0], [0.0, 2.0]],
                    "offset": [_NAN, 0.0]}, _SI_B, {}, "finite"),
    (["solve-fb"], _SI_A, {"kind": "quadratic", "matrix": [[_NAN, 0.0], [0.0, -1.0]]}, {},
     "finite"),
    (["solve-dr"], {"kind": "scaled_identity", "c": _NAN}, _SI_B, {}, "finite"),
    (["solve-dr"], {"kind": "subspace_normal", "basis": [[_NAN, 0.0]], "mu": 2.0}, _SI_B, {},
     "finite"),
    (["solve-dr"], {"kind": "subspace_normal", "basis": [[1.0, 0.0]], "mu": _NAN}, _SI_B, {},
     "finite"),
    (["solve-fb", "--x0", "nan,0"], _SI_A, _SI_B, {}, "--x0 must be finite"),
    (["solve-fb", "--x0", "1,abc"], _SI_A, _SI_B, {}, "--x0 must be comma-separated numbers"),
    (["solve-fb", "--tol", "nan"], _SI_A, _SI_B, {}, "--tol must be finite"),
    (["solve-dr", "--tol=-1"], _SI_A, _SI_B, {}, "--tol must be >= 0, got -1.0"),
    (["solve-fb", "--tol=-inf"], _SI_A, _SI_B, {}, "--tol must be finite, got -inf"),
    (["solve-fb"], _BAD_OFFSET, _SI_B, {}, "offset must have shape (2,)"),
    (["solve-dr"], _BAD_OFFSET, _SI_B, {}, "offset must have shape (2,)"),
    (["solve-fb"], _SI_A, dict(_BAD_OFFSET, kind="quadratic"), {},
     "offset must have shape (2,)"),
    (["solve-fb"], _SI_A, {"kind": "quadratic", "matrix": [[-1.0, 1.0], [0.0, -1.0]]}, {},
     "quadratic matrix must be symmetric"),
    (["solve-fb", "--gamma", "nan"], _SI_A, _SI_B, {}, "gamma must be finite"),
    (["solve-dr", "--gamma", "inf"], _SI_A, _SI_B, {}, "gamma must be finite"),
    (["solve-fb"], _SI_A, _SI_B, {"gamma": _NAN}, "gamma must be finite"),
    (["solve-dr"], _SI_A, _SI_B, {"gamma": float("inf")}, "gamma must be finite"),
    (["solve-dr", "--lambda", "nan"], _SI_A, _SI_B, {}, "lambda must be finite"),
    (["solve-fb"], _SI_A, _SI_B, {"gamma": "0.1"}, "gamma must be a real number"),
    (["solve-dr"], _SI_A, _SI_B, {"gamma": True}, "gamma must be a real number"),
    (["solve-dr"], _SI_A, _SI_B, {"gamma": [0.1]}, "gamma must be a real number"),
    (["solve-fb"], _SI_A, _SI_B, {"gamma": 10**400}, "gamma must be finite"),
    (["solve-dr"], _SI_A, _SI_B, {"lambda": "0.5"}, "lambda must be a real number"),
    (["solve-dr"], _SI_A, _SI_B, {"lambda": False}, "lambda must be a real number"),
    (["solve-dr"], _SI_A, _SI_B, {"lambda": [0.5]}, "lambda must be a real number"),
    (["solve-dr"], _SI_A, _SI_B, {"lambda": None}, "lambda must be a real number"),
    (["solve-dr"], {"kind": "scaled_identity", "c": "abc"}, _SI_B, {},
     "c must be a real number, got 'abc'"),
    (["solve-dr"], {"kind": "scaled_identity", "c": 2.0, "dim": "x"}, _SI_B, {},
     "dim must be a positive integer, got 'x'"),
    (["solve-fb"], {"kind": "affine", "matrix": [[2.0, "x"], [0.0, 2.0]]}, _SI_B, {},
     "matrix must be an array of real numbers"),
    (["solve-fb"], {"kind": "affine", "matrix": [[2.0, 0.0], [0.0, 2.0]], "offset": ["x", 0.0]},
     _SI_B, {}, "offset must be an array of real numbers"),
    (["solve-fb"], {"kind": "affine", "matrix": 2.0}, _SI_B, {}, "matrix must be square"),
    (["solve-dr"], ["x"], _SI_B, {}, "an operator spec must be a JSON object"),
    (["solve-dr"], _SI_A, _SI_B, {"mu": "2"}, "mu must be a real number, got '2'"),
    (["solve-fb"], _SI_A, _SI_B, {"beta": "1"}, "beta must be a real number, got '1'"),
    (["solve-dr"], _SI_A, _SI_B, {"omega": _NAN}, "omega must be finite"),
    (["solve-dr"], _SI_A, _SI_B, {"x_star": ["x", 0.0]},
     "x_star must be an array of real numbers"),
    (["solve-fb"], _SI_A, _SI_B, {"x_star": [1.0, 2.0, 3.0]}, "x_star must have shape (2,)"),
    # json.load reads NaN, so a cut-off run would log an all-nan err_norm column
    (["solve-dr", "--max-iter", "12"], _SI_A, _SI_B, {"x_star": [_NAN, 0.0]},
     "x_star must be finite"),
    (["solve-dr"], _SI_A, dict(_SI_B, dim=3), {}, "dimension mismatch: A has dim 2, B has dim 3"),
    (["solve-dr", "--force"], _SI_A, dict(_SI_B, dim=3), {}, "dimension mismatch"),
    (["solve-fb"], dict(_SI_A, dim=3), _SI_B, {}, "dimension mismatch: A has dim 3, B has dim 2"),
    (["solve-fb", "--force"], dict(_SI_A, dim=3), _SI_B, {}, "dimension mismatch"),
    (["solve-dr", "--max-iter", "-5"], _SI_A, _SI_B, {}, "--max-iter must be >= 0, got -5"),
    (["solve-fb", "--max-iter", "-1"], _SI_A, _SI_B, {}, "--max-iter must be >= 0, got -1"),
    (["solve-fb"], _SI_A, _SI_B, {"case": "V"}, "unknown forward-backward case 'V'"),
    (["solve-fb", "--force"], _SI_A, _SI_B, {"case": "V"}, "unknown forward-backward case 'V'"),
    (["solve-dr"], _SI_A, _SI_B, {"order": "sideways"}, "unknown order 'sideways'"),
    (["solve-dr", "--force"], _SI_A, _SI_B, {"order": "sideways"}, "unknown order 'sideways'"),
    # --force skips the plan, so each resolvent checks its own step size:
    # B has rho = -1 and A has rho = 2
    (["solve-dr", "--force", "--gamma", "1.0"], _SN_A, _SI_B, {}, "gamma*rho = -1.0 <= -1"),
    (["solve-dr", "--force", "--gamma", "-0.5"], _SN_A, _SI_B, {},
     "step size must be > 0, got -0.5"),
    (["solve-dr", "--force", "--gamma", "2.0"], _SN_A, _SI_B, {}, "gamma*rho = -2.0 <= -1"),
    # gamma = 0.6 lies outside the DR interval ]0, 0.25[, so these inputs
    # would reach a rejected plan if they were not checked first
    (["solve-dr", "--x0", "1,2,3"], _SI_A, _SI_B, {"gamma": 0.6},
     "--x0 must have 2 components, got 3"),
    (["solve-dr"], _SI_A, _SI_B, {"gamma": 0.6, "x_star": [0.0, 0.0, 0.0]},
     "x_star must have shape (2,)"),
    (["solve-fb"], _SI_A, _SI_B, {"gamma": 0.6, "x_star": [0.0, _NAN]},
     "x_star must be finite"),
    (["verify", "--suite", "random", "--count", "-3"], None, None, {},
     "--count must be at least 1"),
    (["verify", "--suite", "random", "--count", "0"], None, None, {},
     "--count must be at least 1"),
], ids=["cocoercive-0", "class-spec-junk", "compose-no-classes", "x0-norm-past-cap",
        "fb-affine-matrix", "dr-affine-matrix", "affine-offset",
        "quadratic-matrix", "scaled-identity-c", "subspace-basis", "subspace-mu", "x0", "x0-junk",
        "tol", "tol-negative", "tol-minus-inf", "fb-offset-shape", "dr-offset-shape", "quadratic-offset-shape",
        "quadratic-asymmetric", "gamma-flag-nan",
        "gamma-flag-inf", "gamma-file-nan", "gamma-file-inf", "lambda-nan", "gamma-file-str",
        "gamma-file-bool", "gamma-file-list", "gamma-file-huge-int", "lambda-file-str",
        "lambda-file-bool", "lambda-file-list", "lambda-file-null", "scaled-identity-c-str",
        "scaled-identity-dim-str", "affine-matrix-str", "affine-offset-str",
        "affine-matrix-scalar", "spec-list", "mu-file-str", "beta-file-str", "omega-file-nan",
        "x-star-str", "x-star-shape", "x-star-nan", "dr-dim-mismatch", "dr-dim-mismatch-force",
        "fb-dim-mismatch", "fb-dim-mismatch-force", "dr-max-iter-negative",
        "fb-max-iter-negative", "fb-case-unknown", "fb-case-unknown-force",
        "dr-order-unknown", "dr-order-unknown-force", "dr-force-gamma-rho-minus-one",
        "dr-force-gamma-negative", "dr-force-gamma-rho-below-minus-one", "x0-arity-before-plan",
        "x-star-shape-before-plan", "x-star-nan-before-plan", "count-negative", "count-zero"])
def test_non_finite_and_degenerate_input_is_usage(args, A, B, inst, message, tmp_path, capsys):
    from opsplit.cli import main

    if A is not None:
        path = tmp_path / "inst.json"
        fields = {"A": A, "B": B, "mu": 2.0, "omega": 1.0, "beta": 1.0, "case": "I",
                  "gamma": 0.2 if args[0] == "solve-fb" else 0.1}
        path.write_text(json.dumps({**fields, **inst}))
        args = args + ["--instance", str(path)]
    assert main(args) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err, captured.err


_DR_TEXT = json.dumps({"A": _SI_A, "B": _SI_B, "mu": 2.0, "omega": 1.0, "gamma": 0.1})


# A file given to --instance or --chain that is not the JSON the command
# needs is a usage error (exit 1), not a traceback.
@pytest.mark.parametrize("args,text,message", [
    (["solve-dr", "--instance"], '{"gamma": 0.1,', "Expecting"),
    pytest.param(["solve-dr", "--instance"], _DR_TEXT.replace("0.1", "1" * 5000),
                 "integer string", marks=pytest.mark.skipif(
                     not hasattr(sys, "get_int_max_str_digits"),
                     reason="no int/str conversion limit before Python 3.10.7")),
    (["solve-fb", "--instance"], b"\xff\xfe", "codec can't decode"),
    (["solve-dr", "--instance"], "[" + _DR_TEXT + "]", "--instance must hold a JSON object"),
    (["solve-dr", "--instance"], json.dumps({"A": _SI_A, "B": _SI_B, "mu": 2.0, "omega": 1.0}),
     "gamma required (flag or instance file)"),
    (["compose", "--chain"], "[{\"delta\": 1.0, \"alpha\": 0.5},", "Expecting"),
    (["compose", "--chain"], '{"a": 1}', "--chain must hold a JSON list"),
    (["compose", "--chain"], "[1.0, 0.5]", "--chain must hold a JSON list"),
    (["compose", "--chain"], '[{"delta": "x", "alpha": 0.5}, {"delta": 1.0, "alpha": 0.5}]',
     "chain[0].delta must be a real number"),
    (["compose", "--chain"], '[{"delta": 1.0, "alpha": 0.5}, {"delta": 1.0, "alpha": true}]',
     "chain[1].alpha must be a real number"),
    (["compose", "--chain"], '[{"delta": 1.0, "alpha": 0.5}, {"delta": 1e999, "alpha": 0.5}]',
     "chain[1].delta must be finite"),
], ids=["instance-truncated", "instance-huge-int", "instance-not-utf8", "instance-list",
        "instance-no-gamma",
        "chain-truncated",
        "chain-object", "chain-numbers", "chain-delta-str", "chain-alpha-bool",
        "chain-delta-inf"])
def test_bad_json_files_are_usage(args, text, message, tmp_path, capsys):
    from opsplit.cli import main

    path = tmp_path / "in.json"
    if isinstance(text, bytes):
        path.write_bytes(text)
    else:
        path.write_text(text)
    assert main(args + [str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and message in captured.err, captured.err


# --lambda belongs to solve-dr and --case to solve-fb; the other solver
# rejects the flag instead of ignoring it.
@pytest.mark.parametrize("args", [["solve-fb", "--lambda", "0.9"], ["solve-dr", "--case", "IIIb"]],
                         ids=["fb-lambda", "dr-case"])
def test_solve_rejects_the_other_solvers_flag(args, tmp_path, capsys):
    from opsplit.cli import main

    path = tmp_path / "inst.json"
    path.write_text(json.dumps({"A": _SI_A, "B": _SI_B, "mu": 2.0, "omega": 1.0, "beta": 1.0,
                                "case": "I", "gamma": 0.1}))
    with pytest.raises(SystemExit) as exc:
        main(args + ["--instance", str(path)])
    assert exc.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: " + " ".join(args[1:]) in captured.err, captured.err
