"""Tests of the benchmark's own outcome classification, output checks and
span accounting.  Run with `python -m pytest perfbench` from the
repository root."""

import os
import sys
from fractions import Fraction

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import ladder  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


@pytest.fixture
def runner(tmp_path):
    return run.Runner(ROOT, str(tmp_path))


def op_named(ops, name):
    return next(op for op in ops if op.name == name)


def test_op_killed_by_its_budget_counts_failed():
    rc, cpu, _, _ = run.spawn([sys.executable, "-c", "while True: pass"],
                              dict(os.environ), cpu_limit=1)
    assert rc < 0 and cpu >= 0.9
    probe = op_named(ladder.psi_ladder(0), "cosmo-psi star6")
    failure, wrong = run.classify(probe, rc, "")
    assert failure.startswith("killed by signal") and not wrong


def test_big_tree_exit_3_counts_ok(runner):
    op = op_named(ladder.psi_ladder(0), "cosmo-psi big_tree")
    outcome, _ = runner.run(op)
    assert outcome.returncode == 3 and outcome.ok
    # a probe that refuses with exit 3 is ok too; any other exit is not
    probe = op_named(ladder.psi_ladder(0), "cosmo-psi star6")
    assert run.classify(probe, 3, "") == (None, False)
    assert run.classify(probe, 1, "")[0] == "exit 1, expected 0"


def test_corrupted_report_counts_failed(runner, tmp_path):
    op = op_named(ladder.psi_ladder(3), "cosmo-psi path5")
    outcome, _ = runner.run(op)  # also writes the op's input into tmp_path
    assert outcome.ok
    out = tmp_path / "out.txt"
    rc, *_ = run.spawn(runner.cli() + [op.args[0], str(tmp_path / op.args[1]), "-o", str(out)],
                       runner.env)
    assert rc == 0
    good = out.read_text()
    assert run.classify(op, 0, good) == (None, False)
    # flip one coefficient sign in the numerator
    bad = good.replace('"numerator": "', '"numerator": "-', 1)
    failure, wrong = run.classify(op, 0, bad)
    assert failure and wrong
    failure, wrong = run.classify(op, 0, good[: len(good) // 2])
    assert failure.startswith("unreadable report") and wrong


def test_ok_frac_counts_timed_ops_and_probes():
    ops = ladder.pad_ladder(0)
    outcomes = [run.Outcome(op, 0, 1.0, 1.0, 30.0, "killed by signal 9" if op.probe else None)
                for op in ops]
    timed = [o for o in outcomes if not o.op.probe]
    probes = [o for o in outcomes if o.op.probe]
    assert len(probes) == 1
    assert run.ok_frac([timed], probes) == pytest.approx(1 - 1 / len(ops))
    # the probes run once per run, so extra passes do not dilute them
    assert run.ok_frac([timed, timed], probes) == run.ok_frac([timed], probes)
    assert sum(op.probe for op in ladder.psi_ladder(0)) == 2
    assert not any(op.probe for op in ladder.disc_ladder(0))


def test_inputs_follow_the_seed():
    def inputs(ops):
        return [(op.name, op.inputs) for op in ops]

    assert inputs(ladder.pad_ladder(5)) == inputs(ladder.pad_ladder(5))
    assert inputs(ladder.pad_ladder(5)) != inputs(ladder.pad_ladder(6))
    assert inputs(ladder.psi_ladder(5)) != inputs(ladder.psi_ladder(6))


def test_psi_oracle_on_the_two_site_chain():
    x, y = {1: 2, 2: 3}, {"12": 5}
    want = Fraction(1, (2 + 3) * (2 + 5) * (3 + 5))
    assert ladder.psi_value(2, [(1, 2, "12")], x, y) == want
    point = {"X1": 2, "X2": 3, "Y12": 5}
    assert ladder.eval_poly("X1^2 - 3*X1*Y12 + 7", point) == 4 - 30 + 7
    with pytest.raises(ValueError):
        ladder.eval_poly("X1 + Z9", point)


def test_span_self_times_cover_the_root(tmp_path):
    rec = tracer.Recorder()
    inner = rec.wrap(lambda: sum(range(20000)), "inner", None)
    outer = rec.wrap(lambda: [inner() for _ in range(3)], "outer", None)
    root = rec.open(0)
    outer()
    rec.close(root)
    base = str(tmp_path / "t")
    rec.dump(base, {"beta_memo": {"hits": 0, "misses": 0, "size": 0}})
    total = rec.ends[0] - rec.starts[0]
    self_s, calls, _, _, residue = tracer.summarize(base, total + 0.5)
    assert calls == {"cli": 1, "inner": 3, "outer": 1}
    assert sum(self_s.values()) == pytest.approx(total)
    assert residue == pytest.approx(0.5)
    with pytest.raises(ValueError):
        tracer.summarize(base, total - 0.5)
