"""Tests of the end-to-end self-test harness and the extra CLI verbs."""

import pytest

from repro.analysis.selftest import run_self_test
from repro.cli.main import main
from repro.errors import ReproError

PAPER_SOURCE = """
for (i = 2; i <= 40; i++) {
    A[i+1]; A[i]; A[i+2]; A[i-1]; A[i+1]; A[i]; A[i-2];
}
"""


class TestRunSelfTest:
    def test_passes_and_reports(self):
        report = run_self_test(n_instances=30, seed=11)
        assert report.n_instances == 30
        assert report.n_accesses_verified > 0
        assert report.n_zero_cost_allocations + \
            report.n_constrained_allocations == 30
        assert "self-test passed" in report.summary()

    def test_deterministic(self):
        first = run_self_test(n_instances=15, seed=3)
        second = run_self_test(n_instances=15, seed=3)
        assert first.n_accesses_verified == second.n_accesses_verified
        assert first.n_unit_cost_instructions == \
            second.n_unit_cost_instructions

    @pytest.mark.parametrize("count", [0, -1])
    def test_fewer_than_one_instance_rejected(self, count):
        with pytest.raises(ReproError, match=f"must be >= 1, got {count}"):
            run_self_test(n_instances=count)


class TestCliVerbs:
    @pytest.fixture
    def kernel_file(self, tmp_path):
        path = tmp_path / "k.c"
        path.write_text(PAPER_SOURCE)
        return str(path)

    def test_verify(self, kernel_file, capsys):
        assert main(["verify", kernel_file, "-k", "2"]) == 0
        out = capsys.readouterr().out
        assert "ok:" in out and "model agrees" in out

    def test_sweep(self, kernel_file, capsys):
        assert main(["sweep", kernel_file, "--max-registers", "4"]) == 0
        out = capsys.readouterr().out
        assert "register-pressure sweep" in out
        # K=4..1 rows present.
        assert out.count("\n") >= 7

    def test_selftest(self, capsys):
        assert main(["selftest", "--instances", "10"]) == 0
        assert "self-test passed" in capsys.readouterr().out
