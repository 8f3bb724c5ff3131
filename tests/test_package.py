"""Package-level tests: public API surface, errors, CLI."""

from __future__ import annotations

import os
import subprocess
import sys

import pytest

import repro
from repro.errors import (
    ConfigurationError,
    InvariantViolation,
    LockUsageError,
    ProtocolError,
    ReproError,
    SimulationError,
)


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "1.0.0"

    def test_all_names_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None, name

    def test_subpackage_alls_resolve(self):
        import repro.core
        import repro.experiments
        import repro.faults
        import repro.metrics
        import repro.naimi
        import repro.obs
        import repro.runtime
        import repro.services
        import repro.sim
        import repro.verification
        import repro.workload

        for module in (
            repro.core, repro.experiments, repro.faults, repro.metrics,
            repro.naimi, repro.obs, repro.runtime, repro.services, repro.sim,
            repro.verification, repro.workload,
        ):
            for name in module.__all__:
                assert getattr(module, name, None) is not None, (
                    f"{module.__name__}.{name}"
                )

    def test_importing_the_core_starts_no_http_stack(self):
        # A fresh interpreter: this one has imported everything already.
        probe = (
            "import sys, repro.core; print(sorted(m for m in ("
            "'http.server', 'repro.obs.monitor', 'repro.faults.chaos'"
            ") if m in sys.modules))"
        )
        src = os.path.dirname(repro.__path__[0])
        result = subprocess.run(
            [sys.executable, "-c", probe],
            capture_output=True, text=True, check=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert result.stdout.strip() == "[]"


class TestErrorHierarchy:
    @pytest.mark.parametrize(
        "error_cls",
        [
            ProtocolError,
            LockUsageError,
            InvariantViolation,
            SimulationError,
            ConfigurationError,
        ],
    )
    def test_all_errors_derive_from_repro_error(self, error_cls):
        assert issubclass(error_cls, ReproError)
        with pytest.raises(ReproError):
            raise error_cls("x")


class TestCli:
    def test_tables_command(self, capsys):
        from repro.__main__ import main

        assert main(["tables"]) == 0
        out = capsys.readouterr().out
        assert "Table 1(a)" in out
        assert out.count("[PASS]") >= 4

    def test_fig5_with_explicit_nodes(self, capsys):
        from repro.__main__ import main

        assert main(["fig5", "--nodes", "4", "--ops", "8"]) == 0
        out = capsys.readouterr().out
        assert "Figure 5" in out

    def test_headline_quick(self, capsys):
        from repro.__main__ import main

        assert main(["headline", "--nodes", "6", "--ops", "8"]) == 0
        assert "paper" in capsys.readouterr().out

    def test_unknown_experiment_rejected(self):
        from repro.__main__ import main

        with pytest.raises(SystemExit):
            main(["nonsense"])
