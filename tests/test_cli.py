"""Tests for the command-line interface."""

import json

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "qaoa"])
        assert args.workload == "qaoa"
        assert args.qubits == 8
        assert args.optimizer == "spsa"
        assert not args.compare

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "grover"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestParserValidation:
    """Bad values die at argparse with a message, not deep in the engine."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "qaoa", "--workers", "0"],
            ["run", "qaoa", "--workers", "-2"],
            ["run", "qaoa", "--workers", "two"],
            ["run", "qaoa", "--cache-size", "-1"],
            ["run", "qaoa", "--qubits", "0"],
            ["run", "qaoa", "--shots", "-1"],
            ["run", "qaoa", "--iterations", "-1"],
            ["submit", "qaoa", "--shots", "-1"],
            ["submit", "qaoa", "--qubits", "-4"],
            ["serve", "--jobs", "x.json", "--workers", "0"],
            ["serve", "--jobs", "x.json", "--cache-size", "-1"],
            ["serve", "--jobs", "x.json", "--quantum", "0"],
            ["serve", "--jobs", "x.json", "--queue-depth", "0"],
            ["serve", "--jobs", "x.json", "--tenant-quota", "0"],
            ["serve", "--jobs", "x.json", "--timeout", "-1"],
            ["serve", "--jobs", "x.json", "--max-attempts", "0"],
            ["serve", "--jobs", "x.json", "--backoff", "-0.1"],
        ],
    )
    def test_invalid_values_rejected(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "expected a" in capsys.readouterr().err

    def test_valid_boundaries_accepted(self):
        args = build_parser().parse_args(
            ["run", "qaoa", "--workers", "1", "--cache-size", "0"]
        )
        assert args.workers == 1 and args.cache_size == 0
        # shots=0 is the analytic-expectation path, valid since the
        # adjoint-gradient work.
        args = build_parser().parse_args(["run", "qaoa", "--shots", "0"])
        assert args.shots == 0 and args.gradient == "shift"
        args = build_parser().parse_args(["serve", "--jobs", "x.json"])
        assert args.workers == 2 and args.cache_size == 4096


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "5.66 MB" in out
        assert "20 / 40 ns" in out

    def test_run_single_platform(self, capsys):
        code = main([
            "run", "qaoa", "--qubits", "5", "--iterations", "1",
            "--shots", "50",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "qtenon-boom-large" in out
        assert "best cost" in out

    def test_run_compare(self, capsys):
        code = main([
            "run", "qnn", "--qubits", "5", "--iterations", "1",
            "--shots", "50", "--compare",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "end-to-end speedup" in out
        assert "decoupled" in out

    def test_run_baseline_platform(self, capsys):
        code = main([
            "run", "vqe", "--qubits", "4", "--iterations", "1",
            "--shots", "50", "--platform", "baseline",
        ])
        assert code == 0
        assert "decoupled" in capsys.readouterr().out

    def test_timing_only_wide(self, capsys):
        code = main([
            "run", "qaoa", "--qubits", "32", "--iterations", "1",
            "--shots", "100", "--timing-only",
        ])
        assert code == 0

    def test_rocket_core(self, capsys):
        code = main([
            "run", "qaoa", "--qubits", "5", "--iterations", "1",
            "--shots", "50", "--core", "rocket",
        ])
        assert code == 0
        assert "rocket" in capsys.readouterr().out

    @pytest.mark.parametrize(
        "argv",
        [
            ["run", "qaoa", "--qubits", "2"],
            ["run", "vqe", "--qubits", "1"],
            ["run", "ghz", "--qubits", "1"],
        ],
    )
    def test_unbuildable_workload_is_a_clean_error(self, argv, capsys):
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert "Traceback" not in err


class TestBackendSelection:
    def test_backend_defaults_to_auto(self):
        assert build_parser().parse_args(["run", "qaoa"]).backend == "auto"
        assert build_parser().parse_args(["submit", "qaoa"]).backend == "auto"

    @pytest.mark.parametrize("name", ["statevector", "stabilizer", "product"])
    def test_backend_choices_accepted(self, name):
        args = build_parser().parse_args(["run", "qaoa", "--backend", name])
        assert args.backend == name

    def test_unknown_backend_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "qaoa", "--backend", "tensor"])

    def test_run_ghz_wide_exact(self, capsys):
        # 24 qubits: far beyond the statevector limit, exact on the
        # stabilizer tableau via the planner — and quiet about it (no
        # wide-circuit approximation warning applies to Clifford jobs).
        code = main([
            "run", "ghz", "--qubits", "24", "--iterations", "1",
            "--shots", "100",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "best cost: +23.0000" in out

    def test_run_forced_stabilizer_skips_warning(self, capsys):
        code = main([
            "run", "ghz", "--qubits", "24", "--iterations", "1",
            "--shots", "50", "--backend", "stabilizer",
        ])
        assert code == 0
        captured = capsys.readouterr()
        assert "falls back to the product state" not in captured.err
        assert "best cost: +23.0000" in captured.out

    def test_submit_carries_backend_to_jobs_file(self, tmp_path):
        jobs_file = tmp_path / "jobs.json"
        code = main([
            "submit", "ghz", "--qubits", "8", "--shots", "40",
            "--iterations", "1", "--backend", "stabilizer",
            "--jobs-file", str(jobs_file),
        ])
        assert code == 0
        entries = json.loads(jobs_file.read_text())
        assert entries[0]["backend"] == "stabilizer"
        assert entries[0]["workload"] == "ghz"


class TestServiceCommands:
    def _submit(self, jobs_file, tenant, seed, workload="vqe"):
        return main([
            "submit", workload, "--qubits", "3", "--shots", "40",
            "--iterations", "1", "--seed", str(seed),
            "--tenant", tenant, "--jobs-file", str(jobs_file),
        ])

    def test_submit_appends_to_jobs_file(self, tmp_path, capsys):
        jobs_file = tmp_path / "jobs.json"
        assert self._submit(jobs_file, "alice", seed=1) == 0
        assert self._submit(jobs_file, "bob", seed=2) == 0
        out = capsys.readouterr().out
        assert "queued request 1" in out and "queued request 2" in out
        entries = json.loads(jobs_file.read_text())
        assert [entry["tenant"] for entry in entries] == ["alice", "bob"]
        assert entries[0]["workload"] == "vqe"
        assert entries[0]["qubits"] == 3

    def test_serve_runs_job_file(self, tmp_path, capsys):
        jobs_file = tmp_path / "jobs.json"
        self._submit(jobs_file, "alice", seed=1)
        self._submit(jobs_file, "bob", seed=2)
        self._submit(jobs_file, "bob", seed=2)  # duplicate: coalesces
        capsys.readouterr()
        metrics_path = tmp_path / "metrics.json"
        trace_path = tmp_path / "trace.json"
        code = main([
            "serve", "--jobs", str(jobs_file), "--workers", "1",
            "--metrics-out", str(metrics_path), "--trace-out", str(trace_path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "3 accepted / 0 rejected" in out
        assert "coalesced with" in out
        assert "fairness (Jain)" in out
        metrics = json.loads(metrics_path.read_text())
        assert metrics["jobs_by_state"] == {"done": 3}
        # --trace-out writes the merged trace: the service timeline as
        # pid 1 plus a sim-time process per executed job.
        spans = [
            e for e in json.loads(trace_path.read_text())["traceEvents"]
            if e["ph"] == "X"
        ]
        pids = {e["pid"] for e in spans}
        assert 1 in pids and len(pids) >= 2

    def test_serve_enforces_tenant_quota(self, tmp_path, capsys):
        jobs_file = tmp_path / "jobs.json"
        for seed in range(3):
            self._submit(jobs_file, "hog", seed=seed)
        capsys.readouterr()
        code = main([
            "serve", "--jobs", str(jobs_file), "--workers", "1",
            "--tenant-quota", "2",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "2 accepted / 1 rejected" in out
        assert "[tenant_quota]" in out

    def test_serve_missing_or_invalid_job_file(self, tmp_path, capsys):
        assert main(["serve", "--jobs", str(tmp_path / "nope.json")]) == 1
        assert "not found" in capsys.readouterr().err
        bad = tmp_path / "bad.json"
        bad.write_text('[{"workload": "grover"}]')
        assert main(["serve", "--jobs", str(bad)]) == 1
        assert "entry #0 is invalid" in capsys.readouterr().err

    def test_submit_inline_runs_job(self, capsys):
        code = main([
            "submit", "vqe", "--qubits", "3", "--shots", "40",
            "--iterations", "1", "--tenant", "alice",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "[done] tenant=alice" in out
        assert "best cost" in out


class TestChaosCommand:
    def test_chaos_parser_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.qubits == 4 and args.shots == 128
        assert args.loss is None and args.sections is None

    @pytest.mark.parametrize(
        "argv",
        [
            ["chaos", "--loss", "1.5"],
            ["chaos", "--crash-p", "-0.1"],
            ["chaos", "--qubits", "0"],
            ["run", "qaoa", "--readout-p01", "1.5"],
            ["run", "qaoa", "--readout-p10", "-0.1"],
            ["serve", "--jobs", "x.json", "--backoff-max", "-1"],
        ],
    )
    def test_chaos_and_readout_validation(self, argv, capsys):
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert "expected a" in capsys.readouterr().err

    def test_chaos_unknown_section_is_a_clean_error(self, capsys):
        assert main(["chaos", "--sections", "link,bogus"]) == 1
        assert "unknown campaign sections" in capsys.readouterr().err

    def test_chaos_single_section_runs_and_writes_json(self, tmp_path, capsys):
        out = tmp_path / "campaign.json"
        code = main([
            "chaos", "--qubits", "4", "--shots", "32", "--iterations", "1",
            "--sections", "breaker", "--out", str(out),
        ])
        assert code == 0
        printed = capsys.readouterr().out
        assert "campaign digest:" in printed
        assert "breaker: opens=1" in printed
        payload = json.loads(out.read_text())
        assert payload["breaker_recovery"]["final_state"] == "closed"
        assert payload["digest"]

    def test_run_with_readout_noise_changes_energy(self, capsys):
        base = [
            "run", "qaoa", "--platform", "qtenon", "--qubits", "4",
            "--shots", "64", "--iterations", "1",
        ]
        assert main(base) == 0
        clean = capsys.readouterr().out
        assert main(base + ["--readout-p01", "0.2", "--readout-p10", "0.3"]) == 0
        noisy = capsys.readouterr().out
        assert clean != noisy

    def test_run_answer_independent_of_workers_and_cache(self, capsys):
        base = [
            "run", "vqe", "--qubits", "4", "--iterations", "3",
            "--shots", "200",
        ]
        best = []
        for extra in (["--workers", "1"], ["--workers", "2"], ["--cache-size", "16"]):
            assert main(base + extra) == 0
            out = capsys.readouterr().out
            best.append([line for line in out.splitlines() if "best cost" in line])
        assert best[0] == best[1] == best[2] == ["  best cost: -2.6877"]
