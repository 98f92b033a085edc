"""CLI argument parsing and command dispatch."""

import pytest

from repro.experiments.cli import build_parser, main


class TestParser:
    def test_run_defaults(self):
        args = build_parser().parse_args(["run"])
        assert args.method == "dst_ee"
        assert args.dataset == "cifar10"
        assert args.sparsity == pytest.approx(0.9)

    def test_run_custom(self):
        args = build_parser().parse_args([
            "run", "--method", "rigl", "--dataset", "cifar100",
            "--model", "resnet50_mini", "--sparsity", "0.98", "--c", "0.01",
        ])
        assert args.method == "rigl"
        assert args.dataset == "cifar100"
        assert args.model == "resnet50_mini"
        assert args.sparsity == pytest.approx(0.98)
        assert args.c == pytest.approx(0.01)

    def test_unknown_method_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--method", "lottery"])

    def test_gnn_defaults(self):
        args = build_parser().parse_args(["gnn"])
        assert args.dataset == "wiki_talk"
        assert args.method == "dst_ee"

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])


class TestRunLmSparseBackend:
    def test_bsr_with_a_block_size_parses_and_trains(self, capsys):
        args = build_parser().parse_args(["run-lm", "--sparse-backend", "bsr", "--block-size", "4"])
        assert (args.sparse_backend, args.block_size) == ("bsr", 4)
        exit_code = main([
            "run-lm", "--sparse-backend", "bsr", "--block-size", "4",
            "--n-chars", "2048", "--epochs", "1", "--batch-size", "16",
            "--n-embd", "32", "--delta-t", "8",
        ])
        assert exit_code == 0
        assert "val perplexity" in capsys.readouterr().out

    def test_unknown_backend_exits_at_parse_time(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run-lm", "--sparse-backend", "blocked"])


class TestCommands:
    def test_methods_lists_all(self, capsys):
        assert main(["methods"]) == 0
        out = capsys.readouterr().out
        assert "dst_ee" in out
        assert "dynamic" in out
        assert "rigl" in out

    def test_run_tiny_end_to_end(self, capsys):
        exit_code = main([
            "run", "--method", "dst_ee", "--model", "mlp",
            "--n-train", "96", "--n-test", "48", "--image-size", "8",
            "--epochs", "1", "--delta-t", "2",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "final accuracy" in out
        assert "exploration rate" in out

    def test_gnn_tiny_end_to_end(self, capsys):
        exit_code = main([
            "gnn", "--dataset", "ia_email", "--method", "dense",
            "--nodes", "80", "--epochs", "2",
        ])
        assert exit_code == 0
        out = capsys.readouterr().out
        assert "best accuracy" in out


class TestCheckpointFlags:
    TINY = [
        "--n-train", "96", "--n-test", "48", "--image-size", "8",
        "--delta-t", "2",
    ]

    def test_parser_accepts_checkpoint_flags(self):
        args = build_parser().parse_args([
            "run", "--checkpoint-dir", "ckpts", "--checkpoint-every-steps",
            "5", "--keep-last", "2", "--resume",
        ])
        assert args.checkpoint_dir == "ckpts"
        assert args.checkpoint_every_steps == 5
        assert args.keep_last == 2
        assert args.resume is True

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(SystemExit, match="checkpoint-dir"):
            main(["run", "--model", "mlp", "--resume", *self.TINY])
        with pytest.raises(SystemExit, match="checkpoint-dir"):
            main(["sweep", "--models", "mlp", "--resume", *self.TINY])

    def test_checkpoint_dir_with_seeds_rejected(self):
        with pytest.raises(SystemExit, match="sweep"):
            main([
                "run", "--model", "mlp", "--seeds", "0", "1",
                "--checkpoint-dir", "ckpts", *self.TINY,
            ])

    def test_run_checkpoint_and_resume_end_to_end(self, capsys, tmp_path):
        common = [
            "run", "--method", "dst_ee", "--model", "mlp", "--epochs", "2",
            "--checkpoint-dir", str(tmp_path), *self.TINY,
        ]
        assert main(common) == 0
        first = capsys.readouterr().out
        assert list(tmp_path.glob("ckpt-*.npz"))
        # Resume from the finished run: restores, trains nothing more,
        # reports the same accuracy.
        assert main([*common, "--resume"]) == 0
        second = capsys.readouterr().out

        def grab(out, label):
            return [line for line in out.splitlines() if label in line]

        assert grab(second, "final accuracy") == grab(first, "final accuracy")
        assert grab(second, "exploration rate") == grab(first, "exploration rate")

    def test_sweep_checkpoint_and_resume_end_to_end(self, capsys, tmp_path):
        common = [
            "sweep", "--methods", "set", "--models", "mlp",
            "--sparsities", "0.8", "--seeds", "0", "--epochs", "1",
            "--checkpoint-dir", str(tmp_path), *self.TINY,
        ]
        assert main(common) == 0
        first = capsys.readouterr().out
        assert (tmp_path / "manifest.json").exists()
        assert main([*common, "--resume"]) == 0
        second = capsys.readouterr().out
        assert [l for l in second.splitlines() if "set" in l] == (
            [l for l in first.splitlines() if "set" in l]
        )
