"""End-to-end tests of the one-pass mining fold.

``mine_models`` folds the training log through ``StreamSessionizer``
and the incremental miners whether the records are an in-memory list or
a lazy ``CLFSource``.  The committed report oracle pins what the fold
mines; these tests check that every entry point (``mine_models`` on a
list or a ``CLFSource``, ``run_policy`` over ``load_workload(...,
stream=True)``, and the CLI) mines the same models, and that record
order is handled: an in-memory list is sorted, a stream must be in time
order.
"""

import dataclasses
import random

import pytest

from repro.cli import main as cli_main
from repro.core.system import mine_models, run_policy
from repro.logs import CLFSource, make_workload
from repro.logs.clf import write_log
from repro.logs.store import load_workload, save_workload
from repro.logs.workloads import Workload
from repro.mining.fold import (
    StreamingModelFold,
    models_equal,
    models_fingerprint,
)

PRESET_SCALES = {
    "synthetic": 0.02,
    "cs-department": 0.05,
    "worldcup": 0.01,
}


@pytest.fixture(scope="module", params=sorted(PRESET_SCALES))
def workload(request):
    return make_workload(request.param, scale=PRESET_SCALES[request.param])


def _with_training(workload, records) -> Workload:
    return Workload(name=workload.name, site=workload.site,
                    training_records=records, trace=workload.trace)


def _write_reversed(records, path):
    with path.open("w") as fp:
        write_log(fp, reversed(records))
    return path


class TestFoldEquivalence:
    def test_ppm_kind(self, workload):
        ppm = mine_models(workload, predictor_kind="ppm")
        assert not models_equal(ppm, mine_models(workload))

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="predictor_kind"):
            StreamingModelFold(predictor_kind="nope")

    def test_fold_single_use(self, workload):
        fold = StreamingModelFold()
        fold.add_records(iter(workload.training_records))
        fold.finish()
        with pytest.raises(RuntimeError, match="finished"):
            fold.finish()
        with pytest.raises(RuntimeError, match="finished"):
            fold.add_record(workload.training_records[0])

    def test_unsorted_list_mines_like_sorted(self, workload):
        shuffled = list(workload.training_records)
        random.Random(7).shuffle(shuffled)
        assert models_fingerprint(
            mine_models(_with_training(workload, shuffled))
        ) == models_fingerprint(mine_models(workload))

    def test_out_of_order_stream_rejected(self, workload, tmp_path):
        log = _write_reversed(workload.training_records,
                              tmp_path / "training.log")
        with pytest.raises(ValueError, match="time order"):
            mine_models(_with_training(workload, CLFSource(log)))

    def test_fingerprint_sensitivity(self, workload):
        models = mine_models(workload)
        fp = models_fingerprint(models)
        assert fp == models_fingerprint(models)  # deterministic
        bumped = dataclasses.replace(models,
                                     num_sessions=models.num_sessions + 1)
        assert models_fingerprint(bumped) != fp


class TestRuntimeCopy:
    """``MinedModels.runtime`` gives each run its own navigation model."""

    @pytest.mark.parametrize("kind", ["depgraph", "ppm"])
    def test_online_updates_leave_template_unchanged(self, workload, kind):
        models = mine_models(workload, predictor_kind=kind)
        fp = models_fingerprint(models)
        run = models.runtime()
        model = run.components.predictor.graph
        assert model is not models.model
        as_run = dataclasses.replace(models, graph=run.graph, model=model)
        assert models_fingerprint(as_run) == fp  # an exact copy
        page = next(iter(models.graph._links))
        model.record_transition(page, "/never-seen.html")
        model.record_transition("/never-seen.html", page)
        assert models_fingerprint(as_run) != fp
        assert models_fingerprint(models) == fp


class TestStreamedWorkloads:
    def test_mine_models_dispatches_on_record_stream(self, workload,
                                                     tmp_path):
        out = save_workload(workload, tmp_path / "wl")
        streamed = load_workload(out, stream=True)
        assert isinstance(streamed.training_records, CLFSource)
        # Batch-load the same directory so both sides see the CLF
        # whole-second timestamps.
        batch = mine_models(load_workload(out))
        via_dispatch = mine_models(streamed)
        assert models_equal(batch, via_dispatch)

    def test_run_policy_bit_identical(self, workload, tmp_path):
        out = save_workload(workload, tmp_path / "wl")
        a = run_policy(load_workload(out), "prord", cache_fraction=0.3)
        b = run_policy(load_workload(out, stream=True), "prord",
                       cache_fraction=0.3)
        assert dataclasses.asdict(a.report) == dataclasses.asdict(b.report)

    def test_model_cache_round_trip_streamed(self, workload, tmp_path):
        from repro.mining.modelcache import cached_mine_models
        out = save_workload(workload, tmp_path / "wl")
        cache = tmp_path / "cache"
        cold = cached_mine_models(load_workload(out, stream=True),
                                  cache=cache)
        warm = cached_mine_models(load_workload(out, stream=True),
                                  cache=cache)
        assert models_equal(cold, warm)


class TestCLIStreaming:
    @pytest.fixture()
    def workload_dir(self, tmp_path):
        wl = make_workload("synthetic", scale=0.02)
        return str(save_workload(wl, tmp_path / "wl"))

    def test_mine_stream_matches_batch_output(self, workload_dir, capsys):
        log = workload_dir + "/training.log"
        assert cli_main(["mine", log]) == 0
        batch_out = capsys.readouterr().out
        assert cli_main(["mine", log, "--stream"]) == 0
        stream_out = capsys.readouterr().out
        # Identical mined numbers: same top-files table, same graph line.
        assert batch_out.split("top files by hits:")[1] == \
            stream_out.split("top files by hits:")[1]
        graph_line = next(l for l in batch_out.splitlines()
                          if l.startswith("dependency graph"))
        assert graph_line in stream_out

    def test_mine_notes_dropped_lines(self, workload_dir, capsys):
        log = workload_dir + "/training.log"
        with open(log, "a") as fp:
            fp.write("this is not clf\n")
        for extra in ([], ["--stream"]):
            assert cli_main(["mine", log, *extra]) == 0
            out = capsys.readouterr().out
            assert "malformed line(s) dropped" in out
            assert "this is not clf" in out

    def test_mine_out_of_order_log(self, tmp_path, capsys):
        records = make_workload("synthetic", scale=0.02).training_records
        log = _write_reversed(records, tmp_path / "reversed.log")
        assert cli_main(["mine", str(log)]) == 0
        assert "dependency graph" in capsys.readouterr().out
        with pytest.raises(SystemExit, match="sort it or drop --stream"):
            cli_main(["mine", str(log), "--stream"])

    def test_replay_stream_and_batch_agree(self, workload_dir, capsys):
        assert cli_main(["replay", workload_dir, "--policy", "lard"]) == 0
        batch_out = capsys.readouterr().out
        assert cli_main(["replay", workload_dir, "--policy", "lard",
                         "--stream"]) == 0
        stream_out = capsys.readouterr().out
        assert batch_out == stream_out
        assert "thr=" in batch_out

    def test_workload_dir_is_replayable(self, tmp_path, capsys):
        out_dir = str(tmp_path / "gen")
        assert cli_main(["workload", "synthetic", "--scale", "0.02",
                         "--out-dir", out_dir]) == 0
        capsys.readouterr()
        assert cli_main(["replay", out_dir, "--policy", "wrr"]) == 0
        assert "wrr" in capsys.readouterr().out
