"""Runs one benchmark workload in this process and prints its result as JSON.

Started by run.py, which pins BLAS to one thread and puts the checkout's
src/ first on PYTHONPATH.  The program is driven from outside only:
through attnpool.cli.main for the CLI workloads, and through the public
functions of attnpool.synth and attnpool.train for paper_step.  Program
functions are looked up on their modules at call time, so the tracer's
wrappers take effect.  Modules are fetched with importlib.import_module,
because `import attnpool.train` binds the function `train` that the
package re-exports under the submodule's name.

A run makes `setup_reps` set-ups, then whole rounds of the workload's
operations until the next round would overrun --seconds.  With --trace 1
the last set-up is traced and rounds alternate untraced and traced; the
per-layer figures are one traced set-up plus the median traced round,
and the overhead compares traced with untraced rounds.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
import time
from collections import defaultdict

import numpy as np

import checks
from tracer import PHASES, Tracer

GRID = 7                     # n1 = n2 = 7 at both sizes, as in the paper's 7x7 maps
DESK_CLASSES = 8             # the default task's K

# Quality margins on desk_cli val accuracy at 10 epochs.  Over seeds
# 0-29 rank-1 attention scored >= 0.224 and per_class >= 0.344, avg_pool
# <= 0.230 (chance 1/K = 0.125); rank_p and pose_reg scored >= 0.37 on
# seeds 1-6.  Rank-1 attention came within 0.014 of avg_pool (seed 11),
# so avg_pool is compared with the family mean.
FAMILY = ("attention", "rank_p", "per_class", "pose_reg")
MARGIN_OVER_CHANCE = 0.05
MARGIN_OVER_AVG = 0.10
# paper_step fit accuracy after 4 epochs on 64 examples was >= 0.984 on
# seeds 21-26 (chance 1/393)
PAPER_MIN_FIT_ACCURACY = 0.5
CBP_CHECK_EXAMPLES = 4

SIZES = {
    "full": {
        "setup_reps": 5, "heatmap_count": 8, "sketch_dim": 64,
        "desk": {"train_samples": 2000, "val_samples": 500, "epochs": 10},
        "paper": {"f": 2048, "classes": 393, "train_samples": 64, "val_samples": 32,
                  "epochs": 4, "batch_size": 32, "check_examples": 3},
    },
    # smoke test of the harness: every metric and check path, in seconds
    "tiny": {
        "setup_reps": 2, "heatmap_count": 2, "sketch_dim": 16,
        "desk": {"train_samples": 48, "val_samples": 16, "epochs": 1},
        "paper": {"f": 64, "classes": 24, "train_samples": 8, "val_samples": 4,
                  "epochs": 1, "batch_size": 4, "check_examples": 2},
    },
}


class Recorder:
    """Durations of operations that succeeded, keyed by (step, head)."""

    def __init__(self):
        self.samples = defaultdict(list)      # untraced rounds and set-ups only
        self.traced = False
        self.attempted = 0
        self.failed = 0
        self.stdout = ""

    def op(self, key, fn):
        """Time fn(); an exception or a False result counts as a failed operation."""
        self.attempted += 1
        out = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(out):
                result = fn()
        except Exception as exc:  # any program error: counted and reported, the run goes on
            print(f"operation {key} raised {type(exc).__name__}: {exc}", file=sys.stderr)
            result = False
        dt = time.perf_counter() - t0
        self.stdout = out.getvalue()
        if result is False:
            self.failed += 1
            return None
        if not self.traced:
            self.samples[key].append(dt)
        return result

    def cli(self, key, argv):
        return self.op(key, lambda: importlib.import_module("attnpool.cli").main(argv) == 0)


class Workload:
    """Set-up, one round of operations, rates, quality figures and output checks."""

    def __init__(self, seed, size, workdir, rec):
        self.seed, self.size, self.workdir, self.rec = seed, size, workdir, rec
        self.examples = {}        # (step, head) -> examples one operation handles
        self.problems = []

    def path(self, *parts):
        return os.path.join(self.workdir, *parts)

    def setup_s(self):
        return statistics.median(self.rec.samples[("setup", None)])

    def rates(self):
        """Per step: examples over the sum, across heads, of each head's median time."""
        steps = defaultdict(lambda: [0, 0.0])
        for key, count in self.examples.items():
            times = self.rec.samples[key]
            if times:
                steps[key[0]][0] += count
                steps[key[0]][1] += statistics.median(times)
        return {step: count / secs for step, (count, secs) in steps.items()}


class DeskCli(Workload):
    """gen, then train / eval / heatmap for each tape head, all through the CLI."""

    # slowest eval first: a head is evaluated after its own train and after
    # every later one, so pose_reg gets 5 evals a round and avg_pool 1
    heads = {"pose_reg": [], "rank_p": ["train.rank=5"], "per_class": [],
             "attention": [], "avg_pool": []}
    task_extra = ["task.pose=true"]
    eval_passes = 1

    def __init__(self, *args):
        super().__init__(*args)
        d = self.size["desk"]
        count = min(self.size["heatmap_count"], d["val_samples"])
        for head in self.heads:
            self.examples[("train", head)] = d["train_samples"] * d["epochs"]
            self.examples[("eval", head)] = d["val_samples"]
            self.examples[("heatmap", head)] = count
        self.eval_out = {}
        self.first_reports = None

    def setup(self, i):
        d = self.size["desk"]
        argv = ["gen", "--out", self.path(f"data{i}")]
        for item in [f"task.seed={self.seed}", f"task.train_samples={d['train_samples']}",
                     f"task.val_samples={d['val_samples']}", *self.task_extra]:
            argv += ["--set", item]
        self.rec.cli(("setup", None), argv)
        if i > 0:
            shutil.rmtree(self.path(f"data{i}"), ignore_errors=True)

    def run_round(self, tracer):
        """Train each head; after each, eval (and heatmap) every head trained so far.

        Spreading the short eval and heatmap commands over the round, rather
        than repeating them back to back, averages them over the machine's
        slow and fast spells as the long train commands are.  Every round
        runs the same commands.
        """
        reports = {}
        for head, extra in self.heads.items():
            if tracer is not None:
                tracer.head = head
            run = self.path("runs", head)
            argv = ["train", "--data", self.path("data0"), "--out", run]
            for item in [f"train.head={head}", f"train.epochs={self.size['desk']['epochs']}",
                         f"train.seed={self.seed}", f"train.sketch_dim={self.size['sketch_dim']}",
                         *extra]:
                argv += ["--set", item]
            self.rec.cli(("train", head), argv)
            with open(os.path.join(run, "report.tsv")) as fh:
                reports[head] = fh.read()
            for _ in range(self.eval_passes):
                for done in reports:
                    self.eval_and_heatmap(done)
        if tracer is not None:
            tracer.head = None
        # training is bit-reproducible, so every round must write the same reports
        if self.first_reports is None:
            self.first_reports = reports
        elif reports != self.first_reports:
            self.problems.append("report.tsv differs between rounds of the same seed")

    def eval_and_heatmap(self, head):
        run = self.path("runs", head)
        self.rec.cli(("eval", head), ["eval", "--checkpoint", os.path.join(run, "checkpoint"),
                                      "--data", self.path("data0", "val")])
        self.eval_out[head] = self.rec.stdout
        if ("heatmap", head) in self.examples:
            shutil.rmtree(os.path.join(run, "maps"), ignore_errors=True)
            self.rec.cli(("heatmap", head), [
                "heatmap", "--checkpoint", os.path.join(run, "checkpoint"),
                "--data", self.path("data0", "val"), "--out", os.path.join(run, "maps"),
                "--count", str(self.size["heatmap_count"])])

    def printed_accuracy(self, head):
        for line in self.eval_out[head].splitlines():
            if line.startswith("accuracy="):
                return float(line.split("=", 1)[1])
        raise ValueError(f"{head}: eval printed no accuracy")

    def quality(self):
        """(mean final train loss, mean eval accuracy) over heads."""
        losses = [checks.last_report_row(self.path("runs", h, "report.tsv"))[0]
                  for h in self.heads]
        return float(np.mean(losses)), float(np.mean([self.printed_accuracy(h)
                                                      for h in self.heads]))

    def scores(self, head, params, X):
        return checks.head_scores(head, params, X)

    def check(self, tiny):
        X = checks.read_atnp(self.path("data0", "val", "features.atnp"))
        labels = checks.read_labels(self.path("data0", "val", "labels.tsv"))
        acc = {}
        for head in self.heads:
            run = self.path("runs", head)
            params, _ = checks.read_checkpoint(os.path.join(run, "checkpoint"))
            acc[head] = self.printed_accuracy(head)
            self.problems += checks.accuracy_problems(
                head, acc[head], self.scores(head, params, X), labels)
            _, val_metric = checks.last_report_row(os.path.join(run, "report.tsv"))
            if abs(val_metric - acc[head]) > 5e-7:
                self.problems.append(f"{head}: eval accuracy {acc[head]} but report.tsv "
                                     f"ends at {val_metric}")
            if ("heatmap", head) in self.examples:
                self.problems += checks.pgm_problems(
                    os.path.join(run, "maps"), self.examples[("heatmap", head)], GRID, GRID)
        if tiny or "avg_pool" not in acc:
            return
        chance = 1.0 / DESK_CLASSES
        for head in FAMILY:
            if acc[head] < chance + MARGIN_OVER_CHANCE:
                self.problems.append(f"{head}: val accuracy {acc[head]} is within "
                                     f"{MARGIN_OVER_CHANCE} of chance {chance}")
        family = float(np.mean([acc[h] for h in FAMILY]))
        if family < acc["avg_pool"] + MARGIN_OVER_AVG:
            self.problems.append(f"attention-family mean val accuracy {family} does not "
                                 f"beat avg_pool {acc['avg_pool']} by {MARGIN_OVER_AVG}")


class DeskCbp(DeskCli):
    """gen, then train and eval of the cbp head (TensorSketch features) through the CLI.

    No heatmap: cbp has no spatial maps, and `attnpool heatmap` rejects it
    by design (exit 3).
    """

    heads = {"cbp": []}
    task_extra = []
    eval_passes = 2

    def __init__(self, *args):
        super().__init__(*args)
        del self.examples[("heatmap", "cbp")]

    def tables(self, f):
        train_mod = importlib.import_module("attnpool.train")
        config = train_mod.TrainConfig(head="cbp", seed=self.seed,
                                       sketch_dim=self.size["sketch_dim"])
        return train_mod.sketch_for(config, f)

    def scores(self, head, params, X):
        feats = checks.sketch_features(X, self.tables(X.shape[2]))
        return (feats / X.shape[1]) @ params["W"] + params.get("bias", 0.0)

    def check(self, tiny):
        super().check(tiny)
        # the program's cbp_pool against the FFT features, example by example
        X = checks.read_atnp(self.path("data0", "val", "features.atnp"))[:CBP_CHECK_EXAMPLES]
        tables = self.tables(X.shape[2])
        cbp_pool = importlib.import_module("attnpool.sketch").cbp_pool
        got = np.stack([cbp_pool(x, tables) for x in X])
        want = checks.sketch_features(X, tables)
        if not np.allclose(got, want, rtol=1e-9, atol=1e-9 * np.abs(want).max()):
            self.problems.append("cbp_pool features differ from the numpy.fft TensorSketch, "
                                 f"max abs diff {np.abs(got - want).max():.3e}")


class PaperStep(Workload):
    """The attention head at paper size (n=49, f=2048, K=393, B=32), in-process.

    The evaluate() pass runs on the training examples: at 393 classes
    and a few dozen examples a held-out split scores 0, so its accuracy
    would carry no signal.  Per-epoch validation inside train() still
    scores the val split.
    """

    def __init__(self, *args):
        super().__init__(*args)
        p = self.size["paper"]
        self.examples[("train", "attention")] = p["train_samples"] * p["epochs"]
        self.examples[("eval", "attention")] = p["train_samples"]
        self.first_losses = None

    def train_config(self, **kw):
        p = self.size["paper"]
        kw = {"head": "attention", "epochs": p["epochs"], "batch_size": p["batch_size"],
              "seed": self.seed, **kw}
        return importlib.import_module("attnpool.train").TrainConfig(**kw)

    def setup(self, i):
        p = self.size["paper"]
        synth = importlib.import_module("attnpool.synth")
        config = synth.PlantedTaskConfig(
            n1=GRID, n2=GRID, f=p["f"], K=p["classes"], train_samples=p["train_samples"],
            val_samples=p["val_samples"], seed=self.seed)
        data = self.rec.op(("setup", None), lambda: synth.gen_planted(config))
        if i == 0:
            self.train_ds, self.val_ds = data

    def run_round(self, tracer):
        if tracer is not None:
            tracer.head = "attention"
        train_mod = importlib.import_module("attnpool.train")
        cfg = self.train_config()
        self.report = self.rec.op(("train", "attention"), lambda: train_mod.train(
            cfg, self.train_ds, self.val_ds))
        self.eval_out = self.rec.op(("eval", "attention"), lambda: train_mod.evaluate(
            self.report.params, cfg, self.train_ds))
        if tracer is not None:
            tracer.head = None
        losses = [e.train_loss for e in self.report.epochs]
        if self.first_losses is None:
            self.first_losses = losses
        elif losses != self.first_losses:
            self.problems.append("train losses differ between rounds of the same seed")

    def quality(self):
        return float(self.report.final_train_loss), float(self.eval_out["accuracy"])

    def check(self, tiny):
        train_mod = importlib.import_module("attnpool.train")
        ds, p = self.train_ds, self.report.params
        few = self.size["paper"]["check_examples"]
        # evaluate() scores against the explicit second-order form
        got = self.eval_out["scores"][:few]
        want = checks.second_order_scores(ds.X[:few], p["A0"], p["b0"])
        if not np.allclose(got, want, rtol=1e-9, atol=1e-12 * np.abs(want).max()):
            self.problems.append("evaluate() scores differ from Tr(X^T X W_k^T)/n, "
                                 f"max abs diff {np.abs(got - want).max():.3e}")
        self.problems += checks.accuracy_problems(
            "paper_step", self.eval_out["accuracy"], checks.head_scores("attention", p, ds.X),
            ds.labels, decimals=12)
        if not tiny and self.eval_out["accuracy"] < PAPER_MIN_FIT_ACCURACY:
            self.problems.append(f"paper_step fit accuracy {self.eval_out['accuracy']} is "
                                 f"below {PAPER_MIN_FIT_ACCURACY}")
        # one batch, one epoch: p - lr * (g + wd * p) with a closed-form gradient
        sub = importlib.import_module("attnpool.synth").Dataset(
            config=ds.config, X=ds.X[:few], labels=ds.labels[:few], planted=ds.planted[:few])
        step_cfg = self.train_config(epochs=1, batch_size=few)
        p0 = train_mod.train(self.train_config(epochs=0), sub, sub).params
        p1 = train_mod.train(step_cfg, sub, sub).params
        want_A, want_b = checks.attention_step(p0["A0"], p0["b0"], sub.X, sub.labels,
                                               step_cfg.lr, step_cfg.weight_decay)
        for name, want_p in (("A0", want_A), ("b0", want_b)):
            if not np.allclose(p1[name], want_p, rtol=1e-9, atol=1e-12):
                self.problems.append(f"one-step {name} differs from p - lr*(g + wd*p), max "
                                     f"abs diff {np.abs(p1[name] - want_p).max():.3e}")


WORKLOADS = {"desk_cli": DeskCli, "paper_step": PaperStep, "desk_cbp": DeskCbp}
HEADS = tuple(DeskCli.heads) + tuple(DeskCbp.heads)
LAYER_TIMES = (
    "synth.gen_s", "atnp.read_s", "atnp.write_s", "synth.labels_io_s", "checkpoint.save_s",
    "checkpoint.load_s", "train.init_s", "train.forward_s", "autograd.backward_s",
    "train.shuffle_s", "train.optimizer_s", "train.batch_other_s", "train.val_scores_s",
    "train.maps_s", "sketch.features_s", "images.export_s", "cli.panel_maps_s",
) + tuple(f"train.{h}.{p}_s" for h in HEADS for p in PHASES)


def per_layer(wl, setup_trace, round_traces, round_s, absent):
    """One traced set-up plus the median traced round; exact per-step tape counts."""
    out = {}
    for key in LAYER_TIMES:
        per_round = statistics.median(t.get(key, 0.0) for t, _ in round_traces)
        out[key] = (setup_trace[0].get(key, 0.0) + per_round, "s")
    counts = defaultdict(float)
    for _, c in round_traces:
        for key, value in c.items():
            counts[key] += value / len(round_traces)
    for key, value in setup_trace[1].items():
        counts[key] += value
    out["atnp.bytes_read"] = (counts["atnp.bytes_read"], "B")
    out["atnp.bytes_written"] = (counts["atnp.bytes_written"], "B")
    out["sketch.cbp_pool_calls"] = (counts["sketch.cbp_pool.calls"], "count")
    steps = counts["autograd.steps"]
    for key, unit in (("nodes", "count"), ("grad_bytes", "B"), ("backward_matmul_flops", "flop")):
        value = counts[f"autograd.{key}"] / steps if steps else 0.0
        out[f"autograd.{key}_per_step"] = (value, unit)
    out["cli.heatmap_examples_per_s"] = (wl.rates().get("heatmap", 0.0), "1/s")
    overhead = statistics.median(round_s[True]) / statistics.median(round_s[False]) - 1.0
    out["trace.overhead_pct"] = (100.0 * overhead, "%")
    out["trace.absent_hooks"] = (float(len(absent)), "count")
    return out


def run_traced(fn, tracer):
    """Run fn with the tracer's hooks installed; returns its (times, counts)."""
    tracer.install()
    try:
        fn()
    finally:
        tracer.uninstall()
    return dict(tracer.times), dict(tracer.counts)


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--size", choices=sorted(SIZES), default="full")
    ap.add_argument("--workdir", required=True)
    args = ap.parse_args(argv)
    size = SIZES[args.size]
    os.makedirs(args.workdir, exist_ok=True)

    rec = Recorder()
    wl = WORKLOADS[args.workload](args.seed, size, args.workdir, rec)
    reps = size["setup_reps"]
    for i in range(reps - 1 if args.trace else reps):
        wl.setup(i)
    if args.trace:
        rec.traced = True
        tracer = Tracer()
        setup_trace = run_traced(lambda: wl.setup(reps - 1), tracer)
        absent = tracer.absent

    round_traces, round_s = [], {False: [], True: []}
    start = time.perf_counter()
    while True:
        rec.traced = bool(args.trace) and len(round_s[False]) > len(round_s[True])
        t0 = time.perf_counter()
        if rec.traced:
            tracer = Tracer()
            round_traces.append(run_traced(lambda: wl.run_round(tracer), tracer))
        else:
            wl.run_round(None)
        round_s[rec.traced].append(time.perf_counter() - t0)
        done = round_s[False] + round_s[True]
        if (len(done) >= 1 + args.trace
                and time.perf_counter() - start + max(done) > args.seconds):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    wl.check(tiny=args.size == "tiny")
    if args.trace:
        metrics = per_layer(wl, setup_trace, round_traces, round_s, absent)
        if absent:
            print("trace: absent hooks: " + ", ".join(absent))
    else:
        rates = wl.rates()
        final_loss, accuracy = wl.quality()
        metrics = {
            "setup_s": (wl.setup_s(), "s"),
            "train_examples_per_s": (rates["train"], "1/s"),
            "eval_examples_per_s": (rates["eval"], "1/s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
            "final_train_loss": (final_loss, "nats"),
            "eval_accuracy": (accuracy, "fraction"),
        }
    for problem in wl.problems:
        print(f"check failed: {problem}")
    print("samples: " + json.dumps({f"{k[0]}/{k[1]}": [round(t, 4) for t in v]
                                     for k, v in rec.samples.items()}))
    print(f"rounds: {len(round_s[False])} untraced, {len(round_s[True])} traced; seconds "
          f"{[round(t, 3) for t in round_s[False] + round_s[True]]}")
    print(json.dumps({
        "correct": not wl.problems,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {k: {"value": float(v), "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
