"""The three workloads: study-small, cli-compare and prior-tables.

Each workload is a closed loop with one client.  `generate` builds the
inputs from the seed (the set-up), `cycle` runs one repetition of the
workload's ops, and `check` is the untimed output check that runs once
per invocation after the timed cycles: it compares repetitions, checks
invariants and computes the evidence reference behind
`log_mlik_err_nats`.  Library calls go through module attributes at
call time, so a traced run sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import inputs
import reference

#: the CLI's default residual-scale statement P(sigma > 1/0.31) = 0.01
SIGMA_STATEMENT = (1 / 0.31, 0.01)
#: prior median of the within-group correlation used by every workload
MEDIAN_ICC = 0.5
#: cli-compare: transects, campaigns, groups of the `grouppc simulate` file
FIELD_SIZE = (200, 20, 200)


#: median time of `_host_kernel` on the baseline host (see HostClock)
KERNEL_REF_S = 0.006
_KERNEL_MATRIX = np.random.default_rng(0).standard_normal((8, 8))


def _host_kernel():
    """Fixed Python-loop and small-matrix work, like grouppc's own."""
    start = time.perf_counter()
    total = 0.0
    for i in range(400):
        total += np.linalg.inv(_KERNEL_MATRIX + i * np.eye(8))[0, 0]
    return time.perf_counter() - start


class HostClock:
    """The shared host's speed, from a fixed kernel timed between ops.

    On a shared host the speed of the whole machine drifts by tens of
    percent over minutes, and the program and the kernel slow down
    together.  `sample` returns the median of three kernel runs over
    KERNEL_REF_S; dividing a time by the mean of the samples taken just
    before and just after it gives seconds on the baseline host, which
    stay comparable between runs made at different times.
    """

    def __init__(self):
        self.samples = []
        self.spent = 0.0

    def sample(self):
        start = time.perf_counter()
        ratio = statistics.median(_host_kernel() for _ in range(3)) / KERNEL_REF_S
        self.samples.append(ratio)
        self.spent += time.perf_counter() - start
        return ratio


class Ops:
    """Latencies by op kind, with attempts and failures.

    With a `clock`, the host is sampled before every op and by `close`,
    outside the op timings.  `scaled` then holds each op time and
    `scaled_wall` the loop time without the samples, both divided by the
    mean of the host samples around them.
    """

    def __init__(self, clock=None):
        self.times = {}
        self.attempted = 0
        self.failed = 0
        self.errors = []
        self.clock = clock
        self.scaled = {}
        self.scaled_wall = 0.0
        self._mark = self._ratio = self._pending = None

    def _tick(self):
        start = time.perf_counter()
        ratio = self.clock.sample()
        if self._mark is not None:
            mean = (self._ratio + ratio) / 2.0
            self.scaled_wall += (start - self._mark) / mean
            if self._pending is not None:
                kind, took = self._pending
                self.scaled.setdefault(kind, []).append(took / mean)
        self._mark, self._ratio, self._pending = time.perf_counter(), ratio, None

    def close(self):
        if self.clock is not None:
            self._tick()

    def run(self, kind, fn, *args):
        self.attempted += 1
        if self.clock is not None:
            self._tick()
        start = time.perf_counter()
        try:
            out = fn(*args)
        except Exception as exc:  # a failed op is counted, the loop goes on
            self.failed += 1
            self.errors.append(f"{kind}: {exc!r}")
            return None
        took = time.perf_counter() - start
        self.times.setdefault(kind, []).append(took)
        self._pending = (kind, took)
        return out


def _finite(value):
    """True when every number in a JSON-like value is finite."""
    if isinstance(value, dict):
        return all(_finite(v) for v in value.values())
    if isinstance(value, (list, tuple)):
        return all(_finite(v) for v in value)
    if isinstance(value, (int, float)):
        return math.isfinite(value)
    return True


@contextlib.contextmanager
def _cwd(path):
    old = os.getcwd()
    os.chdir(path)
    try:
        yield
    finally:
        os.chdir(old)


class Workload:
    name = ""
    #: op kind whose median is `op_p50_s`
    main_op = ""
    #: fewest timed cycles, whatever --seconds says
    min_cycles = 2

    def __init__(self, gp, root, seed, work, small):
        self.gp = gp
        self.root = Path(root)
        self.seed = seed
        self.work = Path(work)
        self.small = small
        self.work.mkdir(parents=True, exist_ok=True)
        self.in_process = True   # CLI ops call grouppc.cli.main in-process
        self.outputs = {}        # repetition -> outputs compared by `check`
        self.first = {}          # fits of the first repetition
        self.bayes = []          # (BayesFactor, fit_a, fit_b)
        self.loglik_evals = []   # wall times of single gaussian_loglik calls

    def _prior(self, family, design):
        gp = self.gp
        model = gp.GroupModel(family)
        return gp.pcprior.PCPrior.from_quantile(
            model, design, gp.pcprior.icc_to_param(model, MEDIAN_ICC), 0.5)

    def _reference(self, dataset, family, prior, fit_log_mlik, failures, label):
        """(|log Z - reference|, reference gap) for one fit; checks loglik."""
        gp = self.gp
        psi = gp.inference.solve_psi(*SIGMA_STATEMENT)
        integrand = reference.Integrand(dataset, family, prior, psi)
        z81, z161, (t, s) = reference.reference(integrand)
        model = gp.GroupModel(family)
        ours = float(integrand.loglik(t, s)[0, 0])
        start = time.perf_counter()
        theirs = gp.inference.gaussian_loglik(
            dataset, model, gp.corr.internal_to_param(model, s), math.exp(t))
        self.loglik_evals.append(time.perf_counter() - start)
        if not abs(ours - theirs) <= 1e-9 * abs(theirs):
            failures.append(f"{label}: reference loglik {ours!r} != "
                            f"gaussian_loglik {theirs!r}")
        if not math.isfinite(fit_log_mlik):
            failures.append(f"{label}: log_mlik {fit_log_mlik!r}")
        return abs(fit_log_mlik - z161), abs(z81 - z161)


class StudySmall(Workload):
    """Replicated simulation study of small library fits."""

    name = "study-small"
    main_op = "fit"

    def generate(self):
        n, m = (6, 5) if self.small else (30, 20)
        self.replicates = [
            (family, param, self.gp.GroupedDesign(sizes, tuple(map(tuple, pos))),
             sim_seed)
            for family, param, sizes, pos, sim_seed
            in inputs.study_replicates(self.seed, n, m)]

    def cycle(self, ops, k):
        gp = self.gp
        psi = gp.inference.solve_psi(*SIGMA_STATEMENT)
        out = self.outputs.setdefault(k, {})
        for r, (family, param, design, sim_seed) in enumerate(self.replicates):
            config = gp.simulate.SimConfig(
                design=design, model=gp.GroupModel(family), param=param,
                beta=(1.0, 0.5), seed=sim_seed)
            data = gp.simulate.simulate_dataset(config)
            fits = {}
            for fam in inputs.FAMILIES:
                model = gp.GroupModel(fam)
                prior = self._prior(fam, design)
                hyper = gp.inference.HyperPriors(corr_prior=prior, psi=psi)
                fit = ops.run("fit", gp.inference.log_marginal_likelihood,
                              data, model, hyper)
                if fit is None:
                    continue
                fits[fam] = fit
                out[(r, fam)] = json.dumps(fit.to_json_dict())
                if k == 0:
                    self.first[(r, fam)] = (data, prior, fit)
            for a, b in (("exchangeable", "ar1"), ("exchangeable", "ou"),
                         ("ar1", "ou")):
                if a in fits and b in fits:
                    bf = gp.inference.bayes_factor(fits[a], fits[b])
                    self.bayes.append((bf, fits[a], fits[b]))

    def check(self):
        failures = []
        errs, gaps = [], []
        for (r, fam), (data, prior, fit) in sorted(self.first.items()):
            label = f"replicate {r} {fam}"
            payload = json.loads(self.outputs[0][(r, fam)])
            if not _finite(payload):
                failures.append(f"{label}: non-finite summary")
            for k, out in self.outputs.items():
                if out.get((r, fam)) != self.outputs[0][(r, fam)]:
                    failures.append(f"{label}: repetition {k} differs")
            err, gap = self._reference(data, fam, prior, fit.log_mlik,
                                       failures, label)
            errs.append(err)
            gaps.append(gap)
        for bf, a, b in self.bayes:
            if bf.log_bf != a.log_mlik - b.log_mlik:
                failures.append(f"bayes_factor {bf.log_bf!r} != "
                                f"{a.log_mlik!r} - {b.log_mlik!r}")
        metrics = {}
        if errs:
            metrics["log_mlik_err_nats"] = max(max(errs), max(gaps))
            metrics["log_mlik_ref_gap_nats"] = max(gaps)
        return metrics, failures, []


class CliCompare(Workload):
    """`grouppc compare` and `grouppc fit` on generated field files."""

    name = "cli-compare"
    main_op = "compare"
    min_cycles = 3

    def generate(self):
        n_tr, n_camp, n_sim = (20, 4, 20) if self.small else FIELD_SIZE
        self.field = "field.csv"
        self.sim = "sim.csv"
        inputs.write_field_csv(self.seed, self.work / self.field, n_tr, n_camp)
        code, _, err = self._main(inputs.simulate_argv(self.seed, self.sim, n_sim))
        if code != 0:
            raise RuntimeError(f"grouppc simulate exited {code}: {err}")

    def _main(self, argv):
        """`grouppc.cli.main` in this process, in the work directory."""
        out, err = io.StringIO(), io.StringIO()
        with _cwd(self.work), contextlib.redirect_stdout(out), \
                contextlib.redirect_stderr(err):
            code = self.gp.cli.main(argv)
        return code, out.getvalue(), err.getvalue()

    def _subprocess(self, argv):
        env = dict(os.environ, PYTHONPATH=str(self.root / "src"))
        proc = subprocess.run([sys.executable, "-m", "grouppc.cli", *argv],
                              cwd=self.work, env=env, capture_output=True,
                              text=True, timeout=170)
        return proc.returncode, proc.stdout, proc.stderr

    def _command(self, argv):
        run = self._main if self.in_process else self._subprocess
        code, out, err = run(argv)
        if code != 0:
            raise RuntimeError(f"exit {code}: {err.strip()}")
        return out

    def cycle(self, ops, k):
        shutil.rmtree(self.work / "cmp", ignore_errors=True)
        (self.work / "fit.json").unlink(missing_ok=True)
        record = self.outputs.setdefault(k, {})
        record["compare"] = ops.run("compare", self._command,
                                    inputs.compare_argv(self.field, "cmp"))
        record["fit"] = ops.run("fit_cli", self._command,
                                inputs.fit_argv(self.sim, "fit.json"))
        files = sorted((self.work / "cmp").glob("*.json"))
        files.append(self.work / "fit.json")
        record["files"] = {p.name: p.read_bytes() for p in files if p.exists()}

    def _dataset(self, path, group, pos):
        gp = self.gp
        header = (self.work / path).read_text(encoding="utf-8").split("\n", 1)[0]
        covariates = [c for c in header.split(",")
                      if c not in ("y", "group", "transect", "campaign", "pos")]
        return gp.io.read_dataset(self.work / path, covariate_names=covariates,
                                  group_column=group, pos_column=pos)

    def _table_check(self, stdout, fits, failures):
        """Table rows agree with the fit JSONs: log_mlik and log BF strings."""
        best = max(fits.values())
        for line in stdout.splitlines()[1:-1]:
            cells = line.split()
            key = (cells[0], cells[1])
            if key not in fits:
                failures.append(f"compare row {line!r} has no fit file")
                continue
            lm = fits[key]
            want = ["%.3f" % lm] + ([] if lm == best else ["%.2f" % (best - lm)])
            if cells[5:7] != want:
                failures.append(f"compare row {line!r} disagrees with "
                                f"log_mlik {lm!r}")

    def check(self):
        gp = self.gp
        failures = []
        first = self.outputs.get(0, {})
        for k, record in self.outputs.items():
            for key in ("compare", "fit", "files"):
                if record.get(key) != first.get(key):
                    failures.append(f"repetition {k}: {key} output differs")
        payloads = {name: json.loads(data)
                    for name, data in first.get("files", {}).items()}
        for name, payload in payloads.items():
            if not _finite(payload):
                failures.append(f"{name}: non-finite summary")
        if len(payloads) != len(inputs.FIELD_MODELS) + 1:
            failures.append(f"expected {len(inputs.FIELD_MODELS) + 1} fit "
                            f"files, found {sorted(payloads)}")
            return {}, failures, self._findings()

        # the compare models, under the lambda scaled on the first model
        groupings = {"exchangeable@transect": ("transect", None),
                     "ar1@transect": ("transect", None),
                     "ou@transect:pos": ("transect", "pos"),
                     "exchangeable@campaign": ("campaign", None)}
        errs, gaps, table = [], [], {}
        shared_lam = None
        for i, spec in enumerate(inputs.FIELD_MODELS, 1):
            family = spec.split("@")[0]
            group, pos = groupings[spec]
            dataset = self._dataset(self.field, group, pos)
            model = gp.GroupModel(family)
            if shared_lam is None:
                shared_lam = self._prior(family, dataset.design).lam
            prior = gp.pcprior.PCPrior(
                lam=shared_lam,
                distance=gp.pcprior.DistanceFunction(model, dataset.design))
            lm = payloads[f"fit_{i}_{family}_{group}.json"]["log_mlik"]
            table[(group, family)] = lm
            err, gap = self._reference(dataset, family, prior, lm, failures, spec)
            errs.append(err)
            gaps.append(gap)
        self._table_check(first.get("compare") or "", table, failures)
        # the single-model fit on the simulate file
        dataset = self._dataset(self.sim, "group", "pos")
        lm = payloads["fit.json"]["log_mlik"]
        err, gap = self._reference(dataset, "ou", self._prior("ou", dataset.design),
                                   lm, failures, "fit --family ou")
        errs.append(err)
        gaps.append(gap)
        metrics = {"log_mlik_err_nats": max(max(errs), max(gaps)),
                   "log_mlik_ref_gap_nats": max(gaps)}
        return metrics, failures, self._findings()

    def _findings(self):
        """Known defects observed on the generated data, reported not gated."""
        argv = ["fit", "--family", "ou", "--data", self.field,
                "--group-col", "transect", "--out", "finding.json"]
        code, _, err = self._main(argv)
        if code == 0:
            return []
        return [f"grouppc {' '.join(argv)} exits {code}: {err.strip()} "
                "(fit treats every unclaimed column as a covariate)"]


class PriorTables(Workload):
    """Prior elicitation and tabulation for each family on two designs."""

    name = "prior-tables"
    # the six cases differ in cost by 100x, so a median pooled over them
    # falls between cases; the OU case on the transect design is the one
    # users wait for
    main_op = "elicit:ou_transect"

    def generate(self):
        gp = self.gp
        sizes, positions = inputs.field_design(
            self.seed, 20 if self.small else FIELD_SIZE[0])
        designs = (("balanced", gp.balanced_design(6, 50, unit_positions=True)),
                   ("transect", gp.GroupedDesign(
                       tuple(int(m) for m in sizes),
                       tuple(tuple(p) for p in positions))))
        self.cases = [(family, name, design) for name, design in designs
                      for family in inputs.FAMILIES]
        self.levels = np.arange(1, 100) / 100.0

    def _elicit(self, family, design, path, sample_seed):
        gp = self.gp
        prior = self._prior(family, design)
        grid = gp.pcprior.density_grid(prior, 1024)
        quantiles = prior.quantile(self.levels)
        draws = prior.sample(500, sample_seed)
        mass = gp.pcprior.normalization_mass(prior)
        gp.io.write_grid(grid, path)
        return prior.lam, quantiles, draws, mass

    def cycle(self, ops, k):
        out = self.outputs.setdefault(k, {})
        for i, (family, name, design) in enumerate(self.cases):
            path = self.work / f"grid_{name}_{family}.csv"
            path.unlink(missing_ok=True)
            result = ops.run(f"elicit:{family}_{name}", self._elicit, family,
                             design, path, inputs.prior_sample_seed(self.seed, i))
            if result is not None:
                lam, quantiles, draws, mass = result
                out[(family, name)] = (lam, quantiles.tobytes(), draws.tobytes(),
                                       mass, path.read_bytes())

    def check(self):
        failures = []
        first = self.outputs.get(0, {})
        for k, out in self.outputs.items():
            if out != first:
                failures.append(f"repetition {k}: elicitation outputs differ")
        worst = 0.0
        for (family, name), (lam, q, draws, mass, _) in sorted(first.items()):
            label = f"{family} on {name}"
            q = np.frombuffer(q)
            draws = np.frombuffer(draws)
            if not (math.isfinite(lam) and np.all(np.isfinite(q))
                    and np.all(np.isfinite(draws))):
                failures.append(f"{label}: non-finite lambda, quantile or draw")
            steps = np.diff(q)
            if not (np.all(steps > 0) or np.all(steps < 0)):
                failures.append(f"{label}: quantiles are not monotone")
            if not abs(mass - 1.0) <= 1e-6:
                failures.append(f"{label}: normalization_mass {mass!r}")
            worst = max(worst, abs(mass - 1.0))
        if len(first) != len(self.cases):
            failures.append(f"{len(self.cases) - len(first)} elicitations failed")
        return {"prior_mass_err": worst}, failures, []


WORKLOADS = {w.name: w for w in (StudySmall, CliCompare, PriorTables)}
