"""The four benchmark workloads: seeded inputs, timed operations, checks.

A workload builds one *round* of operations from its seed.  The timed
phase repeats that round whole, so every run attempts the same operations
in the same proportions.  Each operation yields one outcome per point
(a sweep call yields one per row): ``(value, error)``, where ``error`` is
the name and message of the exception the program raised, or ``None``.

Inputs are drawn in mirrored pairs: a range is cut into equal strata and
each stratum holds a point at quantile ``u`` and one at ``1 - u``.  Where
an operation's cost grows steeply with its input, the strata are laid out
in a coordinate in which the cost is close to linear, so the cost of a
round barely moves with the seed while the points themselves do.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field

import numpy as np

import oracles

# ppt.bounds raises SeriesCrossCheckError from this squeezing on: the
# direct cross-check in ppt.conditional_entropy is capped at 6000 terms.
PPT_FAILING = (0.997, 0.998, 0.999)


@dataclass
class Op:
    kind: str
    args: tuple
    refs: dict = field(default_factory=dict)  # reference values, computed once


def mirrored(rng, lo, hi, pairs, to_input=lambda c: c):
    """2 * pairs inputs from [lo, hi): one point at quantile u of each
    stratum and its mirror at 1 - u, mapped through ``to_input``."""
    edges = np.linspace(lo, hi, pairs + 1)
    u = rng.random(pairs)
    low, width = edges[:-1], np.diff(edges)
    coords = np.concatenate([low + u * width, low + (1.0 - u) * width])
    return [float(to_input(c)) for c in coords]


def _call(fn, *args):
    try:
        return fn(*args), None
    except Exception as exc:  # the program's failure is the outcome
        return None, f"{type(exc).__name__}: {exc}"


def cached(op, key, compute):
    """A reference value, computed once per operation however many rounds ran."""
    if key not in op.refs:
        op.refs[key] = compute()
    return op.refs[key]


class Workload:
    """``ops`` is one round.  ``run(op)`` returns the op's outcomes;
    ``check(op, values)`` takes the values of the outcomes that did not fail
    and returns, for each, the names of the checks it failed."""

    ops: list
    # False where the points of an op run inside one call (a sweep on the
    # CLI's pool): the median time per point is then taken per round.
    point_by_point = True

    def expected_failure(self, op, error):
        return False


class BoundsSweep(Workload):
    """``cvwerner sweep bounds --format json`` through ``cli.main``.

    A round is two sweeps of four rows, with p at a seeded start and at
    exactly 1.  The first sweeps lambda from a seeded start to 0.98 at
    mu = 0; the second sweeps mu from a seeded start to 0.98 at lambda =
    0.58.  The rows at 0.98 have cutoffs near 700 and carry nearly all of
    the cost, so the seed moves the points but not the cost.  The second
    sweep's lambda is fixed because at large mu the cost of a row moves 3x
    with it: the correlated block holds lam^(m+n) down into subnormal
    numbers, which slow its eigvalsh most near lam = 0.58.
    """

    name = "bounds-sweep"
    point_by_point = False

    def __init__(self, rng):
        from cvwerner import cli

        self.cli = cli
        self.ops = []
        for sweep in ("lambda", "mu"):
            k = int(rng.integers(4, 41))  # p0 = k/64 makes p0 + (1 - p0) exactly 1
            lo = float(rng.uniform(0.2, 0.6))
            ranged = f"{lo!r}:0.98:{0.98 - lo!r}"
            lam, mu = (ranged, "0.0") if sweep == "lambda" else ("0.58", ranged)
            argv = ["sweep", "bounds", "--p", f"{k / 64!r}:1:{(64 - k) / 64!r}", "--lambda", lam,
                    "--mu", mu, "--format", "json"]
            self.ops.append(Op(f"sweep-{sweep}", tuple(argv)))

    def _sweep(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.cli.main(list(argv))
        return json.loads(out.getvalue())

    def warm_up(self):
        self._sweep(["sweep", "bounds", "--p", "0.5", "--lambda", "0.5", "--mu", "0.5", "--format", "json"])

    def run(self, op):
        return [(row, row.get("error")) for row in self._sweep(op.args)]

    def check(self, op, rows):
        failed = []
        dense_rows = 0
        for row in rows:
            x, r = row["inputs"], row["results"]
            p, lam, mu = x["p"], x["lam"], x["mu"]
            names = []
            if not r["lower"] <= r["upper"]:
                names.append("bounds.lower<=upper")
            if abs(r["mid"] - r["upper"]) > 1e-8:
                names.append("bounds.mid=upper")
            if mu == 0.0 and abs(r["upper"] - oracles.vacuum_discord(p, lam)) > 1e-9:
                names.append("bounds.upper=discord@mu0")
            if p == 1.0 and r["upper"] != r["lower"]:
                names.append("bounds.upper=lower@p1")
            mixed = (1.0 - p) * 2.0 * oracles.thermal_entropy(mu)
            if not mixed - 1e-9 <= r["global_entropy"] <= oracles.binary_entropy(p) + mixed + 1e-9:
                names.append("bounds.global_entropy_mixture_bounds")
            if row["cutoff"] <= 30 and dense_rows < 3:
                dense_rows += 1
                n = row["cutoff"]
                s_global, s_b = cached(op, (p, lam, mu), lambda: oracles.dense_entropies(
                    oracles.werner_dense(p, lam, mu, n), n))
                if abs(s_global - r["global_entropy"]) > 1e-9 or abs(s_b - r["marginal_entropy"]) > 1e-9:
                    names.append("bounds.entropies=dense_kron")
            failed.append(names)
        return failed


class GaussianOpt(Workload):
    """``gaussian.gaussian_discord`` point by point.

    Ten points have lambda in [0.05, 0.85), where the quadrature grid has
    its base size, so they set the median time per point.  Six have lambda
    in [0.85, 0.98], strata even in 1/(1 - lambda^2), which the node count
    follows; they carry most of the round's time.  p is mirrored over
    [0.05, 0.95) and shuffled.
    """

    name = "gaussian-opt"

    def __init__(self, rng):
        from cvwerner import gaussian

        self.gaussian = gaussian
        lams = mirrored(rng, 0.05, 0.85, 5) + mirrored(
            rng, 1.0 / (1.0 - 0.85**2), 1.0 / (1.0 - 0.98**2), 3, lambda c: math.sqrt(1.0 - 1.0 / c)
        )
        ps = mirrored(rng, 0.05, 0.95, len(lams) // 2)
        rng.shuffle(ps)
        self.ops = [Op("gaussian-discord", (p, lam)) for p, lam in zip(ps, lams)]

    def warm_up(self):
        self.gaussian.gaussian_discord(0.5, 0.5)

    def run(self, op):
        return [_call(self.gaussian.gaussian_discord, *op.args)]

    def check(self, op, results):
        p, lam = op.args
        failed = []
        for res in results:
            names = []
            if not res.value > oracles.vacuum_discord(p, lam):
                names.append("gaussian.value>discord")
            if lam <= 0.3:
                het, norm = cached(op, "het", lambda: oracles.heterodyne_conditional_entropy(p, lam))
                program = cached(op, "het_program", lambda: self.gaussian.conditional_entropy(
                    p, lam, self.gaussian.HETERODYNE))
                if abs(norm - 1.0) > 1e-8 or abs(program - het) > 1e-6:
                    names.append("gaussian.heterodyne=fock_integral")
                if res.conditional_entropy > het + 1e-6:
                    names.append("gaussian.min<=heterodyne")
            failed.append(names)
        return failed


class DenseOracle(Workload):
    """The acceptance battery's truncated-matrix oracles at dimensions 576
    to 2916.  The PPT-state and partial-transpose matrices are the
    battery's own fixed inputs (the partial transposes at cutoff 30, where
    the battery's cutoff of 54 takes about a minute); the Werner matrix and
    the two discord points are seeded."""

    name = "dense-oracle"

    def __init__(self, rng):
        from cvwerner import bounds, exact, fock, states

        self.bounds, self.exact, self.fock, self.states = bounds, exact, fock, states
        p_star = oracles.p_ppt(0.8)
        self.ops = [
            Op("ppt-upper", (0.2, 24)),
            Op("ppt-spectrum", (0.5, 40)),
            Op("pt-below", (p_star - 0.005, 0.8, 30)),
            Op("pt-above", (p_star + 0.005, 0.8, 30)),
            Op("werner-upper", (float(rng.uniform(0.05, 0.95)), float(rng.uniform(0.3, 0.55)),
                                float(rng.uniform(0.2, 0.55)), 54)),
        ]
        lams = mirrored(rng, 0.3, 0.65, 1)
        ps = mirrored(rng, 0.05, 0.95, 1)
        self.ops += [Op("discord-numeric", (p, lam, 30)) for p, lam in zip(ps, lams)]

    def _min_eig_pt(self, p, mu, n):
        rho = self.states.werner(self.states.WernerParams(p, mu**4, mu), n)
        return float(self.fock.eig_spectrum(self.fock.partial_transpose(rho, "A")).min())

    def warm_up(self):
        self.bounds.upper_bound_dense(self.states.ppt_werner(0.3, 8))
        self._min_eig_pt(0.2, 0.8, 8)
        self.exact.discord_numeric(0.5, 0.3, 8)

    def run(self, op):
        a = op.args
        if op.kind == "ppt-upper":
            return [_call(lambda: self.bounds.upper_bound_dense(self.states.ppt_werner(*a)))]
        if op.kind == "ppt-spectrum":
            return [_call(lambda: self.fock.eig_spectrum(self.states.ppt_werner(*a)))]
        if op.kind in ("pt-below", "pt-above"):
            return [_call(self._min_eig_pt, *a)]
        if op.kind == "werner-upper":
            p, lam, mu, n = a
            return [_call(lambda: self.bounds.upper_bound_dense(
                self.states.werner(self.states.WernerParams(p, lam, mu), n)))]
        return [_call(self.exact.discord_numeric, *a)]

    def check(self, op, values):
        a = op.args
        failed = []
        for value in values:
            if op.kind == "ppt-upper":
                ok = abs(value - a[0] * oracles.LN2) <= 1e-6
            elif op.kind == "ppt-spectrum":
                ok = float(np.max(np.abs(value - oracles.ppt_spectrum(*a)))) <= 1e-10
            elif op.kind == "pt-below":
                ok = value >= -1e-10
            elif op.kind == "pt-above":
                ok = value < -1e-10
            elif op.kind == "werner-upper":
                ok = abs(value - cached(op, "dense", lambda: oracles.werner_upper_bound(*a))) <= 1e-8
            else:
                ok = abs(value - oracles.vacuum_discord(*a[:2])) <= 1e-8
            failed.append([] if ok else [f"dense.{op.kind}"])
        return failed


class PptSeries(Workload):
    """``ppt.bounds`` point by point over lambda from 0.5 to 0.999.

    Twenty points have lambda in [0.5, 0.8), where a call costs about a
    millisecond, so they set the median.  Six have lambda in [0.9, 0.9933),
    strata even in 1/(1 - lambda), so the points crowd towards 1.  Four
    fixed points close the range: 0.996, the largest that succeeds, which
    sets the peak memory, and 0.997, 0.998 and 0.999, which fail every time.
    """

    name = "ppt-series"

    def __init__(self, rng):
        from cvwerner import ppt

        self.ppt = ppt
        lams = mirrored(rng, 0.5, 0.8, 10) + mirrored(rng, 10.0, 150.0, 3, lambda c: 1.0 - 1.0 / c)
        lams += [0.996, *PPT_FAILING]
        self.ops = [Op("ppt-bounds", (lam,)) for lam in lams]

    def warm_up(self):
        self.ppt.bounds(0.8)

    def run(self, op):
        return [_call(self.ppt.bounds, *op.args)]

    def expected_failure(self, op, error):
        return op.args[0] in PPT_FAILING and error.startswith("SeriesCrossCheckError")

    def check(self, op, reports):
        (lam,) = op.args
        failed = []
        for rep in reports:
            names = []
            if abs(rep.upper - lam * oracles.LN2) > 1e-12:
                names.append("ppt.upper=lam_ln2")
            if abs(rep.mid - rep.upper) > 1e-8:
                names.append("ppt.mid=upper")
            if not rep.lower <= rep.upper:
                names.append("ppt.lower<=upper")
            if lam <= 0.9:
                s_global, s_b = cached(op, "sums", lambda: oracles.ppt_entropies(lam))
                if abs(rep.entropy_global - s_global) > 1e-9 or abs(rep.entropy_reduced - s_b) > 1e-9:
                    names.append("ppt.entropies=eigenvalue_sums")
            failed.append(names)
        return failed


WORKLOADS = {w.name: w for w in (BoundsSweep, GaussianOpt, DenseOracle, PptSeries)}
