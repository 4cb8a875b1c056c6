"""Command-line front end: compute single points, sweep grids, emit
figure datasets, and run the acceptance battery.

Exit codes: 0 success, 1 failed verification, 2 usage error (argparse,
also for a config value or key that the subcommand's flags reject),
3 domain error, an input the measure does not read, a sweep of more
than ``MAX_SWEEP_ROWS`` rows, or unreadable config file, 4 sweep rows
failed, 5 output error (``compute --out``, ``sweep --out`` or ``figure`` cannot
write its file).

A ``--config`` file holds ``key = value`` lines, one per flag of the
subcommand (``lambda = 0.5``, ``eps-tail = 1e-10``, ``outdir = figs``).
Its values are parsed exactly as the flags are, so sweeps accept ranges,
and flags given on the command line override them.

All numeric output carries 12 significant digits, entropies in nats.
Sweep rows run one after another and are emitted in lexicographic order
over (p, lambda, mu).

The results of ``discord0``, ``gap``, ``bounds`` and ``ppt-bounds`` are
the fields of their report dataclass in declaration order, less the
inputs.  ``bounds`` reports ``n_max`` and ``tail_bound`` as ``cutoff`` and
``error_budget.conditional_tail_bound`` instead, and adds ``lower_clipped``,
max(lower, 0), as its last result.
"""

from __future__ import annotations

import argparse
import dataclasses
import inspect
import itertools
import json
import math
import os
import sys
import time

from . import acceptance, bounds, exact, gaussian, nongauss, ppt
from .states import DEFAULT_EPS_TAIL, WernerParams, check_tolerance

NUM_FMT = "%.12g"
# A sweep asking for more rows than this is rejected before any row is made.
MAX_SWEEP_ROWS = 100_000
# The inputs of a point, and the settings a measure may read.
POINT = ("p", "lam", "mu")
SETTINGS = ("cutoff", "eps_tail")


def _fmt(x):
    if isinstance(x, float):
        return NUM_FMT % x
    return str(x)


def _round12(obj):
    if isinstance(obj, float):
        return float(NUM_FMT % obj)
    if isinstance(obj, dict):
        return {k: _round12(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round12(v) for v in obj]
    return obj


def report_json(measure, inputs, results, cutoff, error_budget, wall_time):
    doc = {
        "measure": measure,
        "inputs": inputs,
        "results": results,
        "cutoff": cutoff,
        "error_budget": error_budget,
        "units": "nats",
        "wall_time_s": wall_time,
    }
    return json.dumps(_round12(doc), indent=2, sort_keys=True, allow_nan=False)


# ---------------------------------------------------------------------------
# measures: each returns (results, cutoff, error_budget); the signature
# names the inputs it reads, with the default of each optional one
# ---------------------------------------------------------------------------


def _fields(report, *skip):
    """The fields of a report dataclass in declaration order, less the
    inputs echoed under ``inputs`` and the names in ``skip``."""
    left_out = {*POINT, *skip}
    return {
        f.name: getattr(report, f.name)
        for f in dataclasses.fields(report)
        if f.name not in left_out
    }


def _m_discord0(p, lam):
    return _fields(exact.discord_report(p, lam)), None, {"closed_form": 0.0}


def _m_gaussian_discord(p, lam):
    res = gaussian.gaussian_discord(p, lam)
    d = exact.discord(p, lam)
    results = {
        "gaussian_discord": res.value,
        "conditional_entropy_min": res.conditional_entropy,
        "t_opt": res.t,
        "phi_opt": 0.0,  # no conditional entropy depends on the measurement phase
        "discord": d,
        "gap": res.conditional_entropy,
    }
    return results, None, {"eps_int": gaussian.EPS_INT, "evaluations": res.evaluations}


def _m_delta0(p, lam):
    nu = nongauss.symplectic_eigenvalue(p, lam)
    results = {
        "delta0": nongauss.nongaussianity(p, lam),
        "symplectic_eigenvalue": nu,
        "gaussian_reference_entropy": nongauss._reference_entropy(p, lam),
    }
    return results, None, {"closed_form": 0.0}


def _m_gap(p, lam):
    return _fields(nongauss.discord_gap(p, lam)), None, {"eps_int": gaussian.EPS_INT}


def _m_bounds(p, lam, mu, cutoff=None, eps_tail=DEFAULT_EPS_TAIL):
    rep = bounds.bounds_report(WernerParams(p, lam, mu), cutoff, eps_tail)
    results = {**_fields(rep, "n_max", "tail_bound"), "lower_clipped": max(rep.lower, 0.0)}
    budget = {"eps_tail": eps_tail, "conditional_tail_bound": rep.tail_bound}
    return results, rep.n_max, budget


def _m_region(p, mu):
    results = {
        "region": bounds.separability_region(p, mu),
        "p_sep": bounds.p_separable(mu),
        "p_ppt": bounds.p_ppt(mu),
    }
    return results, None, {"closed_form": 0.0}


def _m_ppt_bounds(lam, eps_tail=ppt.SERIES_TOL):
    return _fields(ppt.bounds(lam, eps_tail)), None, {"series_tol": eps_tail}


MEASURES = {
    "discord0": _m_discord0,
    "gaussian-discord": _m_gaussian_discord,
    "delta0": _m_delta0,
    "gap": _m_gap,
    "bounds": _m_bounds,
    "region": _m_region,
    "ppt-bounds": _m_ppt_bounds,
}


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------


def _given(args, keys):
    """The flags among ``keys`` that are set, by name."""
    return {k: getattr(args, k) for k in keys if getattr(args, k) is not None}


def _measure(name, inputs):
    """The measure ``name``, once ``inputs`` are checked against its
    signature: every required input given and no input it does not read.
    A tail tolerance given is checked here, also where the library would
    not read it (``--eps-tail`` next to ``--cutoff``), so that no output
    echoes a NaN."""
    params = inspect.signature(MEASURES[name]).parameters
    missing = [k for k, v in params.items() if v.default is v.empty and k not in inputs]
    unread = [k for k in inputs if k not in params]
    for keys, verb in ((missing, "needs"), (unread, "does not take")):
        if keys:
            flags = " ".join("--" + k.replace("_", "-") for k in keys)
            raise ValueError(f"measure '{name}' {verb} {flags}")
    if "eps_tail" in inputs:
        check_tolerance("eps_tail", inputs["eps_tail"])
    return MEASURES[name]


def cmd_compute(args):
    inputs = _given(args, POINT + SETTINGS)
    fn = _measure(args.measure, inputs)
    t0 = time.perf_counter()
    results, cutoff, budget = fn(**inputs)
    wall = time.perf_counter() - t0
    point = {k: v for k, v in inputs.items() if k in POINT}
    text = report_json(args.measure, point, results, cutoff, budget, wall)
    _emit(text + "\n", args.out)
    return 0


def _parse_range(spec):
    """'start:stop:step' -> (count, values), the values not yet made;
    a bare number -> (1, [number]).  A count above ``MAX_SWEEP_ROWS`` is
    rejected, as is a non-finite field."""
    if ":" not in spec:
        value = float(spec)
        if not math.isfinite(value):
            raise ValueError(f"value '{spec}' must be finite")
        return 1, [value]
    parts = spec.split(":")
    if len(parts) != 3:
        raise ValueError(f"range '{spec}' must be start:stop:step")
    start, stop, step = (float(x) for x in parts)
    if not all(math.isfinite(x) for x in (start, stop, step)):
        raise ValueError(f"range '{spec}' must have finite start, stop and step")
    if step <= 0:
        raise ValueError(f"range '{spec}' must have step > 0")
    if stop < start:
        raise ValueError(f"range '{spec}' must have stop >= start")
    span = (stop - start) / step
    if not span < MAX_SWEEP_ROWS:
        raise ValueError(
            f"range '{spec}' asks for {span + 1:.6g} values, above the limit {MAX_SWEEP_ROWS}"
        )
    n = int(math.floor(span + 1e-9)) + 1
    return n, (start + i * step for i in range(n))


def _columns(dicts):
    """Keys of ``dicts`` in first-seen order."""
    return list(dict.fromkeys(key for d in dicts for key in d))


def cmd_sweep(args):
    given = _given(args, POINT + SETTINGS)
    fn = _measure(args.measure, given)
    ranges = {k: _parse_range(v) for k, v in given.items() if k in POINT}
    n_rows = math.prod(n for n, _ in ranges.values())
    if n_rows > MAX_SWEEP_ROWS:
        raise ValueError(f"sweep asks for {n_rows} rows, above the limit {MAX_SWEEP_ROWS}")
    axes = {k: list(values) for k, (_, values) in ranges.items()}
    settings = {k: v for k, v in given.items() if k not in POINT}
    rows = [dict(zip(axes, values)) for values in itertools.product(*axes.values())]

    def run_row(row):
        try:
            results, cutoff, _ = fn(**row, **settings)
            return results, cutoff, ""
        except Exception as exc:
            return {}, None, f"{type(exc).__name__}: {exc}"

    outcomes = [run_row(row) for row in rows]

    columns = _columns(results for results, _, _ in outcomes)
    failed = sum(1 for _, _, err in outcomes if err)

    if args.format == "json":
        docs = []
        for row, (results, cutoff, err) in zip(rows, outcomes):
            doc = {"inputs": row, "results": results, "cutoff": cutoff}
            if err:
                doc["error"] = err
            docs.append(_round12(doc))
        _emit(json.dumps(docs, indent=2, sort_keys=True, allow_nan=False) + "\n", args.out)
    else:
        header = list(axes) + [f"{c}_nats" if c in _ENTROPY_COLUMNS else c for c in columns]
        if failed:
            header = header + ["error"]
        lines = [",".join(header)]
        for row, (results, _, err) in zip(rows, outcomes):
            cells = [_fmt(v) for v in row.values()]
            cells += [_fmt(results[c]) if c in results else "" for c in columns]
            if failed:
                cells.append(err.replace(",", ";"))
            lines.append(",".join(cells))
        _emit("\n".join(lines) + "\n", args.out)
    return 4 if failed else 0


_ENTROPY_COLUMNS = {
    "discord",
    "entropy_global",
    "entropy_reduced",
    "gaussian_discord",
    "conditional_entropy",
    "conditional_entropy_min",
    "gap",
    "gap_normalized",
    "delta0",
    "delta0_approx",
    "gap_approx",
    "upper",
    "lower",
    "lower_clipped",
    "mid",
    "marginal_entropy",
    "global_entropy",
    "gaussian_reference_entropy",
}


def _figure_grid(name):
    """Parameter grids for each emitted dataset."""
    frange = lambda a, b, s: [round(a + i * s, 10) for i in range(int(round((b - a) / s)) + 1)]
    if name == "fig-surface":
        return [
            ("discord0", {"p": p, "lam": lam})
            for p in frange(0.0, 1.0, 0.02)
            for lam in frange(0.0, 0.98, 0.02)
        ]
    if name == "fig-gaussian":
        return [
            ("gaussian-discord", {"p": p, "lam": lam})
            for lam in (0.1, 0.5, 0.9)
            for p in frange(0.05, 0.95, 0.05)
        ]
    if name == "fig-gap":
        rows = [
            ("gap", {"p": p, "lam": lam})
            for lam in (0.2, 0.8)
            for p in frange(0.05, 0.95, 0.05)
        ]
        rows += [("gap", {"p": 0.5, "lam": lam}) for lam in frange(0.05, 0.8, 0.05)]
        return rows
    if name == "fig-bounds-eq":
        return [("bounds", {"p": p, "lam": 0.8, "mu": 0.8}) for p in frange(0.0, 1.0, 0.02)]
    if name == "fig-bounds-mu4":
        mu = 0.8
        return [
            ("bounds", {"p": p, "lam": mu**4, "mu": mu}) for p in frange(0.0, 1.0, 0.02)
        ]
    if name == "fig-ppt":
        return [("ppt-bounds", {"lam": lam}) for lam in frange(0.0, 0.99, 0.01)]
    raise ValueError(f"unknown figure '{name}'")


_PLOT_STUB = """\
#!/usr/bin/env python3
\"\"\"Plot stub for {name}: loads the emitted CSV and draws the columns.\"\"\"
import csv
import sys

import matplotlib.pyplot as plt

rows = list(csv.DictReader(open("{csv_name}")))
numeric = {{k: [float(r[k]) for r in rows if r[k]] for k in rows[0] if k != "region"}}
x_key = next(iter(numeric))
fig, ax = plt.subplots()
for key, values in numeric.items():
    if key == x_key:
        continue
    ax.plot(numeric[x_key][: len(values)], values, label=key)
{extras}ax.set_xlabel(x_key)
ax.set_ylabel("nats")
ax.legend(fontsize=7)
fig.savefig("{name}.png", dpi=200)
print("wrote {name}.png")
"""


def cmd_figure(args):
    settings = _given(args, SETTINGS)
    jobs = [(_measure(m, {**point, **settings}), point) for m, point in _figure_grid(args.name)]
    os.makedirs(args.outdir, exist_ok=True)
    rows = []
    for fn, point in jobs:
        results, _, _ = fn(**point, **settings)
        rows.append({**point, **results})
    columns = _columns(rows)
    csv_name = f"{args.name}.csv"
    csv_path = os.path.join(args.outdir, csv_name)
    with open(csv_path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(columns) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) if c in row else "" for c in columns) + "\n")
    extras = ""
    if args.name == "fig-bounds-mu4":
        extras = (
            f'ax.axvline({bounds.p_separable(0.8)!r}, linestyle="-", color="gray")\n'
            f'ax.axvline({bounds.p_ppt(0.8)!r}, linestyle="--", color="gray")\n'
        )
    stub = _PLOT_STUB.format(name=args.name, csv_name=csv_name, extras=extras)
    with open(os.path.join(args.outdir, f"plot_{args.name.replace('-', '_')}.py"), "w") as fh:
        fh.write(stub)
    print(f"wrote {csv_path}")
    return 0


def cmd_verify(args):
    results = acceptance.run_all(**_given(args, ("seed",)))
    for res in results:
        print(res.line)
    failed = sum(1 for r in results if not r.passed)
    print(f"{len(results) - failed}/{len(results)} checks passed")
    return 1 if failed else 0


# ---------------------------------------------------------------------------
# argument plumbing
# ---------------------------------------------------------------------------


def _config_argv(path):
    """The ``key = value`` lines of a config file as ``--key=value`` flags."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path!r}: {exc.strerror}") from None
    argv = []
    for line in lines:
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"malformed config line: {line!r}")
        key, val = (part.strip() for part in line.split("=", 1))
        argv.append(f"--{key.replace('_', '-')}={val}")
    return argv


def _emit(text, out):
    if out:
        with open(out, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _add_flags(parser, *names, ranged=False):
    kind = str if ranged else float
    hint = " (accepts start:stop:step)" if ranged else ""
    flags = {
        "p": ("--p", dict(type=kind, help="mixing probability" + hint)),
        "lam": ("--lambda", dict(dest="lam", type=kind, help="squeezing factor" + hint)),
        "mu": ("--mu", dict(type=kind, help="thermal factor" + hint)),
        "cutoff": ("--cutoff", dict(type=int, help="Fock cutoff override")),
        "eps_tail": ("--eps-tail", dict(type=float, help="truncation tail tolerance")),
        "seed": ("--seed", dict(type=int, help="seed for the sampling oracles")),
        "format": ("--format", dict(choices=("csv", "json"), default="csv")),
        "out": ("--out", dict(help="output path (default stdout)")),
        "outdir": ("--outdir", dict(default=".", help="output directory")),
        "config": ("--config", dict(help="key=value file presetting any flag of this subcommand")),
    }
    for name in names:
        flag, options = flags[name]
        parser.add_argument(flag, **options)


def build_parser():
    parser = argparse.ArgumentParser(
        prog="cvwerner",
        description="Nonclassical-correlation measures for CV Werner states (nats).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_compute = sub.add_parser("compute", help="evaluate one measure at one point")
    p_compute.add_argument("measure", choices=sorted(MEASURES))
    _add_flags(p_compute, *POINT, *SETTINGS, "out", "config")
    p_compute.set_defaults(func=cmd_compute)

    p_sweep = sub.add_parser("sweep", help="evaluate a measure over a parameter grid")
    p_sweep.add_argument("measure", choices=sorted(MEASURES))
    _add_flags(p_sweep, *POINT, *SETTINGS, "format", "out", "config", ranged=True)
    p_sweep.set_defaults(func=cmd_sweep)

    p_fig = sub.add_parser("figure", help="emit a named figure dataset plus plot stub")
    p_fig.add_argument(
        "name",
        choices=(
            "fig-surface",
            "fig-gaussian",
            "fig-gap",
            "fig-bounds-eq",
            "fig-bounds-mu4",
            "fig-ppt",
        ),
    )
    _add_flags(p_fig, *SETTINGS, "outdir", "config")
    p_fig.set_defaults(func=cmd_figure)

    p_verify = sub.add_parser("verify", help="run the acceptance battery")
    _add_flags(p_verify, "seed", "config")
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv=None):
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    try:
        if args.config:
            # Config flags go between the subcommand and the user's own
            # arguments, so argparse checks them and the user's flags win.
            args = parser.parse_args(argv[:1] + _config_argv(args.config) + argv[1:])
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"error: {args.command} output failed: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
