"""CLI: ``python -m repro.experiments [name ...|all] [flags]`` regenerates
the paper's figures/tables as text reports — for each named experiment,
``report(run(**flags))`` with the flags its ``run`` accepts (the others
are ignored, so one command line can name several experiments).

Telemetry flags:

* ``--trace-json=PATH`` — dump the request-trace log (the span tree of
  every RPC, GridFTP command, transfer, and catalog update) as JSON;
* ``--metrics-json=PATH`` — dump the metrics registry snapshot as JSON;
* ``--trace-chrome=PATH`` — dump the trace log as Chrome trace-event JSON
  (load in Perfetto / chrome://tracing);
* ``--report`` — print the terminal grid health report after the run.

Experiment parameters:

* ``--seed=N`` — simulation seed (e.g. the fault campaign schedule);
* ``--campaign=NAME`` — one of the experiment's ``CAMPAIGNS``; without
  it a campaign experiment runs its fault-free leg, or — chaos, which
  has none — every campaign in turn;
* ``--requests=N`` (workload), ``--sites=N`` (rls), ``--files=N`` (rls:
  per site; weather: per destination; chaos, workload: in all),
  ``--objects=N`` (chunks) — problem size.
"""

from __future__ import annotations

import inspect
import sys

from repro.experiments import EXPERIMENTS
from repro.experiments.scaffold import legs

#: flag prefix -> (run() keyword, value converter)
_FLAGS = {
    "--trace-json=": ("trace_path", str),
    "--metrics-json=": ("metrics_json", str),
    "--trace-chrome=": ("trace_chrome", str),
    "--seed=": ("seed", int),
    "--campaign=": ("campaign", str),
    "--requests=": ("requests", int),
    "--sites=": ("sites", int),
    "--files=": ("files", int),
    "--objects=": ("objects", int),
}


def _calls(module, flags: dict) -> list[dict]:
    """The keyword sets to call ``module.run`` with: the flags its
    signature accepts — once per campaign when it has no fault-free leg
    and none was named."""
    params = inspect.signature(module.run).parameters
    kwargs = {key: value for key, value in flags.items() if key in params}
    if "campaign" in params and "campaign" not in kwargs:
        every = legs(module)
        if "" not in every:
            return [{**kwargs, "campaign": name} for name in every]
    return [kwargs]


def main(argv: list[str]) -> int:
    """Entry point: run the named experiments (or all) and print reports."""
    flags: dict[str, object] = {}
    names: list[str] = []
    for arg in argv:
        if arg == "--report":
            flags["show_report"] = True
            continue
        for prefix, (keyword, convert) in _FLAGS.items():
            if arg.startswith(prefix):
                flags[keyword] = convert(arg[len(prefix):])
                break
        else:
            names.append(arg)
    names = names or ["all"]
    if names == ["all"]:
        names = list(EXPERIMENTS)
    unknown = [n for n in names if n not in EXPERIMENTS]
    if unknown:
        print(f"unknown experiment(s): {', '.join(unknown)}")
        print(f"available: {', '.join(EXPERIMENTS)}  (or 'all')")
        return 2
    if "campaign" in flags:
        for name in names:
            known = getattr(EXPERIMENTS[name], "CAMPAIGNS", None)
            if known is not None and flags["campaign"] not in known:
                print(f"unknown campaign {flags['campaign']!r} for {name} "
                      f"(one of: {', '.join(known)})")
                return 2
    for name in names:
        module = EXPERIMENTS[name]
        print(f"=== {name} ===")
        for kwargs in _calls(module, flags):
            module.report(module.run(**kwargs))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
