"""monoweb benchmark: one workload, one seed, one JSON result line.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The seed generates the workload's problem
files into a private directory under ``.perfbench_tmp/``; every command then
runs in this process through ``monoweb.cli`` (load_problem -> run_analyze /
run_verify_theorem / render_svg -> write_report), one input after another,
one client, no threads: a closed loop.  A pass runs every input once and
rebuilds every ``Problem`` from its file, so lazily compiled evaluators are
paid for in each pass, as a CLI user pays for them in each run.

``--trace 0`` times untraced passes for ``--seconds`` and reports the
end-to-end metrics.  ``--trace 1`` alternates untraced and traced passes
(see ``tracer.py``) and reports the per-layer metrics.  Every output is
checked against the answer known by construction (``oracle.py``) and must
be byte-identical across passes, traced or not.  The last line of standard
output is the result; the line before it records the environment, the
per-input times, a digest of the outputs and the layer shares.
"""

import os

# numpy's OpenBLAS would start one thread per core (up to 64) for the small
# lstsq and eigenvalue calls; the program is single-threaded.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

import oracle  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_PASSES = 3          # untraced passes with --trace 0
MIN_TRACED = 2          # traced and untraced passes each with --trace 1
SETUP_PROBES = 7        # at least, after one warm-up probe; the budget
                        # keeps room for them
PROBE_TIMEOUT = 60


def load_program():
    """Import monoweb from the checkout's ``src/``, never from elsewhere."""
    sys.path.insert(0, str(SRC))
    try:
        import monoweb
        from monoweb import cli
    except ImportError as e:
        raise SystemExit(f"perfbench: cannot import monoweb from {SRC}: {e}")
    if Path(monoweb.__file__).resolve().parent.parent != SRC:
        raise SystemExit(f"perfbench: monoweb imported from "
                         f"{monoweb.__file__}, not from {SRC}")
    return monoweb, cli


# ---------------------------------------------------------------------------
# Running the inputs


def run_case(cli, case, tr):
    """One CLI command in-process, as ``monoweb.cli.main`` runs it; returns
    (seconds, exit code).  An unexpected exception gives code None."""
    t0 = perf_counter()
    try:
        prob = cli.load_problem(case.path)
        if case.command == "analyze":
            report, code = cli.run_analyze(prob)
            cli.write_report(report, case.output)
        elif case.command == "verify-theorem":
            report, code = cli.run_verify_theorem(prob)
            cli.write_report(report, case.output)
        else:
            svg = cli.render_svg(prob, grid=case.grid)
            with tr.span("cli.write_svg") if tr else contextlib.nullcontext():
                with open(case.output, "w", encoding="utf-8") as fh:
                    fh.write(svg)
            code = 0
    except cli.InputError:
        code = 1
    except cli.NUMERICAL_ERRORS:
        code = 2
    except Exception:
        traceback.print_exc()
        code = None
    return perf_counter() - t0, code


def run_pass(pkg, cli, cases, tr=None):
    """Every input once.  Returns (pass seconds, per-case seconds, codes,
    outputs); outputs are read back after the timed region."""
    for c in cases:
        with contextlib.suppress(FileNotFoundError):
            os.remove(c.output)
    # start from the heap a fresh CLI process would have: the previous
    # pass's objects would otherwise slow the collector in this one
    gc.collect()
    if tr:
        tr.reset()
        tr.install(pkg)
    try:
        t0 = perf_counter()
        results = [run_case(cli, c, tr) for c in cases]
        total = perf_counter() - t0
    finally:
        if tr:
            tr.remove()
    outputs = []
    for c in cases:
        try:
            outputs.append(Path(c.output).read_text(encoding="utf-8"))
        except FileNotFoundError:
            outputs.append("")
    return (total, [r[0] for r in results], [r[1] for r in results],
            outputs)


class Checker:
    """Oracle verdicts, and byte-identity of each output with the first
    pass's."""

    def __init__(self, cases):
        self.cases = cases
        self.reference = None
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def digest(self, codes, outputs):
        return [hashlib.sha256(f"{code}\n{text}".encode()).hexdigest()
                for code, text in zip(codes, outputs)]

    def check(self, codes, outputs, label):
        digests = self.digest(codes, outputs)
        if self.reference is None:
            self.reference = digests
        for case, code, text, dg, ref in zip(self.cases, codes, outputs,
                                              digests, self.reference):
            self.attempted += 1
            problems = (["exception"] if code is None
                        else oracle.check(case, code, text))
            if dg != ref:
                problems.append(f"{label} output differs from the first "
                                "pass's")
            if problems:
                self.failed += 1
                self.errors.extend(f"{label} {case.name}: {p}"
                                   for p in problems)

    def report_digest(self):
        return hashlib.sha256("".join(self.reference).encode()).hexdigest()


# ---------------------------------------------------------------------------
# Set-up time


def setup_probe(cases):
    """Cold interpreter start + ``import monoweb.cli`` + ``load_problem``
    on every input, timed from outside in a child process."""
    cmd = [sys.executable, str(HERE / "setup_probe.py")]
    cmd += [c.path for c in cases]
    t0 = perf_counter()
    proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True,
                          timeout=PROBE_TIMEOUT)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return elapsed


# ---------------------------------------------------------------------------
# Per-layer metrics


def layer_metrics(times, counts, incl, report_bytes):
    def t(layer):
        return times.get(layer, 0.0)

    def n(key):
        return counts.get(key, 0)

    solves = n("track_solves")
    return {
        "expr.parse_s": t("expr.parse"),
        "expr.parse_calls": n("expr.parse"),
        "expr.diff_s": t("expr.diff"),
        "expr.diff_calls": n("expr.diff"),
        "expr.diff_out_nodes": n("diff_out_nodes"),
        "expr.compile_s": t("expr.compile"),
        "expr.compile_calls": (n("expr.compile_value")
                               + n("expr.compile_value_vec")),
        "expr.compile_in_nodes": n("compile_in_nodes"),
        "fiber.scan_s": t("fiber.scan"),
        "fiber.scan_points": n("scan_points"),
        "fiber.refine_s": t("fiber.refine"),
        "fiber.refine_calls": n("fiber.residual_vector"),
        "fiber.residual_calls": n("fiber.refine.residuals"),
        "fiber.isolation_s": t("fiber.isolation"),
        "fiber.isolation_solves": n("fiber.isolation.solves"),
        "fiber.isolation_failed": n("fiber.isolation.failed"),
        "fiber.find_self_s": t("fiber.find_self"),
        "fiber.points": n("points"),
        "monodromy.track_s": incl.get("monodromy.track_loop", 0.0),
        "monodromy.loops": n("monodromy.track_loop"),
        "monodromy.solves": solves,
        "monodromy.solve_s": t("monodromy.solve"),
        "monodromy.accept_ratio": (n("track_accepted") / solves
                                   if solves else 0.0),
        "monodromy.depth_max": n("depth_max"),
        "monodromy.lift_s": t("monodromy.lift"),
        "index.report_self_s": t("index.report_self"),
        "geometry.bde_s": t("geometry.bde"),
        "geometry.partition_s": t("geometry.partition"),
        "geometry.locate_calls": n("geometry.locate_on_patch"),
        "geometry.theorem_self_s": t("geometry.theorem_self"),
        "geometry.quadrature_s": t("geometry.quadrature"),
        "geometry.quadrature_nodes": n("quadrature_nodes"),
        "cli.load_s": t("cli.load"),
        "cli.run_self_s": t("cli.run_self"),
        "cli.plot_self_s": t("cli.plot_self"),
        "cli.plot_solve_s": t("cli.plot_solve"),
        "cli.plot_solves": n("cli.plot_solve.solves"),
        "cli.report_s": t("cli.report"),
        "cli.report_bytes": report_bytes,
    }


def is_work_counter(name):
    """Counts of work done, which must repeat exactly for the same inputs."""
    return UNITS.get(name) in ("count", "bytes")


# ---------------------------------------------------------------------------
# Environment record


def environment():
    import numpy as np
    blas = {}
    with contextlib.suppress(Exception):
        cfg = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: cfg.get(k) for k in ("name", "version")}
    cpu = ""
    # /proc/cpuinfo is the kernel's description of this machine
    with contextlib.suppress(OSError):
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    files = sorted(SRC.rglob("*.py"))
    h = hashlib.sha256()
    lines = 0
    for p in files:
        data = p.read_bytes()
        h.update(str(p.relative_to(SRC)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "platform": platform.platform(),
        # null where the checkout is not a git repository; the source
        # digest identifies the code either way
        "commit": git_commit(),
        "src_sha256": h.hexdigest(),
        "src_lines": lines,
    }


def git_commit():
    """HEAD of the checkout when the checkout is itself a git repository.
    The search stops at the checkout: an enclosing repository is not it."""
    if not (ROOT / ".git").exists():
        return None
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=30)
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def inputs_digest(cases):
    h = hashlib.sha256()
    for c in cases:
        h.update(Path(c.path).read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# Main


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    pkg, cli = load_program()
    tmp_root = ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    tmp = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=tmp_root)
    try:
        cases = workloads.make_cases(args.workload, args.seed, str(ROOT), tmp)
        detail = {"workload": args.workload, "seed": args.seed,
                  "seconds": args.seconds, "trace": args.trace,
                  "env": environment(), "inputs": [c.name for c in cases],
                  "inputs_sha256": inputs_digest(cases)}
        if args.trace:
            metrics = measure_traced(pkg, cli, cases, args.seconds, detail)
        else:
            metrics = measure_plain(pkg, cli, cases, args.seconds, detail)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        with contextlib.suppress(OSError):
            tmp_root.rmdir()
    chk = detail.pop("checker")
    detail["errors"] = chk.errors[:50]
    detail["report_sha256"] = chk.report_digest()
    correct = (chk.failed == 0 and not detail.get("inconsistent")
               and not detail.get("missing_wrappers"))
    print(json.dumps({"perfbench": detail}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": chk.attempted,
                      "failed": chk.failed, "metrics": metrics}))
    return 0


def measure_plain(pkg, cli, cases, seconds, detail):
    t_start = perf_counter()
    setup_probe(cases)  # warm-up: writes the bytecode caches
    chk = Checker(cases)
    setup, passes, slowest = [], [], []
    per_case = [[] for _ in cases]

    def next_fits():
        """Another probe and pass, and the probes still owed after them,
        end within ``seconds`` of the start."""
        probe = statistics.median(setup)
        owed = max(0, SETUP_PROBES - len(setup) - 1)
        return (perf_counter() - t_start + statistics.median(passes)
                + probe * (1 + owed) <= seconds)

    # a set-up probe before each pass samples set-up over the same stretch
    # of the run as the passes, not only its first seconds
    while len(passes) < MIN_PASSES or next_fits():
        setup.append(setup_probe(cases))
        total, times, codes, outputs = run_pass(pkg, cli, cases)
        chk.check(codes, outputs, f"pass {len(passes)}")
        # the outputs are the harness's, not the program's: drop them
        # before the next pass so that they do not count in its peak RSS
        del outputs
        passes.append(total)
        slowest.append(max(times))
        for lst, t in zip(per_case, times):
            lst.append(t)
    while len(setup) < SETUP_PROBES:
        setup.append(setup_probe(cases))
    detail.update(checker=chk, setup_s=setup, pass_s=passes,
                  slowest_problem_s=slowest,
                  case_median_s={c.name: statistics.median(ts)
                                 for c, ts in zip(cases, per_case)})
    mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "pass_s": {"value": statistics.median(passes), "unit": "s"},
        "slowest_problem_s": {"value": statistics.median(slowest),
                              "unit": "s"},
        "peak_rss_mb": {"value": mb, "unit": "MB"},
    }


def measure_traced(pkg, cli, cases, seconds, detail):
    tr = tracing.Tracer()
    chk = Checker(cases)
    plain, traced, layer_runs, shares = [], [], [], []
    t_start = perf_counter()
    while (len(traced) < MIN_TRACED or perf_counter() - t_start
           + statistics.median(plain) + statistics.median(traced)
           <= seconds):
        total, _, codes, outputs = run_pass(pkg, cli, cases)
        chk.check(codes, outputs, f"untraced pass {len(plain)}")
        plain.append(total)
        total, _, codes, outputs = run_pass(pkg, cli, cases, tr)
        chk.check(codes, outputs, f"traced pass {len(traced)}")
        nbytes = sum(len(o.encode()) for o in outputs)
        del outputs
        traced.append(total)
        times, counts, incl = tr.layers()
        tr.reset()
        layer_runs.append(layer_metrics(times, counts, incl, nbytes))
        shares.append(times)
    if tr.missing:
        # their layers would read 0, a false 100% gain: the run is not
        # correct
        print(f"perfbench: not wrapped (missing): {', '.join(tr.missing)}",
              file=sys.stderr)
    metrics = {}
    inconsistent = []
    for name in layer_runs[0]:
        values = [run[name] for run in layer_runs]
        if is_work_counter(name):
            if len(set(values)) != 1:
                inconsistent.append(f"{name}: {values}")
            value = values[0]
        else:
            value = statistics.median(values)
        metrics[name] = {"value": value, "unit": UNITS[name]}
    overhead = statistics.median(traced) / statistics.median(plain) - 1.0
    metrics["trace.overhead_frac"] = {"value": overhead, "unit": "ratio"}
    base = statistics.median(traced)
    layer_s = {k: statistics.median(s.get(k, 0.0) for s in shares)
               for k in sorted(set().union(*shares))}
    layer_s["(outside spans)"] = base - sum(layer_s.values())
    detail.update(
        checker=chk, untraced_pass_s=plain, traced_pass_s=traced,
        inconsistent=inconsistent, missing_wrappers=tr.missing,
        layer_share={"base": f"median traced pass_s = {base:.4f} s over "
                             f"{len(traced)} passes",
                     **{k: round(v / base, 4) for k, v in layer_s.items()}},
        counters={k: v["value"] for k, v in metrics.items()
                  if is_work_counter(k)})
    return metrics


UNITS = {name: ("s" if name.endswith("_s") else
                "bytes" if name.endswith("_bytes") else
                "ratio" if name.endswith("_ratio") else "count")
         for name in layer_metrics({}, {}, {}, 0)}

if __name__ == "__main__":
    sys.exit(main())
