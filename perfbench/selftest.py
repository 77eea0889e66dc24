"""Self-test of the benchmark's own checks.

    python3 perfbench/selftest.py

On seed 1, for every workload:

1. The oracle accepts every real output of one pass and flags each
   perturbed copy of it (a wrong index, a moved or missing point, a wrong
   exit code, a missing segment or mark).
2. The byte-identity check flags an output that changed between passes.
3. Two traced runs with the same seed give identical work counters and
   identical report digests.

Exits 0 when every check holds.
"""

import json
import re
import subprocess
import sys
import tempfile

import oracle
import run
import workloads

SEED = 1


def _edit_report(fn):
    def perturb(code, text):
        doc = json.loads(text)
        if fn(doc) is False:
            return None
        return code, json.dumps(doc)
    return perturb


def _first_point(doc):
    pts = doc.get("singular_points") or []
    return pts[0] if pts else None


def _bump_total(doc):
    p = _first_point(doc)
    if p is None:
        return False
    p["total_index"]["num"] += 1


def _move_point(key, delta):
    def edit(doc):
        p = _first_point(doc)
        if p is None:
            return False
        p[key][0] = repr(float(p[key][0]) + delta)
    return edit


def _drop_point(doc):
    if not _first_point(doc):
        return False
    doc["singular_points"].pop()


def _bump_orbit_size(doc):
    p = _first_point(doc)
    if p is None:
        return False
    p["orbits"][0]["size"] += 1


def _bump_rhs(doc):
    if doc.get("rhs_index_sum") is None:
        return False
    doc["rhs_index_sum"]["num"] += 2


def _deny_identity(doc):
    if "identity_ok" not in doc:
        return False
    doc["identity_ok"] = False


def _rename_error(doc):
    if "error" not in doc:
        return False
    doc["error"]["type"] = "NoConvergence"


def _exit_code(code, text):
    return (0 if code else 2), text


def _drop_line(code, text):
    return code, text.replace("<line ", "<!-- ", 1)


def _shift_mark(code, text):
    m = re.search(r'<circle cx="([-0-9.]+)"', text)
    if m is None:
        return None
    moved = f'<circle cx="{float(m.group(1)) + 1.0:.3f}"'
    return code, text[:m.start()] + moved + text[m.end():]


def _extra_mark(code, text):
    mark = '<circle cx="1.000" cy="1.000" r="4" fill="#c0392b"/>\n</g>'
    return code, text.replace("</g>", mark, 1)


PERTURBATIONS = {
    "analyze": {
        "total index": _edit_report(_bump_total),
        "moved point": _edit_report(_move_point("position", 1e-3)),
        "missing point": _edit_report(_drop_point),
        "orbit size": _edit_report(_bump_orbit_size),
        "exit code": _exit_code,
    },
    "verify-theorem": {
        "rhs": _edit_report(_bump_rhs),
        "identity": _edit_report(_deny_identity),
        "moved umbilic": _edit_report(_move_point("position3", 1e-5)),
        "missing umbilic": _edit_report(_drop_point),
        "error type": _edit_report(_rename_error),
        "exit code": _exit_code,
    },
    "plot": {
        "missing segment": _drop_line,
        "moved mark": _shift_mark,
        "extra mark": _extra_mark,
        "exit code": lambda code, text: (2, text),
    },
}


def check_oracle(workload, seed, pkg, cli):
    failures = []
    flagged = 0
    tmp_root = run.ROOT / ".perfbench_tmp"
    tmp_root.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=tmp_root) as tmp:
        cases = workloads.make_cases(workload, seed, str(run.ROOT), tmp)
        _, _, codes, outputs = run.run_pass(pkg, cli, cases)
        for case, code, text in zip(cases, codes, outputs):
            errs = oracle.check(case, code, text)
            if errs:
                failures.append(f"{case.name}: real output rejected: {errs}")
            for what, perturb in PERTURBATIONS[case.command].items():
                bad = perturb(code, text)
                if bad is None:
                    continue
                if oracle.check(case, *bad):
                    flagged += 1
                else:
                    failures.append(f"{case.name}: {what} not flagged")
        chk = run.Checker(cases)
        chk.check(codes, outputs, "pass 0")
        changed = list(outputs)
        changed[0] += " "
        chk.check(codes, changed, "pass 1")
        if chk.failed != 1:
            failures.append("a changed output was not flagged")
    print(f"{workload}: oracle flagged {flagged} perturbed outputs, "
          f"{len(failures)} failures")
    return failures


def traced_counters(workload, seed):
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        return None, proc.stderr
    lines = proc.stdout.strip().splitlines()
    detail = json.loads(lines[-2])["perfbench"]
    result = json.loads(lines[-1])
    return (detail["counters"], detail["report_sha256"],
            result["correct"]), ""


def check_determinism(workload, seed):
    first, err1 = traced_counters(workload, seed)
    second, err2 = traced_counters(workload, seed)
    if first is None or second is None:
        return [f"{workload}: traced run failed: {err1 or err2}"]
    failures = []
    if not (first[2] and second[2]):
        failures.append(f"{workload}: a traced run was not correct")
    if first[1] != second[1]:
        failures.append(f"{workload}: report digests differ")
    diff = {k: (v, second[0].get(k)) for k, v in first[0].items()
            if second[0].get(k) != v}
    if diff:
        failures.append(f"{workload}: counters differ: {diff}")
    print(f"{workload}: {len(first[0])} work counters repeat "
          f"{'exactly' if not diff else 'NOT exactly'} across two traced "
          "runs")
    return failures


def main():
    pkg, cli = run.load_program()
    failures = []
    for wl in workloads.WORKLOADS:
        failures += check_oracle(wl, SEED, pkg, cli)
        failures += check_determinism(wl, SEED)
    for f in failures:
        print("FAIL", f)
    print("selftest", "failed" if failures else "passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
