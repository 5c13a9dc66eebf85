"""cooptrack benchmark launcher.

    python3 perfbench/run.py --workload v2v --seed 1 --seconds 40 --trace 0

Run from the root of a source checkout; the package is imported from its
`src/` directory. With `--trace 0` the last line of standard output is a
JSON object holding every end-to-end metric named in BENCHMARK.json; with
`--trace 1` it holds every per-layer metric. The lines before it print the
same metrics with their units, the output fingerprints, whether they match
`perfbench/reference.json`, and the environment. A full record of the run
goes to `.perfbench_out/` in the checkout.
"""

import os
import sys
import time

# Pinned before numpy is first imported, identically on every commit.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS
_IMPORT_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
REFERENCE = os.path.join(ROOT, "perfbench", "reference.json")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True,
                        help="scales the work so that it measures about this long "
                             "at the commit that defined the benchmark")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record-reference", action="store_true",
                        help="store this run's fingerprints in perfbench/reference.json")
    return parser.parse_args(argv)


def import_package():
    """Import cooptrack from this checkout's src/ and nowhere else."""
    src = os.path.join(ROOT, "src")
    sys.path.insert(0, src)
    sys.path.insert(0, ROOT)
    import cooptrack
    if not os.path.abspath(cooptrack.__file__).startswith(src + os.sep):
        raise ImportError(f"cooptrack imported from {cooptrack.__file__}, not {src}")
    from perfbench import layers, workloads
    return layers, workloads


def environment() -> dict:
    import numpy
    import scipy
    env = {"python": platform.python_version(), "numpy": numpy.__version__,
           "scipy": scipy.__version__, "nproc": os.cpu_count(),
           "blas_threads": int(BLAS_THREADS)}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        env["blas"] = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        pass
    return env


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def reference_key(seed: int, seconds: float) -> str:
    """Fingerprints depend on the seed and, through the work done, on `--seconds`."""
    return f"{seed}/{seconds:g}"


def reference_match(workload: str, key: str, fingerprints: dict) -> str:
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            recorded = json.load(fh).get(workload, {}).get(key)
    except FileNotFoundError:
        recorded = None
    if recorded is None:
        return "no reference"
    differ = sorted(k for k in set(recorded) | set(fingerprints)
                    if recorded.get(k) != fingerprints.get(k))
    return "match" if not differ else "mismatch: " + ", ".join(differ)


def record_reference(workload: str, key: str, fingerprints: dict):
    try:
        with open(REFERENCE, encoding="utf-8") as fh:
            data = json.load(fh)
    except FileNotFoundError:
        data = {}
    data.setdefault(workload, {})[key] = fingerprints
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def code_digest() -> str:
    """sha256 of the package sources and the benchmark's own, tests excluded."""
    h = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames[:] = sorted(d for d in dirnames if d not in ("tests", "__pycache__"))
            for name in sorted(f for f in filenames if f.endswith(".py")):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as fh:
                    h.update(fh.read())
    return h.hexdigest()


def compare_untraced(record: dict, untraced_path: str):
    """Tracing overhead and output equality against this seed's untraced run.

    Only a record of the same code, `--seconds` and seed counts; a metric
    the untraced run left undefined is skipped.
    """
    try:
        with open(untraced_path, encoding="utf-8") as fh:
            untraced = json.load(fh)
    except (FileNotFoundError, json.JSONDecodeError):
        return
    if (untraced.get("code_sha256"), untraced.get("seconds")) != (record["code_sha256"],
                                                                  record["seconds"]):
        return
    plain = untraced["result"]["metrics"]
    record["tracing_overhead"] = {
        k: v - plain[k]["value"] for k, v in record["traced"].items()
        if k in plain and plain[k]["value"] is not None and math.isfinite(v)
        and k not in ("setup_s", "peak_rss_mb")}
    record["tracing_changed_outputs"] = untraced["fingerprints"] != record["fingerprints"]


def main(argv=None) -> int:
    args = parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)
    try:
        layers, workloads = import_package()
    except ImportError as exc:
        print(f"error: cannot import the package from {ROOT}/src: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _IMPORT_START
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    workload = workloads.sized(workloads.WORKLOADS[args.workload], args.seconds)

    os.makedirs(OUT_DIR, exist_ok=True)
    work_dir = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    tally = workloads.Tally()
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "rounds": workload.rounds, "epochs": workload.epochs,
              "code_sha256": code_digest(), "environment": environment()}
    try:
        if args.trace:
            spans = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-spans.npz")
            metrics, out = layers.traced_run(workload, args.seed, work_dir, tally,
                                             record, spans)
            section = declared["per_layer"]
        else:
            out = workloads.run_pass(workload, args.seed, work_dir, tally)
            import_s = workloads.Calibrated(out.probes)(import_s)
            record.update(import_s=import_s, setup_s_per_frame=out.setup_s_per_frame)
            metrics = workloads.end_to_end(out, import_s, tally, peak_rss_mb())
            section = declared["end_to_end"]
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    units = {m["name"]: m["unit"] for m in section}
    missing = sorted(set(units) - set(metrics))
    if missing:
        print(f"error: metrics not produced: {missing}", file=sys.stderr)
        return 3
    fingerprints = out.fingerprints()
    # how much slower than quiet the machine ran: what the calibration removed
    record["slowdown"] = statistics.median(out.probes) / workloads.PROBE_QUIET_S
    record["fingerprints"] = fingerprints
    key = reference_key(args.seed, args.seconds)
    record["reference"] = reference_match(args.workload, key, fingerprints)
    if args.trace:
        compare_untraced(record, os.path.join(
            OUT_DIR, f"{args.workload}-seed{args.seed}-trace0.json"))
    if args.record_reference:
        record_reference(args.workload, key, fingerprints)
    finite = all(math.isfinite(metrics[n]) for n in units)
    # a metric a failure left undefined is reported as null, never as NaN
    result = {"correct": tally.failed == 0 and finite,
              "attempted": tally.attempted, "failed": tally.failed,
              "metrics": {n: {"value": metrics[n] if math.isfinite(metrics[n]) else None,
                              "unit": units[n]} for n in units}}
    record.update(result=result, failures=tally.messages, attempted=tally.attempted,
                  failed=tally.failed)
    path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1, sort_keys=True, default=str)

    for name in units:
        print(f"{name:40s} {metrics[name]:>14.6g} {units[name]}")
    for key, digest in sorted(fingerprints.items()):
        print(f"fingerprint {key:24s} {digest}")
    print(f"reference: {record['reference']}")
    if "tracing_overhead" in record:
        print("tracing overhead (traced minus untraced): "
              + json.dumps(record["tracing_overhead"], sort_keys=True))
        print(f"tracing changed outputs: {record['tracing_changed_outputs']}")
    print(f"machine slowdown (median probe over quiet probe): {record['slowdown']:.3f}")
    print("environment: " + json.dumps(record["environment"], sort_keys=True))
    for message in tally.messages:
        print("failure: " + message.strip().replace("\n", " | "))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
