#!/usr/bin/env python3
"""Diff every bench's and example's outputs across thread counts or
across two builds, from one manifest.

    python3 tools/diff_outputs.py --threads build
    python3 tools/diff_outputs.py --against BASE_BUILD NEW_BUILD --set both
    python3 tools/diff_outputs.py --run build-asan chaos_availability

Every bench and example prints the same bytes at any thread count and
across any refactor, apart from the lines it measures on the host.
tools/outputs.json lists each of them once, keyed by binary name:

  source      the file it is built from (bench/*.cc or examples/*.cpp)
  smoke       argument list of its short run
  full        argument list of its full-size run
  writes      file names it writes (relative to its working directory);
              every argument list names each of them
  host        regexes for its host-measured stdout lines (re.search)
  not_diffed  optional: "all" (every line is host-measured: never
              diffed) or "self-gated" (the binary compares its own
              serial and parallel results: not diffed by --threads)
  why         the reason, required with host patterns or not_diffed

--threads BUILD runs each entry from BUILD at DRS_THREADS=1 and at the
default thread count. --against BASE NEW runs each from two builds at
the default. Both modes compare stdout, with every host-measured line
masked, and each written file byte for byte. An entry fails if either
run exits non-zero or misses a written file, if any compared line or
byte differs, or if one of its host patterns matches no line of a run
(the pattern is stale). --run BUILD runs each entry once and checks
only its exit status and written files (the sanitizer builds use it).

Each run has a fresh working directory, so "wrote F" lines are equal
on both sides. --keep DIR copies the written files of the second run
(the default-thread or NEW one) into DIR; the manifest's written names
are unique, so they do not collide. Positional names restrict the run
to those entries. Nothing is timed: tools/ab_pairs.py is the timing
tool. Exits 1 on any failure, 2 on a bad manifest. Stdlib only.
"""

import argparse
import difflib
import json
import os
import re
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MANIFEST = ROOT / "tools" / "outputs.json"
KEYS = {"source", "smoke", "full", "writes", "host", "not_diffed", "why"}
NOT_DIFFED = {"all", "self-gated"}
SOURCE_GLOBS = ["bench/*.cc", "examples/*.cpp"]
HOST_MASK = "<host-measured>"
DIFF_LINES = 20    # of each differing output, printed on a failure


class ManifestError(Exception):
    pass


def _unique_keys(pairs):
    keys = [k for k, _ in pairs]
    dups = sorted({k for k in keys if keys.count(k) > 1})
    if dups:
        raise ManifestError(f"duplicate keys: {', '.join(dups)}")
    return dict(pairs)


def _string_list(value):
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def check_manifest(manifest, root=ROOT):
    """Problems with @p manifest against the sources under @p root."""
    problems = []
    sources = {str(p.relative_to(root))
               for g in SOURCE_GLOBS for p in root.glob(g)}
    named = set()
    written = {}
    for name, entry in manifest.items():
        where = f"{name}:"
        if not isinstance(entry, dict):
            problems.append(f"{where} not an object")
            continue
        for key in sorted(set(entry) - KEYS):
            problems.append(f"{where} unknown key {key!r}")
        for key in ("source", "smoke", "full", "writes", "host"):
            if key not in entry:
                problems.append(f"{where} no {key!r}")
        source = entry.get("source")
        if not isinstance(source, str) or source not in sources:
            problems.append(f"{where} names no bench or example source "
                            f"({source!r})")
        elif Path(source).stem != name:
            problems.append(f"{where} source {source} builds "
                            f"{Path(source).stem}")
        else:
            named.add(source)
        for key in ("smoke", "full", "writes", "host"):
            if key in entry and not _string_list(entry[key]):
                problems.append(f"{where} {key!r} is not a list of strings")
        host = entry.get("host")
        for pattern in host if _string_list(host) else []:
            if not pattern:
                problems.append(f"{where} empty host pattern")
                continue
            try:
                re.compile(pattern)
            except re.error as err:
                problems.append(f"{where} host pattern {pattern!r}: {err}")
        if _string_list(entry.get("writes")):
            for f in entry["writes"]:
                if not f or "/" in f or f in (".", ".."):
                    problems.append(f"{where} written name {f!r} is not a "
                                    "plain file name")
                if f in written:
                    problems.append(f"{where} writes {f}, as does "
                                    f"{written[f]}")
                written[f] = name
                for key in ("smoke", "full"):
                    if _string_list(entry.get(key)) and f not in entry[key]:
                        problems.append(f"{where} {key} arguments do not "
                                        f"name {f}")
        reason = entry.get("not_diffed")
        if reason is not None and reason not in NOT_DIFFED:
            problems.append(f"{where} not_diffed {reason!r} is not one of "
                            f"{sorted(NOT_DIFFED)}")
        needs_why = reason is not None or host
        why = entry.get("why")
        if needs_why and not (isinstance(why, str) and why.strip()):
            problems.append(f"{where} host patterns or not_diffed need a "
                            "'why'")
    for source in sorted(sources - named):
        problems.append(f"{source}: no manifest entry")
    return problems


def load_manifest(path=MANIFEST, root=ROOT):
    with open(path) as f:
        manifest = json.load(f, object_pairs_hook=_unique_keys)
    if not isinstance(manifest, dict):
        raise ManifestError("the manifest is not an object")
    problems = check_manifest(manifest, root)
    if problems:
        raise ManifestError("\n".join(problems))
    return manifest


class Run:
    """One run's outcome: stdout lines and the written files' bytes."""

    def __init__(self, label, stdout, files, error=None):
        self.label = label
        self.lines = stdout.splitlines()
        self.files = files      # name -> bytes, or None when missing
        self.error = error      # why the run failed, or None


def run_binary(label, binary, args, writes, threads, keep=None):
    """Run @p binary in a fresh directory; threads None is the default."""
    binary = Path(binary).resolve()
    env = dict(os.environ)
    env.pop("DRS_THREADS", None)
    if threads is not None:
        env["DRS_THREADS"] = str(threads)
    with tempfile.TemporaryDirectory(prefix="diff_outputs.") as cwd:
        try:
            proc = subprocess.run([str(binary), *args], cwd=cwd, env=env,
                                  stdin=subprocess.DEVNULL,
                                  stdout=subprocess.PIPE,
                                  stderr=subprocess.PIPE)
        except OSError as err:
            return Run(label, "", {}, f"cannot run {binary}: {err}")
        stdout = proc.stdout.decode(errors="replace")
        files = {}
        for name in writes:
            path = Path(cwd) / name
            files[name] = path.read_bytes() if path.is_file() else None
            if keep is not None and files[name] is not None:
                shutil.copyfile(path, Path(keep) / name)
    error = None
    if proc.returncode != 0:
        tail = proc.stderr.decode(errors="replace").strip().splitlines()
        error = f"exit {proc.returncode}" + (
            f": {tail[-1]}" if tail else "")
    else:
        missing = [n for n, data in files.items() if data is None]
        if missing:
            error = f"did not write {', '.join(missing)}"
    return Run(label, stdout, files, error)


def mask(lines, patterns):
    """@p lines with host-measured ones masked, and each pattern's hits."""
    hits = [0] * len(patterns)
    out = []
    for line in lines:
        matched = False
        for i, pattern in enumerate(patterns):
            if re.search(pattern, line):
                hits[i] += 1
                matched = True
        out.append(HOST_MASK if matched else line)
    return out, hits


def compare(entry, a, b):
    """Problems between runs @p a and @p b of one manifest entry."""
    problems = [f"{r.label}: {r.error}" for r in (a, b) if r.error]
    if problems:
        return problems
    patterns = entry["host"]
    masked = []
    for r in (a, b):
        lines, hits = mask(r.lines, patterns)
        masked.append(lines)
        for pattern, n in zip(patterns, hits):
            if n == 0:
                problems.append(f"{r.label}: host pattern {pattern!r} "
                                "matches no line (stale)")
    if masked[0] != masked[1]:
        diff = list(difflib.unified_diff(masked[0], masked[1], a.label,
                                         b.label, lineterm="", n=1))
        problems.append("stdout differs:\n" + "\n".join(diff[:DIFF_LINES]))
    for name in entry["writes"]:
        if a.files[name] != b.files[name]:
            left = a.files[name].decode(errors="replace").splitlines()
            right = b.files[name].decode(errors="replace").splitlines()
            diff = list(difflib.unified_diff(left, right,
                                             f"{a.label}/{name}",
                                             f"{b.label}/{name}",
                                             lineterm="", n=0))
            problems.append(f"{name} differs:\n" +
                            "\n".join(d[:200] for d in diff[:DIFF_LINES]))
    return problems


def summary(entry, run):
    host = sum(1 for line in mask(run.lines, entry["host"])[0]
               if line == HOST_MASK)
    text = f"stdout {len(run.lines)} lines, {host} host-measured"
    for name, data in run.files.items():
        text += f"; {name} {len(data)} B"
    return text


def main():
    ap = argparse.ArgumentParser(
        description=__doc__.split("\n\n")[0],
        formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--threads", metavar="BUILD",
                      help="diff DRS_THREADS=1 against the default")
    mode.add_argument("--against", nargs=2, metavar=("BASE", "NEW"),
                      help="diff two builds at the default thread count")
    mode.add_argument("--run", metavar="BUILD",
                      help="run each entry once, diffing nothing")
    ap.add_argument("--set", choices=["smoke", "full", "both"],
                    default="smoke", help="argument sets to run")
    ap.add_argument("--keep", metavar="DIR",
                    help="copy the second run's written files here")
    ap.add_argument("names", nargs="*", help="only these entries")
    args = ap.parse_args()

    try:
        manifest = load_manifest()
    except (ManifestError, ValueError) as err:
        print(f"diff_outputs: bad manifest {MANIFEST}:\n{err}",
              file=sys.stderr)
        return 2
    unknown = [n for n in args.names if n not in manifest]
    if unknown:
        print(f"diff_outputs: no manifest entry for {', '.join(unknown)}",
              file=sys.stderr)
        return 2
    if args.keep:
        os.makedirs(args.keep, exist_ok=True)
    sets = ["smoke", "full"] if args.set == "both" else [args.set]

    failed = 0
    checked = 0
    for name in args.names or manifest:
        entry = manifest[name]
        reason = entry.get("not_diffed")
        if (reason == "all" and not args.run) or (
                reason == "self-gated" and args.threads):
            print(f"skip  {name}: not diffed ({reason})")
            continue
        # Equal argument sets run once, named together ("smoke=full").
        argsets = {}
        for which in sets:
            argsets.setdefault(tuple(entry[which]), []).append(which)
        for argv, which in argsets.items():
            tag = f"{name} {'='.join(which)}"
            writes = entry["writes"]
            if args.run:
                runs = [run_binary("run", Path(args.run) / name, argv,
                                   writes, None, args.keep)]
                problems = [f"run: {runs[0].error}"] if runs[0].error else []
            elif args.threads:
                binary = Path(args.threads) / name
                runs = [run_binary("DRS_THREADS=1", binary, argv, writes, 1),
                        run_binary("default", binary, argv, writes, None,
                                   args.keep)]
                problems = compare(entry, *runs)
            else:
                base, new = args.against
                runs = [run_binary("base", Path(base) / name, argv, writes,
                                   None),
                        run_binary("new", Path(new) / name, argv, writes,
                                   None, args.keep)]
                problems = compare(entry, *runs)
            checked += 1
            if problems:
                failed += 1
                print(f"FAIL  {tag}")
                for p in problems:
                    print("      " + p.replace("\n", "\n      "))
            elif args.run:
                print(f"ok    {tag}")
            else:
                print(f"same  {tag}: {summary(entry, runs[-1])}")
            sys.stdout.flush()
    print(f"{checked} run sets, {failed} failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
