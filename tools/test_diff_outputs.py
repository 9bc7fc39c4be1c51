#!/usr/bin/env python3
"""Tests of tools/outputs.json and tools/diff_outputs.py that run no
binaries.

ManifestCoverage checks the manifest against the bench and example
sources; DiffSelfTest feeds the differ's comparison synthetic runs.

Usage: tools/test_diff_outputs.py [ManifestCoverage | DiffSelfTest]
Stdlib only; run from anywhere.
"""

import copy
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import diff_outputs  # noqa: E402
from diff_outputs import Run, check_manifest, compare  # noqa: E402


class ManifestCoverage(unittest.TestCase):
    def setUp(self):
        self.manifest = diff_outputs.load_manifest()

    def problems(self, manifest):
        return "\n".join(check_manifest(manifest))

    def test_every_source_has_an_entry(self):
        sources = {str(p.relative_to(diff_outputs.ROOT))
                   for g in diff_outputs.SOURCE_GLOBS
                   for p in diff_outputs.ROOT.glob(g)}
        self.assertEqual(
            sources, {e["source"] for e in self.manifest.values()})

    def test_missing_entry_fails(self):
        del self.manifest["cluster_capacity"]
        self.assertIn("bench/cluster_capacity.cc: no manifest entry",
                      self.problems(self.manifest))

    def test_entry_naming_no_source_fails(self):
        self.manifest["fig99_gone"] = dict(
            self.manifest["cluster_capacity"],
            source="bench/fig99_gone.cc")
        self.assertIn("fig99_gone: names no bench or example source",
                      self.problems(self.manifest))
        del self.manifest["fig99_gone"]["source"]
        self.assertIn("fig99_gone: no 'source'",
                      self.problems(self.manifest))

    def test_empty_or_invalid_regex_fails(self):
        entry = self.manifest["quickstart"]
        entry["host"] = [""]
        self.assertIn("quickstart: empty host pattern",
                      self.problems(self.manifest))
        entry["host"] = ["^served ("]
        self.assertIn("quickstart: host pattern '^served ('",
                      self.problems(self.manifest))

    def test_host_patterns_and_skips_give_a_reason(self):
        del self.manifest["quickstart"]["why"]
        del self.manifest["fig03_operator_breakdown"]["why"]
        problems = self.problems(self.manifest)
        self.assertIn("quickstart: host patterns or not_diffed need a 'why'",
                      problems)
        self.assertIn("fig03_operator_breakdown: host patterns or "
                      "not_diffed need a 'why'", problems)
        self.manifest["fig03_operator_breakdown"]["not_diffed"] = "some"
        self.assertIn("not_diffed 'some' is not one of",
                      self.problems(self.manifest))

    def test_written_files_are_named_once_and_in_every_argument_set(self):
        self.manifest["obs_timeline"]["writes"].append("BENCH_chaos.json")
        self.assertIn("obs_timeline: writes BENCH_chaos.json, as does "
                      "chaos_availability", self.problems(self.manifest))
        self.manifest["colocation_sweep"]["full"] = []
        self.assertIn("colocation_sweep: full arguments do not name "
                      "BENCH_colocation.json", self.problems(self.manifest))

    def test_duplicate_keys_fail(self):
        with tempfile.NamedTemporaryFile("w", suffix=".json") as f:
            f.write('{"quickstart": {}, "quickstart": {}}')
            f.flush()
            with self.assertRaisesRegex(diff_outputs.ManifestError,
                                        "duplicate keys: quickstart"):
                diff_outputs.load_manifest(f.name)


ENTRY = {"source": "bench/x.cc", "smoke": ["out.json"], "full": ["out.json"],
         "writes": ["out.json"], "host": ["^wall "], "why": "timed"}
STDOUT = "=== x ===\nrate 100 q/s\nwall 1.25 s\nwrote out.json\n"
FILES = {"out.json": b'{"rate": 100}\n'}


class DiffSelfTest(unittest.TestCase):
    def pair(self, stdout=STDOUT, files=FILES):
        return (Run("a", STDOUT, copy.deepcopy(FILES)),
                Run("b", stdout, copy.deepcopy(files)))

    def test_identical_runs_pass(self):
        self.assertEqual(compare(ENTRY, *self.pair()), [])

    def test_differing_line_fails(self):
        problems = compare(ENTRY, *self.pair(
            STDOUT.replace("rate 100", "rate 101")))
        self.assertEqual(len(problems), 1)
        self.assertIn("stdout differs", problems[0])
        self.assertIn("+rate 101 q/s", problems[0])

    def test_differing_host_measured_line_passes(self):
        self.assertEqual(compare(ENTRY, *self.pair(
            STDOUT.replace("1.25 s", "9.75 s"))), [])

    def test_lost_host_measured_line_fails(self):
        problems = compare(ENTRY, *self.pair(
            STDOUT.replace("wall 1.25 s\n", "")))
        self.assertTrue(any("stdout differs" in p for p in problems))

    def test_differing_written_file_fails(self):
        problems = compare(ENTRY, *self.pair(
            files={"out.json": b'{"rate": 101}\n'}))
        self.assertEqual(len(problems), 1)
        self.assertIn("out.json differs", problems[0])

    def test_stale_host_pattern_fails(self):
        entry = dict(ENTRY, host=["^wall ", "^setup "])
        problems = compare(entry, *self.pair())
        self.assertEqual(len(problems), 2)     # once for each run
        self.assertTrue(all("'^setup ' matches no line (stale)" in p
                            for p in problems))

    def test_failed_run_fails(self):
        a, b = self.pair()
        b.error = "exit 1: fatal: bad rate"
        self.assertEqual(compare(ENTRY, a, b), ["b: exit 1: fatal: bad rate"])


if __name__ == "__main__":
    unittest.main()
