"""``python -m docs.check``'s artifact check: every cited BENCH/TRACE file
exists, and no committed BENCH file records a failed acceptance check."""

import json

from docs.check import check_artifacts


def write(root, name, text):
    (root / name).write_text(text, encoding="utf-8")


def bench(acceptance):
    return json.dumps({"benchmark": "demo", "acceptance": acceptance})


class TestCheckArtifacts:
    def test_cited_and_passing_artifacts_are_clean(self, tmp_path):
        write(tmp_path, "README.md", "See `BENCH_demo.json` and TRACE_demo.json.")
        write(tmp_path, "BENCH_demo.json", bench({"gain": 1.3, "gain_ok": True}))
        write(tmp_path, "TRACE_demo.json", "{}")
        assert check_artifacts(str(tmp_path), ("README.md",)) == []

    def test_missing_cited_artifacts_are_reported(self, tmp_path):
        write(tmp_path, "README.md", "BENCH_gone.json")
        write(tmp_path, "EXPERIMENTS.md", "```\npython x.py --trace TRACE_gone.json\n```")
        assert check_artifacts(str(tmp_path), ("README.md", "EXPERIMENTS.md")) == [
            "README.md: cited artifact missing -> BENCH_gone.json",
            "EXPERIMENTS.md: cited artifact missing -> TRACE_gone.json",
        ]

    def test_false_acceptance_boolean_is_reported_even_uncited(self, tmp_path):
        write(
            tmp_path,
            "BENCH_demo.json",
            bench({"gain": 0.9, "gain_ok": False, "identical": True, "label": "x"}),
        )
        assert check_artifacts(str(tmp_path), ()) == [
            "BENCH_demo.json: acceptance check failed -> gain_ok"
        ]

    def test_committed_artifacts_pass(self):
        assert check_artifacts() == []
