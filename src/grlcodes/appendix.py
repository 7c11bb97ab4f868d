"""Built-in reference examples with verified expected parameters.

The specs live as JSON data files (version-controlled ground truth, one
per row) so the tables stay auditable; each row carries the claim made
by the source material and the values verified under this library's
pinned field convention, which differ only where a row's `note` says so.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

from .classify import classify
from .gf import GrlError
from .grl import GrlSpec
from .hull import HERMITIAN


@dataclass
class AppendixRow:
    id: str
    inner: str
    spec: GrlSpec
    expect: dict
    source_claim: str
    note: str | None

    def run(self):
        rep = classify(self.spec)
        hull = rep.hull_h if self.inner == HERMITIAN else rep.hull_e
        computed = {"n": rep.n, "k": rep.k, "d": rep.d,
                    "label": rep.label, "lcd": hull.is_lcd}
        passed = computed == self.expect
        return RowResult(id=self.id, expect=self.expect, computed=computed,
                         passed=passed, source_claim=self.source_claim,
                         note=self.note, report=rep)


@dataclass
class RowResult:
    id: str
    expect: dict
    computed: dict
    passed: bool
    source_claim: str
    note: str | None
    report: object

    def to_json_dict(self):
        out = {"id": self.id, "expect": self.expect,
               "computed": self.computed, "passed": self.passed,
               "source_claim": self.source_claim}
        if self.note:
            out["note"] = self.note
        return out

    def line(self):
        c = self.computed
        mark = "PASS" if self.passed else "FAIL"
        return (f"{self.id:22s} [{c['n']},{c['k']},{c['d']}] "
                f"{c['label']:5s} lcd={str(c['lcd']).lower():5s} {mark}")


def _data_dir():
    return resources.files("grlcodes").joinpath("appendix_data")


def load_rows(which: str = "all") -> list[AppendixRow]:
    index = json.loads(_data_dir().joinpath("index.json").read_text())
    names = []
    if which in ("A", "all"):
        names += index["A"]
    if which in ("B", "all"):
        names += index["B"]
    if not names:
        raise GrlError(f"unknown appendix selection {which!r}")
    rows = []
    for name in names:
        d = json.loads(_data_dir().joinpath(name).read_text())
        rows.append(AppendixRow(id=d["id"], inner=d["inner"],
                                spec=GrlSpec.from_json_dict(d["spec"]),
                                expect=d["expect"],
                                source_claim=d["source_claim"],
                                note=d.get("note")))
    return rows


def run_appendix(which: str = "all") -> list[RowResult]:
    return [row.run() for row in load_rows(which)]
