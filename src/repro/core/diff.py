"""Scan diffing: what changed between two versions of an app.

Supports the patch-review workflow (`nchecker diff old.apkt new.apkt`):
which findings a change fixed, which it introduced, and which persist.
Findings are matched by (class, method, defect kind) — statement indices
shift under edits, method identity does not.
"""

from __future__ import annotations

from .._record import field, record
from .checker import ScanResult
from .findings import Finding

#: Matching key: (class name, method name, kind value).
FindingKey = tuple[str, str, str]


def finding_key(finding: Finding) -> FindingKey:
    return (finding.method_key[0], finding.method_key[1], finding.kind.value)


@record
class ScanDiff:
    """Findings fixed / introduced / persisting between two scans."""

    fixed: list[Finding] = field(default_factory=list)
    introduced: list[Finding] = field(default_factory=list)
    persisting: list[Finding] = field(default_factory=list)

    def summary(self) -> str:
        return (
            f"{len(self.fixed)} fixed, {len(self.introduced)} introduced, "
            f"{len(self.persisting)} persisting"
        )

    def render(self) -> str:
        lines = [self.summary()]
        for label, findings in (
            ("fixed", self.fixed),
            ("introduced", self.introduced),
            ("persisting", self.persisting),
        ):
            for finding in findings:
                lines.append(f"  {label:11s} {finding}")
        return "\n".join(lines)


def diff_scans(before: ScanResult, after: ScanResult) -> ScanDiff:
    """Compare two scan results (typically of the same app pre/post edit).

    Multiple findings with the same key are matched by multiplicity: two
    missed-timeout findings in one method count as fixed only when both
    disappear.
    """
    diff = ScanDiff()
    after_pool: dict[FindingKey, list[Finding]] = {}
    for finding in after.findings:
        after_pool.setdefault(finding_key(finding), []).append(finding)
    for finding in before.findings:
        bucket = after_pool.get(finding_key(finding))
        if bucket:
            diff.persisting.append(bucket.pop(0))
        else:
            diff.fixed.append(finding)
    for bucket in after_pool.values():
        diff.introduced.extend(bucket)
    return diff
