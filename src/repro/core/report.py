"""Warning-report generation (paper §4.6, Fig 7).

Each report carries five items aimed at developers with little networking
background: the NPD information (API + location), the UX impact, the
request context (user vs. background), the call stack from an entry
point, and a concrete fix suggestion.
"""

from __future__ import annotations

from .._record import record
from .defects import FIX_SUGGESTIONS, KIND_IMPACT
from .findings import Finding


@record
class WarningReport:
    """A rendered NChecker warning (Fig 7 structure)."""

    npd_information: str
    npd_impact: str
    request_context: str
    call_stack: list[str]
    fix_suggestion: str

    def render(self) -> str:
        lines = [
            "NPD Information",
            f"  {self.npd_information}",
            "NPD impact",
            f"  {self.npd_impact}",
            "Network request context",
            f"  {self.request_context}",
            "Network request call stack",
        ]
        lines.extend(f"  {frame}" for frame in self.call_stack)
        lines.append("Fix Suggestion")
        lines.append(f"  {self.fix_suggestion}")
        return "\n".join(lines)


def build_report(finding: Finding) -> WarningReport:
    """Assemble the §4.6 report for one finding."""
    kind = finding.kind
    impact = KIND_IMPACT[kind]
    target = (
        finding.request.target.qualified if finding.request is not None else "request"
    )
    suggested_api = finding.details.get("suggested_api", target)
    fix = FIX_SUGGESTIONS[kind].format(api=suggested_api, target=target)

    context_line = {
        "user": (
            "Request made by user. Need to notify users if connection is "
            "unavailable."
        ),
        "background": (
            "Request made by a background service. Avoid retries and cache "
            "the operation to save energy."
        ),
        "both": "Request reachable from both user actions and background services.",
        "unknown": "Request context could not be determined.",
    }[finding.context]

    call_stack = _call_stack_lines(finding)
    return WarningReport(
        npd_information=f"{finding.message}! at {finding.location}",
        npd_impact=impact.value,
        request_context=context_line,
        call_stack=call_stack,
        fix_suggestion=fix,
    )


def _call_stack_lines(finding: Finding) -> list[str]:
    if finding.request is None or not finding.request.chains:
        cls, name, _ = finding.method_key
        return [f"({cls.rsplit('.', 1)[-1]}.{name}: {finding.stmt_index})"]
    chain = min(finding.request.chains, key=len)
    frames = chain.frames()
    frames.append((finding.request.key, finding.request.stmt_index))
    lines = []
    for depth, (key, site) in enumerate(frames):
        cls, name, _ = key
        prefix = "" if depth == 0 else "-" * depth + "> "
        lines.append(f"{prefix}({cls.rsplit('.', 1)[-1]}.{name}: {site})")
    return lines
