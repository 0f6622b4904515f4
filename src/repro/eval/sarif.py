"""SARIF 2.1.0 export of scan results (``nchecker scan --sarif``).

One ``result`` per :class:`~repro.core.findings.Finding`, so editors and
CI annotators (GitHub code scanning, VS Code SARIF viewer) can surface
NChecker warnings next to the code.  Defect kinds become the run's
``rules``; the finding's method/statement anchor becomes a logical
location plus a region whose ``startLine`` is the 1-based statement
index within the ``.apkt`` artifact.
"""

from __future__ import annotations

from functools import partial
from typing import Iterable, Iterator, Optional, Sequence

from .._jsonwriter import dumps
from ..core.checker import ScanResult
from ..core.defects import DefectKind, Impact, defect_info
from ..core.findings import Finding

SARIF_VERSION = "2.1.0"
SARIF_SCHEMA = (
    "https://raw.githubusercontent.com/oasis-tcs/sarif-spec/master/"
    "Schemata/sarif-schema-2.1.0.json"
)

#: SARIF has three ``level`` values; crash-capable defects are errors.
_LEVEL_BY_IMPACT = {
    Impact.CRASH_FREEZE: "error",
}

#: A result sits four containers deep in the log (log, ``runs``, the
#: run, ``results``): the log starts it on a new line indented eight
#: spaces, after a comma when a result comes before it.
_RESULT_LEVEL = 4
_RESULT_INDENT = "\n" + "  " * _RESULT_LEVEL
_RESULT_SEPARATOR = "," + _RESULT_INDENT


def _rule(kind: DefectKind) -> dict:
    info = defect_info(kind)
    return {
        "id": kind.value,
        "name": kind.name.title().replace("_", ""),
        "shortDescription": {"text": kind.value.replace("-", " ")},
        "fullDescription": {
            "text": f"Root cause: {info.root_cause.value}; "
            f"impact: {info.impact.value}."
        },
        "help": {"text": info.fix_template},
        "defaultConfiguration": {
            "level": _LEVEL_BY_IMPACT.get(info.impact, "warning")
        },
    }


def finding_result(finding: Finding, artifact_uri: Optional[str]) -> dict:
    """The SARIF ``result`` object for one finding."""
    cls, name, arity = finding.method_key
    physical: dict = {
        "region": {"startLine": finding.stmt_index + 1}
    }
    if artifact_uri is not None:
        physical["artifactLocation"] = {"uri": artifact_uri}
    result = {
        "ruleId": finding.kind.value,
        "level": _LEVEL_BY_IMPACT.get(finding.info.impact, "warning"),
        "message": {"text": finding.message},
        "locations": [
            {
                "physicalLocation": physical,
                "logicalLocations": [
                    {
                        "fullyQualifiedName": f"{cls}.{name}",
                        "kind": "function",
                    }
                ],
            }
        ],
        "properties": {
            "context": finding.context,
            "defaultCaused": finding.default_caused,
            "statementIndex": finding.stmt_index,
            "arity": arity,
        },
    }
    return result


def encode_results(findings: Sequence[Finding], artifact_uri: Optional[str]) -> str:
    """The results of ``findings`` as the log writes them, joined by its
    separator (``""`` for none): the text :func:`result_pieces`
    separates from the next app's."""
    return _RESULT_SEPARATOR.join([
        dumps(finding_result(finding, artifact_uri), level=_RESULT_LEVEL)
        for finding in findings
    ])


def result_pieces(result_texts: Iterable[str]) -> Iterator[str]:
    """Each non-empty text of ``result_texts`` (from
    :func:`encode_results`, in output order) behind its separator: the
    pieces :func:`sarif_log_chunks` splices into the log."""
    separator = _RESULT_INDENT
    for text in result_texts:
        if text:
            yield separator + text
            separator = _RESULT_SEPARATOR


def sarif_log_chunks(kind_values: Iterable[str], pieces: Iterable[str]) -> Iterator[str]:
    """The log :func:`assemble_sarif_log` builds, encoded, in pieces:
    its head, then ``pieces`` (the results, as :func:`result_pieces`
    separates them, in any slices), then the closing brackets.

    The head is the log with no results; the pieces are spliced into its
    empty ``results`` list as the encoder would have written them."""
    log = dumps(assemble_sarif_log(kind_values, []))
    # "results" is the run's last key: only closing brackets follow it.
    head, _empty, tail = log.rpartition('"results": []')
    spliced = False
    for piece in pieces:
        if not spliced:
            yield head + '"results": ['
            spliced = True
        yield piece
    if not spliced:
        yield log
        return
    yield "\n" + "  " * (_RESULT_LEVEL - 1) + "]" + tail


class SarifSpool:
    """A ``--sarif`` log written as the apps' results arrive: each app's
    text goes to an unlinked temporary file at once (so the writer holds
    no app's results), and :meth:`chunks` then yields the log, results
    read back from the file in blocks.  The bytes are those of
    :func:`sarif_log_chunks` over the same apps."""

    def __init__(self) -> None:
        import tempfile

        self._file = tempfile.TemporaryFile("w+", encoding="utf-8")
        self._kind_values: set[str] = set()
        self._separator = _RESULT_INDENT

    def add(self, kind_values: Iterable[str], text: str) -> None:
        """One app's finding kinds and :func:`encode_results` text."""
        self._kind_values.update(kind_values)
        if text:
            self._file.write(self._separator)
            self._file.write(text)
            self._separator = _RESULT_SEPARATOR

    def chunks(self) -> Iterator[str]:
        self._file.seek(0)
        return sarif_log_chunks(
            self._kind_values, iter(partial(self._file.read, 1 << 16), "")
        )

    def close(self) -> None:
        self._file.close()


def assemble_sarif_log(kind_values: Iterable[str], results: list[dict]) -> dict:
    """Assemble a SARIF log from pre-rendered pieces.

    ``kind_values`` are the ``DefectKind.value`` strings of every finding
    (duplicates fine — they define the run's rules); ``results`` are
    :func:`finding_result` objects, already in output order.  The batch
    scanner uses this to merge per-worker renderings without touching
    live analysis objects.
    """
    kinds = [DefectKind(value) for value in sorted(set(kind_values))]
    return {
        "$schema": SARIF_SCHEMA,
        "version": SARIF_VERSION,
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": "nchecker",
                        "informationUri": (
                            "https://doi.org/10.1145/2901318.2901353"
                        ),
                        "rules": [_rule(kind) for kind in kinds],
                    }
                },
                "results": list(results),
            }
        ],
    }


def sarif_log(
    results: list[ScanResult], artifact_uris: Optional[list[Optional[str]]] = None
) -> dict:
    """The SARIF log object for one or more scans (one ``run`` total).

    ``artifact_uris`` pairs each scan with the ``.apkt`` path it came
    from; pass ``None`` entries (or omit the list) for in-memory apps.
    """
    if artifact_uris is None:
        artifact_uris = [None] * len(results)
    kind_values = [
        f.kind.value for result in results for f in result.findings
    ]
    sarif_results = [
        finding_result(finding, uri)
        for result, uri in zip(results, artifact_uris)
        for finding in result.findings
    ]
    return assemble_sarif_log(kind_values, sarif_results)


def dumps_sarif(
    results: list[ScanResult], artifact_uris: Optional[list[Optional[str]]] = None
) -> str:
    return dumps(sarif_log(results, artifact_uris))
