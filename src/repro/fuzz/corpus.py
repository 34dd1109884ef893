"""The on-disk finding corpus: persist, load, and replay regressions.

Every minimized finding is one JSON document tagged
:data:`FINDING_SCHEMA`, named ``<oracle>--<digest12>.json`` (the
digest is over the canonical serialization, so re-saving the same
finding is idempotent and distinct findings never collide silently).

A finding record carries everything needed to replay it from nothing:

``oracle`` / ``seed`` / ``profile``
    which relation failed and which generated subject exposed it;
``kind`` / ``source``
    the **minimized** subject as canonical source text;
``original_source``
    the unshrunk generated subject, for triage;
``details``
    the oracle's violation evidence at minimization time;
``shrink_iterations`` / ``shrink_checks``
    the shrinker's effort counters;
``config``
    the analysis configuration the violation was observed under;
``expect``
    ``"violates"`` for an open finding, ``"fixed"`` for a regression
    that a later patch resolved — the checked-in ``tests/fuzz/corpus``
    files are replayed in tier-1 with exactly this expectation.

:func:`replay_finding` re-runs the oracle on the stored source and
reports whether the violation reproduces; the fuzz CLI's ``--replay``
and the tier-1 regression test are both thin wrappers over it.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Dict, List, Optional, Union

from repro.errors import LanguageError, LoadError
from repro.fuzz.oracles import ORACLES, OracleSkip
from repro.lang.parser import parse_subject, read_source

#: Version tag carried by every persisted finding.
FINDING_SCHEMA = "repro-fuzz-finding/1"


def _canonical(record: dict) -> str:
    return json.dumps(record, sort_keys=True, indent=2) + "\n"


def save_finding(directory: Union[str, Path], finding: dict) -> Path:
    """Write one finding record; returns the file path.

    The record is completed with the schema tag and a default
    ``expect`` of ``"violates"``; the filename digest covers the
    completed canonical bytes, so identical findings dedupe on disk.
    """
    record = dict(finding)
    record.setdefault("schema", FINDING_SCHEMA)
    record.setdefault("expect", "violates")
    text = _canonical(record)
    digest = hashlib.sha256(text.encode("utf-8")).hexdigest()[:12]
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    path = directory / f"{record['oracle']}--{digest}.json"
    tmp = path.parent / (path.name + ".tmp")
    try:
        tmp.write_text(text, encoding="utf-8")
        os.replace(tmp, path)
    finally:
        if tmp.exists():  # a failed write must not litter the corpus
            tmp.unlink()
    return path


def load_findings(directory: Union[str, Path]) -> List[dict]:
    """Every finding record in ``directory``, sorted by filename.

    Files that are not valid finding documents raise ``ValueError``
    and a path that is not a directory raises ``LoadError``: a corrupt
    or moved corpus should fail loudly, not silently drop regressions.
    """
    directory = Path(directory)
    if not directory.is_dir():
        raise LoadError(f"cannot read {directory}: not a directory")
    records = []
    for path in sorted(directory.glob("*.json")):
        try:
            record = json.loads(read_source(str(path)))
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path} is not JSON: {exc}") from None
        schema = record.get("schema") if isinstance(record, dict) else None
        if schema != FINDING_SCHEMA:
            raise ValueError(
                f"{path} has schema {schema!r}, expected {FINDING_SCHEMA!r}"
            )
        for key in ("oracle", "kind", "source"):
            if not isinstance(record.get(key), str):
                raise ValueError(f"{path} is missing field {key!r}")
        record["path"] = str(path)
        records.append(record)
    return records


def replay_finding(
    record: dict, config: Optional[Dict[str, object]] = None
) -> dict:
    """Re-run the finding's oracle on its stored minimized source.

    Returns ``{"oracle", "outcome", "reproduced", "expect",
    "as_expected", ...}`` where ``outcome`` is ``"violation"`` /
    ``"pass"`` / ``"skip"`` / ``"error"`` and ``as_expected`` compares
    the outcome against the record's ``expect`` field (an open finding
    should reproduce; a fixed regression should not).  The record's
    ``config``, then ``config``, overlay the pipeline defaults through
    :func:`~repro.pipeline.analyses.merge_config`, so an unknown key or
    an ill-typed value raises ``ValueError``, as does an unknown
    ``kind``.
    """
    from repro.pipeline.analyses import DEFAULT_CONFIG, merge_config

    oracle = record["oracle"]
    if oracle not in ORACLES:
        raise ValueError(f"unknown oracle {oracle!r} in finding record")
    spec = ORACLES[oracle]
    subject = parse_subject(record["source"], record["kind"])
    merged = merge_config(
        DEFAULT_CONFIG, {**(record.get("config") or {}), **(config or {})}
    )
    try:
        outcome = spec.check(subject, merged)
    except Exception as exc:  # noqa: BLE001 - a crash is itself an outcome
        result = {"outcome": "error", "error": f"{type(exc).__name__}: {exc}"}
    else:
        if outcome is None:
            result = {"outcome": "pass"}
        elif isinstance(outcome, OracleSkip):
            result = {"outcome": "skip", "reason": outcome.reason}
        else:
            result = {"outcome": "violation", "details": outcome}
    reproduced = result["outcome"] in ("violation", "error")
    expect = record.get("expect", "violates")
    result.update(
        oracle=oracle,
        reproduced=reproduced,
        expect=expect,
        as_expected=(reproduced == (expect == "violates")),
    )
    return result


def replay_corpus(
    directory: Union[str, Path],
    config: Optional[Dict[str, object]] = None,
) -> List[dict]:
    """Replay every finding in ``directory``; one result per record.

    A record that cannot be replayed (an unknown kind or oracle, a bad
    config, an unparsable source) raises its error prefixed with the
    record's path, as :func:`load_findings` does for a corrupt file.
    """
    results = []
    for record in load_findings(directory):
        try:
            result = replay_finding(record, config=config)
        except ValueError as exc:
            raise ValueError(f"{record['path']}: {exc}") from None
        except LanguageError as exc:
            raise LanguageError(f"{record['path']}: {exc}") from None
        result["path"] = record["path"]
        results.append(result)
    return results
