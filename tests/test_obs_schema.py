"""Golden tests for the v1 event envelope.

Two layers of coverage:

* every registered event kind round-trips through ``envelope`` /
  ``validate_event``, and each required field is genuinely required;
* every emit site in the source tree — found by grepping for
  ``emit("..."`` / ``_emit("..."`` / ``envelope("..."`` — names a kind
  registered in :data:`repro.obs.events.EVENT_KINDS`, so a new emitter
  cannot ship an un-schema'd event without failing here.
"""

import json
import os
import re

import pytest

import repro
from repro.bench.executor import Cell, ExecutorOptions, run_cells
from repro.obs.events import (
    EVENT_KINDS,
    SCHEMA_VERSION,
    SchemaError,
    envelope,
    validate_event,
)
from repro.obs.export import load_events

SRC_ROOT = os.path.dirname(os.path.abspath(repro.__file__))


def _sample_value(types):
    """A value satisfying one required-field type spec."""
    first = types[0]
    if first is bool:
        return True
    if first is int:
        return 1
    if first is float:
        return 1.0
    if first is str:
        return "x"
    if first is list:
        return []
    if first is dict:
        return {}
    raise AssertionError(f"unhandled type spec {types!r}")


def _sample_record(kind):
    spec = EVENT_KINDS[kind]
    return envelope(kind, **{
        field: _sample_value(types) for field, types in spec.required.items()
    })


@pytest.mark.parametrize("kind", sorted(EVENT_KINDS))
def test_every_kind_round_trips(kind):
    record = _sample_record(kind)
    assert record["v"] == SCHEMA_VERSION
    assert record["event"] == kind
    assert record["source"] == EVENT_KINDS[kind].source
    validate_event(record)  # idempotent re-validation
    assert json.loads(json.dumps(record)) == record  # JSONL-safe


@pytest.mark.parametrize("kind", sorted(
    k for k, spec in EVENT_KINDS.items() if spec.required))
def test_every_required_field_is_required(kind):
    for field in EVENT_KINDS[kind].required:
        record = dict(_sample_record(kind))
        del record[field]
        with pytest.raises(SchemaError):
            validate_event(record)


def test_validation_is_open_to_extra_fields():
    record = _sample_record("cell-finish")
    record.update(program="counter", fault="lost-release", seed=3)
    validate_event(record)  # context tagging must stay legal


@pytest.mark.parametrize("kind", ["rollback", "lease-expired", "canary"])
def test_a_removed_kind_is_unknown(kind):
    """The runtime-recovery kinds are gone from v1: a log that still
    carries one fails closed, like any other unknown kind."""
    record = {"v": SCHEMA_VERSION, "event": kind, "source": "resilience",
              "ts": 0.0, "tick": 1, "tid": 0, "section": "s#1"}
    with pytest.raises(SchemaError, match=f"unknown event kind '{kind}'"):
        validate_event(record)


def test_wrong_source_and_version_rejected():
    record = dict(_sample_record("checkpoint"))
    record["source"] = "executor"
    with pytest.raises(SchemaError):
        validate_event(record)
    record = dict(_sample_record("checkpoint"))
    record["v"] = 99
    with pytest.raises(SchemaError):
        validate_event(record)
    with pytest.raises(SchemaError):
        envelope("not-a-kind")


def test_load_events_rejects_other_versions(tmp_path):
    """No pre-v1 stream exists any more: a line that is not a v1 record is
    an error naming the line, not something to upgrade."""
    path = tmp_path / "events.jsonl"
    good = json.dumps(_sample_record("checkpoint"))
    legacy = json.dumps({"event": "checkpoint", "level": 0, "bundles": 1})
    path.write_text(f"{good}\n\n{legacy}\n")
    with pytest.raises(SchemaError, match=r"events\.jsonl:3: schema "
                                          r"version None, expected 1"):
        load_events(str(path))
    path.write_text(json.dumps(dict(_sample_record("checkpoint"), v=2))
                    + "\n")
    with pytest.raises(SchemaError, match=r":1: schema version 2"):
        load_events(str(path))
    path.write_text(f"{good}\n{{truncated\n")
    with pytest.raises(SchemaError, match=r":2: not a JSON record"):
        load_events(str(path))
    path.write_text(f"{good}\n")
    assert [e["event"] for e in load_events(str(path), validate=True)] == [
        "checkpoint"]


# regex over the source tree: a kind literal at an emit call site
_EMIT_SITE = re.compile(r"(?:emit|envelope)\(\s*[\"']([a-z][a-z0-9-]*)[\"']")


def _emitted_kinds():
    found = {}
    for dirpath, _dirnames, filenames in os.walk(SRC_ROOT):
        for filename in filenames:
            if not filename.endswith(".py"):
                continue
            path = os.path.join(dirpath, filename)
            with open(path, encoding="utf-8") as handle:
                text = handle.read()
            for kind in _EMIT_SITE.findall(text):
                found.setdefault(kind, []).append(
                    os.path.relpath(path, SRC_ROOT))
    return found


def test_every_emit_site_uses_a_registered_kind():
    found = _emitted_kinds()
    unknown = {kind: paths for kind, paths in found.items()
               if kind not in EVENT_KINDS}
    assert not unknown, f"emit sites with unregistered kinds: {unknown}"
    # the grep must actually be finding the real emitters
    for expected in ("sweep-start", "cell-finish", "checkpoint",
                     "budget-exhausted", "span", "metrics"):
        assert expected in found, f"emit-site grep lost {expected}"


def test_executor_stream_is_valid_v1(tmp_path):
    events_path = tmp_path / "run.jsonl"
    cells = [Cell(bench="list", config="global", threads=2, n_ops=2,
                  ncores=2)]
    run_cells(cells, ExecutorOptions(
        jobs=1, events_path=str(events_path),
        cache_dir=str(tmp_path / "cache"),
    ))
    lines = events_path.read_text().splitlines()
    assert len(lines) >= 3  # sweep-start, cell lifecycle, sweep-end
    kinds = []
    for line in lines:
        record = json.loads(line)
        validate_event(record)
        kinds.append(record["event"])
    assert kinds[0] == "sweep-start" and kinds[-1] == "sweep-end"
