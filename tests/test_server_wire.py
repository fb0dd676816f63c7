"""The one description of a reply (:mod:`repro.server.wire`).

Errors and results are described once — the same dictionaries are an
HTTP body and a shard pipe reply — and rebuilt once by the router.
These tests round-trip every ``PXMLError`` subclass and the result
values the interpreter really produces, through JSON (what HTTP sends)
and through pickle (what the pipe sends).  No process is spawned.
"""

from __future__ import annotations

import json
import pickle

import pytest

import repro.server  # noqa: F401 - imports every module defining an error
from repro.check.diagnostics import CheckError, Diagnostic
from repro.errors import (
    BudgetExceeded,
    Overloaded,
    PXMLError,
    RemoteExecutionError,
    ShardUnavailable,
    UnknownLabelError,
)
from repro.pxql.interpreter import Interpreter
from repro.server.wire import (
    _REBUILT,
    describe_error,
    describe_result,
    rebuild_error,
    rebuild_result,
)
from repro.storage.database import Database
from tests.test_server_sharded import build_bib


def subclasses(cls):
    for sub in cls.__subclasses__():
        yield sub
        yield from subclasses(sub)


def example(cls) -> PXMLError:
    if cls is UnknownLabelError:
        return cls("B1", "title")
    if cls is CheckError:
        return cls([Diagnostic("PX201", "error", "unknown instance 'x'")])
    return cls("boom")


def over_json(description):
    return json.loads(json.dumps(description))


ATTRIBUTED = [
    Overloaded("full", reason="draining"),
    BudgetExceeded("slow", limit="deadline", where="Project"),
    ShardUnavailable("down", shard=3),
    RemoteExecutionError("shard 1 raised X: y", remote_type="X"),
]


class TestErrors:
    @pytest.mark.parametrize(
        "cls", sorted(set(subclasses(PXMLError)), key=lambda c: c.__name__),
        ids=lambda c: c.__name__,
    )
    def test_every_error_round_trips_typed(self, cls):
        error = example(cls)
        rebuilt = rebuild_error(over_json(describe_error(error)), shard=1)
        if cls.__name__ in _REBUILT:
            assert type(rebuilt) is cls
            assert str(rebuilt) == str(error)
        else:
            assert type(rebuilt) is RemoteExecutionError
            assert rebuilt.remote_type == cls.__name__
            assert str(rebuilt) == f"shard 1 raised {cls.__name__}: {error}"

    @pytest.mark.parametrize("error", ATTRIBUTED, ids=lambda e: type(e).__name__)
    def test_attributes_survive(self, error):
        rebuilt = rebuild_error(over_json(describe_error(error)), shard=0)
        for attr in ("reason", "limit", "where", "shard", "remote_type"):
            assert getattr(rebuilt, attr, None) == getattr(error, attr, None), attr

    def test_a_failed_check_carries_its_error_codes(self):
        error = CheckError([
            Diagnostic("PX301", "error", "unknown instance"),
            Diagnostic("PX240", "warning", "never matches"),
        ])
        description = describe_error(error)
        assert description["codes"] == ["PX301"]
        rebuilt = rebuild_error(over_json(description), shard=2)
        assert isinstance(rebuilt, RemoteExecutionError)
        assert (rebuilt.remote_type, rebuilt.codes) == ("CheckError", ("PX301",))
        # ... and describes itself the same way on the way out over HTTP.
        assert describe_error(rebuilt)["codes"] == ["PX301"]

    def test_no_empty_attributes(self):
        assert describe_error(RuntimeError("boom")) == {
            "type": "RuntimeError", "message": "boom",
        }


@pytest.fixture(scope="module")
def interpreter():
    database = Database()
    database.register("bib", build_bib())
    return Interpreter(database=database)


class TestResults:
    @pytest.mark.parametrize("text, expected", [
        ("EXISTS R.book.author IN bib", float),
        ("DIST R.book IN bib", dict),
        ("LIST", list),
    ])
    def test_json_values_cross_as_themselves(self, interpreter, text, expected):
        result = interpreter.execute(text)
        assert isinstance(result.value, expected)
        # The pipe pickles: DIST keeps its int keys.
        piped = rebuild_result(pickle.loads(pickle.dumps(describe_result(result))))
        assert piped == result
        # HTTP writes JSON: the description needs no further check.
        json.dumps(describe_result(result))

    @pytest.mark.parametrize("text", [
        "PROJECT R.book FROM bib AS projected",   # an instance
        "PROFILE EXISTS R.book IN bib",           # a span tree
        "CHECK EXISTS R.nolabel IN bib",          # a list of diagnostics
        "EXPLAIN LINT EXISTS R.nolabel IN bib",   # the same, with a plan
    ])
    def test_other_values_cross_as_the_statements_text(self, interpreter, text):
        result = interpreter.execute(text)
        description = describe_result(result)
        assert description["value"] == result.text
        assert over_json(description) == description
        rebuilt = rebuild_result(pickle.loads(pickle.dumps(description)))
        assert (rebuilt.value, rebuilt.instance_name, rebuilt.text) == (
            result.text, result.instance_name, result.text,
        )

    def test_a_list_is_json_only_all_the_way_down(self, interpreter):
        result = interpreter.execute("CHECK EXISTS R.nolabel IN bib")
        assert isinstance(result.value, list) and result.value
        assert describe_result(result)["value"] == result.text
