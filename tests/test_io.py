"""Tests for the JSON and XML codecs."""

import copy
import gc
import json

import pytest

from repro.core.compact import IndependentOPF
from repro.errors import CodecError
from repro.io import json_codec, xml_codec
from repro.paper import (
    example41_s1,
    example52_instance,
    figure1_instance,
    figure2_instance,
)
from repro.protdb.translate import to_pxml
from repro.semantics.global_interpretation import GlobalInterpretation
from repro.workloads.generator import WorkloadSpec, generate_workload


def _two_types_named_t():
    """Leaf ``x`` typed ``t = {1, 2}``, leaf ``y`` typed ``t = {3, 4}``:
    a valid instance no name-keyed file can hold."""
    from repro.core.distributions import TabularOPF, TabularVPF
    from repro.core.instance import ProbabilisticInstance
    from repro.core.interpretation import LocalInterpretation
    from repro.core.weak_instance import WeakInstance
    from repro.semistructured.types import LeafType

    weak = WeakInstance("r")
    interp = LocalInterpretation()
    weak.set_lch("r", "l", ["x", "y"])
    interp.set_opf("r", TabularOPF({("x", "y"): 1.0}))
    for oid, domain in (("x", (1, 2)), ("y", (3, 4))):
        weak.set_type(oid, LeafType("t", domain))
        interp.set_vpf(oid, TabularVPF({domain[0]: 1.0}))
    pi = ProbabilisticInstance(weak, interp)
    pi.validate()
    return pi


class TestJsonProbabilistic:
    def test_two_leaf_types_sharing_a_name_are_refused(self, tmp_path):
        """Keyed by name, the file kept the last domain: ``x`` came back
        with domain (3, 4) and a VPF on 1.  ``SAVE`` fails before any
        disk step."""
        from repro.storage.database import Database

        with pytest.raises(CodecError, match="'t'"):
            json_codec.dumps(_two_types_named_t())
        database = Database(tmp_path)
        before = sorted(path.name for path in tmp_path.rglob("*"))
        database.register("two", _two_types_named_t())
        with pytest.raises(CodecError, match="'t'"):
            database.save("two")
        assert sorted(path.name for path in tmp_path.rglob("*")) == before

    def test_a_child_set_listed_twice_is_refused(self):
        """A dict keeps the last entry: ``A1`` loaded as
        ``{∅: 0.5, {I1}: 0.8}``, an OPF summing to 1.3."""
        data = json.loads(json_codec.dumps(figure2_instance()))
        data["objects"]["A1"]["opf"]["entries"] = [
            [[], 0.2], [[], 0.5], [["I1"], 0.8],
        ]
        with pytest.raises(CodecError, match=r"'A1'.*\[\]"):
            json_codec.loads(json.dumps(data))

    def test_round_trip_figure2(self):
        pi = figure2_instance()
        restored = json_codec.loads(json_codec.dumps(pi))
        restored.validate()
        assert restored.objects == pi.objects
        assert restored.lch("R", "book") == pi.lch("R", "book")
        assert restored.card("B1", "author") == pi.card("B1", "author")
        assert restored.opf("B1").to_tabular() == pi.opf("B1").to_tabular()
        assert restored.vpf("T1").to_tabular() == pi.vpf("T1").to_tabular()

    def test_round_trip_preserves_distribution(self):
        pi = figure2_instance()
        restored = json_codec.loads(json_codec.dumps(pi))
        a = GlobalInterpretation.from_local(pi)
        b = GlobalInterpretation.from_local(restored)
        assert a.is_close_to(b)

    def test_round_trip_generated_workload(self):
        workload = generate_workload(WorkloadSpec(depth=2, branching=2, seed=3))
        pi = workload.instance
        restored = json_codec.loads(json_codec.dumps(pi))
        restored.validate()
        assert restored.total_interpretation_entries() == (
            pi.total_interpretation_entries()
        )

    def test_independent_opf_kind_preserved(self):
        from tests.test_protdb import make_instance

        pi = to_pxml(make_instance())
        restored = json_codec.loads(json_codec.dumps(pi))
        assert isinstance(restored.opf("r"), IndependentOPF)
        assert restored.opf("r").marginal_inclusion("b1") == pytest.approx(0.8)

    def test_file_round_trip(self, tmp_path):
        pi = figure2_instance()
        path = tmp_path / "instance.json"
        written = json_codec.write_instance(pi, path)
        assert written == path.stat().st_size
        restored = json_codec.read_instance(path)
        restored.validate()

    def test_wrong_format_rejected(self):
        with pytest.raises(CodecError):
            json_codec.decode_instance({"format": "something-else"})

    def test_wrong_version_rejected(self):
        payload = json_codec.encode_instance(figure2_instance())
        payload["version"] = 999
        with pytest.raises(CodecError):
            json_codec.decode_instance(payload)

    def test_non_scalar_value_rejected(self):
        from repro.core.builder import InstanceBuilder

        builder = InstanceBuilder("r")
        builder.children("r", "l", ["a"])
        builder.opf("r", {("a",): 1.0})
        builder.leaf("a", "t", [("tuple", "value")], {("tuple", "value"): 1.0})
        pi = builder.build()
        with pytest.raises(CodecError):
            json_codec.dumps(pi)

    def test_output_is_valid_json(self):
        payload = json_codec.dumps(figure2_instance(), indent=2)
        parsed = json.loads(payload)
        assert parsed["root"] == "R"


def _reference_opf_entry(opf):
    """The tabular OPF encoder before tables were keyed by masks: every
    entry's sorted members, smaller sets first."""
    if isinstance(opf, IndependentOPF):
        return {"kind": "independent", "inclusion": opf.inclusion}
    entries = sorted(
        dict(opf.support()).items(),
        key=lambda item: (len(item[0]), sorted(item[0])),
    )
    return {"kind": "tabular", "entries": [[sorted(c), p] for c, p in entries]}


def _catalog_instances(source):
    if source == "figure2":
        return [figure2_instance()]
    if source == "example52":
        return [example52_instance()]
    from benchmarks.e2e.corpus import build_catalog
    from benchmarks.e2e.workloads import WORKLOADS

    return list(build_catalog(WORKLOADS[source].shape, 1).values())


class TestTabularOPFOnMasks:
    @pytest.mark.parametrize("source", [
        "figure2", "example52", "point_single", "point_sharded",
        "scan_cold_single", "derive_write_sharded",
    ])
    def test_the_encoding_is_the_frozenset_encoders(self, source):
        """Byte for byte: the mask table writes the file the frozenset
        table wrote, and reads back to a table that writes it again."""
        for pi in _catalog_instances(source):
            data = json_codec.encode_instance(pi)
            expected = copy.deepcopy(data)
            for oid, entry in expected["objects"].items():
                if "opf" in entry:
                    entry["opf"] = _reference_opf_entry(pi.opf(oid))
            text = json.dumps(data)
            assert text == json.dumps(expected)
            assert json_codec.dumps(json_codec.loads(text)) == text

    def test_an_entry_outside_lch_still_decodes(self):
        """Keyed over every id the rows name; the model's own check,
        not the codec, refuses such an OPF."""
        data = json.loads(json_codec.dumps(figure2_instance()))
        data["objects"]["A1"]["opf"]["entries"] = [[[], 0.5], [["X9"], 0.5]]
        opf = json_codec.loads(json.dumps(data)).opf("A1")
        assert opf.prob(frozenset({"X9"})) == 0.5
        assert "X9" in opf.children

    def test_a_load_adds_few_tracked_objects(self):
        """A tabular OPF is ints and floats over one tuple of the ids
        the weak instance holds: loading a 5,461-object tree (b = 4,
        d = 6) adds under 10,000 objects the cyclic collector tracks,
        where a frozenset per entry made it 31,405."""
        pi = generate_workload(WorkloadSpec(depth=6, branching=4, seed=3)).instance
        text = json_codec.dumps(pi)
        del pi
        gc.collect()
        before = len(gc.get_objects())
        loaded = json_codec.loads(text)
        added = len(gc.get_objects()) - before
        assert len(loaded) == 5461
        assert added < 10_000, added
        # The OPF's ids are the weak instance's own strings, not copies.
        held = {id(c) for group in loaded.weak.lch_map(loaded.root).values() for c in group}
        assert {id(c) for c in loaded.opf(loaded.root).children} == held


class TestJsonSemistructured:
    def test_round_trip(self):
        inst = figure1_instance()
        data = json_codec.encode_semistructured(inst)
        restored = json_codec.decode_semistructured(data)
        assert restored == inst

    def test_world_round_trip(self):
        world = example41_s1()
        restored = json_codec.decode_semistructured(
            json_codec.encode_semistructured(world)
        )
        assert restored == world

    def test_wrong_format_rejected(self):
        with pytest.raises(CodecError):
            json_codec.decode_semistructured({"format": "nope"})


class TestXml:
    def test_tree_round_trip(self):
        world = example41_s1()
        text = xml_codec.dumps(world)
        restored = xml_codec.loads(text)
        assert restored == world

    def test_dag_round_trip_uses_refs(self):
        inst = figure1_instance()  # A1 shared by B1 and B2; I1 by A1 and A2
        text = xml_codec.dumps(inst)
        assert "pxml-ref" in text
        restored = xml_codec.loads(text)
        assert restored == inst

    def test_file_round_trip(self, tmp_path):
        world = example41_s1()
        path = tmp_path / "world.xml"
        xml_codec.write_world(world, path)
        assert xml_codec.read_world(path) == world

    def test_root_tag_enforced(self):
        with pytest.raises(CodecError):
            xml_codec.loads("<wrong oid='r'/>")

    def test_readable_tags_are_labels(self):
        text = xml_codec.dumps(example41_s1())
        assert "<book" in text
        assert "<author" in text


class TestCorpus:
    def test_round_trip(self, tmp_path):
        from repro.io.corpus import read_corpus, write_corpus
        from repro.semantics.sampling import WorldSampler

        pi = figure2_instance()
        worlds = WorldSampler(pi, seed=4).sample_many(25)
        path = tmp_path / "corpus.jsonl"
        assert write_corpus(worlds, path) == 25
        restored = read_corpus(path)
        assert restored == worlds

    def test_streaming_iteration(self, tmp_path):
        from repro.io.corpus import iter_corpus, write_corpus

        worlds = [example41_s1(), example41_s1()]
        path = tmp_path / "corpus.jsonl"
        write_corpus(worlds, path)
        count = sum(1 for _ in iter_corpus(path))
        assert count == 2

    def test_learning_from_corpus_file(self, tmp_path):
        from repro.io.corpus import iter_corpus, write_corpus
        from repro.learn import learn_instance
        from repro.semantics.sampling import WorldSampler

        pi = figure2_instance()
        write_corpus(WorldSampler(pi, seed=5).sample_many(500),
                     tmp_path / "c.jsonl")
        learned = learn_instance(iter_corpus(tmp_path / "c.jsonl"))
        learned.validate()
        assert learned.root == "R"

    def test_blank_lines_skipped(self, tmp_path):
        from repro.io.corpus import read_corpus, write_corpus

        path = tmp_path / "corpus.jsonl"
        write_corpus([example41_s1()], path)
        with open(path, "a", encoding="utf-8") as handle:
            handle.write("\n\n")
        assert len(read_corpus(path)) == 1


class TestCompactCodec:
    def test_two_leaf_types_sharing_a_name_are_refused(self):
        from repro.io import compact_codec

        with pytest.raises(CodecError, match="'t'"):
            compact_codec.dumps(_two_types_named_t())

    def test_a_child_set_listed_twice_is_refused(self):
        """A second ``E`` line for one child set overwrote the first."""
        from repro.io import compact_codec

        text = compact_codec.dumps(figure2_instance())
        assert "OPF\tA1\nE\t0.2\t\n" in text
        text = text.replace("OPF\tA1\nE\t0.2\t\n", "OPF\tA1\nE\t0.2\t\nE\t0.5\t\n")
        with pytest.raises(CodecError, match=r"'A1'.*\[\]"):
            compact_codec.loads(text)

    @pytest.mark.parametrize(
        ("records", "refused"),
        [
            ("E\t0.5\ta\nE\t0.5\t\n", "['E', '0.5', 'a'] comes before any OPF"),
            ('W\t1.0\t"x"\n', "['W', '1.0', '\"x\"'] comes before any VPF"),
        ],
        ids=["E", "W"],
    )
    def test_an_entry_before_its_function_is_refused(self, records, refused):
        """An ``E`` / ``W`` line before any ``OPF`` / ``VPF`` line went
        into a table no object owned, and was dropped without a word."""
        from repro.io import compact_codec

        with pytest.raises(CodecError) as caught:
            compact_codec.loads("PXMLC\t1\nROOT\tr\nLCH\tr\tl\ta\n" + records)
        assert refused in str(caught.value)

    def test_round_trip_figure2(self):
        from repro.io import compact_codec

        pi = figure2_instance()
        restored = compact_codec.loads(compact_codec.dumps(pi))
        restored.validate()
        assert GlobalInterpretation.from_local(restored).is_close_to(
            GlobalInterpretation.from_local(pi)
        )
        assert restored.card("B1", "author") == pi.card("B1", "author")

    def test_round_trip_generated_workload(self):
        from repro.io import compact_codec

        pi = generate_workload(WorkloadSpec(depth=2, branching=3, seed=8)).instance
        restored = compact_codec.loads(compact_codec.dumps(pi))
        restored.validate()
        assert restored.total_interpretation_entries() == (
            pi.total_interpretation_entries()
        )

    def test_independent_opf_stays_compact(self):
        from repro.io import compact_codec
        from tests.test_protdb import make_instance

        pi = to_pxml(make_instance())
        restored = compact_codec.loads(compact_codec.dumps(pi))
        assert isinstance(restored.opf("r"), IndependentOPF)

    def test_numeric_values_round_trip(self):
        from repro.core.builder import InstanceBuilder
        from repro.io import compact_codec

        builder = InstanceBuilder("r")
        builder.children("r", "l", ["a"])
        builder.opf("r", {("a",): 1.0})
        builder.leaf("a", "n", [1, 2.5], {1: 0.25, 2.5: 0.75})
        restored = compact_codec.loads(compact_codec.dumps(builder.build()))
        assert restored.vpf("a").prob(2.5) == pytest.approx(0.75)

    def test_file_round_trip(self, tmp_path):
        from repro.io import compact_codec

        path = tmp_path / "fig2.pxmlc"
        written = compact_codec.write_instance(figure2_instance(), path)
        assert written == path.stat().st_size
        compact_codec.read_instance(path).validate()

    def test_forbidden_id_rejected(self):
        from repro.core.builder import InstanceBuilder
        from repro.io import compact_codec

        builder = InstanceBuilder("r")
        builder.children("r", "l", ["bad,id"])
        builder.opf("r", {("bad,id",): 1.0})
        builder.leaf("bad,id", "t", ["x"], {"x": 1.0})
        with pytest.raises(CodecError):
            compact_codec.dumps(builder.build())

    def test_missing_header_rejected(self):
        from repro.io import compact_codec

        with pytest.raises(CodecError):
            compact_codec.loads("ROOT\tr\n")

    def test_malformed_record_rejected(self):
        from repro.io import compact_codec

        with pytest.raises(CodecError):
            compact_codec.loads("PXMLC\t1\nROOT\tr\nOPF\tr\nE\tnot-a-float\tx\n")

    def test_selection_timing_with_compact_codec(self, tmp_path):
        from repro.bench.timing import timed_selection
        from repro.semistructured.paths import PathExpression
        import random as _random
        from repro.workloads.generator import random_selection_target

        workload = generate_workload(WorkloadSpec(depth=3, branching=2, seed=9))
        path, target = random_selection_target(workload, _random.Random(0))
        _, timing = timed_selection(
            workload.instance, path, target, tmp_path / "o.pxmlc",
            codec="compact",
        )
        assert timing.write > 0
