"""TopologySpec: validation, canonical form, JSON round-trip, parsing."""

import json

import pytest

from repro.network.topo import (
    TopologySpec,
    generator_kinds,
    parse_topology,
)


class TestValidation:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown topology kind"):
            TopologySpec("moebius")

    def test_unknown_param_rejected_with_accepted_list(self):
        with pytest.raises(ValueError, match="accepts"):
            TopologySpec("cluster", {"n_node": 8})

    def test_unknown_fidelity_rejected(self):
        with pytest.raises(ValueError, match="unknown fidelity"):
            TopologySpec("cluster", fidelity="cycle")

    def test_all_kinds_registered(self):
        assert generator_kinds() == ("cluster", "fat_tree", "grid",
                                     "hypercube", "manna", "torus",
                                     "xbar_tree")


class TestCanonicalForm:
    def test_defaults_resolve_into_dict(self):
        bare = TopologySpec("hypercube")
        spelled = TopologySpec("hypercube", {"dimensions": 4})
        assert bare.to_dict() == spelled.to_dict()
        assert bare == spelled
        assert hash(bare) == hash(spelled)

    def test_non_default_params_differ(self):
        assert TopologySpec("hypercube", {"dimensions": 5}) != \
            TopologySpec("hypercube")

    def test_fidelity_is_part_of_identity(self):
        flit = TopologySpec("hypercube")
        flow = flit.with_fidelity("flow")
        assert flit != flow
        assert flow.fidelity == "flow"
        assert flow.param("dimensions") == flit.param("dimensions")

    def test_dict_keys_sorted_for_fingerprints(self):
        spec = TopologySpec("manna", {"nodes_per_cluster": 4,
                                      "clusters": 4})
        params = spec.to_dict()["params"]
        assert list(params) == sorted(params)

    def test_json_round_trip(self):
        for kind in generator_kinds():
            spec = TopologySpec(kind)
            again = TopologySpec.from_json(spec.to_json())
            assert again == spec and hash(again) == hash(spec), kind
            assert again.to_json() == spec.to_json()

    def test_from_dict_rejects_unknown_fields(self):
        with pytest.raises(ValueError, match="unknown topology spec"):
            TopologySpec.from_dict({"kind": "cluster", "nodes": 8})

    def test_from_dict_needs_kind(self):
        with pytest.raises(ValueError, match="needs a 'kind'"):
            TopologySpec.from_dict({"params": {}})


class TestParsing:
    def test_bare_kind(self):
        assert parse_topology("cluster") == TopologySpec("cluster")

    def test_kind_with_params(self):
        spec = parse_topology("hypercube:dimensions=8,nodes_per_router=4")
        assert spec == TopologySpec("hypercube", {"dimensions": 8,
                                                  "nodes_per_router": 4})

    def test_inline_fidelity(self):
        spec = parse_topology("hypercube:dimensions=8,fidelity=flow")
        assert spec.fidelity == "flow"

    def test_dims_list_syntax(self):
        spec = parse_topology("torus:dims=4x4x2")
        assert spec.param("dims") == [4, 4, 2]

    def test_bool_param(self):
        spec = parse_topology("xbar_tree:asynchronous=false")
        assert spec.param("asynchronous") is False

    def test_inline_json(self):
        text = json.dumps({"kind": "fat_tree", "params": {"k": 8},
                           "fidelity": "flow"})
        spec = parse_topology(text)
        assert spec == TopologySpec("fat_tree", {"k": 8}, fidelity="flow")

    def test_spec_file(self, tmp_path):
        path = tmp_path / "topo.json"
        path.write_text(TopologySpec("torus", {"dims": [4, 4]}).to_json())
        assert parse_topology(f"@{path}") == \
            TopologySpec("torus", {"dims": [4, 4]})
        assert parse_topology(str(path)) == \
            TopologySpec("torus", {"dims": [4, 4]})

    def test_malformed_param_rejected(self):
        with pytest.raises(ValueError, match="key=value"):
            parse_topology("cluster:nnodes")

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            parse_topology("  ")

    def test_label(self):
        spec = TopologySpec("hypercube", {"dimensions": 8},
                            fidelity="flow")
        assert spec.label() == "hypercube(dimensions=8)@flow"
