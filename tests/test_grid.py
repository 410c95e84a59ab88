"""Unit tests for the corridor-network layer (repro.grid).

Covers the pure-data pieces: spec validation and serialisation, route
construction (seeded random extension), boundary
traffic generation (including its draw-order equivalence with the
single-intersection generator) and the experiment-knob validation
satellites (``WorldConfig`` / grid constructors rejecting non-positive
values with clear errors).  End-to-end corridor behaviour lives in
``tests/test_grid_integration.py``.
"""

import json

import numpy as np
import pytest

from repro.geometry import Approach, Movement, Turn, exit_approach
from repro.grid import (
    GridArrival,
    GridPoissonTraffic,
    GridSpec,
    GridWorld,
    Hop,
    LinkSpec,
    NodeSpec,
    RouteMix,
    RoutePlan,
    Router,
    corridor_spec,
)
from repro.sim.world import WorldConfig
from repro.traffic.generator import Arrival, PoissonTraffic, TurnMix


# =========================================================================
# GridSpec / NodeSpec / LinkSpec
# =========================================================================
class TestNodeSpec:
    def test_defaults(self):
        node = NodeSpec("A")
        assert node.policy == "crossroads"
        assert (node.x, node.y) == (0.0, 0.0)

    def test_empty_name_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            NodeSpec("")
        with pytest.raises(ValueError, match="non-empty"):
            NodeSpec("   ")


class TestLinkSpec:
    def test_positive_length_required(self):
        with pytest.raises(ValueError, match="length must be positive"):
            LinkSpec(src="A", src_exit="E", dst="B", length=0.0)
        with pytest.raises(ValueError, match="length must be positive"):
            LinkSpec(src="A", src_exit="E", dst="B", length=-2.0)

    def test_positive_speed_limit_required(self):
        with pytest.raises(ValueError, match="speed_limit must be positive"):
            LinkSpec(src="A", src_exit="E", dst="B", speed_limit=0.0)

    def test_bad_arm_rejected(self):
        with pytest.raises(ValueError):
            LinkSpec(src="A", src_exit="Q", dst="B")
        with pytest.raises(ValueError):
            LinkSpec(src="A", src_exit="E", dst="B", dst_entry="X")

    def test_self_loop_rejected(self):
        with pytest.raises(ValueError, match="self-loop"):
            LinkSpec(src="A", src_exit="E", dst="A")

    def test_default_entry_is_opposite_arm(self):
        link = LinkSpec(src="A", src_exit="E", dst="B")
        assert link.exit_arm is Approach.EAST
        assert link.entry_approach is Approach.WEST  # arrives from the west

    def test_explicit_entry_override(self):
        link = LinkSpec(src="A", src_exit="E", dst="B", dst_entry="S")
        assert link.entry_approach is Approach.SOUTH

    def test_key(self):
        assert LinkSpec(src="A", src_exit="E", dst="B").key == "A/E->B"


class TestGridSpec:
    def test_needs_a_node(self):
        with pytest.raises(ValueError, match="at least one node"):
            GridSpec(nodes=())

    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError, match="duplicate node names"):
            GridSpec(nodes=(NodeSpec("A"), NodeSpec("A")))

    def test_unknown_link_endpoints_rejected(self):
        with pytest.raises(ValueError, match="unknown dst node"):
            GridSpec(
                nodes=(NodeSpec("A"),),
                links=(LinkSpec(src="A", src_exit="E", dst="B"),),
            )
        with pytest.raises(ValueError, match="unknown src node"):
            GridSpec(
                nodes=(NodeSpec("B"),),
                links=(LinkSpec(src="A", src_exit="E", dst="B"),),
            )

    def test_one_lane_per_arm(self):
        nodes = (NodeSpec("A"), NodeSpec("B"), NodeSpec("C"))
        with pytest.raises(ValueError, match="second outgoing link"):
            GridSpec(
                nodes=nodes,
                links=(
                    LinkSpec(src="A", src_exit="E", dst="B"),
                    LinkSpec(src="A", src_exit="E", dst="C"),
                ),
            )
        with pytest.raises(ValueError, match="second incoming link"):
            GridSpec(
                nodes=nodes,
                links=(
                    LinkSpec(src="A", src_exit="E", dst="C"),
                    LinkSpec(src="B", src_exit="W", dst="C", dst_entry="W"),
                ),
            )

    def test_queries(self):
        spec = corridor_spec(3)
        assert spec.node_names == ("N0", "N1", "N2")
        assert len(spec) == 3
        link = spec.out_link("N0", Approach.EAST)
        assert link is not None and link.dst == "N1"
        assert spec.out_link("N0", Approach.WEST) is None  # boundary
        assert spec.in_link("N1", Approach.WEST).src == "N0"
        # Interior node: only N/S arms spawn fresh traffic.
        assert set(spec.boundary_entries("N1")) == {
            Approach.NORTH, Approach.SOUTH,
        }
        # Western edge node: all but the eastern hand-off lane.
        assert set(spec.boundary_entries("N0")) == {
            Approach.NORTH, Approach.SOUTH, Approach.WEST,
        }
        with pytest.raises(KeyError):
            spec.node("nope")

    def test_json_round_trip(self, tmp_path):
        spec = corridor_spec(3, policies=["crossroads", "vt-im", "aim"])
        path = tmp_path / "grid.json"
        text = spec.to_json(str(path))
        assert GridSpec.from_json(text) == spec
        assert GridSpec.from_file(str(path)) == spec
        data = json.loads(text)
        assert [n["policy"] for n in data["nodes"]] == [
            "crossroads", "vt-im", "aim",
        ]

    def test_from_dict_requires_nodes(self):
        with pytest.raises(ValueError, match="'nodes'"):
            GridSpec.from_dict({"links": []})

    def test_dst_entry_survives_round_trip(self):
        spec = GridSpec(
            nodes=(NodeSpec("A"), NodeSpec("B")),
            links=(LinkSpec(src="A", src_exit="E", dst="B", dst_entry="S"),),
        )
        again = GridSpec.from_json(spec.to_json())
        assert again.links[0].entry_approach is Approach.SOUTH


class TestCorridorFactory:
    def test_needs_a_node(self):
        with pytest.raises(ValueError, match="n_nodes must be >= 1"):
            corridor_spec(0)

    def test_policies_length_checked(self):
        with pytest.raises(ValueError, match="must name 3 policies"):
            corridor_spec(3, policies=["crossroads"])

    def test_two_way_links(self):
        spec = corridor_spec(3)
        assert len(spec.links) == 4  # 2 eastbound + 2 westbound
        one_way = corridor_spec(3, two_way=False)
        assert len(one_way.links) == 2

    def test_link_length_validated(self):
        with pytest.raises(ValueError, match="length must be positive"):
            corridor_spec(2, link_length=0.0)

    def test_node_placement(self):
        spec = corridor_spec(3, link_length=6.0)
        xs = [node.x for node in spec.nodes]
        assert xs == [0.0, 16.0, 32.0]


# =========================================================================
# Routing
# =========================================================================
class TestRoutePlan:
    def test_chain_validated(self):
        hop0 = Hop("N0", Movement(Approach.WEST, Turn.STRAIGHT))
        hop1 = Hop("N1", Movement(Approach.WEST, Turn.STRAIGHT))
        good = LinkSpec(src="N0", src_exit="E", dst="N1")
        RoutePlan((hop0, hop1), (good,))  # consistent: no raise
        with pytest.raises(ValueError, match="needs 1 links"):
            RoutePlan((hop0, hop1), ())
        bad_arm = LinkSpec(src="N0", src_exit="N", dst="N1", dst_entry="W")
        with pytest.raises(ValueError, match="exits arm"):
            RoutePlan((hop0, hop1), (bad_arm,))
        bad_entry = LinkSpec(src="N0", src_exit="E", dst="N1", dst_entry="S")
        with pytest.raises(ValueError, match="enters from"):
            RoutePlan((hop0, hop1), (bad_entry,))

    def test_keys_and_lengths(self):
        spec = corridor_spec(3, link_length=5.0)
        mix = RouteMix(turns=TurnMix(left=0.0, straight=1.0, right=0.0))
        route = Router(spec).random_route(
            "N0", Movement(Approach.WEST, Turn.STRAIGHT), mix,
            np.random.default_rng(0),
        )
        assert route.n_hops == 3
        assert route.key == "N0/W-straight>N1/W-straight>N2/W-straight"
        assert route.length == pytest.approx(10.0)
        assert route.entry_node == "N0" and route.exit_node == "N2"


class TestRouter:
    def test_random_route_single_node_draws_nothing(self):
        spec = corridor_spec(1)
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        route = Router(spec).random_route(
            "N0", Movement(Approach.WEST, Turn.STRAIGHT), RouteMix(), rng
        )
        assert route.n_hops == 1
        assert rng.bit_generator.state == before  # zero draws

    def test_random_route_follows_corridor(self):
        spec = corridor_spec(4)
        mix = RouteMix(turns=TurnMix(left=0.0, straight=1.0, right=0.0))
        route = Router(spec).random_route(
            "N0", Movement(Approach.WEST, Turn.STRAIGHT), mix,
            np.random.default_rng(1),
        )
        assert [hop.node for hop in route.hops] == ["N0", "N1", "N2", "N3"]

    def test_random_route_max_hops(self):
        spec = corridor_spec(6)
        mix = RouteMix(turns=TurnMix(left=0.0, straight=1.0, right=0.0),
                       max_hops=2)
        route = Router(spec).random_route(
            "N0", Movement(Approach.WEST, Turn.STRAIGHT), mix,
            np.random.default_rng(1),
        )
        assert route.n_hops == 2

    def test_route_mix_validation(self):
        with pytest.raises(ValueError, match="continue_probability"):
            RouteMix(continue_probability=1.5)
        with pytest.raises(ValueError, match="max_hops"):
            RouteMix(max_hops=0)


# =========================================================================
# Boundary traffic
# =========================================================================
class TestGridTraffic:
    def test_single_node_matches_poisson_traffic(self):
        """Draw-order contract: 1-node grid workload == PoissonTraffic."""
        spec = corridor_spec(1)
        grid_arrivals = GridPoissonTraffic(spec, 0.25, seed=11).generate(15)
        plain = PoissonTraffic(0.25, seed=11).generate(15)
        assert len(grid_arrivals) == len(plain)
        for got, want in zip(grid_arrivals, plain):
            assert got.arrival == want
            assert got.node == "N0"
            assert got.route.n_hops == 1

    def test_interior_lanes_do_not_spawn(self):
        spec = corridor_spec(3)
        arrivals = GridPoissonTraffic(spec, 0.3, seed=5).generate(40)
        for ga in arrivals:
            assert ga.arrival.movement.entry in set(
                spec.boundary_entries(ga.node)
            )

    def test_routes_follow_links(self):
        spec = corridor_spec(3)
        arrivals = GridPoissonTraffic(spec, 0.3, seed=5).generate(40)
        assert any(ga.route.n_hops > 1 for ga in arrivals)
        for ga in arrivals:
            for link, nxt in zip(ga.route.links, ga.route.hops[1:]):
                assert link.dst == nxt.node

    def test_validation(self):
        spec = corridor_spec(1)
        with pytest.raises(ValueError, match="flow_rate must be positive"):
            GridPoissonTraffic(spec, 0.0)
        with pytest.raises(ValueError, match="speed_range"):
            GridPoissonTraffic(spec, 0.1, speed_range=(0.0, 1.0))
        with pytest.raises(ValueError, match="min_headway"):
            GridPoissonTraffic(spec, 0.1, min_headway=-1.0)
        with pytest.raises(ValueError, match="n_cars must be >= 1"):
            GridPoissonTraffic(spec, 0.1).generate(0)

    def test_grid_arrival_consistency_checked(self):
        movement = Movement(Approach.WEST, Turn.STRAIGHT)
        route = RoutePlan((Hop("N0", movement),))
        arrival = Arrival(time=1.0, movement=movement, speed=2.0)
        GridArrival(node="N0", arrival=arrival, route=route)  # fine
        with pytest.raises(ValueError, match="spawns at"):
            GridArrival(node="N1", arrival=arrival, route=route)
        other = Arrival(
            time=1.0, movement=Movement(Approach.WEST, Turn.LEFT), speed=2.0
        )
        with pytest.raises(ValueError, match="first movement"):
            GridArrival(node="N0", arrival=other, route=route)

    def test_deterministic_per_seed(self):
        spec = corridor_spec(3)
        a = GridPoissonTraffic(spec, 0.3, seed=5).generate(20)
        b = GridPoissonTraffic(spec, 0.3, seed=5).generate(20)
        assert a == b


# =========================================================================
# Experiment-knob validation satellites
# =========================================================================
class TestWorldConfigValidation:
    def test_defaults_are_valid(self):
        WorldConfig()  # no raise

    @pytest.mark.parametrize("field,value,match", [
        ("safety_dt", 0.0, "safety_dt"),
        ("safety_dt", -0.1, "safety_dt"),
        ("max_sim_time", 0.0, "max_sim_time"),
        ("max_sim_time", -5.0, "max_sim_time"),
        ("message_loss", 1.0, "message_loss"),
        ("message_loss", -0.1, "message_loss"),
        ("clock_offset_bound", -0.1, "clock_offset_bound"),
        ("clock_drift_bound", -1e-6, "clock_drift_bound"),
        ("plant_headroom", 0.9, "plant_headroom"),
    ])
    def test_bad_knob_raises_clearly(self, field, value, match):
        with pytest.raises(ValueError, match=match):
            WorldConfig(**{field: value})


class TestGridWorldValidation:
    def test_link_must_outlast_outrun(self):
        spec = corridor_spec(2, link_length=0.5)  # < agent outrun (1.0 m)
        with pytest.raises(ValueError, match="outrun"):
            GridWorld(spec, arrivals=[])

    def test_unknown_policy_rejected(self):
        spec = GridSpec(nodes=(NodeSpec("A", policy="definitely-not"),))
        with pytest.raises(ValueError, match="unknown policy"):
            GridWorld(spec, arrivals=[])
