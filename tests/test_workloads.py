import hashlib

import pytest

from conftest import neighbors
from stnac import (
    GenerationError,
    GenSpec,
    Mastn,
    Stn,
    ValidationError,
    enforce_ac,
    flatten,
    generate,
    parse_stn,
    render_generated,
    verify_assignment,
)
from stnac import workloads
from stnac.solver import AcClosure
from stnac.stn import DEFAULT_MAGNITUDE_CAP, serialize_stn
from stnac.workloads import (
    gen_factory_mastn,
    gen_grid_stn,
    gen_random_mastn,
    gen_random_stn,
    gen_scale_free_stn,
    parameters,
)

OVER_CAP = DEFAULT_MAGNITUDE_CAP + 1


class TestRandomStn:
    def test_counts_and_validity(self):
        net = gen_random_stn(n=30, density=0.2, seed=1)
        assert net.n == 30
        assert all(net.domain(v).is_finite for v in range(net.n))
        expected = 0.2 * 30 * 29 / 2
        assert 0.4 * expected < net.e < 2.0 * expected

    def test_determinism(self):
        from stnac.stn import serialize_stn

        a = serialize_stn(gen_random_stn(n=20, density=0.3, seed=9))
        b = serialize_stn(gen_random_stn(n=20, density=0.3, seed=9))
        assert a == b
        c = serialize_stn(gen_random_stn(n=20, density=0.3, seed=10))
        assert a != c

    def test_forced_consistency(self):
        for seed in range(10):
            net = gen_random_stn(n=15, density=0.5, wmin=-20, wmax=20,
                                 horizon=200, seed=seed, consistent=True)
            assert isinstance(enforce_ac(net), AcClosure)

    @pytest.mark.parametrize("seed", range(5))
    def test_consistent_endpoints_stay_inside_the_cap(self, seed):
        # slack on top of a horizon and weights at the cap would reach past it
        spec = GenSpec("random-stn", seed, dict(n=60, density=1.0, consistent=True,
                                                horizon=DEFAULT_MAGNITUDE_CAP,
                                                wmax=DEFAULT_MAGNITUDE_CAP))
        net = parse_stn(render_generated(generate(spec), spec))
        assert net.e == 60 * 59 // 2
        assert isinstance(enforce_ac(net), AcClosure)

    def test_parameter_validation(self):
        with pytest.raises(GenerationError):
            gen_random_stn(n=5, density=1.5)
        with pytest.raises(GenerationError):
            gen_random_stn(n=5, density=0.5, wmin=3, wmax=1)


class TestGridStn:
    def test_lattice_shape(self):
        net = gen_grid_stn(rows=3, cols=4, seed=0)
        assert net.n == 12
        assert net.e == 3 * 3 + 2 * 4  # horizontal + vertical edges
        assert all(net.domain(v).is_finite for v in range(net.n))

    def test_single_cell(self):
        assert gen_grid_stn(rows=1, cols=1).e == 0

    def test_bad_shape(self):
        with pytest.raises(GenerationError):
            gen_grid_stn(rows=0, cols=3)


class TestScaleFree:
    @pytest.mark.parametrize("m", [1, 2])
    def test_edge_count_formula(self, m):
        n = 100
        net = gen_scale_free_stn(n=n, m=m, seed=3)
        assert net.e == m * (n - m) + m * (m - 1) // 2
        assert all(net.domain(v).is_finite for v in range(net.n))

    @pytest.mark.parametrize("n", [2, 5, 50])
    def test_single_attachment_grows_a_tree(self, n):
        # the lone seed vertex draws the first attachment from its own urn entry
        net = gen_scale_free_stn(n=n, m=1, seed=0)
        reached, frontier = {0}, [0]
        while frontier:
            fresh = set(neighbors(net)[frontier.pop()]) - reached
            reached |= fresh
            frontier.extend(fresh)
        assert (net.e, len(reached)) == (n - 1, n)
        assert parse_stn(serialize_stn(net)) == net

    def test_near_complete_when_m_large(self):
        net = gen_scale_free_stn(n=5, m=4, seed=1)
        assert net.e == 10  # complete graph on 5 vertices

    def test_degree_tail_skewed(self):
        net = gen_scale_free_stn(n=300, m=2, seed=7)
        degrees = sorted(map(len, neighbors(net)), reverse=True)
        # preferential attachment produces hubs well above the mean degree
        mean = 2 * net.e / net.n
        assert degrees[0] > 3 * mean

    def test_m_zero_rejected(self):
        with pytest.raises(GenerationError):
            gen_scale_free_stn(n=10, m=0)

    def test_m_at_least_n_rejected(self):
        with pytest.raises(GenerationError):
            gen_scale_free_stn(n=4, m=4)


class TestRandomMastn:
    def test_published_shape(self):
        m = gen_random_mastn(agents=2, activities=10, externals=50, seed=0)
        assert m.p == 2
        assert m.total_vars == 40
        local_edges = sum(a.e for a in m.agents)
        assert local_edges >= 20  # at least the duration constraints
        assert len(m.external_constraints()) == 50
        flatten(m)

    def test_default_external_scaling(self):
        m = gen_random_mastn(agents=4, seed=1)
        assert len(m.external_constraints()) == 50 * 3

    def test_single_agent(self):
        m = gen_random_mastn(agents=1, activities=3, seed=2)
        assert m.p == 1
        assert m.external_constraints() == []

    def test_capacity_error(self):
        with pytest.raises(GenerationError):
            gen_random_mastn(agents=2, activities=1, externals=5, seed=0)

    def test_determinism(self):
        from stnac.mastn import serialize_mastn

        a = serialize_mastn(gen_random_mastn(agents=3, activities=2, externals=4, seed=5))
        b = serialize_mastn(gen_random_mastn(agents=3, activities=2, externals=4, seed=5))
        assert a == b


class TestFactoryMastn:
    def test_small_shape(self):
        m = gen_factory_mastn(agents=2, tasks=4, seed=0)
        assert m.total_vars == 8
        durations = sum(
            1 for a in m.agents for v, w, _ in a.pairs() if w == v + 1 and v % 2 == 0
        )
        assert durations == 4
        chains = sum(a.e for a in m.agents) - durations
        assert chains == 2
        assert len(m.external_constraints()) >= 1
        flatten(m)

    def test_minimal(self):
        m = gen_factory_mastn(agents=1, tasks=1, seed=0)
        assert m.total_vars == 2
        assert sum(a.e for a in m.agents) == 1
        assert m.external_constraints() == []

    def test_agent_graph_connected(self):
        from stnac import agent_view, echo_setup

        m = gen_factory_mastn(agents=5, tasks=15, seed=3)
        views = [agent_view(m, i) for i in range(m.p)]
        tree, _ = echo_setup(0, [v.neighbors for v in views], [v.stn.n for v in views])
        assert sorted(tree) == list(range(m.p))

    def test_mid_range_point(self):
        m = gen_factory_mastn(agents=16, tasks=320, seed=0)
        assert m.total_vars == 640
        assert all(a.n == 40 for a in m.agents)

    def test_externals_fill_every_end_to_start_pair(self):
        # tasks 0, 2 go to agent 0 and task 1 to agent 1: 3**2 - 2**2 - 1**2 = 4
        # pairs join one agent's task end to the other agent's task start
        m = gen_factory_mastn(agents=2, tasks=3, externals=4, seed=0)
        assert len(m.external_constraints()) == 4

    @pytest.mark.parametrize("agents, tasks, externals", [(2, 3, 5), (2, 3, 500), (3, 9, 55)])
    def test_externals_over_capacity_fail_before_any_draw(self, monkeypatch, agents, tasks, externals):
        def no_draws(seed):
            raise AssertionError("the generator drew before its capacity check")

        monkeypatch.setattr("stnac.workloads.SplitMix64", no_draws)
        with pytest.raises(GenerationError, match="cross-agent end-to-start pairs"):
            gen_factory_mastn(agents=agents, tasks=tasks, externals=externals)

    def test_chains_are_schedulable_alone(self):
        # without cross-agent precedences each local chain has a solution
        m = gen_factory_mastn(agents=3, tasks=9, seed=4)
        for a in m.agents:
            out = enforce_ac(a)
            assert isinstance(out, AcClosure)
            lower = [d.lo for d in out.domains]
            assert verify_assignment(a, lower) == (True, None)


class TestGenerateDispatch:
    def test_dispatch_and_render(self):
        spec = GenSpec("grid-stn", 4, {"rows": 2, "cols": 3})
        obj = generate(spec)
        assert isinstance(obj, Stn)
        text = render_generated(obj, spec)
        assert text.startswith("# genspec: family=grid-stn seed=4 cols=3 rows=2")

    def test_mastn_dispatch(self):
        spec = GenSpec("factory-mastn", 1, {"agents": 2, "tasks": 4})
        assert isinstance(generate(spec), Mastn)

    def test_unknown_family(self):
        with pytest.raises(GenerationError):
            generate(GenSpec("nope", 0, {}))

    def test_bad_params_reported(self):
        with pytest.raises(GenerationError):
            generate(GenSpec("grid-stn", 0, {"bogus": 3}))

    def test_parameter_types_come_from_the_signature(self):
        assert parameters("random-stn") == {
            "n": int, "density": float, "wmin": int, "wmax": int, "horizon": int, "consistent": bool,
        }
        assert parameters("factory-mastn")["externals"] is int  # int | None
        parameters("grid-stn").clear()  # a copy: the table stays as it is
        assert "rows" in parameters("grid-stn")

    @pytest.mark.parametrize(
        "family, seed, params, match",
        [
            ("random-stn", 0, {"n": 5, "density": 0.5, "wmax": 100.0}, "wmax must be int"),
            ("random-stn", 0, {"n": True, "density": 0.5}, "n must be int"),
            ("random-stn", 0, {"n": 5, "density": False}, "density must be float"),
            ("random-stn", 0, {"n": 5, "density": 0.5, "consistent": 1}, "consistent must be bool"),
            ("random-stn", 0, {"n": 5}, "needs parameter 'density'"),
            ("random-stn", 0, {"n": 5, "density": 0.5, "seed": 1}, "no parameter 'seed'"),
            ("grid-stn", 1.0, {"rows": 2, "cols": 2}, "seed must be an int"),
            ("grid-stn", True, {"rows": 2, "cols": 2}, "seed must be an int"),
        ],
    )
    def test_spec_checked_before_the_call(self, family, seed, params, match):
        with pytest.raises(GenerationError, match=f"{family} .*{match}"):
            generate(GenSpec(family, seed, params))

    @pytest.mark.parametrize(
        "family, params, match",
        [
            ("random-stn", {"n": -1, "density": 0.5}, "n must be non-negative"),
            ("random-stn", {"n": 2, "density": 0.5, "wmax": OVER_CAP}, "weight range exceeds"),
            ("random-stn", {"n": 2, "density": 0.5, "horizon": -1}, "horizon must be non-neg"),
            ("random-stn", {"n": 2, "density": 0.5, "horizon": OVER_CAP}, "horizon exceeds"),
            ("random-mastn", {"agents": 0}, "at least one agent"),
            ("random-mastn", {"agents": 2, "activities": 0}, "at least one activity"),
            ("random-mastn", {"agents": 2, "externals": -1}, "external count must be non-neg"),
            ("factory-mastn", {"agents": 0, "tasks": 4}, "at least one agent"),
            ("factory-mastn", {"agents": 2, "tasks": 0}, "at least one task"),
            ("factory-mastn", {"agents": 3, "tasks": 6, "externals": 1}, "at least N-1 externals"),
            ("factory-mastn", {"agents": 1, "tasks": 2, "externals": 1}, "a single agent admits"),
            ("factory-mastn", {"agents": 3, "tasks": 2}, "every agent needs at least one task"),
        ],
    )
    def test_values_out_of_range_rejected(self, family, params, match):
        with pytest.raises(GenerationError, match=match):
            generate(GenSpec(family, 0, params))

    def test_int_accepted_for_a_float(self):
        spec = GenSpec("random-stn", 3, {"n": 6, "density": 1})
        same = GenSpec("random-stn", 3, {"n": 6, "density": 1.0})
        assert serialize_stn(generate(spec)) == serialize_stn(generate(same))

    def test_type_error_inside_a_generator_passes_through(self, monkeypatch):
        def broken(**params):
            raise TypeError("raised inside the body")

        monkeypatch.setitem(workloads._GENERATORS, "grid-stn", broken)
        with pytest.raises(TypeError, match="raised inside the body"):
            generate(GenSpec("grid-stn", 0, {"rows": 2, "cols": 2}))

    def test_oversized_network_rejected(self):
        # the size check comes before any allocation
        with pytest.raises(ValidationError, match="sys.maxsize"):
            generate(GenSpec("random-stn", 0, {"n": 10**19, "density": 0.1}))

    def test_rendered_output_parses_back(self):
        from stnac import parse_mastn, parse_stn

        spec = GenSpec("random-stn", 8, {"n": 10, "density": 0.3})
        text = render_generated(generate(spec), spec)
        assert parse_stn(text).n == 10
        spec2 = GenSpec("random-mastn", 8, {"agents": 2, "activities": 2, "externals": 3})
        text2 = render_generated(generate(spec2), spec2)
        assert parse_mastn(text2).p == 2

# The generators' output is part of the benchmark: perfbench builds its fixed
# instances from these specs, so a drift would silently change what it times.
# Each entry is (family, seed, params, sha256 of the rendered file).
POOL_RANDOM = dict(n=200, density=0.05, consistent=True)
POOL_SWEEP = dict(agents=16, tasks=400)
POOL_SYNC = dict(agents=32, tasks=160, externals=62)
GRID = dict(rows=24, cols=24, wmin=-20, wmax=20)
SCALE_FREE = dict(n=600, m=3, wmin=-20, wmax=20)
PINNED = [
    ("random-stn", 0, POOL_RANDOM,
     "f8b2b2038e1146755d2ad768310836d6e9c7b664c127fd6d7a64ea6b1f13f39e"),
    ("random-stn", 1, POOL_RANDOM,
     "d1246f7c18e9d8f9c001be57f93f4a76f29270e4068dc567f6111ba31b465567"),
    ("random-stn", 2, POOL_RANDOM,
     "245a676482ac1f76b21e4646178d8aa649e31527b16918af45d1e9e726b7e6d8"),
    ("random-stn", 3, POOL_RANDOM,
     "89633ac57249eb8448e8fbecf0beca90d7939b037b89027f6d634f577277bf32"),
    ("random-stn", 4, POOL_RANDOM,
     "747e294c9de1ac53a5fc3d322829b4ce60b92da3d95b7eddd58eaabc39984a13"),
    ("random-stn", 5, POOL_RANDOM,
     "faacde2daf91a7c524ccf092e28686f4175c8c8d631ac91da9ac2245560acd08"),
    ("random-stn", 6, POOL_RANDOM,
     "f0d55bc9b0f38b7db078196a884671f4c8063d8c3a13ff3fc851e5bab7f3aa87"),
    ("random-stn", 7, POOL_RANDOM,
     "1dc0a04f329b4bc2bee05f80a366147845626074eb5034b2cf3ebddac2b21e85"),
    ("factory-mastn", 0, POOL_SWEEP,
     "7ebe2e32a8759a3e9d8bc9793966843e547f69aa24200ad2ec8c626a6170c507"),
    ("factory-mastn", 1, POOL_SWEEP,
     "73f8a389f8677dae18bfecb2c4b965eafb906be25ca9abde0b5628e1728a535e"),
    ("factory-mastn", 5, POOL_SWEEP,
     "dcb736b3243c9beb0b4026e8dd3a48a0d42be9fbb7f438bb181a99b4967c1f95"),
    ("factory-mastn", 7, POOL_SWEEP,
     "f9622b6f2df35f7c60048026bf8c41a8ed40c066827038022b2a4484a4869371"),
    ("factory-mastn", 0, POOL_SYNC,
     "2736967f317ea0ea9f5230526f5144aba26c3fa2dbd45e03e0a43aa3878e2405"),
    ("factory-mastn", 1, POOL_SYNC,
     "6e38f2f996dc46f3edeee4518357533d7be53cb50fba1928a7ce377390b428df"),
    ("grid-stn", 0, GRID,
     "80491f800e6e6d9e150c130a48bb3394d35be50c4b25f1937e1067d20e1821ad"),
    ("grid-stn", 1, GRID,
     "e5a304f82b3d8bffddd788bb8036b0201276e2af7d5b07f7232513fa84f61658"),
    ("scale-free-stn", 0, SCALE_FREE,
     "f035e2c29cec371437a40b228827fa7787f57574fafd9c207e053ff926166fb9"),
    ("scale-free-stn", 1, SCALE_FREE,
     "7c2d42c018d9946465d3963c6931790fa4af27ddc74ed4cc737b7a8d5e8a53fd"),
    ("random-mastn", 0, dict(agents=1, activities=3),
     "08a48de4998ab1dca1647ce81f75e5f3c0f33867557a0b8604493ab65f1d8d88"),
    ("random-mastn", 1, dict(agents=3, activities=4, externals=0),
     "b580123ec11ee868caa1657f70fc1299e7472e534474263ad78a2526af8fb327"),
    ("random-mastn", 2, dict(agents=3, activities=4),
     "3953bb30fcd26d2383a6b807506fc2d5a87da582d4506b2545840ca4535c525e"),
    ("random-mastn", 3, dict(agents=4, activities=4),
     "5fd8fed62c6e1140fcb20396fcae0a09f023ee002912e07bda76191fb60c8c3a"),
    ("factory-mastn", 0, dict(agents=1, tasks=5),
     "92d7ebabba7648130642a9c8704f48a102ce16d4c6ff9a3aff3c8510ce937966"),
    ("factory-mastn", 1, dict(agents=3, tasks=9, externals=2),
     "14de50a5e7251cc6cf53c7fb6d1ac5683f7985be29f52dc7778e08d2d776fdec"),
    ("factory-mastn", 2, dict(agents=3, tasks=9),
     "a706c6371532d1ccb4e2075727335cae1392e36b7d3ec3cde6af33a97f5ba983"),
    # random-stn beyond the pool: free intervals, no coin or every coin True,
    # rows too short for a run, and weights below zero
    ("random-stn", 0, dict(n=200, density=0.05),
     "aa6b0d1710b6d2b081314d053a9f98160fd7eda2083e2948cbb4b5019d69a028"),
    ("random-stn", 1, dict(n=200, density=0.05),
     "3895244a3982afc4edc325edffe72029fc2dffe34be5859414c93572e2b2099a"),
    ("random-stn", 0, dict(n=40, density=0.0),
     "f12681df1824352511e269674b269213e9f75fe9eaac64222e7e3765e16da88a"),
    ("random-stn", 0, dict(n=40, density=0.0, consistent=True),
     "ef012bd4965ea728077bbcf9f6b62ea99014f85d8fd0e43e8d42132b895163fa"),
    ("random-stn", 0, dict(n=30, density=1.0),
     "e29d9743e067b576c892fbdd2bfd909a79f2a83261aa5d1baa8df0cf27dcf85b"),
    ("random-stn", 1, dict(n=30, density=1.0, consistent=True),
     "a5bf94b124196b6aac47b860a3157efabb0862d4f5136fe074213e46607b3827"),
    ("random-stn", 0, dict(n=0, density=0.5),
     "104426202a451d2d434f585ccbbb78d12c8d667eee949f5a3910602afbf98a1e"),
    ("random-stn", 0, dict(n=1, density=0.5, consistent=True),
     "5e99434cb7d66ff9cae3bec5900a81497591ce3aeffd28960f8ae23016d055ed"),
    ("random-stn", 0, dict(n=2, density=0.5),  # the one coin is False
     "4819d610fabc07bfda185f502acdcb03f98e6b98ac4db5a6229f2dfc83a0f9db"),
    ("random-stn", 3, dict(n=2, density=0.5),  # the one coin is True
     "fbdd8893afd013fc3fafb798c2742fdb4f893b29ec7d51f6b8e3aa923d2c6fc8"),
    ("random-stn", 0, dict(n=2, density=0.5, consistent=True),
     "5db6681f36a81158a0fa1186fd67cd62bec725f20663002a6d184cb294b946ab"),
    ("random-stn", 0, dict(n=50, density=0.2, wmin=-20, wmax=20),
     "9daa99f9d6c65e57f2f4815e80695ff3d127a289c6262c0e23109234773560a7"),
    ("random-stn", 1, dict(n=50, density=0.2, wmin=-20, wmax=20, consistent=True),
     "cb10a302edeeb094e6b96ffe8a9e4af10e166661f9c8619db865e08111b8f762"),
]


@pytest.mark.parametrize("family,seed,params,digest", PINNED)
def test_generated_file_is_pinned(family, seed, params, digest):
    spec = GenSpec(family, seed, dict(params))
    text = render_generated(generate(spec), spec)
    assert hashlib.sha256(text.encode()).hexdigest() == digest
