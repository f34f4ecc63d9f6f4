import pytest

from conftest import neighbors
from stnac import (
    GenerationError,
    GenSpec,
    Mastn,
    Stn,
    ValidationError,
    enforce_ac,
    generate,
    render_generated,
    verify_assignment,
)
from stnac.solver import AcClosure
from stnac.workloads import (
    gen_factory_mastn,
    gen_grid_stn,
    gen_random_mastn,
    gen_random_stn,
    gen_scale_free_stn,
)


class TestRandomStn:
    def test_counts_and_validity(self):
        net = gen_random_stn(n=30, density=0.2, seed=1)
        assert net.n == 30
        net.validate()
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
        net.validate()

    def test_single_cell(self):
        assert gen_grid_stn(rows=1, cols=1).e == 0

    def test_bad_shape(self):
        with pytest.raises(GenerationError):
            gen_grid_stn(rows=0, cols=3)


class TestScaleFree:
    def test_edge_count_formula(self):
        n, m = 100, 2
        net = gen_scale_free_stn(n=n, m=m, seed=3)
        assert net.e == m * (n - m) + m * (m - 1) // 2
        net.validate()

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
        m.validate()

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
        m.validate()

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
