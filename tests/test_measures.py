import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergodykit.measures import (
    AtomicSignedMeasure,
    MeasureDomainError,
    canonicalize,
    compress,
    compress_to_cap,
    dirac,
    jordan,
    pushforward,
    total_mass,
    total_variation,
    zero_measure,
)
from ergodykit.dualnorm import _dual_norm_lp

from conftest import random_measure


def M(pairs):
    return AtomicSignedMeasure(
        np.array([p for p, _ in pairs]), np.array([w for _, w in pairs])
    )


atoms_strategy = st.lists(
    st.tuples(
        st.floats(0.0, 1.0, allow_nan=False),
        st.floats(-5.0, 5.0, allow_nan=False),
    ),
    min_size=0,
    max_size=24,
)


class TestCanonicalize:
    def test_merges_coincident(self):
        out = canonicalize(M([(0.2, 1.0), (0.2, -0.4)]))
        assert out.to_pairs() == [[0.2, 0.6]]

    def test_identity_on_canonical(self):
        out = canonicalize(M([(0.5, 1.0)]))
        assert out.to_pairs() == [[0.5, 1.0]]

    def test_cancellation(self):
        out = canonicalize(M([(0.9, 1.0), (0.1, -1.0), (0.9, -1.0)]))
        assert out.to_pairs() == [[0.1, -1.0]]

    def test_position_out_of_range(self):
        with pytest.raises(MeasureDomainError):
            M([(1.5, 1.0)])

    @settings(max_examples=60, deadline=None)
    @given(atoms_strategy)
    def test_idempotent_and_mass_preserving(self, pairs):
        mu = M(pairs) if pairs else zero_measure()
        once = canonicalize(mu)
        twice = canonicalize(once)
        assert once.to_pairs() == twice.to_pairs()
        assert once.is_canonical()
        assert abs(once.total_mass() - mu.total_mass()) < 1e-12


class TestJordan:
    def test_sign_split(self):
        pos, neg = jordan(canonicalize(M([(0.1, 2.0), (0.5, -3.0)])))
        assert pos.to_pairs() == [[0.1, 2.0]]
        assert neg.to_pairs() == [[0.5, 3.0]]

    def test_zero(self):
        pos, neg = jordan(zero_measure())
        assert pos.n_atoms == 0 and neg.n_atoms == 0

    def test_pure_negative(self):
        pos, neg = jordan(canonicalize(M([(0.3, -1.0)])))
        assert pos.n_atoms == 0
        assert neg.to_pairs() == [[0.3, 1.0]]

    @settings(max_examples=60, deadline=None)
    @given(atoms_strategy)
    def test_round_trip(self, pairs):
        mu = canonicalize(M(pairs)) if pairs else zero_measure()
        pos, neg = jordan(mu)
        back = pos - neg
        assert back.to_pairs() == mu.to_pairs()
        # supports are disjoint
        assert not set(pos.positions.tolist()) & set(neg.positions.tolist())


class TestMassVariation:
    def test_mixed(self):
        mu = canonicalize(M([(0.1, 2.0), (0.5, -3.0)]))
        assert total_mass(mu) == -1.0
        assert total_variation(mu) == 5.0

    def test_probability(self):
        mu = canonicalize(M([(0.4, 0.5), (0.8, 0.5)]))
        assert total_mass(mu) == 1.0
        assert total_variation(mu) == 1.0

    def test_zero(self):
        assert total_mass(zero_measure()) == 0.0
        assert total_variation(zero_measure()) == 0.0


class TestPushforward:
    def test_halving(self):
        mu = canonicalize(M([(0.2, 1.0), (0.6, -1.0)]))
        out = pushforward(mu, lambda y: 0.5 * y)
        assert out.to_pairs() == [[0.1, 1.0], [0.3, -1.0]]

    def test_identity(self):
        mu = dirac(0.4)
        assert pushforward(mu, lambda y: y).to_pairs() == [[0.4, 1.0]]

    def test_collision_merges(self):
        mu = canonicalize(M([(0.2, 1.0), (0.8, 1.0)]))
        out = pushforward(mu, lambda y: np.full_like(y, 0.5))
        assert out.to_pairs() == [[0.5, 2.0]]

    def test_escape_names_atom(self):
        mu = dirac(0.9)
        with pytest.raises(MeasureDomainError, match="0.9"):
            pushforward(mu, lambda y: 2.0 * y)

    @settings(max_examples=60, deadline=None)
    @given(atoms_strategy, st.floats(0.0, 0.99), st.floats(0.0, 0.01))
    def test_mass_preserved_exactly(self, pairs, a, b):
        mu = canonicalize(M(pairs)) if pairs else zero_measure()
        out = pushforward(mu, lambda y: a * y + b)
        assert out.total_mass() == pytest.approx(mu.total_mass(), abs=1e-12)


class TestCompress:
    def test_centroid_merge(self):
        mu = canonicalize(M([(0.1000, 1.0), (0.1005, 1.0)]))
        out = compress(mu, 1e-3)
        assert out.n_atoms == 1
        assert out.positions[0] == pytest.approx(0.10025, abs=1e-12)
        assert out.weights[0] == 2.0

    def test_well_separated_unchanged(self):
        mu = canonicalize(M([(0.1, 1.0), (0.5, -2.0), (0.9, 1.0)]))
        assert compress(mu, 1e-6).to_pairs() == mu.to_pairs()

    def test_bad_delta(self):
        with pytest.raises(ValueError):
            compress(dirac(0.5), 0.0)

    def test_dual_norm_drift_bound(self):
        # oracle: full LP before/after; drift must stay below TV * delta**zeta
        rng = np.random.default_rng(0)
        delta = 1e-4
        for _ in range(3):
            mu = random_measure(rng, 1000)
            before = _dual_norm_lp(mu, 1.0)[0]
            out = compress(mu, delta)
            after = _dual_norm_lp(out, 1.0)[0]
            assert abs(after - before) <= mu.total_variation() * delta + 1e-9

    @settings(max_examples=60, deadline=None)
    @given(atoms_strategy, st.floats(1e-6, 0.5))
    def test_tv_and_mass(self, pairs, delta):
        mu = canonicalize(M(pairs)) if pairs else zero_measure()
        out = compress(mu, delta)
        assert out.total_variation() <= mu.total_variation() + 1e-12
        assert out.total_mass() == pytest.approx(mu.total_mass(), abs=1e-12)
        # same-sign clustering never mixes the Jordan parts
        p0, n0 = jordan(mu)
        p1, n1 = jordan(out)
        assert p1.total_mass() == pytest.approx(p0.total_mass(), abs=1e-12)
        assert n1.total_mass() == pytest.approx(n0.total_mass(), abs=1e-12)

    @pytest.mark.parametrize("cap", [0, 1])
    def test_cap_below_two_rejected(self, cap):
        # opposite signs never merge: cap 1 on a dipole would double forever
        with pytest.raises(ValueError, match="at least 2"):
            compress_to_cap(dirac(0.2) - dirac(0.7), 0.01, cap)

    def test_signed_cap_two_stops_doubling(self):
        out, used = compress_to_cap(dirac(0.2) - dirac(0.7), 0.01, 2)
        assert out.to_pairs() == [[0.2, 1.0], [0.7, -1.0]] and used == 0.01
        rng = np.random.default_rng(2)
        out, used = compress_to_cap(random_measure(rng, 300), 1e-6, 2)
        assert out.n_atoms <= 2 and used <= 2.0

    def test_cap_doubles_delta(self):
        rng = np.random.default_rng(1)
        mu = random_measure(rng, 500, kind="probability")
        out, used = compress_to_cap(mu, 1e-6, cap=32)
        assert out.n_atoms <= 32
        assert used >= 1e-6
        assert out.total_mass() == pytest.approx(1.0, abs=1e-12)
