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
    compress_to_cap_segments,
    dirac,
    jordan,
    pushforward,
    total_mass,
    total_variation,
    zero_measure,
)
from ergodykit import measures
from ergodykit.dualnorm import _dual_norm_lp

from conftest import canonicalize_loop, compress_loop, compress_to_cap_loop, random_measure


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


class TestIdentity:
    def test_equal_content_measures_compare_and_hash_by_identity(self):
        pos, w = np.array([0.2, 0.7]), np.array([1.0, -0.5])
        a, b = AtomicSignedMeasure(pos, w), AtomicSignedMeasure(pos, w)
        assert a == a and a != b
        assert len({a, b, a}) == 2


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

    @pytest.mark.parametrize("delta", [0.0, -0.01, float("nan")])
    def test_width_must_be_positive(self, delta):
        # a NaN width used to merge every atom into one bucket
        mu = dirac(0.2) + dirac(0.7)
        with pytest.raises(ValueError, match="delta must be positive"):
            compress(mu, delta)
        with pytest.raises(ValueError, match="delta must be positive"):
            compress_to_cap(mu, delta, 4)
        with pytest.raises(ValueError, match="delta must be positive"):
            compress_to_cap_segments(
                np.zeros(2, dtype=np.intp), mu.positions, mu.weights, 1, delta, 4
            )

    def test_non_canonical_input_merges_shared_bucket(self):
        # 0.5 and 0.5001 share the bucket [0.5, 0.51) although 0.1 lies between them
        mu = AtomicSignedMeasure([0.5, 0.1, 0.5001], [1.0, 1.0, 1.0])
        assert compress(mu, 0.01).to_pairs() == [[0.1, 1.0], [0.50005, 2.0]]
        out, used = compress_to_cap(mu, 0.01, 64)
        assert out.to_pairs() == [[0.1, 1.0], [0.50005, 2.0]] and used == 0.01

    def test_at_most_one_atom_comes_back_as_is(self):
        for mu in (zero_measure(), dirac(0.3, -2.0)):
            assert compress(mu, 0.01) is mu
            assert compress_to_cap(mu, 0.01, 2) == (mu, 0.01)

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


@st.composite
def _measures_with_coincident_atoms(draw):
    """A raw measure whose atoms often coincide, and its canonical form.

    Positions come from a grid of a few points, with repeats; signed
    measures also get atoms that exactly cancel an earlier one.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    kind = draw(st.sampled_from(["signed", "probability", "zero_mass"]))
    n = draw(st.integers(1, 80))
    pos = rng.choice(np.linspace(0.0, 1.0, draw(st.integers(2, 40))), size=n)
    if kind == "probability":
        w = rng.uniform(0.05, 1.0, size=n)
        w /= w.sum()
    elif kind == "zero_mass":
        w = rng.standard_normal(n)
        w -= w.mean()
    else:
        w = rng.standard_normal(n)
        twins = rng.integers(0, n, size=draw(st.integers(0, 5)))
        pos, w = np.r_[pos, pos[twins]], np.r_[w, -w[twins]]
    return AtomicSignedMeasure(pos, w)


class TestOneCellKernels:
    """The one-fiber functions against the per-fiber loops they replaced."""

    @staticmethod
    def _same(a, b):
        assert np.array_equal(a.positions, b.positions)
        assert np.array_equal(a.weights, b.weights)

    @settings(max_examples=200, deadline=None)
    @given(
        raw=_measures_with_coincident_atoms(),
        cap=st.integers(2, 64),
        delta=st.sampled_from([1e-4, 1.0 / 63.0]),
    )
    def test_match_per_fiber_loops(self, raw, cap, delta):
        mu = canonicalize_loop(raw)
        self._same(canonicalize(raw), mu)
        self._same(compress(mu, delta), compress_loop(mu, delta))
        out, used = compress_to_cap(mu, delta, cap)
        want, want_used = compress_to_cap_loop(mu, delta, cap)
        self._same(out, want)
        assert used == want_used


class TestGroupSums:
    """``_group_sums`` against ``np.add.at`` into zeros, bit for bit."""

    @staticmethod
    def _add_at(new_group, v):
        idx = np.cumsum(new_group) - 1
        out = np.zeros(int(idx[-1]) + 1)
        np.add.at(out, idx, v)
        return out

    def test_matches_add_at(self):
        rng = np.random.default_rng(17)
        sizes = np.r_[np.arange(1, 201), rng.integers(1, 201, size=100)]
        rng.shuffle(sizes)
        new_group = np.zeros(int(sizes.sum()), dtype=bool)
        new_group[np.r_[0, np.cumsum(sizes)[:-1]]] = True
        n = new_group.size
        mixed = rng.standard_normal(n) * 10.0 ** rng.integers(-12, 12, size=n)
        zeros = np.where(rng.random(n) < 0.5, -0.0, 0.0)
        # runs of -0.0 only, of cancelling pairs, and of one tiny atom next to huge ones
        cancel = np.repeat(rng.standard_normal((n + 1) // 2), 2)[:n] * np.resize([1.0, -1.0], n)
        spiky = np.where(rng.random(n) < 0.1, 1e300, 5e-324) * rng.choice([-1.0, 1.0], n)
        values = (mixed, zeros, np.full(n, -0.0), cancel, spiky)
        got = measures._group_sums(new_group, *values)
        assert len(got) == len(values)
        for g, v in zip(got, values):
            assert g.tobytes() == self._add_at(new_group, v).tobytes()
        assert np.signbit(got[2]).sum() == 0  # a run of -0.0 sums to +0.0 from 0.0

    def test_one_group_and_singletons(self):
        v = np.array([0.1, 0.2, 0.3, -0.6])
        for new_group in ([True, False, False, False], [True] * 4):
            new_group = np.array(new_group)
            (got,) = measures._group_sums(new_group, v)
            assert got.tobytes() == self._add_at(new_group, v).tobytes()
