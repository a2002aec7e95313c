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


class TestUniforms:
    """``uniforms``: 53-bit doubles in [0, 1) from ``getrandbits``, drawn in
    chunks that change neither the values nor where the stream stands."""

    def test_same_seed_same_bits(self):
        a = measures.uniforms(measures.seeded(7), 1000)
        assert a.tobytes() == measures.uniforms(measures.seeded(7), 1000).tobytes()
        assert not np.array_equal(a, measures.uniforms(measures.seeded(8), 1000))

    def test_values_are_53_bit_in_unit_interval(self):
        u = measures.uniforms(measures.seeded(1), 100_000)
        assert u.dtype == np.float64
        assert u.min() >= 0.0 and u.max() < 1.0
        assert np.array_equal(u * 2.0**53, np.floor(u * 2.0**53))
        assert 0.49 < u.mean() < 0.51

    def test_top_bits_of_little_endian_words(self):
        word = measures.seeded(4).getrandbits(64)
        assert measures.uniforms(measures.seeded(4), 1)[0] == (word >> 11) * 2.0**-53

    @pytest.mark.parametrize("shape", [0, (0,), (0, 3), (3, 0)])
    def test_empty_shape_draws_nothing(self, shape):
        rng = measures.seeded(2)
        state = rng.getstate()
        assert measures.uniforms(rng, shape).shape == np.empty(shape).shape
        assert rng.getstate() == state

    def test_two_dimensional_shape_is_c_order(self):
        grid = measures.uniforms(measures.seeded(3), (4, 5))
        assert grid.shape == (4, 5)
        assert grid.tobytes() == measures.uniforms(measures.seeded(3), 20).tobytes()

    @pytest.mark.parametrize("chunk", [1, 3, 8, 1 << 13])
    def test_chunks_and_row_calls_give_the_same_stream(self, monkeypatch, chunk):
        # k rows at once equal k one-row calls, for any chunk size, and the
        # generator ends at the same place
        whole_rng = measures.seeded(9)
        whole = measures.uniforms(whole_rng, (5, 7001))
        monkeypatch.setattr(measures, "_CHUNK_WORDS", chunk)
        rng = measures.seeded(9)
        rows = np.concatenate([measures.uniforms(rng, (1, 7001)) for _ in range(5)])
        assert rows.tobytes() == whole.tobytes()
        assert rng.getstate() == whole_rng.getstate()

    def test_memory_is_one_chunk_beyond_the_output(self):
        # a single getrandbits call for 2**20 words would hold the integer,
        # its bytes and the shifted words at once: about 3 x 8 MiB
        import tracemalloc

        rng = measures.seeded(0)
        tracemalloc.start()
        try:
            out = measures.uniforms(rng, 2**20)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert out.nbytes == 8 * 2**20
        assert peak < out.nbytes + 4 * 8 * measures._CHUNK_WORDS


def _seeded_entry_points():
    """Every public function that draws numbers, as ``call(seed)``, each on
    the smallest input it takes."""
    import ergodykit as ek
    from ergodykit import baserpf, dualnorm, stats, transfer

    sys_ = ek.gallery_entry("doubling-linear").build()
    rpf = ek.build_rpf(sys_.base, sys_.potential, 16)
    y = ek.Observable.coord_y()
    return {
        "spectral_radius_on_kernel": lambda s: baserpf.spectral_radius_on_kernel(
            rpf, 1.0, samples=10, n_steps=4, seed=s),
        "verify_lasota_yorke": lambda s: baserpf.verify_lasota_yorke(
            rpf, 1.0, samples=10, n_steps=2, seed=s),
        "estimate_spectral_gap": lambda s: transfer.estimate_spectral_gap(
            sys_, rpf, trials=5, n_steps=1, seed=s),
        "verify_LY_S1": lambda s: transfer.verify_LY_S1(sys_, rpf, samples=1, n_steps=2, seed=s),
        "sampled_invariants": lambda s: sys_.sampled_invariants(samples=4, seed=s),
        "correlation_birkhoff": lambda s: stats.correlation_birkhoff(
            sys_, y, y, N=1, orbits=2, burn_in=0, rng_seed=s, samples_per_orbit=4),
        "lower_bound_sample": lambda s: dualnorm.lower_bound_sample(
            M([(0.2, 1.0), (0.7, -0.5)]), 1.0, trials=2, seed=s),
    }


class TestSeeded:
    """``random.Random`` takes abs() of a negative seed and hashes a float
    one; ``seeded`` and every entry point drawing from it refuse both."""

    @pytest.mark.parametrize("seed", [-3, 2.5, True, "1", None, np.float64(1.0), -np.int64(1)])
    def test_refuses_all_but_non_negative_integers(self, seed):
        with pytest.raises(ValueError, match="seed must be a non-negative integer"):
            measures.seeded(seed)

    @pytest.mark.parametrize("seed", [0, 5, 2**70, np.int64(5), np.uint8(5)])
    def test_python_and_numpy_integers(self, seed):
        want = measures.seeded(int(seed)).getrandbits(128)
        assert measures.seeded(seed).getrandbits(128) == want

    @pytest.mark.parametrize("name", sorted(_seeded_entry_points()))
    def test_every_entry_point_checks_its_seed(self, name):
        call = _seeded_entry_points()[name]
        for bad in (-3, 2.5):
            with pytest.raises(ValueError, match=f"got {bad!r}"):
                call(bad)
        call(0)
