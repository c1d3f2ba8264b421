"""Exact int64 row keys: both layouts, key-space re-rate, paper cutoff.

Every site row ``(centre species, shell counts)`` is keyed by one linear
int64 (:class:`~repro.core.vacancy_system.RowKeyLayout`): the byte packing
for rows of at most 7 channels, a mixed radix from the CET shell
multiplicities for wider rows such as the paper's 6.5 A cutoff, and a
byte-wise fallback only where the radix product overflows.  These tests fuzz
the key algebra the re-rate kernel relies on (injectivity, linearity, the
fallback) and pin the 6.5 A re-rate and trajectories bit for bit.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.campaign import occupancy_digest
from repro.core.backend import get_backend
from repro.core.engine import TensorKMCEngine
from repro.core.vacancy_system import RowKeyLayout, VacancySystemEvaluator
from repro.lattice import LatticeState


XP = get_backend("numpy")


def _seed_packing(center, vals):
    """The original byte packing ``(key << 8) | count`` of the dedup."""
    key = np.asarray(center, dtype=np.int64)
    for j in range(vals.shape[1]):
        key = (key << 8) | vals[:, j].astype(np.int64)
    return key


@pytest.fixture(scope="module")
def ev_short(tet_small, nnp_small):
    return VacancySystemEvaluator(tet_small, nnp_small)


@pytest.fixture(scope="module")
def ev_paper(tet_standard, nnp_standard):
    return VacancySystemEvaluator(tet_standard, nnp_standard)


def _random_vets(ev, rng, n, vac_frac=0.05):
    vets = rng.choice(
        [0, 1, ev.vacancy_code], size=(n, ev.tet.n_all),
        p=[0.9 - vac_frac, 0.1, vac_frac],
    ).astype(np.int8)
    vets[:, ev.tet.CENTER] = ev.vacancy_code
    return vets


# ---------------------------------------------------------------------------
# Layout selection
# ---------------------------------------------------------------------------


class TestLayouts:
    def test_short_cutoff_keeps_the_byte_packing(self, ev_short):
        layout = ev_short.row_keys
        assert layout.kind == "packed" and layout.width == 4
        rng = np.random.default_rng(0)
        center = rng.integers(0, 256, size=50)
        vals = rng.integers(0, 256, size=(50, 4)).astype(np.float32)
        keys = layout.keys(ev_short.xp, center, vals)
        assert np.array_equal(keys, _seed_packing(center, vals))

    def test_seven_channels_wrap_like_the_byte_packing(self):
        layout = RowKeyLayout.packed(7)
        assert layout.exact  # 8 bytes: exactly 2**64 keys
        center = np.array([0, 1, 127, 128, 255])
        vals = np.full((5, 7), 255.0)
        keys = layout.keys(XP, center, vals)
        assert np.array_equal(keys, _seed_packing(center, vals))

    def test_paper_cutoff_is_mixed_radix_within_int64(
        self, ev_paper, tet_standard
    ):
        layout = ev_paper.row_keys
        assert layout.kind == "mixed" and layout.width == 16
        mult = np.bincount(tet_standard.cet_shell)
        assert np.array_equal(layout.radix, np.repeat(mult + 1, 2))
        assert layout.center_radix == 3
        bits = np.log2(float(layout.center_weight) * layout.center_radix)
        assert 60.0 < bits < 61.0

    def test_overflowing_radix_product_falls_back_to_bytes(self):
        assert RowKeyLayout.packed(8).kind == "bytes"
        layout = RowKeyLayout.for_shells([24] * 8, n_elements=3)
        assert layout.kind == "bytes" and not layout.exact


# ---------------------------------------------------------------------------
# Key algebra fuzz
# ---------------------------------------------------------------------------


@st.composite
def mixed_layouts(draw):
    """Random mixed-radix layouts whose radix product fits 2**64."""
    width = draw(st.integers(min_value=8, max_value=16))
    radix = draw(
        st.lists(st.integers(min_value=2, max_value=25),
                 min_size=width, max_size=width)
    )
    center = draw(st.integers(min_value=2, max_value=4))
    layout = RowKeyLayout("mixed", center, radix)
    if not layout.exact:
        # Shrink the widest digits until the product fits.
        while not layout.exact:
            radix[radix.index(max(radix))] //= 2
            radix = [max(r, 2) for r in radix]
            layout = RowKeyLayout("mixed", center, radix)
    return layout


def _rows_in(layout, data, n_rows):
    """``n_rows`` rows drawn inside the layout's radices, with repeats.

    Digits near both ends of each radix are favoured, so the top of the
    domain (where the int64 arithmetic wraps) is exercised.
    """
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    radix = np.append(layout.radix, layout.center_radix)
    base = rng.integers(0, radix, size=(max(1, n_rows // 2), radix.size))
    edge = rng.random(base.shape) < 0.3
    base[edge] = (radix - 1)[np.nonzero(edge)[1]]
    digits = base[rng.integers(0, len(base), size=n_rows)]
    center = digits[:, -1].astype(np.int64)
    vals = digits[:, :-1].astype(np.float32)
    rows = [(int(c), tuple(v)) for c, v in zip(center, vals.tolist())]
    return rows, center, vals


class TestKeyAlgebra:
    @settings(max_examples=100, deadline=None)
    @given(layout=mixed_layouts(), data=st.data())
    def test_mixed_radix_is_injective_on_its_domain(self, layout, data):
        rows, center, vals = _rows_in(layout, data, 64)
        keys = layout.keys(XP, center, vals)
        assert len(set(keys.tolist())) == len(set(rows))

    @settings(max_examples=100, deadline=None)
    @given(layout=mixed_layouts(), data=st.data())
    def test_extreme_digits_stay_distinct(self, layout, data):
        """All-max rows (the top of the domain, where int64 wraps) against
        rows one digit below it."""
        top = (layout.radix - 1).astype(np.float32)
        j = data.draw(st.integers(0, layout.width - 1))
        below = top.copy()
        below[j] -= 1
        center = np.full(2, layout.center_radix - 1)
        keys = layout.keys(XP, center, np.stack([top, below]))
        assert keys[0] != keys[1]

    @pytest.mark.parametrize("which", ["short", "paper"])
    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_patched_key_is_key_of_patched_counts(
        self, which, ev_short, ev_paper, seed
    ):
        """Linearity, on the re-rate kernel's own output: every unique row
        it assembles carries the key-space patched key, which must equal
        the key of that row's float-patched counts — and the unique keys
        must be exactly those of the full encode's rows."""
        ev = ev_short if which == "short" else ev_paper
        layout = ev.row_keys
        rng = np.random.default_rng(seed)
        vets = _random_vets(ev, rng, 3)
        n_region = ev.tet.n_region
        pair_b = np.repeat(np.arange(3), n_region)
        pair_r = np.tile(np.arange(n_region), 3)
        pick = np.sort(rng.choice(pair_b.size, size=40, replace=False))
        seen = []
        inner = ev._unique_energies

        def spy(ukeys, center_u, counts_u):
            seen.append((ukeys, center_u, counts_u))
            return inner(ukeys, center_u, counts_u)

        ev._unique_energies = spy
        try:
            ev.evaluate_rows(vets, pair_b[pick], pair_r[pick])
        finally:
            del ev._unique_energies
        (ukeys, center_u, counts_u), = seen
        assert np.array_equal(
            ukeys, layout.keys(XP, center_u, counts_u.reshape(len(ukeys), -1))
        )
        states = ev.trial_vets_batch(vets)                 # (B, 9, n_all)
        counts = ev.region_features_counts(
            states.reshape(-1, ev.tet.n_all)
        ).reshape(3, 9, n_region, layout.width)
        centers = states[:, :, :n_region]
        b, r = pair_b[pick], pair_r[pick]
        want = layout.keys(
            XP, centers[b, :, r].reshape(-1),
            counts[b, :, r].reshape(-1, layout.width),
        )
        assert np.array_equal(ukeys, np.unique(want))


# ---------------------------------------------------------------------------
# The checked entry point: foreign rows go to the byte fallback
# ---------------------------------------------------------------------------


class TestCheckedDedup:
    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_out_of_radix_rows_fall_back_without_collisions(
        self, ev_paper, data
    ):
        layout = ev_paper.row_keys
        rows, center, vals = _rows_in(layout, data, 12)
        # Push one digit of one row past its radix: the mixed key would
        # carry into the next digit and collide; the fallback must not.
        i = data.draw(st.integers(0, len(rows) - 1))
        j = data.draw(st.integers(0, layout.width - 1))
        vals[i, j] = float(layout.radix[j] + data.draw(st.integers(0, 300)))
        first, inverse, keys = ev_paper._dedup_rows(center, vals)
        assert keys is None
        truth = {(int(c), tuple(v)) for c, v in zip(center, vals.tolist())}
        assert len(first) == len(truth)
        assert np.array_equal(vals[first][inverse], vals)
        assert np.array_equal(center[first][inverse], center)

    def test_in_radix_rows_get_int64_keys(self, ev_paper):
        rng = np.random.default_rng(3)
        radix = ev_paper.row_keys.radix
        vals = (rng.random((40, 16)) * radix).astype(np.float32)
        center = rng.integers(0, 3, size=40)
        first, inverse, keys = ev_paper._dedup_rows(center, vals)
        assert keys is not None and keys.dtype == np.int64


# ---------------------------------------------------------------------------
# The paper cutoff end to end
# ---------------------------------------------------------------------------


class TestPaperCutoffReRate:
    @pytest.mark.parametrize("seed", [0, 1])
    def test_evaluate_rows_is_bitwise_evaluate_batch(self, ev_paper, seed):
        ev = ev_paper
        rng = np.random.default_rng(seed)
        vets = _random_vets(ev, rng, 4)
        n_region = ev.tet.n_region
        states = ev.trial_vets_batch(vets).reshape(-1, ev.tet.n_all)
        counts = ev.region_features_counts(states)
        full = ev.xp.to_numpy(ev._potential_energies(
            states[:, :n_region].reshape(-1),
            counts.reshape(-1, ev.tet.n_shells, counts.shape[-1]),
        )).reshape(4, 9, n_region)
        pair_b = np.repeat(np.arange(4), n_region)
        pair_r = np.tile(np.arange(n_region), 4)
        rows = ev.evaluate_rows(vets, pair_b, pair_r)
        assert rows.dtype == full.dtype
        assert np.array_equal(rows, full[pair_b, :, pair_r])
        # A sparse subset re-rates to the same bits as the whole batch.
        pick = rng.choice(pair_b.size, size=37, replace=False)
        sub = ev.evaluate_rows(vets, pair_b[pick], pair_r[pick])
        assert np.array_equal(sub, rows[pick])
        # And the folded energetics equal evaluate_batch's.
        row_e = np.empty_like(full)
        row_e[pair_b, :, pair_r] = rows
        folded = ev.batch_from_row_energies(vets, row_e)
        batch = ev.evaluate_batch(vets)
        assert np.array_equal(folded.initial, batch.initial)
        assert np.array_equal(folded.delta, batch.delta)


N_STEPS = 15


def _paper_engine(tet, pot, **kw):
    lattice = LatticeState((12, 12, 12))
    lattice.randomize_alloy(np.random.default_rng(5), 0.05, 0.004)
    return TensorKMCEngine(
        lattice, pot, tet, temperature=900.0,
        rng=np.random.default_rng(6), **kw,
    )


class TestPaperCutoffTrajectories:
    @pytest.fixture(scope="class")
    def runs(self, tet_standard, nnp_standard):
        out = {}
        for rebuild in ("full", "delta"):
            for cache in ("off", "auto", "on"):
                engine = _paper_engine(
                    tet_standard, nnp_standard,
                    rebuild_path=rebuild, row_cache=cache,
                )
                engine.run(n_steps=N_STEPS, on_no_moves="stop")
                out[rebuild, cache] = engine
        return out

    def test_identical_across_rebuild_paths_and_row_cache(self, runs):
        ref = runs["full", "off"]
        assert ref.step_count == N_STEPS
        want = (occupancy_digest(ref.lattice), ref.time)
        for engine in runs.values():
            assert (occupancy_digest(engine.lattice), engine.time) == want

    def test_auto_resolves_off_for_wide_rows(self, runs):
        for rebuild in ("full", "delta"):
            engine = runs[rebuild, "auto"]
            assert engine.row_cache is None
            summary = engine.summary()
            assert summary["row_cache"] == "off"
            assert summary["row_key_layout"] == "mixed"

    def test_on_really_probes_wide_rows(self, runs):
        for rebuild in ("full", "delta"):
            engine = runs[rebuild, "on"]
            cache = engine.row_cache
            assert cache is not None and len(cache) > 0
            assert cache.hits > 0 and cache.misses > 0
            assert engine.summary()["row_cache"] == "on"

    def test_auto_resolves_on_for_short_rows(self, tet_small, nnp_small):
        lattice = LatticeState((8, 8, 8))
        lattice.randomize_alloy(np.random.default_rng(9), 0.05, 0.004)
        engine = TensorKMCEngine(
            lattice, nnp_small, tet_small, temperature=900.0,
            rng=np.random.default_rng(10),
        )
        assert engine.row_cache is not None
        summary = engine.summary()
        assert summary["row_cache"] == "on"
        assert summary["row_key_layout"] == "packed"
