"""Twin-moons generation, rotation, open-set blob, CSV round-trip."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sfdalab import errors
from sfdalab.datasets import (
    Dataset,
    MoonsConfig,
    load_csv_dataset,
    make_open_set_variant,
    make_twin_moons,
    rotate_dataset,
    save_csv_dataset,
)
from sfdalab.errors import ParseError, ShapeError

PACKAGE_ERRORS = tuple(v for v in vars(errors).values()
                       if isinstance(v, type) and issubclass(v, Exception))

_CELLS = st.one_of(
    st.floats().map(repr), st.integers().map(str), st.sampled_from(["nan", "-inf", "1e999", ""]),
    st.text(alphabet=st.characters(exclude_characters=","), max_size=5))


@st.composite
def csv_texts(draw):
    """A header, valid or not, then rows of one to three cells of numbers,
    non-finite values, integers of any size or short text."""
    d = draw(st.integers(1, 2))
    header = draw(st.one_of(st.sampled_from([f"d={d},labels=0", f"d={d},labels=1"]),
                            st.text(max_size=20)))
    rows = draw(st.lists(st.lists(_CELLS, min_size=d, max_size=d + 1).map(",".join),
                         max_size=4))
    return "\n".join([header, *rows])


class TestMakeTwinMoons:
    def test_shapes_and_labels(self):
        ds = make_twin_moons(MoonsConfig(n_per_class=50, seed=1))
        assert len(ds) == 100 and ds.dim == 2
        assert ds.num_classes == 2
        assert np.sum(ds.labels == 0) == 50 and np.sum(ds.labels == 1) == 50

    def test_seed_reproducibility(self):
        a = make_twin_moons(MoonsConfig(seed=7))
        b = make_twin_moons(MoonsConfig(seed=7))
        c = make_twin_moons(MoonsConfig(seed=8))
        assert np.array_equal(a.X, b.X)
        assert not np.array_equal(a.X, c.X)

    def test_noiseless_points_on_half_circles(self):
        ds = make_twin_moons(MoonsConfig(n_per_class=200, noise_sigma=0.0, seed=3))
        m0 = ds.X[ds.labels == 0]
        m1 = ds.X[ds.labels == 1]
        # class 0 on the unit circle, upper half
        assert np.allclose(np.linalg.norm(m0, axis=1), 1.0, atol=1e-12)
        assert np.all(m0[:, 1] >= -1e-12)
        # class 1 on a unit circle centered at (1, 0.5), lower half
        assert np.allclose(np.linalg.norm(m1 - [1.0, 0.5], axis=1), 1.0, atol=1e-12)
        assert np.all(m1[:, 1] <= 0.5 + 1e-12)

    def test_rotation_config_matches_explicit_rotation(self):
        plain = make_twin_moons(MoonsConfig(seed=4))
        via_cfg = make_twin_moons(MoonsConfig(seed=4, rotation_deg=30.0))
        explicit = rotate_dataset(plain, 30.0)
        assert np.array_equal(via_cfg.X, explicit.X)

    def test_rejects_bad_config(self):
        for cfg in (
            MoonsConfig(n_per_class=0),
            MoonsConfig(noise_sigma=-0.1),
            MoonsConfig(noise_sigma=np.nan),      # nan > 0 is False: it meant "no noise"
            MoonsConfig(noise_sigma=np.inf),
            MoonsConfig(noise_sigma=1e308),       # finite, but the noise overflows
            MoonsConfig(rotation_deg=np.inf),
            MoonsConfig(rotation_deg=np.nan),
            MoonsConfig(seed=-1),
            MoonsConfig(n_per_class=1.5),         # not integers, or not numbers
            MoonsConfig(n_per_class="3"),
            MoonsConfig(seed=1.5),
            MoonsConfig(noise_sigma="x"),
            MoonsConfig(rotation_deg="x"),
        ):
            with pytest.raises(ShapeError):
                make_twin_moons(cfg)

    def test_size_too_large_to_allocate_names_n_per_class(self):
        # 10**11 points per class fail at allocation without touching memory
        with pytest.raises(ShapeError, match="n_per_class"):
            make_twin_moons(MoonsConfig(n_per_class=10**11))


class TestRotateDataset:
    def test_is_isometry(self):
        ds = make_twin_moons(MoonsConfig(n_per_class=40, seed=5))
        rot = rotate_dataset(ds, 73.0)
        d_before = np.linalg.norm(ds.X[None, :10] - ds.X[:10, None], axis=2)
        d_after = np.linalg.norm(rot.X[None, :10] - rot.X[:10, None], axis=2)
        assert np.allclose(d_before, d_after, atol=1e-10)

    def test_fixes_centroid(self):
        ds = make_twin_moons(MoonsConfig(n_per_class=40, seed=6))
        rot = rotate_dataset(ds, 90.0)
        assert np.allclose(ds.X.mean(axis=0), rot.X.mean(axis=0), atol=1e-12)

    def test_full_turn_is_identity(self):
        ds = make_twin_moons(MoonsConfig(n_per_class=30, seed=7))
        rot = rotate_dataset(ds, 360.0)
        assert np.allclose(rot.X, ds.X, atol=1e-9)

    @given(st.floats(min_value=-360.0, max_value=360.0,
                     allow_nan=False, allow_infinity=False))
    @settings(max_examples=25, deadline=None)
    def test_preserves_pairwise_distances(self, degrees):
        ds = make_twin_moons(MoonsConfig(n_per_class=10, seed=8))
        rot = rotate_dataset(ds, degrees)
        i, j = 3, 14
        before = np.linalg.norm(ds.X[i] - ds.X[j])
        after = np.linalg.norm(rot.X[i] - rot.X[j])
        assert after == pytest.approx(before, abs=1e-9)

    def test_keeps_labels(self):
        ds = make_twin_moons(MoonsConfig(n_per_class=20, seed=9))
        rot = rotate_dataset(ds, 30.0)
        assert np.array_equal(rot.labels, ds.labels)

    @pytest.mark.parametrize("degrees", [np.nan, np.inf, -np.inf, "30", None])
    def test_rejects_bad_angles_as_moons_config_does(self, degrees):
        ds = make_twin_moons(MoonsConfig(n_per_class=10, seed=8))
        with pytest.raises(ShapeError, match="rotation degrees"):
            rotate_dataset(ds, degrees)
        with pytest.raises(ShapeError, match="rotation degrees"):
            make_twin_moons(MoonsConfig(n_per_class=10, seed=8, rotation_deg=degrees))

    def test_requires_two_dims(self):
        ds = Dataset(X=np.zeros((4, 3)), labels=np.zeros(4, dtype=np.int64),
                     num_classes=1)
        with pytest.raises(ShapeError):
            rotate_dataset(ds, 10.0)


class TestOpenSetVariant:
    def test_appends_unlabeled_blob(self):
        ds = make_twin_moons(MoonsConfig(n_per_class=30, seed=10))
        open_ds = make_open_set_variant(ds, n_unknown=25, seed=2)
        assert len(open_ds) == 85
        assert np.sum(open_ds.labels == -1) == 25
        blob = open_ds.X[open_ds.labels == -1]
        assert np.allclose(blob.mean(axis=0), [0.5, -1.5], atol=0.1)

    def test_zero_unknown_is_copy(self):
        ds = make_twin_moons(MoonsConfig(n_per_class=30, seed=11))
        same = make_open_set_variant(ds, n_unknown=0)
        assert np.array_equal(same.X, ds.X)
        assert same.X is not ds.X

    @pytest.mark.parametrize("kwargs", [dict(n_unknown=-1), dict(n_unknown=3, seed=-1)])
    def test_rejects_bad_config(self, kwargs):
        ds = make_twin_moons(MoonsConfig(n_per_class=5))
        with pytest.raises(ShapeError):
            make_open_set_variant(ds, **kwargs)

    def test_known_classes_unchanged(self):
        ds = make_twin_moons(MoonsConfig(n_per_class=30, seed=12))
        open_ds = make_open_set_variant(ds, n_unknown=10, seed=3)
        assert open_ds.num_classes == 2
        assert np.array_equal(open_ds.labels[:60], ds.labels)


class TestCsvRoundTrip:
    def test_exact_round_trip(self, tmp_path):
        ds = make_twin_moons(MoonsConfig(n_per_class=40, seed=13))
        p = tmp_path / "moons.csv"
        save_csv_dataset(ds, p)
        back = load_csv_dataset(p)
        assert np.array_equal(back.X, ds.X)  # bitwise, via repr round-trip
        assert np.array_equal(back.labels, ds.labels)
        assert back.num_classes == 2

    def test_unlabeled_rows_round_trip(self, tmp_path):
        ds = make_open_set_variant(
            make_twin_moons(MoonsConfig(n_per_class=10, seed=14)), 5, seed=1)
        p = tmp_path / "open.csv"
        save_csv_dataset(ds, p)
        back = load_csv_dataset(p)
        assert np.sum(back.labels == -1) == 5
        assert back.num_classes == 2

    def test_header_written(self, tmp_path):
        ds = make_twin_moons(MoonsConfig(n_per_class=5, seed=15))
        p = tmp_path / "h.csv"
        save_csv_dataset(ds, p)
        assert p.read_text().splitlines()[0] == "d=2,labels=1"

    def test_rejects_non_utf8_file_naming_it(self, tmp_path):
        p = tmp_path / "latin.csv"
        p.write_bytes(b"d=2,labels=0\n\xff\xfe")
        with pytest.raises(ParseError, match="latin.csv"):
            load_csv_dataset(p)

    def test_loads_unlabeled_format(self, tmp_path):
        p = tmp_path / "plain.csv"
        p.write_text("d=2,labels=0\n0.5,1.5\n-1.0,2.0\n")
        ds = load_csv_dataset(p)
        assert np.array_equal(ds.labels, [-1, -1])
        assert ds.num_classes == 0

    def test_rejects_missing_header(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("0.5,1.5,0\n")
        with pytest.raises(ParseError):
            load_csv_dataset(p)

    def test_rejects_ragged_rows(self, tmp_path):
        p = tmp_path / "ragged.csv"
        p.write_text("d=2,labels=1\n0.5,1.5,0\n0.5,0\n")
        with pytest.raises(ParseError):
            load_csv_dataset(p)

    def test_rejects_non_numeric(self, tmp_path):
        p = tmp_path / "text.csv"
        p.write_text("d=2,labels=1\n0.5,oops,0\n")
        with pytest.raises(ParseError):
            load_csv_dataset(p)

    def test_rejects_empty_file(self, tmp_path):
        p = tmp_path / "empty.csv"
        p.write_text("")
        with pytest.raises(ParseError):
            load_csv_dataset(p)

    @pytest.mark.parametrize("cell", ["nan", "inf", "-inf", "1e999"])
    def test_rejects_non_finite_cell_naming_its_row(self, tmp_path, cell):
        p = tmp_path / "nonfinite.csv"
        p.write_text(f"d=2,labels=1\n0.5,1.5,0\n0.5,{cell},1\n")
        with pytest.raises(ParseError, match="row 2"):
            load_csv_dataset(p)

    def test_rejects_label_beyond_int64(self, tmp_path):
        p = tmp_path / "huge.csv"
        p.write_text("d=2,labels=1\n0.5,1.5,123456789012345678901234\n")
        with pytest.raises(ParseError, match="row 1"):
            load_csv_dataset(p)

    def test_rejects_label_below_minus_one(self, tmp_path):
        p = tmp_path / "negative.csv"
        p.write_text("d=2,labels=1\n0.5,1.5,0\n0.5,1.5,-5\n")
        with pytest.raises(ShapeError):
            load_csv_dataset(p)

    def test_huge_header_width_fails_before_allocating(self, tmp_path):
        p = tmp_path / "wide.csv"
        for text in ("d=1000000000000,labels=0\n0.5\n", "d=10000000000000000000000,labels=0\n"):
            p.write_text(text)
            with pytest.raises(ParseError):
                load_csv_dataset(p)

    @given(st.one_of(st.text(max_size=60), csv_texts()))
    @settings(max_examples=300, deadline=None)
    def test_any_text_loads_finite_or_raises_a_package_error(self, tmp_path_factory, text):
        p = tmp_path_factory.mktemp("fuzz") / "any.csv"
        # a lone surrogate encodes to bytes that are not UTF-8 text
        p.write_bytes(text.encode("utf-8", "surrogatepass"))
        try:
            ds = load_csv_dataset(p)
        except PACKAGE_ERRORS:
            return
        assert np.all(np.isfinite(ds.X))
        assert np.all(ds.labels >= -1)

    def test_rejects_malformed_header(self, tmp_path):
        for header in ("d=0,labels=1", "d=2,labels=2", "d=x,labels=1", "d=2"):
            p = tmp_path / "hdr.csv"
            p.write_text(header + "\n")
            with pytest.raises(ParseError):
                load_csv_dataset(p)


class TestDatasetValidation:
    def test_rejects_label_row_mismatch(self):
        with pytest.raises(ShapeError):
            Dataset(X=np.zeros((3, 2)), labels=np.zeros(2, dtype=np.int64))

    def test_rejects_out_of_range_labels(self):
        with pytest.raises(ShapeError):
            Dataset(X=np.zeros((2, 2)), labels=np.array([0, 2]), num_classes=2)

    def test_rejects_labels_below_minus_one(self):
        with pytest.raises(ShapeError):
            Dataset(X=np.zeros((2, 2)), labels=np.array([0, -5]), num_classes=2)

    def test_allows_unknown_label(self):
        ds = Dataset(X=np.zeros((2, 2)), labels=np.array([-1, 1]), num_classes=2)
        assert ds.labels[0] == -1

    def test_rejects_one_dim_x(self):
        with pytest.raises(ShapeError):
            Dataset(X=np.zeros(3), labels=np.zeros(3, dtype=np.int64))
