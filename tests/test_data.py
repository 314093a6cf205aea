import numpy as np
import pytest

from mmfuse.data import (
    Dataset,
    SyntheticSpec,
    bilinear_resize,
    class_template,
    complementary_grouping,
    default_schema,
    generate_synthetic,
    load_dataset,
    load_image,
    load_metadata_csv,
    write_dataset,
    write_image,
)
from mmfuse.errors import ConfigError, DataError, FormatError, SchemaError
from mmfuse.evaluation import balanced_accuracy, confusion


class TestSyntheticGeneration:
    def test_bit_identical_across_runs(self):
        spec = SyntheticSpec(n_classes=3, per_class=5, image_shape=(3, 8, 8), seed=9)
        a = generate_synthetic(spec)
        b = generate_synthetic(spec)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.meta, b.meta)
        assert np.array_equal(a.labels, b.labels)
        assert a.records == b.records

    def test_counts_and_labels(self):
        ds = generate_synthetic(
            SyntheticSpec(n_classes=3, per_class=(4, 6, 2), image_shape=(3, 8, 8))
        )
        np.testing.assert_array_equal(np.bincount(ds.labels), [4, 6, 2])

    def test_no_signal_gives_chance_level_nearest_template(self):
        spec = SyntheticSpec(
            n_classes=4, per_class=150, image_shape=(3, 8, 8),
            alpha_img=0.0, alpha_meta=0.0, noise=0.0, seed=1,
        )
        ds = generate_synthetic(spec)
        templates = np.stack([class_template(c, (3, 8, 8)) for c in range(4)])
        dists = ((ds.images[:, None] - templates[None]) ** 2).sum(axis=(2, 3, 4))
        preds = dists.argmin(axis=1)
        bac = balanced_accuracy(confusion(ds.labels, preds, 4))
        sigma = np.sqrt(0.25 * 0.75 / 150)  # per-class recall spread
        assert abs(bac - 0.25) < 3 * sigma / np.sqrt(4) * 2

    def test_redundant_full_signal_is_separable(self):
        spec = SyntheticSpec(
            n_classes=3, per_class=10, image_shape=(3, 8, 8),
            alpha_img=1.0, alpha_meta=1.0, noise=0.0, seed=2,
        )
        ds = generate_synthetic(spec)
        templates = np.stack([class_template(c, (3, 8, 8)) for c in range(3)])
        dists = ((ds.images[:, None] - templates[None]) ** 2).sum(axis=(2, 3, 4))
        bac = balanced_accuracy(confusion(ds.labels, dists.argmin(axis=1), 3))
        assert bac == 1.0

    def test_complementary_bayes_ceilings(self):
        spec = SyntheticSpec(
            n_classes=6, per_class=20, image_shape=(3, 8, 8),
            alpha_img=1.0, alpha_meta=1.0, noise=0.0, mode="complementary", seed=3,
        )
        ds = generate_synthetic(spec)
        groups, members = complementary_grouping(6)
        assert (groups, members) == (3, 2)

        # image alone resolves only the group; best deterministic classifier
        # recalls one member per group -> BAC = groups / n_classes
        templates = np.stack([class_template(g, (3, 8, 8)) for g in range(groups)])
        dists = ((ds.images[:, None] - templates[None]) ** 2).sum(axis=(2, 3, 4))
        img_preds = dists.argmin(axis=1) * members  # first member of the group
        bac_img = balanced_accuracy(confusion(ds.labels, img_preds, 6))
        assert bac_img == groups / 6

        # the (image, metadata) pair resolves the class exactly
        marker = np.array([int(r["marker_a"][1:]) for r in ds.records])
        pair_preds = dists.argmin(axis=1) * members + marker
        bac_pair = balanced_accuracy(confusion(ds.labels, pair_preds, 6))
        assert bac_pair == 1.0

    def test_complementary_needs_composite_classes(self):
        for n in (1, 2, 3, 5):
            with pytest.raises(ConfigError):
                generate_synthetic(
                    SyntheticSpec(n_classes=n, per_class=2, image_shape=(3, 8, 8),
                                  mode="complementary")
                )

    def test_alpha_bounds(self):
        with pytest.raises(ConfigError):
            generate_synthetic(SyntheticSpec(alpha_img=1.5))

    def test_meta_only_mode_strips_image_signal(self):
        spec = SyntheticSpec(
            n_classes=2, per_class=40, image_shape=(3, 8, 8),
            alpha_img=1.0, alpha_meta=1.0, noise=0.0, mode="meta-only", seed=4,
        )
        ds = generate_synthetic(spec)
        # per-class image means should be statistically indistinguishable
        m0 = ds.images[ds.labels == 0].mean(axis=0)
        m1 = ds.images[ds.labels == 1].mean(axis=0)
        assert np.abs(m0 - m1).max() < 0.25
        # while markers are fully informative
        markers = [r["marker_a"] for r in ds.records]
        assert all(m == f"v{c}" for m, c in zip(markers, ds.labels))


class TestNetPBM:
    def test_p6_hand_decoded(self, tmp_path):
        raster = bytes([10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120])
        path = tmp_path / "tiny.ppm"
        path.write_bytes(b"P6\n2 2\n255\n" + raster)
        img = load_image(path)
        assert img.shape == (3, 2, 2)
        expected = np.array(list(raster), dtype=float).reshape(2, 2, 3).transpose(2, 0, 1) / 255
        np.testing.assert_array_equal(img, expected)

    def test_p6_with_comments(self, tmp_path):
        path = tmp_path / "c.ppm"
        path.write_bytes(b"P6 # comment\n# another\n1 1\n255\n\x01\x02\x03")
        img = load_image(path)
        np.testing.assert_allclose(img[:, 0, 0], np.array([1, 2, 3]) / 255)

    def test_p5_promoted_to_three_channels(self, tmp_path):
        path = tmp_path / "g.pgm"
        path.write_bytes(b"P5\n2 1\n255\n\x40\x80")
        img = load_image(path)
        assert img.shape == (3, 1, 2)
        assert np.array_equal(img[0], img[1]) and np.array_equal(img[1], img[2])

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.ppm"
        path.write_bytes(b"P3\n1 1\n255\n")
        with pytest.raises(FormatError, match="magic"):
            load_image(path)

    def test_truncated_raster_reports_offset(self, tmp_path):
        path = tmp_path / "trunc.ppm"
        path.write_bytes(b"P6\n2 2\n255\n\x00\x00")
        with pytest.raises(FormatError, match="byte") as err:
            load_image(path)
        assert err.value.offset is not None

    def test_sample_above_maxval_rejected(self, tmp_path):
        path = tmp_path / "over.pgm"
        path.write_bytes(b"P5 2 1 1 \x01\x02")
        with pytest.raises(FormatError, match="exceeds maxval") as err:
            load_image(path)
        assert err.value.offset == 10

    @pytest.mark.parametrize(
        "header",
        [b"P6\nxx 2\n255\n", b"P5 1_0 1 255\n", b"P5 +2 1 255\n"],
        ids=["letters", "underscore", "sign"],  # int() accepts the last two
    )
    def test_bad_header_token(self, tmp_path, header):
        path = tmp_path / "tok.ppm"
        path.write_bytes(header + bytes(12))
        with pytest.raises(FormatError, match="bad width") as err:
            load_image(path)
        assert err.value.offset == 3

    def test_round_trip_quantization(self, tmp_path):
        rng = np.random.default_rng(5)
        img = rng.uniform(size=(3, 6, 7))
        path = tmp_path / "rt.ppm"
        write_image(path, img)
        back = load_image(path)
        assert np.abs(back - img).max() <= 1.0 / 255.0

    def test_resize_constant_image(self):
        img = np.full((3, 5, 5), 0.3)
        out = bilinear_resize(img, 9, 4)
        np.testing.assert_allclose(out, 0.3, rtol=1e-14)

    def test_resize_same_size_identity(self):
        rng = np.random.default_rng(6)
        img = rng.uniform(size=(3, 4, 4))
        np.testing.assert_array_equal(bilinear_resize(img, 4, 4), img)

    def test_load_with_resize(self, tmp_path):
        path = tmp_path / "r.ppm"
        write_image(path, np.full((3, 8, 8), 0.5))
        img = load_image(path, size=(4, 4))
        assert img.shape == (3, 4, 4)
        np.testing.assert_allclose(img, np.round(0.5 * 255) / 255)


class TestMetadataCsv:
    schema = default_schema(2)

    def test_well_formed(self, tmp_path):
        csv_path = tmp_path / "meta.csv"
        csv_path.write_text(
            "id,diagnostic,marker_a,marker_b,marker_c,region,age,size_mm,split\n"
            "a,C0,v0,v0,v0,head,10,2.0,train\n"
            "b,C1,v1,v1,v1,arm,20,3.0,test\n"
            "c,C0,v0,v1,v0,leg,30,4.0,train\n"
        )
        records, labels, ids = load_metadata_csv(csv_path, self.schema)
        assert len(records) == 3 and all("split" not in r for r in records)
        np.testing.assert_array_equal(labels, [0, 1, 0])
        assert ids == ["a", "b", "c"]

    def test_empty_cell_goes_to_unknown_slot(self, tmp_path):
        schema = self.schema
        csv_path = tmp_path / "meta.csv"
        csv_path.write_text(
            "id,diagnostic,marker_a,marker_b,marker_c,region,age,size_mm\n"
            "a,C0,,v0,v0,head,10,2.0\n"
        )
        records, _, _ = load_metadata_csv(csv_path, schema)
        from mmfuse.encoders import one_hot_encode

        vec = one_hot_encode(records[0], schema)
        assert vec[len(schema.columns[0].vocab)] == 1.0  # unknown slot of marker_a

    def test_column_order_independent(self, tmp_path):
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        a.write_text(
            "id,diagnostic,marker_a,marker_b,marker_c,region,age,size_mm\n"
            "x,C0,v0,v1,v0,head,10,2.0\n"
        )
        b.write_text(
            "size_mm,age,region,marker_c,marker_b,marker_a,diagnostic,id\n"
            "2.0,10,head,v0,v1,v0,C0,x\n"
        )
        ra = load_metadata_csv(a, self.schema)
        rb = load_metadata_csv(b, self.schema)
        assert ra[0] == rb[0] and np.array_equal(ra[1], rb[1])

    def test_unknown_label_lists_row(self, tmp_path):
        csv_path = tmp_path / "meta.csv"
        csv_path.write_text(
            "id,diagnostic,marker_a,marker_b,marker_c,region,age,size_mm\n"
            "weird,NOPE,v0,v0,v0,head,10,2.0\n"
        )
        with pytest.raises(DataError, match="weird"):
            load_metadata_csv(csv_path, self.schema)

    def test_missing_schema_column(self, tmp_path):
        csv_path = tmp_path / "meta.csv"
        csv_path.write_text("id,diagnostic,marker_a\na,C0,v0\n")
        with pytest.raises(SchemaError, match="marker_b"):
            load_metadata_csv(csv_path, self.schema)

    def test_repeated_id_names_both_lines(self, tmp_path):
        csv_path = tmp_path / "meta.csv"
        csv_path.write_text(
            "id,diagnostic,marker_a,marker_b,marker_c,region,age,size_mm\n"
            "a,C0,v0,v0,v0,head,10,2.0\n"
            "b,C1,v1,v1,v1,arm,20,3.0\n"
            "a,C1,v0,v1,v0,leg,30,4.0\n"
        )
        with pytest.raises(DataError, match=r"line 4: id 'a' repeats line 2"):
            load_metadata_csv(csv_path, self.schema)

    HEADER = "id,diagnostic,marker_a,marker_b,marker_c,region,age,size_mm\n"

    def test_short_row_rejected(self, tmp_path):
        csv_path = tmp_path / "meta.csv"
        csv_path.write_text(self.HEADER + "a,C0,v0,v0,v0,head,10,2.0\nb,C1,v1\n")
        with pytest.raises(DataError, match=r"meta\.csv line 3: row has fewer cells"):
            load_metadata_csv(csv_path, self.schema)

    def test_long_row_rejected(self, tmp_path):
        csv_path = tmp_path / "meta.csv"
        csv_path.write_text(self.HEADER + "a,C0,v0,v0,v0,head,10,2.0,x,y\n")
        with pytest.raises(DataError, match=r"meta\.csv line 2: row has more cells"):
            load_metadata_csv(csv_path, self.schema)

    def test_line_numbers_count_lines_inside_quoted_cells(self, tmp_path):
        csv_path = tmp_path / "meta.csv"
        csv_path.write_text(
            self.HEADER.replace("\n", ",note\n")
            + 'a,C0,v0,v0,v0,head,10,2.0,"two\nlines"\n'
            + "b,NOPE,v1,v1,v1,arm,20,3.0,\n"
        )
        with pytest.raises(DataError, match=r"line 4: unknown label 'NOPE'"):
            load_metadata_csv(csv_path, self.schema)


class TestDatasetDirectory:
    def test_write_load_round_trip(self, tmp_path):
        ds = generate_synthetic(
            SyntheticSpec(n_classes=2, per_class=4, image_shape=(3, 8, 8), seed=6)
        )
        out = tmp_path / "ds"
        write_dataset(ds, out)
        back = load_dataset(out)
        assert len(back) == len(ds)
        np.testing.assert_array_equal(back.labels, ds.labels)
        np.testing.assert_array_equal(back.meta, ds.meta)
        assert np.abs(back.images - ds.images).max() <= 1.0 / 255.0

    def test_meta_csv_byte_identical_for_same_seed(self, tmp_path):
        spec = SyntheticSpec(n_classes=2, per_class=3, image_shape=(3, 8, 8), seed=7)
        write_dataset(generate_synthetic(spec), tmp_path / "a")
        write_dataset(generate_synthetic(spec), tmp_path / "b")
        assert (tmp_path / "a/meta.csv").read_bytes() == (tmp_path / "b/meta.csv").read_bytes()
        assert (tmp_path / "a/schema.json").read_bytes() == (tmp_path / "b/schema.json").read_bytes()

    def test_mismatched_lengths_rejected(self):
        schema = default_schema(2)
        with pytest.raises(DataError):
            Dataset(
                images=np.zeros((2, 3, 8, 8)),
                meta=np.zeros((3, schema.encoded_width)),
                labels=np.zeros(3, dtype=np.intp),
                schema=schema,
                ids=["a", "b", "c"],
                records=[{}] * 3,
            )
