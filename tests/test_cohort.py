import math
import re

import numpy as np
import pytest

from radsurv.cohort import Cohort, load_cohort
from radsurv.volumeio import SubjectRecord


@pytest.fixture()
def cohort():
    records = [
        SubjectRecord("S1", 50.0, 200.0, "GTR"),
        SubjectRecord("S2", 60.0, 400.0, "STR"),
        SubjectRecord("S3", 70.0, 600.0, "GTR"),
    ]
    X = np.array([[1.0, 10.0], [2.0, np.nan], [3.0, 30.0]])
    return Cohort(subject_ids=["S1", "S2", "S3"],
                  feature_names=["alpha", "beta"], X=X,
                  survival_days=np.array([200.0, 400.0, 600.0]),
                  records=records)


class TestCohort:
    def test_select_reorders_columns(self, cohort):
        sub = cohort.select(["beta", "alpha"])
        assert sub[0].tolist() == [10.0, 1.0]

    def test_select_unknown_feature(self, cohort):
        with pytest.raises(KeyError):
            cohort.select(["gamma"])

    def test_resection_mask_and_subset(self, cohort):
        mask = cohort.resection_mask(("GTR",))
        assert mask.tolist() == [True, False, True]
        sub = cohort.subset(mask)
        assert sub.subject_ids == ["S1", "S3"]
        assert sub.survival_days.tolist() == [200.0, 600.0]

    def test_csv_round_trip_preserves_nan(self, cohort, tmp_path):
        f = tmp_path / "features.csv"
        m = tmp_path / "meta.csv"
        cohort.write_features_csv(str(f))
        cohort.write_metadata_csv(str(m))
        loaded = load_cohort(str(f), str(m))
        assert loaded.subject_ids == cohort.subject_ids
        assert loaded.feature_names == cohort.feature_names
        assert np.array_equal(np.isnan(loaded.X), np.isnan(cohort.X))
        assert np.allclose(loaded.X[~np.isnan(loaded.X)],
                           cohort.X[~np.isnan(cohort.X)])
        assert loaded.records[1].resection_status == "STR"

    def test_missing_metadata_row_rejected(self, cohort, tmp_path):
        f = tmp_path / "features.csv"
        m = tmp_path / "meta.csv"
        cohort.write_features_csv(str(f))
        cohort.subset(np.array([True, True, False])).write_metadata_csv(str(m))
        with pytest.raises(KeyError, match="S3"):
            load_cohort(str(f), str(m))

    def test_feature_id_whitespace_joins_metadata(self, cohort, tmp_path):
        f = tmp_path / "features.csv"
        m = tmp_path / "meta.csv"
        cohort.write_features_csv(str(f))
        cohort.write_metadata_csv(str(m))
        lines = f.read_text(encoding="utf-8").splitlines()
        lines[1] = lines[1].replace("S1,", "S1 ,", 1)
        lines[2] = lines[2].replace("S2,", " S2,", 1)
        f.write_text("\n".join(lines) + "\n", encoding="utf-8")
        loaded = load_cohort(str(f), str(m))
        assert loaded.subject_ids == ["S1", "S2", "S3"]
        assert [r.subject_id for r in loaded.records] == ["S1", "S2", "S3"]

    def test_duplicate_feature_row_rejected(self, cohort, tmp_path):
        f = tmp_path / "features.csv"
        m = tmp_path / "meta.csv"
        cohort.write_features_csv(str(f))
        cohort.write_metadata_csv(str(m))
        with open(f, "a", encoding="utf-8") as fh:
            fh.write("S2,9,9\n")
        with pytest.raises(ValueError, match=re.escape(
                f"{f}: duplicate subject ID 'S2'")):
            load_cohort(str(f), str(m))

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            Cohort(subject_ids=["a"], feature_names=["x", "y"],
                   X=np.zeros((1, 1)), survival_days=np.zeros(1),
                   records=[SubjectRecord("a", 50.0)])

    def test_repeated_column_name_rejected(self, cohort, tmp_path):
        f = tmp_path / "features.csv"
        m = tmp_path / "meta.csv"
        cohort.write_features_csv(str(f))
        cohort.write_metadata_csv(str(m))
        lines = f.read_text(encoding="utf-8").splitlines()
        lines = [lines[0] + ",alpha"] + [line + ",0" for line in lines[1:]]
        f.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(
                f"{f}: duplicate column name 'alpha'")):
            load_cohort(str(f), str(m))

    @pytest.mark.parametrize("cell", ["inf", "-inf", "Infinity", " +INF "])
    def test_infinite_cell_rejected(self, cohort, tmp_path, cell):
        f = tmp_path / "features.csv"
        m = tmp_path / "meta.csv"
        cohort.write_features_csv(str(f))
        cohort.write_metadata_csv(str(m))
        lines = f.read_text(encoding="utf-8").splitlines()
        lines[2] = f"S2,2,{cell}"
        f.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(
                f"{f}: subject 'S2' column 'beta' holds a non-finite value")):
            load_cohort(str(f), str(m))

    @pytest.mark.parametrize("cell", ["abc", "1,5", "--2"])
    def test_non_numeric_cell_names_file_subject_and_column(self, cohort,
                                                            tmp_path, cell):
        f = tmp_path / "features.csv"
        m = tmp_path / "meta.csv"
        cohort.write_features_csv(str(f))
        cohort.write_metadata_csv(str(m))
        lines = f.read_text(encoding="utf-8").splitlines()
        lines[3] = f'S3,3,"{cell}"'
        f.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(
                f"{f}: subject 'S3' column 'beta' holds a non-numeric value "
                f"{cell!r}")):
            load_cohort(str(f), str(m))

    @pytest.mark.parametrize("rows,subject,count", [
        ({2: "S2,2"}, "S2", 2),
        ({3: "S3,3,30,4"}, "S3", 4),
        # a short row and a long row whose cell total still fills the table
        ({1: "S1,1", 2: "S2,2,,0"}, "S1", 2),
        ({2: ""}, "", 0)])
    def test_row_cell_count_must_match_the_header(self, cohort, tmp_path,
                                                  rows, subject, count):
        f = tmp_path / "features.csv"
        m = tmp_path / "meta.csv"
        cohort.write_features_csv(str(f))
        cohort.write_metadata_csv(str(m))
        lines = f.read_text(encoding="utf-8").splitlines()
        for i, line in rows.items():
            lines[i] = line
        f.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(ValueError, match=re.escape(
                f"{f}: subject {subject!r} has {count} cells, the header "
                f"has 3")):
            load_cohort(str(f), str(m))

    @pytest.mark.parametrize("cell", ["", "NA", "NaN", "nan"])
    def test_missing_cells_stay_missing(self, cohort, tmp_path, cell):
        f = tmp_path / "features.csv"
        m = tmp_path / "meta.csv"
        cohort.write_features_csv(str(f))
        cohort.write_metadata_csv(str(m))
        lines = f.read_text(encoding="utf-8").splitlines()
        lines[1] = f"S1,{cell},10"
        f.write_text("\n".join(lines) + "\n", encoding="utf-8")
        loaded = load_cohort(str(f), str(m))
        assert np.isnan(loaded.X[0, 0]) and np.isnan(loaded.X[1, 1])


class TestMutatedTables:
    """Seeded byte and cell mutations of a features and a metadata CSV:
    each pair either loads finite data (NaN marking a missing value) or
    raises a ValueError or KeyError that names a file, subject or column."""

    TOKENS = ("", " ", "NA", "nan", "inf", "-inf", "1e999", "-1", "0",
              "1e-320", "abc", " 12 ", "1,5", '"', '""', "\n", "\r", "GTR",
              "STR", "gtr", "S1", "S3", "subject_id", "ID", "Age", "beta",
              "\x00", "﻿", "é", "0x10", "1_000", "+7", "--1")

    def _bases(self, cohort, tmp_path):
        f, m = tmp_path / "base_f.csv", tmp_path / "base_m.csv"
        cohort.write_features_csv(str(f))
        cohort.write_metadata_csv(str(m))
        return f.read_bytes(), m.read_bytes()

    def _mutate(self, rng, blob: bytes) -> bytes:
        if rng.random() < 0.5:      # cells: replace, insert or drop one
            lines = blob.decode("utf-8").split("\n")
            for _ in range(int(rng.integers(1, 4))):
                i = int(rng.integers(len(lines)))
                cells = lines[i].split(",")
                j = int(rng.integers(len(cells)))
                token = self.TOKENS[int(rng.integers(len(self.TOKENS)))]
                action = rng.random()
                if action < 0.7:
                    cells[j] = token
                elif action < 0.85:
                    cells.insert(j, token)
                else:
                    del cells[j]
                lines[i] = ",".join(cells)
            if rng.random() < 0.2:  # a repeated row
                lines.insert(int(rng.integers(len(lines))),
                             lines[int(rng.integers(1, len(lines)))])
            return "\n".join(lines).encode("utf-8")
        out = bytearray(blob)       # bytes: set, insert, delete, truncate
        for _ in range(int(rng.integers(1, 6))):
            at = int(rng.integers(len(out) + 1))
            action = rng.random()
            if action < 0.5 and at < len(out):
                out[at] = int(rng.integers(256))
            elif action < 0.8:
                out.insert(at, int(rng.choice(list(b',"\n\r0x\xff'))))
            elif at < len(out):
                del out[at]
        if rng.random() < 0.1:
            out = out[:int(rng.integers(len(out) + 1))]
        return bytes(out)

    @staticmethod
    def _names_the_fault(text, f, m):
        """The message holds a path, or starts with a metadata row's ID,
        as the record checks name the subject alone."""
        if str(f) in text or str(m) in text:
            return True
        lines = m.read_bytes().decode("utf-8", "replace").splitlines()
        return text.split(": ", 1)[0] in {line.split(",")[0].strip()
                                         for line in lines}

    def test_mutated_tables_load_finite_or_name_the_fault(self, cohort,
                                                          tmp_path):
        rng = np.random.default_rng(2024)
        base_f, base_m = self._bases(cohort, tmp_path)
        f, m = tmp_path / "features.csv", tmp_path / "meta.csv"
        loaded = 0
        for trial in range(400):
            f.write_bytes(self._mutate(rng, base_f) if trial % 3 != 1
                          else base_f)
            m.write_bytes(self._mutate(rng, base_m) if trial % 3 else base_m)
            try:
                c = load_cohort(str(f), str(m))
            except (ValueError, KeyError) as exc:
                assert self._names_the_fault(str(exc), f, m), \
                    f"trial {trial}: {exc}"
                continue
            except Exception as exc:        # anything else is a failure
                pytest.fail(f"trial {trial}: {type(exc).__name__}: {exc}")
            loaded += 1
            assert c.n_subjects > 0 and not np.isinf(c.X).any(), \
                f"trial {trial}"
            known = c.survival_days[~np.isnan(c.survival_days)]
            assert np.isfinite(known).all() and (known >= 0).all()
            assert all(math.isfinite(r.age) and r.age > 0 for r in c.records)
        assert 0 < loaded < 400

    @pytest.mark.parametrize("text,line", [
        ('subject_id,"alpha,beta\nS1,1,10\nS2,2,\nS3,3,30\n', 4),
        ('subject_id,alpha,beta\nS1,"1"0,10\nS2,2,\nS3,3,30\n', 2)])
    def test_stray_quote_is_rejected_by_line(self, cohort, tmp_path, text,
                                             line):
        f, m = tmp_path / "features.csv", tmp_path / "meta.csv"
        f.write_text(text, encoding="utf-8")
        cohort.write_metadata_csv(str(m))
        with pytest.raises(ValueError, match=re.escape(
                f"{f}: malformed CSV at line {line}: ")):
            load_cohort(str(f), str(m))

    def test_table_without_subject_rows_is_rejected(self, cohort, tmp_path):
        f, m = tmp_path / "features.csv", tmp_path / "meta.csv"
        f.write_text("subject_id,alpha,beta\n", encoding="utf-8")
        cohort.write_metadata_csv(str(m))
        with pytest.raises(ValueError, match=re.escape(
                f"{f}: no subject rows")):
            load_cohort(str(f), str(m))
