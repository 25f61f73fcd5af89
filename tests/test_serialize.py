import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import tblim.verify as verify
from tblim.core_model import BasisKind, DenseOperator, ModelParams, Parity, fourier_matrix
from tblim.errors import DomainError
from tblim.operators import tb_operator
from tblim.serialize import (
    _float_array,
    canonical_json,
    csv_lines,
    format_float,
    pack_operator,
    unpack_operator,
)
from tblim.verify import basis_checks, run_suite


class TestCanonicalJson:
    def test_float_formatting_round_trips(self):
        for x in (0.1, 1.0 / 3.0, 2.0 ** -52, 1e300, -0.0):
            assert float(format_float(x)) == (0.0 if x == 0 else x)

    def test_sorted_keys_and_complex_pairs(self):
        text = canonical_json({"b": 1, "a": complex(1.5, -2.5)})
        assert text == '{"a":[1.5,-2.5],"b":1}\n'

    def test_is_valid_json(self):
        doc = {"x": [1.25, {"y": True, "z": None}], "s": 'quo"te'}
        assert json.loads(canonical_json(doc)) == {"x": [1.25, {"y": True, "z": None}], "s": 'quo"te'}

    def test_non_finite_floats_are_null(self):
        doc = {"a": float("inf"), "b": np.float64("-inf"), "c": float("nan"),
               "z": complex(float("inf"), 1.0)}
        assert json.loads(canonical_json(doc)) == {"a": None, "b": None, "c": None, "z": [None, 1.0]}

    def test_csv_keeps_non_finite_text(self):
        assert csv_lines(["x"], [(float("inf"),)]) == "x\ninf\n"

    def test_numpy_bools(self):
        assert canonical_json(np.True_) == "true\n"
        assert canonical_json({"passed": np.bool_(False), "all": [np.True_]}) == \
            '{"all":[true],"passed":false}\n'

    def test_numpy_scalars_and_subclasses_match_builtins(self):
        import enum

        class Level(enum.IntEnum):
            TWO = 2

        class Doc(dict):
            pass

        doc = {"i": np.int64(-3), "f": np.float32(0.5), "g": np.float64(-0.0),
               "e": Level.TWO, "d": Doc(b=(1,), a="x"), "arr": np.array([[1, 2]])}
        assert canonical_json(doc) == \
            '{"arr":[[1,2]],"d":{"a":"x","b":[1]},"e":2,"f":0.5,"g":0,"i":-3}\n'

    def test_unknown_type_raises(self):
        with pytest.raises(DomainError):
            canonical_json({"x": object()})

    def test_deterministic(self):
        rng = np.random.default_rng(0)
        arr = rng.normal(size=(3, 3))
        assert canonical_json({"m": arr}) == canonical_json({"m": arr.copy()})


def per_entry_float_array(a):
    """The float-array formatter as it was before rows were deduplicated:
    every entry formatted on its own, then grouped innermost axis first."""
    def one(x):
        x = float(x)
        return "%.17g" % (x + 0.0) if math.isfinite(x) else "null"

    items = [one(x) for x in a.ravel().tolist()]
    for width in reversed(a.shape):
        items = ["[" + ",".join(items[i:i + width]) + "]" for i in range(0, len(items), width)]
    return items[0]


SPECIAL_FLOATS = [0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, -5e-324, 2.2e-308, 1.0, -1.0]


@st.composite
def float_arrays(draw):
    """1-D to 3-D float arrays (any axis may have length 1), their entries
    drawn from a pool of one to six values, so that rows repeat often."""
    shape = tuple(draw(st.lists(st.integers(1, 5), min_size=1, max_size=3)))
    pool = draw(st.lists(st.sampled_from(SPECIAL_FLOATS) | st.floats(width=64), min_size=1,
                         max_size=6))
    picks = draw(st.lists(st.integers(0, len(pool) - 1), min_size=math.prod(shape),
                          max_size=math.prod(shape)))
    return np.array(pool, dtype=float)[picks].reshape(shape)


class TestFloatArray:
    @settings(deadline=None, max_examples=300)
    @given(float_arrays())
    @example(np.array(SPECIAL_FLOATS))
    @example(np.array(SPECIAL_FLOATS).reshape(10, 1))
    @example(np.array(SPECIAL_FLOATS).reshape(5, 1, 2))
    @example(np.zeros((4, 3, 2)))
    def test_equals_per_entry_formatter(self, a):
        assert _float_array(a) == per_entry_float_array(a)

    def test_distinct_nan_payloads(self):
        quiet = np.frombuffer(np.array([0x7FF8000000000001], dtype=np.uint64).tobytes(), float)
        a = np.concatenate([quiet, [np.nan, -np.nan]]).reshape(3, 1)
        assert _float_array(a) == per_entry_float_array(a) == "[[null],[null],[null]]"


class TestOperatorPayload:
    def test_round_trip_exact(self):
        op = tb_operator(ModelParams(6, 2, 3, Parity.MINUS))
        payload = json.loads(canonical_json(pack_operator(op)))
        back = unpack_operator(payload)
        assert back.basis is op.basis
        assert np.array_equal(back.entries, op.entries)

    def test_round_trip_keeps_inf_and_signed_zero(self):
        m = np.array([[complex(1.0, np.inf), complex(-0.0, 2.0)],
                      [complex(-np.inf, -0.0), complex(0.0, -np.inf)]])
        back = unpack_operator(pack_operator(DenseOperator(m, BasisKind.POSITION_PLUS)))
        assert back.entries.tobytes() == m.tobytes()
        assert not np.isnan(back.entries.imag).any()

    def test_payload_rows_are_a_float_array(self):
        op = tb_operator(ModelParams(6, 2, 3, Parity.PLUS))
        rows = pack_operator(op)["rows"]
        assert rows.shape == (op.dim, op.dim, 2) and rows.dtype == float
        text = canonical_json({"rows": rows})
        assert text == canonical_json({"rows": rows.tolist()})

    def test_dimension_mismatch_detected(self):
        op = DenseOperator(np.eye(2), BasisKind.POSITION_PLUS)
        payload = pack_operator(op)
        payload["dim"] = 3
        with pytest.raises(Exception):
            unpack_operator(payload)


class TestCsv:
    def test_layout(self):
        text = csv_lines(["a", "b"], [(1, 0.5), (2, complex(1, -2))])
        lines = text.strip().splitlines()
        assert lines[0] == "a,b"
        assert lines[1] == "1,0.5"
        assert lines[2] == "2,1-2j"


class TestVerifySuite:
    @pytest.mark.parametrize("n,K,L,parity", [
        (6, 2, 3, Parity.MINUS),
        (8, 3, 4, Parity.PLUS),
    ])
    def test_all_checks_pass(self, n, K, L, parity):
        checks = run_suite(ModelParams(n, K, L, parity))
        assert checks, "empty suite"
        failed = [c.name for c in checks if not c.passed]
        assert not failed, failed

    @pytest.mark.parametrize("n", [768, 1024])
    @pytest.mark.parametrize("parity", [Parity.PLUS, Parity.MINUS])
    def test_basis_checks_pass_at_large_n(self, n, parity):
        # momentum_gram read 1.1e-13..1.4e-13 here, against its bound of
        # 1e-13, while the cosines were taken at arguments up to 2n*pi
        checks = basis_checks(ModelParams(n, n // 4, n // 2, parity))
        assert [c.name for c in checks] == ["position_gram", "momentum_gram",
                                            "fourier_unitarity", "fourier_vs_inner_products"]
        assert all(c.passed for c in checks), [(c.name, c.residual) for c in checks]
        assert checks[1].residual <= 1e-14

    @pytest.mark.parametrize("n", [8, 64])
    @pytest.mark.parametrize("parity", [Parity.PLUS, Parity.MINUS])
    def test_moved_fourier_entry_fails(self, monkeypatch, n, parity):
        def moved(p):
            f = fourier_matrix(p)
            f.entries[1, 2] += 1e-12  # F is unitary: 1e-12 of its norm
            return f

        monkeypatch.setattr(verify, "fourier_matrix", moved)
        checks = {c.name: c for c in run_suite(ModelParams(n, n // 4, n // 2, parity))}
        assert not checks["fourier_unitarity"].passed
        assert not checks["fourier_vs_inner_products"].passed

    def test_degenerate_instance_skips_not_fails(self):
        # n=2: every candidate dynamical parameter hits a pole
        checks = run_suite(ModelParams(2, 1, 1, Parity.MINUS))
        assert all(c.passed for c in checks)
        assert any(c.skipped for c in checks)
