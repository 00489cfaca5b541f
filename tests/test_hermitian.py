import json
import math
import warnings

import numpy as np
import pytest

from matconc.hermitian import (
    ENSEMBLE_KINDS,
    EnsembleSpec,
    HermiticityError,
    HermitianMatrix,
    SpectralDomainError,
    _draw,
    _from_params,
    _hermitian_part,
    _to_params,
    hermitian_from_params,
    hermitian_to_params,
    inputs_digest,
    load_matrix,
    matrix_exp,
    matrix_from_obj,
    matrix_function,
    matrix_to_obj,
    negative_part,
    pos_neg_parts,
    positive_part,
    psd_order_leq,
    sample_ensemble,
    save_matrix,
    spectral_decompose,
    spectral_norm,
    trace_real,
)


def random_hermitian(d, rng, scale=1.0):
    M = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
    return HermitianMatrix(scale * (M + M.conj().T) / 2)


class TestConstruction:
    def test_rejects_asymmetric(self):
        with pytest.raises(HermiticityError) as exc:
            HermitianMatrix([[0.0, 1.0], [0.0, 0.0]])
        assert exc.value.max_asymmetry == pytest.approx(1.0)

    def test_symmetrizes_tiny_asymmetry(self):
        A = np.array([[1.0, 0.5 + 1e-14], [0.5, 2.0]], dtype=complex)
        H = HermitianMatrix(A)
        assert np.allclose(H.mat, H.mat.conj().T)

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            HermitianMatrix(np.zeros((2, 3)))

    @pytest.mark.parametrize("entries", [[[math.nan]], [[math.inf]], [[1.0, math.nan], [math.nan, 1.0]],
                                         [[1.0, -math.inf], [-math.inf, 2.0]]])
    def test_rejects_non_finite_entries(self, entries):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(HermiticityError):
                HermitianMatrix(entries)

    def test_immutable(self):
        H = HermitianMatrix.identity(2)
        with pytest.raises(ValueError):
            H.mat[0, 0] = 5.0


class TestSpectralDecompose:
    def test_diagonal(self):
        dec = spectral_decompose(HermitianMatrix.diagonal([2.0, -1.0]))
        assert np.allclose(dec.eigenvalues, [-1.0, 2.0])
        # eigenvectors are a permutation of identity columns
        assert np.allclose(np.abs(dec.eigenvectors), [[0, 1], [1, 0]])

    def test_identity(self):
        dec = spectral_decompose(HermitianMatrix.identity(3))
        assert np.allclose(dec.eigenvalues, [1.0, 1.0, 1.0])

    def test_offdiagonal_pauli(self):
        # characteristic polynomial x^2 - 1 by hand
        dec = spectral_decompose(HermitianMatrix([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(dec.eigenvalues, [-1.0, 1.0])

    def test_reconstruction_sweep(self):
        # 1000 seeded samples across d = 1..8
        count = 0
        for d in range(1, 9):
            for s in range(125):
                rng = np.random.default_rng(1000 * d + s)
                A = random_hermitian(d, rng)
                dec = spectral_decompose(A)
                bound = 1e-10 * d * max(spectral_norm(A), 1e-300)
                assert np.abs(dec.reconstruct() - A.mat).max() <= bound
                count += 1
        assert count == 1000

    def test_unitary_columns(self):
        rng = np.random.default_rng(3)
        dec = spectral_decompose(random_hermitian(5, rng))
        U = dec.eigenvectors
        assert np.abs(U.conj().T @ U - np.eye(5)).max() <= 1e-10


class TestMatrixFunction:
    def test_exp_of_diagonal(self):
        out = matrix_function(HermitianMatrix.diagonal([0.0, math.log(2)]), np.exp)
        assert np.allclose(out.mat, np.diag([1.0, 2.0]))

    def test_cube_of_identity(self):
        out = matrix_function(HermitianMatrix.identity(2), lambda x: x ** 3)
        assert np.allclose(out.mat, np.eye(2))

    def test_sqrt_of_diagonal(self):
        out = matrix_function(HermitianMatrix.diagonal([4.0, 9.0]), np.sqrt)
        assert np.allclose(out.mat, np.diag([2.0, 3.0]))

    def test_domain_error_names_eigenvalue(self):
        with pytest.raises(SpectralDomainError) as exc:
            matrix_function(HermitianMatrix.diagonal([-1.0, 4.0]), np.sqrt)
        assert exc.value.eigenvalue == pytest.approx(-1.0)

    def test_values_above_quarter_max_are_domain_errors(self):
        # U diag(w^4) U* would overflow; values above max/4 are refused outright
        A = HermitianMatrix([[1e77, 1e76], [1e76, 9e76]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(SpectralDomainError):
                matrix_function(A, lambda x: x ** 4)
            assert np.isfinite(matrix_function(A, lambda x: x ** 2).mat).all()

    def test_composition_homomorphism(self):
        funcs = {"exp": np.exp, "square": lambda x: x * x, "shift": lambda x: x + 1.0}
        rng = np.random.default_rng(11)
        for _ in range(20):
            A = random_hermitian(4, rng, scale=0.5)
            for f in funcs.values():
                for g in funcs.values():
                    via_comp = matrix_function(A, lambda x: f(g(x)))
                    via_chain = matrix_function(matrix_function(A, g), f)
                    scale = max(1.0, spectral_norm(via_comp))
                    assert np.abs(via_comp.mat - via_chain.mat).max() <= 1e-9 * scale


class TestMatrixExp:
    def test_zero(self):
        assert np.allclose(matrix_exp(HermitianMatrix.zeros(2)).mat, np.eye(2))

    def test_diagonal(self):
        out = matrix_exp(HermitianMatrix.diagonal([1.0, -1.0]))
        assert np.allclose(out.mat, np.diag([math.e, 1 / math.e]))

    def test_pauli_x(self):
        # spectral evaluation via eigenvalues +-1 gives cosh/sinh entries
        out = matrix_exp(HermitianMatrix([[0.0, 1.0], [1.0, 0.0]]))
        expect = [[math.cosh(1), math.sinh(1)], [math.sinh(1), math.cosh(1)]]
        assert np.allclose(out.mat, expect)

    def test_overflow_is_a_domain_error_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(matrix_exp(HermitianMatrix.diagonal([708.0, 0.0])).mat).all()
            with pytest.raises(SpectralDomainError) as exc:
                matrix_exp(HermitianMatrix.diagonal([0.0, 709.5]))
        assert exc.value.eigenvalue == 709.5


class TestParts:
    def test_diagonal_split(self):
        A = HermitianMatrix.diagonal([1.0, -2.0])
        assert np.allclose(positive_part(A).mat, np.diag([1.0, 0.0]))
        assert np.allclose(negative_part(A).mat, np.diag([0.0, 2.0]))

    def test_psd_input(self):
        A = HermitianMatrix.diagonal([0.5, 3.0])
        assert np.allclose(positive_part(A).mat, A.mat)
        assert np.allclose(negative_part(A).mat, 0.0)

    def test_pauli_projection(self):
        # spectral projection onto eigenvalue +1 of [[0,1],[1,0]]
        pos = positive_part(HermitianMatrix([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(pos.mat, 0.5 * np.ones((2, 2)))

    def test_split_and_annihilation(self):
        rng = np.random.default_rng(7)
        for _ in range(25):
            A = random_hermitian(5, rng)
            P, N = pos_neg_parts(A)
            scale = max(1.0, spectral_norm(A))
            assert np.abs(P.mat - N.mat - A.mat).max() <= 1e-9 * scale
            assert np.abs(P.mat @ N.mat).max() <= 1e-9 * scale ** 2
            assert np.linalg.eigvalsh(P.mat)[0] >= -1e-10 * scale
            assert np.linalg.eigvalsh(N.mat)[0] >= -1e-10 * scale


class TestLoewnerOrder:
    def test_examples(self):
        Z, I2 = HermitianMatrix.zeros(2), HermitianMatrix.identity(2)
        assert psd_order_leq(Z, I2, 1e-10).holds
        check = psd_order_leq(I2, Z, 1e-10)
        assert not check.holds and check.min_eigenvalue == pytest.approx(-1.0)
        check = psd_order_leq(HermitianMatrix.diagonal([1, 3]), HermitianMatrix.diagonal([2, 2]), 1e-10)
        assert not check.holds and check.min_eigenvalue == pytest.approx(-1.0)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            psd_order_leq(HermitianMatrix.identity(2), HermitianMatrix.identity(3))

    def test_reflexive_and_antisymmetric(self):
        rng = np.random.default_rng(21)
        for _ in range(30):
            A = random_hermitian(4, rng)
            B = random_hermitian(4, rng)
            assert psd_order_leq(A, A).holds
            fwd = psd_order_leq(A, B)
            rev = psd_order_leq(B, A)
            if fwd.holds and rev.holds:  # both ways only when nearly equal
                assert np.abs(A.mat - B.mat).max() <= 1e-8


class TestNormsAndTrace:
    def test_spectral_norm_examples(self):
        assert spectral_norm(HermitianMatrix.diagonal([-3.0, 2.0])) == pytest.approx(3.0)
        assert spectral_norm(HermitianMatrix([[0.0, 2.0], [2.0, 0.0]])) == pytest.approx(2.0)

    def test_trace_examples(self):
        assert trace_real(HermitianMatrix.identity(4)) == pytest.approx(4.0)

    def test_trace_imag_residue_error(self):
        with pytest.raises(ValueError):
            trace_real(np.array([[1.0 + 1e-3j]]))


class TestEnsembles:
    def test_determinism(self):
        spec = EnsembleSpec("diagonal", 2, 1.0, 99)
        A, B = sample_ensemble(spec), sample_ensemble(spec)
        assert A == B

    def test_diagonal_kind(self):
        A = sample_ensemble(EnsembleSpec("diagonal", 3, 1.0, 5))
        assert np.abs(A.mat - np.diag(np.diagonal(A.mat))).max() == 0.0

    def test_psd_kind(self):
        for s in range(20):
            A = sample_ensemble(EnsembleSpec("psd", 4, 2.0, s))
            assert np.linalg.eigvalsh(A.mat)[0] >= -1e-12 * 2.0

    def test_commuting_pair(self):
        for s in range(10):
            A, B = sample_ensemble(EnsembleSpec("commuting-pair", 5, 2.0, s))
            comm = A.mat @ B.mat - B.mat @ A.mat
            assert np.abs(comm).max() <= 1e-10 * 2.0 ** 2

    def test_integer_entries(self):
        A = sample_ensemble(EnsembleSpec("integer-entry", 4, 3.0, 17))
        assert np.allclose(A.mat.real, np.round(A.mat.real))
        assert np.allclose(A.mat.imag, np.round(A.mat.imag))

    def test_integer_entry_assembly(self):
        # the masked assembly gives the bytes of the triangular-part assembly
        for d in range(1, 9):
            for s in range(10):
                rng = np.random.default_rng(s)
                S = rng.integers(-2, 3, size=(d, d))
                K = rng.integers(-2, 3, size=(d, d))
                real = np.triu(S) + np.triu(S, 1).T
                imag = np.triu(K, 1) - np.triu(K, 1).T
                expect = real.astype(float) + 1j * imag.astype(float)
                got = _draw("integer-entry", d, 2.0, np.random.default_rng(s))
                assert got.tobytes() == expect.tobytes()

    def test_low_rank(self):
        A = sample_ensemble(EnsembleSpec("low-rank", 6, 1.0, 23))
        rank = int(np.sum(np.abs(np.linalg.eigvalsh(A.mat)) > 1e-9))
        assert rank <= 3

    def test_different_seeds_differ(self):
        A = sample_ensemble(EnsembleSpec("gaussian-hermitian", 3, 1.0, 1))
        B = sample_ensemble(EnsembleSpec("gaussian-hermitian", 3, 1.0, 2))
        assert not A == B

    @pytest.mark.parametrize("kind", ENSEMBLE_KINDS)
    def test_all_kinds_hermitian(self, kind):
        out = sample_ensemble(EnsembleSpec(kind, 4, 1.5, 31))
        mats = out if isinstance(out, tuple) else (out,)
        for M in mats:
            assert np.abs(M.mat - M.mat.conj().T).max() == 0.0

    def test_bad_spec(self):
        with pytest.raises(ValueError):
            EnsembleSpec("bogus", 2)
        with pytest.raises(ValueError):
            EnsembleSpec("psd", 0)
        with pytest.raises(ValueError):
            EnsembleSpec("psd", 2, scale=-1.0)


class TestSerialization:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(19)
        A = random_hermitian(3, rng)
        path = tmp_path / "m.json"
        save_matrix(path, A)
        B = load_matrix(path)
        assert np.abs(A.mat - B.mat).max() <= 1e-15

    def test_obj_shape(self):
        obj = matrix_to_obj(HermitianMatrix.identity(2))
        assert obj["dim"] == 2
        assert obj["entries"][0][0] == [1.0, 0.0]

    def test_obj_of_any_square_array(self):
        P = np.array([[1.0, 2.0 + 1.0j], [0.0, -3.0j]])
        obj = matrix_to_obj(P)
        assert obj["entries"][0][1] == [2.0, 1.0] and obj["entries"][1][1] == [0.0, -3.0]
        with pytest.raises(HermiticityError):
            matrix_from_obj(obj)
        with pytest.raises(ValueError):
            matrix_to_obj(np.zeros((2, 3)))

    def test_reader_rejects_non_finite_tokens(self):
        obj = json.loads('{"dim": 1, "entries": [[[NaN, 0.0]]]}')
        with pytest.raises(HermiticityError):
            matrix_from_obj(obj)

    def test_reader_validates(self):
        obj = {"dim": 2, "entries": [[[0, 0], [1, 0]], [[0, 0], [0, 0]]]}
        with pytest.raises(HermiticityError):
            matrix_from_obj(obj)

    def test_params_roundtrip(self):
        rng = np.random.default_rng(29)
        A = random_hermitian(4, rng)
        B = hermitian_from_params(4, hermitian_to_params(A))
        assert np.abs(A.mat - B.mat).max() <= 1e-15

    def test_stacked_params_match_certified_assembly(self):
        # symmetrizing the assembly reproduces certification bit for bit
        for kind in ENSEMBLE_KINDS:
            for d in range(1, 7):
                X = np.stack([sample_ensemble(EnsembleSpec(kind, d, 1.5, 10 * d + k))
                              for k in range(3)] if kind != "commuting-pair" else
                             sample_ensemble(EnsembleSpec(kind, d, 1.5, d)))
                params = _to_params(X)
                assert params.tobytes() == np.stack([hermitian_to_params(M) for M in X]).tobytes()
                built = _hermitian_part(_from_params(d, params))
                for M, p in zip(built, params):
                    assert M.tobytes() == hermitian_from_params(d, p).mat.tobytes()

    def test_digest_stable(self):
        A = HermitianMatrix.identity(2)
        assert inputs_digest([A]) == inputs_digest([A])
        assert inputs_digest([A]) != inputs_digest([A], {"k": 2})
