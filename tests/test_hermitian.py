import builtins
import cmath
import errno
import json
import math
import os
import stat
import warnings

import numpy as np
import pytest

from matconc.bounds import DifferenceBoundSet
from matconc.conjectures import gap_conjecture_exp
from matconc.coupling import RademacherSumObservable
from matconc.hermitian import (
    ENSEMBLE_KINDS,
    EnsembleSpec,
    HermiticityError,
    HermitianMatrix,
    SpectralDomainError,
    _certify,
    _decompose,
    _draw,
    _exp,
    _from_params,
    _hermitian_part,
    _object,
    _spectral_norm,
    _to_params,
    _trial_grid,
    _upper_indices,
    _write_bytes,
    _write_json,
    hermitian_from_params,
    hermitian_to_params,
    inputs_digest,
    matrix_from_obj,
    matrix_function,
    matrix_to_obj,
    negative_part,
    pos_neg_parts,
    positive_part,
    sample_ensemble,
    spectral_decompose,
)
from matconc import hermitian
from matconc.traceineq import gap_exchangeable


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
                bound = 1e-10 * d * max(_spectral_norm(A.mat), 1e-300)
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

    def test_scalar_only_function_applied_per_eigenvalue(self):
        # math.exp and cmath.exp refuse an array, so each eigenvalue goes through
        # them on its own; a complex value with no imaginary part is accepted
        A = HermitianMatrix([[0.5, 0.25j], [-0.25j, -1.0]])
        ref = matrix_function(A, np.exp).mat
        for f in (math.exp, cmath.exp):
            assert np.abs(matrix_function(A, f).mat - ref).max() <= 1e-15
        with pytest.raises(SpectralDomainError, match="math domain error") as exc:
            matrix_function(HermitianMatrix.diagonal([2.0, -1.0]), math.log)
        assert exc.value.eigenvalue == -1.0

    def test_complex_values_are_domain_errors(self):
        for f in (cmath.sqrt, lambda x: np.emath.sqrt(x)):  # per eigenvalue, then vectorized
            with pytest.raises(SpectralDomainError, match="complex value") as exc:
                matrix_function(HermitianMatrix.diagonal([4.0, -1.0]), f)
            assert exc.value.eigenvalue == -1.0

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
                    scale = max(1.0, _spectral_norm(via_comp.mat))
                    assert np.abs(via_comp.mat - via_chain.mat).max() <= 1e-9 * scale


def exp_of(A):
    """exp of one certified matrix through the stacked spectral core."""
    return _exp(*_decompose(A.mat))


class TestMatrixExp:
    def test_zero(self):
        assert np.allclose(exp_of(HermitianMatrix.zeros(2)), np.eye(2))

    def test_diagonal(self):
        out = exp_of(HermitianMatrix.diagonal([1.0, -1.0]))
        assert np.allclose(out, np.diag([math.e, 1 / math.e]))

    def test_pauli_x(self):
        # spectral evaluation via eigenvalues +-1 gives cosh/sinh entries
        out = exp_of(HermitianMatrix([[0.0, 1.0], [1.0, 0.0]]))
        expect = [[math.cosh(1), math.sinh(1)], [math.sinh(1), math.cosh(1)]]
        assert np.allclose(out, expect)

    def test_overflow_is_a_domain_error_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert np.isfinite(exp_of(HermitianMatrix.diagonal([708.0, 0.0]))).all()
            with pytest.raises(SpectralDomainError) as exc:
                exp_of(HermitianMatrix.diagonal([0.0, 709.5]))
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
            scale = max(1.0, _spectral_norm(A.mat))
            assert np.abs(P.mat - N.mat - A.mat).max() <= 1e-9 * scale
            assert np.abs(P.mat @ N.mat).max() <= 1e-9 * scale ** 2
            assert np.linalg.eigvalsh(P.mat)[0] >= -1e-10 * scale
            assert np.linalg.eigvalsh(N.mat)[0] >= -1e-10 * scale


class TestNormsAndTrace:
    def test_spectral_norm_examples(self):
        assert _spectral_norm(np.diag([-3.0, 2.0])) == pytest.approx(3.0)
        assert _spectral_norm(np.array([[0.0, 2.0], [2.0, 0.0]])) == pytest.approx(2.0)
        # the largest over a stack, of each matrix's Hermitian part
        stack = np.array([np.diag([1.0, -0.5]), [[0.0, 4.0], [0.0, 0.0]]])
        assert _spectral_norm(stack) == pytest.approx(2.0)


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
        # the masked assembly gives the bytes of the triangular-part assembly,
        # for every matrix of a batched draw
        for d in range(1, 9):
            for count in range(1, 5):
                for s in range(10):
                    rng = np.random.default_rng(s)
                    S = rng.integers(-2, 3, size=(count, d, d))
                    K = rng.integers(-2, 3, size=(count, d, d))
                    got = _draw("integer-entry", d, 2.0, np.random.default_rng(s), count)
                    assert got.shape == (count, d, d)
                    for k in range(count):
                        real = np.triu(S[k]) + np.triu(S[k], 1).T
                        imag = np.triu(K[k], 1) - np.triu(K[k], 1).T
                        expect = real.astype(float) + 1j * imag.astype(float)
                        assert got[k].tobytes() == expect.tobytes()

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

    @pytest.mark.parametrize("dim,seed", [(2.5, 7), (True, 7), (2, 7.9), (2, "7")])
    def test_non_integer_dim_or_seed_refused(self, dim, seed):
        # seed 7.9 drew seed 7; dim 2.5 was accepted and failed in the draw
        with pytest.raises(ValueError, match="must be an integer"):
            EnsembleSpec("psd", dim, 1.0, seed)

    def test_integral_floats_read_as_integers(self):
        spec = EnsembleSpec("psd", 3.0, 1.5, 7.0)
        assert type(spec.dim) is type(spec.seed) is int
        assert sample_ensemble(spec) == sample_ensemble(EnsembleSpec("psd", 3, 1.5, 7))

    def test_infinite_scale_refused(self):
        with pytest.raises(ValueError, match="scale must be finite and > 0, got inf"):
            EnsembleSpec("psd", 2, scale=math.inf)

    def test_overflowing_draw_refused(self):
        # a finite scale whose draw is not finite: a numerical refusal, not a
        # non-Hermitian input, and no RuntimeWarning
        with pytest.raises(ArithmeticError, match=r"^psd draw at scale 1e\+308 is not finite$"):
            sample_ensemble(EnsembleSpec("psd", 3, 1e308, 0))

    def test_trial_grid_refuses_non_integer_dims(self):
        # dim 2.7 ran as dim 2
        with pytest.raises(ValueError, match="dim must be an integer, got 2.7"):
            _trial_grid(("psd",), (2.7,), 1.0)
        assert _trial_grid(("psd",), (2.0, 3), 1.0) == (("psd",), (2, 3))


class TestBatchedDraw:
    """Each kind keeps its law in a batched draw of any count."""

    SEEDS = (0, 7, 2**63 + 5)

    @staticmethod
    def draws(kind, scale=1.5):
        for d in range(1, 9):
            for count in range(1, 5):
                for s in TestBatchedDraw.SEEDS:
                    X = _draw(kind, d, scale, np.random.default_rng(s), count)
                    assert X.shape == (count, d, d) and X.dtype == np.complex128
                    yield d, count, X

    @pytest.mark.parametrize("kind", ENSEMBLE_KINDS)
    def test_hermitian(self, kind):
        for _, _, X in self.draws(kind):
            _certify(X)  # raises for a matrix beyond HERMITICITY_RTOL

    def test_diagonal_off_diagonal_zero(self):
        for d, _, X in self.draws("diagonal"):
            assert not X[:, ~np.eye(d, dtype=bool)].any()

    def test_psd_spectra(self):
        for _, _, X in self.draws("psd"):
            w = np.linalg.eigvalsh(_certify(X))
            assert (w[:, 0] >= -1e-12 * np.maximum(1.0, np.abs(w).max(axis=-1))).all()

    def test_low_rank_rank(self):
        for d, _, X in self.draws("low-rank"):
            w = np.abs(np.linalg.eigvalsh(_certify(X)))
            rank = (w > 1e-9 * np.maximum(1.0, w.max(axis=-1, keepdims=True))).sum(axis=-1)
            assert (rank <= max(1, d // 2)).all()

    def test_commuting_pair_shares_a_basis(self):
        def comm(A, B):
            return np.abs(A @ B - B @ A).max()

        for d, count, X in self.draws("commuting-pair"):
            for i in range(count):
                for j in range(i):
                    assert comm(X[i], X[j]) <= 1e-10 * 1.5 ** 2
        # shared=2: A and B commute; every further matrix has its own basis
        for d in range(2, 9):
            for s in self.SEEDS:
                X = _draw("commuting-pair", d, 1.5, np.random.default_rng(s), 4, 2)
                assert comm(X[0], X[1]) <= 1e-10 * 1.5 ** 2
                for i, j in ((2, 0), (3, 0), (3, 2)):
                    assert comm(X[i], X[j]) > 1e-6

    def test_integer_entry_parts(self):
        for scale in (1.0, 2.0, 3.4):
            m = max(1, int(round(scale)))
            for _, _, X in self.draws("integer-entry", scale):
                for part in (X.real, X.imag):
                    assert (part == np.round(part)).all() and np.abs(part).max() <= m
                assert np.array_equal(X, np.swapaxes(X.conj(), -1, -2))

    @pytest.mark.parametrize("chunk", [1, 5, 256])
    def test_trial_draws_replay_under_any_grouping(self, chunk, monkeypatch, seeded_trials):
        import matconc.conjectures as conjectures
        import matconc.traceineq as traceineq

        monkeypatch.setattr(traceineq, "FUZZ_CHUNK", chunk)
        kinds, dims = ENSEMBLE_KINDS, (1, 3, 8)
        for ineq in traceineq.INEQUALITY_IDS:
            seen = []
            draw_trial = traceineq._draw_trial

            def recorded(ineq, kind, dim, scale, rng):
                seen.append(draw_trial(ineq, kind, dim, scale, rng))
                return seen[-1]

            monkeypatch.setattr(traceineq, "_draw_trial", recorded)
            summary = traceineq.fuzz_grid(ineq, kinds, dims, 40, 1.0, 11)
            monkeypatch.setattr(traceineq, "_draw_trial", draw_trial)
            assert summary == traceineq.fuzz_grid(ineq, kinds, dims, 40, 1.0, 11)
            assert len(seen) == 40
            fresh = seeded_trials(11, kinds, dims, 40, lambda kind, dim, rng:
                                  draw_trial(ineq, kind, dim, 1.0, rng))
            for (mats, scalars), (_, _, _, (ref, ref_scalars)) in zip(seen, fresh):
                assert mats.tobytes() == ref.tobytes() and scalars == ref_scalars
        seen = []
        draw = conjectures._draw
        monkeypatch.setattr(conjectures, "_draw",
                            lambda *args: seen.append(draw(*args)) or seen[-1])
        conjectures.counterexample_search("expconj", dims, 40, 11, descent_budget=0)
        assert len(seen) == 40
        fresh = seeded_trials(11, kinds, dims, 40,
                              lambda kind, dim, rng: draw(kind, dim, 1.0, rng, 3))
        for X, (_, _, _, ref) in zip(seen, fresh):
            assert X.tobytes() == ref.tobytes()


SAMPLE_SEEDS = (0, 1, 31, 2**63 + 5)


@pytest.mark.pinned
@pytest.mark.parametrize("kind", ENSEMBLE_KINDS)
def test_sample_ensemble_bytes_pinned(kind, assert_pinned):
    # the bytes of every sample_ensemble draw of a kind at scale 1.5, dims 1..8
    # and seeds SAMPLE_SEEDS (both matrices of a commuting pair), in that order;
    # mc-tail generates its observables through sample_ensemble
    data = []
    for d in range(1, 9):
        for s in SAMPLE_SEEDS:
            out = sample_ensemble(EnsembleSpec(kind, d, 1.5, s))
            data += [M.mat.tobytes() for M in (out if isinstance(out, tuple) else (out,))]
    assert_pinned(f"sample/{kind}", b"".join(data))


class TestSerialization:
    def test_save_matrix_bytes_pinned(self, tmp_path):
        # a matrix object written compact: sorted keys, one trailing newline
        path = tmp_path / "m.json"
        _write_json(path, matrix_to_obj(HermitianMatrix([[1.0, 2.0 - 1.0j], [2.0 + 1.0j, -0.5]])))
        assert path.read_bytes() == (b'{"dim": 2, "entries": [[[1.0, 0.0], [2.0, -1.0]], '
                                     b'[[2.0, 1.0], [-0.5, 0.0]]]}\n')

    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(19)
        A = random_hermitian(3, rng)
        path = tmp_path / "m.json"
        _write_json(path, matrix_to_obj(A))
        B = matrix_from_obj(json.loads(path.read_text()))
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

    @pytest.mark.parametrize("obj,match", [
        ([1], "matrix must be an object"),
        ({"dim": 1}, "matrix needs key 'entries'"),
        ({"dim": 1, "entries": [[[1.0, 0.0]]], "scale": 2}, "unknown key 'scale'"),
        ({"dim": 1.5, "entries": [[[1.0, 0.0]]]}, "matrix dim must be an integer"),
        ({"dim": 1, "entries": [[[1.0]]]}, r"\[re, im\] pair"),
        ({"dim": 1, "entries": [[5]]}, r"\[re, im\] pair"),
        ({"dim": 1, "entries": [[["1", 0.0]]]}, r"\[re, im\] pair"),
        ({"dim": 2, "entries": [[[1.0, 0.0]]]}, "not a 2 x 2 array")])
    def test_reader_refuses_malformed_objects(self, obj, match):
        with pytest.raises(ValueError, match=match):
            matrix_from_obj(obj)

    def test_object_key_rule(self):
        obj = {"a": 1, "b": 2}
        assert _object("thing", obj, ("a",), ("b", "c")) is obj
        for bad, match in ((5, "thing must be an object, got 5"),
                           ({"b": 2}, "thing needs key 'a'"),
                           ({"a": 1, "d": 4}, r"thing: unknown key 'd' \(known: a, b, c\)")):
            with pytest.raises(ValueError, match=match):
                _object("thing", bad, ("a",), ("b", "c"))

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

    def test_upper_indices_cached_read_only(self):
        for d in range(0, 8):
            iu = _upper_indices(d)
            assert iu is _upper_indices(d)
            for got, want in zip(iu, np.triu_indices(d, 1)):
                assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
                assert not got.flags.writeable

    def test_digest_stable(self):
        A = HermitianMatrix.identity(2)
        assert inputs_digest([A]) == inputs_digest([A])
        assert inputs_digest([A]) != inputs_digest([A], {"k": 2})


def old_write_json(path, obj):
    """The JSON writer before ``_write_bytes``, kept as the oracle."""
    text = json.dumps(obj, sort_keys=True, default=float)
    with open(path, "w") as fh:
        fh.write(text + "\n")


class TestWriteBytes:
    LONG, SHORT = b'{"gap": -1.25e-07, "trials": 12345}\n', b'{"k": 0.5}\n'

    def test_rewrite_shorter_then_longer_leaves_new_bytes(self, tmp_path):
        path = tmp_path / "f.json"
        for data in (self.LONG, self.SHORT, self.LONG, b""):
            _write_bytes(path, data)
            assert path.read_bytes() == data

    def test_json_bytes_equal_the_old_writer(self, tmp_path):
        objs = [{"b": [1.5, np.float64(-2.0e-300)], "a": {"z": None, "y": "\u00e9"}},
                matrix_to_obj(HermitianMatrix([[1.0, 2.0 - 1.0j], [2.0 + 1.0j, -0.5]])),
                {"k": 1}]
        new, old = tmp_path / "new.json", tmp_path / "old.json"
        for obj in objs:  # each rewrite shorter than the last
            _write_json(new, obj)
            old_write_json(old, obj)
            assert new.read_bytes() == old.read_bytes()

    def test_symlink_writes_through_to_its_target(self, tmp_path):
        target, link = tmp_path / "target.json", tmp_path / "link.json"
        target.write_bytes(self.LONG)
        link.symlink_to(target)
        _write_bytes(link, self.SHORT)
        assert link.is_symlink() and target.read_bytes() == self.SHORT

    def test_hard_link_sees_the_new_bytes(self, tmp_path):
        path, other = tmp_path / "f.json", tmp_path / "g.json"
        path.write_bytes(self.LONG)
        os.link(path, other)
        _write_bytes(path, self.SHORT)
        assert other.read_bytes() == self.SHORT
        assert os.stat(path).st_ino == os.stat(other).st_ino

    def test_existing_file_keeps_its_mode(self, tmp_path):
        path = tmp_path / "f.json"
        path.write_bytes(self.LONG)
        path.chmod(0o600)
        _write_bytes(path, self.SHORT)
        assert stat.S_IMODE(os.stat(path).st_mode) == 0o600
        assert path.read_bytes() == self.SHORT

    def test_device_and_pipe_outputs(self, tmp_path):
        _write_json(os.devnull, {"k": 1})
        fifo = tmp_path / "fifo"
        os.mkfifo(fifo)
        reader = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
        try:
            _write_bytes(fifo, self.SHORT)
            assert os.read(reader, 100) == self.SHORT
        finally:
            os.close(reader)

    def test_interrupted_write_leaves_no_old_byte(self, tmp_path, monkeypatch):
        # the file is truncated to zero before the new bytes go in, so a write
        # cut after 4 bytes leaves a prefix of them that does not parse, never
        # the new bytes over the old file's tail
        path = tmp_path / "f.json"
        path.write_bytes(self.LONG)

        class CutShort:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()

            def write(self, data):
                self.fh.write(data[:4])
                self.fh.flush()
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))

            def __getattr__(self, name):
                return getattr(self.fh, name)

        monkeypatch.setattr(hermitian, "open",
                            lambda file, mode: CutShort(builtins.open(file, mode)), raising=False)
        with pytest.raises(OSError):
            _write_bytes(path, self.SHORT)
        assert path.read_bytes() == self.SHORT[:4]
        with pytest.raises(json.JSONDecodeError):
            json.loads(path.read_bytes())


def draw_oracle(kind, d, scale, rng, count, shared=None):
    """``_draw`` as it was before real and imaginary parts came from one
    ``rng`` call, kept as the oracle of its values and generator stream."""
    shape = (count, d, d)

    def gaussian_hermitian(shape, scale):
        M = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        return scale * (M + np.swapaxes(M.conj(), -1, -2)) / 2.0

    if kind == "gaussian-hermitian":
        return gaussian_hermitian(shape, scale)
    if kind == "diagonal":
        out = np.zeros(shape, dtype=np.complex128)
        out[:, np.arange(d), np.arange(d)] = scale * rng.normal(size=(count, d))
        return out
    if kind == "psd":
        X = (rng.normal(size=shape) + 1j * rng.normal(size=shape)) / np.sqrt(2.0)
        return scale * (X @ np.swapaxes(X.conj(), -1, -2)) / d
    if kind == "low-rank":
        r = max(1, d // 2)
        Z = rng.normal(size=(count, r, 2 * d + 1))
        v = Z[..., :d] + 1j * Z[..., d:2 * d]
        re, im = v.real[..., None, :], v.imag[..., None, :]
        v /= np.sqrt(re @ np.swapaxes(re, -1, -2) + im @ np.swapaxes(im, -1, -2))[..., 0]
        w = scale * Z[..., 2 * d]
        H = np.zeros(shape, dtype=np.complex128)
        for j in range(r):
            H += w[:, j, None, None] * (v[:, j, :, None] * v[:, j, None, :].conj())
        return (H + np.swapaxes(H.conj(), -1, -2)) / 2.0
    if kind == "commuting-pair":
        shared = count if shared is None else shared
        bases = np.linalg.eigh(gaussian_hermitian((1 + count - shared, d, d), 1.0))[1]
        U = bases[np.maximum(np.arange(count) - shared + 1, 0)]
        w = scale * rng.normal(size=(count, d))
        return (U * w[:, None, :]) @ np.swapaxes(U.conj(), -1, -2)
    m = max(1, int(round(scale)))
    S = rng.integers(-m, m + 1, size=shape)
    K = rng.integers(-m, m + 1, size=shape)
    lower = np.tri(d, k=-1, dtype=bool)
    real = np.where(lower, np.swapaxes(S, -1, -2), S)
    imag = np.where(lower, -np.swapaxes(K, -1, -2), np.where(lower.T, K, 0))
    return real.astype(float) + 1j * imag.astype(float)


@pytest.mark.parametrize("kind", ENSEMBLE_KINDS)
def test_draw_matches_its_oracle_bit_for_bit(kind):
    # values, signed zeros included, and the generator state after the draw
    for d in range(1, 7):
        for count, shared in ((1, None), (3, 2), (4, 1), (4, None)):
            for scale in (0.3, 1.0, 2.6):
                for seed in range(3):
                    rng, ref = np.random.default_rng(seed), np.random.default_rng(seed)
                    got = _draw(kind, d, scale, rng, count, shared)
                    want = draw_oracle(kind, d, scale, ref, count, shared)
                    assert got.dtype == want.dtype and got.tobytes() == want.tobytes(), \
                        (d, count, shared, scale, seed)
                    assert rng.random() == ref.random()


class TestSharedBoundaryHelpers:
    """Certified input lists and the seeded trial scheme have one definition each."""

    ENTRY_POINTS = {
        "traceineq": lambda ms: gap_exchangeable(*ms),
        "conjectures": lambda ms: gap_conjecture_exp(*ms),
        "DifferenceBoundSet": lambda ms: DifferenceBoundSet(ms).sum_of_squares.mat.tobytes(),
        "RademacherSumObservable":
            lambda ms: RademacherSumObservable(ms).batch([[1.0, -1.0, 1.0]]).tobytes(),
    }

    @pytest.mark.parametrize("entry", sorted(ENTRY_POINTS))
    def test_entry_points_certify_alike(self, entry):
        fn = self.ENTRY_POINTS[entry]
        rng = np.random.default_rng(61)
        mats = [random_hermitian(3, rng, 0.5) for _ in range(3)]
        assert fn(mats) == fn([np.array(M.mat) for M in mats])
        with pytest.raises(ValueError, match="dimension mismatch: 3 vs 2"):
            fn(mats[:2] + [random_hermitian(2, rng)])
        with pytest.raises(ValueError, match="dimension mismatch: 3 vs 2"):
            fn([np.array(M.mat) for M in mats[:2]] + [np.eye(2)])
        with pytest.raises(HermiticityError):
            fn(mats[:2] + [[[0.0, 1.0, 0.0], [0.0, 0.0, 0.0], [0.0, 0.0, 0.0]]])

    def test_trial_generator_and_cell(self, seeded_trials):
        # trial t draws from the run's one generator, in the state the plain
        # trial-by-trial stream leaves it, on its grid cell
        from matconc.traceineq import _trials_in_order

        kinds, dims = ENSEMBLE_KINDS, (2, 3, 5)

        def draw(kind, dim, scale, rng):
            return str(rng.bit_generator.state), _draw(kind, dim, scale, rng, 2)

        run = [(t, kind, dim, gaps[i]) for t, kind, dim, gaps, i in _trials_in_order(
            77, 40, kinds, dims, 1.0, draw, lambda xs: xs)]
        ref = list(seeded_trials(77, kinds, dims, 40,
                                 lambda kind, dim, rng: draw(kind, dim, 1.0, rng)))
        assert [r[:3] for r in run] == [r[:3] for r in ref]
        assert all((r[1], r[2]) == (kinds[r[0] % 6], dims[(r[0] // 6) % 3]) for r in run)
        for (_, _, _, (state, X)), (_, _, _, (ref_state, ref_X)) in zip(run, ref):
            assert state == ref_state and X.tobytes() == ref_X.tobytes()

    def test_fuzzer_and_search_derive_trial_t_alike(self, monkeypatch, seeded_trials):
        import matconc.conjectures as conjectures
        import matconc.traceineq as traceineq

        for name in ("_trials_in_order", "_trial_grid", "_draw"):
            assert getattr(traceineq, name) is getattr(conjectures, name)
        seen = {"fuzz": [], "search": []}
        draws = {}
        driver = traceineq._trials_in_order

        def recording(key):
            def trials_in_order(seed, trials, kinds, dims, scale, draw, evaluate):
                draws[key] = draw, scale

                def recorded_draw(kind, dim, scale, rng):
                    state = str(rng.bit_generator.state)
                    seen[key].append((len(seen[key]), kind, dim, state))
                    return draw(kind, dim, scale, rng)
                for trial in driver(seed, trials, kinds, dims, scale, recorded_draw, evaluate):
                    assert trial[:3] == seen[key][trial[0]][:3]
                    yield trial
            return trials_in_order

        monkeypatch.setattr(traceineq, "_trials_in_order", recording("fuzz"))
        monkeypatch.setattr(conjectures, "_trials_in_order", recording("search"))
        traceineq.fuzz_grid("exchangeable", ENSEMBLE_KINDS, (2, 3), 20, 1.0, 5)
        conjectures.counterexample_search("expconj", (2, 3), 20, 5, descent_budget=0)
        for key in ("fuzz", "search"):
            def stated(kind, dim, rng, drawn=draws[key]):
                state = str(rng.bit_generator.state)
                draw, scale = drawn
                draw(kind, dim, scale, rng)
                return state
            ref = seeded_trials(5, ENSEMBLE_KINDS, (2, 3), 20, stated)
            assert seen[key] == list(ref)
