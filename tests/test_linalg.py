import ast
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from lir import (
    DimensionError,
    InvalidMatrix,
    InvalidVector,
    NumericalFailure,
    RankError,
    ZeroVectorError,
    jacobi_eigh,
    pca_project,
    project_out,
    project_out_scaled,
    svd,
)
import lir
from lir.linalg import _orient
from oracles import gram_eigvals_oracle

RECON_TOL = 1e-6
ORTHO_TOL = 1e-6


def random_orthonormal(rng, d, r):
    q, _ = np.linalg.qr(rng.standard_normal((d, max(r, 1))))
    return q[:, :r]


def check_svd_invariants(a):
    res = svd(a)
    k = min(a.shape)
    assert res.sigma.size == k
    assert np.all(res.sigma >= 0.0)
    assert np.all(np.diff(res.sigma) <= 0.0)
    assert np.max(np.abs(res.u.T @ res.u - np.eye(k))) <= ORTHO_TOL
    assert np.max(np.abs(res.v.T @ res.v - np.eye(k))) <= ORTHO_TOL
    recon = res.u @ np.diag(res.sigma) @ res.v.T
    assert np.linalg.norm(recon - a) <= RECON_TOL * max(1.0, np.linalg.norm(a))
    return res


class TestSvd:
    def test_diag_2_1(self):
        # eigendecomposition of M^T M = diag(4, 1) by hand: sigma = [2, 1]
        res = svd(np.diag([2.0, 1.0]))
        assert np.allclose(res.sigma, [2.0, 1.0], atol=1e-12)
        assert np.allclose(res.v[:, 0], [1.0, 0.0], atol=1e-12)

    def test_identical_unit_rows(self):
        # rank-1: all rows u with ||u|| = 1 gives sigma = [sqrt(3), 0], v1 = u
        u = np.array([1.0, 1.0]) / np.sqrt(2.0)
        res = check_svd_invariants(np.tile(u, (3, 1)))
        assert np.allclose(res.sigma, [np.sqrt(3.0), 0.0], atol=1e-9)
        assert np.allclose(res.v[:, 0], u, atol=1e-9)  # sign convention: positive

    @pytest.mark.parametrize("shape", [(1, 1), (5, 3), (3, 5), (100, 16)])
    def test_invariants_on_fixed_shapes(self, shape):
        rng = np.random.default_rng(hash(shape) % 2**32)
        for scale in (1.0, 1e-4, 1e4):
            check_svd_invariants(scale * rng.standard_normal(shape))

    def test_invariants_on_random_shapes(self):
        rng = np.random.default_rng(7)
        for _ in range(40):
            n = int(rng.integers(1, 40))
            d = int(rng.integers(1, 12))
            check_svd_invariants(rng.standard_normal((n, d)))

    def test_rank_deficient(self):
        rng = np.random.default_rng(3)
        base = rng.standard_normal((6, 2))
        a = np.hstack([base, base @ rng.standard_normal((2, 3))])  # rank 2, 6x5
        res = check_svd_invariants(a)
        assert np.all(res.sigma[2:] <= 1e-8 * res.sigma[0])

    def test_zero_matrix(self):
        res = check_svd_invariants(np.zeros((4, 3)))
        assert np.all(res.sigma == 0.0)

    def test_sigma_squared_matches_bruteforce_eigensolve(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            n = int(rng.integers(1, 30))
            d = int(rng.integers(1, 7))
            a = rng.standard_normal((n, d)) * float(rng.uniform(0.1, 10.0))
            res = svd(a)
            oracle = np.array(gram_eigvals_oracle(a)[: res.sigma.size])
            scale = max(oracle[0], 1e-30)
            assert np.max(np.abs(res.sigma**2 - oracle)) <= 1e-8 * scale

    def test_deterministic(self):
        rng = np.random.default_rng(5)
        a = rng.standard_normal((20, 6))
        r1, r2 = svd(a), svd(a.copy())
        assert r1.u.tobytes() == r2.u.tobytes()
        assert r1.sigma.tobytes() == r2.sigma.tobytes()
        assert r1.v.tobytes() == r2.v.tobytes()

    def test_sign_convention(self):
        rng = np.random.default_rng(9)
        res = svd(rng.standard_normal((15, 6)))
        for i in range(res.v.shape[1]):
            j = int(np.argmax(np.abs(res.v[:, i])))
            assert res.v[j, i] >= 0.0

    @pytest.mark.parametrize("seed", range(12))
    def test_orientation_equals_the_column_loop_with_tied_magnitudes(self, seed):
        # A few magnitudes with both signs and -0.0, so a column's largest magnitude
        # is often tied and the first of the tied entries must decide its sign.
        rng = np.random.default_rng(seed)
        d, k = (int(n) for n in rng.integers(1, 9, size=2))
        scale = rng.choice([1e-300, 1.0, 1e300])
        v = scale * rng.choice([-2.0, -1.0, -0.0, 0.0, 1.0, 2.0], size=(d, k))
        v[:, 0] = -0.0
        expected = v.copy()
        for i in range(k):
            j = int(np.argmax(np.abs(expected[:, i])))
            if expected[j, i] < 0.0:
                expected[:, i] = -expected[:, i]
        _orient(v)
        assert v.tobytes() == expected.tobytes()

    def test_eigensolver_failure_is_numerical_failure(self, monkeypatch):
        def failing_eigh(*args, **kwargs):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setattr(np.linalg, "eigh", failing_eigh)
        for shape in ((6, 3), (3, 6)):
            with pytest.raises(NumericalFailure, match="did not converge"):
                svd(np.ones(shape))

    def test_concurrent_callers_restore_thread_count(self, openblas_threads):
        get_threads, set_threads = openblas_threads
        a = np.random.default_rng(23).standard_normal((30, 8))
        expected = svd(a).v.tobytes()
        mismatches = []

        def worker():
            for _ in range(1000):
                if svd(a).v.tobytes() != expected:
                    mismatches.append(1)

        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        set_threads(2)
        try:
            workers = [threading.Thread(target=worker) for _ in range(4)]
            for t in workers:
                t.start()
            for t in workers:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in workers)
            assert get_threads() == 2
        finally:
            sys.setswitchinterval(switch)
        assert not mismatches

    def test_gram_overflow_rejected(self):
        with np.errstate(over="ignore"), pytest.raises(InvalidMatrix):
            svd(np.array([[1e200, 1.0], [1.0, 1.0]]))

    def test_rejects_bad_input(self):
        with pytest.raises(InvalidMatrix):
            svd(np.array([[np.nan, 1.0]]))
        with pytest.raises(InvalidMatrix):
            svd(np.zeros((0, 3)))
        with pytest.raises(InvalidMatrix):
            svd(np.zeros(3))


class TestJacobi:
    def test_matches_numpy_eigh(self):
        rng = np.random.default_rng(2)
        for n in (1, 2, 5, 10):
            a = rng.standard_normal((n, n))
            a = a + a.T
            w, v = jacobi_eigh(a)
            order = np.argsort(w)
            expected = np.linalg.eigvalsh(a)
            assert np.allclose(np.sort(w), expected, atol=1e-10)
            assert np.max(np.abs(v.T @ v - np.eye(n))) < 1e-12
            # eigenvector residuals
            for i in range(n):
                assert np.linalg.norm(a @ v[:, i] - w[i] * v[:, i]) < 1e-9 * max(
                    1.0, np.max(np.abs(w))
                )
            del order

    def test_budget_exhaustion_reports_iterations(self):
        rng = np.random.default_rng(4)
        a = rng.standard_normal((8, 8))
        a = a + a.T
        with pytest.raises(NumericalFailure) as exc_info:
            jacobi_eigh(a, max_sweeps=1)
        assert exc_info.value.iterations == 1
        jacobi_eigh(a)  # default budget converges

    def test_rejects_asymmetric(self):
        with pytest.raises(InvalidMatrix):
            jacobi_eigh(np.array([[1.0, 2.0], [0.0, 1.0]]))


class TestProjectOut:
    def test_hand_example(self):
        # [3,4] against the first axis -> [0,4]; re-verified by dot products
        v = np.array([3.0, 4.0])
        basis = np.array([[1.0], [0.0]])
        out = project_out(v, basis)
        assert np.allclose(out, [0.0, 4.0], atol=1e-15)
        assert abs(float(basis[:, 0] @ out)) <= 1e-12
        assert abs(float(v @ out) - 16.0) <= 1e-12

    def test_orthogonal_input_unchanged(self):
        v = np.array([0.0, 0.0, 2.0])
        basis = np.eye(3)[:, :2]
        assert project_out(v, basis).tolist() == v.tolist()

    def test_basis_column_to_zero(self):
        rng = np.random.default_rng(1)
        basis = random_orthonormal(rng, 5, 2)
        out = project_out(basis[:, 1].copy(), basis)
        assert np.linalg.norm(out) <= 1e-9

    def test_empty_basis_identity(self):
        v = np.array([1.0, 2.0])
        assert project_out(v, np.zeros((2, 0))).tolist() == v.tolist()

    def test_laws_randomized(self):
        rng = np.random.default_rng(8)
        for _ in range(200):
            d = int(rng.integers(1, 20))
            r = int(rng.integers(0, d + 1))
            basis = random_orthonormal(rng, d, r)
            vs = rng.standard_normal((3, d)) * rng.uniform(0.01, 100.0, (3, 1))
            stacked = project_out(vs, basis)
            assert stacked.shape == vs.shape
            for v, row in zip(vs, stacked):
                out = project_out(v, basis)
                assert out.tobytes() == row.tobytes()
                again = project_out(out, basis)
                assert np.max(np.abs(again - out)) <= 1e-9 * max(1.0, np.linalg.norm(v))
                if r:
                    assert np.max(np.abs(basis.T @ out)) <= 1e-6 * max(1.0, np.linalg.norm(v))
                assert np.linalg.norm(out) <= np.linalg.norm(v) + 1e-12

    def test_fixed_rows_restored_and_input_untouched(self):
        # the last row is within tolerance of orthogonal: it keeps its 1e-9
        basis = np.eye(3)[:, :1]
        m = np.array([[0.0, 1.0, 2.0], [3.0, 4.0, 5.0], [1e-9, 7.0, 0.0]])
        before = m.tobytes()
        assert project_out(m, basis).tolist() == [[0.0, 1.0, 2.0], [0.0, 4.0, 5.0], [1e-9, 7.0, 0.0]]
        assert project_out(m[2], basis).tolist() == [1e-9, 7.0, 0.0]
        assert m.tobytes() == before

    def test_empty_basis_identity_on_matrix(self):
        m = np.random.default_rng(9).standard_normal((4, 3))
        for fn in (project_out, project_out_scaled):
            assert fn(m, np.zeros((3, 0))).tobytes() == m.tobytes()

    def test_rejects_bad_shapes(self):
        basis = np.eye(3)[:, :1]
        for bad in (np.ones((2, 2, 3)), np.ones((2, 0)), np.ones(0), np.float64(1.0)):
            for fn in (project_out, project_out_scaled):
                with pytest.raises(InvalidVector):
                    fn(bad, basis)
        with pytest.raises(InvalidVector):
            project_out(np.array([[1.0, np.inf, 0.0]]), basis)
        with pytest.raises(DimensionError):
            project_out(np.ones((2, 4)), basis)

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionError):
            project_out(np.ones(3), np.eye(2))


class TestProjectOutScaled:
    def test_unit_basis_column_to_zero(self):
        basis = np.eye(3)[:, :1]
        out = project_out_scaled(basis[:, 0].copy(), basis)
        assert np.linalg.norm(out) <= 1e-12

    def test_not_idempotent_witness(self):
        # v = 2c maps to c (coefficient 2 divided by norm 2), not to zero
        c = np.array([1.0, 0.0, 0.0])
        basis = c.reshape(3, 1)
        out = project_out_scaled(2.0 * c, basis)
        assert np.allclose(out, c, atol=1e-12)
        out2 = project_out_scaled(out, basis)
        assert np.linalg.norm(out2) <= 1e-12  # second application differs from first

    def test_orthogonal_input_unchanged(self):
        v = np.array([0.0, 3.0])
        assert project_out_scaled(v, np.array([[1.0], [0.0]])).tolist() == v.tolist()

    def test_zero_vector_rejected(self):
        basis = np.array([[1.0], [0.0]])
        with pytest.raises(ZeroVectorError):
            project_out_scaled(np.zeros(2), basis)
        with pytest.raises(ZeroVectorError):
            project_out_scaled(np.array([[1.0, 2.0], [0.0, 0.0], [3.0, 4.0]]), basis)
        with pytest.raises(ZeroVectorError):
            project_out_scaled(np.zeros((1, 2)), np.zeros((2, 0)))

    def test_matches_orthogonal_on_unit_sphere(self):
        rng = np.random.default_rng(13)
        for _ in range(50):
            d = int(rng.integers(2, 12))
            r = int(rng.integers(1, d))
            basis = random_orthonormal(rng, d, r)
            vs = rng.standard_normal((4, d))
            vs /= np.linalg.norm(vs, axis=1, keepdims=True)
            scaled = project_out_scaled(vs, basis)
            assert np.max(np.abs(scaled - project_out(vs, basis))) <= 1e-12
            for v, row in zip(vs, scaled):
                assert project_out_scaled(v, basis).tobytes() == row.tobytes()


class TestPcaProject:
    def test_single_axis_variation(self):
        a = np.array([[0.0, 5.0], [1.0, 5.0], [2.0, 5.0], [3.0, 5.0]])
        scores = pca_project(a, 1)
        centered = a[:, 0] - a[:, 0].mean()
        assert np.allclose(np.abs(scores[:, 0]), np.abs(centered), atol=1e-12)
        # sign fixed by convention: v column is +e1, so scores equal centered values
        assert np.allclose(scores[:, 0], centered, atol=1e-12)

    def test_identical_rows_zero_scores(self):
        scores = pca_project(np.array([[2.0, 3.0], [2.0, 3.0]]), 1)
        assert np.allclose(scores, 0.0, atol=1e-12)

    def test_full_rank_preserves_distances(self):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        scores = pca_project(square, 2)
        for i in range(4):
            for j in range(i + 1, 4):
                orig = np.linalg.norm(square[i] - square[j])
                proj = np.linalg.norm(scores[i] - scores[j])
                assert abs(orig - proj) <= 1e-9

    def test_column_variances_non_increasing(self):
        rng = np.random.default_rng(21)
        a = rng.standard_normal((30, 6)) * np.array([5.0, 3.0, 2.0, 1.0, 0.5, 0.1])
        scores = pca_project(a, 6)
        variances = scores.var(axis=0)
        assert np.all(np.diff(variances) <= 1e-12)

    @pytest.mark.parametrize("shape", [(40, 8), (5, 12)])
    def test_matches_svd_scores(self, shape):
        rng = np.random.default_rng(17)
        a = rng.standard_normal(shape) * np.linspace(4.0, 0.5, shape[1])
        k = min(shape) - 1
        scores = pca_project(a, k)
        res = svd(a - a.mean(axis=0))
        expected = res.u[:, :k] * res.sigma[:k]
        assert np.linalg.norm(scores - expected) <= 1e-9 * np.linalg.norm(expected)

    def test_rank_errors(self):
        a = np.ones((3, 2))
        with pytest.raises(RankError):
            pca_project(a, 0)
        with pytest.raises(RankError):
            pca_project(a, 3)
        with pytest.raises(RankError):
            pca_project(np.ones((1, 4)), 1)


# BLAS matrix products: their last bits may change with the OpenBLAS thread count.
BLAS_PRODUCTS = {"dot", "vdot", "inner", "matmul", "tensordot", "multi_dot", "matrix_power"}


@pytest.mark.parametrize("module", ["core", "io"])
def test_module_forms_no_blas_product(module):
    # Their products gate what is stored (orthonormality checks), so they run on
    # einsum, which rounds alike at any thread count.
    path = Path(lir.__file__).parent / f"{module}.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = [
        f"line {node.lineno}"
        for node in ast.walk(tree)
        if isinstance(getattr(node, "op", None), ast.MatMult)
        or (isinstance(node, ast.Attribute) and node.attr in BLAS_PRODUCTS)
    ]
    assert found == [], f"lir/{module}.py forms a BLAS product at {', '.join(found)}"


# Functions whose BLAS products run unpinned. _gemm_rows is certified: every rank
# it gives is checked against einsum scores. The logistic functions are ROADMAP
# item 2's open work, to be pinned or certified and then struck from this list.
UNPINNED = {
    "evaluation._gemm_rows",
    "evaluation._logits",
    "evaluation.train_logistic",
    "evaluation.logistic_loss",
}


def test_every_blas_product_is_pinned_or_listed():
    # Every module of lir, a new one included: a product (@, or a BLAS_PRODUCTS
    # attribute) runs inside `with _one_blas_thread():` or in an UNPINNED
    # function. A function defined in a pinned block runs wherever it is called.
    found, listed = [], set()

    def visit(node, name, pinned):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)):
            name, pinned = f"{name}.{getattr(node, 'name', '<lambda>')}", False
        elif isinstance(node, (ast.With, ast.AsyncWith)):
            calls = [item.context_expr.func for item in node.items if isinstance(item.context_expr, ast.Call)]
            pinned = pinned or any(getattr(f, "id", getattr(f, "attr", None)) == "_one_blas_thread" for f in calls)
        if isinstance(getattr(node, "op", None), ast.MatMult) or (
            isinstance(node, ast.Attribute) and node.attr in BLAS_PRODUCTS
        ):
            if name in UNPINNED:
                listed.add(name)
            elif not pinned:
                found.append(f"{name} (line {node.lineno})")
        for child in ast.iter_child_nodes(node):
            visit(child, name, pinned)

    root = Path(lir.__file__).parent
    for path in sorted(root.rglob("*.py")):
        module = ".".join(path.relative_to(root).with_suffix("").parts)
        visit(ast.parse(path.read_text(encoding="utf-8")), module, False)
    assert found == [], f"unpinned BLAS products in {', '.join(found)}"
    assert listed == UNPINNED, f"listed but forming no product: {sorted(UNPINNED - listed)}"
