import numpy as np
import pytest

from modloc_lab import charge_fluct as cf
from modloc_lab import chiral_ej as ce
from modloc_lab import gaussian_core as gc
from modloc_lab import quadrature as quad
from modloc_lab.cli_bench.config import load_config
from modloc_lab.cli_bench.suites import run_experiment

EPS = np.finfo(float).eps

# every order the engines ask for at the default configs, and the orders the
# perfbench configs and the tests add
ORDERS = (1, 2, 3, 12, 14, 16, 26, 32, 36, 42, 48, 56, 64, 71, 72, 88, 96,
          100, 160, 318, 320, 360, 480, 600, 960)


def _mp_root_and_weight(mp, n, x0):
    """The root of P_n next to the double x0, and its weight, at mp's
    precision: one Newton step from x0, with P_n' moved to the new root by
    P_n'' from Legendre's equation (both errors are O((x - x0)^2))."""
    x = mp.mpf(x0)
    p_prev, p = mp.mpf(1), x
    for k in range(1, n):
        p_prev, p = p, ((2 * k + 1) * x * p - k * p_prev) / (k + 1)
    dp = n * (p_prev - x * p) / (1 - x * x)
    d2p = (2 * x * dp - n * (n + 1) * p) / (1 - x * x)
    root = x - p / dp
    dp += d2p * (root - x)
    return root, 2 / ((1 - root * root) * dp * dp)


@pytest.mark.parametrize("n", ORDERS)
def test_gauss_legendre_against_mpmath(n):
    # Measured over every node of the nonnegative half: nodes 2.7e-17 to
    # 1.1e-16 off (n = 14, one ulp near 1), weights 2 eps (n = 2) to
    # 9.2e-12 (n = 960) relative off, at most 0.1 n^2 eps.  The end weight
    # moves by dx / (1 - x) with its node, and 1 - x ~ 2.9 / n^2, so
    # rounding that node to a double alone moves it by up to 0.09 n^2 eps.
    # leggauss was as close in the nodes and 5.6e-10 off in the weights at
    # n = 480.  Checked here: the top four nodes, the middle one and a
    # stride of the rest.
    mp = pytest.importorskip("mpmath")
    x, w = quad.gauss_legendre(n)
    assert x.shape == w.shape == (n,)
    assert np.all(np.diff(x) > 0) and np.all(w > 0)
    half = (n + 1) // 2
    picks = {*range(min(4, half)), half - 1, *range(0, half, max(1, half // 12))}
    with mp.workdps(40):
        for i in sorted(picks):
            j = n - 1 - i                   # the i-th node from the top
            root, weight = _mp_root_and_weight(mp, n, x[j])
            assert abs(x[j] - root) < 1.5e-16, (n, j)
            assert abs(w[j] - weight) / weight < (8 + 0.2 * n * n) * EPS, (n, j)


@pytest.mark.parametrize("n", ORDERS)
def test_gauss_legendre_is_exactly_symmetric(n):
    x, w = quad.gauss_legendre(n)
    assert np.array_equal(x, -x[::-1])
    assert np.array_equal(w, w[::-1])
    if n % 2:
        assert x[n // 2] == 0.0 and not np.signbit(x[n // 2])
    assert abs(np.sum(w) - 2.0) < 8 * EPS


def test_gauss_legendre_rule_holds_no_matrix(traced_peak):
    # Newton on the recurrence holds a few arrays of n / 2 nodes: measured
    # 20 KiB at n = 480, where leggauss's companion matrix peaked at 1.8 MiB
    assert traced_peak(lambda: quad._gauss_legendre_rule(480)) < 0.05


@pytest.mark.parametrize("n_rows, width", [
    (0, 56), (1, 56), (2, 6000), (9, 4096), (320, 320), (329, 320), (961, 72),
    (645, 88), (1600, 6000)])
def test_row_blocks_tile_the_table_within_the_budget(n_rows, width):
    blocks = quad.row_blocks(n_rows, width)
    rows = [np.arange(n_rows)[b] for b in blocks]
    assert np.array_equal(np.concatenate(rows + [np.arange(0)]), np.arange(n_rows))
    # one height, the largest multiple of 8 that fits the budget, or 8 for
    # wide tables; a one-row remainder joins the block before it
    height = max(8, quad._BLOCK_ENTRIES // width // 8 * 8)
    assert all(r.size == height for r in rows[:-1])
    if rows:
        assert 1 < rows[-1].size <= height + 1 or n_rows == 1


def test_cached_rule_is_read_only():
    x, w = quad.gauss_legendre(16)
    assert quad.gauss_legendre(16)[0] is x
    for a in (x, w):
        with pytest.raises(ValueError, match="read-only"):
            a[0] = 1.0
        with pytest.raises(ValueError, match="read-only"):
            a *= 2.0
    assert np.array_equal(x, quad._gauss_legendre_rule(16)[0])


def _lstsq_fit(x, y):
    # the least-squares route linear_fit took before its closed form
    A = np.vstack([x, np.ones_like(x)]).T
    coef, *_ = np.linalg.lstsq(A, y, rcond=None)
    pred = A @ coef
    ss_res = float(np.sum((y - pred) ** 2))
    ss_tot = float(np.sum((y - np.mean(y)) ** 2))
    return float(coef[0]), float(coef[1]), 1.0 - ss_res / ss_tot


def test_linear_fit_matches_lstsq_on_the_suite_fits(monkeypatch):
    # the x and y of every fit charge-scaling (six) and entropy-scan (four:
    # one per claim, the calibration reads its scan's fit) make at their
    # default configs; measured at most 3.9e-15 apart
    fits = []

    def recorded(x, y):
        fits.append((np.asarray(x, float), np.asarray(y, float)))
        return quad.linear_fit(x, y)

    for module in (cf, ce, gc):
        monkeypatch.setattr(module, "linear_fit", recorded)
    for name in ("charge-scaling", "entropy-scan"):
        run_experiment(load_config(name))
    assert len(fits) == 10
    for x, y in fits:
        got, ref = quad.linear_fit(x, y), _lstsq_fit(x, y)
        assert got == pytest.approx(ref, rel=1e-13, abs=0.0)
