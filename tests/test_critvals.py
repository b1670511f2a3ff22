import io
import math
import os
import subprocess
import sys
import threading
import time
import tracemalloc
from importlib import resources
from pathlib import Path

import numpy as np
import pytest

from fedstat import cli, critvals
from fedstat.critvals import CriticalValueTable, lookup, simulate_table
from reference import shipped_table_with

REFERENCE_LEVELS = (0.01, 0.025, 0.05, 0.1, 0.5, 0.9, 0.95, 0.975, 0.99)
REFERENCE_ROWS = {
    0.0: (-8.634, -6.753, -5.324, -3.877, 0.0, 3.877, 5.324, 6.753, 8.634),
    0.5: (-7.386, -5.851, -4.621, -3.446, 0.0, 3.446, 4.621, 5.851, 7.386),
}


def reference_table():
    betas = tuple(REFERENCE_ROWS)
    return CriticalValueTable(
        betas=betas,
        levels=REFERENCE_LEVELS,
        values=np.array([REFERENCE_ROWS[b] for b in betas]),
        steps=1000,
        replications=50000,
    )


class TestLookup:
    def test_column_addressing(self):
        table = reference_table()
        assert lookup(table, 0.05, 0.0) == 6.753

    def test_ninety_percent_column(self):
        assert lookup(reference_table(), 0.2, 0.5) == 3.446

    def test_missing_beta_is_an_error(self):
        with pytest.raises(KeyError):
            lookup(reference_table(), 0.05, 0.4)

    @pytest.mark.parametrize("value", [0.0, -6.753])
    def test_value_at_or_below_zero_is_an_error(self, value):
        table = CriticalValueTable(
            betas=(0.0,), levels=(0.975,), values=np.array([[value]]), steps=1000, replications=1
        )
        with pytest.raises(ValueError, match="must be > 0"):
            lookup(table, 0.05, 0.0)

    @pytest.mark.parametrize("alpha", [0.0, 1.0, -0.05, math.nan])
    def test_alpha_outside_the_unit_interval_is_an_error(self, alpha):
        with pytest.raises(ValueError, match=r"alpha must lie in \(0, 1\)"):
            lookup(reference_table(), alpha, 0.0)

    def test_missing_level_is_an_error(self):
        with pytest.raises(KeyError):
            lookup(reference_table(), 0.123, 0.0)

    def test_float_tolerant_beta_match(self):
        assert lookup(reference_table(), 0.05, 0.5 + 1e-12) == 5.851


# Small-scale run with a seeded generator; the full-scale comparison against
# the reference quantiles lives in the acceptance suite.
@pytest.fixture(scope="module")
def small():
    return simulate_table(
        (0.0, 1.0 / 3.0, 0.5, 2.0 / 3.0),
        REFERENCE_LEVELS,
        steps=400,
        replications=8000,
        seed=99,
    )


class TestSimulation:

    def test_median_is_near_zero(self, small):
        for row in small.values:
            assert abs(row[REFERENCE_LEVELS.index(0.5)]) < 0.05

    def test_symmetry(self, small):
        # Antithetic pairing makes the realization sample exactly symmetric.
        for row in small.values:
            for lo_level, hi_level in ((0.01, 0.99), (0.025, 0.975), (0.1, 0.9)):
                q_lo = row[REFERENCE_LEVELS.index(lo_level)]
                q_hi = row[REFERENCE_LEVELS.index(hi_level)]
                assert abs(q_lo + q_hi) < 1e-12

    def test_quantiles_increase_across_levels(self, small):
        for row in small.values:
            assert np.all(np.diff(row) > 0)

    def test_upper_quantiles_decrease_in_beta(self, small):
        # Shared Brownian paths across rows make the comparison stable.
        col = REFERENCE_LEVELS.index(0.975)
        top = small.values[:, col]
        assert np.all(np.diff(top) < 0)

    def test_ballpark_against_reference(self, small):
        assert lookup(small, 0.05, 0.0) == pytest.approx(6.753, rel=0.12)

    def test_discretization_stability(self):
        """Halving the grid on the same underlying paths moves the 97.5%
        quantile by well under 1% (common-random-numbers comparison)."""
        steps, reps, seed = 2000, 20000, 5
        rng = np.random.default_rng(seed)
        scale = 1.0 / np.sqrt(steps)
        stats_fine, stats_coarse = [], []
        done = 0
        while done < reps:
            n = min(4096, reps - done)
            paths = np.cumsum(rng.standard_normal((n, steps)) * scale, axis=1)
            b_one = paths[:, -1]
            for target, sub in ((stats_fine, 1), (stats_coarse, 2)):
                grid = np.concatenate(
                    [np.zeros((n, 1)), paths[:, : steps - sub : sub]], axis=1
                )
                r = np.arange(grid.shape[1]) * sub / steps
                dev = grid - np.outer(b_one, r)  # g_0(r) = r for beta = 0
                target.append(b_one / np.sqrt(np.mean(dev * dev, axis=1)))
            done += n
        q_fine = np.quantile(np.concatenate(stats_fine), 0.975)
        q_coarse = np.quantile(np.concatenate(stats_coarse), 0.975)
        assert abs(q_coarse / q_fine - 1.0) < 0.01

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            simulate_table((0.0,), (0.5,), steps=50, replications=5000)
        with pytest.raises(ValueError):
            simulate_table((0.0,), (0.5,), steps=500, replications=10)
        with pytest.raises(ValueError):
            simulate_table((1.2,), (0.5,), steps=500, replications=5000)
        with pytest.raises(ValueError, match="at least one beta and one level"):
            simulate_table((), (0.5,), steps=500, replications=5000)
        with pytest.raises(ValueError, match="at least one beta and one level"):
            simulate_table((0.0,), (), steps=500, replications=5000)
        for level in (0.0, 1.0):
            with pytest.raises(ValueError, match=r"levels must lie strictly inside \(0, 1\)"):
                simulate_table((0.0,), (0.5, level), steps=500, replications=5000)


def stream_normals(steps, pairs, seed):
    """The normals of paths 0..pairs-1 in 4096-path chunks, ``steps`` a path
    (B(1), then Y_1..Y_{steps-1}): paths [0, pairs // 2) from the first of
    ``SeedSequence(seed).spawn(2)``, the rest from the second.  Yields
    (first path, normals)."""
    bounds = (0, pairs // 2, pairs)
    for half, stream in enumerate(np.random.SeedSequence(seed).spawn(2)):
        rng = np.random.default_rng(stream)
        for first in range(bounds[half], bounds[half + 1], 4096):
            n = min(4096, bounds[half + 1] - first)
            yield first, rng.standard_normal((n, steps))


def reference_statistics(beta_list, steps, replications, seed):
    """A chunked simulation with the block layout's per-path arithmetic: the
    integral (sum_k w_k Y_k^2 + B(1) (2 e'Y + |d|^2 B(1))) / steps from
    BLAS-free sums, one dot per beta, beta = 0 included.

    Statistics of paths 0..P-1 in order, then their negations.
    """
    weights, cross, offset = critvals._bridge_weights(beta_list, steps)
    pairs = (replications + 1) // 2
    out = np.empty((len(beta_list), 2 * pairs))
    for first, normals in stream_normals(steps, pairs, seed):
        n = len(normals)
        b_one, y = normals[:, 0], normals[:, 1:]
        squares = np.einsum("ij,ij,j->i", y, y, weights)
        for i in range(len(beta_list)):
            dot = np.einsum("ij,j->i", y, cross[i])
            integral = (squares + b_one * (2.0 * dot + b_one * offset[i])) / steps
            out[i, first : first + n] = b_one / np.sqrt(integral)
    out[:, pairs:] = -out[:, :pairs]
    return out[:, :replications]


def implied_path_statistics(beta_list, normals):
    """Statistics of the paths that ``normals`` imply, by the centered
    rectangle rule mean((B - g B(1))^2) in 80-bit arithmetic.

    The bridge is rebuilt from its sine expansion, b = V diag(sqrt(kappa/n)) Y
    with V_jk = sqrt(2/n) sin(k pi j / n), and B_j = b_j + (j/n) B(1).
    """
    steps = normals.shape[1]
    n = np.longdouble(steps)
    j = np.arange(steps, dtype=np.longdouble)
    k = np.arange(1, steps, dtype=np.longdouble)
    pi = np.longdouble(np.pi)
    kappa = 1 / (4 * np.sin(k * pi / (2 * n)) ** 2)
    basis = np.sqrt(2 / n) * np.sin(np.outer(j, k) * pi / n)  # row j = 0 is all 0
    normals = normals.astype(np.longdouble)
    b_one = normals[:, 0]
    bridge = (normals[:, 1:] * np.sqrt(kappa / n)) @ basis.T
    r = j / n
    walk = bridge + np.outer(b_one, r)
    rows = []
    for beta in beta_list:
        g = r ** (1 / (1 - np.longdouble(beta)))
        integral = np.mean((walk - np.outer(b_one, g)) ** 2, axis=1)
        rows.append(b_one / np.sqrt(integral))
    return np.stack(rows)


def random_walk_statistics(beta_list, steps, paths, seed):
    """``paths`` independent statistics from the random-walk discretization:
    normalized partial sums of N(0,1) increments from one generator, in
    4096-path chunks, and the centered rectangle rule on their left
    endpoints."""
    rng = np.random.default_rng(seed)
    r = np.arange(steps) / steps
    out = np.empty((len(beta_list), paths))
    for first in range(0, paths, 4096):
        n = min(4096, paths - first)
        walk = np.cumsum(rng.standard_normal((n, steps)) / math.sqrt(steps), axis=1)
        b_one = walk[:, -1]
        grid = np.concatenate([np.zeros((n, 1)), walk[:, :-1]], axis=1)
        for i, beta in enumerate(beta_list):
            dev = grid - np.outer(b_one, r ** (1.0 / (1.0 - beta)))
            out[i, first : first + n] = b_one / np.sqrt(np.mean(dev * dev, axis=1))
    return out


def ks_statistic(a, b):
    """Two-sample Kolmogorov-Smirnov distance sup |F_a - F_b|."""
    a, b = np.sort(a), np.sort(b)
    both = np.concatenate([a, b])
    cdf_a = np.searchsorted(a, both, side="right") / len(a)
    cdf_b = np.searchsorted(b, both, side="right") / len(b)
    return float(np.max(np.abs(cdf_a - cdf_b)))


FOUR_BETAS = (0.0, 1.0 / 3.0, 0.5, 2.0 / 3.0)


class TestInputs:
    @pytest.mark.parametrize("steps", [1, 0, -3])
    def test_too_few_steps(self, steps):
        with pytest.raises(ValueError, match="steps must be >= 2"):
            critvals.simulate_statistics((0.0,), steps, 10, 0)

    def test_no_beta(self):
        with pytest.raises(ValueError, match="beta_list must hold at least one beta"):
            critvals.simulate_statistics((), 100, 10, 0)

    @pytest.mark.parametrize("replications", [0, -1])
    def test_no_replication(self, replications):
        with pytest.raises(ValueError, match="replications must be >= 1"):
            critvals.simulate_statistics((0.0,), 100, replications, 0)

    @pytest.mark.parametrize("beta", [-0.1, 1.0])
    def test_beta_outside_the_unit_interval(self, beta):
        with pytest.raises(ValueError, match="beta must lie in"):
            critvals.simulate_statistics((0.0, beta), 100, 10, 0)

    def test_smallest_inputs(self):
        stats = critvals.simulate_statistics((0.0, 0.5), 2, 1, 0)
        assert stats.shape == (2, 1) and np.all(np.isfinite(stats))


class TestWeights:
    @pytest.mark.parametrize("steps", [2, 3, 17, 100])
    def test_against_the_bridge_covariance(self, steps):
        weights, cross, offset = critvals._bridge_weights(FOUR_BETAS, steps)
        j = np.arange(1, steps)
        covariance = (np.minimum.outer(j, j) - np.outer(j, j) / steps) / steps
        eigenvalues, vectors = np.linalg.eigh(covariance)  # ascending; kappa descends
        np.testing.assert_allclose(weights[::-1], eigenvalues, rtol=1e-12)
        r = np.arange(steps) / steps
        for beta, e, d_sq in zip(FOUR_BETAS, cross, offset):
            d = r - r ** (1.0 / (1.0 - beta))
            # Eigenvectors are fixed up to sign: compare |e| coordinate by
            # coordinate.  Some coordinates are 0 (beta = 1/2 has d symmetric
            # about 1/2), and eigh gets those only to about 1e-15.
            expected = np.sqrt(eigenvalues) * np.abs(vectors.T @ d[1:])
            np.testing.assert_allclose(np.abs(e[::-1]), expected, rtol=1e-12, atol=1e-13)
            assert d_sq == pytest.approx(d @ d, rel=1e-14)

    @pytest.mark.parametrize("steps", [2, 17, 1000])
    def test_no_cross_term_at_beta_zero(self, steps):
        _, cross, offset = critvals._bridge_weights((0.0, 0.5), steps)
        assert np.all(cross[0] == 0.0) and offset[0] == 0.0
        assert np.any(cross[1] != 0.0) and offset[1] > 0.0


class TestDistribution:
    @pytest.mark.parametrize("steps", [10, 100])
    def test_same_law_as_the_random_walk(self, steps):
        # Two-sample KS per beta between 2 * 10^4 independent paths a side
        # (the first P columns of an antithetic sample are the P paths);
        # 0.0195 is the 0.001-level bound for these sample sizes.
        paths = 20000
        stats = critvals.simulate_statistics(FOUR_BETAS, steps, 2 * paths, 21)[:, :paths]
        walk = random_walk_statistics(FOUR_BETAS, steps, paths, 22)
        bound = math.sqrt(-math.log(0.001 / 2) / 2) * math.sqrt(2 / paths)
        for row, ref_row in zip(stats, walk):
            assert ks_statistic(row, ref_row) < bound


class TestBlockParity:
    """Two workers in blocks against the chunked reference: same sample bit
    for bit.

    Each case is (betas, steps, full blocks, pairs in a last partial block,
    odd), so that the cases keep straddling block edges within each half
    whatever the block size is: each half holds ``full`` full blocks and
    ``rest`` pairs, and an odd case adds one path to the second half and
    drops its negation, replications = 4 * (full * rows + rest) + odd.
    """

    CASES = [
        ((0.5,), 100, 0, 1001, 1),  # odd, each half inside one block
        (FOUR_BETAS, 100, 2, 758, 0),  # even, three blocks a half, the last partial
        (FOUR_BETAS, 257, 2, 1, 1),  # odd, last blocks of one and two pairs
        ((0.0,), 257, 2, 0, 0),  # even, each half an exact multiple of the block
        ((2.0 / 3.0,), 257, 1, 600, 1),  # odd, two blocks a half
    ]

    @staticmethod
    def replications(steps, full, rest, odd):
        return 4 * (full * critvals._block_rows(steps) + rest) + odd

    @pytest.mark.parametrize("betas, steps, full, rest, odd", CASES)
    def test_sorted_samples_equal_reference(self, betas, steps, full, rest, odd):
        reps = self.replications(steps, full, rest, odd)
        seed = steps + reps
        stats = critvals.simulate_statistics(betas, steps, reps, seed)
        reference = reference_statistics(betas, steps, reps, seed)
        assert stats.shape == reference.shape == (len(betas), reps)
        for row, ref_row in zip(stats, reference):
            assert np.array_equal(np.sort(row), np.sort(ref_row))
        # Statistics first, negations after; odd drops the last path's negation.
        pairs = (reps + 1) // 2
        assert np.array_equal(stats[:, pairs:], -stats[:, : reps - pairs])

    @pytest.mark.parametrize("betas, steps, full, rest, odd", CASES)
    def test_table_values_equal_reference(self, betas, steps, full, rest, odd):
        reps = self.replications(steps, full, rest, odd)
        table = simulate_table(betas, REFERENCE_LEVELS, steps=steps, replications=reps, seed=7)
        reference = reference_statistics(betas, steps, reps, 7)
        expected = np.quantile(reference, REFERENCE_LEVELS, axis=1).T
        assert np.array_equal(table.values, expected)


    def test_one_path_block_of_long_paths(self):
        # Paths longer than 8192 steps, and in each half a last block of one
        # path: the sums still run over each whole row at once, as in a
        # longer block.
        steps = 9000
        reps = self.replications(steps, 1, 1, 0)
        stats = critvals.simulate_statistics(FOUR_BETAS, steps, reps, 3)
        np.testing.assert_array_equal(stats, reference_statistics(FOUR_BETAS, steps, reps, 3))

    def test_sample_does_not_depend_on_worker_timing(self, monkeypatch):
        # The first worker thread to reach einsum sleeps before each of its
        # sums, so the other worker runs ahead by several blocks, and the
        # threads switch often; a worker that drew, or wrote, outside its
        # own half would change the sample.
        class SlowEinsum:
            slow = None
            lock = threading.Lock()

            def __getattr__(self, name):
                return getattr(np, name)

            def einsum(self, *args, **kwargs):
                if threading.current_thread() is not threading.main_thread():
                    with self.lock:
                        if self.slow is None:
                            self.slow = threading.get_ident()
                    if threading.get_ident() == self.slow:
                        time.sleep(0.05)
                return np.einsum(*args, **kwargs)

        betas, steps = FOUR_BETAS, 100
        reps = self.replications(steps, 4, 5, 1)  # five blocks a half, the last partial
        reference = reference_statistics(betas, steps, reps, 5)
        slow = SlowEinsum()
        monkeypatch.setattr(critvals, "np", slow)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as the interpreter can
        try:
            stats = critvals.simulate_statistics(betas, steps, reps, 5)
        finally:
            sys.setswitchinterval(interval)
        assert slow.slow is not None
        np.testing.assert_array_equal(stats, reference)


class TestFootprint:
    def test_table_holds_one_copy_of_its_sample(self):
        # The sample, the two workers' draw buffers and 512 KiB of the rest:
        # the quantiles partition the sample in place instead of a copy.
        steps, reps = 100, 400_000
        simulate_table(FOUR_BETAS, REFERENCE_LEVELS, steps=steps, replications=1000, seed=0)
        tracemalloc.start()
        try:
            simulate_table(FOUR_BETAS, REFERENCE_LEVELS, steps=steps, replications=reps, seed=1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        sample = len(FOUR_BETAS) * reps * 8
        buffers = 2 * critvals._block_rows(steps) * steps * 8
        assert peak <= sample + buffers + 512 * 1024


class TestArithmetic:
    @pytest.mark.parametrize("steps", [100, 1000])
    def test_near_the_centered_formula(self, steps):
        # Every path of the sample against the centered form, in 80-bit
        # arithmetic, on the path its normals imply.
        paths = 200_000 // steps
        stats = critvals.simulate_statistics(FOUR_BETAS, steps, 2 * paths, steps)[:, :paths]
        normals = np.concatenate([chunk for _, chunk in stream_normals(steps, paths, steps)])
        reference = implied_path_statistics(FOUR_BETAS, normals).astype(np.float64)
        assert np.all(np.isfinite(stats))
        np.testing.assert_allclose(stats, reference, rtol=1e-12, atol=0)

    def test_same_bytes_for_any_blas_thread_count(self):
        # Rows of 20000 values are long enough for a threaded BLAS dot to
        # split them; the statistics must not depend on it.  The last child
        # is pinned to one CPU, so its two workers share one core; the
        # statistics must not depend on the core count either.
        src = Path(critvals.__file__).resolve().parents[1]
        script = (
            "import os, sys\n"
            "if sys.argv[1:] == ['pin']:\n"
            "    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})\n"
            "from fedstat import critvals\n"
            "betas = (0.0, 1.0 / 3.0, 0.5, 2.0 / 3.0)\n"
            "stats = critvals.simulate_statistics(betas, 20000, 80, 11)\n"
            "sys.stdout.buffer.write(stats.tobytes())\n"
        )
        outputs = []
        for threads, pin in (("1", []), ("2", []), ("2", ["pin"])):
            env = dict(os.environ, PYTHONPATH=str(src), OPENBLAS_NUM_THREADS=threads)
            done = subprocess.run(
                [sys.executable, "-c", script, *pin], env=env, capture_output=True, timeout=120
            )
            assert done.returncode == 0, done.stderr.decode()
            outputs.append(done.stdout)
        assert len(outputs[0]) == 4 * 80 * 8
        assert outputs[0] == outputs[1] == outputs[2]


class TestCommandLine:
    def test_critvals_writes_the_table_bytes(self, tmp_path):
        out = tmp_path / "table.csv"
        argv = ["critvals", "--steps", "100", "--reps", "2000", "--seed", "3", "--out", str(out)]
        assert cli.main(argv) == 0
        # The documented defaults of `fedstat critvals --betas/--levels`.
        betas = (0.0, 0.3333333333333333, 0.5, 0.6666666666666666)
        table = simulate_table(betas, REFERENCE_LEVELS, steps=100, replications=2000, seed=3)
        expected = io.StringIO()
        critvals.save_csv(table, expected)
        assert out.read_bytes() == expected.getvalue().encode()
        assert out.read_text().splitlines()[0] == "# steps=100 replications=2000 seed=3"

    @pytest.mark.parametrize(
        "command, option, value, message",
        [
            ("curve", "--checkpoints", "1,abc", "'abc' is not an integer"),
            ("curve", "--checkpoints", "1,2.5", "'2.5' is not an integer"),
            ("critvals", "--betas", "x", "'x' is not a number"),
            ("critvals", "--levels", "0.5, y", "'y' is not a number"),
            ("run", "--threads", "1.5", "'1.5' is not an integer"),
            ("run", "--dump-paths", "all", "'all' is not an integer"),
            ("critvals", "--steps", "abc", "'abc' is not an integer"),
            ("critvals", "--reps", "1e5", "'1e5' is not an integer"),
            ("critvals", "--seed", "x", "'x' is not an integer"),
        ],
        ids=[
            "checkpoints", "checkpoints-float", "betas", "levels",
            "threads", "dump-paths", "steps", "reps", "seed",
        ],
    )
    def test_a_value_that_does_not_parse_names_its_option(
        self, command, option, value, message, tmp_path, capsys
    ):
        config = tmp_path / "config.txt"
        config.write_text("rounds = 5\nreplications = 2\n")
        config_args = [] if command == "critvals" else ["--config", str(config)]
        argv = [command, option, value] + config_args
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == f"fedstat: error: {option}: {message}\n"

    def test_run_names_a_header_value_of_its_table(self, tmp_path, capsys):
        table = tmp_path / "table.csv"
        table.write_text("# steps=abc replications=50000\nbeta,0.975\n0,6.7\n")
        config = tmp_path / "config.txt"
        config.write_text(f"rounds = 5\nreplications = 2\ncritical_values = {table}\n")
        assert cli.main(["run", "--config", str(config)]) == 1
        assert capsys.readouterr().err == "fedstat: error: line 1: steps: 'abc' is not an integer\n"

    @pytest.mark.parametrize("option", ["--betas", "--levels"])
    def test_critvals_rejects_an_empty_list(self, option, tmp_path, capsys):
        out = tmp_path / "table.csv"
        argv = ["critvals", option, "", "--steps", "100", "--reps", "2000", "--out", str(out)]
        assert cli.main(argv) == 1
        assert "need at least one beta and one level" in capsys.readouterr().err
        assert not out.exists()

    def test_a_closed_pipe_is_not_bad_input(self):
        """A stdout whose reader has gone exits with 141 (128 + SIGPIPE), as
        the shell reports for `cat` there, and prints nothing on stderr."""
        src = Path(critvals.__file__).resolve().parents[1]
        argv = ["critvals", "--steps", "100", "--reps", "1000", "--seed", "2"]
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = subprocess.run(
                [sys.executable, "-m", "fedstat.cli", *argv],
                env=dict(os.environ, PYTHONPATH=str(src)),
                stdout=write_end,
                stderr=subprocess.PIPE,
                timeout=120,
            )
        finally:
            os.close(write_end)
        assert (done.returncode, done.stderr) == (141, b"")

    def test_a_broken_pipe_on_out_is_an_error(self, tmp_path, monkeypatch, capsys):
        """Only stdout's reader going away exits quietly; a broken pipe while
        writing an ``--out`` file is reported as any other error of it."""

        def save_csv(table, stream):
            raise BrokenPipeError(32, "Broken pipe")

        monkeypatch.setattr(critvals, "save_csv", save_csv)
        argv = ["critvals", "--steps", "100", "--reps", "1000", "--out", str(tmp_path / "t.csv")]
        assert cli.main(argv) == 1
        assert capsys.readouterr().err == "fedstat: error: [Errno 32] Broken pipe\n"


class TestSerialization:
    def test_roundtrip(self):
        table = simulate_table((0.0, 0.5), (0.1, 0.5, 0.9), steps=200, replications=2000, seed=1)
        buffer = io.StringIO()
        critvals.save_csv(table, buffer)
        buffer.seek(0)
        loaded = critvals.load_csv(buffer)
        assert loaded.betas == table.betas
        assert loaded.levels == table.levels
        assert loaded.steps == table.steps
        assert loaded.replications == table.replications
        assert loaded.seed == table.seed == 1
        np.testing.assert_array_equal(loaded.values, table.values)

    def test_unknown_seed_is_not_written(self):
        buffer = io.StringIO()
        critvals.save_csv(reference_table(), buffer)
        assert buffer.getvalue().splitlines()[0] == "# steps=1000 replications=50000"
        buffer.seek(0)
        assert critvals.load_csv(buffer).seed is None

    def test_malformed_rejected(self):
        with pytest.raises(ValueError):
            critvals.load_csv(io.StringIO("# nothing\n"))

    @pytest.mark.parametrize("row", ["0.5,1.0", "0.5,1.0,2.0,3.0"], ids=["short", "long"])
    def test_ragged_row_names_its_line(self, row):
        text = f"# steps=1000\nbeta,0.5,0.975\n0,0.0,6.753\n\n{row}\n"
        cells = len(row.split(","))
        with pytest.raises(ValueError, match=f"^line 5: {cells} cells, the header has 3$"):
            critvals.load_csv(io.StringIO(text))


    @pytest.mark.parametrize(
        "text, message",
        [
            ("beta,0.5,0.975\n0,abc,6.7\n", "line 2: 'abc' is not a number"),
            ("# steps=1000\nbeta,0.5,0.975\n0,1.0,6.7\n\n0.5,1.0,\n", "line 5: '' is not a number"),
            ("beta,0.5,x\n0,1.0,6.7\n", "line 1: 'x' is not a number"),
            ("# steps=abc\nbeta,0.975\n0,6.7\n", "line 1: steps: 'abc' is not an integer"),
            (
                "# steps=1000 replications=1.5\nbeta,0.975\n0,6.7\n",
                "line 1: replications: '1.5' is not an integer",
            ),
            ("\n# seed=x\nbeta,0.975\n0,6.7\n", "line 2: seed: 'x' is not an integer"),
            ("# steps=1000 seed=\nbeta,0.975\n0,6.7\n", "line 1: seed: '' is not an integer"),
        ],
        ids=["data", "empty-cell", "header", "steps", "replications", "seed", "empty-seed"],
    )
    def test_cell_that_is_not_a_number_names_its_line(self, text, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            critvals.load_csv(io.StringIO(text))


class TestTableChecks:
    @pytest.mark.parametrize(
        "value, message",
        [
            ("nan", "must be finite"),
            ("inf", "must be finite"),
            ("-6.7", "must not decrease as the level increases"),
            ("9", "must not decrease as the level increases"),
        ],
        ids=["nan", "inf", "negative", "above-the-next-level"],
    )
    def test_load_rejects_a_bad_cell(self, value, message):
        with pytest.raises(ValueError, match=message):
            critvals.load_csv(io.StringIO(shipped_table_with(value)))

    def test_shipped_and_simulated_tables_load(self):
        shipped = resources.files("fedstat").joinpath("data/critical_values.csv").read_text()
        assert critvals.load_csv(io.StringIO(shipped)).values.shape == (4, 9)
        # Levels out of order: a row is checked in increasing level.
        table = simulate_table((0.0, 0.5), (0.9, 0.1, 0.5), steps=100, replications=1000, seed=2)
        buffer = io.StringIO()
        critvals.save_csv(table, buffer)
        buffer.seek(0)
        np.testing.assert_array_equal(critvals.load_csv(buffer).values, table.values)

    @pytest.mark.parametrize(
        "betas, levels, name",
        [
            ((0.0, 0.0), (0.5, 0.975), "betas"),
            ((0.0, 0.5), (0.975, 0.975), "levels"),
            ((0.5, 0.0, 0.5 + 1e-10), (0.975,), "betas"),
        ],
        ids=["equal-betas", "equal-levels", "betas-within-match"],
    )
    def test_rejects_entries_lookup_cannot_tell_apart(self, betas, levels, name):
        values = np.ones((len(betas), len(levels)))
        with pytest.raises(ValueError, match=f"{name} must differ by more than 1e-09"):
            CriticalValueTable(betas, levels, values, steps=1000, replications=1000)

    @pytest.mark.parametrize(
        "betas, levels, name",
        [((0.5, 0.5), (0.95,), "betas"), ((0.5,), (0.95, 0.95000000001), "levels")],
        ids=["equal-betas", "levels-within-match"],
    )
    def test_simulate_table_rejects_them_before_drawing(self, betas, levels, name, monkeypatch):
        def never(*args):
            raise AssertionError("simulate_statistics ran")

        monkeypatch.setattr(critvals, "simulate_statistics", never)
        with pytest.raises(ValueError, match=f"{name} must differ by more than 1e-09"):
            simulate_table(betas, levels, steps=1000, replications=400000, seed=1)

    @pytest.mark.parametrize("shape", [(2, 1), (1, 2), (1,)], ids=["rows", "columns", "flat"])
    def test_rejects_values_of_another_shape(self, shape):
        with pytest.raises(ValueError, match="values must be one row per beta, one column"):
            CriticalValueTable((0.0,), (0.975,), np.ones(shape), steps=1000, replications=1000)

    @pytest.mark.parametrize(
        "header, name",
        [
            ("# steps=-5 replications=50000", "steps"),
            ("# steps=1000 replications=-1", "replications"),
            ("# steps=1000 replications=50000 seed=-3", "seed"),
        ],
        ids=["steps", "replications", "seed"],
    )
    def test_load_rejects_a_negative_header_value(self, header, name):
        with pytest.raises(ValueError, match=f"^{name} must be >= 0$"):
            critvals.load_csv(io.StringIO(f"{header}\nbeta,0.975\n0,6.7\n"))

    def test_construction_rejects_a_negative_header_value(self):
        # 0 is the value of a header that does not record steps or replications.
        CriticalValueTable((0.0,), (0.975,), np.ones((1, 1)), steps=0, replications=0, seed=0)
        with pytest.raises(ValueError, match="^replications must be >= 0$"):
            CriticalValueTable((0.0,), (0.975,), np.ones((1, 1)), steps=1000, replications=-1)

    def test_simulate_table_rejects_a_negative_seed(self):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            simulate_table((0.0,), (0.5,), steps=100, replications=1000, seed=-1)


class TestPackagedTable:
    def test_ships_expected_rows_and_metadata(self):
        table = critvals.default_table()
        assert table.steps == 1000
        assert table.replications == 50000
        assert table.seed is None
        assert len(table.betas) == 4
        # Within the accepted band of the reference asymptotic values.
        for beta, target in ((0.0, 6.753), (1.0 / 3.0, 6.339), (0.5, 5.851), (2.0 / 3.0, 4.993)):
            assert lookup(table, 0.05, beta) == pytest.approx(target, rel=0.02)

    def test_saving_reproduces_the_shipped_bytes(self):
        ref = resources.files("fedstat").joinpath("data/critical_values.csv")
        buffer = io.StringIO()
        critvals.save_csv(critvals.default_table(), buffer)
        assert buffer.getvalue() == ref.read_text()

    def test_changing_one_result_leaves_the_next(self):
        critvals.default_table().values[0, 0] = 123.0
        ref = resources.files("fedstat").joinpath("data/critical_values.csv")
        buffer = io.StringIO()
        critvals.save_csv(critvals.default_table(), buffer)
        assert buffer.getvalue() == ref.read_text()
