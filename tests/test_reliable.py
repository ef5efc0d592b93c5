"""Unit tests for the BELLA reliable-k-mer model (repro.kmers.reliable)."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.kmers.reliable import (
    estimate_distinct_kmers,
    estimate_total_kmers,
    expected_singleton_fraction,
    high_frequency_threshold,
    optimal_k,
    poisson_quantile,
    probability_correct_kmer,
    probability_shared_kmer,
    reliable_range,
)


class TestProbabilities:
    def test_correct_kmer_probability(self):
        assert probability_correct_kmer(0.0, 17) == 1.0
        assert probability_correct_kmer(0.15, 17) == pytest.approx(0.85**17)

    def test_correct_probability_decreases_with_k(self):
        assert probability_correct_kmer(0.1, 21) < probability_correct_kmer(0.1, 11)

    def test_shared_kmer_probability_monotone_in_overlap(self):
        p_short = probability_shared_kmer(0.15, 17, 500)
        p_long = probability_shared_kmer(0.15, 17, 5000)
        assert p_long > p_short

    def test_shared_kmer_zero_when_overlap_too_short(self):
        assert probability_shared_kmer(0.1, 17, 10) == 0.0

    def test_shared_kmer_high_for_typical_settings(self):
        # The paper's operating point: 17-mers, 10-15% error, >= 2 kbp overlap.
        assert probability_shared_kmer(0.15, 17, 2000) > 0.99

    def test_validation(self):
        with pytest.raises(ValueError):
            probability_correct_kmer(1.5, 17)
        with pytest.raises(ValueError):
            probability_correct_kmer(0.1, 0)


class TestOptimalK:
    def test_typical_long_read_value(self):
        # For PacBio-like error rates the paper says "17-mers are typical".
        k = optimal_k(0.12, min_overlap=2000)
        assert 15 <= k <= 23

    def test_lower_error_allows_longer_k(self):
        assert optimal_k(0.01, min_overlap=2000) > optimal_k(0.20, min_overlap=2000)

    def test_extreme_error_falls_back_to_kmin(self):
        assert optimal_k(0.6, min_overlap=300, k_min=9) == 9

    def test_validation(self):
        with pytest.raises(ValueError):
            optimal_k(0.1, target_probability=1.5)
        with pytest.raises(ValueError):
            optimal_k(0.1, k_min=20, k_max=10)


class TestThresholds:
    def test_threshold_scales_with_coverage(self):
        m30 = high_frequency_threshold(30, 0.12, 17)
        m100 = high_frequency_threshold(100, 0.12, 17)
        assert m100 > m30
        assert m30 >= 4

    def test_reliable_range(self):
        lo, hi = reliable_range(30, 0.12, 17)
        assert lo == 2
        assert hi == high_frequency_threshold(30, 0.12, 17)

    def test_validation(self):
        with pytest.raises(ValueError):
            high_frequency_threshold(0, 0.1, 17)
        with pytest.raises(ValueError):
            high_frequency_threshold(30, 0.1, 17, tail_probability=0.0)


#: ``int(scipy.stats.poisson.ppf(1 - tail, mean))`` from scipy 1.17.1, one
#: row per mean, one column per tail of POISSON_TAILS.
POISSON_TAILS = (1e-2, 1e-3, 1e-4, 1e-5, 3e-6, 1e-6, 1e-7, 3e-8, 1e-8)
SCIPY_POISSON_PPF = {
    1e-06: (0, 0, 0, 0, 0, 0, 1, 1, 1),
    0.0001: (0, 0, 0, 1, 1, 1, 1, 1, 1),
    0.01: (0, 1, 1, 2, 2, 2, 3, 3, 3),
    0.3: (2, 3, 4, 5, 5, 5, 6, 7, 7),
    1.0: (4, 5, 6, 8, 8, 9, 10, 10, 11),
    3.7: (9, 11, 13, 14, 15, 16, 17, 18, 19),
    12.0: (21, 24, 27, 29, 31, 32, 34, 35, 36),
    41.0: (57, 62, 67, 71, 73, 75, 78, 80, 82),
    137.0: (165, 175, 183, 190, 193, 196, 202, 205, 208),
    400.0: (447, 463, 476, 488, 494, 499, 508, 513, 517),
}


class TestPoissonQuantile:
    @pytest.mark.parametrize("mean", sorted(SCIPY_POISSON_PPF))
    def test_matches_scipy_table(self, mean):
        got = tuple(poisson_quantile(1.0 - tail, mean) for tail in POISSON_TAILS)
        assert got == SCIPY_POISSON_PPF[mean]

    def test_matches_scipy_when_installed(self):
        stats = pytest.importorskip("scipy.stats")
        for mean in (1e-6, 0.05, 0.9, 3.4, 17.0, 99.0, 400.0, 1000.0):
            for tail in (1e-2, 1e-4, 1e-5, 1e-8):
                expected = int(stats.poisson.ppf(1.0 - tail, mean))
                assert poisson_quantile(1.0 - tail, mean) == expected, (mean, tail)

    def test_exact_where_exp_of_minus_mean_underflows(self):
        # exp(-1000) is 0.0 in float64; the log-space walk still finds
        # scipy's quantiles.
        assert poisson_quantile(0.5, 1000.0) == 1000
        assert poisson_quantile(1.0 - 1e-5, 1000.0) == 1138

    def test_validation(self):
        for q in (0.0, 1.0, -0.1):
            with pytest.raises(ValueError):
                poisson_quantile(q, 1.0)
        with pytest.raises(ValueError):
            poisson_quantile(0.5, 0.0)

    def test_cli_import_leaves_scipy_out(self):
        # Neither scipy nor networkx (used only by repro.overlap.graph's
        # functions) is imported when the CLI starts.
        src = Path(__file__).resolve().parents[1] / "src"
        code = ("import sys; sys.path.insert(0, sys.argv[1]); import repro.cli; "
                "print('scipy' in sys.modules, 'networkx' in sys.modules)")
        out = subprocess.run([sys.executable, "-c", code, str(src)],
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "False False"


class TestCardinalityEstimates:
    def test_total_kmers_is_gd(self):
        assert estimate_total_kmers(1_000_000, 30) == 30_000_000

    def test_distinct_estimate_between_genome_and_total(self):
        g, d = 1_000_000, 30
        distinct = estimate_distinct_kmers(g, d, 0.12, 17)
        assert g < distinct < estimate_total_kmers(g, d)

    def test_singleton_fraction_matches_paper_band(self):
        # §6: "up to 98% of k-mers from long reads are singletons".
        frac = expected_singleton_fraction(30, 0.12, 17)
        assert 0.90 < frac < 0.99

    def test_singleton_fraction_grows_with_error(self):
        assert (expected_singleton_fraction(30, 0.20, 17)
                > expected_singleton_fraction(30, 0.05, 17))

    def test_validation(self):
        with pytest.raises(ValueError):
            estimate_total_kmers(0, 30)
        with pytest.raises(ValueError):
            estimate_distinct_kmers(0, 30, 0.1, 17)
        with pytest.raises(ValueError):
            expected_singleton_fraction(0, 0.1, 17)
