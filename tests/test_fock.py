import math
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.linalg import expm_multiply
from scipy.special import gammaln
from scipy.stats import poisson

from fock_reference import apply_op, ladder, oracle_mode_quadrature, oracle_quadrature_stats
from tsui import fock
from tsui.fock import (
    FockState,
    TruncationError,
    _loss_weights,
    apply_loss_fock,
    build_seeded_tmss_fock,
    oracle_moment_bundle,
)
from tsui.gaussian import (
    InterferometerParams,
    apply_loss,
    joint_quadrature_stats,
    photon_moments,
    seeded_tmss,
)


class TestBuild:
    def test_unseeded_photon_pair_ladder(self):
        # Diagonal amplitudes tanh(r)^n / cosh(r), everything else zero.
        state, report = build_seeded_tmss_fock(2.0, 0.0, cutoff=40)
        r = math.acosh(math.sqrt(2.0))
        n = np.arange(41)
        expected = np.tanh(r) ** n / math.cosh(r)
        assert np.abs(np.diag(state.amplitudes) - expected).max() < 1e-10
        off = state.amplitudes - np.diag(np.diag(state.amplitudes))
        assert np.abs(off).max() < 1e-12
        assert report.norm_deficit < 1e-10
        # At G = 2 the vacuum amplitude is 1/sqrt(2).
        assert math.isclose(state.amplitudes[0, 0], 1.0 / math.sqrt(2.0), rel_tol=1e-10)

    def test_gain_one_is_coherent(self):
        state, report = build_seeded_tmss_fock(1.0, 0.5, cutoff=20)
        c = np.exp(-0.125) * 0.5 ** np.arange(21) / np.sqrt(
            [math.factorial(k) for k in range(21)]
        )
        assert np.abs(state.amplitudes[:, 0] - c).max() < 1e-12
        assert np.abs(state.amplitudes[:, 1:]).max() == 0.0
        assert report.norm_deficit < 1e-12

    def test_truncation_error_raised(self):
        # Unseeded tail mass beyond the cutoff is tanh(r)^(2(N+1)) = 2^-13.
        with pytest.raises(TruncationError) as err:
            build_seeded_tmss_fock(2.0, 0.0, cutoff=12)
        assert err.value.report.norm_deficit > 1e-4

    def test_deficit_decreases_with_cutoff(self):
        deficits = []
        for cutoff in (14, 20, 30):
            _, report = build_seeded_tmss_fock(2.0, 0.0, cutoff=cutoff)
            deficits.append(report.norm_deficit)
        assert deficits[0] > deficits[1] > deficits[2]

    def test_moment_cutoff_is_the_smallest_bounding_the_tail(self):
        # Unseeded G = 2 is thermal, p(n) = 2^-(n+1), so the n^2-weighted
        # tail is summed directly.
        n = np.arange(2000.0)
        tail = np.cumsum((n * n * 2.0 ** -(n + 1))[::-1])[::-1]
        assert fock.moment_cutoff(2.0) == np.flatnonzero(tail[1:] <= 1e-7)[0] == 33
        # Seeded: the tails summed over the largest block, past which the
        # state holds nothing at these settings; the conjugate's is smaller.
        for gain, alpha in ((2.0, 1.0), (1.67, 5.0), (1.2, 0.5)):
            cutoff = fock.moment_cutoff(gain, alpha)
            prob = fock._amplitudes(gain, alpha, fock.MAX_CUTOFF) ** 2
            n = np.arange(fock.MAX_CUTOFF + 1.0)
            probe, conj = (np.cumsum((n * n * m)[::-1])[::-1] for m in (prob.sum(1), prob.sum(0)))
            assert conj[cutoff + 1] <= probe[cutoff + 1] <= 1e-7 < probe[cutoff]

    def test_moment_cutoff_beyond_the_cap(self):
        # No cutoff up to MAX_CUTOFF meets the tail bound: a message, not a
        # truncation error, also where the largest block itself misses
        # more than the build's gate.
        for gain, alpha in ((1.67, 12.0), (2.0, 12.0)):
            with pytest.raises(ValueError, match="no cutoff up to 400"):
                fock.moment_cutoff(gain, alpha)

    def test_log_factorial_table(self):
        # log n! for every photon number up to MAX_CUTOFF + 1, each within
        # 1e-15 of scipy's log-gamma (both are exactly 0 at n = 0 and 1).
        n = np.arange(fock.MAX_CUTOFF + 2)
        table = fock._LOG_FACTORIAL
        assert table.shape == n.shape
        assert np.all(np.abs(table - gammaln(n + 1)) <= 1e-15 * gammaln(n + 1))

    def test_build_at_max_cutoff_reads_inside_the_table(self, monkeypatch):
        # A state at MAX_CUTOFF, lossy on both arms, reads log n! only for
        # n <= MAX_CUTOFF: the same moments from the table cut there.  A
        # block past MAX_CUTOFF is refused before any table read.
        def bundle():
            state, _ = build_seeded_tmss_fock(1.67, 1.0, cutoff=fock.MAX_CUTOFF)
            state = apply_loss_fock(apply_loss_fock(state, 0.76, "probe"), 0.79, "conjugate")
            return state.amplitudes, oracle_moment_bundle(state, [0.0, 0.5, 1.0])["joint"]

        full = bundle()
        monkeypatch.setattr(fock, "_LOG_FACTORIAL", fock._LOG_FACTORIAL[: fock.MAX_CUTOFF + 1])
        cut = bundle()
        assert all(np.array_equal(a, b) for a, b in zip(full, cut))
        with pytest.raises(ValueError, match="cutoff must lie in"):
            FockState(np.eye(fock.MAX_CUTOFF + 2))

    def test_input_validation(self):
        with pytest.raises(ValueError):
            build_seeded_tmss_fock(0.5, 0.0)
        with pytest.raises(ValueError):
            build_seeded_tmss_fock(2.0, -1.0)
        with pytest.raises(ValueError):
            build_seeded_tmss_fock(2.0, 0.0, cutoff=0)
        # Non-finite seeds are rejected before anything is allocated (NaN
        # used to return a NaN state).
        for alpha in (math.nan, math.inf):
            with pytest.raises(ValueError, match="alpha"):
                build_seeded_tmss_fock(1.5, alpha)

    @pytest.mark.parametrize("gain", [1.0, 1.67, 2.0, 2.5])
    @pytest.mark.parametrize("alpha", [0.0, 1.0, 2.0])
    def test_matches_brute_force_exponentiation(self, gain, alpha):
        # The closed form against exp(r (ad_p ad_c - a_p a_c)) |alpha, 0>
        # integrated on a box 64 levels past the largest cutoff checked,
        # where the seed and the squeezed tail are negligible.  Each
        # cutoff's block is a slice of the same converged state, and its
        # deficit is the mass the exponentiation puts outside that block.
        dim = 60 + 1 + 64
        n = np.arange(dim)
        seed = np.zeros((dim, dim))
        seed[:, 0] = np.sqrt(poisson.pmf(n, alpha**2))
        a = sparse.csr_matrix(ladder(dim))
        r = math.acosh(math.sqrt(gain))
        gen = r * (sparse.kron(a.T, a.T) - sparse.kron(a, a))
        ref = expm_multiply(gen.tocsr(), seed.reshape(-1)).reshape(dim, dim)
        total = float(np.vdot(ref, ref))
        accepted = 0
        for cutoff in (20, 40, 60):
            block = ref[: cutoff + 1, : cutoff + 1]
            tail = total - float(np.vdot(block, block))
            try:
                state, report = build_seeded_tmss_fock(gain, alpha, cutoff)
            except TruncationError as err:
                assert tail > 1e-4
                assert abs(err.report.norm_deficit - tail) < 1e-12
                continue
            accepted += 1
            assert np.abs(state.amplitudes - block).max() < 1e-13
            assert abs(report.norm_deficit - tail) < 1e-12
        assert accepted


def dense_kraus(eta, dim):
    """The loss channel's Kraus operators as dense matrices,
    K_k[n - k, n] = w[k, n]."""
    k, n = np.triu_indices(dim)
    kraus = np.zeros((dim, dim, dim))
    kraus[k, n - k, n] = _loss_weights(eta, dim)[k, n]
    return kraus


def dense_loss(branches, eta, mode):
    """Every Kraus operator applied by matmul to every branch, in (k,
    branch) order, with the zero-weight branches dropped."""
    dim = branches.shape[1]
    new = apply_op(dense_kraus(eta, dim)[:, np.newaxis], branches, mode)
    new = new.reshape(-1, dim, dim)
    return new[np.einsum("bij,bij->b", new, new) > 0.0]


class TestLossChannel:
    def test_kraus_completeness(self):
        for eta in (0.0, 0.37, 0.76, 1.0):
            kraus = dense_kraus(eta, 12)
            total = np.einsum("kij,kil->jl", kraus, kraus)
            assert np.allclose(total, np.eye(12), atol=1e-12)
        # The end points are exact: no loss keeps K_0 = I and every other
        # operator zero; full loss maps |n> to |0> through K_n alone.
        kraus = dense_kraus(1.0, 12)
        assert np.array_equal(kraus[0], np.eye(12))
        assert not kraus[1:].any()
        kraus = dense_kraus(0.0, 12)
        expected = np.zeros((12, 12, 12))
        expected[np.arange(12), 0, np.arange(12)] = 1.0
        assert np.array_equal(kraus, expected)

    def test_kraus_matches_per_outcome_loop(self):
        # The vectorised weights against the per-outcome loop they
        # replaced, same arithmetic in the same order, so bit for bit.
        log_factorial = fock._LOG_FACTORIAL
        for eta in (1e-300, 0.37, 0.76, 1.0 - 1e-12):
            for dim in (12, 41):
                expected = np.zeros((dim, dim))
                for k in range(dim):
                    n = np.arange(k, dim)
                    log_w = (
                        log_factorial[n] - log_factorial[k] - log_factorial[n - k]
                        + (n - k) * math.log(eta) + k * math.log1p(-eta)
                    )
                    expected[k, n] = np.exp(0.5 * log_w)
                assert np.array_equal(_loss_weights(eta, dim), expected)

    def test_matches_dense_kraus_matmul(self):
        # Shifted, scaled copies give the dense Kraus matmul's branches, in
        # the same order and with the same zero-weight drop, bit for bit:
        # from the pure state on either mode, and on the conjugate from
        # the probe's branches, the one mixture the expansion starts from.
        state, _ = build_seeded_tmss_fock(1.5, 0.5, cutoff=12)
        two = apply_loss_fock(state, 0.6, "probe")
        cases = [(state, state.amplitudes[np.newaxis], "probe")]
        cases += [(start, start.branches, "conjugate") for start in (state, two)]
        for start, branches, mode in cases:
            for eta in (0.0, 0.37, 1.0):
                got = apply_loss_fock(start, eta, mode).branches
                ref = dense_loss(branches, eta, mode)
                assert got.shape == ref.shape
                assert np.array_equal(got, ref)

    def test_identity_at_full_transmission(self):
        state, _ = build_seeded_tmss_fock(1.5, 0.5, cutoff=15)
        ens = apply_loss_fock(state, 1.0, "probe")
        assert ens.branches.shape[0] == 1
        assert np.allclose(ens.branches[0], state.amplitudes, atol=1e-14)

    def test_total_weight_preserved(self):
        # The dense branches of the lossy state carry the pure state's norm.
        state, _ = build_seeded_tmss_fock(1.8, 0.3, cutoff=25)
        ens = apply_loss_fock(state, 0.6, "probe")
        ens = apply_loss_fock(ens, 0.8, "conjugate")
        branches = ens.branches
        assert ens.norm_squared() == state.norm_squared()
        assert math.isclose(np.vdot(branches, branches), ens.norm_squared(), rel_tol=1e-12)

    def test_full_loss_empties_mode(self):
        state, _ = build_seeded_tmss_fock(1.5, 1.0, cutoff=20)
        ens = apply_loss_fock(state, 0.0, "probe")
        mean_n, var_n = oracle_moment_bundle(ens, [])["probe"]["n"]
        assert abs(mean_n) < 1e-12
        assert abs(var_n) < 1e-12

    def test_density_matrix_positive(self):
        # Assemble rho from the branches at a small cutoff and check it
        # is a valid state.
        state, _ = build_seeded_tmss_fock(1.3, 0.3, cutoff=10)
        ens = apply_loss_fock(state, 0.7, "probe")
        flat = ens.branches.reshape(ens.branches.shape[0], -1)
        rho = flat.T @ flat.conj()
        assert np.allclose(rho, rho.conj().T, atol=1e-14)
        eigs = np.linalg.eigvalsh(rho)
        assert eigs.min() > -1e-12
        assert math.isclose(np.trace(rho).real, state.norm_squared(), rel_tol=1e-12)

    def test_keeping_every_branch_skips_the_copy(self):
        # Branches and weights equal the masked result, and building the
        # branches of a two-arm loss that keeps all of them peaks near one
        # ensemble, not two.
        state, _ = build_seeded_tmss_fock(2.0, 1.0, cutoff=30)
        dim = 31
        ens = apply_loss_fock(apply_loss_fock(state, 0.76, "probe"), 0.79, "conjugate")
        tracemalloc.start()
        try:
            branches = ens.branches
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        ref = state.amplitudes[np.newaxis]
        for eta, mode in ((0.76, "probe"), (0.79, "conjugate")):
            ref = dense_loss(ref, eta, mode)
            assert ref.shape[0] == dim * (1 if mode == "probe" else dim)
        weights = np.einsum("bij,bij->b", ref, ref)
        assert np.array_equal(branches, ref)
        assert np.array_equal(np.einsum("bij,bij->b", branches, branches), weights)
        assert peak <= 1.25 * branches.nbytes

    def test_validation(self):
        state, _ = build_seeded_tmss_fock(1.5, 0.0, cutoff=10)
        with pytest.raises(ValueError):
            apply_loss_fock(state, 1.2, "probe")
        with pytest.raises(ValueError):
            apply_loss_fock(state, 0.5, "signal")
        for bad in (np.zeros((3, 4)), np.zeros((3, 3), dtype=complex), np.zeros(3)):
            with pytest.raises(ValueError, match="real square"):
                FockState(bad)
        with pytest.raises(ValueError, match="eta_c"):
            FockState(state.amplitudes, eta_c=1.5)

    def test_losses_on_one_mode_compose(self):
        # eta_1 then eta_2 is the single loss eta_1 eta_2: the mixture of
        # the two-step Kraus expansion equals the one-step one to
        # round-off, and the state holds the product.
        base = unit_block(7, 10)
        for mode in ("probe", "conjugate"):
            for first, second in ((0.3, 0.9), (0.76, 0.79), (0.0, 0.5), (1.0, 0.4)):
                ens = apply_loss_fock(apply_loss_fock(FockState(base), first, mode), second, mode)
                assert (ens.eta_p if mode == "probe" else ens.eta_c) == first * second
                two_step = dense_loss(dense_loss(base[np.newaxis], first, mode), second, mode)
                flat = [x.reshape(len(x), -1) for x in (two_step, ens.branches)]
                rho = [x.T @ x for x in flat]
                assert np.abs(rho[0] - rho[1]).max() < 1e-15


def unit_block(seed, cutoff):
    """Random real amplitudes scaled to unit norm."""
    psi = np.random.default_rng(seed).standard_normal((cutoff + 1, cutoff + 1))
    return psi / math.sqrt(np.vdot(psi, psi))


class TestLossTables:
    @settings(derandomize=True, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        cutoff=st.integers(1, 20),
        eta_p=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
        eta_c=st.sampled_from([0.0, 1.0]) | st.floats(0.0, 1.0),
    )
    def test_tables_match_materialized_branches(self, seed, cutoff, eta_p, eta_c):
        # L_p T L_c^T on the pure amplitudes' table equals the pair sum over
        # the dense Kraus ensemble, for each of the bundle's seven tables.
        ens = FockState(unit_block(seed, cutoff), eta_p, eta_c)
        branches = ens.branches
        tables = fock._lossy_tables(ens)
        for (first, second), table in zip(fock._BUNDLE_TABLES, tables):
            ref = sum(fock._pair_sum(branch, first, second) for branch in branches)
            assert table.shape == ref.shape
            assert np.abs(table - ref).max(initial=0.0) <= 1e-14

    def test_full_transmission_tables_are_exact(self):
        # At eta = 1 the loss matrices are the identity, so the tables are
        # the pure amplitudes' pair products bit for bit, and on one lossy
        # mode they equal the two-sided product with that identity.
        base = unit_block(4, 9)
        for eta_p, eta_c in ((1.0, 1.0), (0.6, 1.0), (1.0, 0.6)):
            ens = FockState(base, eta_p, eta_c)
            lp, lc = (fock._loss_matrices(eta, 10) for eta in (eta_p, eta_c))
            for (first, second), table in zip(fock._BUNDLE_TABLES, fock._lossy_tables(ens)):
                full = (
                    lp[first[0] + second[0]] @ fock._pair_sum(base, first, second)
                    @ lc[first[1] + second[1]].T
                )
                assert np.array_equal(table, full)

    def test_dense_branches_capped(self):
        # The bundle reads a cutoff-61 lossy state; its dense branches, and
        # so the complex references, are refused with a message.
        state, _ = build_seeded_tmss_fock(1.5, 0.5, cutoff=fock.MAX_BRANCH_CUTOFF + 1)
        ens = apply_loss_fock(state, 0.9, "probe")
        assert oracle_moment_bundle(ens, [0.5])["joint"].shape == (1, 3)
        with pytest.raises(ValueError, match=r"cutoff <= 60"):
            ens.branches
        with pytest.raises(ValueError, match=r"cutoff <= 60"):
            oracle_quadrature_stats(ens, 0.5)
        apply_loss_fock(build_seeded_tmss_fock(1.5, 0.5, cutoff=60)[0], 0.9, "probe").branches


class TestOracleMoments:
    def test_matches_gaussian_lossless(self):
        # The default cutoff is moment_cutoff's, where the photon moments
        # meet 1e-6 too: 49 at G = 2, alpha = 1, where cutoff 40 passes the
        # norm gate but misses the photon-number variance by 8.3e-6.
        for gain, alpha, cutoff in ((1.2, 0.0, 11), (1.5, 0.5, 24), (2.0, 1.0, 49)):
            state, report = build_seeded_tmss_fock(gain, alpha)
            assert state.cutoff == report.cutoff == cutoff
            gauss = seeded_tmss(InterferometerParams(gain=gain, alpha=alpha))
            for lam in (0.0, 0.5, 1.0):
                fm, fv = oracle_quadrature_stats(state, lam)
                gm, gv = joint_quadrature_stats(gauss, lam)
                assert abs(fm - gm) < 1e-7
                assert abs(fv - gv) < 1e-6
            bundle = oracle_moment_bundle(state, [])
            for mode in ("probe", "conjugate"):
                gm = photon_moments(gauss, mode)
                assert abs(bundle[mode]["n"][0] - gm.mean_n) < 1e-6
                assert abs(bundle[mode]["n"][1] - gm.var_n) < 1e-6

    def test_matches_gaussian_lossy(self):
        gain, alpha = 1.67, 0.5
        state, _ = build_seeded_tmss_fock(gain, alpha, cutoff=40)
        ens = apply_loss_fock(apply_loss_fock(state, 0.76, "probe"), 0.79, "conjugate")
        gauss = apply_loss(
            seeded_tmss(InterferometerParams(gain=gain, alpha=alpha)), 0.76, 0.79
        )
        for lam in (0.0, 0.5, 1.0):
            assert abs(
                oracle_quadrature_stats(ens, lam)[1]
                - joint_quadrature_stats(gauss, lam)[1]
            ) < 1e-6
        bundle = oracle_moment_bundle(ens, [])
        for mode in ("probe", "conjugate"):
            fn, fvar = bundle[mode]["n"]
            gm = photon_moments(gauss, mode)
            assert abs(fn - gm.mean_n) < 1e-6
            assert abs(fvar - gm.var_n) < 1e-6

    def test_mode_quadratures_bright(self):
        state, _ = build_seeded_tmss_fock(2.0, 1.0, cutoff=40)
        gauss = seeded_tmss(InterferometerParams(gain=2.0, alpha=1.0))
        for mode, base in (("probe", 0), ("conjugate", 2)):
            for quad, idx in (("x", 0), ("y", 1)):
                m, v = oracle_mode_quadrature(state, mode, quad)
                assert abs(m - gauss.mean[base + idx]) < 1e-7
                assert abs(v - gauss.cov[base + idx, base + idx]) < 1e-6

    @settings(derandomize=True, deadline=None)
    @given(
        gain=st.floats(1.0, 2.5),
        alpha=st.floats(0.0, 1.0),
        eta_p=st.floats(0.0, 1.0),
        eta_c=st.floats(0.0, 1.0),
        lam=st.floats(0.0, 1.0),
    )
    def test_bundle_matches_individual_calls(self, gain, alpha, eta_p, eta_c, lam):
        # The real-arithmetic bundle against the complex reference on the
        # cutoff-20 block of a lossy state.  The block is cut from a
        # cutoff-30 build because bright corners of the range lose more
        # than the build's 1e-4 gate at cutoff 20; the comparison holds
        # for any real amplitudes.
        state, _ = build_seeded_tmss_fock(gain, alpha, cutoff=30)
        block = FockState(state.amplitudes[:21, :21])
        ens = apply_loss_fock(apply_loss_fock(block, eta_p, "probe"), eta_c, "conjugate")
        bundle = oracle_moment_bundle(ens, [lam])
        [(_, mean, var)] = bundle["joint"]
        im, iv = oracle_quadrature_stats(ens, lam)
        assert abs(mean - im) < 1e-12
        assert abs(var - iv) < 1e-10
        for mode in ("probe", "conjugate"):
            for quad in ("x", "y"):
                im, iv = oracle_mode_quadrature(ens, mode, quad)
                bm, bv = bundle[mode][quad]
                assert abs(bm - im) < 1e-12
                assert abs(bv - iv) < 1e-10
            # Photon numbers against the marginal number distribution.
            axes = (0, 2) if mode == "probe" else (0, 1)
            prob = (ens.branches**2).sum(axis=axes) / ens.norm_squared()
            n = np.arange(prob.size)
            inm = float(prob @ n)
            invar = float(prob @ n**2) - inm * inm
            assert abs(bundle[mode]["n"][0] - inm) < 1e-12
            assert abs(bundle[mode]["n"][1] - invar) < 1e-10

    def test_bundle_matches_references_on_random_amplitudes(self):
        # Arbitrary real amplitudes put most weight on the top level, where
        # the truncated a a^T vanishes; the bundle must read the same
        # moments there as the operator-product references, lossless and
        # after loss.
        rng = np.random.default_rng(8)
        for cutoff, eta_p, eta_c in ((1, 1.0, 1.0), (3, 0.6, 1.0), (6, 0.3, 0.8)):
            psi = rng.standard_normal((cutoff + 1, cutoff + 1))
            psi[-1, :] *= 10.0
            psi[:, -1] *= 10.0
            ens = FockState(psi, eta_p, eta_c)
            bundle = oracle_moment_bundle(ens, [0.0, 0.3, 1.0])
            for lam, mean, var in bundle["joint"]:
                im, iv = oracle_quadrature_stats(ens, lam)
                assert abs(mean - im) < 1e-12 and abs(var - iv) < 1e-10 * iv
            for mode in ("probe", "conjugate"):
                for quad in ("x", "y"):
                    im, iv = oracle_mode_quadrature(ens, mode, quad)
                    bm, bv = bundle[mode][quad]
                    assert abs(bm - im) < 1e-12 * max(1.0, abs(im))
                    assert abs(bv - iv) < 1e-10 * iv

    def test_table_passes_independent_of_weights(self, monkeypatch):
        # Seven pair-sum tables serve any number of weights, the joint
        # variance being a quadratic in lam, and no operator is applied.
        state, _ = build_seeded_tmss_fock(1.5, 0.5, cutoff=20)
        ens = apply_loss_fock(apply_loss_fock(state, 0.7, "probe"), 0.8, "conjugate")
        pair_sum = fock._pair_sum
        counts = []
        for lambdas in ([], [0.5], np.linspace(0.0, 1.0, 101), np.linspace(0.0, 1.0, 100_000)):
            calls = []
            monkeypatch.setattr(
                fock, "_pair_sum", lambda *args: calls.append(args[1:]) or pair_sum(*args)
            )
            joint = oracle_moment_bundle(ens, lambdas)["joint"]
            assert joint.shape == (len(lambdas), 3) and joint.dtype == float
            assert np.array_equal(joint[:, 0], lambdas)
            assert not joint[:, 1].any()
            counts.append(len(calls))
        assert counts == [7, 7, 7, 7]

    def test_bundle_memory_is_table_sized(self):
        # The cutoff-40 two-arm lossy ensemble would hold 22 MiB of
        # branches; the bundle never builds it and holds (41 x 41) tables.
        state, _ = build_seeded_tmss_fock(2.0, 1.0, cutoff=40)
        ens = apply_loss_fock(apply_loss_fock(state, 0.76, "probe"), 0.76, "conjugate")
        assert ens.branches.nbytes > 20 * 2**20
        tracemalloc.start()
        try:
            oracle_moment_bundle(ens, np.linspace(0.0, 1.0, 11))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_bright_seed_in_the_papers_regime(self):
        # G = 1.67, alpha = 5, eta 0.76/0.79 at the cutoff moment_cutoff
        # picks (135): criterion 5's moment set matches the Gaussian model
        # to 1e-6, lossless and lossy.  Dense branches there would hold
        # 136^4 doubles (2.7 GB); choosing the cutoff, building and both
        # bundles took 0.035-0.041 s with a 4.3 MiB tracemalloc peak.
        gain, alpha, eta_p, eta_c = 1.67, 5.0, 0.76, 0.79
        lambdas = [0.0, 0.5, 1.0]
        tracemalloc.start()
        t0 = time.perf_counter()
        try:
            pure, report = build_seeded_tmss_fock(gain, alpha)
            lossy = apply_loss_fock(apply_loss_fock(pure, eta_p, "probe"), eta_c, "conjugate")
            bundles = [oracle_moment_bundle(s, lambdas) for s in (pure, lossy)]
            elapsed = time.perf_counter() - t0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert report.cutoff == 135
        gauss = seeded_tmss(InterferometerParams(gain=gain, alpha=alpha))
        worst = 0.0
        for bundle, g in zip(bundles, (gauss, apply_loss(gauss, eta_p, eta_c))):
            for lam, mean, var in bundle["joint"]:
                g_mean, g_var = joint_quadrature_stats(g, lam)
                worst = max(worst, abs(mean - g_mean), abs(var - g_var))
            for mode, base in (("probe", 0), ("conjugate", 2)):
                for quad, idx in (("x", 0), ("y", 1)):
                    mean, var = bundle[mode][quad]
                    worst = max(
                        worst,
                        abs(mean - g.mean[base + idx]),
                        abs(var - g.cov[base + idx, base + idx]),
                    )
        assert worst <= 1e-6
        assert elapsed < 1.0
        assert peak < 6 * 2**20

    def test_lambda_validation(self):
        state, _ = build_seeded_tmss_fock(1.5, 0.0, cutoff=15)
        with pytest.raises(ValueError):
            oracle_quadrature_stats(state, -0.1)
        with pytest.raises(ValueError):
            oracle_moment_bundle(state, [0.5, 1.2])
        with pytest.raises(ValueError):
            oracle_moment_bundle(state, np.array([0.5, np.nan]))

    def test_zero_state_rejected(self):
        state = FockState(np.zeros((5, 5)))
        with pytest.raises(ValueError, match="zero norm"):
            oracle_moment_bundle(state, [0.5])
        with pytest.raises(ValueError, match="zero norm"):
            oracle_quadrature_stats(state, 0.5)
