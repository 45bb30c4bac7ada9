/**
 * @file
 * Differential tests for the runtime-dispatched SIMD backends
 * (poly/simd/simd.hh): every compiled-in, CPU-runnable backend is
 * swept against the scalar reference — which is itself pinned against
 * the strict kernels — across ring degrees, prime widths (28-bit
 * Solinas through the 31/32-bit fused-MAC boundary to 45/60-bit
 * strict/non-IFMA fallbacks), unaligned tails, and adversarial values
 * at the q/2q/4q edges of the lazy ranges.
 *
 * The sweep covers simd::runnableBackends(): scalar, avx2, the
 * generic avx512 table (2^64-Shoup butterflies, run here even on IFMA
 * parts, where dispatch never picks them for q < 2^50 — the 28-bit IVE
 * primes among them) and, on IFMA parts, the avx512-ifma table with
 * its 52-bit vpmadd52 butterflies (plus their null-twShoup52 fallback
 * via the >= 2^50 primes). The vector tables share one templated body
 * per kernel (poly/simd/vector_kernels.hh), instantiated per ISA with
 * lane primitives and, for the NTTs, a Shoup-product policy, so each
 * table here tests another instantiation of the same loop. End-to-end byte-identity per backend is pinned by
 * scripts/ci.sh, which runs the full tier-1 suite (including
 * test_golden) once under IVE_FORCE_ISA for every backend that probes
 * runnable on the CI machine, plus once on the default dispatch.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>

#include "common/rng.hh"
#include "modmath/primes.hh"
#include "ntt/ntt.hh"
#include "poly/kernels.hh"
#include "poly/poly.hh"
#include "poly/simd/simd.hh"

using namespace ive;

namespace {

const simd::Kernels &
scalarK()
{
    return *simd::backend(simd::Isa::Scalar);
}

/** Primes covering every dispatch class the kernels distinguish. */
std::vector<u64>
sweepPrimes(u64 n)
{
    std::vector<u64> primes;
    for (u64 q : kIvePrimes) // 28-bit Solinas (the paper's primes).
        primes.push_back(q);
    // 31/32 straddle the fused-MAC boundary, 45 is fused-out but still
    // on the IFMA datapath, 60 exceeds the 2^50 IFMA bound too.
    for (int bits : {31, 32, 33, 45, 60}) {
        auto found = findNttPrimes(bits, n, 1);
        EXPECT_FALSE(found.empty()) << "no " << bits << "-bit prime";
        if (!found.empty())
            primes.push_back(found[0]);
    }
    return primes;
}

std::vector<u64>
randomCanonical(u64 n, u64 q, Rng &rng)
{
    std::vector<u64> a(n);
    for (u64 &v : a)
        v = rng.uniform(q);
    return a;
}

/** Canonical corners: zeros, q-1 runs, and a random mix. */
std::vector<std::vector<u64>>
cornerInputs(u64 n, u64 q, Rng &rng)
{
    std::vector<std::vector<u64>> cases;
    cases.emplace_back(n, 0);
    cases.emplace_back(n, q - 1);
    std::vector<u64> alt(n);
    for (u64 i = 0; i < n; ++i)
        alt[i] = (i % 2) ? q - 1 : 0;
    cases.push_back(std::move(alt));
    cases.push_back(randomCanonical(n, q, rng));
    return cases;
}

} // namespace

TEST(Simd, DispatchResolvesToRunnableBackend)
{
    const simd::Kernels &k = simd::active();
    bool found = false;
    for (const simd::Kernels *b : simd::runnableBackends())
        found = found || b->name == k.name;
    EXPECT_TRUE(found) << "active backend " << k.name
                       << " not in runnable set";
    EXPECT_EQ(simd::backend(simd::bestSupportedIsa())->isa,
              simd::bestSupportedIsa());
    // Scalar must always resolve; log the pick for CI visibility.
    ASSERT_NE(simd::backend(simd::Isa::Scalar), nullptr);
    std::printf("active SIMD backend: %s (of %zu runnable)\n", k.name,
                simd::runnableBackends().size());
}

TEST(Simd, NttMatchesStrictAcrossBackendsDegreesAndPrimes)
{
    Rng rng(2026);
    for (u64 n : {u64{8}, u64{16}, u64{64}, u64{256}, u64{4096}}) {
        for (u64 q : sweepPrimes(n)) {
            NttTable table(q, n);
            for (auto &input : cornerInputs(n, q, rng)) {
                std::vector<u64> want = input;
                table.forwardStrict(want);
                for (const simd::Kernels *b : simd::runnableBackends()) {
                    std::vector<u64> got = input;
                    b->nttForwardLazy(got.data(), n, table.modulus(),
                                      table.forwardTwiddles());
                    ASSERT_EQ(got, want)
                        << b->name << " fwd n=" << n << " q=" << q;
                    // Inverse of the forward image must return the
                    // input (and match the strict inverse exactly).
                    std::vector<u64> strict_inv = want;
                    table.inverseStrict(strict_inv);
                    b->nttInverseLazy(got.data(), n, table.modulus(),
                                      table.inverseTwiddles(),
                                      table.nInv(), table.nInvShoup(),
                                      table.nInvShoup52());
                    ASSERT_EQ(got, strict_inv)
                        << b->name << " inv n=" << n << " q=" << q;
                    ASSERT_EQ(got, input)
                        << b->name << " roundtrip n=" << n
                        << " q=" << q;
                }
            }
        }
    }
}

TEST(Simd, VectorOpsMatchScalarWithUnalignedTails)
{
    Rng rng(7);
    // Deliberately awkward lengths (tails of every residue class mod
    // the 4- and 8-lane widths) and a +1 pointer offset so the vector
    // loops run genuinely unaligned.
    for (u64 n : {u64{1}, u64{5}, u64{8}, u64{13}, u64{100}, u64{257}}) {
        for (u64 q : sweepPrimes(256)) {
            const Modulus mod(q);
            std::vector<u64> a0 = randomCanonical(n + 1, q, rng);
            std::vector<u64> b0 = randomCanonical(n + 1, q, rng);
            b0[1] = 0;
            if (n > 2)
                b0[2] = q - 1; // sub/neg corner values
            std::vector<u64> bs(n + 1);
            for (u64 i = 0; i < n + 1; ++i)
                bs[i] = mod.shoupPrecompute(b0[i]);
            std::vector<u64> d0 = randomCanonical(n + 1, q, rng);
            // Canonicalize input: anything in [0, 4q).
            std::vector<u64> c0(n + 1);
            for (u64 i = 0; i < n + 1; ++i)
                c0[i] = rng.uniform(4 * q);
            c0[0] = 4 * q - 1;

            for (const simd::Kernels *b : simd::runnableBackends()) {
                auto diff = [&](auto &&op) {
                    std::vector<u64> got = a0, want = a0;
                    op(*b, got.data() + 1);
                    op(scalarK(), want.data() + 1);
                    ASSERT_EQ(got, want)
                        << b->name << " n=" << n << " q=" << q;
                };
                diff([&](const simd::Kernels &k, u64 *p) {
                    k.addVec(p, b0.data() + 1, n, q);
                });
                diff([&](const simd::Kernels &k, u64 *p) {
                    k.subVec(p, b0.data() + 1, n, q);
                });
                diff([&](const simd::Kernels &k, u64 *p) {
                    k.negVec(p, n, q);
                });
                diff([&](const simd::Kernels &k, u64 *p) {
                    k.mulVec(p, b0.data() + 1, n, mod);
                });
                diff([&](const simd::Kernels &k, u64 *p) {
                    k.mulShoupVec(p, b0.data() + 1, bs.data() + 1, n,
                                  q);
                });
                diff([&](const simd::Kernels &k, u64 *p) {
                    k.mulAccVec(p, b0.data() + 1, d0.data() + 1, n,
                                mod);
                });
                // canonicalizeVec reads the wider [0, 4q) domain.
                std::vector<u64> got = c0, want = c0;
                b->canonicalizeVec(got.data() + 1, n, q);
                scalarK().canonicalizeVec(want.data() + 1, n,
                                                     q);
                ASSERT_EQ(got, want)
                    << b->name << " canonicalize n=" << n << " q=" << q;
            }
        }
    }
}

TEST(Simd, RowSelMacMatchesScalarAcrossPrimesTailsAndLimit)
{
    // The u64 lazy RowSel MAC against the scalar reference (itself
    // pinned against a u128 sum): 27-bit IVE through the 32-bit edge,
    // unaligned tails, chains from empty up to exactly
    // lazyChainLimit(q) with every product maximal, and both the one-
    // and two-column pass.
    Rng rng(29);
    std::vector<u64> primes = {kIvePrimes[0]};
    for (int bits : {30, 31, 32})
        primes.push_back(findNttPrimes(bits, 1024, 1).at(0));
    for (u64 q : primes) {
        const Modulus mod(q);
        const u64 limit = kernels::lazyChainLimit(q);
        ASSERT_GE(limit, 1u) << "q = " << q;
        for (u64 n : {u64{3}, u64{8}, u64{13}, u64{64}, u64{1000}}) {
            std::vector<std::vector<u64>> planes = cornerInputs(n, q, rng);
            planes.push_back(randomCanonical(n, q, rng));
            const std::vector<u64> &top = planes[1]; // all q - 1
            for (u64 links : {u64{0}, u64{1}, u64{2}, u64{5}, limit}) {
                if (links > limit)
                    continue;
                for (u64 cols : {u64{1}, u64{2}}) {
                    for (bool maximal : {false, true}) {
                        const u64 np = planes.size();
                        auto pick = [&](u64 k) {
                            return maximal ? top.data()
                                           : planes[k % np].data();
                        };
                        std::vector<const u64 *> db(links * cols), la(links),
                            lb(links);
                        for (u64 i = 0; i < links; ++i) {
                            for (u64 c = 0; c < cols; ++c)
                                db[i * cols + c] = pick(i * cols + c + 1);
                            la[i] = pick(i);
                            lb[i] = pick(i + 2);
                        }
                        const simd::RowSelRun run{db.data(), la.data(),
                                                  lb.data(), links, cols};
                        const std::string where =
                            "q=" + std::to_string(q) +
                            " n=" + std::to_string(n) +
                            " links=" + std::to_string(links) +
                            " cols=" + std::to_string(cols) +
                            (maximal ? " maximal" : "");

                        std::vector<u64> want(2 * cols * n, ~u64{0});
                        scalarK().rowSelMac(want.data(), run, n, mod);
                        for (u64 c = 0; c < cols; ++c) {
                            for (u64 j = 0; j < n; ++j) {
                                u128 sa = 0, sb = 0;
                                for (u64 i = 0; i < links; ++i) {
                                    u64 d = db[i * cols + c][j];
                                    sa += static_cast<u128>(d) * la[i][j];
                                    sb += static_cast<u128>(d) * lb[i][j];
                                }
                                ASSERT_TRUE(sa == want[2 * c * n + j] &&
                                            sb == want[(2 * c + 1) * n + j])
                                    << where << " j=" << j;
                            }
                        }
                        std::vector<u64> base = randomCanonical(n, q, rng);
                        std::vector<u64> reduced = base;
                        scalarK().lazyReduceAdd(reduced.data(), want.data(),
                                                n, mod);
                        for (u64 j = 0; j < n; ++j)
                            ASSERT_EQ(reduced[j],
                                      mod.add(base[j], mod.reduce(want[j])))
                                << where << " j=" << j;

                        for (const simd::Kernels *k :
                             simd::runnableBackends()) {
                            std::vector<u64> got(2 * cols * n, ~u64{0});
                            k->rowSelMac(got.data(), run, n, mod);
                            ASSERT_EQ(got, want) << k->name << " " << where;
                            std::vector<u64> r = base;
                            k->lazyReduceAdd(r.data(), got.data(), n, mod);
                            ASSERT_EQ(r, reduced)
                                << k->name << " reduce " << where;
                        }
                    }
                }
            }
        }
    }
}

TEST(Simd, ApplyCoeffMapMatchesDefinitionForRotationsAndMonomials)
{
    // The permutation is scalar under every backend; pin it against
    // its definition, flip-of-zero corner included.
    Rng rng(17);
    for (u64 n : {u64{8}, u64{64}, u64{1024}}) {
        for (u64 q : sweepPrimes(n)) {
            std::vector<u64> src = randomCanonical(n, q, rng);
            src[0] = 0;
            src[n - 1] = 0;
            std::vector<u64> map(n);
            std::vector<u64> rotations = {1, 5, n / 2 + 1, 2 * n - 1};
            for (u64 r : rotations) {
                RnsPoly::automorphismMap(n, r, map);
                std::vector<u64> want(n, ~u64{0});
                for (u64 i = 0; i < n; ++i) {
                    const u64 v = src[i];
                    want[map[i] >> 1] =
                        (map[i] & 1) && v != 0 ? q - v : v;
                }
                std::vector<u64> got(n, ~u64{0});
                kernels::applyCoeffMapVec(got.data(), src.data(),
                                          map.data(), n, q);
                ASSERT_EQ(got, want) << "n=" << n << " q=" << q
                                     << " r=" << r;
            }
        }
    }
}

TEST(Simd, LazyRangeCornersThroughFullTransforms)
{
    // The q/2q/4q corners of the lazy ranges are internal states; the
    // way to pin them per backend is transforms whose inputs force
    // extremal butterflies (all q-1 maximizes every u and Shoup
    // product; delta vectors exercise the zero paths).
    Rng rng(23);
    for (u64 n : {u64{16}, u64{128}}) {
        for (u64 q : sweepPrimes(n)) {
            NttTable table(q, n);
            std::vector<std::vector<u64>> cases;
            cases.emplace_back(n, q - 1);
            std::vector<u64> delta(n, 0);
            delta[n - 1] = q - 1;
            cases.push_back(std::move(delta));
            for (auto &input : cases) {
                std::vector<u64> want = input;
                table.forwardStrict(want);
                for (const simd::Kernels *b : simd::runnableBackends()) {
                    std::vector<u64> got = input;
                    b->nttForwardLazy(got.data(), n, table.modulus(),
                                      table.forwardTwiddles());
                    ASSERT_EQ(got, want)
                        << b->name << " n=" << n << " q=" << q;
                }
            }
        }
    }
}
