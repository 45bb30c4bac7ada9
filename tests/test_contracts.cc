/**
 * @file
 * Proof that the -DIVE_CHECK_RANGES=ON audits actually fire.
 *
 * The scalar backend (poly/simd/kernels_scalar.cc) audits every
 * documented lazy-range bound of the kernel layer and throws
 * ive::ContractViolation on violation. A checked build that never
 * throws could mean "all invariants hold" — or "the audits are dead
 * code". These suites feed deliberately corrupted values through the
 * scalar dispatch table and require the throw, one test per distinct
 * contract; the clean-path suites then run honest values through the
 * same audited kernels at corner primes (28-bit paper primes, the
 * 2^32 fused-MAC boundary, the 2^50 IFMA bound, 60-bit strict) and
 * require silence.
 *
 * Under a normal build (IVE_RANGE_CHECKS_ENABLED == 0) the audits
 * compile to nothing, so every suite here skips — presence in tier-1
 * is free; the checked CI stage (scripts/ci.sh) is where they bite.
 */

#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "common/contracts.hh"
#include "common/rng.hh"
#include "modmath/primes.hh"
#include "ntt/ntt.hh"
#include "poly/kernels.hh"
#include "poly/simd/simd.hh"

using namespace ive;

namespace {

#if IVE_RANGE_CHECKS_ENABLED
#define IVE_REQUIRE_CHECKED_BUILD() ((void)0)
#else
#define IVE_REQUIRE_CHECKED_BUILD() \
    GTEST_SKIP() << "build has IVE_CHECK_RANGES=OFF; audits compile out"
#endif

const simd::Kernels &
scalarK()
{
    const simd::Kernels *k = simd::backend(simd::Isa::Scalar);
    EXPECT_NE(k, nullptr);
    return *k;
}

constexpr u64 kN = 64;

/** 28-bit paper prime for the corruption tests. */
u64
smallPrime()
{
    return kIvePrimes[0];
}

std::vector<u64>
canonical(u64 n, u64 q, u64 seed)
{
    Rng rng(seed);
    std::vector<u64> a(n);
    for (u64 &v : a)
        v = rng.uniform(q);
    return a;
}

} // namespace

// --- corrupted values must throw -------------------------------------

TEST(Contracts, ForwardNttRejectsNonCanonicalInput)
{
    IVE_REQUIRE_CHECKED_BUILD();
    u64 q = smallPrime();
    NttTable table(q, kN);
    Modulus mod(q);
    std::vector<u64> a = canonical(kN, q, 1);
    a[kN / 2] = q; // One lane at exactly q breaks canonicity.
    EXPECT_THROW(
        scalarK().nttForwardLazy(a.data(), kN, mod,
                                 table.forwardTwiddles()),
        ContractViolation);
}

TEST(Contracts, InverseNttRejectsNonCanonicalInput)
{
    IVE_REQUIRE_CHECKED_BUILD();
    u64 q = smallPrime();
    NttTable table(q, kN);
    Modulus mod(q);
    std::vector<u64> a = canonical(kN, q, 2);
    a[3] = q + 1;
    EXPECT_THROW(scalarK().nttInverseLazy(a.data(), kN, mod,
                                          table.inverseTwiddles(),
                                          table.nInv(),
                                          table.nInvShoup(),
                                          table.nInvShoup52()),
                 ContractViolation);
}

TEST(Contracts, CanonicalizeRejectsValueAtFourQ)
{
    IVE_REQUIRE_CHECKED_BUILD();
    u64 q = smallPrime();
    std::vector<u64> a = canonical(kN, q, 3);
    a[0] = 4 * q; // The lazy bound is [0, 4q); 4q itself is out.
    EXPECT_THROW(scalarK().canonicalizeVec(a.data(), kN, q),
                 ContractViolation);
}

TEST(Contracts, ShoupMultiplyRejectsNonCanonicalMultiplicand)
{
    IVE_REQUIRE_CHECKED_BUILD();
    u64 q = smallPrime();
    std::vector<u64> dst = canonical(kN, q, 4);
    std::vector<u64> b = canonical(kN, q, 5);
    std::vector<u64> b_shoup(kN, 0); // Never reached: audit fires first.
    b[7] = q;
    EXPECT_THROW(scalarK().mulShoupVec(dst.data(), b.data(),
                                       b_shoup.data(), kN, q),
                 ContractViolation);
}

TEST(Contracts, VectorAddRejectsNonCanonicalOperand)
{
    IVE_REQUIRE_CHECKED_BUILD();
    u64 q = smallPrime();
    std::vector<u64> dst = canonical(kN, q, 6);
    std::vector<u64> src = canonical(kN, q, 7);
    src[kN - 1] = q + 5;
    EXPECT_THROW(scalarK().addVec(dst.data(), src.data(), kN, q),
                 ContractViolation);
}

namespace {

/** A RowSel run of `links` links of `cols` columns, every operand at
 *  q - 1 (the maximal product), with the pointer arrays it needs. */
struct MaximalRun
{
    MaximalRun(u64 q, u64 links, u64 cols)
        : plane(kN, q - 1), db(links * cols, plane.data()),
          leaves(links, plane.data()),
          run{db.data(), leaves.data(), leaves.data(), links, cols}
    {
    }

    std::vector<u64> plane;
    std::vector<const u64 *> db;
    std::vector<const u64 *> leaves;
    simd::RowSelRun run;
};

} // namespace

TEST(Contracts, RowSelMacRejectsChainPastLazyLimit)
{
    IVE_REQUIRE_CHECKED_BUILD();
    // One link past floor((2^64-1)/(q-1)^2) could wrap a u64 lane. A
    // 31-bit prime keeps the limit (and the test) short.
    u64 q = findNttPrimes(31, kN, 1).at(0);
    Modulus mod(q);
    u64 limit = kernels::lazyChainLimit(q);
    ASSERT_GE(limit, 1u);
    for (u64 cols : {u64{1}, u64{2}}) {
        MaximalRun m(q, limit + 1, cols);
        std::vector<u64> acc(2 * cols * kN);
        EXPECT_THROW(scalarK().rowSelMac(acc.data(), m.run, kN, mod),
                     ContractViolation)
            << cols << " columns";
    }
    // Raw partials about to be merged past the limit trap too.
    std::vector<u64> dst(kN, 0), src(kN, 0);
    EXPECT_THROW(kernels::mergeLazyPartial(dst.data(), src.data(), kN,
                                           limit + 1, mod),
                 ContractViolation);
    // Above the fused bound (q-1)^2 no longer fits: no lazy link at all.
    u64 q33 = findNttPrimes(33, kN, 1).at(0);
    MaximalRun one(q33, 1, 1);
    std::vector<u64> acc(2 * kN);
    EXPECT_THROW(
        scalarK().rowSelMac(acc.data(), one.run, kN, Modulus(q33)),
        ContractViolation);
}

TEST(Contracts, MacChainRawModeRejectsChainPastLazyLimit)
{
    IVE_REQUIRE_CHECKED_BUILD();
    // Raw mode (out == nullptr) leaves one unreduced chain: one link
    // past the limit trips auditLazyChain on every table, before any
    // kernel runs.
    u64 q = findNttPrimes(31, kN, 1).at(0);
    Modulus mod(q);
    u64 limit = kernels::lazyChainLimit(q);
    for (const simd::Kernels *k : simd::runnableBackends()) {
        MaximalRun m(q, limit + 1, 1);
        std::vector<u64> lazy(2 * kN);
        EXPECT_THROW(
            kernels::macChain(nullptr, m.run, kN, mod, lazy.data(), *k),
            ContractViolation)
            << k->name;
    }
}

TEST(Contracts, RowSelMacCleanAtLazyLimitAndExact)
{
    IVE_REQUIRE_CHECKED_BUILD();
    // A chain exactly at the limit with every product maximal is
    // admitted, sums without wrapping, and reduces to the modular sum.
    for (int bits : {27, 31, 32}) {
        u64 q = bits == 27 ? smallPrime() : findNttPrimes(bits, kN, 1).at(0);
        Modulus mod(q);
        u64 limit = kernels::lazyChainLimit(q);
        ASSERT_GE(limit, 1u) << "q = " << q;
        u64 raw = limit * ((q - 1) * (q - 1));
        ASSERT_EQ(raw / limit, (q - 1) * (q - 1)) << "no wrap at q = " << q;
        u64 want = mod.mul(mod.mul(q - 1, q - 1), limit % q);
        for (u64 cols : {u64{1}, u64{2}}) {
            MaximalRun m(q, limit, cols);
            std::vector<u64> acc(2 * cols * kN);
            EXPECT_NO_THROW(
                scalarK().rowSelMac(acc.data(), m.run, kN, mod));
            for (u64 v : acc)
                ASSERT_EQ(v, raw) << "q = " << q;
            std::vector<u64> dst(kN, 0);
            EXPECT_NO_THROW(
                scalarK().lazyReduceAdd(dst.data(), acc.data(), kN, mod));
            EXPECT_EQ(dst[0], want) << "q = " << q;
        }
        std::vector<u64> dst(kN, 0), src(kN, 0);
        EXPECT_NO_THROW(kernels::mergeLazyPartial(dst.data(), src.data(),
                                                  kN, limit, mod));
    }
}

TEST(Contracts, CoeffMapRejectsOutOfRangePosition)
{
    IVE_REQUIRE_CHECKED_BUILD();
    u64 q = smallPrime();
    std::vector<u64> src = canonical(kN, q, 8);
    std::vector<u64> dst(kN, 0);
    std::vector<u64> map(kN);
    std::iota(map.begin(), map.end(), 0u);
    for (u64 &m : map)
        m <<= 1;              // Identity permutation, no flips...
    map[5] = (kN << 1) | 1;   // ...except one position past the ring.
    EXPECT_THROW(simd::scalar::applyCoeffMap(dst.data(), src.data(),
                                             map.data(), kN, q),
                 ContractViolation);
}

// --- honest values at corner primes must stay silent -----------------

TEST(Contracts, NttRoundTripCleanAtCornerPrimes)
{
    IVE_REQUIRE_CHECKED_BUILD();
    // 28-bit paper prime, the 2^32 fused-MAC straddle, the 2^50 IFMA
    // bound straddle, and a 60-bit strict prime: every dispatch class
    // the kernels distinguish, each near the bound its class is named
    // after. The audits must not false-positive on any of them.
    std::vector<u64> primes{kIvePrimes[0]};
    for (int bits : {31, 32, 50, 60}) {
        auto found = findNttPrimes(bits, kN, 1);
        ASSERT_FALSE(found.empty()) << "no " << bits << "-bit prime";
        primes.push_back(found[0]);
    }
    for (u64 q : primes) {
        NttTable table(q, kN);
        Modulus mod(q);
        std::vector<u64> a = canonical(kN, q, q);
        std::vector<u64> original = a;
        EXPECT_NO_THROW({
            scalarK().nttForwardLazy(a.data(), kN, mod,
                                     table.forwardTwiddles());
            scalarK().nttInverseLazy(a.data(), kN, mod,
                                     table.inverseTwiddles(),
                                     table.nInv(), table.nInvShoup(),
                                     table.nInvShoup52());
        }) << "q = " << q;
        EXPECT_EQ(a, original) << "round trip at q = " << q;
    }
}

TEST(Contracts, MacChainCleanWithMaximalOperandsPastLazyLimit)
{
    IVE_REQUIRE_CHECKED_BUILD();
    // A 1000-link chain of maximal products at a 31-bit prime (limit 4)
    // reduces chunk by chunk through the audited kernels.
    u64 q = findNttPrimes(31, kN, 1).at(0);
    Modulus mod(q);
    MaximalRun m(q, 1000, 1);
    std::vector<u64> dst(2 * kN, 0), lazy(2 * kN);
    u64 *const out[2] = {dst.data(), dst.data() + kN};
    EXPECT_NO_THROW(
        kernels::macChain(out, m.run, kN, mod, lazy.data(), scalarK()));
    // Cross-check one lane against direct modular arithmetic.
    u64 expect = mod.mul(mod.mul(q - 1, q - 1), 1000 % q);
    EXPECT_EQ(dst[0], expect);
    EXPECT_EQ(dst[kN], expect);
}
