/**
 * @file
 * Parallel server-path tests: the batched pipeline must produce
 * byte-identical responses at any thread count, keep the op counters
 * exact, and still decrypt to the right database entries.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "bfv/automorphism.hh"
#include "bfv/rgsw.hh"
#include "common/thread_pool.hh"
#include "modmath/primes.hh"
#include "pir/batch.hh"
#include "pir/server.hh"
#include "poly/kernels.hh"

using namespace ive;

namespace {

PirParams
smallParams(u64 d0, int d, int planes = 1)
{
    PirParams p = PirParams::testSmall();
    p.he.n = 256;
    p.d0 = d0;
    p.d = d;
    p.planes = planes;
    return p;
}

struct PirFixture
{
    PirFixture(const PirParams &params, u64 seed)
        : ctx(params.he), client(ctx, params, seed),
          db(Database::random(ctx, params, seed + 1)),
          server(ctx, params, &db, client.genPublicKeys())
    {
    }

    HeContext ctx;
    PirClient client;
    Database db;
    PirServer server;
};

bool
ctEqual(const BfvCiphertext &x, const BfvCiphertext &y)
{
    return x.a == y.a && x.b == y.b;
}

/**
 * RowSel of `server` over `db` checked byte for byte against an
 * independent plainMulAcc chain (strict per-product reduction) per
 * column, at 1, 3 and 8 threads. The thread counts move RowSel between
 * its two-column, one-column and segmented passes.
 */
void
expectRowSelMatchesPlainMulAcc(const HeContext &ctx,
                               const PirParams &params,
                               PirClient &client,
                               const Database &db, const PirServer &server,
                               u64 target)
{
    ThreadPool::setGlobalThreads(1);
    std::vector<BfvCiphertext> leaves =
        server.expandQuery(client.makeQuery(target));
    const u64 cols = server.localColumns();
    std::vector<BfvCiphertext> want(cols);
    for (u64 r = 0; r < cols; ++r) {
        want[r].a = RnsPoly(ctx.ring(), Domain::Ntt);
        want[r].b = RnsPoly(ctx.ring(), Domain::Ntt);
        for (u64 i = 0; i < params.d0; ++i)
            plainMulAcc(ctx, want[r],
                        db.entry(db.firstEntry() + r * params.d0 + i),
                        leaves[i]);
    }
    for (int threads : {1, 3, 8}) {
        ThreadPool::setGlobalThreads(threads);
        std::vector<BfvCiphertext> got = server.rowSel(leaves);
        ASSERT_EQ(got.size(), cols);
        for (u64 r = 0; r < cols; ++r)
            EXPECT_TRUE(ctEqual(got[r], want[r]))
                << threads << " threads, column " << r;
    }
    ThreadPool::setGlobalThreads(1);
}

/** smallParams on an explicit prime basis (gadgets sized for ~120 bits). */
PirParams
primeParams(const std::vector<u64> &primes, u64 d0, int d)
{
    PirParams p = smallParams(d0, d);
    p.he.primes = primes;
    p.he.logZKs = 14;
    p.he.ellKs = 9;
    p.he.logZRgsw = 16;
    p.he.ellRgsw = 8;
    return p;
}

/**
 * subsInto and externalProductInto checked byte for byte against an
 * independent strict chain (RnsPoly::mulAccumulate: one mulAccVec per
 * link, reduced per product) at 1, 3 and 8 threads. The key-switch
 * chain has ellKs links, the external product's 2 * ellRgsw.
 */
void
expectGadgetChainsMatchStrict(const PirParams &params, u64 seed)
{
    ThreadPool::setGlobalThreads(1);
    HeContext ctx(params.he);
    const Ring &ring = ctx.ring();
    Rng rng(seed);
    SecretKey sk(ctx, rng);
    BfvCiphertext ct;
    ct.a = RnsPoly::uniform(ring, rng, Domain::Ntt);
    ct.b = RnsPoly::uniform(ring, rng, Domain::Ntt);
    auto zeroCt = [&] {
        BfvCiphertext z;
        z.a = RnsPoly(ring, Domain::Ntt);
        z.b = RnsPoly(ring, Domain::Ntt);
        return z;
    };
    RnsPoly a = ct.a;
    a.fromNtt(ring);
    RnsPoly b = ct.b;
    b.fromNtt(ring);

    const u64 r = 2 * ctx.n() - 1;
    EvkKey evk = genEvk(ctx, sk, rng, r);
    BfvCiphertext want_subs = zeroCt();
    want_subs.b = b.automorphism(ring, r);
    want_subs.b.toNtt(ring);
    std::vector<RnsPoly> dk =
        decomposePoly(ctx, ctx.gadgetKs(), a.automorphism(ring, r));
    for (size_t k = 0; k < dk.size(); ++k) {
        want_subs.a.mulAccumulate(ring, dk[k], evk.rows[k].a);
        want_subs.b.mulAccumulate(ring, dk[k], evk.rows[k].b);
    }

    RgswCiphertext rgsw = encryptRgswPoly(
        ctx, sk, rng, RnsPoly::uniform(ring, rng, Domain::Ntt));
    const size_t ell = static_cast<size_t>(rgsw.ell);
    BfvCiphertext want_xp = zeroCt();
    std::vector<RnsPoly> da = decomposePoly(ctx, ctx.gadgetRgsw(), a);
    std::vector<RnsPoly> db = decomposePoly(ctx, ctx.gadgetRgsw(), b);
    for (size_t k = 0; k < ell; ++k) {
        want_xp.a.mulAccumulate(ring, da[k], rgsw.rows[k].a);
        want_xp.b.mulAccumulate(ring, da[k], rgsw.rows[k].b);
        want_xp.a.mulAccumulate(ring, db[k], rgsw.rows[ell + k].a);
        want_xp.b.mulAccumulate(ring, db[k], rgsw.rows[ell + k].b);
    }

    for (int threads : {1, 3, 8}) {
        ThreadPool::setGlobalThreads(threads);
        BfvCiphertext got = zeroCt();
        subsInto(ctx, ct, evk, got, PolyWorkspace::local());
        EXPECT_TRUE(ctEqual(got, want_subs)) << "subs, " << threads
                                             << " threads";
        externalProductInto(ctx, rgsw, ct, got, PolyWorkspace::local());
        EXPECT_TRUE(ctEqual(got, want_xp))
            << "external product, " << threads << " threads";
    }
    ThreadPool::setGlobalThreads(1);
}

} // namespace

TEST(ParallelServer, GadgetChainsMatchStrictOnIvePrimes)
{
    // The 27/28-bit IVE primes: 9- and 16-link chains, one reduction.
    expectGadgetChainsMatchStrict(primeParams({kIvePrimes.begin(),
                                               kIvePrimes.end()},
                                              16, 2),
                                  131);
}

TEST(ParallelServer, GadgetChainsMatchStrictAtThirtyBitLimit)
{
    // 30-bit primes admit 16-link lazy chains: the external product's
    // 2l = 16 links fill one chunk exactly.
    std::vector<u64> primes = findNttPrimes(30, 256, 4);
    for (u64 q : primes)
        ASSERT_EQ(kernels::lazyChainLimit(q), 16u) << "q = " << q;
    expectGadgetChainsMatchStrict(primeParams(primes, 16, 2), 137);
}

TEST(ParallelServer, GadgetChainsMatchStrictChunkedOnThirtyOneBitPrimes)
{
    // 31-bit primes admit 4-link chains: the key switch runs in three
    // chunks (4 + 4 + 1), the external product in four.
    std::vector<u64> primes = findNttPrimes(31, 256, 4);
    for (u64 q : primes)
        ASSERT_EQ(kernels::lazyChainLimit(q), 4u) << "q = " << q;
    expectGadgetChainsMatchStrict(primeParams(primes, 16, 2), 139);
}

TEST(ParallelServer, GadgetChainsMatchStrictWithStrictPrime)
{
    // A prime above 2^32 multiply-accumulates per product beside the
    // lazy chains of the IVE primes.
    u64 big = findNttPrimes(33, 256, 1).at(0);
    expectGadgetChainsMatchStrict(
        primeParams({kIvePrimes[0], kIvePrimes[1], kIvePrimes[2], big}, 16,
                    2),
        149);
}

TEST(ParallelServer, BatchResponsesIdenticalAtOneAndEightThreads)
{
    PirParams params = smallParams(16, 3);
    PirFixture f(params, 21);

    std::vector<PirQuery> queries;
    std::vector<u64> targets{0, 3, 17, 63, 100, 127};
    for (u64 t : targets)
        queries.push_back(f.client.makeQuery(t));

    ThreadPool::setGlobalThreads(1);
    auto seq = processBatch(f.server, queries);
    ThreadPool::setGlobalThreads(8);
    auto par = processBatch(f.server, queries);
    ThreadPool::setGlobalThreads(1);

    ASSERT_EQ(seq.size(), queries.size());
    ASSERT_EQ(par.size(), queries.size());
    for (size_t i = 0; i < queries.size(); ++i) {
        ASSERT_EQ(seq[i].size(), 1u);
        ASSERT_EQ(par[i].size(), 1u);
        EXPECT_TRUE(ctEqual(seq[i][0], par[i][0])) << "query " << i;
        // And both decode to the right entry.
        EXPECT_EQ(f.client.decode(par[i][0]),
                  f.db.entryCoeffs(targets[i]))
            << "query " << i;
    }
}

TEST(ParallelServer, SingleQueryPipelineIdenticalAcrossThreadCounts)
{
    PirParams params = smallParams(16, 3);
    PirFixture f(params, 33);
    PirQuery q = f.client.makeQuery(42);

    // Odd counts exercise unbalanced chunk boundaries and partial-lane
    // dispatch; powers of two exercise the balanced fast cases.
    ThreadPool::setGlobalThreads(1);
    BfvCiphertext base = f.server.processAllPlanes(q)[0];
    for (int threads : {2, 3, 4, 5, 7, 8}) {
        ThreadPool::setGlobalThreads(threads);
        BfvCiphertext resp = f.server.processAllPlanes(q)[0];
        EXPECT_TRUE(ctEqual(base, resp)) << threads << " threads";
    }
    ThreadPool::setGlobalThreads(1);
    EXPECT_EQ(f.client.decode(base), f.db.entryCoeffs(42));
}

TEST(ParallelServer, SegmentedRowSelIdenticalWhenColumnsUnderfillPool)
{
    // cols = 2 with d0 = 32: far fewer columns than lanes, so the
    // top-level RowSel splits each column's MAC chain into per-segment
    // partial accumulators and merges them with one deferred reduce.
    // The response must match the unsegmented 1-thread chain exactly.
    PirParams params = smallParams(32, 1);
    PirFixture f(params, 91);
    PirQuery q = f.client.makeQuery(40);

    ThreadPool::setGlobalThreads(1);
    BfvCiphertext base = f.server.processAllPlanes(q)[0];
    for (int threads : {3, 8}) {
        ThreadPool::setGlobalThreads(threads);
        BfvCiphertext resp = f.server.processAllPlanes(q)[0];
        EXPECT_TRUE(ctEqual(base, resp)) << threads << " threads";
    }
    ThreadPool::setGlobalThreads(1);
    EXPECT_EQ(f.client.decode(base), f.db.entryCoeffs(40));
}

TEST(ParallelServer, ExpandAndSelectMatchesSeparatePhases)
{
    PirParams params = smallParams(16, 3);
    PirFixture f(params, 13);
    PirQuery q = f.client.makeQuery(77);

    for (int threads : {1, 8}) {
        ThreadPool::setGlobalThreads(threads);
        std::vector<BfvCiphertext> leaves = f.server.expandQuery(q);
        std::vector<RgswCiphertext> separate =
            f.server.buildSelectors(leaves);

        std::vector<RgswCiphertext> fused;
        std::vector<BfvCiphertext> leaves2 =
            f.server.expandAndSelect(q, 0, params.d, fused);

        ASSERT_EQ(leaves.size(), leaves2.size());
        for (size_t i = 0; i < leaves.size(); ++i)
            EXPECT_TRUE(ctEqual(leaves[i], leaves2[i]))
                << threads << " threads, leaf " << i;
        ASSERT_EQ(separate.size(), fused.size());
        for (size_t t = 0; t < separate.size(); ++t) {
            ASSERT_EQ(separate[t].rows.size(), fused[t].rows.size());
            for (size_t r = 0; r < separate[t].rows.size(); ++r)
                EXPECT_TRUE(ctEqual(separate[t].rows[r],
                                    fused[t].rows[r]))
                    << threads << " threads, sel " << t << " row " << r;
        }
    }
    ThreadPool::setGlobalThreads(1);
}

TEST(ParallelServer, StressConcurrentHostsHitSegmentedMerge)
{
    // TSan stress for the per-thread partial-accumulator merge: several
    // host threads answer the same query through the shared global pool
    // while cols < lanes keeps the segmented RowSel path hot. Any
    // cross-thread race on the partial slices, the merge, or the
    // workspace leases shows up under -L thread (scripts/ci.sh TSan
    // stage runs this binary).
    PirParams params = smallParams(32, 1);
    PirFixture f(params, 17);
    PirQuery q = f.client.makeQuery(12);

    ThreadPool::setGlobalThreads(4);
    BfvCiphertext base = f.server.processAllPlanes(q)[0];

    std::vector<BfvCiphertext> results(4);
    std::vector<std::thread> hosts;
    for (size_t t = 0; t < results.size(); ++t) {
        hosts.emplace_back([&, t] {
            for (int rep = 0; rep < 3; ++rep)
                results[t] = f.server.processAllPlanes(q)[0];
        });
    }
    for (auto &t : hosts)
        t.join();
    ThreadPool::setGlobalThreads(1);

    for (size_t t = 0; t < results.size(); ++t)
        EXPECT_TRUE(ctEqual(results[t], base)) << "host " << t;
}

TEST(ParallelServer, MultiPlaneResponsesIdenticalAcrossThreadCounts)
{
    PirParams params = smallParams(8, 2, /*planes=*/3);
    PirFixture f(params, 55);
    PirQuery q = f.client.makeQuery(9);

    ThreadPool::setGlobalThreads(1);
    auto base = f.server.processAllPlanes(q);
    ThreadPool::setGlobalThreads(8);
    auto par = f.server.processAllPlanes(q);
    ThreadPool::setGlobalThreads(1);

    ASSERT_EQ(base.size(), static_cast<size_t>(params.planes));
    ASSERT_EQ(par.size(), base.size());
    for (size_t p = 0; p < base.size(); ++p)
        EXPECT_TRUE(ctEqual(base[p], par[p])) << "plane " << p;
}

TEST(ParallelServer, CountersStayExactUnderParallelism)
{
    PirParams params = smallParams(16, 3);
    PirFixture f(params, 77);
    PirQuery q = f.client.makeQuery(5);

    // Ops one query adds to the server's counters at this thread count.
    auto queryOps = [&] {
        const ServerCountersSnapshot a = f.server.counters().snapshot();
        (void)f.server.processAllPlanes(q);
        const ServerCountersSnapshot b = f.server.counters().snapshot();
        return ServerCountersSnapshot{
            b.subsOps - a.subsOps,
            b.externalProducts - a.externalProducts,
            b.plainMulAccs - a.plainMulAccs};
    };
    ThreadPool::setGlobalThreads(1);
    const ServerCountersSnapshot serial = queryOps();
    ThreadPool::setGlobalThreads(8);
    const ServerCountersSnapshot parallel = queryOps();
    EXPECT_EQ(parallel.subsOps, serial.subsOps);
    EXPECT_EQ(parallel.externalProducts, serial.externalProducts);
    EXPECT_EQ(parallel.plainMulAccs, serial.plainMulAccs);
    ThreadPool::setGlobalThreads(1);
}

TEST(ParallelServer, RowSelMatchesPlainMulAccOnFullDatabase)
{
    // 8 columns: a two-column pass at 1 and 3 threads, one column per
    // task at 8.
    PirParams params = smallParams(16, 3);
    PirFixture f(params, 41);
    expectRowSelMatchesPlainMulAcc(f.ctx, params, f.client, f.db, f.server,
                                   29);
}

TEST(ParallelServer, RowSelMatchesPlainMulAccOnOneColumnSlice)
{
    // An odd column count: a shard holding one column (record-axis
    // slices are power-of-two column counts, so 1 is the only odd one).
    // Whole-column at 1 thread, segmented above.
    PirParams params = smallParams(16, 3);
    HeContext ctx(params.he);
    PirClient client(ctx, params, 5);
    Database full = Database::random(ctx, params, 6);
    Database db = full.slice(5, 8);
    PirServer server(ctx, params, &db, client.genPublicKeys());
    ASSERT_EQ(server.localColumns(), 1u);
    expectRowSelMatchesPlainMulAcc(ctx, params, client, db, server, 83);
}

TEST(ParallelServer, RowSelMatchesPlainMulAccPastLazyLimit)
{
    // 30-bit primes admit ~16-link lazy chains, so D0 = 128 forces
    // mid-chain reductions: chunked pairs at 1 thread, chunked single
    // columns at 3, canonical (not raw) segment partials at 8. At
    // D0 = 128 an unreduced chain of random residues would wrap 2^64
    // in nearly every lane, so a missing reduction cannot pass.
    std::vector<u64> primes = findNttPrimes(30, 256, 4);
    for (u64 q : primes)
        ASSERT_LE(kernels::lazyChainLimit(q), 32u);
    PirParams params = primeParams(primes, 128, 2);
    PirFixture f(params, 61);
    expectRowSelMatchesPlainMulAcc(f.ctx, params, f.client, f.db, f.server,
                                   111);
}

TEST(ParallelServer, RowSelMatchesPlainMulAccWithStrictPrime)
{
    // A prime above 2^32 takes the strict per-product path beside the
    // lazy chains of the IVE primes.
    u64 big = findNttPrimes(33, 256, 1).at(0);
    ASSERT_GT(big, u64{1} << 32);
    PirParams params = primeParams(
        {kIvePrimes[0], kIvePrimes[1], kIvePrimes[2], big}, 16, 2);
    PirFixture f(params, 71);
    expectRowSelMatchesPlainMulAcc(f.ctx, params, f.client, f.db, f.server,
                                   37);
}

TEST(ParallelServer, RowSelMatchesPlainMulAccOnSegmentedPath)
{
    // cols = 2 < lanes at 3 and 8 threads: raw u64 segment partials
    // merged and reduced once.
    PirParams params = smallParams(32, 1);
    PirFixture f(params, 81);
    expectRowSelMatchesPlainMulAcc(f.ctx, params, f.client, f.db, f.server,
                                   50);
}
