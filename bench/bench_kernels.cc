/**
 * @file
 * google-benchmark microbenchmarks of the crypto kernels: the building
 * blocks whose counts drive the complexity model and the hardware
 * mapping (NTT, external product, Subs, RowSel MAC, Dcp, iCRT,
 * Solinas vs Barrett reduction).
 */

#include <benchmark/benchmark.h>

#include <string>

#include "bfv/automorphism.hh"
#include "bfv/rgsw.hh"
#include "modmath/primes.hh"
#include "modmath/solinas.hh"
#include "pir/params.hh"
#include "poly/kernels.hh"

using namespace ive;

namespace {

struct KernelFixture
{
    KernelFixture()
        : params(PirParams::functionalDefault()), ctx(params.he),
          rng(1), sk(ctx, rng),
          plain(ctx.n(), 0x12345678u),
          ct(encryptPlain(ctx, sk, rng, plain)),
          rgsw(encryptRgswConst(ctx, sk, rng, 1)),
          evk(genEvk(ctx, sk, rng, ctx.n() + 1)),
          dbEntry(liftPlain(ctx, plain))
    {
    }

    PirParams params;
    HeContext ctx;
    Rng rng;
    SecretKey sk;
    std::vector<u64> plain;
    BfvCiphertext ct;
    RgswCiphertext rgsw;
    EvkKey evk;
    RnsPoly dbEntry;
};

KernelFixture &
fixture()
{
    static KernelFixture f;
    return f;
}

} // namespace

// --- lazy vs strict kernel micro-pairs ------------------------------
//
// The lazy kernels (poly/kernels.hh) are what the pipeline runs; the
// strict references are the pre-optimization implementations. Keeping
// both benchmarked pins the before/after delta the lazy rewrite buys.

static void
BM_NttForwardLazy(benchmark::State &state)
{
    auto &f = fixture();
    const NttTable &table = f.ctx.ring().ntt[0];
    std::vector<u64> a(table.n());
    Rng rng(5);
    for (u64 &v : a)
        v = rng.uniform(table.modulus().value());
    for (auto _ : state) {
        table.forward(a); // In-place; stays canonical.
        benchmark::DoNotOptimize(a.data());
    }
}
BENCHMARK(BM_NttForwardLazy);

static void
BM_NttForwardStrict(benchmark::State &state)
{
    auto &f = fixture();
    const NttTable &table = f.ctx.ring().ntt[0];
    std::vector<u64> a(table.n());
    Rng rng(5);
    for (u64 &v : a)
        v = rng.uniform(table.modulus().value());
    for (auto _ : state) {
        table.forwardStrict(a);
        benchmark::DoNotOptimize(a.data());
    }
}
BENCHMARK(BM_NttForwardStrict);

static void
BM_NttInverseLazy(benchmark::State &state)
{
    auto &f = fixture();
    const NttTable &table = f.ctx.ring().ntt[0];
    std::vector<u64> a(table.n());
    Rng rng(5);
    for (u64 &v : a)
        v = rng.uniform(table.modulus().value());
    for (auto _ : state) {
        table.inverse(a);
        benchmark::DoNotOptimize(a.data());
    }
}
BENCHMARK(BM_NttInverseLazy);

static void
BM_NttInverseStrict(benchmark::State &state)
{
    auto &f = fixture();
    const NttTable &table = f.ctx.ring().ntt[0];
    std::vector<u64> a(table.n());
    Rng rng(5);
    for (u64 &v : a)
        v = rng.uniform(table.modulus().value());
    for (auto _ : state) {
        table.inverseStrict(a);
        benchmark::DoNotOptimize(a.data());
    }
}
BENCHMARK(BM_NttInverseStrict);

static void
BM_NttForward(benchmark::State &state)
{
    auto &f = fixture();
    RnsPoly p = f.dbEntry;
    p.fromNtt(f.ctx.ring());
    for (auto _ : state) {
        RnsPoly q = p;
        q.toNtt(f.ctx.ring());
        benchmark::DoNotOptimize(q);
    }
}
BENCHMARK(BM_NttForward);

static void
BM_NttInverse(benchmark::State &state)
{
    auto &f = fixture();
    for (auto _ : state) {
        RnsPoly q = f.dbEntry;
        q.fromNtt(f.ctx.ring());
        benchmark::DoNotOptimize(q);
    }
}
BENCHMARK(BM_NttInverse);

namespace {

/**
 * A D0 = 64-link, two-column RowSel pass over every prime of the
 * fixture ring: distinct random canonical database and leaf planes
 * (16 MiB of database), u64 lazy chains, one reduction per output
 * word. Throughput is reported in bytes of database streamed.
 */
struct RowSelChain
{
    static constexpr u64 kLinks = 64;
    static constexpr u64 kCols = 2;

    RowSelChain()
    {
        const Ring &ring = fixture().ctx.ring();
        const u64 n = ring.n;
        Rng rng(9);
        auto plane = [&](u64 q) {
            std::vector<u64> v(n);
            for (u64 &c : v)
                c = rng.uniform(q);
            return v;
        };
        // Per prime: the link-major database planes, then the a and b
        // leaf planes (moving a plane keeps its buffer, so the
        // pointers stay valid as `planes` grows).
        const u64 per = kLinks * kCols + 2 * kLinks;
        for (int p = 0; p < ring.k(); ++p) {
            for (u64 i = 0; i < per; ++i) {
                planes.push_back(plane(ring.base.modulus(p).value()));
                ptrs.push_back(planes.back().data());
            }
        }
        for (int p = 0; p < ring.k(); ++p) {
            const u64 *const *base = ptrs.data() + static_cast<u64>(p) * per;
            runs.push_back({base, base + kLinks * kCols,
                            base + kLinks * kCols + kLinks, kLinks, kCols});
        }
    }

    void
    run(benchmark::State &state, const simd::Kernels &k) const
    {
        const Ring &ring = fixture().ctx.ring();
        const u64 n = ring.n;
        std::vector<u64> acc(2 * kCols * n), out(2 * kCols * n);
        for (auto _ : state) {
            for (int p = 0; p < ring.k(); ++p) {
                const Modulus &mod = ring.base.modulus(p);
                k.rowSelMac(acc.data(), runs[static_cast<u64>(p)], n, mod);
                for (u64 s = 0; s < 2 * kCols; ++s)
                    k.lazyReduceAdd(out.data() + s * n, acc.data() + s * n,
                                    n, mod);
            }
            benchmark::DoNotOptimize(out.data());
        }
        state.SetBytesProcessed(state.iterations() * kLinks * kCols *
                                ring.words() * 8);
    }

    std::vector<std::vector<u64>> planes;
    std::vector<const u64 *> ptrs;
    std::vector<simd::RowSelRun> runs;
};

const RowSelChain &
rowSelChain()
{
    static const RowSelChain c;
    return c;
}

} // namespace

static void
BM_RowSelMac(benchmark::State &state)
{
    // RowSel's kernel on the active backend, in GB/s of database.
    rowSelChain().run(state, simd::active());
}
BENCHMARK(BM_RowSelMac);

static void
BM_ApplyCoeffMap(benchmark::State &state)
{
    // The automorphism permutation (scalar under every backend).
    auto &f = fixture();
    const Ring &ring = f.ctx.ring();
    const u64 q = ring.base.modulus(0).value();
    std::vector<u64> map(ring.n);
    RnsPoly::automorphismMap(ring.n, ring.n / 2 + 1, map);
    std::vector<u64> src(f.dbEntry.residues(0).begin(),
                         f.dbEntry.residues(0).end());
    std::vector<u64> dst(ring.n);
    for (auto _ : state) {
        kernels::applyCoeffMapVec(dst.data(), src.data(), map.data(),
                                  ring.n, q);
        benchmark::DoNotOptimize(dst.data());
    }
    state.SetItemsProcessed(state.iterations() * ring.n);
}
BENCHMARK(BM_ApplyCoeffMap);

static void
BM_ExternalProduct(benchmark::State &state)
{
    auto &f = fixture();
    for (auto _ : state) {
        BfvCiphertext out = externalProduct(f.ctx, f.rgsw, f.ct);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_ExternalProduct);

static void
BM_Subs(benchmark::State &state)
{
    auto &f = fixture();
    for (auto _ : state) {
        BfvCiphertext out = subs(f.ctx, f.ct, f.evk);
        benchmark::DoNotOptimize(out);
    }
}
BENCHMARK(BM_Subs);

static void
BM_GadgetDecompose(benchmark::State &state)
{
    auto &f = fixture();
    RnsPoly a = f.ct.a;
    a.fromNtt(f.ctx.ring());
    for (auto _ : state) {
        auto digits = decomposePoly(f.ctx, f.ctx.gadgetRgsw(), a);
        benchmark::DoNotOptimize(digits);
    }
}
BENCHMARK(BM_GadgetDecompose);

static void
BM_IcrtReconstruct(benchmark::State &state)
{
    auto &f = fixture();
    const Ring &ring = f.ctx.ring();
    RnsPoly a = f.ct.a;
    a.fromNtt(ring);
    std::vector<u64> res(ring.k());
    for (auto _ : state) {
        u128 acc = 0;
        for (u64 i = 0; i < ring.n; ++i) {
            a.coeffResidues(i, res);
            acc += ring.base.fromRns(res);
        }
        benchmark::DoNotOptimize(acc);
    }
    state.SetItemsProcessed(state.iterations() * ring.n);
}
BENCHMARK(BM_IcrtReconstruct);

// --- per-ISA backend columns ----------------------------------------
//
// One row per runnable table (simd::runnableBackends(): scalar, avx2,
// the generic avx512 table and, on IFMA hosts, avx512-ifma) per hot
// kernel of the dispatch table (poly/simd/simd.hh), so README's per-ISA
// table comes from a single run on the widest machine available. The
// default-named benchmarks above stay on the *active* backend — the
// trajectory numbers.

namespace {

void
registerIsaBench(const char *kernel, const simd::Kernels *k,
                 void (*fn)(benchmark::State &, const simd::Kernels *))
{
    std::string name = std::string("BM_Isa_") + kernel + "/" + k->name;
    benchmark::RegisterBenchmark(name.c_str(), fn, k);
}

void
isaNttForward(benchmark::State &state, const simd::Kernels *k)
{
    auto &f = fixture();
    const NttTable &table = f.ctx.ring().ntt[0];
    std::vector<u64> a(table.n());
    Rng rng(5);
    for (u64 &v : a)
        v = rng.uniform(table.modulus().value());
    for (auto _ : state) {
        k->nttForwardLazy(a.data(), table.n(), table.modulus(),
                          table.forwardTwiddles());
        benchmark::DoNotOptimize(a.data());
    }
}

void
isaNttInverse(benchmark::State &state, const simd::Kernels *k)
{
    auto &f = fixture();
    const NttTable &table = f.ctx.ring().ntt[0];
    std::vector<u64> a(table.n());
    Rng rng(5);
    for (u64 &v : a)
        v = rng.uniform(table.modulus().value());
    for (auto _ : state) {
        k->nttInverseLazy(a.data(), table.n(), table.modulus(),
                          table.inverseTwiddles(), table.nInv(),
                          table.nInvShoup(), table.nInvShoup52());
        benchmark::DoNotOptimize(a.data());
    }
}

/**
 * A gadget MAC chain over every prime of the fixture ring, as Subs'
 * key switch (9 links) or the external product (16 links) runs it:
 * random canonical digit and key-row planes, onto a zero addend, one
 * kernels::macChain per prime.
 */
struct GadgetChain
{
    explicit GadgetChain(u64 links) : links(links)
    {
        const Ring &ring = fixture().ctx.ring();
        Rng rng(23 + links);
        for (int p = 0; p < ring.k(); ++p) {
            const u64 q = ring.base.modulus(p).value();
            for (u64 i = 0; i < 3 * links; ++i) {
                planes.emplace_back(ring.n);
                for (u64 &c : planes.back())
                    c = rng.uniform(q);
                ptrs.push_back(planes.back().data());
            }
        }
    }

    void
    run(benchmark::State &state, const simd::Kernels &k) const
    {
        const Ring &ring = fixture().ctx.ring();
        const u64 n = ring.n;
        std::vector<u64> out(2 * ring.words()), lazy(2 * n);
        for (auto _ : state) {
            std::fill(out.begin(), out.end(), 0);
            for (u64 p = 0; p < static_cast<u64>(ring.k()); ++p) {
                const u64 *const *db = ptrs.data() + 3 * links * p;
                u64 *const sides[2] = {out.data() + 2 * n * p,
                                       out.data() + 2 * n * p + n};
                kernels::macChain(sides,
                                  {db, db + links, db + 2 * links, links, 1},
                                  n, ring.base.modulus(static_cast<int>(p)),
                                  lazy.data(), k);
            }
            benchmark::DoNotOptimize(out.data());
            benchmark::ClobberMemory();
        }
        state.SetItemsProcessed(state.iterations() * 2 * links *
                                ring.words());
    }

    u64 links;
    std::vector<std::vector<u64>> planes;
    std::vector<const u64 *> ptrs;
};

void
isaMacChainKs(benchmark::State &state, const simd::Kernels *k)
{
    static const GadgetChain chain(9);
    chain.run(state, *k);
}

void
isaMacChainXp(benchmark::State &state, const simd::Kernels *k)
{
    static const GadgetChain chain(16);
    chain.run(state, *k);
}

void
isaRowSelMac(benchmark::State &state, const simd::Kernels *k)
{
    rowSelChain().run(state, *k);
}

/**
 * Operands of the element-wise kernels over the fixture ring's first
 * prime: random canonical planes b (with its x2^64 Shoup companions)
 * and lazy u64 chain sums.
 */
struct VecOperands
{
    VecOperands()
        : mod(fixture().ctx.ring().base.modulus(0)),
          n(fixture().ctx.ring().n), a(n), b(n), bShoup(n), acc64(n)
    {
        const u64 q = mod.value();
        Rng rng(19);
        for (u64 i = 0; i < n; ++i) {
            a[i] = rng.uniform(q);
            b[i] = rng.uniform(q);
            bShoup[i] = mod.shoupPrecompute(b[i]);
            acc64[i] = rng.uniform(~u64{0});
        }
    }

    Modulus mod;
    u64 n;
    std::vector<u64> a, b, bShoup, acc64;
};

const VecOperands &
vecOperands()
{
    static const VecOperands v;
    return v;
}

/**
 * BM_Isa_<kernel> for an in-place element-wise kernel: op(k, v, dst)
 * runs once per iteration on dst, which starts as plane a and stays
 * canonical (canonicalizeVec sees its [0, 4q) domain only at first).
 */
template <class Op>
void
registerVecBench(const char *kernel, const simd::Kernels *k, Op op)
{
    std::string name = std::string("BM_Isa_") + kernel + "/" + k->name;
    benchmark::RegisterBenchmark(
        name.c_str(), [k, op](benchmark::State &state) {
            const VecOperands &v = vecOperands();
            std::vector<u64> dst = v.a;
            for (auto _ : state) {
                op(*k, v, dst.data());
                benchmark::DoNotOptimize(dst.data());
                benchmark::ClobberMemory();
            }
            state.SetItemsProcessed(state.iterations() * v.n);
        });
}

int
registerIsaBenches()
{
    using K = simd::Kernels;
    using O = VecOperands;
    for (const K *k : simd::runnableBackends()) {
        registerIsaBench("NttForward", k, &isaNttForward);
        registerIsaBench("NttInverse", k, &isaNttInverse);
        registerVecBench("AddVec", k, [](const K &t, const O &v, u64 *d) {
            t.addVec(d, v.b.data(), v.n, v.mod.value());
        });
        registerVecBench("SubVec", k, [](const K &t, const O &v, u64 *d) {
            t.subVec(d, v.b.data(), v.n, v.mod.value());
        });
        registerVecBench("NegVec", k, [](const K &t, const O &v, u64 *d) {
            t.negVec(d, v.n, v.mod.value());
        });
        registerVecBench("MulVec", k, [](const K &t, const O &v, u64 *d) {
            t.mulVec(d, v.b.data(), v.n, v.mod);
        });
        registerVecBench(
            "MulShoupVec", k, [](const K &t, const O &v, u64 *d) {
                t.mulShoupVec(d, v.b.data(), v.bShoup.data(), v.n,
                              v.mod.value());
            });
        registerVecBench(
            "CanonicalizeVec", k, [](const K &t, const O &v, u64 *d) {
                t.canonicalizeVec(d, v.n, v.mod.value());
            });
        registerVecBench("MulAccVec", k, [](const K &t, const O &v, u64 *d) {
            t.mulAccVec(d, v.a.data(), v.b.data(), v.n, v.mod);
        });
        registerVecBench(
            "LazyReduceAdd", k, [](const K &t, const O &v, u64 *d) {
                t.lazyReduceAdd(d, v.acc64.data(), v.n, v.mod);
            });
        registerIsaBench("RowSelMac", k, &isaRowSelMac);
        benchmark::RegisterBenchmark(
            (std::string("BM_MacChain/ks9/") + k->name).c_str(),
            &isaMacChainKs, k);
        benchmark::RegisterBenchmark(
            (std::string("BM_MacChain/xp16/") + k->name).c_str(),
            &isaMacChainXp, k);
    }
    return 0;
}

const int g_isa_benches_registered = registerIsaBenches();

} // namespace

static void
BM_BarrettMul(benchmark::State &state)
{
    Modulus mod(kIvePrimes[0]);
    u64 x = 0x5a5a5a5;
    for (auto _ : state) {
        x = mod.mul(x, 0x3c3c3c3);
        benchmark::DoNotOptimize(x);
    }
}
BENCHMARK(BM_BarrettMul);

static void
BM_SolinasMul(benchmark::State &state)
{
    SolinasReducer sol(kIvePrimes[0], kIvePrimeExponents[0]);
    u64 x = 0x5a5a5a5;
    for (auto _ : state) {
        x = sol.mul(x, 0x3c3c3c3);
        benchmark::DoNotOptimize(x);
    }
}
BENCHMARK(BM_SolinasMul);
