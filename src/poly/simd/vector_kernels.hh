/**
 * @file
 * One vector body per kernel, shared by the AVX2 and AVX-512 backends.
 *
 * Internal header: included only by the vector TUs, each compiled with
 * its own -m flags and instantiating these templates with a TU-local
 * lane type V:
 *
 *   V::kLanes                u64 lanes per register
 *   V::Reg                   the register type
 *   V::load(p) / store(p, r) unaligned load / store
 *   V::set1(x)               broadcast
 *   V::add / sub             per-lane u64 add / subtract
 *   V::csub(a, q)            a >= q ? a - q : a
 *   V::mul32(a, b)           product of the low 32 bits
 *   V::mulLo64 / mulHi64     low / high 64 bits of the 64x64 product
 *   V::addIfLess(d, a, b, q) masked fix: a < b ? d + q : d
 *   V::zeroIfZero(x, v)      masked fix: v == 0 ? 0 : x
 *
 * The NTT templates also take a lazy Shoup product policy (Shoup64
 * below, or the 52-bit IFMA one in kernels_avx512ifma.cc) and a tail
 * hook for the stages narrower than a register (NoTail, or the fused
 * AVX-512 t = 4/2/1 tail in avx512_lanes.hh). Loop remainders and the
 * modulus classes outside a fast path tail-call the scalar backend, so
 * outputs stay bit-identical to it on every path.
 *
 * Everything here sits in an anonymous namespace: each TU gets its own
 * copy compiled for its ISA, and none can be merged by the linker into
 * a caller built for a narrower one (scripts/ci.sh checks the objects
 * for weak definitions).
 */

#ifndef IVE_POLY_SIMD_VECTOR_KERNELS_HH
#define IVE_POLY_SIMD_VECTOR_KERNELS_HH

#include "poly/kernels.hh"
#include "poly/simd/backends.hh"

namespace ive::simd::vec {
namespace {

/**
 * Runs body(i) on every whole-register block [i, i + kLanes) of
 * [0, n); returns where the scalar remainder starts.
 */
template <class V, class Body>
inline u64
forBlocks(u64 n, Body &&body)
{
    u64 i = 0;
    for (; i + V::kLanes <= n; i += V::kLanes)
        body(i);
    return i;
}

/** x mod q, canonical, for any u64 x (m_hi = floor(2^64 / q)). */
template <class V>
inline typename V::Reg
reduce64(typename V::Reg x, typename V::Reg m_hi, typename V::Reg q)
{
    // t = floor(x * m_hi / 2^64) >= floor(x/q) - 1, so one conditional
    // subtract canonicalizes.
    const typename V::Reg t = V::mulHi64(x, m_hi);
    return V::csub(V::sub(x, V::mulLo64(t, q)), q);
}

/**
 * Lazy Shoup product on the 2^64 companions: a*b - floor(a*bs/2^64)*q,
 * in [0, 2q) for any u64 a.
 */
template <class V>
struct Shoup64
{
    using Reg = typename V::Reg;

    explicit Shoup64(u64 q) : qv(V::set1(q)) {}

    /** Picks this policy's companion: twiddle table or n^-1 word. */
    template <class T>
    static T
    companion(T shoup64, T /*shoup52*/)
    {
        return shoup64;
    }

    Reg
    operator()(Reg a, Reg b, Reg bs) const
    {
        return V::sub(V::mulLo64(a, b), V::mulLo64(V::mulHi64(a, bs), qv));
    }

    Reg qv;
};

/** No fused tail: stages narrower than a register run scalar. */
struct NoTail
{
    template <class Bf>
    static bool
    fwd(u64 *, u64, const u64 *, const u64 *, Bf &&)
    {
        return false;
    }

    template <class Bf>
    static bool
    inv(u64 *, u64, const u64 *, const u64 *, Bf &&)
    {
        return false;
    }
};

template <class V>
void
canonicalizeVec(u64 *a, u64 n, u64 q)
{
    const auto qv = V::set1(q);
    const auto two_qv = V::add(qv, qv);
    const u64 i = forBlocks<V>(n, [&](u64 j) {
        V::store(a + j, V::csub(V::csub(V::load(a + j), two_qv), qv));
    });
    if (i < n)
        scalar::canonicalizeVec(a + i, n - i, q);
}

/**
 * Forward Harvey lazy NTT: register-wide stages here, the stages
 * narrower than a register in Tail (or scalar), then canonicalization.
 */
template <class V, class Shoup, class Tail>
void
nttForwardLazy(u64 *a, u64 n, const Modulus &mod, const NttTwiddles &tb)
{
    using Reg = typename V::Reg;
    const u64 q = mod.value();
    const u64 *tw = tb.tw;
    const u64 *tws = Shoup::companion(tb.twShoup, tb.twShoup52);
    const Shoup mul(q);
    const Reg qv = V::set1(q);
    const Reg two_qv = V::add(qv, qv);
    // Inputs < 4q: u drops to [0, 2q), the product lands in [0, 2q),
    // so both outputs stay < 4q.
    const auto bf = [&](Reg x, Reg y, Reg w, Reg ws, Reg &nx, Reg &ny) {
        const Reg u = V::csub(x, two_qv);
        const Reg v = mul(y, w, ws);
        nx = V::add(u, v);
        ny = V::sub(V::add(u, two_qv), v);
    };
    u64 t = n;
    u64 m = 1;
    for (; m < n; m <<= 1) {
        t >>= 1;
        if (t < V::kLanes)
            break;
        for (u64 i = 0; i < m; ++i) {
            const Reg w = V::set1(tw[m + i]);
            const Reg ws = V::set1(tws[m + i]);
            u64 *x = a + 2 * i * t;
            u64 *y = x + t;
            for (u64 j = 0; j < t; j += V::kLanes) {
                Reg nx, ny;
                bf(V::load(x + j), V::load(y + j), w, ws, nx, ny);
                V::store(x + j, nx);
                V::store(y + j, ny);
            }
        }
    }
    if (m < n && !Tail::fwd(a, n, tw, tws, bf)) {
        for (; m < n; m <<= 1, t >>= 1) {
            for (u64 i = 0; i < m; ++i) {
                u64 *x = a + 2 * i * t;
                scalarFwdButterflyBlock(x, x + t, t, tw[m + i],
                                        tb.twShoup[m + i], q);
            }
        }
    }
    canonicalizeVec<V>(a, n, q);
}

/**
 * Inverse lazy GS NTT: Tail (or scalar) for the stages narrower than a
 * register, register-wide stages here, then the n^-1 fold into the
 * canonical output.
 */
template <class V, class Shoup, class Tail>
void
nttInverseLazy(u64 *a, u64 n, const Modulus &mod, const NttTwiddles &tb,
               u64 n_inv, u64 n_inv_shoup, u64 n_inv_shoup52)
{
    using Reg = typename V::Reg;
    const u64 q = mod.value();
    const u64 *tw = tb.tw;
    const u64 *tws = Shoup::companion(tb.twShoup, tb.twShoup52);
    const Shoup mul(q);
    const Reg qv = V::set1(q);
    const Reg two_qv = V::add(qv, qv);
    // Inputs < 2q: both outputs return to [0, 2q). The wide loop
    // stores the sum before it forms the product; in that order GCC
    // keeps x and y in registers instead of loading each twice.
    const auto sum = [&](Reg x, Reg y) {
        return V::csub(V::add(x, y), two_qv);
    };
    const auto dif = [&](Reg x, Reg y, Reg w, Reg ws) {
        return mul(V::sub(V::add(x, two_qv), y), w, ws);
    };
    const auto bf = [&](Reg x, Reg y, Reg w, Reg ws, Reg &nx, Reg &ny) {
        nx = sum(x, y);
        ny = dif(x, y, w, ws);
    };
    u64 t = 1;
    u64 m = n;
    if (Tail::inv(a, n, tw, tws, bf)) {
        t = V::kLanes;
        m = n / V::kLanes;
    } else {
        for (; m > 1 && t < V::kLanes; m >>= 1, t <<= 1) {
            const u64 h = m >> 1;
            for (u64 i = 0; i < h; ++i) {
                u64 *x = a + 2 * i * t;
                scalarInvButterflyBlock(x, x + t, t, tw[h + i],
                                        tb.twShoup[h + i], q);
            }
        }
    }
    for (; m > 1; m >>= 1, t <<= 1) {
        const u64 h = m >> 1;
        for (u64 i = 0; i < h; ++i) {
            const Reg w = V::set1(tw[h + i]);
            const Reg ws = V::set1(tws[h + i]);
            u64 *x = a + 2 * i * t;
            u64 *y = x + t;
            for (u64 j = 0; j < t; j += V::kLanes) {
                const Reg u = V::load(x + j);
                const Reg v = V::load(y + j);
                V::store(x + j, sum(u, v));
                V::store(y + j, dif(u, v, w, ws));
            }
        }
    }
    const Reg ni = V::set1(n_inv);
    const Reg nis = V::set1(Shoup::companion(n_inv_shoup, n_inv_shoup52));
    const u64 end = forBlocks<V>(n, [&](u64 j) {
        V::store(a + j, V::csub(mul(V::load(a + j), ni, nis), qv));
    });
    for (u64 j = end; j < n; ++j) {
        const u64 v = kernels::mulShoupLazy(a[j], n_inv, n_inv_shoup, q);
        a[j] = v >= q ? v - q : v;
    }
}

template <class V>
void
addVec(u64 *dst, const u64 *src, u64 n, u64 q)
{
    const auto qv = V::set1(q);
    const u64 i = forBlocks<V>(n, [&](u64 j) {
        V::store(dst + j,
                 V::csub(V::add(V::load(dst + j), V::load(src + j)), qv));
    });
    if (i < n)
        scalar::addVec(dst + i, src + i, n - i, q);
}

template <class V>
void
subVec(u64 *dst, const u64 *src, u64 n, u64 q)
{
    const auto qv = V::set1(q);
    const u64 i = forBlocks<V>(n, [&](u64 j) {
        const auto a = V::load(dst + j);
        const auto b = V::load(src + j);
        V::store(dst + j, V::addIfLess(V::sub(a, b), a, b, qv));
    });
    if (i < n)
        scalar::subVec(dst + i, src + i, n - i, q);
}

template <class V>
void
negVec(u64 *dst, u64 n, u64 q)
{
    const auto qv = V::set1(q);
    const u64 i = forBlocks<V>(n, [&](u64 j) {
        const auto v = V::load(dst + j);
        V::store(dst + j, V::zeroIfZero(V::sub(qv, v), v));
    });
    if (i < n)
        scalar::negVec(dst + i, n - i, q);
}

/** Products of q < 2^32 residues are one mul32; wider q go scalar. */
template <class V>
void
mulVec(u64 *dst, const u64 *src, u64 n, const Modulus &mod)
{
    const u64 q = mod.value();
    if (q >= kFusedMacModulusBound) {
        scalar::mulVec(dst, src, n, mod);
        return;
    }
    const auto qv = V::set1(q);
    const auto mh = V::set1(mod.barrettHi());
    const u64 i = forBlocks<V>(n, [&](u64 j) {
        const auto p = V::mul32(V::load(dst + j), V::load(src + j));
        V::store(dst + j, reduce64<V>(p, mh, qv));
    });
    if (i < n)
        scalar::mulVec(dst + i, src + i, n - i, mod);
}

template <class V>
void
mulShoupVec(u64 *dst, const u64 *b, const u64 *b_shoup, u64 n, u64 q)
{
    const Shoup64<V> mul(q);
    const u64 i = forBlocks<V>(n, [&](u64 j) {
        const auto r =
            mul(V::load(dst + j), V::load(b + j), V::load(b_shoup + j));
        V::store(dst + j, V::csub(r, mul.qv));
    });
    if (i < n)
        scalar::mulShoupVec(dst + i, b + i, b_shoup + i, n - i, q);
}

template <class V>
void
mulAccVec(u64 *dst, const u64 *a, const u64 *b, u64 n, const Modulus &mod)
{
    const u64 q = mod.value();
    if (q >= kFusedMacModulusBound) {
        scalar::mulAccVec(dst, a, b, n, mod);
        return;
    }
    const auto qv = V::set1(q);
    const auto mh = V::set1(mod.barrettHi());
    const u64 i = forBlocks<V>(n, [&](u64 j) {
        const auto p =
            reduce64<V>(V::mul32(V::load(a + j), V::load(b + j)), mh, qv);
        V::store(dst + j, V::csub(V::add(V::load(dst + j), p), qv));
    });
    if (i < n)
        scalar::mulAccVec(dst + i, a + i, b + i, n - i, mod);
}

template <class V>
void
lazyReduceAdd(u64 *dst, const u64 *acc, u64 n, const Modulus &mod)
{
    const u64 q = mod.value();
    const auto qv = V::set1(q);
    const auto mh = V::set1(mod.barrettHi());
    const u64 i = forBlocks<V>(n, [&](u64 j) {
        const auto r = reduce64<V>(V::load(acc + j), mh, qv);
        V::store(dst + j, V::csub(V::add(V::load(dst + j), r), qv));
    });
    if (i < n)
        scalar::lazyReduceAdd(dst + i, acc + i, n - i, mod);
}

// --- the u64 lazy MAC chain ------------------------------------------
//
// Canonical residues of a q < 2^32 fit the low 32 bits, so every
// product is one mul32 and every accumulation one add: no carry
// handling, no reduction until the chain ends (kernels::macChain keeps
// each run within kernels::lazyChainLimit). RowSel, Subs' key switch
// and the external product all run through here.

/**
 * One pass over the whole-register blocks [0, end): link i (and i + 1
 * when kPair) of kCols columns. Each db load (database entry or
 * digit) feeds the a and b sides, each leaf load feeds every column,
 * and a pair pass adds two products per accumulator round trip.
 * kFirst stores instead of accumulating (the kernel overwrites acc).
 */
template <class V, u64 kCols, bool kPair, bool kFirst>
inline void
rowSelPass(u64 *acc, const RowSelRun &run, u64 i, u64 n, u64 end)
{
    static_assert(kCols == 1 || kCols == 2, "one or two columns");
    using Reg = typename V::Reg;
    const u64 *const *db = run.db + i * kCols;
    const u64 *la0 = run.leafA[i];
    const u64 *lb0 = run.leafB[i];
    const u64 *la1 = kPair ? run.leafA[i + 1] : nullptr;
    const u64 *lb1 = kPair ? run.leafB[i + 1] : nullptr;
    for (u64 j = 0; j < end; j += V::kLanes) {
        const Reg a0 = V::load(la0 + j);
        const Reg b0 = V::load(lb0 + j);
        Reg a1{}, b1{};
        if constexpr (kPair) {
            a1 = V::load(la1 + j);
            b1 = V::load(lb1 + j);
        }
        for (u64 c = 0; c < kCols; ++c) {
            const Reg x = V::load(db[c] + j);
            Reg sa = V::mul32(x, a0);
            Reg sb = V::mul32(x, b0);
            if constexpr (kPair) {
                const Reg y = V::load(db[kCols + c] + j);
                sa = V::add(sa, V::mul32(y, a1));
                sb = V::add(sb, V::mul32(y, b1));
            }
            u64 *acc_a = acc + 2 * c * n + j;
            u64 *acc_b = acc_a + n;
            if constexpr (!kFirst) {
                sa = V::add(sa, V::load(acc_a));
                sb = V::add(sb, V::load(acc_b));
            }
            V::store(acc_a, sa);
            V::store(acc_b, sb);
        }
    }
}

/** Every link over [0, end): the first pass stores, the rest add. */
template <class V, u64 kCols>
inline void
rowSelBlocks(u64 *acc, const RowSelRun &run, u64 n, u64 end)
{
    const u64 links = run.links;
    if (links >= 2)
        rowSelPass<V, kCols, true, true>(acc, run, 0, n, end);
    else
        rowSelPass<V, kCols, false, true>(acc, run, 0, n, end);
    u64 i = links >= 2 ? 2 : 1;
    for (; i + 2 <= links; i += 2)
        rowSelPass<V, kCols, true, false>(acc, run, i, n, end);
    if (i < links)
        rowSelPass<V, kCols, false, false>(acc, run, i, n, end);
}

/**
 * Kernels::rowSelMac; scalar for tails, empty chains (which zero acc)
 * and q >= 2^32.
 */
template <class V>
void
rowSelMac(u64 *acc, const RowSelRun &run, u64 n, const Modulus &mod)
{
    if (run.links == 0 || mod.value() >= kFusedMacModulusBound) {
        scalar::rowSelMac(acc, run, n, mod);
        return;
    }
    const u64 end = n - n % V::kLanes;
    if (run.cols == 2)
        rowSelBlocks<V, 2>(acc, run, n, end);
    else
        rowSelBlocks<V, 1>(acc, run, n, end);
    if (end < n)
        scalarRowSelMacRange(acc, run, end, n);
}

} // namespace
} // namespace ive::simd::vec

#endif // IVE_POLY_SIMD_VECTOR_KERNELS_HH
