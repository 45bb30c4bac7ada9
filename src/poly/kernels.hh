/**
 * @file
 * Kernel entry points for the polynomial hot path.
 *
 * IVE's hardware argument (paper SIV) is that one versatile datapath
 * serves every hot kernel — NTT butterflies, dyadic MACs, automorphism
 * permutations; our software analogue routes all of them through one
 * runtime-resolved ISA dispatch table (poly/simd/simd.hh): scalar,
 * AVX2, or AVX-512 (+IFMA butterflies), selected once per process by
 * cpuid or the IVE_FORCE_ISA override. Every backend produces
 * bit-identical canonical outputs, so responses stay byte-identical to
 * the committed goldens under any backend.
 *
 * Two value-range families survive from the lazy-reduction redesign:
 *
 *  - Harvey-style lazy NTT butterflies: intermediate values live in
 *    [0, 4q) (forward) / [0, 2q) (inverse) and are canonicalized to
 *    [0, q) once, in a single final pass, instead of per butterfly.
 *    Dispatched via NttTable::forward/inverse, not this header.
 *
 *  - Fused dyadic multiply-accumulate: when q < 2^32 each product of
 *    canonical residues fits in 64 bits, so Barrett reduction is paid
 *    once per output word per *chain*, not per product. Two chain
 *    shapes share that bound:
 *      - RowSel's D0-long columns sum products as raw u64 lanes (one
 *        vpmuludq + vpaddq each, no carries), which is exact for
 *        lazyChainLimit(q) = floor((2^64-1)/(q-1)^2) links — about 960
 *        for the 27-bit IVE primes, so shipped D0 <= 256 chains reduce
 *        once at the end; other primes reduce every lazyChainLimit(q)
 *        links.
 *      - The external product's 2l-row sums and Subs' key-switch sums
 *        keep u128 accumulators, which absorb up to 2^32 terms (the
 *        vector backends fold the high word with a 2^64 mod q
 *        multiply, which caps the chain length).
 *    Larger test primes fall back to the strict per-product kernels.
 *
 * The strict NTT reference transforms are kept inline here for
 * differential tests and before/after microbenchmarks; they are not
 * dispatched.
 *
 * This header depends only on modmath and the simd table, so the ntt
 * module can use it without a link cycle.
 */

#ifndef IVE_POLY_KERNELS_HH
#define IVE_POLY_KERNELS_HH

#include <span>

#include "common/contracts.hh"
#include "common/types.hh"
#include "modmath/modulus.hh"
#include "modmath/primes.hh"
#include "poly/simd/simd.hh"

namespace ive::kernels {

// --- compile-time bound proofs ---------------------------------------
//
// The runtime halves of these contracts are audited by the scalar
// backend under -DIVE_CHECK_RANGES=ON (common/contracts.hh); here the
// compile-time-derivable parts are pinned against kMaxModulus
// (modmath/modulus.hh) and the simd datapath bounds (poly/simd/simd.hh).

// Forward lazy intermediates reach 4q and must fit one 64-bit word.
static_assert(static_cast<u128>(4) * (kMaxModulus - 1) <= ~u64{0},
              "forward-NTT lazy bound: 4q must fit u64");
// mulShoupLazy's [0, 2q) output bound holds for any q < 2^63.
static_assert(static_cast<u128>(2) * (kMaxModulus - 1) < (u128{1} << 63),
              "lazy Shoup product needs q < 2^63");
// The fused-MAC engage bound must stay inside the general modulus
// bound, so fusedMacOk's dispatch is a pure refinement.
static_assert(simd::kFusedMacModulusBound <= kMaxModulus,
              "fused-MAC bound exceeds the modulus bound");
// The IFMA butterfly bound likewise refines the general bound.
static_assert(simd::kIfmaModulusBound <= kMaxModulus,
              "IFMA bound exceeds the modulus bound");

/**
 * Shoup product without the final conditional subtract: returns
 * a * b - floor(a * b_shoup / 2^64) * q, which lies in [0, 2q) for ANY
 * 64-bit a, given b < q, b_shoup = floor(b * 2^64 / q), and q < 2^63.
 * The lazy butterflies feed it values up to 4q and rely on the [0, 2q)
 * output bound.
 */
inline u64
mulShoupLazy(u64 a, u64 b, u64 b_shoup, u64 q)
{
    u64 approx = static_cast<u64>((static_cast<u128>(a) * b_shoup) >> 64);
    return a * b - approx * q;
}

// --- strict negacyclic NTT reference ---------------------------------
//
// Twiddle tables are in bit-reversed order with Shoup companions,
// exactly as NttTable stores them; a.size() is the (power-of-two) ring
// degree. The dispatched lazy transforms compute identical outputs.

/** Strict reference forward transform (canonical after each butterfly). */
inline void
nttForwardStrict(std::span<u64> a, const Modulus &mod,
                 std::span<const u64> tw, std::span<const u64> tw_shoup)
{
    const u64 q = mod.value();
    const u64 n = a.size();
    u64 t = n;
    for (u64 m = 1; m < n; m <<= 1) {
        t >>= 1;
        for (u64 i = 0; i < m; ++i) {
            u64 j1 = 2 * i * t;
            u64 w = tw[m + i];
            u64 ws = tw_shoup[m + i];
            for (u64 j = j1; j < j1 + t; ++j) {
                u64 x = a[j];
                u64 y = mod.mulShoup(a[j + t], w, ws);
                u64 s = x + y;
                a[j] = s >= q ? s - q : s;
                a[j + t] = x >= y ? x - y : x + q - y;
            }
        }
    }
}

/** Strict reference inverse transform. */
inline void
nttInverseStrict(std::span<u64> a, const Modulus &mod,
                 std::span<const u64> tw, std::span<const u64> tw_shoup,
                 u64 n_inv, u64 n_inv_shoup)
{
    const u64 q = mod.value();
    const u64 n = a.size();
    u64 t = 1;
    for (u64 m = n; m > 1; m >>= 1) {
        u64 j1 = 0;
        u64 h = m >> 1;
        for (u64 i = 0; i < h; ++i) {
            u64 w = tw[h + i];
            u64 ws = tw_shoup[h + i];
            for (u64 j = j1; j < j1 + t; ++j) {
                u64 x = a[j];
                u64 y = a[j + t];
                u64 s = x + y;
                a[j] = s >= q ? s - q : s;
                u64 d = x >= y ? x - y : x + q - y;
                a[j + t] = mod.mulShoup(d, w, ws);
            }
            j1 += 2 * t;
        }
        t <<= 1;
    }
    for (u64 j = 0; j < n; ++j)
        a[j] = mod.mulShoup(a[j], n_inv, n_inv_shoup);
}

// --- element-wise vector kernels (canonical in, canonical out) -------
//
// Thin forwarders into the active ISA table; see simd.hh for the
// per-kernel contracts.

inline void
addVec(u64 *dst, const u64 *src, u64 n, u64 q)
{
    simd::active().addVec(dst, src, n, q);
}

inline void
subVec(u64 *dst, const u64 *src, u64 n, u64 q)
{
    simd::active().subVec(dst, src, n, q);
}

inline void
negVec(u64 *dst, u64 n, u64 q)
{
    simd::active().negVec(dst, n, q);
}

inline void
mulVec(u64 *dst, const u64 *src, u64 n, const Modulus &mod)
{
    simd::active().mulVec(dst, src, n, mod);
}

/** dst[i] = dst[i] * b[i] mod q with precomputed x2^64 companions. */
inline void
mulShoupVec(u64 *dst, const u64 *b, const u64 *b_shoup, u64 n, u64 q)
{
    simd::active().mulShoupVec(dst, b, b_shoup, n, q);
}

/** Strict dst[i] += a[i] * b[i] mod q (one reduction per element). */
inline void
mulAccVec(u64 *dst, const u64 *a, const u64 *b, u64 n, const Modulus &mod)
{
    simd::active().mulAccVec(dst, a, b, n, mod);
}

/** Applies a (pos << 1 | flip) permutation map to one residue plane. */
inline void
applyCoeffMapVec(u64 *dst, const u64 *src, const u64 *map, u64 n, u64 q)
{
    simd::active().applyCoeffMap(dst, src, map, n, q);
}

// --- fused lazy multiply-accumulate ----------------------------------

/**
 * True when canonical products fit 64 bits, so a u128 accumulator can
 * absorb any chain this codebase produces with a single deferred
 * Barrett reduction per output word.
 */
inline bool
fusedMacOk(const Modulus &mod)
{
    return mod.value() < simd::kFusedMacModulusBound;
}

/**
 * acc[i] += a[i] * b[i] as raw u128 sums (no reduction). Inputs must
 * be < 2^32 (the fused-MAC policy only engages below 32-bit moduli);
 * the vector backends compute single-instruction 32x32 products.
 */
inline void
macAccumulate(u128 *acc, const u64 *a, const u64 *b, u64 n)
{
    simd::active().macAccumulate(acc, a, b, n);
}

/** dst[i] = acc[i] mod q: the single deferred reduction of a chain. */
inline void
macReduce(u64 *dst, const u128 *acc, u64 n, const Modulus &mod)
{
    simd::active().macReduce(dst, acc, n, mod);
}

/** dst[i] = dst[i] + (acc[i] mod q) mod q. */
inline void
macReduceAdd(u64 *dst, const u128 *acc, u64 n, const Modulus &mod)
{
    simd::active().macReduceAdd(dst, acc, n, mod);
}

// --- RowSel u64 lazy MAC chains --------------------------------------

/**
 * Longest u64 lazy chain for modulus q: each product of canonical
 * residues is at most (q-1)^2, so floor((2^64-1) / (q-1)^2) of them sum
 * without wrapping. About 960 links for the 27-bit IVE primes, 1 just
 * below 2^32, and 0 once (q-1)^2 no longer fits 64 bits (strict
 * primes).
 */
constexpr u64
lazyChainLimit(u64 q)
{
    const u64 m = q - 1; // >= 1: moduli are > 1
    return (m >> 32) ? 0 : ~u64{0} / (m * m);
}

// The shipped D0 <= 256 RowSel chains need no mid-chain reduction
// under any IVE prime.
static_assert(lazyChainLimit(kIvePrimes[3]) >= 256,
              "IVE primes must admit a 256-link lazy chain");
static_assert(lazyChainLimit(simd::kFusedMacModulusBound - 1) >= 1,
              "every fused prime must admit a one-link lazy chain");

/**
 * Checked-build audit of the u64 lazy chain bound: a chain (one kernel
 * run, or raw partials about to be merged) of `links` products must
 * stay within lazyChainLimit(q), or a lane would wrap and silently
 * produce a wrong (often still-decryptable) result. Compiles to
 * nothing unless -DIVE_CHECK_RANGES=ON.
 */
inline void
auditLazyChain(u64 links, const Modulus &mod)
{
#if IVE_RANGE_CHECKS_ENABLED
    ive_contract(links <= lazyChainLimit(mod.value()),
                 "u64 lazy MAC chain within floor((2^64-1)/(q-1)^2) "
                 "links");
#else
    (void)links;
    (void)mod;
#endif
}

/** One lazy chain segment; see simd::Kernels::rowSelMac. */
inline void
rowSelMac(u64 *acc, const simd::RowSelRun &run, u64 n, const Modulus &mod)
{
    simd::active().rowSelMac(acc, run, n, mod);
}

/** dst[i] = dst[i] + (acc[i] mod q) mod q: a lazy chain's reduction. */
inline void
lazyReduceAdd(u64 *dst, const u64 *acc, u64 n, const Modulus &mod)
{
    simd::active().lazyReduceAdd(dst, acc, n, mod);
}

/**
 * dst[i] += src[i] as raw u64 sums: merges one raw partial of a split
 * lazy chain into the running total. Integer addition is exact, so
 * merging in any order equals the unsplit chain bit for bit, provided
 * the merged chain of `merged_links` products stays within
 * lazyChainLimit(q) (audited in checked builds).
 */
inline void
mergeLazyPartial(u64 *dst, const u64 *src, u64 n, u64 merged_links,
                 const Modulus &mod)
{
    auditLazyChain(merged_links, mod);
    for (u64 i = 0; i < n; ++i)
        dst[i] += src[i];
}

// --- per-plane MAC-chain dispatch ------------------------------------
//
// The u128 chain sites (the external product's 2l-row sums, Subs'
// key-switch sums) share one policy: fused primes accumulate raw u128
// products and reduce once at the end, strict primes
// multiply-accumulate canonically into the destination plane as they
// go. Keeping the dispatch here means a policy change (say, a
// different fused bound) edits exactly one place. RowSel runs its own
// u64 lazy chains (rowSelMac above).

/**
 * Prepares a destination plane for a chain: strict primes accumulate
 * into dst, so it must start zeroed (fused primes ignore dst until
 * chainMacFinish). Skip for a plane that already holds the chain's
 * addend — e.g. Subs' b-side, where dst holds the rotated polynomial.
 */
inline void
chainMacBegin(const Modulus &mod, u64 n, u64 *dst)
{
    if (!fusedMacOk(mod)) {
        for (u64 i = 0; i < n; ++i)
            dst[i] = 0;
    }
}

/** One chain link: acc (fused) or dst (strict) += a o b. */
inline void
chainMacAcc(const Modulus &mod, u64 n, u128 *acc, u64 *dst,
            const u64 *a, const u64 *b)
{
    if (fusedMacOk(mod))
        macAccumulate(acc, a, b, n);
    else
        mulAccVec(dst, a, b, n, mod);
}

/**
 * Ends a chain: fused primes pay their single deferred reduction into
 * dst (`add` accumulates onto dst's existing value instead of
 * overwriting). Strict primes already finished inside chainMacAcc.
 */
inline void
chainMacFinish(const Modulus &mod, u64 n, const u128 *acc, u64 *dst,
               bool add)
{
    if (!fusedMacOk(mod))
        return;
    if (add)
        macReduceAdd(dst, acc, n, mod);
    else
        macReduce(dst, acc, n, mod);
}

} // namespace ive::kernels

#endif // IVE_POLY_KERNELS_HH
