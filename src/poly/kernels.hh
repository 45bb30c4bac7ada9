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
 *  - One multiply-accumulate chain (macChain) for Subs' key switch,
 *    the external product and RowSel: when q < 2^32 each product of
 *    canonical residues fits in 64 bits, so the chain sums products as
 *    raw u64 lanes (one vpmuludq + vpaddq each, no carries) and pays
 *    one Barrett reduction per output word per lazyChainLimit(q) =
 *    floor((2^64-1)/(q-1)^2) links — about 960 for the 27-bit IVE
 *    primes, so the 9-link key-switch, 16-link external-product and
 *    D0 <= 256 RowSel chains reduce once, at the end. Primes >= 2^32
 *    (large test primes) take the strict per-product kernel.
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
#include "common/logging.hh"
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
    simd::scalar::applyCoeffMap(dst, src, map, n, q);
}

// --- the MAC chain ---------------------------------------------------

/**
 * True when canonical products fit 64 bits (q < 2^32), so a MAC chain
 * sums them as raw u64 lanes and reduces once per lazyChainLimit(q)
 * links instead of once per product.
 */
inline bool
fusedMacOk(const Modulus &mod)
{
    return mod.value() < simd::kFusedMacModulusBound;
}

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

// The shipped D0 <= 256 RowSel chains, the 2l = 16 external-product
// chains and the l_ks = 9 key-switch chains need no mid-chain
// reduction under any IVE prime.
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

/**
 * One prime's multiply-accumulate chain: the single MAC path of Subs'
 * key switch (db = the l_ks digit planes, leafA / leafB = the key
 * rows), the external product (2l digits against the 2l RGSW rows) and
 * RowSel (D0 database entries of one or two columns against the
 * leaves). For each column c it adds
 *
 *   sum over links i of db[i * cols + c] o leafA[i]  onto out[2c]
 *   sum over links i of db[i * cols + c] o leafB[i]  onto out[2c + 1]
 *
 * mod q; out holds canonical planes, so callers choose the addend
 * (zeros, or Subs' sigma_r(b)). Fused primes (q < 2^32) run rowSelMac
 * over chunks of at most lazyChainLimit(q) links into `lazy` (2 * cols
 * planes of n words) and lazyReduceAdd each chunk onto out; strict
 * primes mulAccVec every link straight onto out. Integer sums are
 * exact, so the output does not depend on the chunking.
 *
 * With out == nullptr (fused primes only) the raw sums stay in `lazy`:
 * RowSel's segment partials, merged raw by the caller. The run is then
 * one chunk and must fit lazyChainLimit(q), audited in checked builds.
 * `k` picks the table (the active one unless a test or benchmark
 * sweeps them).
 */
inline void
macChain(u64 *const *out, const simd::RowSelRun &run, u64 n,
         const Modulus &mod, u64 *lazy,
         const simd::Kernels &k = simd::active())
{
    if (!fusedMacOk(mod)) {
        ive_assert(out != nullptr);
        for (u64 i = 0; i < run.links; ++i) {
            for (u64 c = 0; c < run.cols; ++c) {
                const u64 *d = run.db[i * run.cols + c];
                k.mulAccVec(out[2 * c], d, run.leafA[i], n, mod);
                k.mulAccVec(out[2 * c + 1], d, run.leafB[i], n, mod);
            }
        }
        return;
    }
    const u64 limit = lazyChainLimit(mod.value());
    if (out == nullptr) {
        auditLazyChain(run.links, mod);
        ive_assert(run.links <= limit);
        k.rowSelMac(lazy, run, n, mod);
        return;
    }
    for (u64 lo = 0; lo < run.links; lo += limit) {
        const u64 links = run.links - lo < limit ? run.links - lo : limit;
        k.rowSelMac(lazy,
                    {run.db + lo * run.cols, run.leafA + lo,
                     run.leafB + lo, links, run.cols},
                    n, mod);
        for (u64 s = 0; s < 2 * run.cols; ++s)
            k.lazyReduceAdd(out[s], lazy + s * n, n, mod);
    }
}

/** dst[i] = dst[i] + (acc[i] mod q) mod q: a raw chain's reduction. */
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

// --- strict per-link shim -------------------------------------------
//
// Kept only until a benchmark change re-points perfbench's
// poly.mac_chain probe (perfbench/layers.cc) at macChain: the probe's
// call shapes (with AccLease, poly/workspace.hh), now a strict
// mulAccVec per link. Nothing in src/ calls these.

/** Zeroes dst: the strict chain accumulates into it. */
inline void
chainMacBegin(const Modulus &, u64 n, u64 *dst)
{
    for (u64 i = 0; i < n; ++i)
        dst[i] = 0;
}

/** One strict link: dst += a o b mod q. */
inline void
chainMacAcc(const Modulus &mod, u64 n, u64 *, u64 *dst, const u64 *a,
            const u64 *b)
{
    mulAccVec(dst, a, b, n, mod);
}

/** Nothing left to do: every link already reduced. */
inline void
chainMacFinish(const Modulus &, u64, const u64 *, u64 *, bool)
{
}

} // namespace ive::kernels

#endif // IVE_POLY_KERNELS_HH
