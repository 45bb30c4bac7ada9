/**
 * @file
 * The RowSel u64 lazy MAC loop, shared by the vector backends.
 *
 * Internal header: included only by the vector TUs, each compiled with
 * its own -m flags and instantiating the loop with its own lane type V:
 *
 *   V::kLanes               u64 lanes per register
 *   V::Reg                  the register type
 *   V::load(const u64 *)    unaligned load
 *   V::store(u64 *, Reg)    unaligned store
 *   V::mul32(Reg, Reg)      per-lane product of the low 32 bits
 *   V::add(Reg, Reg)        per-lane u64 add
 *
 * Canonical residues of a q < 2^32 fit the low 32 bits, so every
 * product is one vpmuludq and every accumulation one vpaddq: no carry
 * handling, no reduction until the chain ends (the caller keeps the
 * chain within kernels::lazyChainLimit).
 */

#ifndef IVE_POLY_SIMD_ROWSEL_MAC_HH
#define IVE_POLY_SIMD_ROWSEL_MAC_HH

#include "poly/simd/backends.hh"

namespace ive::simd::rowsel {

/**
 * One pass over the whole-register blocks [0, end): link i (and i + 1
 * when kPair) of kCols columns. Each database load feeds the a and b
 * sides, each leaf load feeds every column, and a pair pass adds two
 * products per accumulator round trip. kFirst stores instead of
 * accumulating (the kernel overwrites acc).
 */
template <class V, u64 kCols, bool kPair, bool kFirst>
inline void
pass(u64 *acc, const RowSelRun &run, u64 i, u64 n, u64 end)
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
blocks(u64 *acc, const RowSelRun &run, u64 n, u64 end)
{
    const u64 links = run.links;
    if (links >= 2)
        pass<V, kCols, true, true>(acc, run, 0, n, end);
    else
        pass<V, kCols, false, true>(acc, run, 0, n, end);
    u64 i = links >= 2 ? 2 : 1;
    for (; i + 2 <= links; i += 2)
        pass<V, kCols, true, false>(acc, run, i, n, end);
    if (i < links)
        pass<V, kCols, false, false>(acc, run, i, n, end);
}

/**
 * Kernels::rowSelMac on lane type V; scalar for tails, empty chains
 * (which zero acc) and q >= 2^32.
 */
template <class V>
inline void
mac(u64 *acc, const RowSelRun &run, u64 n, const Modulus &mod)
{
    if (run.links == 0 || mod.value() >= kFusedMacModulusBound) {
        scalar::rowSelMac(acc, run, n, mod);
        return;
    }
    const u64 end = n - n % V::kLanes;
    if (run.cols == 2)
        blocks<V, 2>(acc, run, n, end);
    else
        blocks<V, 1>(acc, run, n, end);
    if (end < n)
        scalarRowSelMacRange(acc, run, end, n);
}

} // namespace ive::simd::rowsel

#endif // IVE_POLY_SIMD_ROWSEL_MAC_HH
