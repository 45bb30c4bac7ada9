/**
 * @file
 * Runtime-dispatched SIMD backends for the polynomial hot kernels.
 *
 * IVE's versatile processing element serves NTT butterflies, dyadic
 * MACs and automorphism permutations from one datapath (paper SIII);
 * this layer is the software analogue: one dispatch table routes the
 * NTTs, the element-wise ops and the one MAC chain to the widest vector
 * unit the CPU offers (the automorphism permutation is a scalar loop,
 * kernels::applyCoeffMapVec: a scatter bought nothing). Three backends:
 *
 *  - scalar  : portable reference, bit-for-bit the PR-4 kernels
 *  - avx2    : 4-lane u64 ops; 64x64 products via 2x32-bit vpmuludq
 *              splits (no 64-bit multiplier on AVX2)
 *  - avx512  : 8-lane u64 ops (needs AVX-512 F + DQ for vpmullq);
 *              when the CPU also has AVX-512 IFMA and the modulus fits
 *              the 52-bit datapath (q < 2^50), the NTT butterflies run
 *              Shoup multiplies on the vpmadd52 52-bit multipliers
 *              using the x2^52 companion twiddles NttTable precomputes
 *
 * Every backend computes bit-identical canonical outputs for the same
 * inputs (lazy intermediates may differ by multiples of q; the final
 * canonicalization erases the difference), so serving responses stay
 * byte-identical to the committed goldens under any backend —
 * tests/test_simd.cc sweeps all of them against scalar.
 *
 * Selection happens once, at first use: cpuid-derived feature bits
 * (via __builtin_cpu_supports, which also honors OS XSAVE state) pick
 * the best runnable backend; the IVE_FORCE_ISA=scalar|avx2|avx512
 * environment variable overrides it (aborting loudly if the forced ISA
 * cannot run on this CPU, so a misconfigured CI run cannot silently
 * pass on the wrong backend). The per-ISA implementations live in
 * separate translation units compiled with per-file -m flags, so the
 * binary itself runs on any x86-64 (non-x86 builds get scalar only).
 *
 * The vector backends share one loop body per kernel
 * (vector_kernels.hh): each TU instantiates the templates with its
 * own lane type (load/store/add/csub/mul primitives on __m256i or
 * __m512i), and the NTTs additionally take a lazy Shoup product
 * policy — 2^64 companions on avx2/avx512, 52-bit vpmadd52 ones on
 * avx512-ifma — and a hook for the sub-register stages (scalar on
 * avx2, a fused permute tail on AVX-512). What stays per ISA is only
 * the lane types (with the IFMA product policy) and the tables.
 */

#ifndef IVE_POLY_SIMD_SIMD_HH
#define IVE_POLY_SIMD_SIMD_HH

#include <vector>

#include "common/types.hh"
#include "modmath/modulus.hh"

namespace ive::simd {

enum class Isa
{
    Scalar = 0,
    Avx2 = 1,
    Avx512 = 2,
};

const char *isaName(Isa isa);

// --- machine-checked datapath bounds ---------------------------------
//
// The lazy-reduction design rests on a handful of numeric bounds that
// used to live in comments. They are named constants here so every
// backend tests the same value, and static_asserts derive the bound
// proofs at compile time; the runtime halves of the same contracts are
// audited by the scalar backend under -DIVE_CHECK_RANGES=ON (see
// common/contracts.hh).

/**
 * Moduli below this engage the fused MAC chain: canonical products fit
 * 64 bits, so kernels::macChain sums them as raw u64 lanes (rowSelMac)
 * and reduces once per lazy chain.
 */
inline constexpr u64 kFusedMacModulusBound = u64{1} << 32;

/**
 * IFMA 52-bit datapath bound: the lazy butterflies feed operands up to
 * 4q into vpmadd52, so 4q must fit 52 bits.
 */
inline constexpr u64 kIfmaModulusBound = u64{1} << 50;

// Fused products of canonical residues must fit one 64-bit word.
static_assert(static_cast<u128>(kFusedMacModulusBound - 1) *
                      (kFusedMacModulusBound - 1) <=
                  ~u64{0},
              "fused-MAC products must fit 64 bits");
// The 52-bit lazy Shoup proof needs its 4q operands inside the
// vpmadd52 datapath.
static_assert(static_cast<u128>(4) * (kIfmaModulusBound - 1) <
                  (u128{1} << 52),
              "IFMA butterflies need 4q inside the 52-bit datapath");

/**
 * Twiddle bundle a transform hands its backend: bit-reversed twiddles
 * with their x2^64 Shoup companions, plus the x2^52 companions when
 * the modulus fits the IFMA datapath (null otherwise — backends that
 * cannot use them ignore the field).
 */
struct NttTwiddles
{
    const u64 *tw = nullptr;
    const u64 *twShoup = nullptr;
    const u64 *twShoup52 = nullptr;
};

/**
 * One MAC chain over a single prime (see kernels::macChain): `links`
 * links of `cols` (1 or 2) columns against shared key planes. db holds
 * links * cols planes, link-major (db[i * cols + c]): RowSel's database
 * entries, or the gadget digits of Subs' key switch (l_ks links) and of
 * the external product (2l links), with cols = 1. leafA / leafB hold
 * each link's a / b planes: RowSel's leaves, or the key rows.
 */
struct RowSelRun
{
    const u64 *const *db = nullptr;
    const u64 *const *leafA = nullptr;
    const u64 *const *leafB = nullptr;
    u64 links = 0;
    u64 cols = 1;
};

/**
 * The dispatch table: one function pointer per hot kernel. All
 * functions take canonical inputs and produce canonical outputs
 * identical to the scalar reference; lazy NTT entries do their own
 * final canonicalization.
 */
struct Kernels
{
    Isa isa = Isa::Scalar;
    const char *name = "scalar";

    /** Forward Harvey lazy CT butterflies + final canonical pass. */
    void (*nttForwardLazy)(u64 *a, u64 n, const Modulus &mod,
                           const NttTwiddles &t);
    /** Inverse lazy GS butterflies, n^-1 fold, canonical output. */
    void (*nttInverseLazy)(u64 *a, u64 n, const Modulus &mod,
                           const NttTwiddles &t, u64 n_inv,
                           u64 n_inv_shoup, u64 n_inv_shoup52);

    // Element-wise canonical vector ops.
    void (*addVec)(u64 *dst, const u64 *src, u64 n, u64 q);
    void (*subVec)(u64 *dst, const u64 *src, u64 n, u64 q);
    void (*negVec)(u64 *dst, u64 n, u64 q);
    void (*mulVec)(u64 *dst, const u64 *src, u64 n, const Modulus &mod);
    /** dst[i] = dst[i] * b[i] mod q with per-element x2^64 companions. */
    void (*mulShoupVec)(u64 *dst, const u64 *b, const u64 *b_shoup,
                        u64 n, u64 q);
    /** Canonicalizes values in [0, 4q) down to [0, q). */
    void (*canonicalizeVec)(u64 *a, u64 n, u64 q);
    /** Strict dst[i] += a[i] * b[i] mod q. */
    void (*mulAccVec)(u64 *dst, const u64 *a, const u64 *b, u64 n,
                      const Modulus &mod);

    // The u64 lazy MAC chain (kernels::macChain drives both).
    /**
     * acc[(2c + s) * n + j] = sum over links i of
     * db[i * cols + c][j] * leaf_s[i][j] (s = 0: leafA, 1: leafB) as
     * raw u64 sums, overwriting acc (2 * cols planes of n words).
     * Each db word (database entry or digit) is loaded once per link
     * and feeds both sides; with cols = 2 each leaf load feeds both
     * columns. Operands are
     * canonical residues of mod (q < 2^32) and run.links must not
     * exceed kernels::lazyChainLimit(q), so no lane wraps.
     */
    void (*rowSelMac)(u64 *acc, const RowSelRun &run, u64 n,
                      const Modulus &mod);
    /** dst[i] = (dst[i] + (acc[i] mod q)) mod q for any u64 acc[i]. */
    void (*lazyReduceAdd)(u64 *dst, const u64 *acc, u64 n,
                          const Modulus &mod);
};

namespace scalar {

/**
 * Prime-major automorphism / monomial permutation: for each i,
 * dst[map[i] >> 1] = (map[i] & 1) ? q - src[i] (0 stays 0)
 *                                 : src[i],
 * with map a (pos << 1 | flip) bijection on [0, n) as built by
 * RnsPoly::automorphismMap. dst must not alias src. Scalar under every
 * backend: an AVX-512 scatter measured no faster.
 */
void applyCoeffMap(u64 *dst, const u64 *src, const u64 *map, u64 n,
                   u64 q);

} // namespace scalar

/**
 * The backend table for one ISA, or null when this CPU cannot run it
 * (or the binary was built without that TU). The avx512 table is
 * returned with its IFMA butterfly variants already patched in when
 * the CPU supports AVX-512 IFMA.
 */
const Kernels *backend(Isa isa);

/**
 * Every table this CPU and binary can run, narrowest first: scalar,
 * avx2, the generic 2^64-Shoup avx512 table, and on IFMA hosts also the
 * avx512-ifma table that backend(Isa::Avx512) returns there. The
 * differential tests and the per-ISA benchmarks sweep this list.
 */
const std::vector<const Kernels *> &runnableBackends();

/** Best ISA this CPU can run among the compiled-in backends. */
Isa bestSupportedIsa();

/**
 * True when the IFMA butterflies are compiled in and runnable here:
 * NttTable only spends memory on x2^52 companion twiddles when some
 * backend could actually consume them.
 */
bool ifmaButterfliesAvailable();

/**
 * The active table: resolved once on first use from bestSupportedIsa()
 * or IVE_FORCE_ISA, then immutable (safe to read from any thread).
 */
const Kernels &active();

} // namespace ive::simd

#endif // IVE_POLY_SIMD_SIMD_HH
