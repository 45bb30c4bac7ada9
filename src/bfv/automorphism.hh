/**
 * @file
 * Substitution (Subs) via automorphism plus key switching (paper SII-D).
 *
 * Subs(ct, r) maps the encrypted polynomial's X to X^r. Applying the
 * automorphism to (a, b) yields a ciphertext under the rotated secret
 * sigma_r(s); the evk_r key-switching key (gadget-encrypted sigma_r(s)
 * under s) brings it back to s:
 *
 *   Subs(ct, r) = evk_r . Dcp(sigma_r(a)) + (0, sigma_r(b))
 */

#ifndef IVE_BFV_AUTOMORPHISM_HH
#define IVE_BFV_AUTOMORPHISM_HH

#include <vector>

#include "bfv/bfv.hh"

namespace ive {

/** Key-switching key for the automorphism X -> X^r. */
struct EvkKey
{
    u64 r = 0;
    std::vector<BfvCiphertext> rows; ///< ellKs RLWE rows.

    static u64
    byteSize(const HeContext &ctx, double bits = 28.0)
    {
        return ctx.config().ellKs * BfvCiphertext::byteSize(ctx, bits);
    }
};

/** Generates evk_r: rows[k] has phase e + z^k * sigma_r(s). */
EvkKey genEvk(const HeContext &ctx, const SecretKey &sk, Rng &rng, u64 r);

/** Subs(ct, r): the encrypted polynomial m(X) becomes m(X^r). */
BfvCiphertext subs(const HeContext &ctx, const BfvCiphertext &ct,
                   const EvkKey &evk);

/**
 * Subs into a caller-owned ciphertext (`out` fully overwritten; polys
 * must have the ring's shape; must not alias `ct`). All temporaries —
 * coefficient copies, the rotation map, gadget digits, key-switch MAC
 * accumulators — come from `ws`; the ellKs-row key-switch sums run on
 * the external product's lazy MAC chain (gadgetMacInto).
 */
void subsInto(const HeContext &ctx, const BfvCiphertext &ct,
              const EvkKey &evk, BfvCiphertext &out, PolyWorkspace &ws);

/** Wire encoding: rotation r, row count, then the RLWE rows. */
void saveEvkKey(ByteWriter &w, const EvkKey &evk);

/**
 * Loads an evk whose row count must equal the context's ellKs and
 * whose rotation must be odd and < 2n (else SerializeError).
 */
EvkKey loadEvkKey(ByteReader &r, const HeContext &ctx);

} // namespace ive

#endif // IVE_BFV_AUTOMORPHISM_HH
