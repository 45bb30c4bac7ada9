#include "bfv/rgsw.hh"

#include <algorithm>
#include <utility>

#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "poly/kernels.hh"

namespace ive {

std::vector<RnsPoly>
decomposePoly(const HeContext &ctx, const Gadget &gadget,
              const RnsPoly &poly_coeff)
{
    const Ring &ring = ctx.ring();
    int ell = gadget.ell();
    std::vector<RnsPoly> digits;
    digits.reserve(ell);
    for (int k = 0; k < ell; ++k)
        digits.emplace_back(ring, Domain::Coeff);
    decomposePolyInto(ctx, gadget, poly_coeff, digits,
                      PolyWorkspace::local());
    return digits;
}

void
decomposePolyInto(const HeContext &ctx, const Gadget &gadget,
                  const RnsPoly &poly_coeff, std::span<RnsPoly> digits,
                  PolyWorkspace &ws)
{
    const Ring &ring = ctx.ring();
    ive_assert(!poly_coeff.isNtt());
    int ell = gadget.ell();
    ive_assert(static_cast<int>(digits.size()) == ell);
    for (const RnsPoly &d : digits)
        ive_assert(!d.isNtt() && d.n() == ring.n);

    const int nk = ring.k();
    // Scratch is leased inside each task from the *executing* thread's
    // workspace (== ws for inline chunks); ws stays in the signature so
    // call sites keep the workspace explicit.
    (void)ws;

    // Coefficient ranges are independent (each i writes only slot i of
    // every digit's plane 0), so the iCRT + bit-extraction sweep chunks
    // across the pool; the per-coefficient work is tens of nanoseconds,
    // hence the coarse grain. Nested calls (RowSel columns, fold pairs
    // on workers) run the whole range inline as before.
    parallelForChunked(0, ring.n, 512, [&](u64 from, u64 to) {
        WordLease scratch(PolyWorkspace::local(),
                          static_cast<u64>(nk) + ell);
        std::span<u64> res(scratch.data(), static_cast<size_t>(nk));
        std::span<u64> dig(scratch.data() + nk,
                           static_cast<size_t>(ell));
        for (u64 i = from; i < to; ++i) {
            poly_coeff.coeffResidues(i, res);
            u128 x = ring.base.fromRns(res); // iCRT (Eq. 3)
            gadget.decompose(x, dig);        // bit extraction
            // Digits are < z < every q_i, so the residue is the same
            // in every plane: write only plane 0 here (ell unit-stride
            // streams) and replicate whole planes below, instead of
            // the old ell x k scattered stores per coefficient.
            for (int k = 0; k < ell; ++k)
                digits[k].set(0, i, dig[k]);
        }
    });
    // Replicate plane 0 across the other planes, then transform every
    // (digit, plane) pair independently: the two phases must not fuse,
    // or a task could read plane 0 while the (digit, 0) task transforms
    // it. The per-plane transforms replace digits[k].toNtt(ring); the
    // coordinating thread retags once all planes are NTT form.
    if (nk > 1) {
        parallelFor(0, static_cast<u64>(ell) * (nk - 1), [&](u64 t) {
            int k = static_cast<int>(t / (nk - 1));
            int p = 1 + static_cast<int>(t % (nk - 1));
            std::span<const u64> p0 =
                std::as_const(digits[k]).residues(0);
            std::copy(p0.begin(), p0.end(),
                      digits[k].residues(p).begin());
        });
    }
    parallelFor(0, static_cast<u64>(ell) * nk, [&](u64 t) {
        int k = static_cast<int>(t / nk);
        int p = static_cast<int>(t % nk);
        ring.ntt[static_cast<size_t>(p)].forward(
            digits[k].residues(p));
    });
    for (RnsPoly &d : digits)
        PolyWorkspace::retag(d, Domain::Ntt);
}

void
gadgetMacInto(const Ring &ring, std::span<const RnsPoly> digits,
              std::span<const BfvCiphertext> rows, BfvCiphertext &out,
              PolyWorkspace &ws)
{
    ive_assert(digits.size() == rows.size());
    const u64 n = ring.n;
    const u64 links = digits.size();
    // Per plane: a side then b side, raw u64 sums of one chain chunk.
    WordLease lazy(ws, 2 * ring.words());
    // Per-plane tasks: each plane's chains are independent and exact,
    // so outputs are byte-identical at any thread count.
    parallelFor(0, static_cast<u64>(ring.k()), [&](u64 t) {
        const int p = static_cast<int>(t);
        // Pointer scratch, per thread and reused across calls.
        thread_local std::vector<const u64 *> ptrs;
        ptrs.resize(3 * links);
        const u64 **db = ptrs.data();
        const u64 **la = db + links;
        const u64 **lb = la + links;
        for (u64 j = 0; j < links; ++j) {
            db[j] = digits[j].residues(p).data();
            la[j] = rows[j].a.residues(p).data();
            lb[j] = rows[j].b.residues(p).data();
        }
        u64 *const sides[2] = {out.a.residues(p).data(),
                               out.b.residues(p).data()};
        kernels::macChain(sides, {db, la, lb, links, 1}, n,
                          ring.base.modulus(p), lazy.data() + t * 2 * n);
    });
}

namespace {

/** Adds m*z^k (m given in NTT form) to one polynomial of a row. */
void
addGadgetTerm(const HeContext &ctx, const Gadget &gadget, int k,
              const RnsPoly &m_ntt, RnsPoly &target)
{
    RnsPoly term = m_ntt;
    term.scalarMulInPlace(ctx.ring(), gadget.zPowResidues(k));
    target.addInPlace(ctx.ring(), term);
}

} // namespace

RgswCiphertext
encryptRgswPoly(const HeContext &ctx, const SecretKey &sk, Rng &rng,
                const RnsPoly &m_ntt)
{
    ive_assert(m_ntt.isNtt());
    const Gadget &gadget = ctx.gadgetRgsw();
    int ell = gadget.ell();

    RgswCiphertext out;
    out.ell = ell;
    out.rows.reserve(2 * ell);
    for (int k = 0; k < ell; ++k) {
        BfvCiphertext row = encryptZero(ctx, sk, rng);
        addGadgetTerm(ctx, gadget, k, m_ntt, row.a);
        out.rows.push_back(std::move(row));
    }
    for (int k = 0; k < ell; ++k) {
        BfvCiphertext row = encryptZero(ctx, sk, rng);
        addGadgetTerm(ctx, gadget, k, m_ntt, row.b);
        out.rows.push_back(std::move(row));
    }
    return out;
}

RgswCiphertext
encryptRgswConst(const HeContext &ctx, const SecretKey &sk, Rng &rng,
                 u64 m)
{
    const Ring &ring = ctx.ring();
    RnsPoly m_poly(ring, Domain::Coeff);
    std::vector<u64> res(ring.k());
    ring.base.toRns(m, res);
    for (int p = 0; p < ring.k(); ++p)
        m_poly.set(p, 0, res[p]);
    m_poly.toNtt(ring);
    return encryptRgswPoly(ctx, sk, rng, m_poly);
}

BfvCiphertext
externalProduct(const HeContext &ctx, const RgswCiphertext &rgsw,
                const BfvCiphertext &ct)
{
    const Ring &ring = ctx.ring();
    BfvCiphertext out;
    out.a = RnsPoly(ring, Domain::Ntt);
    out.b = RnsPoly(ring, Domain::Ntt);
    externalProductInto(ctx, rgsw, ct, out, PolyWorkspace::local());
    return out;
}

void
externalProductInto(const HeContext &ctx, const RgswCiphertext &rgsw,
                    const BfvCiphertext &ct, BfvCiphertext &out,
                    PolyWorkspace &ws)
{
    const Ring &ring = ctx.ring();
    const Gadget &gadget = ctx.gadgetRgsw();
    int ell = rgsw.ell;
    ive_assert(static_cast<int>(rgsw.rows.size()) == 2 * ell);
    ive_assert(gadget.ell() == ell);
    ive_assert(&ct != &out);
    ive_assert(out.a.isNtt() && out.b.isNtt());
    ive_assert(out.a.n() == ring.n && out.a.k() == ring.k());

    const int nk = ring.k();

    PolyLease a_coeff(ws, ring, Domain::Coeff);
    PolyLease b_coeff(ws, ring, Domain::Coeff);
    // Phase 1: each (side, plane) pair copies its residue plane and
    // inverse-transforms it independently (2k tasks). When a fold pair
    // or RowSel column already owns a worker this runs inline, same as
    // the old a_coeff/b_coeff fromNtt path.
    {
        const RnsPoly *src[2] = {&ct.a, &ct.b};
        RnsPoly *dst[2] = {&*a_coeff, &*b_coeff};
        parallelFor(0, 2 * static_cast<u64>(nk), [&](u64 t) {
            int side = static_cast<int>(t / nk);
            int p = static_cast<int>(t % nk);
            std::span<const u64> s = src[side]->residues(p);
            std::span<u64> d = dst[side]->residues(p);
            std::copy(s.begin(), s.end(), d.begin());
            ring.ntt[static_cast<size_t>(p)].inverse(d);
        });
    }

    // Phase 2: the two gadget decompositions (internally parallel over
    // coefficient chunks and (digit, plane) transforms): digits 0..l-1
    // of a, then l..2l-1 of b, in the order of the RGSW rows.
    PolyVecLease digits(ws, ring, Domain::Coeff, 2 * static_cast<u64>(ell));
    std::span<RnsPoly> all(*digits);
    decomposePolyInto(ctx, gadget, *a_coeff, all.first(ell), ws);
    decomposePolyInto(ctx, gadget, *b_coeff, all.subspan(ell), ws);

    // Phase 3: the 2x2l matrix-vector product, one 2l-link chain per
    // plane.
    out.a.setZero();
    out.b.setZero();
    gadgetMacInto(ring, all, rgsw.rows, out, ws);
}

void
saveRgswCiphertext(ByteWriter &w, const RgswCiphertext &rgsw)
{
    w.writeU64(static_cast<u64>(rgsw.ell));
    w.writeU64(rgsw.rows.size());
    for (const BfvCiphertext &row : rgsw.rows)
        saveBfvCiphertext(w, row);
}

RgswCiphertext
loadRgswCiphertext(ByteReader &r, const HeContext &ctx)
{
    RgswCiphertext rgsw;
    u64 ell = r.readU64();
    if (ell != static_cast<u64>(ctx.gadgetRgsw().ell()))
        r.fail(strprintf("rgsw ell %llu does not match context ell %d",
                         static_cast<unsigned long long>(ell),
                         ctx.gadgetRgsw().ell()));
    rgsw.ell = static_cast<int>(ell);
    u64 rows = r.readCount(2 * ell, bfvCiphertextWireBytes(ctx.ring()),
                           "rgsw row");
    if (rows != 2 * ell)
        r.fail(strprintf("rgsw has %llu rows, expected %llu",
                         static_cast<unsigned long long>(rows),
                         static_cast<unsigned long long>(2 * ell)));
    for (u64 k = 0; k < rows; ++k)
        rgsw.rows.push_back(loadBfvCiphertext(r, ctx.ring()));
    return rgsw;
}

} // namespace ive
