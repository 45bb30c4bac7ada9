#include "pir/server.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "common/thread_pool.hh"
#include "obs/trace.hh"
#include "poly/kernels.hh"

namespace ive {

namespace {

/** Serving-stage latency: each histogram times whole invocations. */
struct StageMetrics
{
    obs::Histogram &expand;
    obs::Histogram &selectors;
    obs::Histogram &rowsel;
    obs::Histogram &fold;
};

StageMetrics &
stageMetrics()
{
    namespace n = obs::names;
    obs::Registry &r = obs::Registry::global();
    // Label variants of one family share the HELP header, so every
    // stage registers the same family-level help string.
    static StageMetrics m{
        r.histogram(n::kStageExpand, "serving stage latency, by stage"),
        r.histogram(n::kStageSelectors,
                    "serving stage latency, by stage"),
        r.histogram(n::kStageRowsel, "serving stage latency, by stage"),
        r.histogram(n::kStageFold, "serving stage latency, by stage"),
    };
    return m;
}

/**
 * Outer-loop dispatch for pipeline stages whose trip count can drop
 * below the pool size (early expansion levels, late tournament depths,
 * planes): when the count cannot fill the lanes and the caller is not
 * already a pool worker, run the loop serially so the per-op
 * parallelism inside subsInto / externalProductInto / decomposePolyInto
 * engages at top level; otherwise dispatch across the pool and let the
 * per-op layers run inline as before. Either way each index writes only
 * its own slots, so results are byte-identical.
 */
void
wideFor(u64 count, const std::function<void(u64)> &fn)
{
    if (!ThreadPool::onWorkerThread() &&
        count < static_cast<u64>(ThreadPool::global().size())) {
        for (u64 i = 0; i < count; ++i)
            fn(i);
    } else {
        parallelFor(0, count, fn);
    }
}

} // namespace

ServerCounters::ServerCounters()
    : subsOps(obs::Registry::global().counter(
          obs::names::kOpsSubs, "pipeline operations executed, by op")),
      externalProducts(obs::Registry::global().counter(
          obs::names::kOpsExternalProduct,
          "pipeline operations executed, by op")),
      plainMulAccs(obs::Registry::global().counter(
          obs::names::kOpsPlainMulAcc,
          "pipeline operations executed, by op"))
{
}

PirServer::PirServer(const HeContext &ctx, const PirParams &params,
                     const Database *db, PirPublicKeys keys)
    : ctx_(ctx), params_(params), db_(db), keys_(std::move(keys))
{
    params_.validate();
    if (db_ != nullptr) {
        // A slice must cover whole columns and sit on a tournament
        // boundary, or its local folds would pair entries the
        // monolithic ColTor never pairs.
        ive_assert(db_->numEntries() > 0 &&
                   db_->numEntries() % params_.d0 == 0);
        u64 cols = db_->numEntries() / params_.d0;
        ive_assert(isPow2(cols) && cols <= (u64{1} << params_.d));
        ive_assert(db_->firstEntry() % (cols * params_.d0) == 0);
    }
    ive_assert(static_cast<int>(keys_.evks.size()) >=
               params_.expansionDepth());

    // Expansion and key-switch keys are consumed in NTT form by every
    // Subs and external product of the serving path. Normalize them
    // once here instead of checking (or silently mis-using a
    // coefficient-form key blob — the wire format tags either domain)
    // inside expandQuery: after this, the hot path never transforms a
    // key again.
    const Ring &ring = ctx_.ring();
    auto toNttOnce = [&](BfvCiphertext &row) {
        if (!row.a.isNtt())
            row.a.toNtt(ring);
        if (!row.b.isNtt())
            row.b.toNtt(ring);
    };
    for (EvkKey &evk : keys_.evks) {
        for (BfvCiphertext &row : evk.rows)
            toNttOnce(row);
    }
    for (BfvCiphertext &row : keys_.rgswOfSecret.rows)
        toNttOnce(row);

    for (int t = 0; t < params_.expansionDepth(); ++t) {
        monomials_.push_back(RnsPoly::monomialNtt(
            ctx_.ring(), -static_cast<i64>(u64{1} << t)));
        // Shoup companions for the fixed monomial multiplicand.
        AlignedU64Vec shoup(ring.words());
        for (int p = 0; p < ring.k(); ++p) {
            const Modulus &mod = ring.base.modulus(p);
            std::span<const u64> plane = monomials_.back().residues(p);
            for (u64 i = 0; i < ring.n; ++i)
                shoup[static_cast<u64>(p) * ring.n + i] =
                    mod.shoupPrecompute(plane[i]);
        }
        monomialShoup_.push_back(std::move(shoup));
    }
}

u64
PirServer::localColumns() const
{
    ive_assert(db_ != nullptr, "fold-only server has no database");
    return db_->numEntries() / params_.d0;
}

int
PirServer::localLevels() const
{
    return log2Exact(localColumns());
}

std::vector<BfvCiphertext>
PirServer::expandQuery(const PirQuery &query) const
{
    std::vector<RgswCiphertext> none;
    return expandAndSelect(query, 0, 0, none);
}

std::vector<BfvCiphertext>
PirServer::expandAndSelect(const PirQuery &query, int sel_from,
                           int sel_to,
                           std::vector<RgswCiphertext> &selectors) const
{
    StageMetrics &sm = stageMetrics();
    obs::StageSpan span(&sm.expand, "expand");
    int depth = params_.expansionDepth();
    u64 used = params_.usedLeaves();
    ive_assert(sel_from >= 0 && sel_from <= sel_to &&
               sel_to <= params_.d);

    int ell = ctx_.gadgetRgsw().ell();
    const u64 sel_lo =
        params_.d0 + static_cast<u64>(sel_from) * ell;
    const u64 sel_hi = params_.d0 + static_cast<u64>(sel_to) * ell;
    selectors.assign(static_cast<size_t>(params_.d), RgswCiphertext{});
    for (int t = sel_from; t < sel_to; ++t) {
        selectors[static_cast<size_t>(t)].ell = ell;
        selectors[static_cast<size_t>(t)].rows.resize(
            2 * static_cast<size_t>(ell));
    }
    // A gadget-row leaf is final the moment the last level produces it,
    // so its selector rows can be built inside the producing task —
    // disjoint (t, k) slots per leaf, same values buildSelectors would
    // compute from the finished leaves.
    auto maybeSelect = [&](u64 leaf_idx, const BfvCiphertext &leaf) {
        if (leaf_idx < sel_lo || leaf_idx >= sel_hi)
            return;
        u64 off = leaf_idx - params_.d0;
        selectorRows(selectors[off / ell],
                     static_cast<int>(off % ell), leaf);
    };

    // Level-order expansion with pruning: a node with path index idx at
    // level t covers coefficients congruent to idx mod 2^t; it is
    // needed iff idx < usedLeaves.
    struct Node
    {
        BfvCiphertext ct;
        u64 idx;
    };
    std::vector<Node> nodes;
    nodes.push_back({query.ct, 0});

    for (int t = 0; t < depth; ++t) {
        const bool last = t == depth - 1;
        // Children per node are independent; place them at offsets
        // computed up front so the parallel transform writes disjoint
        // slots and the result is identical at any thread count.
        std::vector<size_t> offset(nodes.size() + 1);
        offset[0] = 0;
        for (size_t i = 0; i < nodes.size(); ++i) {
            u64 odd_idx = nodes[i].idx + (u64{1} << t);
            offset[i + 1] = offset[i] + 1 + (odd_idx < used ? 1 : 0);
        }

        // Early levels have fewer nodes than lanes, so the wide path
        // runs them serially and each Subs parallelizes internally.
        std::vector<Node> next(offset.back());
        wideFor(nodes.size(), [&](u64 i) {
            Node &node = nodes[i];
            PolyWorkspace &ws = PolyWorkspace::local();
            CtLease rotated(ws, ctx_.ring());
            subsInto(ctx_, node.ct, keys_.evks[t], *rotated, ws);

            size_t slot = offset[i];
            u64 odd_idx = node.idx + (u64{1} << t);
            if (odd_idx < used) {
                // Odd branch: X^{-2^t} * (ct - Subs(ct, r)).
                BfvCiphertext odd = node.ct;
                subInPlace(ctx_, odd, *rotated);
                monomialMulInPlace(ctx_, odd, monomials_[t],
                                   monomialShoup_[t]);
                next[slot + 1] = {std::move(odd), odd_idx};
                if (last)
                    maybeSelect(odd_idx, next[slot + 1].ct);
            }
            // Even branch, in place: ct + Subs(ct, N/2^t + 1).
            addInPlace(ctx_, node.ct, *rotated);
            next[slot] = {std::move(node.ct), node.idx};
            if (last)
                maybeSelect(node.idx, next[slot].ct);
        });
        counters_.subsOps.add(nodes.size());
        nodes = std::move(next);
    }
    if (depth == 0) {
        // Degenerate single-leaf tree: nothing overlapped with.
        for (auto &node : nodes)
            maybeSelect(node.idx, node.ct);
    }
    counters_.externalProducts.add(static_cast<u64>(sel_to - sel_from) *
                                   ell);

    std::vector<BfvCiphertext> leaves(used);
    for (auto &node : nodes) {
        ive_assert(node.idx < used);
        leaves[node.idx] = std::move(node.ct);
    }
    return leaves;
}

std::vector<RgswCiphertext>
PirServer::buildSelectors(const std::vector<BfvCiphertext> &leaves) const
{
    StageMetrics &sm = stageMetrics();
    obs::StageSpan span(&sm.selectors, "selectors");
    const Gadget &g = ctx_.gadgetRgsw();
    int ell = g.ell();

    std::vector<RgswCiphertext> selectors(params_.d);
    for (RgswCiphertext &sel : selectors) {
        sel.ell = ell;
        sel.rows.resize(2 * ell);
    }
    // Each (dimension, gadget-row) pair is independent.
    const u64 rows = static_cast<u64>(params_.d) * ell;
    wideFor(rows, [&](u64 i) {
        selectorRows(selectors[i / ell], static_cast<int>(i % ell),
                     leaves[params_.d0 + i]);
    });
    counters_.externalProducts.add(rows);
    return selectors;
}

void
PirServer::selectorRows(RgswCiphertext &sel, int k,
                        const BfvCiphertext &leaf) const
{
    int ell = sel.ell;
    // b-side row: the leaf's phase is bit * z^k already.
    sel.rows[static_cast<size_t>(ell + k)] = leaf;
    // a-side row: needs phase bit * z^k * s; external product with
    // RGSW(s) multiplies the phase by s. The row is a persistent
    // output; only the product's scratch is pooled.
    BfvCiphertext &row = sel.rows[static_cast<size_t>(k)];
    row.a = RnsPoly(ctx_.ring(), Domain::Ntt);
    row.b = RnsPoly(ctx_.ring(), Domain::Ntt);
    externalProductInto(ctx_, keys_.rgswOfSecret, leaf, row,
                        PolyWorkspace::local());
}

std::vector<BfvCiphertext>
PirServer::rowSel(const std::vector<BfvCiphertext> &leaves,
                  int plane) const
{
    StageMetrics &sm = stageMetrics();
    obs::StageSpan span(&sm.rowsel, "rowsel");
    ive_assert(leaves.size() >= params_.d0);
    const u64 cols = localColumns();
    const u64 first = db_->firstEntry();
    const Ring &ring = ctx_.ring();
    const u64 n = ring.n;
    const int nk = ring.k();
    const u64 words = ring.words();
    const u64 d0 = params_.d0;

    // Column c's chain is the D0 products entry(c, i) o leaf_i, per side
    // and prime, run by kernels::macChain: fused primes (q < 2^32) sum
    // canonical products as raw u64 lanes and reduce every
    // lazyChainLimit(q) links — never, for the 27-bit IVE primes and
    // D0 <= 256; strict primes multiply-accumulate canonically. Integer
    // sums are exact, so however a chain is grouped, split or chunked
    // the output equals the unsplit chain bit for bit, at any thread
    // count.
    //
    // macRows runs rows [from, to) of columns [c0, c0 + nc), nc <= 2,
    // for one prime: onto the canonical planes out[2c + side], or, with
    // out == nullptr (a fused prime whose chain fits its limit: the
    // caller merges and reduces), as raw sums in `lazy` (2 * nc planes
    // of n words, per column a side then b).
    auto macRows = [&](int p, u64 c0, u64 nc, u64 from, u64 to, u64 *lazy,
                       u64 *const *out) {
        const u64 links = to - from;
        // Pointer scratch, per thread and reused across calls.
        thread_local std::vector<const u64 *> ptrs;
        ptrs.resize((nc + 2) * links);
        const u64 **db = ptrs.data();
        const u64 **la = db + nc * links;
        const u64 **lb = la + links;
        for (u64 i = 0; i < links; ++i) {
            for (u64 c = 0; c < nc; ++c)
                db[i * nc + c] =
                    db_->entry(first + (c0 + c) * d0 + from + i, plane)
                        .residues(p)
                        .data();
            la[i] = leaves[from + i].a.residues(p).data();
            lb[i] = leaves[from + i].b.residues(p).data();
        }
        kernels::macChain(out, {db, la, lb, links, nc}, n,
                          ring.base.modulus(p), lazy);
    };

    // When whole columns cannot fill the lanes (shard slices, small d),
    // split each column's chain into per-segment partials merged in
    // ascending order.
    u64 segs = 1;
    const u64 pool =
        static_cast<u64>(ThreadPool::global().size());
    if (!ThreadPool::onWorkerThread() && cols < pool) {
        u64 want = divCeil(2 * pool, cols);
        segs = want < d0 ? want : d0;
    }

    std::vector<BfvCiphertext> out(cols);
    if (segs <= 1) {
        // Two columns per task when that still leaves every lane a
        // task: each leaf load then feeds both columns. cols is a power
        // of two, so pairs never leave a tail.
        const u64 nc = cols >= 2 * pool ? 2 : 1;
        ive_assert(cols % nc == 0);
        parallelFor(0, cols / nc, [&](u64 t) {
            const u64 c0 = t * nc;
            WordLease lazy(PolyWorkspace::local(), 2 * nc * n);
            for (u64 c = c0; c < c0 + nc; ++c) {
                out[c].a = RnsPoly(ring, Domain::Ntt);
                out[c].b = RnsPoly(ring, Domain::Ntt);
            }
            for (int p = 0; p < nk; ++p) {
                u64 *planes[4];
                for (u64 c = 0; c < nc; ++c) {
                    planes[2 * c] = out[c0 + c].a.residues(p).data();
                    planes[2 * c + 1] = out[c0 + c].b.residues(p).data();
                }
                macRows(p, c0, nc, 0, d0, lazy.data(), planes);
            }
        });
        counters_.plainMulAccs.add(cols * d0);
        return out;
    }

    // Segmented path. Partials outlive the task that produced them (the
    // merge runs on a different thread), so they live in one block
    // leased by the coordinating thread. Slice (r, s) = task r*segs + s
    // holds 2*words words, prime-major, a side then b. A fused prime
    // whose whole chain fits its lazy limit keeps raw u64 partials,
    // merged raw and reduced once; any other prime keeps canonical
    // partials, summed mod q.
    PolyWorkspace &ws = PolyWorkspace::local();
    WordLease part(ws, cols * segs * 2 * words);
    auto rawPartials = [&](int p) {
        return d0 <= kernels::lazyChainLimit(ring.base.modulus(p).value());
    };

    // Phase A: each (column, segment) task accumulates its row range.
    // Segment boundaries depend only on (d0, segs) — deterministic and
    // balanced; segs <= d0 keeps every segment non-empty.
    parallelFor(0, cols * segs, [&](u64 task) {
        const u64 r = task / segs;
        const u64 s = task % segs;
        const u64 from = s * d0 / segs;
        const u64 to = (s + 1) * d0 / segs;
        WordLease lazy(PolyWorkspace::local(), 2 * n);
        for (int p = 0; p < nk; ++p) {
            u64 *planes = part.data() + task * 2 * words +
                          static_cast<u64>(p) * 2 * n;
            if (rawPartials(p)) {
                macRows(p, r, 1, from, to, planes, nullptr);
                continue;
            }
            std::fill(planes, planes + 2 * n, 0);
            u64 *const sides[2] = {planes, planes + n};
            macRows(p, r, 1, from, to, lazy.data(), sides);
        }
    });

    // Phase B: per column, merge segments in ascending order.
    // mergeLazyPartial audits the merged chain length in checked builds.
    parallelFor(0, cols, [&](u64 r) {
        BfvCiphertext acc;
        acc.a = RnsPoly(ring, Domain::Ntt);
        acc.b = RnsPoly(ring, Domain::Ntt);
        u64 *base = part.data() + r * segs * 2 * words;
        for (int p = 0; p < nk; ++p) {
            const Modulus &mod = ring.base.modulus(p);
            for (int side = 0; side < 2; ++side) {
                const u64 off = static_cast<u64>(p) * 2 * n +
                                static_cast<u64>(side) * n;
                u64 *dst = (side == 0 ? acc.a : acc.b).residues(p).data();
                u64 *total = base + off;
                if (rawPartials(p)) {
                    for (u64 s = 1; s < segs; ++s)
                        kernels::mergeLazyPartial(
                            total, base + s * 2 * words + off, n,
                            (s + 1) * d0 / segs, mod);
                    kernels::lazyReduceAdd(dst, total, n, mod);
                } else {
                    std::copy(total, total + n, dst);
                    for (u64 s = 1; s < segs; ++s)
                        kernels::addVec(dst, base + s * 2 * words + off,
                                        n, mod.value());
                }
            }
        }
        out[r] = std::move(acc);
    });
    counters_.plainMulAccs.add(cols * d0);
    return out;
}

void
PirServer::foldPairInPlace(BfvCiphertext &e0, const BfvCiphertext &e1,
                           const RgswCiphertext &sel) const
{
    // Z = X + bit * (Y - X): bit = 0 keeps the even entry. Computed as
    // e0 += sel (x) (e1 - e0), entirely in pooled scratch.
    PolyWorkspace &ws = PolyWorkspace::local();
    CtLease diff(ws, ctx_.ring());
    diff->a = e1.a;
    diff->b = e1.b;
    subInPlace(ctx_, *diff, e0);
    CtLease z(ws, ctx_.ring());
    externalProductInto(ctx_, sel, *diff, *z, ws);
    addInPlace(ctx_, e0, *z);
}

BfvCiphertext
PirServer::colTor(std::vector<BfvCiphertext> entries,
                  const std::vector<RgswCiphertext> &sel,
                  int sel_offset) const
{
    StageMetrics &sm = stageMetrics();
    obs::StageSpan span(&sm.fold, "fold");
    ive_assert(isPow2(entries.size()));
    int levels = log2Exact(entries.size());
    ive_assert(sel_offset >= 0 &&
               sel_offset + levels <= static_cast<int>(sel.size()));

    // In-place tournament, paper Fig. 7 (ColTorBFS): at depth t the
    // stride is s = 2^t and e[2sj] <- fold(e[2sj], e[2sj + s]). With a
    // selector offset this is the tail of the monolithic tournament:
    // entry j stands for column j * 2^sel_offset's running partial.
    for (int t = 0; t < levels; ++t) {
        u64 s = u64{1} << t;
        u64 num = u64{1} << (levels - t - 1);
        // Folds within one depth touch disjoint entry pairs. Late
        // depths have 1-2 pairs, so the wide path runs them serially
        // and the external products parallelize internally.
        wideFor(num, [&](u64 j) {
            foldPairInPlace(entries[2 * s * j],
                            entries[2 * s * j + s],
                            sel[sel_offset + t]);
        });
        counters_.externalProducts.add(num);
    }
    return entries[0];
}

BfvCiphertext
PirServer::colTorScheduled(std::vector<BfvCiphertext> entries,
                           const std::vector<RgswCiphertext> &sel,
                           const std::vector<TreeOp> &schedule) const
{
    StageMetrics &sm = stageMetrics();
    obs::StageSpan span(&sm.fold, "fold");
    ive_assert(entries.size() == (u64{1} << params_.d));
    ive_assert(validateReductionSchedule(params_.d, schedule));
    for (const auto &op : schedule) {
        u64 s = u64{1} << op.depth;
        u64 base = 2 * s * op.index;
        foldPairInPlace(entries[base], entries[base + s],
                        sel[op.depth]);
    }
    counters_.externalProducts.add(schedule.size());
    return entries[0];
}

std::vector<BfvCiphertext>
PirServer::processAllPlanes(const PirQuery &query) const
{
    std::vector<RgswCiphertext> selectors;
    std::vector<BfvCiphertext> leaves =
        expandAndSelect(query, 0, localLevels(), selectors);
    // Planes share the expansion but are otherwise independent. Every
    // shipped config has 1-2 planes — far fewer than lanes — so the
    // wide path matters: a plain parallelFor here would pin the whole
    // RowSel + fold below a single worker.
    std::vector<BfvCiphertext> out(params_.planes);
    wideFor(static_cast<u64>(params_.planes), [&](u64 plane) {
        std::vector<BfvCiphertext> entries =
            rowSel(leaves, static_cast<int>(plane));
        out[plane] = colTor(std::move(entries), selectors);
    });
    return out;
}

} // namespace ive
