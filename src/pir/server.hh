/**
 * @file
 * PIR server: ExpandQuery, RowSel, ColTor (paper Fig. 2).
 *
 * Server-side pipeline per query:
 *   1. ExpandQuery: the packed query ciphertext is obliviously expanded
 *      through a binary tree of Subs operations into D0 one-hot BFV
 *      ciphertexts plus d*l gadget-row ciphertexts.
 *   2. Selector assembly: for each subsequent dimension, an RGSW
 *      selector is built from the gadget-row leaves; the a-side rows
 *      come from external products with the client's RGSW(s) key
 *      (the Onion-ORAM [34] technique).
 *   3. RowSel: a GEMM between the preprocessed DB (D/D0 x D0 matrix of
 *      NTT-form polynomials) and the D0 expanded ciphertexts.
 *   4. ColTor: a binary tournament of external products halves the
 *      2^d candidates per dimension; error grows only additively.
 *
 * processAllPlanes() is the one pipeline entry point: RowSel over the
 * local database, then the localLevels() leading tournament levels,
 * for every plane. On a full database that is the answer. For sharded
 * serving (paper SV) the database may be a record-axis slice covering
 * a power-of-two, boundary-aligned run of the 2^d ColTor columns; the
 * same call then yields the slice's unfused partial, and the
 * coordinator finishes with colTor(partials, sel, sel_offset) using
 * the remaining selectors. Because every fold the single server would
 * perform happens once, on the same operands, in the same order, the
 * sharded result is byte-identical to the monolithic one. A server
 * built with db == nullptr is fold-only: it expands queries and folds
 * partials but cannot run RowSel.
 */

#ifndef IVE_PIR_SERVER_HH
#define IVE_PIR_SERVER_HH

#include "common/align.hh"
#include "obs/metrics.hh"
#include "pir/client.hh"
#include "pir/database.hh"
#include "pir/schedule.hh"

namespace ive {

/** Plain cumulative totals: a copyable view of ServerCounters that
 *  the shard coordinator sums across engines (shard/coordinator.hh). */
struct ServerCountersSnapshot
{
    u64 subsOps = 0;
    u64 externalProducts = 0;
    u64 plainMulAccs = 0;

    ServerCountersSnapshot &
    operator+=(const ServerCountersSnapshot &o)
    {
        subsOps += o.subsOps;
        externalProducts += o.externalProducts;
        plainMulAccs += o.plainMulAccs;
        return *this;
    }
};

/**
 * Mult/op tallies the server accumulates (validates model/complexity).
 * Each is an instance counter linked to its process series
 * (ive_server_ops_total{op=...}), so one add() updates both. Relaxed
 * atomics because independent queries / planes / RowSel columns run
 * concurrently on the thread pool; the totals stay exact. Counters are
 * cumulative over the server's lifetime: callers measure a window as
 * the difference of two snapshot()s, which may tear across fields
 * while queries are in flight.
 */
struct ServerCounters
{
    ServerCounters();

    obs::Counter subsOps;
    obs::Counter externalProducts;
    obs::Counter plainMulAccs;

    ServerCountersSnapshot
    snapshot() const
    {
        return {subsOps.value(), externalProducts.value(),
                plainMulAccs.value()};
    }
};

class PirServer
{
  public:
    /**
     * db may cover the full store, a column-aligned power-of-two slice
     * of it (shard serving), or be nullptr for a fold-only server that
     * never touches RowSel (the coordinator's finishing engine).
     */
    PirServer(const HeContext &ctx, const PirParams &params,
              const Database *db, PirPublicKeys keys);

    /**
     * Expands the query into usedLeaves() ciphertexts: [0, D0) are the
     * one-hot RowSel selectors, the rest are RGSW gadget rows. Branches
     * with no used leaves are pruned.
     */
    std::vector<BfvCiphertext> expandQuery(const PirQuery &query) const;

    /** Assembles all d RGSW selectors from the expanded leaves. */
    std::vector<RgswCiphertext>
    buildSelectors(const std::vector<BfvCiphertext> &leaves) const;

    /**
     * Expansion overlapped with selector assembly: identical leaves to
     * expandQuery(), and on return selectors holds the RGSW selectors
     * for tournament levels [sel_from, sel_to) (indexed [0, d), unbuilt
     * slots empty). A selector leaf is final as soon as the last
     * expansion level produces it, so each last-level node task builds
     * the selector rows for the leaves it owns inside the same parallel
     * batch, instead of a full barrier between expansion and assembly.
     * With [0, d) it is byte-identical to expandQuery() followed by
     * buildSelectors(leaves). Shards select just their localLevels()
     * and the coordinator just the final log2(num_shards), saving the
     * broadcast's duplicated external products.
     */
    std::vector<BfvCiphertext>
    expandAndSelect(const PirQuery &query, int sel_from, int sel_to,
                    std::vector<RgswCiphertext> &selectors) const;

    /**
     * RowSel over one plane: one accumulated ciphertext per local
     * database column (2^d for a full database, fewer for a slice).
     */
    std::vector<BfvCiphertext>
    rowSel(const std::vector<BfvCiphertext> &leaves, int plane = 0) const;

    /**
     * ColTor tournament in the default (BFS) order over a power-of-two
     * entry run, using sel[sel_offset + t] at depth t. sel_offset = 0
     * folds the leading log2(entries.size()) dimensions; the
     * coordinator's final fold over gathered shard partials passes
     * sel_offset = d - log2(num_shards).
     */
    BfvCiphertext colTor(std::vector<BfvCiphertext> entries,
                         const std::vector<RgswCiphertext> &sel,
                         int sel_offset = 0) const;

    /** ColTor executed in an arbitrary valid schedule order. */
    BfvCiphertext
    colTorScheduled(std::vector<BfvCiphertext> entries,
                    const std::vector<RgswCiphertext> &sel,
                    const std::vector<TreeOp> &schedule) const;

    /**
     * The pipeline for every plane, sharing one expansion: RowSel over
     * the local database plus the localLevels() leading tournament
     * levels. On a full database this is the complete answer; on a
     * shard slice it is the unfused partial the coordinator folds.
     */
    std::vector<BfvCiphertext> processAllPlanes(const PirQuery &query)
        const;

    /** ColTor columns the local database slice covers. */
    u64 localColumns() const;

    /** Tournament levels the local slice folds: log2(localColumns). */
    int localLevels() const;

    const ServerCounters &counters() const { return counters_; }

    const PirParams &params() const { return params_; }

  private:
    /**
     * One tournament step, in place: e0 <- e0 + sel (x) (e1 - e0).
     * The difference, digits and product all live in the calling
     * thread's PolyWorkspace, so a steady-state fold allocates nothing.
     */
    void foldPairInPlace(BfvCiphertext &e0, const BfvCiphertext &e1,
                         const RgswCiphertext &sel) const;

    /**
     * Builds both rows of selector slot (t, k) from its gadget-row
     * leaf: the b-row copies the leaf, the a-row is the external
     * product with RGSW(s). Shared by buildSelectors and the fused
     * last-expansion-level path.
     */
    void selectorRows(RgswCiphertext &sel, int k,
                      const BfvCiphertext &leaf) const;

    const HeContext &ctx_;
    PirParams params_;
    const Database *db_;
    PirPublicKeys keys_;
    std::vector<RnsPoly> monomials_; ///< NTT(X^{-2^t}) per tree level.
    /** x2^64 Shoup companions of monomials_, prime-major k*n words:
     *  the expansion's odd-branch multiplies skip Barrett entirely. */
    std::vector<AlignedU64Vec> monomialShoup_;
    mutable ServerCounters counters_;
};

} // namespace ive

#endif // IVE_PIR_SERVER_HH
