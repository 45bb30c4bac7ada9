/**
 * @file
 * In-process layer probes for the traced run.
 *
 * Every number here comes from a span the benchmark itself records
 * around a public library call, on the same shared Database the TCP
 * server serves: the ntt / poly / bfv kernels, the served pir pipeline
 * as separate calls (expandAndSelect, rowSel, colTor), standalone
 * selector assembly (buildSelectors), the wire + answer path the
 * server's query thunk runs, and an in-process SessionRegistry
 * registration. The op counters of one answer are
 * checked against the model (model/complexity.hh).
 */

#include <cmath>

#include "bench.hh"
#include "common/rng.hh"
#include "bfv/automorphism.hh"
#include "bfv/rgsw.hh"
#include "model/complexity.hh"
#include "net/registry.hh"
#include "poly/kernels.hh"
#include "poly/workspace.hh"

namespace perfbench {

using namespace ive;

namespace {

/** Repeats fn under one span per call until both limits are met. */
template <typename Fn>
void
repeat(Spans &spans, const char *name, int min_reps, double min_sec, Fn fn)
{
    const double until = nowSec() + min_sec;
    for (int i = 0; i < min_reps || nowSec() < until; ++i) {
        int s = spans.begin(name);
        fn(s);
        spans.end(s);
    }
}

/** Mean microseconds per call of fn over a fixed batch of calls. */
template <typename Fn>
double
perCallUs(Spans &spans, const char *name, int batch, Fn fn)
{
    fn(); // warm caches and workspace pools
    repeat(spans, name, 5, 0.2, [&](int) {
        for (int i = 0; i < batch; ++i)
            fn();
    });
    return spans.meanMs(name) * 1e3 / batch;
}

} // namespace

std::string
probeLayers(const Workload &w, const HeContext &ctx, const PirParams &params,
            const Database &db, const Client &client, Metrics &out,
            Spans &spans)
{
    const Ring &ring = ctx.ring();
    const u64 n = ring.n;
    const int nk = ring.k();

    // registry: key deserialize + NTT normalisation + install.
    const std::vector<u8> key_blob = client.session->keyBlob();
    net::SessionRegistry reg(ctx, params, &db);
    u64 gen = 0;
    repeat(spans, "registry.register", 3, 0.0, [&](int) {
        gen = reg.registerClient(client.id, client.paramsBlob,
                                 key_blob);
    });
    std::shared_ptr<const PirServer> engine = reg.lookup(client.id, gen);
    const std::vector<u8> &blob = client.queries.front();

    // Each round times the answer path the server's query thunk runs
    // (split at the wire boundaries) and then the same pipeline as
    // separate public calls: expandAndSelect (expansion with the
    // selectors assembled inside it, as processAllPlanes runs it),
    // rowSel and colTor per plane. Each stage is a child of one
    // "pir.stages" span so self times partition it. Interleaving the
    // two keeps a drifting host from skewing the reconciliation.
    std::vector<u8> resp;
    ServerCountersSnapshot ops;
    u64 staged = 0;
    const double probe_sec = w.n >= 4096 ? 4.0 : 2.0;
    repeat(spans, "pir.round", 3, probe_sec, [&](int round) {
        int parent = spans.begin("session.answer", round);
        int s = spans.begin("wire.deserialize_query", parent);
        PirQuery q = deserializeQuery(ctx, blob);
        spans.end(s);
        s = spans.begin("pir.answer", parent);
        PirResponse r{engine->processAllPlanes(q)};
        spans.end(s);
        s = spans.begin("wire.serialize_response", parent);
        resp = serializeResponse(ctx, r);
        spans.end(s);
        spans.end(parent);

        const ServerCountersSnapshot before = engine->counters().snapshot();
        parent = spans.begin("pir.stages", round);
        s = spans.begin("pir.expand", parent);
        std::vector<RgswCiphertext> sel;
        std::vector<BfvCiphertext> leaves =
            engine->expandAndSelect(q, 0, engine->localLevels(), sel);
        spans.end(s);
        for (int plane = 0; plane < params.planes; ++plane) {
            s = spans.begin("pir.rowsel", parent);
            std::vector<BfvCiphertext> col = engine->rowSel(leaves, plane);
            spans.end(s);
            s = spans.begin("pir.fold", parent);
            (void)engine->colTor(std::move(col), sel);
            spans.end(s);
        }
        spans.end(parent);
        const ServerCountersSnapshot after = engine->counters().snapshot();
        ops.subsOps += after.subsOps - before.subsOps;
        ops.externalProducts +=
            after.externalProducts - before.externalProducts;
        ops.plainMulAccs += after.plainMulAccs - before.plainMulAccs;
        ++staged;
    });

    // Exact per-query op counts against the model.
    const double subs = double(ops.subsOps) / staged;
    const double ext = double(ops.externalProducts) / staged;
    const double macs = double(ops.plainMulAccs) / staged;
    const StepComplexity cx = complexity(params);
    const double n_subs = double(expansionSubsCount(params));
    const double model_ext =
        (cx.expand.total() - n_subs * subsMults(params).total() +
         cx.coltor.total()) /
        externalProductMults(params).total();
    const double model_macs = cx.rowsel.gemm / (2.0 * subsMults(params).icrt);
    std::string invalid;
    if (subs != n_subs || ext != std::round(model_ext) ||
        macs != std::round(model_macs))
        invalid = "op counts disagree with the model: subs " +
                  std::to_string(subs) + "/" + std::to_string(n_subs) +
                  ", ext " + std::to_string(ext) + "/" +
                  std::to_string(model_ext) + ", macs " +
                  std::to_string(macs) + "/" + std::to_string(model_macs);

    // Kernels, on the workload's ring and the dispatched ISA.
    Rng rng(0x6b65726eULL);
    std::vector<u64> poly(n);
    for (u64 &c : poly)
        c = rng.uniform(ring.base.modulus(0).value());
    const int ntt_batch = int(std::max<u64>(1, (u64{1} << 22) / (n * 12)));
    const double fwd = perCallUs(spans, "ntt.fwd", ntt_batch,
                                 [&] { ring.ntt[0].forward(poly); });
    const double inv = perCallUs(spans, "ntt.inv", ntt_batch,
                                 [&] { ring.ntt[0].inverse(poly); });

    PirQuery q = deserializeQuery(ctx, blob);
    std::vector<BfvCiphertext> leaves = engine->expandQuery(q);
    PolyWorkspace &ws = PolyWorkspace::local();

    // Selector assembly alone: the unfused buildSelectors call. The
    // served path builds selectors inside expandAndSelect, so this is
    // a kernel probe and stays out of the reconciliation.
    const double selectors_ms =
        perCallUs(spans, "pir.selectors", 1,
                  [&] { (void)engine->buildSelectors(leaves); }) /
        1e3;

    // One RowSel chain: column 0's D0 entries against the D0 leaves,
    // one ciphertext half, every prime, then the deferred reduction.
    RnsPoly dst(ring, Domain::Ntt);
    const double mac = perCallUs(spans, "poly.mac_chain", 4, [&] {
        AccLease acc(ws, ring.words());
        for (int p = 0; p < nk; ++p)
            kernels::chainMacBegin(ring.base.modulus(p), n,
                                   dst.residues(p).data());
        for (u64 i = 0; i < params.d0; ++i) {
            const RnsPoly &e = db.entry(i, 0);
            for (int p = 0; p < nk; ++p)
                kernels::chainMacAcc(ring.base.modulus(p), n,
                                     acc.data() + u64(p) * n,
                                     dst.residues(p).data(),
                                     e.residues(p).data(),
                                     leaves[i].a.residues(p).data());
        }
        for (int p = 0; p < nk; ++p)
            kernels::chainMacFinish(ring.base.modulus(p), n,
                                    acc.data() + u64(p) * n,
                                    dst.residues(p).data(), false);
    });

    PirPublicKeys keys = deserializeCompatibleKeys(ctx, params, key_blob);
    const double subs_us = perCallUs(spans, "bfv.subs", 4, [&] {
        CtLease o(ws, ring);
        subsInto(ctx, q.ct, keys.evks[0], *o, ws);
    });
    RnsPoly coeff = leaves[0].a;
    coeff.fromNtt(ring);
    const int ell = ctx.gadgetRgsw().ell();
    const double dcp = perCallUs(spans, "bfv.decompose", 4, [&] {
        PolyVecLease digits(ws, ring, Domain::Coeff, size_t(ell));
        decomposePolyInto(ctx, ctx.gadgetRgsw(), coeff, *digits, ws);
    });
    const double xp = perCallUs(spans, "bfv.external_product", 4, [&] {
        CtLease o(ws, ring);
        externalProductInto(ctx, keys.rgswOfSecret, leaves[0], *o, ws);
    });

    // Bytes the database holds, at whatever residue width it stores.
    double resident = 0.0;
    for (int plane = 0; plane < params.planes; ++plane)
        for (u64 i = 0; i < db.numEntries(); ++i) {
            const RnsPoly &e = db.entry(db.firstEntry() + i, plane);
            for (int p = 0; p < nk; ++p)
                resident += double(e.residues(p).size_bytes());
        }
    const double rowsel_ms = spans.meanSelfMs("pir.rowsel");
    out.push_back({"ntt.fwd_us", fwd});
    out.push_back({"ntt.inv_us", inv});
    out.push_back({"poly.mac_chain_us", mac});
    out.push_back({"bfv.subs_us", subs_us});
    out.push_back({"bfv.decompose_us", dcp});
    out.push_back({"bfv.external_product_us", xp});
    out.push_back({"pir.expand_ms", spans.meanSelfMs("pir.expand")});
    out.push_back({"pir.selectors_ms", selectors_ms});
    out.push_back({"pir.rowsel_ms", rowsel_ms});
    out.push_back({"pir.fold_ms", spans.meanSelfMs("pir.fold")});
    out.push_back({"pir.rowsel_gbps", resident / (rowsel_ms / 1e3) / 1e9});
    out.push_back({"pir.subs_per_query", subs});
    out.push_back({"pir.ext_products_per_query", ext});
    out.push_back({"pir.plain_macs_per_query", macs});
    out.push_back({"pir.db_resident_mib", resident / double(1 << 20)});
    out.push_back({"wire.query_bytes", double(blob.size())});
    out.push_back({"wire.response_bytes", double(resp.size())});
    out.push_back({"wire.key_bytes", double(key_blob.size())});
    out.push_back({"wire.deserialize_query_us",
                   spans.meanMs("wire.deserialize_query") * 1e3});
    out.push_back({"wire.serialize_response_us",
                   spans.meanMs("wire.serialize_response") * 1e3});
    out.push_back({"session.answer_ms", spans.meanMs("session.answer")});
    out.push_back({"registry.register_ms", spans.meanMs("registry.register")});
    return invalid;
}

} // namespace perfbench
