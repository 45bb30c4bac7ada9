/**
 * @file
 * ive_perfbench: the repository benchmark over the TCP serving stack.
 *
 *   ive_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                 --slo-ms L --late-bound-ms B --reconcile-tol T
 *
 * perfbench/run.py builds this binary and passes the limits from
 * perfbench/workloads.json; the shapes are the kWorkloads table. One
 * run:
 *
 *   1. keygen + query pool for every client (untimed);
 *   2. set-up, kSetupReps times (setup_s is the median): seeded
 *      Database fill + NTT, PirTcpServer start with the default
 *      NetServerConfig on an ephemeral loopback port, every client's
 *      RegisterKeys over the wire;
 *   3. the load phase (loadgen.cc), after an untimed warm-up;
 *   4. --trace 1 only: the load phase is split into an untraced and a
 *      traced half (their p50 difference is the tracing overhead), the
 *      obs::Registry counters and histograms the server exports are
 *      read as deltas over the traced half, and the in-process layer
 *      probes run (layers.cc).
 *
 * The last stdout line is one JSON object {correct, attempted, failed,
 * metrics}; the lines before it print every metric by name and unit,
 * the host fingerprint, and the reason when a run is invalid.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <map>
#include <string>

#include "bench.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "obs/metrics.hh"

using namespace ive;
using namespace perfbench;

namespace {

/** Untimed lead-in of every load phase: workspace pools, caches and
 *  the registry's hot set settle, and the batching reaches its steady
 *  state before the first timed query. */
constexpr double kWarmupSec = 1.0;

/**
 * The workload shapes. No serving option is set per workload: every
 * one runs the default NetServerConfig. Churn's rate is an absolute
 * number fixed from the seed runs (see perfbench/workloads.json).
 */
const Workload kWorkloads[] = {
    // name, n, d0, d, clients, depth, rate (q/s), zipf
    {"db-scan", 4096, 128, 7, 4, 1, 0.0, 0.0},
    {"many-clients", 1024, 16, 2, 16, 4, 0.0, 0.0},
    {"churn", 1024, 16, 2, 128, 0, 55.0, 1.0},
};

struct Args
{
    Workload w;
    u64 seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string commit = "unknown";
    std::string traceOut;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "ive_perfbench: %s\nusage: ive_perfbench --workload NAME "
                 "--seed N --seconds S --trace 0|1 --slo-ms L "
                 "--late-bound-ms B --reconcile-tol T [--commit ID] "
                 "[--trace-out PATH]\n",
                 why);
    std::exit(2);
}

Args
parse(int argc, char **argv)
{
    Args a;
    std::map<std::string, std::string> kv;
    for (int i = 1; i < argc; ++i) {
        if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc)
            usage("malformed arguments");
        kv[argv[i] + 2] = argv[i + 1];
        ++i;
    }
    auto take = [&](const char *k) {
        auto it = kv.find(k);
        if (it == kv.end())
            usage((std::string("missing --") + k).c_str());
        std::string v = it->second;
        kv.erase(it);
        return v;
    };
    auto num = [&](const char *k) { return std::stod(take(k)); };
    const std::string name = take("workload");
    const Workload *shape = nullptr;
    for (const Workload &w : kWorkloads)
        if (name == w.name)
            shape = &w;
    if (!shape)
        usage(("unknown workload " + name).c_str());
    a.w = *shape;
    a.seed = std::stoull(take("seed"));
    a.seconds = num("seconds");
    a.trace = take("trace") == "1";
    a.w.sloMs = num("slo-ms");
    a.w.lateBoundMs = num("late-bound-ms");
    a.w.reconcileTol = num("reconcile-tol");
    if (kv.count("commit"))
        a.commit = take("commit");
    if (kv.count("trace-out"))
        a.traceOut = take("trace-out");
    if (!kv.empty())
        usage(("unknown flag --" + kv.begin()->first).c_str());
    if (a.seconds <= 0)
        usage("--seconds must be positive");
    return a;
}

/**
 * Other tenants of a shared host slow it in bursts of seconds, and in
 * a closed loop one burst lands on every query outstanding, so the
 * throughput and latency tail of a whole phase follow the bursts
 * rather than the program. They are therefore reported as medians over
 * kWindows equal windows of the timed phase (by query start), so a
 * burst moves at most the windows it covers. A phase with fewer than
 * kMinWindowSamples correct answers per window uses fewer windows, and
 * one that cannot fill two is reported whole.
 */
constexpr size_t kWindows = 5;
constexpr size_t kMinWindowSamples = 250;

struct EndToEnd
{
    double qps, p50, p90, p99;
    std::vector<double> windowQps, windowP99; ///< Empty for a whole phase.
};

EndToEnd
endToEnd(const LoadResult &r, double seconds)
{
    const size_t k = std::clamp<size_t>(
        r.latencyMs.size() / kMinWindowSamples, 1, kWindows);
    if (k == 1)
        return {double(r.correct) / r.elapsedSec,
                quantile(r.latencyMs, 0.50), quantile(r.latencyMs, 0.90),
                quantile(r.latencyMs, 0.99), {}, {}};
    std::vector<std::vector<double>> by_window(k);
    for (size_t i = 0; i < r.latencyMs.size(); ++i) {
        const size_t j = size_t(r.startSec[i] / seconds * double(k));
        by_window[std::min(j, k - 1)].push_back(r.latencyMs[i]);
    }
    std::vector<double> qps, p50, p90, p99;
    for (const std::vector<double> &v : by_window) {
        qps.push_back(double(v.size()) * double(k) / seconds);
        if (v.empty())
            continue; // a stalled window shows in qps
        p50.push_back(quantile(v, 0.50));
        p90.push_back(quantile(v, 0.90));
        p99.push_back(quantile(v, 0.99));
    }
    return {quantile(qps, 0.5), quantile(p50, 0.5), quantile(p90, 0.5),
            quantile(p99, 0.5), qps, p99};
}

/** One set-up: database, server, registered clients. Members are
 *  destroyed server first, then database, then context. */
struct Deployment
{
    std::unique_ptr<HeContext> ctx;
    std::unique_ptr<Database> db;
    std::unique_ptr<net::PirTcpServer> server;
    double setupSec = 0.0;
    double loadSec = 0.0; ///< Database fill + NTT.
};

std::unique_ptr<Deployment>
deploy(const PirParams &params, u64 seed, std::vector<Client> &clients,
       const std::vector<int> &by_rank, std::vector<u64> &generation,
       std::vector<double> &register_ms)
{
    auto dep = std::make_unique<Deployment>();
    const double t0 = nowSec();
    dep->ctx = std::make_unique<HeContext>(params.he);
    dep->db = std::make_unique<Database>(*dep->ctx, params);
    dep->db->fill([&](u64 entry, int plane) {
        return record(params, seed, entry, plane);
    });
    dep->loadSec = nowSec() - t0;
    dep->server = std::make_unique<net::PirTcpServer>(*dep->ctx, params,
                                                      dep->db.get());
    net::PirTcpClient link("127.0.0.1", dep->server->port(), 60.0);
    // Coldest first, so when the key budget cannot hold every client
    // the hottest ones are the sessions still registered.
    for (auto it = by_rank.rbegin(); it != by_rank.rend(); ++it) {
        const size_t i = size_t(*it);
        const double r0 = nowSec();
        generation[i] = link.registerKeys(clients[i].id, clients[i].paramsBlob,
                                          clients[i].session->keyBlob());
        register_ms.push_back((nowSec() - r0) * 1e3);
    }
    dep->setupSec = nowSec() - t0;
    return dep;
}

/** The server-exported series the traced run reads as deltas. */
struct ObsSnapshot
{
    std::map<std::string, u64> counters;
    std::map<std::string, obs::HistogramSnapshot> hists;
    net::RegistryStats registry;
};

const char *const kCounters[] = {
    obs::names::kPoolBusyNs,    obs::names::kPoolBatches,
    obs::names::kPoolInline,    obs::names::kQueriesShed,
    obs::names::kNetBytesIn,    obs::names::kNetBytesOut,
};
const char *const kHists[] = {
    obs::names::kStageExpand,          obs::names::kStageSelectors,
    obs::names::kStageRowsel,          obs::names::kStageFold,
    obs::names::kDispatchWindowWaitNs, obs::names::kDispatchBatchSize,
};

ObsSnapshot
snapshot(net::PirTcpServer &server)
{
    obs::Registry &r = obs::Registry::global();
    ObsSnapshot s;
    for (const char *c : kCounters)
        s.counters[c] = r.counter(c).value();
    for (const char *h : kHists)
        s.hists[h] = r.histogram(h).snapshot();
    s.registry = server.registry().stats();
    return s;
}

obs::HistogramSnapshot
delta(const ObsSnapshot &a, const ObsSnapshot &b, const char *name)
{
    obs::HistogramSnapshot d = b.hists.at(name);
    const obs::HistogramSnapshot &o = a.hists.at(name);
    d.count -= o.count;
    d.sum -= o.sum;
    for (size_t i = 0; i < d.buckets.size() && i < o.buckets.size(); ++i)
        d.buckets[i] -= o.buckets[i];
    return d;
}

struct Out
{
    std::string name;
    double value;
    const char *unit;
};

void
printMetrics(const std::vector<Out> &ms)
{
    for (const Out &m : ms)
        std::printf("  %-30s %14.6g %s\n", m.name.c_str(), m.value, m.unit);
}

/** Per-layer units by name prefix/suffix (see BENCHMARK.json). */
const char *
unitOf(const std::string &name)
{
    auto ends = [&](const char *s) {
        const size_t n = std::strlen(s);
        return name.size() >= n && name.compare(name.size() - n, n, s) == 0;
    };
    if (ends("_ms"))
        return "ms";
    if (ends("_us"))
        return "us";
    if (ends("_s"))
        return "s";
    if (ends("_gbps"))
        return "GB/s";
    if (ends("_mib"))
        return "MiB";
    if (ends("_bytes") || ends("bytes_per_query"))
        return "bytes";
    if (ends("_share") || ends("_ratio") || ends("_roofline") ||
        ends("_gap"))
        return "ratio";
    return "count";
}

int
run(const Args &a)
{
    const Workload &w = a.w;
    const PirParams params = paramsFor(w);

    std::printf("# ive_perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
                w.name, (unsigned long long)a.seed, a.seconds,
                int(a.trace));
    for (const auto &[k, v] : fingerprint(a.commit))
        std::printf("# host.%s: %s\n", k.c_str(), v.c_str());
    std::printf("# shape: n=%llu D0=%llu d=%d entries=%llu raw=%.0f MiB "
                "clients=%d connections=%d %s\n",
                (unsigned long long)w.n, (unsigned long long)w.d0, w.d,
                (unsigned long long)params.numEntries(),
                double(params.dbBytes()) / double(1 << 20), w.clients,
                kConnections,
                w.openLoop() ? ("open loop, " + std::to_string(w.rate) +
                                " q/s")
                                   .c_str()
                             : ("closed loop, depth " +
                                std::to_string(w.depth))
                                   .c_str());
    std::fflush(stdout);

    // 1. Clients: keys and query pools (not part of set-up).
    Rng pick(a.seed * 0x2545f4914f6cdd1dULL + 17);
    std::vector<Client> clients(size_t(w.clients));
    Expect expect(clients.size());
    for (size_t i = 0; i < clients.size(); ++i) {
        Client &c = clients[i];
        c.id = 1000 + i;
        c.session = std::make_unique<ClientSession>(
            params, a.seed * 1000003ULL + i + 1);
        c.paramsBlob = c.session->paramsBlob();
        for (int j = 0; j < kQueriesPerClient; ++j) {
            const u64 e = pick.uniform(params.numEntries());
            c.queries.push_back(c.session->queryBlob(e));
            std::vector<std::vector<u64>> rec;
            for (int p = 0; p < params.planes; ++p)
                rec.push_back(record(params, a.seed, e, p));
            expect[i].push_back(std::move(rec));
        }
    }

    // 2. Set-up, repeated; the last deployment serves the load.
    const std::vector<int> by_rank = popularity(w, a.seed);
    std::vector<u64> generation(clients.size(), 0);
    std::vector<double> setup_s, load_s, setup_register_ms;
    std::unique_ptr<Deployment> dep;
    for (int r = 0; r < kSetupReps; ++r) {
        dep.reset();
        dep = deploy(params, a.seed, clients, by_rank, generation,
                     setup_register_ms);
        setup_s.push_back(dep->setupSec);
        load_s.push_back(dep->loadSec);
    }
    net::PirTcpServer &server = *dep->server;

    LoadResult plain, traced;
    const double phase = a.trace ? a.seconds / 2 : a.seconds;
    const ObsSnapshot start = snapshot(server);
    const HostCpu cpu0 = hostCpu();
    plain = runLoad(w, server.port(), clients, generation, expect, by_rank,
                    kWarmupSec, phase, a.seed, false);
    const double rss = peakRssMib();
    const HostCpu cpu1 = hostCpu();
    std::printf("# host.steal_share: %.4f (CPU time taken by other guests "
                "during the untraced load phase)\n",
                cpu1.total > cpu0.total ? double(cpu1.steal - cpu0.steal) /
                                              double(cpu1.total - cpu0.total)
                                        : 0.0);
    ObsSnapshot before = snapshot(server), after = before;
    double traced_wall = 0.0;
    if (a.trace) {
        const double t0 = nowSec();
        traced = runLoad(w, server.port(), clients, generation, expect,
                         by_rank, kWarmupSec, phase, a.seed + 7, true);
        traced_wall = nowSec() - t0;
        after = snapshot(server);
    }
    const LoadResult &main_load = a.trace ? traced : plain;
    const double regs =
        double(after.registry.registered - start.registry.registered);
    const double evs = double(after.registry.evicted - start.registry.evicted);
    const double hits =
        main_load.attempted
            ? double(main_load.firstTryHits) / main_load.attempted
            : 0.0;

    std::vector<std::string> invalid;
    const u64 attempted = plain.attempted + traced.attempted;
    const u64 failed = plain.failed() + traced.failed();
    const double error_rate = attempted ? double(failed) / attempted : 1.0;
    std::vector<Out> metrics;

    if (!a.trace) {
        const EndToEnd e = endToEnd(plain, phase);
        const std::vector<double> &reg =
            w.openLoop() ? plain.registerMs : setup_register_ms;
        metrics = {
            {"qps", e.qps, "1/s"},
            {"latency_p50_ms", e.p50, "ms"},
            {"latency_p90_ms", e.p90, "ms"},
            {"latency_p99_ms", e.p99, "ms"},
            {"setup_s", quantile(setup_s, 0.5), "s"},
            {"peak_rss_mib", rss, "MiB"},
            {"register_p50_ms", quantile(reg, 0.5), "ms"},
            {"slo_attainment",
             plain.attempted ? double(plain.withinSlo) / plain.attempted : 0,
             "ratio"},
        };
        std::printf("# end-to-end (%llu latency samples, %zu registrations "
                    "timed, error_rate %.6f; whole phase: %.6g q/s, p50 "
                    "%.6g ms, p99 %.6g ms)\n",
                    (unsigned long long)plain.latencyMs.size(), reg.size(),
                    error_rate, double(plain.correct) / plain.elapsedSec,
                    quantile(plain.latencyMs, 0.50),
                    quantile(plain.latencyMs, 0.99));
        for (size_t i = 0; i < e.windowQps.size(); ++i)
            std::printf("# window %zu: %.6g q/s, p99 %.6g ms\n", i,
                        e.windowQps[i],
                        i < e.windowP99.size() ? e.windowP99[i] : 0.0);
    } else {
        Metrics layer;
        Spans spans(true);
        spans.append(traced.spans);
        const std::string why =
            probeLayers(w, *dep->ctx, params, *dep->db, clients.front(),
                        layer, spans);
        if (!why.empty())
            invalid.push_back(why);

        // Server-side deltas span the traced phase's warm-up too, so
        // they are normalised by the server's own answer count.
        const double pool = double(ThreadPool::global().size());
        auto dc = [&](const char *c) {
            return double(after.counters.at(c) - before.counters.at(c));
        };
        const obs::HistogramSnapshot wait =
            delta(before, after, obs::names::kDispatchWindowWaitNs);
        const obs::HistogramSnapshot batch =
            delta(before, after, obs::names::kDispatchBatchSize);
        double stage_ns = 0.0;
        for (const char *h :
             {obs::names::kStageExpand, obs::names::kStageSelectors,
              obs::names::kStageRowsel, obs::names::kStageFold})
            stage_ns += double(delta(before, after, h).sum);
        const double answered =
            double(delta(before, after, obs::names::kStageExpand).count);
        const double rtt = mean(traced.rttMs);
        const double wait_mean = wait.count ? wait.mean() / 1e6 : 0.0;
        const double stages_mean = answered ? stage_ns / answered / 1e6 : 0;
        auto get = [&](const char *name) {
            for (const auto &[k, v] : layer)
                if (k == name)
                    return v;
            return 0.0;
        };
        const double stream = streamReadGbps();
        // pir.expand_ms includes the fused selector assembly, as the
        // served path runs it; pir.selectors_ms is a standalone probe.
        const double stage_sum = get("pir.expand_ms") +
                                 get("pir.rowsel_ms") + get("pir.fold_ms");
        const double answer = get("session.answer_ms");
        const double gap = answer > 0 ? std::abs(stage_sum - answer) / answer
                                      : 1.0;
        if (gap > w.reconcileTol)
            invalid.push_back("stage self times sum to " +
                              std::to_string(stage_sum) + " ms against " +
                              std::to_string(answer) +
                              " ms session.answer_ms");

        layer.insert(layer.begin(),
                     {{"pool.busy_share",
                       dc(obs::names::kPoolBusyNs) /
                           (traced_wall * 1e9 * pool)},
                      {"pool.inline_share",
                       dc(obs::names::kPoolInline) /
                           std::max(1.0, dc(obs::names::kPoolInline) +
                                             dc(obs::names::kPoolBatches))}});
        layer.push_back({"pir.rowsel_roofline",
                         get("pir.rowsel_gbps") / stream});
        layer.push_back({"pir.reconcile_gap", gap});
        layer.push_back({"db.load_s", quantile(load_s, 0.5)});
        layer.push_back({"registry.hit_ratio", hits});
        layer.push_back({"registry.registrations",
                         double(after.registry.registered -
                                before.registry.registered)});
        layer.push_back({"registry.evictions",
                         double(after.registry.evicted -
                                before.registry.evicted)});
        layer.push_back({"dispatch.wait_p50_ms",
                         double(wait.percentile(0.50)) / 1e6});
        layer.push_back({"dispatch.wait_p99_ms",
                         double(wait.percentile(0.99)) / 1e6});
        layer.push_back({"dispatch.batch_size_mean", batch.mean()});
        layer.push_back({"dispatch.shed", dc(obs::names::kQueriesShed)});
        layer.push_back({"net.rtt_ms", rtt});
        layer.push_back({"net.unattributed_ms", rtt - wait_mean - stages_mean});
        layer.push_back({"net.bytes_per_query",
                         answered ? (dc(obs::names::kNetBytesIn) +
                                     dc(obs::names::kNetBytesOut)) /
                                        answered
                                  : 0.0});
        layer.push_back({"host.stream_read_gbps", stream});
        layer.push_back({"loadgen.late_p99_ms", quantile(traced.lateMs, 0.99)});
        layer.push_back({"trace.overhead_p50_ms",
                         quantile(traced.latencyMs, 0.5) -
                             quantile(plain.latencyMs, 0.5)});
        for (const auto &[k, v] : layer)
            metrics.push_back({k, v, unitOf(k)});

        if (!a.traceOut.empty() && !spans.write(a.traceOut))
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         a.traceOut.c_str());
        std::printf("# per-layer (traced half: %llu queries; stages from "
                    "in-process spans)\n",
                    (unsigned long long)traced.attempted);
    }

    // Guards that hold for every run.
    if (w.openLoop() &&
        quantile(main_load.lateMs, 0.99) > w.lateBoundMs)
        invalid.push_back("open-loop sender ran late: p99 " +
                          std::to_string(quantile(main_load.lateMs, 0.99)) +
                          " ms");
    if (w.openLoop() && (hits <= 0.0 || hits >= 1.0))
        invalid.push_back("churn hit ratio is " + std::to_string(hits));
    if (w.openLoop() && regs == 0)
        invalid.push_back("churn saw no registrations");
    if (!w.openLoop() && (regs > 0 || evs > 0))
        invalid.push_back("registrations or evictions during the load "
                          "phase of a closed-loop workload");

    printMetrics(metrics);
    std::printf("  %-30s %14.6g ratio (error frames %llu, timeouts %llu, "
                "lost %llu, wrong records %llu)\n",
                "error_rate", error_rate,
                (unsigned long long)(plain.errorFrames + traced.errorFrames),
                (unsigned long long)(plain.timeouts + traced.timeouts),
                (unsigned long long)(plain.lost + traced.lost),
                (unsigned long long)(plain.wrong + traced.wrong));
    for (const std::string &why : invalid)
        std::printf("# INVALID: %s\n", why.c_str());
    const bool correct = failed == 0 && plain.correct > 0 && invalid.empty();

    server.drain();
    server.stop();

    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted) +
            ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
    for (size_t i = 0; i < metrics.size(); ++i) {
        char buf[256];
        std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, "
                      "\"unit\": \"%s\"}",
                      i ? ", " : "", metrics[i].name.c_str(),
                      metrics[i].value, metrics[i].unit);
        json += buf;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parse(argc, argv);
    try {
        return run(a);
    } catch (const std::exception &e) {
        std::fflush(stdout);
        std::fprintf(stderr, "perfbench: run aborted: %s\n", e.what());
        return 1;
    }
}
