/**
 * @file
 * Shared pieces of the repository benchmark (ive_perfbench).
 *
 * The benchmark starts a net::PirTcpServer in-process over a seeded
 * database, drives it over loopback TCP from its own load generator
 * (loadgen.cc) and, in a traced run, times the public calls into each
 * library layer (layers.cc). main.cc strings the phases together and
 * prints the result.
 */

#ifndef IVE_PERFBENCH_BENCH_HH
#define IVE_PERFBENCH_BENCH_HH

#include <memory>
#include <string>
#include <vector>

#include "common/types.hh"
#include "pir/session.hh"

namespace perfbench {

using ive::u64;
using ive::u16;
using ive::u8;

/** Load-generator connections (one thread each) in every workload. */
constexpr int kConnections = 4;
/** Precomputed queries per client in every workload. */
constexpr int kQueriesPerClient = 8;
/** Set-ups per run; setup_s is their median. */
constexpr int kSetupReps = 3;

/**
 * One traffic mix. The shape is a fixed table in main.cc selected by
 * --workload; the latency limit, lateness bound and reconciliation
 * tolerance come from perfbench/workloads.json.
 */
struct Workload
{
    const char *name = "";
    u64 n = 1024;      ///< Ring degree.
    u64 d0 = 16;       ///< First database dimension.
    int d = 2;         ///< Binary folding dimensions.
    int clients = 1;   ///< Clients with keys.
    int depth = 0;     ///< Closed loop: queries in flight per connection.
    double rate = 0.0; ///< Open loop (> 0): Poisson arrivals per second.
    double zipf = 0.0; ///< Open loop: client popularity exponent.
    double sloMs = 0.0;        ///< Latency limit of slo_attainment.
    double lateBoundMs = 0.0;  ///< Open-loop sender lateness guard (p99).
    double reconcileTol = 0.0; ///< Stage-sum vs answer tolerance (share).

    /** Open loop; its clients outnumber the key budget, so registrations
     *  and evictions during the load phase are expected. */
    bool openLoop() const { return rate > 0.0; }
};

ive::PirParams paramsFor(const Workload &w);

double nowSec();
u64 nowNs();

/** q-quantile by linear interpolation; 0 for an empty sample. */
double quantile(std::vector<double> v, double q);
double mean(const std::vector<double> &v);

/** Deterministic database record: a pure function of (seed, entry). */
std::vector<u64> record(const ive::PirParams &p, u64 seed, u64 entry,
                        int plane);

/**
 * A client with keys and a precomputed query pool. Keygen and query
 * encryption happen before set-up and are not timed. The key blob is
 * copied out of the session per upload rather than kept twice.
 */
struct Client
{
    u64 id = 0;
    std::unique_ptr<ive::ClientSession> session;
    std::vector<u8> paramsBlob;
    std::vector<std::vector<u8>> queries; ///< Pool query blobs.
};

/** Expected records, [client][pool pick][plane] -> coefficients. */
using Expect = std::vector<std::vector<std::vector<std::vector<u64>>>>;

/**
 * In-memory spans (name, start, end, parent, request id). Each load
 * thread owns one Spans; they are merged when the run ends.
 */
struct Span
{
    std::string name;
    u64 startNs = 0;
    u64 endNs = 0;
    int parent = -1; ///< Index in the same Spans, or -1.
    u64 request = 0; ///< Spans of one request share it.
};

class Spans
{
  public:
    explicit Spans(bool on) : on_(on) {}
    bool on() const { return on_; }
    /** Opens a span and returns its index (-1 when tracing is off). */
    int begin(const char *name, int parent = -1, u64 request = 0);
    void end(int idx);
    /** Records an already-timed span. */
    void add(const char *name, u64 start_ns, u64 end_ns, int parent = -1,
             u64 request = 0);
    void append(const Spans &other);
    const std::vector<Span> &all() const { return spans_; }
    /** Mean duration (ms) of spans named `name`; 0 if none. */
    double meanMs(const std::string &name) const;
    /** Mean self time (ms): duration minus the part children cover. */
    double meanSelfMs(const std::string &name) const;
    /** Writes a Chrome trace-event JSON file. */
    bool write(const std::string &path) const;

  private:
    bool on_;
    std::vector<Span> spans_;
};

/** What one load phase saw, from the client side. */
struct LoadResult
{
    u64 attempted = 0;   ///< Timed queries (a retry is not a new one).
    u64 correct = 0;     ///< Decoded records equal to the generator's.
    u64 errorFrames = 0; ///< Typed error frames (shed included).
    u64 timeouts = 0;
    u64 lost = 0;        ///< Outstanding when a connection dropped.
    u64 wrong = 0;       ///< Undecodable or wrong decoded records.
    u64 firstTryHits = 0; ///< Queries whose session was live at once.
    u64 withinSlo = 0;   ///< Correct and under Workload::sloMs.
    double elapsedSec = 0.0; ///< End of warm-up to last completion.
    std::vector<double> latencyMs;  ///< Correct queries only.
    /** Parallel to latencyMs: start (send or due time), seconds after
     *  the warm-up. */
    std::vector<double> startSec;
    std::vector<double> rttMs;      ///< Send to response frame.
    std::vector<double> registerMs; ///< Load-phase registrations.
    std::vector<double> lateMs;     ///< Open-loop send lateness.
    Spans spans{false};

    u64 failed() const { return errorFrames + timeouts + lost + wrong; }
};

/**
 * Client ids by popularity rank (rank 0 hottest) for the open loop's
 * Zipf draw; seeded, and balanced over the connections.
 */
std::vector<int> popularity(const Workload &w, u64 seed);

/**
 * Runs the workload against the server on `port` for `warmup` +
 * `seconds`; only queries started after the warm-up are timed, so
 * neither the start from idle nor a previous phase's drain shows in
 * the result. `generation[i]` is client i's current registration
 * (updated on re-registration). `seed` drives arrival times, Zipf
 * draws over `by_rank` and pool picks.
 */
LoadResult runLoad(const Workload &w, u16 port, std::vector<Client> &clients,
                   std::vector<u64> &generation, const Expect &expect,
                   const std::vector<int> &by_rank, double warmup,
                   double seconds, u64 seed, bool trace);

/** Host and build fingerprint lines ("key: value"). */
std::vector<std::pair<std::string, std::string>>
fingerprint(const std::string &commit);

/** Peak resident set (VmHWM) of this process, MiB. */
double peakRssMib();

/** Host CPU time so far (all CPUs, clock ticks), and the part the
 *  hypervisor gave to other guests (steal). */
struct HostCpu
{
    u64 steal = 0;
    u64 total = 0;
};
HostCpu hostCpu();

/** One streaming read pass over a buffer far larger than the LLC,
 *  split across the pool's threads; GB/s (best of a few passes). */
double streamReadGbps();

/** Named per-layer values, in report order. */
using Metrics = std::vector<std::pair<std::string, double>>;

/**
 * In-process layer probes over a live engine: kernels, the four
 * stages, the wire/session path, registry registration and the
 * op-count model cross-check. Appends metrics and spans; returns an
 * empty string or a reason the run is invalid.
 */
std::string probeLayers(const Workload &w, const ive::HeContext &ctx,
                        const ive::PirParams &params,
                        const ive::Database &db, const Client &client,
                        Metrics &out, Spans &spans);

} // namespace perfbench

#endif // IVE_PERFBENCH_BENCH_HH
