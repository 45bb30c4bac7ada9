/**
 * @file
 * Benchmark helpers: clocks, quantiles, the seeded record generator,
 * in-memory spans, the host fingerprint and the streaming-read probe.
 */

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <numeric>
#include <thread>

#include "bench.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "poly/simd/simd.hh"

namespace perfbench {

using namespace ive;

PirParams
paramsFor(const Workload &w)
{
    PirParams p = PirParams::functionalDefault();
    p.he.n = w.n;
    p.d0 = w.d0;
    p.d = w.d;
    p.validate();
    return p;
}

double
nowSec()
{
    return double(nowNs()) / 1e9;
}

u64
nowNs()
{
    return u64(std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
                   .count());
}

double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * double(v.size() - 1);
    const size_t lo = size_t(pos);
    const size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - double(lo));
}

double
mean(const std::vector<double> &v)
{
    return v.empty() ? 0.0
                     : std::accumulate(v.begin(), v.end(), 0.0) /
                           double(v.size());
}

std::vector<u64>
record(const PirParams &p, u64 seed, u64 entry, int plane)
{
    Rng rng(seed * 0xd1342543de82ef95ULL + entry * 0x9e3779b97f4a7c15ULL +
            u64(plane) * 0xbf58476d1ce4e5b9ULL);
    std::vector<u64> coeffs(p.he.n);
    for (u64 &c : coeffs)
        c = rng.uniform(p.he.plainModulus);
    return coeffs;
}

// --- spans ---------------------------------------------------------

int
Spans::begin(const char *name, int parent, u64 request)
{
    if (!on_)
        return -1;
    spans_.push_back({name, nowNs(), 0, parent, request});
    return int(spans_.size() - 1);
}

void
Spans::end(int idx)
{
    if (idx >= 0)
        spans_[size_t(idx)].endNs = nowNs();
}

void
Spans::add(const char *name, u64 start_ns, u64 end_ns, int parent,
           u64 request)
{
    if (on_)
        spans_.push_back({name, start_ns, end_ns, parent, request});
}

void
Spans::append(const Spans &other)
{
    const int base = int(spans_.size());
    for (Span s : other.spans_) {
        if (s.parent >= 0)
            s.parent += base;
        spans_.push_back(std::move(s));
    }
}

double
Spans::meanMs(const std::string &name) const
{
    double sum = 0.0;
    u64 count = 0;
    for (const Span &s : spans_)
        if (s.name == name) {
            sum += double(s.endNs - s.startNs);
            ++count;
        }
    return count ? sum / double(count) / 1e6 : 0.0;
}

double
Spans::meanSelfMs(const std::string &name) const
{
    std::vector<u64> child(spans_.size(), 0);
    for (const Span &s : spans_)
        if (s.parent >= 0)
            child[size_t(s.parent)] += s.endNs - s.startNs;
    double sum = 0.0;
    u64 count = 0;
    for (size_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].name == name) {
            const u64 dur = spans_[i].endNs - spans_[i].startNs;
            sum += double(dur - std::min(dur, child[i]));
            ++count;
        }
    return count ? sum / double(count) / 1e6 : 0.0;
}

bool
Spans::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                     "\"tid\": %llu, \"ts\": %.3f, \"dur\": %.3f, "
                     "\"args\": {\"id\": %zu, \"parent\": %d}}%s\n",
                     s.name.c_str(), (unsigned long long)(s.request >> 48),
                     double(s.startNs) / 1e3,
                     double(s.endNs - s.startNs) / 1e3, i, s.parent,
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fprintf(f, "]}\n");
    return std::fclose(f) == 0;
}

// --- host ------------------------------------------------------------

volatile u64 streamSink = 0;

std::vector<std::pair<std::string, std::string>>
fingerprint(const std::string &commit)
{
    std::string cpu = "unknown";
    std::ifstream info("/proc/cpuinfo");
    for (std::string line; std::getline(info, line);)
        if (line.rfind("model name", 0) == 0) {
            cpu = line.substr(line.find(':') + 2);
            break;
        }
    const std::string build = IVE_PB_BUILD_TYPE;
    return {
        {"cpu", cpu},
        {"nproc", std::to_string(std::thread::hardware_concurrency())},
        {"isa", simd::isaName(simd::active().isa)},
        {"compiler", IVE_PB_COMPILER},
        {"build_type", build == "Release" ? build
                                           : build + " (NOT Release: "
                                                     "numbers are not "
                                                     "comparable)"},
        {"commit", commit},
        {"pool_threads", std::to_string(ThreadPool::global().size())},
    };
}

double
peakRssMib()
{
    std::ifstream status("/proc/self/status");
    for (std::string line; std::getline(status, line);)
        if (line.rfind("VmHWM:", 0) == 0)
            return double(std::stoull(line.substr(6))) / 1024.0;
    return 0.0;
}

HostCpu
hostCpu()
{
    // /proc/stat "cpu" line: user nice system idle iowait irq softirq
    // steal ..., in clock ticks summed over every CPU.
    std::ifstream stat("/proc/stat");
    std::string label;
    stat >> label;
    HostCpu c;
    for (int field = 0; field < 8 && stat; ++field) {
        u64 v = 0;
        stat >> v;
        c.total += v;
        if (field == 7)
            c.steal = v;
    }
    return c;
}

double
streamReadGbps()
{
    // Far larger than any last-level cache, so a pass streams DRAM.
    long llc = ::sysconf(_SC_LEVEL3_CACHE_SIZE);
    u64 bytes = std::max<u64>(u64{512} << 20, 16 * u64(std::max(llc, 0L)));
    std::vector<u64> buf(bytes / 8);
    for (size_t i = 0; i < buf.size(); ++i)
        buf[i] = i;

    const u64 lanes = u64(ThreadPool::global().size());
    std::vector<u64> sums(lanes);
    double best = 0.0;
    for (int pass = 0; pass < 3; ++pass) {
        const u64 t0 = nowNs();
        parallelForChunked(0, lanes, 1, [&](u64 from, u64 to) {
            for (u64 l = from; l < to; ++l) {
                const u64 lo = buf.size() * l / lanes;
                const u64 hi = buf.size() * (l + 1) / lanes;
                u64 s0 = 0, s1 = 0, s2 = 0, s3 = 0;
                u64 i = lo;
                for (; i + 4 <= hi; i += 4) {
                    s0 += buf[i];
                    s1 += buf[i + 1];
                    s2 += buf[i + 2];
                    s3 += buf[i + 3];
                }
                for (; i < hi; ++i)
                    s0 += buf[i];
                sums[l] = s0 + s1 + s2 + s3;
            }
        });
        const double sec = double(nowNs() - t0) / 1e9;
        best = std::max(best, double(bytes) / sec / 1e9);
    }
    // Publishing the sums keeps the reads from being elided.
    streamSink = std::accumulate(sums.begin(), sums.end(), u64{0});
    return best;
}

} // namespace perfbench
