/**
 * @file
 * Reproduces Table IV: SimplePIR and the KsPIR-like scheme, CPU
 * (measured on this host, scaled to 32 cores) vs IVE (simulated), for
 * 2 GB and 4 GB databases.
 */

#include <chrono>
#include <cstdio>

#include "common/units.hh"
#include "pir/batch.hh"
#include "pir/simplepir.hh"
#include "sim/accelerator.hh"

using namespace ive;

namespace {

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

/** Measured SimplePIR answer throughput (bytes/sec) on this host. */
double
simplePirCpuBytesPerSec()
{
    SimplePirParams sp;
    sp.rows = 4096;
    sp.cols = 8192; // 32 MiB sample
    SimplePir pir(sp, 1);
    pir.fillRandom();
    std::vector<u32> qu(sp.cols);
    Rng rng(2);
    for (auto &v : qu)
        v = static_cast<u32>(rng.next());
    double t0 = now();
    int reps = 4;
    for (int i = 0; i < reps; ++i) {
        auto ans = pir.answer(qu);
        // Defeat optimization.
        if (ans[0] == 0xdeadbeef)
            std::printf("!");
    }
    double dt = (now() - t0) / reps;
    return static_cast<double>(sp.dbBytes()) / dt;
}

/** Measured KsPIR-like per-query seconds, extrapolated to db_bytes. */
double
ksPirCpuSeconds(u64 db_bytes)
{
    // Measure the full pipeline on a small instance with the same ring
    // and extrapolate the linear phases (as bench_fig12_throughput
    // does).
    KsPirParams meas;
    meas.base = PirParams::functionalDefault();
    meas.base.d0 = 64;
    meas.base.d = 3; // 512 entries
    HeContext ctx(meas.base.he);
    KsPir pir(ctx, meas, 3);
    pir.fillRandom(4);
    auto q = pir.makeQuery(7);
    double t0 = now();
    auto resp = pir.answer(q);
    (void)resp;
    double small_sec = now() - t0;

    // Phase-resolved extrapolation via the underlying server counters.
    KsPirParams target = KsPirParams::forDbSize(db_bytes);
    double entries_ratio =
        static_cast<double>(target.base.numEntries()) /
        static_cast<double>(meas.base.numEntries());
    // RowSel+ColTor dominate the small run's time; scale by entries.
    return small_sec * entries_ratio;
}

} // namespace

int
main()
{
    double sp_bps = simplePirCpuBytesPerSec();
    std::printf("SimplePIR CPU answer throughput (1 core): "
                "%.2f GB/s\n", sp_bps / 1e9);

    IveSimulator ive;
    std::printf("\n=== Table IV: other single-server schemes "
                "(QPS) ===\n");
    std::printf("%-12s %-6s %14s %14s %10s\n", "scheme", "DB",
                "CPU (32 cores)", "IVE (sim)", "speedup");

    for (u64 gb : {2, 4}) {
        u64 bytes = gb * GiB;
        double cpu_qps = sp_bps * 32.0 / static_cast<double>(bytes);
        auto r = ive.simulateSimplePir(bytes, 64);
        std::printf("%-12s %3lluGB %14.2f %14.1f %9.0fx\n", "SimplePIR",
                    (unsigned long long)gb, cpu_qps, r.qps,
                    r.qps / cpu_qps);
    }
    std::printf("(paper: CPU 6.2 / 2.9, IVE 11766 / 5883, 1904x / "
                "2063x)\n\n");

    for (u64 gb : {2, 4}) {
        u64 bytes = gb * GiB;
        double cpu_sec = ksPirCpuSeconds(bytes) / 32.0;
        double cpu_qps = 1.0 / cpu_sec;
        KsPirParams kp = KsPirParams::forDbSize(bytes);
        kp.base.he.logZKs = 22;
        kp.base.he.ellKs = 5;
        kp.base.he.logZRgsw = 22;
        kp.base.he.ellRgsw = 5;
        auto r = ive.simulateKsPir(kp, 64);
        std::printf("%-12s %3lluGB %14.2f %14.1f %9.0fx\n",
                    "KsPIR-like", (unsigned long long)gb, cpu_qps,
                    r.qps, r.qps / cpu_qps);
    }
    std::printf("(paper KsPIR: CPU 0.8 / 0.4, IVE 2555 / 1288, 3347x "
                "/ 3246x;\n our KsPIR-like scheme is a substitute "
                "construction -- see DESIGN.md)\n");
    return 0;
}
