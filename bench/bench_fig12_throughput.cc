/**
 * @file
 * Reproduces Fig. 12: PIR throughput (QPS), speedup and energy of
 * CPU (32 cores), RTX 4090 / H100 (single + batched) and IVE for
 * 2 / 4 / 8 GB synthesized databases.
 *
 * The CPU row is *measured*: the functional OnionPIR-style pipeline
 * runs on this host over a resident-size database, then the linear
 * phases are extrapolated to the target size and scaled by 32 cores
 * (queries and database rows are embarrassingly parallel;
 * pir/batch.hh's extrapolateCpu). GPU rows use the roofline model; IVE rows use the
 * cycle-level simulator.
 */

#include <cstdio>

#include "common/units.hh"
#include "model/roofline.hh"
#include "pir/batch.hh"
#include "sim/accelerator.hh"

using namespace ive;

int
main()
{
    // --- measure the CPU once on a small database ---
    PirParams meas = PirParams::functionalDefault();
    meas.d = 1; // 512 entries = 8 MiB raw, full ring (n = 4096)
    HeContext ctx(meas.he);
    PirClient client(ctx, meas, 1);
    Database db = Database::random(ctx, meas, 2);
    PirServer server(ctx, meas, &db, client.genPublicKeys());
    PirQuery q = client.makeQuery(3);
    CpuPhaseTimes cpu_small = measureCpuQuery(server, q);
    std::printf("CPU measurement (n=4096, %llu entries): expand %.2fs "
                "sel %.2fs rowsel %.3fs coltor %.3fs\n\n",
                (unsigned long long)meas.numEntries(),
                cpu_small.expandSec, cpu_small.selectorSec,
                cpu_small.rowselSec, cpu_small.coltorSec);

    IveSimulator ive;
    std::printf("=== Fig. 12: QPS / speedup over CPU / energy per "
                "query ===\n");
    std::printf("%-5s %-12s %10s %10s %12s\n", "DB", "system", "QPS",
                "speedup", "J/query");
    for (u64 gb : {2, 4, 8}) {
        PirParams target = PirParams::paperPerf(gb * GiB);

        // CPU(32): extrapolated measurement.
        PirParams target_func = PirParams::forDbSize(gb * GiB);
        CpuPhaseTimes cpu =
            extrapolateCpu(cpu_small, meas, target_func, 32.0);
        double cpu_qps = 1.0 / cpu.totalSec();
        // Host-measured joules would need RAPL; report a TDP-based
        // estimate (250 W package at measured runtime).
        double cpu_energy = cpu.totalSec() * 250.0;
        std::printf("%3lluGB %-12s %10.2f %10s %12.1f\n",
                    (unsigned long long)gb, "CPU (32)", cpu_qps, "1.0x",
                    cpu_energy);

        for (const GpuSpec &gpu :
             {GpuSpec::rtx4090(), GpuSpec::h100()}) {
            auto single = gpuEstimate(target, gpu, 1);
            if (single.feasible) {
                std::printf("%3lluGB %-12s %10.2f %9.1fx %12.2f\n",
                            (unsigned long long)gb,
                            (gpu.name + " (S)").c_str(), single.qps,
                            single.qps / cpu_qps,
                            single.energyPerQueryJ);
            } else {
                std::printf("%3lluGB %-12s %10s\n",
                            (unsigned long long)gb,
                            (gpu.name + " (S)").c_str(),
                            "does not fit");
            }
            auto batched = gpuEstimate(target, gpu, 0);
            if (batched.feasible) {
                std::printf("%3lluGB %-12s %10.2f %9.1fx %12.2f  "
                            "(batch %d)\n",
                            (unsigned long long)gb,
                            (gpu.name + " (B)").c_str(), batched.qps,
                            batched.qps / cpu_qps,
                            batched.energyPerQueryJ, batched.batch);
            }
        }

        auto r = ive.runDbSize(gb * GiB, 64);
        std::printf("%3lluGB %-12s %10.1f %9.1fx %12.4f\n",
                    (unsigned long long)gb, "IVE", r.qps,
                    r.qps / cpu_qps, r.energyPerQueryJ);
    }
    std::printf("\n(paper: IVE 4261 / 2350 / 1242 QPS; 687.6x gmean "
                "over 32-core CPU;\n up to 18.7x over the best batched "
                "GPU; 0.03 / 0.05 / 0.09 J/query)\n");
    return 0;
}
