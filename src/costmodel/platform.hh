/**
 * @file
 * Hardware platform descriptors (paper Section V).
 *
 * Two server-class CPUs bracket the datacenter heterogeneity study:
 * Intel Broadwell (28 cores @ 2.4 GHz, AVX-2, inclusive L2/L3, 120 W)
 * and Intel Skylake (40 cores @ 2.0 GHz, AVX-512, exclusive L2/L3,
 * 125 W). The GPU follows the NVIDIA GTX 1080Ti used by the paper.
 */

#ifndef DRS_COSTMODEL_PLATFORM_HH
#define DRS_COSTMODEL_PLATFORM_HH

#include <cstddef>
#include <string>

namespace deeprecsys {

/** Server-class CPU description driving the analytical cost model. */
struct CpuPlatform
{
    std::string name;
    size_t cores = 1;           ///< physical cores available for serving
    double freqGhz = 2.0;       ///< sustained clock
    size_t simdFloats = 8;      ///< fp32 lanes per SIMD unit
    bool inclusiveLlc = false;  ///< inclusive L2/L3 (Broadwell) or not
    double dramBwGBs = 60.0;    ///< aggregate DRAM bandwidth
    double tdpWatts = 120.0;    ///< thermal design power

    /**
     * Peak fp32 FLOP/s of one core: 2 FMA ports x 2 flops x lanes.
     */
    double
    peakCoreFlops() const
    {
        return freqGhz * 1e9 * 2.0 * 2.0 * static_cast<double>(simdFloats);
    }

    /** Intel Broadwell as configured in the paper. */
    static CpuPlatform broadwell();

    /** Intel Skylake as configured in the paper. */
    static CpuPlatform skylake();

    bool operator==(const CpuPlatform&) const = default;
};

/** Accelerator (GPU) description. */
struct GpuPlatform
{
    std::string name = "GTX-1080Ti";
    double peakFlops = 11.3e12; ///< fp32 peak
    double memBwGBs = 484.0;    ///< device memory bandwidth
    double pcieBwGBs = 6.0;     ///< effective host->device bandwidth
                                ///< (many small per-feature buffers)
    double pcieLatencyS = 200e-6;///< per-query transfer setup cost
    double kernelLaunchS = 120e-6;///< per-query kernel-launch train cost
    double idleWatts = 55.0;    ///< board power when idle
    double tdpWatts = 250.0;    ///< board power at full utilization

    static GpuPlatform gtx1080Ti() { return GpuPlatform{}; }

    bool operator==(const GpuPlatform&) const = default;
};

} // namespace deeprecsys

#endif // DRS_COSTMODEL_PLATFORM_HH
