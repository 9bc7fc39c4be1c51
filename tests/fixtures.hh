/**
 * @file
 * The fixtures many test files share: a Poisson trace on two seeds,
 * the DLRM-RMC1 machines with and without an accelerator, and the
 * FNV-1a digest the bitwise pins hash with. Header-only; each test
 * file gets its own copy.
 */

#ifndef DRS_TESTS_FIXTURES_HH
#define DRS_TESTS_FIXTURES_HH

#include <cstddef>
#include <cstdint>

#include "bench/bench_common.hh"
#include "loadgen/query_stream.hh"

namespace deeprecsys {
namespace {

/** @p count production-size queries arriving at @p qps, drawn on
 *  arrival seed @p seed and size seed @p seed + 1. */
inline QueryTrace
makeTrace(size_t count, double qps, uint64_t seed)
{
    LoadSpec load;
    load.qps = qps;
    load.arrivalSeed = seed;
    load.sizeSeed = seed + 1;
    return QueryStream(load).generate(count);
}

/** bench::cpuMachine(256), @p slowdown times slower. */
inline SimConfig
cpuMachine(double slowdown = 1.0)
{
    SimConfig machine = bench::cpuMachine(256);
    machine.slowdown = slowdown;
    return machine;
}

/** cpuMachine(@p slowdown) with a GTX 1080 Ti taking queries of
 *  @p threshold samples and up. */
inline SimConfig
gpuMachine(uint32_t threshold = 64, double slowdown = 1.0)
{
    SimConfig machine = cpuMachine(slowdown);
    machine.bindings[0].gpu = GpuCostModel(
        ModelProfile::forModel(ModelId::DlrmRmc1), GpuPlatform::gtx1080Ti());
    machine.bindings[0].policy.gpuEnabled = true;
    machine.bindings[0].policy.gpuQueryThreshold = threshold;
    return machine;
}

/** 64-bit FNV-1a, the digest the tests' bitwise pins are written in. */
class Fnv1a
{
  public:
    /** Mix @p n bytes at @p p, in memory order. */
    void
    bytes(const void* p, size_t n)
    {
        const auto* b = static_cast<const unsigned char*>(p);
        for (size_t i = 0; i < n; i++)
            byte(b[i]);
    }

    /** Mix the low @p width bytes of @p v, least significant first. */
    void
    word(uint64_t v, size_t width = sizeof(uint64_t))
    {
        for (size_t i = 0; i < width; i++)
            byte(static_cast<unsigned char>(v >> (8 * i)));
    }

    uint64_t value() const { return h; }

  private:
    void byte(unsigned char b) { h = (h ^ b) * 0x100000001b3ULL; }

    uint64_t h = 0xcbf29ce484222325ULL;
};

} // namespace
} // namespace deeprecsys

#endif // DRS_TESTS_FIXTURES_HH
