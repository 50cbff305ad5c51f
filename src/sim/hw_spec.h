/**
 * @file
 * Device specifications for the simulated heterogeneous hardware.
 *
 * These stand in for the paper's physical testbed (NVIDIA V100 / P100 /
 * Titan X, Intel Xeon E5-2699 v4, Xilinx VU9P). Parameters are taken from
 * public datasheets; see DESIGN.md section 2 for the substitution rationale.
 */
#ifndef FLEXTENSOR_SIM_HW_SPEC_H
#define FLEXTENSOR_SIM_HW_SPEC_H

#include <cstdint>
#include <string>

namespace ft {

/** CUDA-style GPU specification. */
struct GpuSpec
{
    std::string name;
    int sms;                    ///< streaming multiprocessors
    int maxThreadsPerSm;
    int maxThreadsPerBlock;
    int maxBlocksPerSm;
    int64_t sharedMemPerSm;     ///< bytes
    int64_t sharedMemPerBlock;  ///< bytes
    int64_t regsPerSm;          ///< 32-bit registers
    int regsPerThreadMax;
    int warpSize;
    double clockGhz;
    int fp32LanesPerSm;         ///< FMA lanes per SM
    double memBwGBs;            ///< DRAM bandwidth
    int64_t l2Bytes;
    double launchOverheadUs;

    /** Peak fp32 throughput in GFLOPS (2 flops per FMA lane per cycle). */
    double peakGflops() const
    {
        return sms * fp32LanesPerSm * 2.0 * clockGhz;
    }
};

/** Multicore CPU specification. */
struct CpuSpec
{
    std::string name;
    int cores;
    int vecLanes;          ///< fp32 SIMD lanes (8 for AVX2)
    int fmaPerCycle;       ///< fused multiply-adds issued per cycle per core
    double clockGhz;
    int64_t l1Bytes;       ///< per core
    int64_t l2Bytes;       ///< per core
    int64_t l3Bytes;       ///< shared
    double memBwGBs;
    double parallelOverheadUs; ///< fork/join cost of a parallel region

    /** Peak fp32 throughput in GFLOPS. */
    double peakGflops() const
    {
        return cores * vecLanes * fmaPerCycle * 2.0 * clockGhz;
    }
};

/** FPGA specification for the paper's three-stage pipeline model. */
struct FpgaSpec
{
    std::string name;
    int dsps;
    int dspsPerPe;         ///< DSP48 slices per fp32 MAC processing element
    int64_t bramBytes;     ///< usable on-chip buffer capacity
    double ddrBwGBs;       ///< aggregate off-chip bandwidth
    double baseBankBwGBs;  ///< on-chip read bandwidth of one memory bank
    double clockGhz;

    /** Maximum number of processing elements the DSP budget allows. */
    int maxPe() const { return dsps / dspsPerPe; }

    /** Peak throughput with every PE busy, in GFLOPS. */
    double peakGflops() const { return maxPe() * 2.0 * clockGhz; }
};

/** @name Device registry (paper testbed)
 *  @{ */
const GpuSpec &v100();
const GpuSpec &p100();
const GpuSpec &titanX();
const CpuSpec &xeonE5();
const FpgaSpec &vu9p();
/** @} */

/** Which kind of device a target names. */
enum class DeviceKind { Gpu, Cpu, Fpga };

/** A tuning target: one concrete device. */
struct Target
{
    DeviceKind kind;
    const GpuSpec *gpu = nullptr;
    const CpuSpec *cpu = nullptr;
    const FpgaSpec *fpga = nullptr;

    const std::string &deviceName() const;

    bool operator==(const Target &) const = default;

    static Target forGpu(const GpuSpec &spec);
    static Target forCpu(const CpuSpec &spec);
    static Target forFpga(const FpgaSpec &spec);
};

} // namespace ft

#endif // FLEXTENSOR_SIM_HW_SPEC_H
