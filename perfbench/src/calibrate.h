#pragma once
// calibrate.h — Machine-speed calibration for a shared host.
//
// The reference container shares its host, whose load drifts by tens of
// percent over minutes (see perfbench/README.md, "Bounds and noise").  The
// loop therefore runs a fixed kernel of the benchmark's own (no library
// code) every kCalibrationPeriodMs and reports end-to-end times scaled to
// the reference machine's speed: scaled = measured / slowdown, where
// slowdown = median(kernel ns) / kReferenceNs.  A change to the library
// cannot move the kernel, so the factor only removes how fast the machine
// ran during the run.

#include <cstdint>
#include <vector>

namespace perfbench {

/// The kernel's median duration on the reference container (4 vCPU, quiet).
constexpr double kReferenceNs = 1.0e6;
constexpr double kCalibrationPeriodMs = 200;

/// Runs the calibration kernel once; returns its duration in ns.
std::uint64_t calibrationChunkNs();

/// median(chunks) / kReferenceNs: > 1 when the machine ran slower than the
/// reference; 1 when no chunk was measured.
double slowdownFactor(const std::vector<double>& chunkNs);

}  // namespace perfbench
