#ifndef PERFBENCH_HARNESS_HOST_PROBE_H_
#define PERFBENCH_HARNESS_HOST_PROBE_H_

// Host speed probe. The benchmark host is shared: its speed for this kind
// of code drifts by a quarter or more over minutes, while the program's
// pass-to-pass speed within one host state is steady. The probe runs a fixed
// reference kernel in short slices alongside the measured work (between
// its steps on the same thread, or on a HostSampler thread while the
// measured work runs in other processes), and the timed metrics are
// converted from wall seconds into reference seconds: seconds on a host
// where one slice takes kReferenceSliceSeconds. The conversion corrects
// most of the drift, not all: on a host slowed to 0.6 of its quiet speed,
// reference-second rates have read up to about 10% below their quiet values.
//
// The kernel is a multinomial logistic-regression gradient over fixed sparse
// examples (400 features, 22 classes, like the pipeline's mean trained
// model), because training is ~98% of the batch workloads' time and a
// kernel of that shape tracks the host's slowdown of the pipeline far
// better than integer, streaming or pointer-chasing kernels did (see
// README.md, "Host speed"). The probe's code and data belong to the
// benchmark and never change with the program under test, so a change to
// the program moves the converted figures exactly as it moves wall time.

#include <cstdint>
#include <thread>

namespace perfbench {

/// Median seconds of one probe slice on the quiet reference host (4-vCPU
/// Intel Xeon at 2.1 GHz, GCC 12.2, Release).
inline constexpr double kReferenceSliceSeconds = 0.0020;

class HostProbe {
 public:
  /// Runs `slices` slices of the reference kernel and adds their time.
  void Run(int slices = 1);

  double seconds() const { return seconds_; }

  /// Reference seconds per wall second while this probe ran:
  /// kReferenceSliceSeconds x slices / seconds. Below 1 on a slowed host.
  double Scale() const;

 private:
  double seconds_ = 0;
  int64_t slices_ = 0;
};

/// Runs probe slices back to back on its own thread from construction
/// until Stop(), so the probe samples the host throughout while the
/// calling thread waits on other processes. It keeps one core busy; a
/// sampler that paused between slices (5-17% of a core) tracked the dist
/// workers' speed worse than the wall time it was meant to correct.
class HostSampler {
 public:
  HostSampler();
  ~HostSampler() { Stop(); }
  /// Stops and joins the thread; returns what it measured.
  const HostProbe& Stop();

 private:
  HostProbe probe_;
  std::jthread thread_;
};

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_HOST_PROBE_H_
