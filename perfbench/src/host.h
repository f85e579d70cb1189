// What the benchmark reads about the host it runs on: CPU steal and busy time
// (/proc/stat), process status (/proc/self/status), and a fixed probe of how
// fast the host runs instructions right now. None of it calls program code.

#ifndef PERFBENCH_SRC_HOST_H_
#define PERFBENCH_SRC_HOST_H_

#include <cstdint>
#include <string>
#include <vector>

#include "src/sweep/worker_pool.h"

namespace perfbench {

// Jiffies of one /proc/stat "cpu" line.
struct CpuTimes {
  int64_t busy = 0;  // user + nice + system + irq + softirq
  int64_t steal = 0;
  int64_t total = 0;
};

// /proc/stat: element 0 is the aggregate "cpu" line, then one per CPU.
std::vector<CpuTimes> ReadCpuTimes();

// Adds after - before, line by line, to `sum`.
void AddCpuDelta(const std::vector<CpuTimes>& before,
                 const std::vector<CpuTimes>& after, std::vector<CpuTimes>* sum);

// The share of the CPU time the measured work asked for that the hypervisor
// stole: each CPU's steal / (busy + steal), weighted by the square of its
// busy time — once for how likely the work's critical path ran there, once
// for how much of that CPU's busy time was the work's own. A nearly idle
// vCPU accrues steal mostly while waking for interrupts, which delays no
// query. `deltas` as summed by AddCpuDelta (element 0, the aggregate line,
// is ignored).
double WorkStealFraction(const std::vector<CpuTimes>& deltas);

// One timed query: its wall time scaled by the probe taken right before it,
// when it ended, and the /proc/stat deltas across it.
struct TimedQuery {
  double scaled_ms = 0.0;
  int64_t end_ns = 0;
  std::vector<CpuTimes> cpu;
};

// Each query's scaled time with the stolen share around it removed: the
// WorkStealFraction of the queries that ended within half a second of it
// (steal comes in bursts, so a run-wide share misplaces it). `queries` in
// the order they ran.
std::vector<double> StealFreeTimes(const std::vector<TimedQuery>& queries);

// A "Key:   value" field of /proc/self/status (kB for memory); -1 when absent.
int64_t ReadStatusField(const char* key);

// CPUs this process may run on.
int CpusAvailable();

// "tmpfs", "ext4", or the statfs magic in hex.
std::string FilesystemName(const std::string& path);

// Thread CPU milliseconds a fixed kernel takes, averaged over the threads a
// query runs on: this thread, then every lane of `pool` at once. Each vCPU
// of a shared host runs instructions at its own, drifting speed (one kernel
// varies by over 50% across vCPUs and seconds), so the probe runs where the
// query runs. CPU time excludes the time the hypervisor stole, which
// WorkStealFraction accounts for separately.
double HostProbeMs(longstore::WorkerPool& pool);

}  // namespace perfbench

#endif  // PERFBENCH_SRC_HOST_H_
