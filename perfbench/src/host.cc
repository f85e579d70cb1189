#include "perfbench/src/host.h"

#include <sched.h>
#include <sys/vfs.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <sstream>

namespace perfbench {
namespace {

// Probe steps per thread: about 1 ms on the reference host.
constexpr int kProbeSteps = 50000;
// StealFreeTimes' window: queries that ended within this of each other.
constexpr int64_t kStealWindowNs = 500000000;

// A fixed compute kernel owned by the benchmark, shaped like the simulator's
// inner loop: integer mixing and a libm call per step.
uint64_t ProbeKernel(uint64_t seed) {
  uint64_t x = seed | 1;
  double acc = 0.0;
  for (int i = 0; i < kProbeSteps; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += std::log1p(static_cast<double>(x >> 11) * 0x1.0p-53);
  }
  return x ^ static_cast<uint64_t>(acc);
}

int64_t ThreadCpuNanos() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return int64_t{ts.tv_sec} * 1000000000 + ts.tv_nsec;
}

}  // namespace

std::vector<CpuTimes> ReadCpuTimes() {
  std::ifstream in("/proc/stat");
  std::vector<CpuTimes> lines;
  std::string line;
  while (std::getline(in, line) && line.compare(0, 3, "cpu") == 0) {
    std::istringstream fields(line.substr(line.find(' ')));
    CpuTimes times;
    // user nice system idle iowait irq softirq steal (guest time is already
    // inside user/nice).
    for (int field = 0; field < 8; ++field) {
      int64_t value = 0;
      if (!(fields >> value)) {
        break;
      }
      times.total += value;
      if (field == 7) {
        times.steal = value;
      } else if (field != 3 && field != 4) {
        times.busy += value;
      }
    }
    lines.push_back(times);
  }
  return lines;
}

void AddCpuDelta(const std::vector<CpuTimes>& before,
                 const std::vector<CpuTimes>& after, std::vector<CpuTimes>* sum) {
  if (sum->size() < after.size()) {
    sum->resize(after.size());
  }
  for (size_t i = 0; i < after.size() && i < before.size(); ++i) {
    (*sum)[i].busy += after[i].busy - before[i].busy;
    (*sum)[i].steal += after[i].steal - before[i].steal;
    (*sum)[i].total += after[i].total - before[i].total;
  }
}

double WorkStealFraction(const std::vector<CpuTimes>& deltas) {
  double weighted = 0.0;
  double weight = 0.0;
  for (size_t i = 1; i < deltas.size(); ++i) {
    const double b = static_cast<double>(deltas[i].busy);
    const double stolen = static_cast<double>(deltas[i].steal);
    if (b > 0.0) {
      weighted += b * b * stolen / (b + stolen);
      weight += b * b;
    }
  }
  return weight > 0.0 ? weighted / weight : 0.0;
}

std::vector<double> StealFreeTimes(const std::vector<TimedQuery>& queries) {
  std::vector<CpuTimes> window;
  const auto add = [&window](const std::vector<CpuTimes>& delta, int64_t sign) {
    if (window.size() < delta.size()) {
      window.resize(delta.size());
    }
    for (size_t c = 0; c < delta.size(); ++c) {
      window[c].busy += sign * delta[c].busy;
      window[c].steal += sign * delta[c].steal;
      window[c].total += sign * delta[c].total;
    }
  };
  std::vector<double> times;
  size_t lo = 0;
  size_t hi = 0;
  for (const TimedQuery& query : queries) {
    for (; hi < queries.size() && queries[hi].end_ns <= query.end_ns + kStealWindowNs;
         ++hi) {
      add(queries[hi].cpu, 1);
    }
    for (; queries[lo].end_ns < query.end_ns - kStealWindowNs; ++lo) {
      add(queries[lo].cpu, -1);
    }
    times.push_back(query.scaled_ms * (1.0 - WorkStealFraction(window)));
  }
  return times;
}

int64_t ReadStatusField(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t key_len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, key_len, key) == 0 && line.size() > key_len &&
        line[key_len] == ':') {
      return std::strtoll(line.c_str() + key_len + 1, nullptr, 10);
    }
  }
  return -1;
}

int CpusAvailable() {
  cpu_set_t set;
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return CPU_COUNT(&set);
  }
  return static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
}

std::string FilesystemName(const std::string& path) {
  struct statfs fs;
  if (statfs(path.c_str(), &fs) != 0) {
    return "unknown";
  }
  const auto magic = static_cast<unsigned long>(fs.f_type);
  if (magic == 0x01021994UL) {
    return "tmpfs";
  }
  if (magic == 0xEF53UL) {
    return "ext4";
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "0x%lx", magic);
  return buf;
}

double HostProbeMs(longstore::WorkerPool& pool) {
  std::vector<int64_t> lane_ns(static_cast<size_t>(pool.size()) + 1, 0);
  std::vector<uint64_t> digest(lane_ns.size(), 0);
  const auto lane = [&lane_ns, &digest](int i) {
    const int64_t t0 = ThreadCpuNanos();
    digest[i] = ProbeKernel(static_cast<uint64_t>(i) + 1);
    lane_ns[i] = ThreadCpuNanos() - t0;
  };
  lane(0);
  pool.RunLanes(pool.size(), [&lane](int i) { lane(i + 1); });
  // Keep the kernel's results observable so they are not optimized away.
  static volatile uint64_t sink = 0;
  int64_t total_ns = 0;
  for (size_t i = 0; i < lane_ns.size(); ++i) {
    sink = sink ^ digest[i];
    total_ns += lane_ns[i];
  }
  return static_cast<double>(total_ns) / 1e6 / static_cast<double>(lane_ns.size());
}

}  // namespace perfbench
