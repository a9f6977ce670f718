// Plumbing shared by the benchmark's load generator: the latency
// recorder, the in-memory span log, child-process control for the
// crowdprice_serve / crowdprice_router binaries, and the host
// fingerprint stamped on every result.

#ifndef PERFBENCH_HARNESS_H_
#define PERFBENCH_HARNESS_H_

#include <sys/types.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "util/result.h"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}

// --- Latency recorder -------------------------------------------------------

/// A distribution summary. `tail` is the highest percentile at or below the
/// 99th that still has at least ten samples beyond it, and `tail_pct` says
/// which percentile that is; both are read from raw samples, so there is no
/// bucket quantization.
struct Summary {
  size_t count = 0;
  double p50 = 0.0;
  double tail = 0.0;
  double tail_pct = 0.0;
  size_t windows_used = 0;  ///< Windowed summaries only.
};

/// Raw-sample recorder: every sample is kept, sorted once when summarized.
class Recorder {
 public:
  void Add(double value) { samples_.push_back(value); }
  void Merge(const Recorder& other) {
    samples_.insert(samples_.end(), other.samples_.begin(),
                    other.samples_.end());
  }
  size_t count() const { return samples_.size(); }
  Summary Summarize() const;

 private:
  std::vector<double> samples_;
};

class StealMonitor;

/// Samples split into windows of a run: consecutive stretches of schedule,
/// or one window per set-up or per wave. Summaries are medians over
/// windows; with a StealMonitor, over the windows in which the hypervisor
/// stole under 0.5 % of the CPU, or the least stolen quarter when fewer
/// qualify. On a virtual machine a vCPU descheduled for milliseconds
/// stalls whatever runs on it: that is the host's doing, not the
/// server's, and it moves a median over calm windows far less than a
/// pooled percentile.
class Windowed {
 public:
  /// Time windows of `window_s` seconds counted from `origin`.
  explicit Windowed(double window_s = 1.0, Clock::time_point origin = Clock::now())
      : window_s_(window_s), origin_(origin) {}
  /// A sample `at_s` seconds after the origin.
  void Add(double at_s, double value);
  /// A sample in window `window`, which spans [begin, end].
  void AddTo(size_t window, double value, Clock::time_point begin,
             Clock::time_point end);
  /// Merges a same-origin copy (another thread's samples).
  void Merge(const Windowed& other);
  /// Appends `other`'s windows after this one's (a later segment).
  void Append(const Windowed& other) {
    windows_.insert(windows_.end(), other.windows_.begin(),
                    other.windows_.end());
  }
  Recorder Pooled() const;
  size_t count() const;
  /// Sample counts of the windows a summary would use.
  std::vector<size_t> Counts(const StealMonitor* steal) const;
  /// Window `i`, empty when no sample fell in it.
  Recorder Window(size_t i) const {
    return i < windows_.size() ? windows_[i].samples : Recorder();
  }
  /// p50 and tail are medians over the chosen windows of each window's p50
  /// and tail.
  Summary MedianOfWindows(const StealMonitor* steal) const;
  /// Sample count, windows used, and which percentile the tail is.
  std::string Describe(const StealMonitor* steal, bool tail) const;

 private:
  struct Stretch {
    Recorder samples;
    Clock::time_point begin;
    Clock::time_point end;
  };
  std::vector<const Stretch*> Chosen(const StealMonitor* steal) const;

  double window_s_;
  Clock::time_point origin_;
  std::vector<Stretch> windows_;
};

// --- Spans ------------------------------------------------------------------

/// One timed call into a layer. `items` counts the calls a span covers
/// when one span wraps a loop of identical calls (too short to time one
/// by one); `request` is shared by the spans of one request.
struct Span {
  const char* name = "";
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  uint64_t id = 0;
  uint64_t parent = 0;
  uint64_t request = 0;
  uint32_t items = 1;
};

/// In-memory span log. Each thread appends to its own buffer without
/// locking; buffers are read only after the threads writing them joined.
class Tracer {
 public:
  using Buffer = std::vector<Span>;

  Tracer() : epoch_(Clock::now()) {}
  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// A buffer owned by the tracer for one thread's exclusive use.
  Buffer* NewBuffer();
  uint64_t NextId() { return next_id_.fetch_add(1, std::memory_order_relaxed); }
  int64_t NowNs() const {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                                epoch_)
        .count();
  }

  /// Durations of every span named `name`, in microseconds, each divided
  /// by the span's `items`.
  Recorder DurationsUs(const std::string& name) const;
  size_t size() const;
  crowdprice::Status WriteJson(const std::string& path,
                               const std::string& header_json) const;

 private:
  const Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::deque<Buffer> buffers_;  // deque: buffer addresses stay stable
  std::atomic<uint64_t> next_id_{1};
};

/// Records one span on scope exit. A null tracer records nothing, which is
/// how untraced runs skip the bookkeeping.
class ScopedSpan {
 public:
  ScopedSpan(Tracer* tracer, Tracer::Buffer* buffer, const char* name,
             uint64_t request, uint64_t parent = 0, uint32_t items = 1);
  ~ScopedSpan();
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  uint64_t id() const { return span_.id; }

 private:
  Tracer* tracer_;
  Tracer::Buffer* buffer_;
  Span span_;
};

// --- Child processes --------------------------------------------------------

/// A crowdprice_serve / crowdprice_router child. Launch waits for the
/// `PORT <n>` line both binaries print first; Stop reads the child's peak
/// resident set, sends SIGTERM, collects the rest of stdout (the final
/// stats line) and reaps it. A child still running at destruction is
/// killed and reaped.
class ChildProcess {
 public:
  struct Exit {
    std::string output;
    long max_rss_kb = 0;  ///< VmHWM.
    bool clean = false;  ///< Exited with status 0.
  };

  static crowdprice::Result<std::unique_ptr<ChildProcess>> Launch(
      const std::string& binary, const std::vector<std::string>& args);
  ~ChildProcess();
  ChildProcess(const ChildProcess&) = delete;
  ChildProcess& operator=(const ChildProcess&) = delete;

  uint16_t port() const { return port_; }
  crowdprice::Result<Exit> Stop();

 private:
  ChildProcess(pid_t pid, int out_fd) : pid_(pid), out_fd_(out_fd) {}
  crowdprice::Status ReadPort();

  pid_t pid_;
  int out_fd_;
  uint16_t port_ = 0;
  std::string output_;
};

/// `key=<integer>` from a server's stats line; -1 when absent.
long StatsField(const std::string& output, const std::string& key);

// --- Host fingerprint -------------------------------------------------------

struct Fingerprint {
  std::string cpu_model;
  int nproc = 0;
  std::string kernel_backend;
  std::string compiler;
  std::string build_type;

  static Fingerprint Detect();
  std::string ToJson() const;
};

/// The host's CPU time counters (/proc/stat). On a virtual machine the
/// share of time stolen by the hypervisor slows every process at once;
/// results record it so a run on a contended host can be told apart.
struct CpuTimes {
  uint64_t steal = 0;
  uint64_t total = 0;

  static CpuTimes Read();
  /// Stolen share of all CPU time since `start`.
  double StealSince(const CpuTimes& start) const {
    return total > start.total ? static_cast<double>(steal - start.steal) /
                                     static_cast<double>(total - start.total)
                               : 0.0;
  }
};

/// Samples the host's steal counter every 20 ms on a background thread,
/// so a measurement window can be matched with what the hypervisor took.
class StealMonitor {
 public:
  StealMonitor();
  ~StealMonitor();
  StealMonitor(const StealMonitor&) = delete;
  StealMonitor& operator=(const StealMonitor&) = delete;

  /// Stolen share of CPU time between `begin` and `end`.
  double Share(Clock::time_point begin, Clock::time_point end) const;

 private:
  struct Sample {
    Clock::time_point at;
    CpuTimes cpu;
  };
  mutable std::mutex mu_;
  std::vector<Sample> samples_;
  std::atomic<bool> stop_{false};
  std::thread thread_;  // last: it reads the members above
};

std::string JsonString(const std::string& s);

}  // namespace perfbench

#endif  // PERFBENCH_HARNESS_H_
