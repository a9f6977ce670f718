#include "harness.h"

#include <fcntl.h>
#include <poll.h>
#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <thread>

#include "kernel/layer_scan.h"
#include "util/stringf.h"

extern char** environ;

namespace perfbench {

using crowdprice::Result;
using crowdprice::Status;
using crowdprice::StringF;

// --- Recorder ---------------------------------------------------------------

Summary Recorder::Summarize() const {
  Summary out;
  out.count = samples_.size();
  if (samples_.empty()) return out;
  std::vector<double> sorted = samples_;
  std::sort(sorted.begin(), sorted.end());
  const size_t n = sorted.size();
  const auto rank = [n](double q) {
    const auto r = static_cast<size_t>(std::ceil(q * static_cast<double>(n)));
    return std::max<size_t>(r, 1) - 1;
  };
  out.p50 = sorted[rank(0.50)];
  // The highest percentile <= 99 with >= 10 samples above it; with fewer
  // than 11 samples no percentile qualifies and the maximum stands in.
  size_t tail = n >= 11 ? std::min(rank(0.99), n - 11) : n - 1;
  out.tail = sorted[tail];
  out.tail_pct = 100.0 * static_cast<double>(tail + 1) / static_cast<double>(n);
  return out;
}

void Windowed::Add(double at_s, double value) {
  const auto i = static_cast<size_t>(std::max(0.0, at_s) / window_s_);
  const auto width = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(window_s_));
  const Clock::time_point begin = origin_ + width * static_cast<int64_t>(i);
  AddTo(i, value, begin, begin + width);
}

void Windowed::AddTo(size_t window, double value, Clock::time_point begin,
                     Clock::time_point end) {
  if (windows_.size() <= window) windows_.resize(window + 1);
  Stretch& span = windows_[window];
  if (span.samples.count() == 0) {
    span.begin = begin;
    span.end = end;
  }
  span.samples.Add(value);
}

void Windowed::Merge(const Windowed& other) {
  if (windows_.size() < other.windows_.size()) {
    windows_.resize(other.windows_.size());
  }
  for (size_t i = 0; i < other.windows_.size(); ++i) {
    if (windows_[i].samples.count() == 0) {
      windows_[i].begin = other.windows_[i].begin;
      windows_[i].end = other.windows_[i].end;
    }
    windows_[i].samples.Merge(other.windows_[i].samples);
  }
}

Recorder Windowed::Pooled() const {
  Recorder out;
  for (const Stretch& w : windows_) out.Merge(w.samples);
  return out;
}

size_t Windowed::count() const {
  size_t n = 0;
  for (const Stretch& w : windows_) n += w.samples.count();
  return n;
}

std::vector<size_t> Windowed::Counts(const StealMonitor* steal) const {
  std::vector<size_t> out;
  for (const Stretch* w : Chosen(steal)) out.push_back(w->samples.count());
  return out;
}

std::vector<const Windowed::Stretch*> Windowed::Chosen(
    const StealMonitor* steal) const {
  // Windows under 3/4 of the fullest one's samples (a trailing partial
  // window) are too small a sample to stand beside the others.
  size_t fullest = 0;
  for (const Stretch& w : windows_) fullest = std::max(fullest, w.samples.count());
  std::vector<const Stretch*> full;
  for (const Stretch& w : windows_) {
    if (w.samples.count() > 0 && 4 * w.samples.count() >= 3 * fullest) {
      full.push_back(&w);
    }
  }
  if (steal == nullptr || full.size() < 2) return full;
  // Every window the hypervisor left (nearly) alone, when at least a
  // quarter qualify; otherwise the least stolen quarter.
  constexpr double kCalm = 0.005;
  std::vector<std::pair<double, const Stretch*>> ranked;
  for (const Stretch* w : full) {
    ranked.emplace_back(steal->Share(w->begin, w->end), w);
  }
  std::stable_sort(ranked.begin(), ranked.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  const size_t quarter = (ranked.size() + 3) / 4;
  std::vector<const Stretch*> out;
  for (size_t i = 0; i < ranked.size(); ++i) {
    if (i < quarter || ranked[i].first <= kCalm) out.push_back(ranked[i].second);
  }
  return out;
}

Summary Windowed::MedianOfWindows(const StealMonitor* steal) const {
  std::vector<Summary> parts;
  for (const Stretch* w : Chosen(steal)) parts.push_back(w->samples.Summarize());
  Summary out;
  out.count = count();
  out.windows_used = parts.size();
  if (parts.empty()) return out;
  const auto median = [&parts](double Summary::*field) {
    std::vector<double> v;
    for (const Summary& s : parts) v.push_back(s.*field);
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
  };
  out.p50 = median(&Summary::p50);
  out.tail = median(&Summary::tail);
  out.tail_pct = median(&Summary::tail_pct);
  return out;
}

std::string Windowed::Describe(const StealMonitor* steal, bool tail) const {
  const Summary s = MedianOfWindows(steal);
  return StringF("n=%zu in %zu windows, median over the %zu least stolen of "
                 "per-window %s",
                 s.count, windows_.size(), s.windows_used,
                 tail ? StringF("p%.1f", s.tail_pct).c_str() : "p50");
}

// --- Tracer -----------------------------------------------------------------

Tracer::Buffer* Tracer::NewBuffer() {
  std::lock_guard<std::mutex> lock(mu_);
  buffers_.emplace_back();
  return &buffers_.back();
}

Recorder Tracer::DurationsUs(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  Recorder out;
  for (const Buffer& buffer : buffers_) {
    for (const Span& span : buffer) {
      if (name != span.name) continue;
      out.Add(static_cast<double>(span.end_ns - span.start_ns) / 1000.0 /
              static_cast<double>(std::max<uint32_t>(span.items, 1)));
    }
  }
  return out;
}

size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t n = 0;
  for (const Buffer& buffer : buffers_) n += buffer.size();
  return n;
}

Status Tracer::WriteJson(const std::string& path,
                         const std::string& header_json) const {
  std::lock_guard<std::mutex> lock(mu_);
  std::ofstream out(path);
  out << "{" << header_json << ", \"spans\": [\n";
  bool first = true;
  for (const Buffer& buffer : buffers_) {
    for (const Span& s : buffer) {
      out << (first ? "" : ",\n")
          << StringF(
                 "{\"name\": \"%s\", \"start_ns\": %lld, \"end_ns\": %lld, "
                 "\"id\": %llu, \"parent\": %llu, \"request\": %llu, "
                 "\"items\": %u}",
                 s.name, static_cast<long long>(s.start_ns),
                 static_cast<long long>(s.end_ns),
                 static_cast<unsigned long long>(s.id),
                 static_cast<unsigned long long>(s.parent),
                 static_cast<unsigned long long>(s.request), s.items);
      first = false;
    }
  }
  out << "\n]}\n";
  out.close();
  if (!out) return Status::Internal("failed to write span file " + path);
  return Status::OK();
}

ScopedSpan::ScopedSpan(Tracer* tracer, Tracer::Buffer* buffer,
                       const char* name, uint64_t request, uint64_t parent,
                       uint32_t items)
    : tracer_(tracer), buffer_(buffer) {
  if (tracer_ == nullptr) return;
  span_.name = name;
  span_.id = tracer_->NextId();
  span_.parent = parent;
  span_.request = request;
  span_.items = items;
  span_.start_ns = tracer_->NowNs();
}

ScopedSpan::~ScopedSpan() {
  if (tracer_ == nullptr) return;
  span_.end_ns = tracer_->NowNs();
  buffer_->push_back(span_);
}

// --- ChildProcess -----------------------------------------------------------

namespace {

constexpr int kPortTimeoutMs = 30000;
constexpr int kStopTimeoutMs = 15000;

/// Appends whatever `fd` yields within `timeout_ms`; false on EOF.
bool ReadSome(int fd, std::string* out, int timeout_ms) {
  pollfd pfd{fd, POLLIN, 0};
  const int ready = poll(&pfd, 1, timeout_ms);
  if (ready <= 0) return ready == 0 || errno == EINTR;
  char buf[4096];
  const ssize_t n = read(fd, buf, sizeof(buf));
  if (n > 0) {
    out->append(buf, static_cast<size_t>(n));
    return true;
  }
  return n < 0 && errno == EINTR;
}

}  // namespace

Result<std::unique_ptr<ChildProcess>> ChildProcess::Launch(
    const std::string& binary, const std::vector<std::string>& args) {
  int fds[2];
  if (pipe2(fds, O_CLOEXEC) != 0) {
    return Status::Internal(StringF("pipe: %s", std::strerror(errno)));
  }
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  std::vector<std::string> argv_storage;
  argv_storage.push_back(binary);
  argv_storage.insert(argv_storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : argv_storage) argv.push_back(a.data());
  argv.push_back(nullptr);
  pid_t pid = -1;
  const int rc = posix_spawn(&pid, binary.c_str(), &actions, nullptr,
                             argv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  close(fds[1]);
  if (rc != 0) {
    close(fds[0]);
    return Status::Internal(
        StringF("spawn %s: %s", binary.c_str(), std::strerror(rc)));
  }
  std::unique_ptr<ChildProcess> child(new ChildProcess(pid, fds[0]));
  const Status port = child->ReadPort();
  if (!port.ok()) return port;
  return child;
}

Status ChildProcess::ReadPort() {
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(kPortTimeoutMs);
  while (Clock::now() < deadline) {
    const size_t eol = output_.find('\n');
    if (eol != std::string::npos) {
      unsigned port = 0;
      if (std::sscanf(output_.c_str(), "PORT %u", &port) != 1 || port == 0 ||
          port > 65535) {
        return Status::Internal("child did not announce a port: " +
                                output_.substr(0, eol));
      }
      port_ = static_cast<uint16_t>(port);
      return Status::OK();
    }
    if (!ReadSome(out_fd_, &output_, 100)) {
      return Status::Internal("child exited before announcing its port");
    }
  }
  return Status::Internal("timed out waiting for the child's port");
}

Result<ChildProcess::Exit> ChildProcess::Stop() {
  if (pid_ <= 0) return Status::FailedPrecondition("child already stopped");
  Exit exit;
  // VmHWM, read while the child still runs. The rusage a reaped child
  // reports is no substitute: a spawned child's peak includes the
  // parent's resident set from before the exec.
  std::ifstream status(StringF("/proc/%d/status", static_cast<int>(pid_)));
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      exit.max_rss_kb = std::strtol(line.c_str() + 6, nullptr, 10);
    }
  }
  kill(pid_, SIGTERM);
  const Clock::time_point deadline =
      Clock::now() + std::chrono::milliseconds(kStopTimeoutMs);
  bool eof = false;
  while (!eof && Clock::now() < deadline) {
    eof = !ReadSome(out_fd_, &output_, 100);
  }
  if (!eof) kill(pid_, SIGKILL);
  int wstatus = 0;
  while (waitpid(pid_, &wstatus, 0) < 0 && errno == EINTR) {
  }
  pid_ = -1;
  close(out_fd_);
  out_fd_ = -1;
  exit.output = output_;
  exit.clean = eof && WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0;
  return exit;
}

ChildProcess::~ChildProcess() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    int wstatus = 0;
    while (waitpid(pid_, &wstatus, 0) < 0 && errno == EINTR) {
    }
  }
  if (out_fd_ >= 0) close(out_fd_);
}

long StatsField(const std::string& output, const std::string& key) {
  // The final stats line is the last one carrying the key.
  const std::string needle = key + "=";
  const size_t at = output.rfind(needle);
  if (at == std::string::npos) return -1;
  return std::strtol(output.c_str() + at + needle.size(), nullptr, 10);
}

// --- Fingerprint --------------------------------------------------------------

Fingerprint Fingerprint::Detect() {
  Fingerprint fp;
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const size_t colon = line.find(':');
      if (colon != std::string::npos) {
        fp.cpu_model = line.substr(line.find_first_not_of(' ', colon + 1));
      }
      break;
    }
  }
  if (fp.cpu_model.empty()) fp.cpu_model = "unknown";
  fp.nproc = static_cast<int>(std::thread::hardware_concurrency());
  auto kernel = crowdprice::kernel::KernelRegistry::Global().Resolve("");
  fp.kernel_backend = kernel.ok() ? (*kernel)->name() : "unresolved";
  fp.compiler = PERFBENCH_COMPILER;
  fp.build_type = PERFBENCH_BUILD_TYPE;
  return fp;
}

std::string Fingerprint::ToJson() const {
  return StringF(
      "{\"cpu_model\": %s, \"nproc\": %d, \"kernel_backend\": %s, "
      "\"compiler\": %s, \"build_type\": %s}",
      JsonString(cpu_model).c_str(), nproc, JsonString(kernel_backend).c_str(),
      JsonString(compiler).c_str(), JsonString(build_type).c_str());
}

CpuTimes CpuTimes::Read() {
  CpuTimes t;
  std::ifstream stat("/proc/stat");
  std::string label;
  stat >> label;
  if (label != "cpu") return t;
  // user nice system idle iowait irq softirq steal ...
  for (int field = 0; field < 8; ++field) {
    uint64_t value = 0;
    if (!(stat >> value)) return CpuTimes{};
    t.total += value;
    if (field == 7) t.steal = value;
  }
  return t;
}

StealMonitor::StealMonitor()
    : thread_([this] {
        while (!stop_.load()) {
          const Sample sample{Clock::now(), CpuTimes::Read()};
          {
            std::lock_guard<std::mutex> lock(mu_);
            samples_.push_back(sample);
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(20));
        }
      }) {}

StealMonitor::~StealMonitor() {
  stop_.store(true);
  thread_.join();
}

double StealMonitor::Share(Clock::time_point begin,
                           Clock::time_point end) const {
  std::lock_guard<std::mutex> lock(mu_);
  if (samples_.size() < 2) return 0.0;
  // The last sample at or before `begin`, the first at or after `end`.
  auto first = std::upper_bound(
      samples_.begin(), samples_.end(), begin,
      [](Clock::time_point t, const Sample& s) { return t < s.at; });
  if (first != samples_.begin()) --first;
  auto last = std::lower_bound(
      samples_.begin(), samples_.end(), end,
      [](const Sample& s, Clock::time_point t) { return s.at < t; });
  if (last == samples_.end()) --last;
  return last->cpu.StealSince(first->cpu);
}

std::string JsonString(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += StringF("\\u%04x", static_cast<unsigned>(c));
    } else {
      out += c;
    }
  }
  return out + "\"";
}

}  // namespace perfbench
