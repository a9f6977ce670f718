#include "router/backend_pool.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <mutex>
#include <optional>
#include <string_view>
#include <thread>
#include <unordered_map>
#include <utility>

#include "util/hexfloat.h"
#include "util/macros.h"
#include "util/stringf.h"

namespace crowdprice::router {

namespace {

/// Deadline for one probe's dial + ping, in place of the client options'
/// (much longer) serving deadlines: a wedged backend costs the probe sweep
/// this long, not a serving timeout.
constexpr int kProbeTimeoutMs = 2000;

struct Endpoint {
  std::string host;
  uint16_t port = 0;
};

Result<Endpoint> ParseEndpoint(const std::string& name) {
  const size_t colon = name.rfind(':');
  if (colon == std::string::npos || colon == 0 || colon + 1 == name.size()) {
    return Status::InvalidArgument(
        StringF("backend '%s' is not host:port", name.c_str()));
  }
  Endpoint endpoint;
  endpoint.host = name.substr(0, colon);
  const Result<uint64_t> port =
      ParseInt<uint64_t>(std::string_view(name).substr(colon + 1), "port");
  if (!port.ok() || *port == 0 || *port > 65535) {
    return Status::InvalidArgument(
        StringF("backend '%s' has a bad port", name.c_str()));
  }
  endpoint.port = static_cast<uint16_t>(*port);
  return endpoint;
}

}  // namespace

/// One backend: its leased serving connection plus health state. Health
/// fields are atomics because the probe thread, serving calls, and
/// Health() readers touch them concurrently; the connection itself is
/// serialized by `lease_mu`.
struct Backend {
  std::string name;
  std::string host;
  uint16_t port = 0;

  std::mutex lease_mu;
  std::optional<net::PricingClient> client;  ///< Dialed lazily under lease_mu.

  std::atomic<bool> up{true};
  std::atomic<uint64_t> consecutive_failures{0};
  std::atomic<uint64_t> failovers{0};

  void NoteSuccess() {
    consecutive_failures.store(0, std::memory_order_relaxed);
    up.store(true, std::memory_order_release);
  }

  void NoteFailure(int down_after) {
    const uint64_t failures =
        consecutive_failures.fetch_add(1, std::memory_order_relaxed) + 1;
    if (failures >= static_cast<uint64_t>(down_after)) {
      up.store(false, std::memory_order_release);
    }
  }
};

struct BackendPool::Impl {
  BackendPoolOptions options;

  mutable std::mutex map_mu;  ///< Guards the map, not the backends in it.
  std::unordered_map<std::string, std::shared_ptr<Backend>> backends;

  std::thread probe_thread;
  std::mutex probe_mu;
  std::condition_variable probe_cv;
  bool stop_probe = false;

  ~Impl() { StopProbe(); }

  std::shared_ptr<Backend> Find(const std::string& name) const {
    std::lock_guard<std::mutex> lock(map_mu);
    const auto it = backends.find(name);
    return it == backends.end() ? nullptr : it->second;
  }

  std::vector<std::shared_ptr<Backend>> SnapshotBackends() const {
    std::vector<std::shared_ptr<Backend>> out;
    std::lock_guard<std::mutex> lock(map_mu);
    out.reserve(backends.size());
    for (const auto& [name, backend] : backends) out.push_back(backend);
    return out;
  }

  Status Add(const std::string& endpoint) {
    CP_ASSIGN_OR_RETURN(const Endpoint parsed, ParseEndpoint(endpoint));
    auto backend = std::make_shared<Backend>();
    backend->name = endpoint;
    backend->host = parsed.host;
    backend->port = parsed.port;
    std::lock_guard<std::mutex> lock(map_mu);
    if (!backends.emplace(endpoint, std::move(backend)).second) {
      return Status::FailedPrecondition(
          StringF("backend '%s' is already pooled", endpoint.c_str()));
    }
    return Status::OK();
  }

  /// Dials (or redials) the backend's leased connection. Caller holds
  /// lease_mu.
  Status EnsureConnected(Backend& backend) {
    if (backend.client.has_value() && backend.client->connected()) {
      return Status::OK();
    }
    if (backend.client.has_value()) return backend.client->Reconnect();
    CP_ASSIGN_OR_RETURN(
        net::PricingClient client,
        net::PricingClient::Connect(backend.host, backend.port,
                                    options.client));
    backend.client.emplace(std::move(client));
    return Status::OK();
  }

  /// The backend `name` names, or why no call may reach it: NotFound when
  /// it is not pooled, Unavailable when it is marked down.
  Result<std::shared_ptr<Backend>> Reachable(const std::string& name) const {
    std::shared_ptr<Backend> backend = Find(name);
    if (backend == nullptr) {
      return Status::NotFound(
          StringF("backend '%s' is not in the pool", name.c_str()));
    }
    if (!backend->up.load(std::memory_order_acquire)) {
      return Status::Unavailable(
          StringF("backend '%s' is marked down", name.c_str()));
    }
    return backend;
  }

  /// One attempt of `fn` under the lease the caller holds: dials first
  /// when needed. A transport failure leaves the connection unusable, so
  /// it is closed and the next attempt redials instead of writing into a
  /// dead socket.
  Status Attempt(Backend& backend,
                 const std::function<Status(net::PricingClient&)>& fn) {
    Status status = EnsureConnected(backend);
    if (status.ok()) {
      status = fn(*backend.client);
      if (status.IsUnavailable()) backend.client->Close();
    }
    return status;
  }

  /// WithClient's attempt loop from attempt `first` on; `last` is the
  /// outcome of the attempt before it (OK when `first` is 0). The first
  /// outcome that is not Unavailable is final and healthy; running out of
  /// attempts counts one failure against the backend.
  Status Retry(Backend& backend,
               const std::function<Status(net::PricingClient&)>& fn,
               int first, Status last) {
    int backoff_ms = options.backoff_initial_ms;
    for (int attempt = first; attempt < options.max_attempts; ++attempt) {
      if (attempt > 0 && backoff_ms > 0) {
        std::this_thread::sleep_for(std::chrono::milliseconds(backoff_ms));
        backoff_ms = std::min(backoff_ms * 2, options.backoff_max_ms);
      }
      {
        std::lock_guard<std::mutex> lease(backend.lease_mu);
        last = Attempt(backend, fn);
      }
      if (!last.IsUnavailable()) {
        backend.NoteSuccess();
        return last;
      }
    }
    backend.NoteFailure(options.down_after_failures);
    backend.failovers.fetch_add(1, std::memory_order_relaxed);
    return last;
  }

  Status WithClient(const std::string& name,
                    const std::function<Status(net::PricingClient&)>& fn) {
    CP_ASSIGN_OR_RETURN(const std::shared_ptr<Backend> backend,
                        Reachable(name));
    return Retry(*backend, fn, 0, Status::OK());
  }

  void ScatterDecideLines(std::vector<DecideSlice>& slices) {
    // A slice's first attempt: its backend (null when unreachable), its
    // lease while the answer is outstanding, and the attempt's outcome.
    struct Leg {
      std::shared_ptr<Backend> backend;
      std::unique_lock<std::mutex> lease;
      Status status;
    };
    std::vector<Leg> legs(slices.size());
    std::vector<size_t> order(slices.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::sort(order.begin(), order.end(), [&](size_t a, size_t b) {
      return slices[a].backend < slices[b].backend;
    });
    // Leases in name order; every slice is on the wire before any answer
    // is awaited.
    for (const size_t i : order) {
      Result<std::shared_ptr<Backend>> backend = Reachable(slices[i].backend);
      if (!backend.ok()) {
        slices[i].response_lines = backend.status();
        continue;
      }
      Leg& leg = legs[i];
      leg.backend = std::move(backend).value();
      leg.lease = std::unique_lock<std::mutex>(leg.backend->lease_mu);
      leg.status = Attempt(*leg.backend, [&](net::PricingClient& client) {
        return client.SendDecideBatchLines(slices[i].request_lines);
      });
      if (!leg.status.ok()) leg.lease.unlock();
    }
    for (const size_t i : order) {
      Leg& leg = legs[i];
      if (!leg.lease.owns_lock()) continue;
      slices[i].response_lines = leg.backend->client->ReceiveDecideBatchLines(
          slices[i].request_lines.size());
      leg.status = slices[i].response_lines.status();
      if (leg.status.IsUnavailable()) leg.backend->client->Close();
      leg.lease.unlock();
    }
    // Settle each slice as WithClient would have after that first attempt.
    for (size_t i = 0; i < slices.size(); ++i) {
      Leg& leg = legs[i];
      if (leg.backend == nullptr) continue;
      if (!leg.status.IsUnavailable()) {
        if (!leg.status.ok()) slices[i].response_lines = leg.status;
        leg.backend->NoteSuccess();
        continue;
      }
      DecideSlice& slice = slices[i];
      const Status retried = Retry(
          *leg.backend,
          [&](net::PricingClient& client) {
            slice.response_lines = client.DecideBatchLines(slice.request_lines);
            return slice.response_lines.status();
          },
          1, leg.status);
      if (!retried.ok()) slice.response_lines = retried;
    }
  }

  void ProbeNow() {
    net::ClientOptions probe_options = options.client;
    probe_options.connect_timeout_ms = kProbeTimeoutMs;
    probe_options.io_timeout_ms = kProbeTimeoutMs;
    for (const std::shared_ptr<Backend>& backend : SnapshotBackends()) {
      // A fresh connection per probe: a serving call mid-flight on the
      // leased connection never delays (or fails) the health verdict.
      auto client = net::PricingClient::Connect(backend->host, backend->port,
                                                probe_options);
      const Status status = client.ok() ? client->Ping() : client.status();
      if (status.ok()) {
        backend->NoteSuccess();
      } else {
        backend->NoteFailure(options.down_after_failures);
      }
    }
  }

  void StartProbe() {
    if (options.probe_interval_ms <= 0) return;
    probe_thread = std::thread([this] {
      std::unique_lock<std::mutex> lock(probe_mu);
      while (!stop_probe) {
        probe_cv.wait_for(
            lock, std::chrono::milliseconds(options.probe_interval_ms),
            [this] { return stop_probe; });
        if (stop_probe) return;
        lock.unlock();
        ProbeNow();
        lock.lock();
      }
    });
  }

  void StopProbe() {
    {
      std::lock_guard<std::mutex> lock(probe_mu);
      if (stop_probe) return;
      stop_probe = true;
    }
    probe_cv.notify_all();
    if (probe_thread.joinable()) probe_thread.join();
  }
};

BackendPool::BackendPool(std::unique_ptr<Impl> impl)
    : impl_(std::move(impl)) {}
BackendPool::~BackendPool() = default;
BackendPool::BackendPool(BackendPool&&) noexcept = default;
BackendPool& BackendPool::operator=(BackendPool&&) noexcept = default;

Result<BackendPool> BackendPool::Create(
    const std::vector<std::string>& endpoints,
    const BackendPoolOptions& options) {
  if (options.down_after_failures < 1) {
    return Status::InvalidArgument("down_after_failures must be at least 1");
  }
  if (options.max_attempts < 1) {
    return Status::InvalidArgument("max_attempts must be at least 1");
  }
  auto impl = std::make_unique<Impl>();
  impl->options = options;
  for (const std::string& endpoint : endpoints) {
    CP_RETURN_IF_ERROR(impl->Add(endpoint));
  }
  impl->StartProbe();
  return BackendPool(std::move(impl));
}

Status BackendPool::Add(const std::string& endpoint) {
  return impl_->Add(endpoint);
}

Status BackendPool::Remove(const std::string& endpoint) {
  std::lock_guard<std::mutex> lock(impl_->map_mu);
  if (impl_->backends.erase(endpoint) == 0) {
    return Status::NotFound(
        StringF("backend '%s' is not in the pool", endpoint.c_str()));
  }
  return Status::OK();
}

bool BackendPool::Has(const std::string& endpoint) const {
  return impl_->Find(endpoint) != nullptr;
}

Status BackendPool::WithClient(
    const std::string& name,
    const std::function<Status(net::PricingClient&)>& fn) {
  return impl_->WithClient(name, fn);
}

void BackendPool::ScatterDecideLines(std::vector<DecideSlice>* slices) {
  impl_->ScatterDecideLines(*slices);
}

std::vector<BackendHealth> BackendPool::Health() const {
  std::vector<BackendHealth> out;
  for (const std::shared_ptr<Backend>& backend : impl_->SnapshotBackends()) {
    BackendHealth health;
    health.name = backend->name;
    health.up = backend->up.load(std::memory_order_acquire);
    health.consecutive_failures =
        backend->consecutive_failures.load(std::memory_order_relaxed);
    health.failovers = backend->failovers.load(std::memory_order_relaxed);
    out.push_back(std::move(health));
  }
  return out;
}

void BackendPool::ProbeNow() { impl_->ProbeNow(); }

}  // namespace crowdprice::router
