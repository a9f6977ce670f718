#include "net/tls_transport.h"

#include "util/macros.h"
#include "util/stringf.h"

#if CROWDPRICE_HAVE_OPENSSL

#include <openssl/err.h>
#include <openssl/ssl.h>
#include <openssl/x509.h>
#include <pthread.h>
#include <unistd.h>

#include <cerrno>
#include <csignal>
#include <ctime>
#include <cstring>
#include <string>
#include <utility>

namespace crowdprice::net {

namespace {

/// Drains OpenSSL's thread-local error queue into one line ("reason;
/// reason"). Empty queue -> `fallback`.
std::string OpenSslErrors(const char* fallback) {
  std::string out;
  unsigned long err;  // NOLINT(runtime/int): OpenSSL's own error type.
  while ((err = ERR_get_error()) != 0) {
    char buf[256];
    ERR_error_string_n(err, buf, sizeof(buf));
    if (!out.empty()) out += "; ";
    out += buf;
  }
  return out.empty() ? fallback : out;
}

/// Keeps one OpenSSL call from raising SIGPIPE, whose default action
/// kills the whole process: the socket BIO writes with write(2), which --
/// unlike the plain transport's send(MSG_NOSIGNAL) -- has no per-call
/// opt-out. SIGPIPE stays blocked on this thread for the guard's life, and
/// one the call raised is consumed before the old mask comes back.
class SigpipeGuard {
 public:
  SigpipeGuard() {
    sigemptyset(&sigpipe_);
    sigaddset(&sigpipe_, SIGPIPE);
    sigset_t pending;
    sigpending(&pending);
    was_pending_ = sigismember(&pending, SIGPIPE) == 1;
    pthread_sigmask(SIG_BLOCK, &sigpipe_, &old_mask_);
  }

  ~SigpipeGuard() {
    sigset_t pending;
    sigpending(&pending);
    if (!was_pending_ && sigismember(&pending, SIGPIPE) == 1) {
      const timespec now{0, 0};
      while (sigtimedwait(&sigpipe_, nullptr, &now) < 0 && errno == EINTR) {
      }
    }
    pthread_sigmask(SIG_SETMASK, &old_mask_, nullptr);
  }

  SigpipeGuard(const SigpipeGuard&) = delete;
  SigpipeGuard& operator=(const SigpipeGuard&) = delete;

 private:
  sigset_t sigpipe_;
  sigset_t old_mask_;
  bool was_pending_ = false;
};

struct SslCtxDeleter {
  void operator()(SSL_CTX* ctx) const { SSL_CTX_free(ctx); }
};
using SslCtxPtr = std::unique_ptr<SSL_CTX, SslCtxDeleter>;

/// One TLS session over a non-blocking socket. Owns the fd and the SSL
/// object; the SSL's BIO borrows the fd (BIO_NOCLOSE), so the close
/// here is the only one.
class TlsTransport final : public Transport {
 public:
  TlsTransport(int fd, SSL* ssl) : fd_(fd), ssl_(ssl) {}

  ~TlsTransport() override {
    SSL_free(ssl_);
    if (fd_ >= 0) close(fd_);
  }

  IoResult Handshake() override {
    if (ready_) return {IoOutcome::kOk, 0, Status::OK()};
    const SigpipeGuard guard;
    ERR_clear_error();
    const int rc = SSL_do_handshake(ssl_);
    if (rc == 1) {
      ready_ = true;
      return {IoOutcome::kOk, 0, Status::OK()};
    }
    return MapFailure(rc, "TLS handshake");
  }

  bool ready() const override { return ready_; }

  IoResult Read(char* out, size_t capacity) override {
    // TLS 1.3 reads can write too (key updates, session tickets).
    const SigpipeGuard guard;
    ERR_clear_error();
    size_t n = 0;
    if (SSL_read_ex(ssl_, out, capacity, &n) == 1) {
      return {IoOutcome::kOk, n, Status::OK()};
    }
    return MapFailure(0, "TLS read");
  }

  IoResult Write(const char* data, size_t size) override {
    const SigpipeGuard guard;
    ERR_clear_error();
    size_t n = 0;
    if (SSL_write_ex(ssl_, data, size, &n) == 1) {
      return {IoOutcome::kOk, n, Status::OK()};
    }
    return MapFailure(0, "TLS write");
  }

  void Shutdown() override {
    // One non-blocking close_notify attempt; a peer that already went
    // away makes this a no-op.
    if (!ready_) return;
    const SigpipeGuard guard;
    SSL_shutdown(ssl_);
  }

  int fd() const override { return fd_; }

 private:
  /// Maps the current SSL error state (after a failed handshake, read,
  /// or write) onto an IoResult. A failed certificate verification is
  /// the one Unauthenticated case; everything else terminal is
  /// Unavailable -- a transport problem a healthy peer would not show.
  IoResult MapFailure(int rc, const char* what) {
    switch (SSL_get_error(ssl_, rc)) {
      case SSL_ERROR_WANT_READ:
        return {IoOutcome::kWantRead, 0, Status::OK()};
      case SSL_ERROR_WANT_WRITE:
        return {IoOutcome::kWantWrite, 0, Status::OK()};
      case SSL_ERROR_ZERO_RETURN:
        return {IoOutcome::kClosed, 0, Status::OK()};
      case SSL_ERROR_SYSCALL: {
        // errno 0 is the legacy spelling of an abrupt peer close.
        if (errno == 0) return {IoOutcome::kClosed, 0, Status::OK()};
        return {IoOutcome::kError, 0,
                Status::Unavailable(
                    StringF("%s: %s", what, std::strerror(errno)))};
      }
      default: {
        const long verify = SSL_get_verify_result(ssl_);
        if (verify != X509_V_OK) {
          ERR_clear_error();
          return {IoOutcome::kError, 0,
                  Status::Unauthenticated(StringF(
                      "%s: peer certificate rejected: %s", what,
                      X509_verify_cert_error_string(verify)))};
        }
        return {IoOutcome::kError, 0,
                Status::Unavailable(StringF(
                    "%s: %s", what, OpenSslErrors("TLS failure").c_str()))};
      }
    }
  }

  int fd_;
  SSL* ssl_;
  bool ready_ = false;
};

class TlsTransportFactory final : public TransportFactory {
 public:
  TlsTransportFactory(SslCtxPtr ctx, bool server) noexcept
      : ctx_(std::move(ctx)), server_(server) {}

  std::unique_ptr<Transport> Wrap(int fd) override {
    SSL* ssl = SSL_new(ctx_.get());
    if (ssl == nullptr || SSL_set_fd(ssl, fd) != 1) {
      // Allocation failure this deep has no useful recovery; surface it
      // as an immediately-erroring transport via a null SSL guard.
      SSL_free(ssl);
      close(fd);
      return nullptr;
    }
    if (server_) {
      SSL_set_accept_state(ssl);
    } else {
      SSL_set_connect_state(ssl);
    }
    return std::make_unique<TlsTransport>(fd, ssl);
  }

  const char* name() const override { return "tls"; }

 private:
  SslCtxPtr ctx_;
  bool server_;
};

/// Loads optional identity material (cert + key) into `ctx`; both or
/// neither must be present.
Status LoadIdentity(SSL_CTX* ctx, const TlsOptions& options, bool required) {
  if (options.cert_file.empty() != options.key_file.empty()) {
    return Status::InvalidArgument(
        "tls cert_file and key_file must be configured together");
  }
  if (options.cert_file.empty()) {
    if (required) {
      return Status::InvalidArgument(
          "a TLS server needs cert_file and key_file");
    }
    return Status::OK();
  }
  ERR_clear_error();
  if (SSL_CTX_use_certificate_chain_file(ctx, options.cert_file.c_str()) !=
      1) {
    return Status::InvalidArgument(
        StringF("cannot load tls cert '%s': %s", options.cert_file.c_str(),
                OpenSslErrors("unreadable certificate").c_str()));
  }
  if (SSL_CTX_use_PrivateKey_file(ctx, options.key_file.c_str(),
                                  SSL_FILETYPE_PEM) != 1) {
    return Status::InvalidArgument(
        StringF("cannot load tls key '%s': %s", options.key_file.c_str(),
                OpenSslErrors("unreadable key").c_str()));
  }
  if (SSL_CTX_check_private_key(ctx) != 1) {
    return Status::InvalidArgument(
        StringF("tls key '%s' does not match cert '%s'",
                options.key_file.c_str(), options.cert_file.c_str()));
  }
  return Status::OK();
}

Status LoadTrust(SSL_CTX* ctx, const std::string& ca_file) {
  ERR_clear_error();
  if (SSL_CTX_load_verify_locations(ctx, ca_file.c_str(), nullptr) != 1) {
    return Status::InvalidArgument(
        StringF("cannot load tls ca '%s': %s", ca_file.c_str(),
                OpenSslErrors("unreadable CA bundle").c_str()));
  }
  return Status::OK();
}

Result<SslCtxPtr> NewCtx(bool server) {
  ERR_clear_error();
  SslCtxPtr ctx(
      SSL_CTX_new(server ? TLS_server_method() : TLS_client_method()));
  if (ctx == nullptr) {
    return Status::Internal(
        StringF("SSL_CTX_new: %s", OpenSslErrors("allocation failed").c_str()));
  }
  SSL_CTX_set_min_proto_version(ctx.get(), TLS1_2_VERSION);
  SSL_CTX_set_mode(ctx.get(), SSL_MODE_ENABLE_PARTIAL_WRITE |
                                  SSL_MODE_ACCEPT_MOVING_WRITE_BUFFER);
#ifdef SSL_OP_IGNORE_UNEXPECTED_EOF
  // An abrupt TCP close reads as kClosed (like plain TCP), not a
  // protocol error -- the resilience suites rely on that equivalence.
  SSL_CTX_set_options(ctx.get(), SSL_OP_IGNORE_UNEXPECTED_EOF);
#endif
  return ctx;
}

}  // namespace

bool TlsSupported() { return true; }

Result<std::shared_ptr<TransportFactory>> MakeTlsClientTransportFactory(
    const TlsOptions& options) {
  if (options.ca_file.empty()) {
    return Status::InvalidArgument(
        "a TLS client needs ca_file (it is what authenticates the server)");
  }
  CP_ASSIGN_OR_RETURN(SslCtxPtr ctx, NewCtx(/*server=*/false));
  CP_RETURN_IF_ERROR(LoadTrust(ctx.get(), options.ca_file));
  CP_RETURN_IF_ERROR(LoadIdentity(ctx.get(), options, /*required=*/false));
  SSL_CTX_set_verify(ctx.get(), SSL_VERIFY_PEER, nullptr);
  return std::shared_ptr<TransportFactory>(
      std::make_shared<TlsTransportFactory>(std::move(ctx), false));
}

Result<std::shared_ptr<TransportFactory>> MakeTlsServerTransportFactory(
    const TlsOptions& options) {
  CP_ASSIGN_OR_RETURN(SslCtxPtr ctx, NewCtx(/*server=*/true));
  CP_RETURN_IF_ERROR(LoadIdentity(ctx.get(), options, /*required=*/true));
  if (!options.ca_file.empty()) {
    CP_RETURN_IF_ERROR(LoadTrust(ctx.get(), options.ca_file));
    SSL_CTX_set_verify(ctx.get(),
                       SSL_VERIFY_PEER | SSL_VERIFY_FAIL_IF_NO_PEER_CERT,
                       nullptr);
  }
  return std::shared_ptr<TransportFactory>(
      std::make_shared<TlsTransportFactory>(std::move(ctx), true));
}

}  // namespace crowdprice::net

#else  // !CROWDPRICE_HAVE_OPENSSL

namespace crowdprice::net {

namespace {

Status TlsUnavailable() {
  return Status::Unimplemented(
      "this build has no TLS transport (OpenSSL was not found at "
      "configure time)");
}

}  // namespace

bool TlsSupported() { return false; }

Result<std::shared_ptr<TransportFactory>> MakeTlsClientTransportFactory(
    const TlsOptions& options) {
  static_cast<void>(options);
  return TlsUnavailable();
}

Result<std::shared_ptr<TransportFactory>> MakeTlsServerTransportFactory(
    const TlsOptions& options) {
  static_cast<void>(options);
  return TlsUnavailable();
}

}  // namespace crowdprice::net

#endif  // CROWDPRICE_HAVE_OPENSSL
