// TLS transport (OpenSSL) for the serving wire.
//
// Wraps one connected socket in a TLS session and exposes it through
// the net::Transport interface: Handshake() advances SSL_do_handshake
// one non-blocking step, translating SSL_ERROR_WANT_READ/WANT_WRITE
// into kWantRead/kWantWrite so the server's epoll loop drives many
// handshakes concurrently without ever blocking, and Read/Write map
// SSL_read_ex/SSL_write_ex the same way.
//
// Factories compile the PEM material once (certificates parse at
// factory construction, with InvalidArgument on unreadable or
// mismatched files) and stamp out per-connection sessions. TLS 1.2 is
// the floor. A peer whose certificate fails verification -- wrong CA,
// expired, not yet valid -- surfaces as kError with an Unauthenticated
// status; transport-level failures (a plaintext peer, a torn
// connection) carry Unavailable. Identity is CA possession, not
// hostname: see TlsOptions in net/transport.h. Writing to a peer that has
// gone is an error on that session, never a process-killing SIGPIPE.
//
// Built only when OpenSSL is available (CROWDPRICE_HAVE_OPENSSL,
// wired by CMake); otherwise the factory functions return
// Unimplemented and TlsSupported() is false, so callers can gate
// cleanly instead of failing to link.

#ifndef CROWDPRICE_NET_TLS_TRANSPORT_H_
#define CROWDPRICE_NET_TLS_TRANSPORT_H_

#include <memory>

#include "net/transport.h"
#include "util/result.h"

namespace crowdprice::net {

/// True when this build carries the OpenSSL-backed transport.
bool TlsSupported();

/// Client-role factory: `options.ca_file` is required (it is what
/// authenticates the server); cert_file + key_file optionally present a
/// client certificate for mutual TLS.
Result<std::shared_ptr<TransportFactory>> MakeTlsClientTransportFactory(
    const TlsOptions& options);

/// Server-role factory: cert_file + key_file are required; ca_file
/// additionally demands and verifies client certificates.
Result<std::shared_ptr<TransportFactory>> MakeTlsServerTransportFactory(
    const TlsOptions& options);

}  // namespace crowdprice::net

#endif  // CROWDPRICE_NET_TLS_TRANSPORT_H_
