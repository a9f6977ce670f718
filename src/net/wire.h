// Wire protocol for crowdprice_serve: length-prefixed binary frames over
// TCP, carrying the DecisionRequest -> OfferSheet serving surface and the
// campaign control plane (serving::ControlOp) between processes.
//
// Frame layout (all integers little-endian):
//
//   offset  size  field
//   0       4     magic "CPWF"
//   4       2     version (kWireVersion)
//   6       2     frame type (FrameType)
//   8       4     payload length in bytes
//   12      n     payload
//
// Payloads are the same line-oriented hex-float text the artifact and
// plan codecs use, through the one codec in util/hexfloat.h: doubles print
// in printf's %a form and parse back with std::from_chars, so every value
// round-trips bit-exactly, and admit/swap control ops embed the artifact's
// own Serialize() text verbatim as a byte-counted block. A control payload
// opens with a header line a router can read alone (ReadControlHeader), and
// its admit forms share their fields with `export ok`, so the router routes
// and migrates by prefix rewrites without decoding an artifact. Every
// encoder writes its text once, appending into one string. Statuses cross the
// wire as `int(code) <escaped message>` -- code and message both survive
// the round trip, so a server-side NotFound reaches the client as
// NotFound (util::StatusCodeFromInt guards unknown codes).
//
// Every Deserialize* returns a Status error on malformed input
// (truncated, oversized, bad version, bad numbers, integers outside their
// field's type) -- never crashes -- which is what lets the server treat
// every byte off the socket as hostile.

#ifndef CROWDPRICE_NET_WIRE_H_
#define CROWDPRICE_NET_WIRE_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "serving/campaign_shard_map.h"
#include "util/result.h"

namespace crowdprice::net {

inline constexpr char kFrameMagic[4] = {'C', 'P', 'W', 'F'};
inline constexpr uint16_t kWireVersion = 1;
inline constexpr size_t kFrameHeaderBytes = 12;
/// Default cap on a single frame's payload; both ends reject bigger
/// frames before buffering them.
inline constexpr uint32_t kDefaultMaxFrameBytes = 64u << 20;

enum class FrameType : uint16_t {
  kDecideBatchRequest = 1,
  kDecideBatchResponse = 2,
  kControlRequest = 3,
  kControlResponse = 4,
  /// Health probe: the router pings each backend on an interval and marks
  /// it down after consecutive misses. Answered before authentication so
  /// probes stay cheap.
  kPingRequest = 5,
  kPingResponse = 6,
  /// Handshake: protocol version + optional shared-secret token. When the
  /// server runs with --auth-token, every other frame type on an
  /// un-helloed connection is refused Unauthenticated; version skew is
  /// FailedPrecondition.
  kHelloRequest = 7,
  kHelloResponse = 8,
  /// Migration: serialize a live campaign (id + limits + artifact) off its
  /// current owner so a peer can re-admit it under the same id.
  kExportRequest = 9,
  kExportResponse = 10,
};

struct FrameHeader {
  uint16_t version = kWireVersion;
  FrameType type = FrameType::kDecideBatchRequest;
  uint32_t payload_bytes = 0;
};

/// Writes the 12-byte header for `header` into out[0..12).
void EncodeFrameHeader(const FrameHeader& header,
                       char out[kFrameHeaderBytes]);

/// Parses and validates a frame header from the first kFrameHeaderBytes
/// of `data`. Fails InvalidArgument on a short buffer, bad magic,
/// unsupported version, unknown frame type, or a payload length above
/// `max_payload_bytes`.
Result<FrameHeader> DecodeFrameHeader(const char* data, size_t size,
                                      uint32_t max_payload_bytes);

/// One complete frame: header + payload, ready to write to a socket.
/// Fails InvalidArgument when the payload exceeds `max_payload_bytes`.
Result<std::string> EncodeFrame(FrameType type, const std::string& payload,
                                uint32_t max_payload_bytes);

// --- Status across the wire ----------------------------------------------

/// `int(code) <escaped message>` -- the fragment every err line embeds.
/// Backslashes, newlines and carriage returns in the message are escaped;
/// everything else (spaces included) is literal.
std::string EncodeStatusFragment(const Status& status);

/// Inverse of EncodeStatusFragment: code and message both survive, into
/// `*decoded`. The return value is the parse status (Result<Status> would
/// conflate the two): InvalidArgument on unknown code integers or bad
/// escapes, OK when `*decoded` holds the transported status.
Status DecodeStatusFragment(std::string_view fragment, Status* decoded);

// --- Control plane ---------------------------------------------------------

/// Control ops serialize to a "control ..." stanza; admit and swap ops
/// embed their artifact's Serialize() text as a byte-counted block.
/// Explicit-id admits (migration re-admits) use the "control admit-at"
/// verb so the target node places the campaign under its original id.
/// Controller-backed admits are process-local by design and fail
/// InvalidArgument here. Tick ops serialize too (the wire mirrors the
/// whole control surface, not just ArrivalSchedule's three events).
Result<std::string> SerializeControlOp(const serving::ControlOp& op);
Result<serving::ControlOp> DeserializeControlOp(const std::string& text);

/// The header line of a control payload: `control <verb>`, then the target
/// id for every verb but a plain admit.
struct ControlHeader {
  /// kAdmit covers both `admit` and `admit-at`.
  serving::ControlOp::Kind kind = serving::ControlOp::Kind::kAdmit;
  /// The target campaign; 0 for a plain admit (the router assigns one).
  serving::CampaignId id = 0;
  /// Offset of the rest of the payload: the fields after the verb (plain
  /// admit) or the id, then any artifact block.
  size_t fields_start = 0;
};

/// Reads a control payload's header line and nothing past it, so a router
/// can route a control op without decoding its artifact. InvalidArgument
/// on an unknown verb, or a missing or unreadable id (an admit-at id of 0
/// included). The one reader of that line: DeserializeControlOp uses it.
Result<ControlHeader> ReadControlHeader(std::string_view payload);

// Prefix rewrites. The fields after `control admit`, after `control
// admit-at <id>`, and after `export ok <id>` are the same bytes, so turning
// one form into another copies them untouched and never reads the artifact.

/// `control admit ...` -> `control admit-at <id> ...`: places a plain admit
/// (whose header is `header`) under `id`.
std::string PlaceAdmitAt(std::string_view admit, const ControlHeader& header,
                         serving::CampaignId id);

/// `export ok <id> ...` -> `control admit-at <id> ...`: the payload that
/// re-admits an exported campaign under its id on another node. An `export
/// err` payload returns the Status it carries; a malformed header (id 0
/// included) fails InvalidArgument.
Result<std::string> ExportToAdmitAt(std::string_view response);

/// kControlResponse payload: the applied outcome, or the server-side
/// error. Deserializing an err ack returns that transported Status
/// verbatim (so callers see NotFound as NotFound); malformed acks fail
/// InvalidArgument.
std::string SerializeControlAck(const Result<serving::ControlOutcome>& ack);
Result<serving::ControlOutcome> DeserializeControlAck(const std::string& text);

// --- Decide batch codecs ---------------------------------------------------
//
// A decide batch payload is a `decide-batch <n>` header and n body lines,
// one per request (or response, index-for-index). The body lines are the
// unit every layer works in: the server hands them to
// ServingSurface::DecideBatchLines, and the router splices them through
// its hop verbatim -- serialization is canonical (hex-float fields round
// trip bit-exactly), so forwarding a line is identical to decoding and
// re-encoding it. The batch codecs below are the per-line codec plus the
// one batch header reader and writer that Split and Join use.

/// Parses one request body line (no trailing newline):
/// `request <id> <now> <campaign> <k> <remaining...>`.
Result<serving::DecideRequest> DeserializeDecideRequestLine(
    std::string_view line);

/// One response body line (no trailing newline):
/// `response <id> ok <k> <price> <group>...` or
/// `response <id> err <status fragment>`.
std::string SerializeDecideResponseLine(
    const serving::DecideResponse& response);

/// Splits a decide-batch payload (request or response form) into its body
/// lines, returned without trailing newlines. A payload in the whole-batch
/// `err ...` form surfaces as that Status.
Result<std::vector<std::string>> SplitDecideBatchPayload(
    const std::string& payload, const char* what);

/// Builds a decide-batch payload around body lines.
std::string JoinDecideBatchPayload(const std::vector<std::string>& lines);

/// The campaign id a request/response line belongs to, read from its
/// first two tokens without touching the numeric fields (what the router
/// shards on). A line this fails on has no readable campaign id.
Result<serving::CampaignId> DecideLineCampaignId(std::string_view line);

/// One `response <id> err ...` body line (no trailing newline) carrying
/// `status` (Unavailable when `status` is OK) -- the answer for a line
/// that could not be decided or forwarded.
std::string DecideErrorLine(serving::CampaignId id, const Status& status);

/// kDecideBatchRequest payload: the request lines, joined.
std::string SerializeDecideBatchRequest(
    const std::vector<serving::DecideRequest>& requests);
Result<std::vector<serving::DecideRequest>> DeserializeDecideBatchRequest(
    const std::string& text);

/// kDecideBatchResponse payload: the response lines, joined. Per-request
/// failures ride in their response line's status; a batch the server
/// could not read at all comes back as the SerializeBatchError form,
/// which DeserializeDecideBatchResponse surfaces as that Status.
std::string SerializeDecideBatchResponse(
    const std::vector<serving::DecideResponse>& responses);
std::string SerializeBatchError(const Status& status);
Result<std::vector<serving::DecideResponse>> DeserializeDecideBatchResponse(
    const std::string& text);

// --- Health probes ---------------------------------------------------------

/// kPingRequest / kPingResponse payloads: fixed one-line bodies. The
/// deserializers validate them (a ping that echoes garbage counts as a
/// protocol error, not a healthy backend).
std::string SerializePingRequest();
Status DeserializePingRequest(const std::string& text);
std::string SerializePingResponse();
Status DeserializePingResponse(const std::string& text);

// --- Handshake -------------------------------------------------------------

/// What a client announces on connect: the wire version it speaks and the
/// shared-secret token it was configured with ("" when auth is off).
struct HelloRequest {
  uint16_t version = kWireVersion;
  std::string token;
};

/// kHelloRequest payload: `hello <version> <escaped token>` (the token
/// escapes like a status message, so any byte string survives).
std::string SerializeHelloRequest(const HelloRequest& hello);
Result<HelloRequest> DeserializeHelloRequest(const std::string& text);

/// kHelloResponse payload: `hello-ack ok` or `hello-ack err <fragment>`.
/// DeserializeHelloAck's return value is the parse status; the
/// transported verdict (OK / Unauthenticated / FailedPrecondition) lands
/// in `*verdict`.
std::string SerializeHelloAck(const Status& verdict);
Status DeserializeHelloAck(const std::string& text, Status* verdict);

// --- Migration -------------------------------------------------------------

/// kExportRequest payload: `export <id>`.
std::string SerializeExportRequest(serving::CampaignId id);
Result<serving::CampaignId> DeserializeExportRequest(const std::string& text);

/// kExportResponse payload: on success, the campaign's id + limits + its
/// artifact's Serialize() text as a byte-counted block (the same bytes an
/// admit would carry, so a migrated campaign prices bit-identically); on
/// failure, the server-side Status. Serializing fails InvalidArgument on
/// an export with no artifact.
Result<std::string> SerializeExportResponse(
    const Result<serving::CampaignExport>& response);
Result<serving::CampaignExport> DeserializeExportResponse(
    const std::string& text);

}  // namespace crowdprice::net

#endif  // CROWDPRICE_NET_WIRE_H_
