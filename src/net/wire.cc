#include "net/wire.h"

#include <cstring>
#include <utility>

#include "engine/policy_artifact.h"
#include "util/hexfloat.h"
#include "util/macros.h"
#include "util/status.h"
#include "util/stringf.h"

namespace crowdprice::net {

namespace {

/// Parse-side cap on batch sizes and per-request type counts: a hostile
/// count field must not make the decoder allocate unboundedly before the
/// payload length check would catch it.
constexpr int kMaxBatchRequests = 1 << 20;
constexpr int kMaxTaskTypes = 1 << 12;

/// Splits `line` into `n` leading tokens plus the raw remainder after
/// their separator, so an escaped message keeps its own spacing.
Result<std::vector<std::string_view>> SplitN(std::string_view line, size_t n,
                                             std::string_view* rest,
                                             const char* what) {
  std::vector<std::string_view> tokens;
  while (tokens.size() < n) {
    const std::string_view token = NextToken(&line);
    if (token.empty()) {
      return Status::InvalidArgument(
          StringF("%s: expected %zu fields, found %zu", what, n,
                  tokens.size()));
    }
    tokens.push_back(token);
  }
  if (!line.empty()) line.remove_prefix(1);
  *rest = line;
  return tokens;
}

std::string EscapeMessage(std::string_view message) {
  std::string out;
  out.reserve(message.size());
  for (char c : message) {
    switch (c) {
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        out += c;
    }
  }
  return out;
}

Result<std::string> UnescapeMessage(std::string_view escaped) {
  std::string out;
  out.reserve(escaped.size());
  for (size_t i = 0; i < escaped.size(); ++i) {
    if (escaped[i] != '\\') {
      out += escaped[i];
      continue;
    }
    if (i + 1 >= escaped.size()) {
      return Status::InvalidArgument("message ends in a bare backslash");
    }
    switch (escaped[++i]) {
      case '\\':
        out += '\\';
        break;
      case 'n':
        out += '\n';
        break;
      case 'r':
        out += '\r';
        break;
      default:
        return Status::InvalidArgument(
            StringF("bad escape '\\%c' in message", escaped[i]));
    }
  }
  return out;
}

/// The status an `err` form transports, or the parse error when the
/// fragment is malformed. Never OK, so callers return it either way.
Status TransportedError(std::string_view fragment, const char* what) {
  Status status;
  CP_RETURN_IF_ERROR(DecodeStatusFragment(fragment, &status));
  if (status.ok()) {
    return Status::InvalidArgument(StringF("%s carries an OK status", what));
  }
  return status;
}

Status ExpectNoMoreFields(std::string_view rest, const char* what) {
  if (!NextToken(&rest).empty()) {
    return Status::InvalidArgument(
        StringF("%s: unexpected trailing fields", what));
  }
  return Status::OK();
}

/// The `<now> <campaign> <k> <remaining...>` fields a request line carries
/// after its campaign id.
void AppendRequestFields(const market::DecisionRequest& request,
                         std::string* out) {
  AppendHex(request.now_hours, out);
  *out += ' ';
  AppendHex(request.campaign_hours, out);
  *out += ' ';
  *out += std::to_string(request.remaining.size());
  for (int64_t n : request.remaining) {
    *out += ' ';
    *out += std::to_string(n);
  }
}

/// Parses a request suffix; `rest` must hold exactly its fields.
Result<market::DecisionRequest> ParseRequestFields(std::string_view rest,
                                                   const char* what) {
  market::DecisionRequest request;
  CP_ASSIGN_OR_RETURN(request.now_hours,
                      ParseDouble(NextToken(&rest), "now_hours"));
  CP_ASSIGN_OR_RETURN(request.campaign_hours,
                      ParseDouble(NextToken(&rest), "campaign_hours"));
  CP_ASSIGN_OR_RETURN(const int num_types,
                      ParseInt<int>(NextToken(&rest), "num task types"));
  if (num_types < 0 || num_types > kMaxTaskTypes) {
    return Status::InvalidArgument(
        StringF("%s: task type count %d out of range", what, num_types));
  }
  for (int i = 0; i < num_types; ++i) {
    CP_ASSIGN_OR_RETURN(const int64_t remaining,
                        ParseInt<int64_t>(NextToken(&rest), "remaining"));
    request.remaining.push_back(remaining);
  }
  CP_RETURN_IF_ERROR(ExpectNoMoreFields(rest, what));
  return request;
}

/// The `<k> <price> <group> ...` fields an ok response line carries after
/// its verdict.
void AppendSheetFields(const market::OfferSheet& sheet, std::string* out) {
  *out += std::to_string(sheet.offers.size());
  for (const market::Offer& offer : sheet.offers) {
    *out += ' ';
    AppendHex(offer.per_task_reward_cents, out);
    *out += ' ';
    *out += std::to_string(offer.group_size);
  }
}

/// Parses a sheet suffix; `rest` must hold exactly its fields.
Result<market::OfferSheet> ParseSheetFields(std::string_view rest,
                                            const char* what) {
  market::OfferSheet sheet;
  CP_ASSIGN_OR_RETURN(const int num_offers,
                      ParseInt<int>(NextToken(&rest), "num offers"));
  if (num_offers < 0 || num_offers > kMaxTaskTypes) {
    return Status::InvalidArgument(
        StringF("%s: offer count %d out of range", what, num_offers));
  }
  for (int i = 0; i < num_offers; ++i) {
    market::Offer offer;
    CP_ASSIGN_OR_RETURN(
        offer.per_task_reward_cents,
        ParseDouble(NextToken(&rest), "per_task_reward_cents"));
    CP_ASSIGN_OR_RETURN(offer.group_size,
                        ParseInt<int>(NextToken(&rest), "group_size"));
    sheet.offers.push_back(offer);
  }
  CP_RETURN_IF_ERROR(ExpectNoMoreFields(rest, what));
  return sheet;
}

void AppendDecideRequestLine(const serving::DecideRequest& request,
                             std::string* out) {
  *out += "request ";
  *out += std::to_string(request.campaign_id);
  *out += ' ';
  AppendRequestFields(request.request, out);
}

void AppendDecideResponseLine(const serving::DecideResponse& response,
                              std::string* out) {
  *out += "response ";
  *out += std::to_string(response.campaign_id);
  if (response.status.ok()) {
    *out += " ok ";
    AppendSheetFields(response.sheet, out);
  } else {
    *out += " err ";
    *out += EncodeStatusFragment(response.status);
  }
}

Result<serving::DecideResponse> DeserializeDecideResponseLine(
    std::string_view line) {
  const char* what = "decide response line";
  if (NextToken(&line) != "response") {
    return Status::InvalidArgument(
        StringF("%s: expected 'response <id> ok|err ...'", what));
  }
  serving::DecideResponse response;
  CP_ASSIGN_OR_RETURN(response.campaign_id,
                      ParseInt<uint64_t>(NextToken(&line), "campaign id"));
  const std::string_view verdict = NextToken(&line);
  if (verdict == "ok") {
    CP_ASSIGN_OR_RETURN(response.sheet, ParseSheetFields(line, what));
    return response;
  }
  if (verdict == "err") {
    // One separator, then the fragment; its message keeps its own spacing.
    if (!line.empty()) line.remove_prefix(1);
    CP_RETURN_IF_ERROR(DecodeStatusFragment(line, &response.status));
    if (response.status.ok()) {
      return Status::InvalidArgument(
          StringF("%s: err response carries an OK status", what));
    }
    return response;
  }
  return Status::InvalidArgument(
      StringF("%s: expected 'ok' or 'err', got '%.*s'", what,
              static_cast<int>(verdict.size()), verdict.data()));
}

std::string BatchHeader(size_t lines) {
  return "decide-batch " + std::to_string(lines) + "\n";
}

/// Reads a decide-batch payload: the `decide-batch <n>` header, then n body
/// lines, each turned into a T by `parse`. A payload in the whole-batch
/// `err` form surfaces as that Status. The one batch-header parser; the
/// vector grows as lines arrive, so a lying count allocates nothing.
template <typename T, typename Parse>
Result<std::vector<T>> ReadBatch(const std::string& payload, const char* what,
                                 Parse parse) {
  LineReader reader(payload, "payload");
  CP_ASSIGN_OR_RETURN(const std::string_view header, reader.Next(what));
  std::string_view rest;
  CP_ASSIGN_OR_RETURN(const std::vector<std::string_view> head,
                      SplitN(header, 1, &rest, what));
  if (head[0] == "err") {
    CP_RETURN_IF_ERROR(reader.ExpectEnd(what));
    return TransportedError(rest, "batch error");
  }
  CP_ASSIGN_OR_RETURN(const std::vector<std::string_view> fields,
                      Tokens(header, 2, what));
  if (fields[0] != "decide-batch") {
    return Status::InvalidArgument(
        StringF("%s: expected 'decide-batch <n>' or 'err ...'", what));
  }
  CP_ASSIGN_OR_RETURN(const int count, ParseInt<int>(fields[1], what));
  if (count < 0 || count > kMaxBatchRequests) {
    return Status::InvalidArgument(
        StringF("%s: batch size %d out of range [0, %d]", what, count,
                kMaxBatchRequests));
  }
  std::vector<T> items;
  for (int i = 0; i < count; ++i) {
    CP_ASSIGN_OR_RETURN(const std::string_view line, reader.Next(what));
    CP_ASSIGN_OR_RETURN(T item, parse(line));
    items.push_back(std::move(item));
  }
  CP_RETURN_IF_ERROR(reader.ExpectEnd(what));
  return items;
}

/// Reads a payload that must hold exactly one line.
Result<std::string_view> SoleLine(const std::string& text, const char* what) {
  LineReader reader(text, "payload");
  CP_ASSIGN_OR_RETURN(const std::string_view line, reader.Next(what));
  CP_RETURN_IF_ERROR(reader.ExpectEnd(what));
  return line;
}

Result<std::shared_ptr<const engine::PolicyArtifact>> ReadArtifactBlock(
    LineReader* reader, std::string_view marker, std::string_view count,
    const char* what) {
  if (marker != "artifact") {
    return Status::InvalidArgument(
        StringF("%s: expected 'artifact <bytes>'", what));
  }
  CP_ASSIGN_OR_RETURN(const uint64_t bytes,
                      ParseInt<uint64_t>(count, "artifact byte count"));
  CP_ASSIGN_OR_RETURN(const std::string_view blob,
                      reader->Bytes(bytes, "artifact"));
  CP_ASSIGN_OR_RETURN(engine::PolicyArtifact artifact,
                      engine::PolicyArtifact::Deserialize(blob));
  return std::make_shared<const engine::PolicyArtifact>(std::move(artifact));
}

/// ` artifact <bytes>\n<blob>`: the byte-counted block admits, swaps and
/// exports end with.
void AppendArtifactBlock(const std::string& blob, std::string* out) {
  *out += " artifact ";
  *out += std::to_string(blob.size());
  *out += '\n';
  *out += blob;
}

/// ` <tasks> <deadline> <admit> artifact <bytes>\n<blob>`: what follows the
/// verb of an admit and the id of an admit-at or an `export ok`, identical
/// in all three so a router can turn one into another by its prefix alone.
void AppendAdmitFields(const serving::CampaignLimits& limits,
                       const std::string& blob, std::string* out) {
  *out += ' ';
  *out += std::to_string(limits.total_tasks);
  *out += ' ';
  AppendHex(limits.deadline_hours, out);
  *out += ' ';
  AppendHex(limits.admit_hours, out);
  AppendArtifactBlock(blob, out);
}

}  // namespace

void EncodeFrameHeader(const FrameHeader& header,
                       char out[kFrameHeaderBytes]) {
  std::memcpy(out, kFrameMagic, sizeof(kFrameMagic));
  out[4] = static_cast<char>(header.version & 0xff);
  out[5] = static_cast<char>((header.version >> 8) & 0xff);
  const auto type = static_cast<uint16_t>(header.type);
  out[6] = static_cast<char>(type & 0xff);
  out[7] = static_cast<char>((type >> 8) & 0xff);
  for (int i = 0; i < 4; ++i) {
    out[8 + i] = static_cast<char>((header.payload_bytes >> (8 * i)) & 0xff);
  }
}

Result<FrameHeader> DecodeFrameHeader(const char* data, size_t size,
                                      uint32_t max_payload_bytes) {
  if (size < kFrameHeaderBytes) {
    return Status::InvalidArgument(
        StringF("truncated frame header: %zu of %zu bytes", size,
                kFrameHeaderBytes));
  }
  if (std::memcmp(data, kFrameMagic, sizeof(kFrameMagic)) != 0) {
    return Status::InvalidArgument("bad frame magic");
  }
  auto byte = [&](size_t i) {
    return static_cast<uint32_t>(static_cast<unsigned char>(data[i]));
  };
  FrameHeader header;
  header.version = static_cast<uint16_t>(byte(4) | (byte(5) << 8));
  if (header.version != kWireVersion) {
    return Status::InvalidArgument(
        StringF("unsupported wire version %u (expected %u)", header.version,
                kWireVersion));
  }
  const auto type = static_cast<uint16_t>(byte(6) | (byte(7) << 8));
  if (type < static_cast<uint16_t>(FrameType::kDecideBatchRequest) ||
      type > static_cast<uint16_t>(FrameType::kExportResponse)) {
    return Status::InvalidArgument(StringF("unknown frame type %u", type));
  }
  header.type = static_cast<FrameType>(type);
  header.payload_bytes =
      byte(8) | (byte(9) << 8) | (byte(10) << 16) | (byte(11) << 24);
  if (header.payload_bytes > max_payload_bytes) {
    return Status::InvalidArgument(
        StringF("frame payload %u bytes exceeds limit %u",
                header.payload_bytes, max_payload_bytes));
  }
  return header;
}

Result<std::string> EncodeFrame(FrameType type, const std::string& payload,
                                uint32_t max_payload_bytes) {
  if (payload.size() > max_payload_bytes) {
    return Status::InvalidArgument(
        StringF("frame payload %zu bytes exceeds limit %u", payload.size(),
                max_payload_bytes));
  }
  FrameHeader header;
  header.type = type;
  header.payload_bytes = static_cast<uint32_t>(payload.size());
  std::string frame(kFrameHeaderBytes, '\0');
  EncodeFrameHeader(header, frame.data());
  frame += payload;
  return frame;
}

std::string EncodeStatusFragment(const Status& status) {
  return StringF("%d %s", static_cast<int>(status.code()),
                 EscapeMessage(status.message()).c_str());
}

Status DecodeStatusFragment(std::string_view fragment, Status* decoded) {
  std::string_view rest;
  CP_ASSIGN_OR_RETURN(const std::vector<std::string_view> head,
                      SplitN(fragment, 1, &rest, "status fragment"));
  CP_ASSIGN_OR_RETURN(const int value, ParseInt<int>(head[0], "status code"));
  StatusCode code = StatusCode::kOk;
  if (!StatusCodeFromInt(value, &code)) {
    return Status::InvalidArgument(
        StringF("unknown status code %d on the wire", value));
  }
  CP_ASSIGN_OR_RETURN(std::string message, UnescapeMessage(rest));
  if (code == StatusCode::kOk) {
    if (!message.empty()) {
      return Status::InvalidArgument("OK status carries a message");
    }
    *decoded = Status::OK();
    return Status::OK();
  }
  *decoded = Status(code, std::move(message));
  return Status::OK();
}

Result<std::string> SerializeControlOp(const serving::ControlOp& op) {
  std::string out = "control ";
  switch (op.kind) {
    case serving::ControlOp::Kind::kAdmit: {
      if (op.controller != nullptr) {
        return Status::InvalidArgument(
            "controller-backed admits are process-local and cannot cross "
            "the wire; admit an artifact instead");
      }
      if (op.artifact == nullptr) {
        return Status::InvalidArgument("admit op carries no artifact");
      }
      CP_ASSIGN_OR_RETURN(const std::string blob, op.artifact->Serialize());
      // Explicit-id admits (migration re-admits) carry their id in the
      // verb so a plain admit's wire form is unchanged.
      out += op.id != 0 ? "admit-at " + std::to_string(op.id) : "admit";
      AppendAdmitFields(op.limits, blob, &out);
      return out;
    }
    case serving::ControlOp::Kind::kSwapArtifact: {
      if (op.artifact == nullptr) {
        return Status::InvalidArgument("swap op carries no artifact");
      }
      CP_ASSIGN_OR_RETURN(const std::string blob, op.artifact->Serialize());
      out += "swap ";
      out += std::to_string(op.id);
      AppendArtifactBlock(blob, &out);
      return out;
    }
    case serving::ControlOp::Kind::kRetire:
      out += "retire ";
      out += std::to_string(op.id);
      out += '\n';
      return out;
    case serving::ControlOp::Kind::kTick:
      out += "tick ";
      out += std::to_string(op.id);
      out += ' ';
      AppendHex(op.now_hours, &out);
      out += ' ';
      out += std::to_string(op.remaining_tasks);
      out += '\n';
      return out;
  }
  return Status::InvalidArgument(
      StringF("unknown control op kind %d", static_cast<int>(op.kind)));
}

Result<ControlHeader> ReadControlHeader(std::string_view payload) {
  // Only the first line: past it lies the artifact block, which a router
  // forwards without reading.
  std::string_view line = payload.substr(0, payload.find('\n'));
  if (NextToken(&line) != "control") {
    return Status::InvalidArgument("expected 'control <verb> ...'");
  }
  const std::string_view verb = NextToken(&line);
  ControlHeader header;
  if (verb == "admit") {
    header.kind = serving::ControlOp::Kind::kAdmit;
    header.fields_start = static_cast<size_t>(line.data() - payload.data());
    return header;
  }
  if (verb == "admit-at") {
    header.kind = serving::ControlOp::Kind::kAdmit;
  } else if (verb == "swap") {
    header.kind = serving::ControlOp::Kind::kSwapArtifact;
  } else if (verb == "retire") {
    header.kind = serving::ControlOp::Kind::kRetire;
  } else if (verb == "tick") {
    header.kind = serving::ControlOp::Kind::kTick;
  } else {
    return Status::InvalidArgument(
        StringF("unknown control verb '%.*s'", static_cast<int>(verb.size()),
                verb.data()));
  }
  CP_ASSIGN_OR_RETURN(header.id,
                      ParseInt<uint64_t>(NextToken(&line), "campaign id"));
  if (verb == "admit-at" && header.id == 0) {
    return Status::InvalidArgument(
        "control admit-at: id 0 means 'assign fresh' and cannot be placed "
        "explicitly");
  }
  header.fields_start = static_cast<size_t>(line.data() - payload.data());
  return header;
}

std::string PlaceAdmitAt(std::string_view admit, const ControlHeader& header,
                         serving::CampaignId id) {
  std::string out = "control admit-at " + std::to_string(id);
  out += admit.substr(header.fields_start);
  return out;
}

Result<serving::ControlOp> DeserializeControlOp(const std::string& text) {
  CP_ASSIGN_OR_RETURN(const ControlHeader header, ReadControlHeader(text));
  const serving::CampaignId id = header.id;
  LineReader reader(text, "payload");
  CP_ASSIGN_OR_RETURN(const std::string_view line, reader.Next("control line"));
  const std::vector<std::string_view> fields =
      Tokens(line.substr(header.fields_start));
  switch (header.kind) {
    case serving::ControlOp::Kind::kAdmit: {
      if (fields.size() != 5) {
        return Status::InvalidArgument(
            id != 0 ? "expected 'control admit-at <id> <tasks> <deadline> "
                      "<admit> artifact <bytes>'"
                    : "expected 'control admit <tasks> <deadline> <admit> "
                      "artifact <bytes>'");
      }
      serving::CampaignLimits limits;
      CP_ASSIGN_OR_RETURN(limits.total_tasks,
                          ParseInt<int64_t>(fields[0], "total_tasks"));
      CP_ASSIGN_OR_RETURN(limits.deadline_hours,
                          ParseDouble(fields[1], "deadline_hours"));
      CP_ASSIGN_OR_RETURN(limits.admit_hours,
                          ParseDouble(fields[2], "admit_hours"));
      CP_ASSIGN_OR_RETURN(
          std::shared_ptr<const engine::PolicyArtifact> artifact,
          ReadArtifactBlock(&reader, fields[3], fields[4], "control admit"));
      CP_RETURN_IF_ERROR(reader.ExpectEnd("control admit"));
      if (id != 0) {
        return serving::ControlOp::AdmitSharedWithId(id, std::move(artifact),
                                                     limits);
      }
      return serving::ControlOp::AdmitShared(std::move(artifact), limits);
    }
    case serving::ControlOp::Kind::kSwapArtifact: {
      if (fields.size() != 2) {
        return Status::InvalidArgument(
            "expected 'control swap <id> artifact <bytes>'");
      }
      CP_ASSIGN_OR_RETURN(
          std::shared_ptr<const engine::PolicyArtifact> artifact,
          ReadArtifactBlock(&reader, fields[0], fields[1], "control swap"));
      CP_RETURN_IF_ERROR(reader.ExpectEnd("control swap"));
      return serving::ControlOp::SwapArtifactShared(id, std::move(artifact));
    }
    case serving::ControlOp::Kind::kRetire:
      if (!fields.empty()) {
        return Status::InvalidArgument("expected 'control retire <id>'");
      }
      CP_RETURN_IF_ERROR(reader.ExpectEnd("control retire"));
      return serving::ControlOp::Retire(id);
    case serving::ControlOp::Kind::kTick: {
      if (fields.size() != 2) {
        return Status::InvalidArgument(
            "expected 'control tick <id> <now> <remaining>'");
      }
      CP_ASSIGN_OR_RETURN(const double now_hours,
                          ParseDouble(fields[0], "now_hours"));
      CP_ASSIGN_OR_RETURN(const int64_t remaining,
                          ParseInt<int64_t>(fields[1], "remaining_tasks"));
      CP_RETURN_IF_ERROR(reader.ExpectEnd("control tick"));
      return serving::ControlOp::Tick(id, now_hours, remaining);
    }
  }
  return Status::Internal("unknown control op kind");
}

std::string SerializeControlAck(const Result<serving::ControlOutcome>& ack) {
  if (ack.ok()) {
    return StringF("control-ack ok %llu %d\n",
                   static_cast<unsigned long long>(ack->id),
                   static_cast<int>(ack->state));
  }
  return StringF("control-ack err %s\n",
                 EncodeStatusFragment(ack.status()).c_str());
}

Result<serving::ControlOutcome> DeserializeControlAck(
    const std::string& text) {
  CP_ASSIGN_OR_RETURN(const std::string_view line,
                      SoleLine(text, "control-ack line"));
  std::string_view rest;
  CP_ASSIGN_OR_RETURN(const std::vector<std::string_view> head,
                      SplitN(line, 2, &rest, "control-ack line"));
  if (head[0] != "control-ack") {
    return Status::InvalidArgument("expected 'control-ack ok|err ...'");
  }
  if (head[1] == "ok") {
    CP_ASSIGN_OR_RETURN(const std::vector<std::string_view> fields,
                        Tokens(rest, 2, "control-ack outcome"));
    serving::ControlOutcome outcome;
    CP_ASSIGN_OR_RETURN(outcome.id,
                        ParseInt<uint64_t>(fields[0], "campaign id"));
    CP_ASSIGN_OR_RETURN(const int state,
                        ParseInt<int>(fields[1], "campaign state"));
    if (state < static_cast<int>(serving::CampaignState::kLive) ||
        state > static_cast<int>(serving::CampaignState::kRetiredExplicit)) {
      return Status::InvalidArgument(
          StringF("unknown campaign state %d on the wire", state));
    }
    outcome.state = static_cast<serving::CampaignState>(state);
    return outcome;
  }
  if (head[1] == "err") return TransportedError(rest, "err ack");
  return Status::InvalidArgument(
      StringF("expected 'ok' or 'err', got '%.*s'",
              static_cast<int>(head[1].size()), head[1].data()));
}

Result<serving::DecideRequest> DeserializeDecideRequestLine(
    std::string_view line) {
  const char* what = "decide request line";
  if (NextToken(&line) != "request") {
    return Status::InvalidArgument(
        StringF("%s: expected 'request <id> <now> <campaign> <k> ...'", what));
  }
  serving::DecideRequest request;
  CP_ASSIGN_OR_RETURN(request.campaign_id,
                      ParseInt<uint64_t>(NextToken(&line), "campaign id"));
  CP_ASSIGN_OR_RETURN(request.request, ParseRequestFields(line, what));
  return request;
}

std::string SerializeDecideResponseLine(
    const serving::DecideResponse& response) {
  std::string out;
  AppendDecideResponseLine(response, &out);
  return out;
}

std::string SerializeDecideBatchRequest(
    const std::vector<serving::DecideRequest>& requests) {
  std::string out = BatchHeader(requests.size());
  for (const serving::DecideRequest& request : requests) {
    AppendDecideRequestLine(request, &out);
    out += '\n';
  }
  return out;
}

Result<std::vector<serving::DecideRequest>> DeserializeDecideBatchRequest(
    const std::string& text) {
  return ReadBatch<serving::DecideRequest>(text, "decide batch",
                                           DeserializeDecideRequestLine);
}

std::string SerializeDecideBatchResponse(
    const std::vector<serving::DecideResponse>& responses) {
  std::string out = BatchHeader(responses.size());
  for (const serving::DecideResponse& response : responses) {
    AppendDecideResponseLine(response, &out);
    out += '\n';
  }
  return out;
}

std::string SerializeBatchError(const Status& status) {
  return StringF("err %s\n", EncodeStatusFragment(status).c_str());
}

Result<std::vector<serving::DecideResponse>> DeserializeDecideBatchResponse(
    const std::string& text) {
  return ReadBatch<serving::DecideResponse>(text, "decide batch",
                                            DeserializeDecideResponseLine);
}

Result<std::vector<std::string>> SplitDecideBatchPayload(
    const std::string& payload, const char* what) {
  return ReadBatch<std::string>(
      payload, what, [](std::string_view line) -> Result<std::string> {
        return std::string(line);
      });
}

std::string JoinDecideBatchPayload(const std::vector<std::string>& lines) {
  std::string out = BatchHeader(lines.size());
  size_t bytes = out.size();
  for (const std::string& line : lines) bytes += line.size() + 1;
  out.reserve(bytes);
  for (const std::string& line : lines) {
    out += line;
    out += '\n';
  }
  return out;
}

Result<serving::CampaignId> DecideLineCampaignId(std::string_view line) {
  const std::string_view keyword = NextToken(&line);
  if (keyword != "request" && keyword != "response") {
    return Status::InvalidArgument(
        "expected 'request <id> ...' or 'response <id> ...'");
  }
  return ParseInt<uint64_t>(NextToken(&line), "campaign id");
}

std::string DecideErrorLine(serving::CampaignId id, const Status& status) {
  serving::DecideResponse response;
  response.campaign_id = id;
  response.status =
      status.ok() ? Status::Unavailable("backend unavailable") : status;
  return SerializeDecideResponseLine(response);
}

std::string SerializePingRequest() { return "ping\n"; }

Status DeserializePingRequest(const std::string& text) {
  if (text != "ping\n") {
    return Status::InvalidArgument("expected 'ping'");
  }
  return Status::OK();
}

std::string SerializePingResponse() { return "pong\n"; }

Status DeserializePingResponse(const std::string& text) {
  if (text != "pong\n") {
    return Status::InvalidArgument("expected 'pong'");
  }
  return Status::OK();
}

std::string SerializeHelloRequest(const HelloRequest& hello) {
  return StringF("hello %u %s\n", static_cast<unsigned>(hello.version),
                 EscapeMessage(hello.token).c_str());
}

Result<HelloRequest> DeserializeHelloRequest(const std::string& text) {
  CP_ASSIGN_OR_RETURN(const std::string_view line,
                      SoleLine(text, "hello line"));
  std::string_view rest;
  CP_ASSIGN_OR_RETURN(const std::vector<std::string_view> head,
                      SplitN(line, 2, &rest, "hello line"));
  if (head[0] != "hello") {
    return Status::InvalidArgument("expected 'hello <version> <token>'");
  }
  CP_ASSIGN_OR_RETURN(const int version,
                      ParseInt<int>(head[1], "hello version"));
  if (version < 0 || version > 0xffff) {
    return Status::InvalidArgument(
        StringF("hello version %d out of range", version));
  }
  HelloRequest hello;
  hello.version = static_cast<uint16_t>(version);
  CP_ASSIGN_OR_RETURN(hello.token, UnescapeMessage(rest));
  return hello;
}

std::string SerializeHelloAck(const Status& verdict) {
  if (verdict.ok()) return "hello-ack ok\n";
  return StringF("hello-ack err %s\n",
                 EncodeStatusFragment(verdict).c_str());
}

Status DeserializeHelloAck(const std::string& text, Status* verdict) {
  CP_ASSIGN_OR_RETURN(const std::string_view line,
                      SoleLine(text, "hello-ack line"));
  std::string_view rest;
  CP_ASSIGN_OR_RETURN(const std::vector<std::string_view> head,
                      SplitN(line, 2, &rest, "hello-ack line"));
  if (head[0] != "hello-ack") {
    return Status::InvalidArgument("expected 'hello-ack ok|err ...'");
  }
  if (head[1] == "ok") {
    if (!rest.empty()) {
      return Status::InvalidArgument("hello-ack ok carries trailing bytes");
    }
    *verdict = Status::OK();
    return Status::OK();
  }
  if (head[1] == "err") {
    Status decoded;
    CP_RETURN_IF_ERROR(DecodeStatusFragment(rest, &decoded));
    if (decoded.ok()) {
      return Status::InvalidArgument("err hello-ack carries an OK status");
    }
    *verdict = std::move(decoded);
    return Status::OK();
  }
  return Status::InvalidArgument(
      StringF("expected 'ok' or 'err', got '%.*s'",
              static_cast<int>(head[1].size()), head[1].data()));
}

std::string SerializeExportRequest(serving::CampaignId id) {
  return StringF("export %llu\n", static_cast<unsigned long long>(id));
}

Result<serving::CampaignId> DeserializeExportRequest(const std::string& text) {
  CP_ASSIGN_OR_RETURN(const std::string_view line,
                      SoleLine(text, "export line"));
  CP_ASSIGN_OR_RETURN(const std::vector<std::string_view> fields,
                      Tokens(line, 2, "export line"));
  if (fields[0] != "export") {
    return Status::InvalidArgument("expected 'export <id>'");
  }
  return ParseInt<uint64_t>(fields[1], "campaign id");
}

Result<std::string> SerializeExportResponse(
    const Result<serving::CampaignExport>& response) {
  if (!response.ok()) {
    return StringF("export err %s\n",
                   EncodeStatusFragment(response.status()).c_str());
  }
  if (response->artifact == nullptr) {
    return Status::InvalidArgument("export carries no artifact");
  }
  CP_ASSIGN_OR_RETURN(const std::string blob, response->artifact->Serialize());
  std::string out = "export ok " + std::to_string(response->id);
  AppendAdmitFields(response->limits, blob, &out);
  return out;
}

Result<std::string> ExportToAdmitAt(std::string_view response) {
  const size_t eol = response.find('\n');
  std::string_view rest;
  CP_ASSIGN_OR_RETURN(
      const std::vector<std::string_view> head,
      SplitN(response.substr(0, eol), 2, &rest, "export response"));
  if (head[0] != "export") {
    return Status::InvalidArgument("expected 'export ok|err ...'");
  }
  if (head[1] == "err") {
    if (eol != std::string_view::npos && eol + 1 != response.size()) {
      return Status::InvalidArgument("trailing bytes after export error");
    }
    return TransportedError(rest, "export error");
  }
  if (head[1] != "ok") {
    return Status::InvalidArgument(
        StringF("expected 'ok' or 'err', got '%.*s'",
                static_cast<int>(head[1].size()), head[1].data()));
  }
  CP_ASSIGN_OR_RETURN(const serving::CampaignId id,
                      ParseInt<uint64_t>(NextToken(&rest), "campaign id"));
  if (id == 0) {
    return Status::InvalidArgument("export response carries id 0");
  }
  // Everything after the id -- the limits, the artifact byte count and the
  // artifact block -- reads the same in both forms.
  const auto fields_start = static_cast<size_t>(rest.data() - response.data());
  std::string admit = "control admit-at " + std::to_string(id);
  admit += response.substr(fields_start);
  return admit;
}

Result<serving::CampaignExport> DeserializeExportResponse(
    const std::string& text) {
  CP_ASSIGN_OR_RETURN(const std::string admit, ExportToAdmitAt(text));
  CP_ASSIGN_OR_RETURN(serving::ControlOp op, DeserializeControlOp(admit));
  serving::CampaignExport out;
  out.id = op.id;
  out.limits = op.limits;
  out.artifact = std::move(op.artifact);
  return out;
}

}  // namespace crowdprice::net
