#include "util/hexfloat.h"

#include <bit>
#include <charconv>
#include <cstdint>
#include <cstring>
#include <system_error>

#include "util/stringf.h"

namespace crowdprice {

namespace {

bool IsSpace(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

bool IsHexDigit(char c) {
  return (c >= '0' && c <= '9') || (c >= 'a' && c <= 'f') ||
         (c >= 'A' && c <= 'F');
}

Status BadToken(const char* what, const char* kind, std::string_view token) {
  return Status::InvalidArgument(StringF("%s: %s '%.*s'", what, kind,
                                         static_cast<int>(token.size()),
                                         token.data()));
}

}  // namespace

void AppendHex(double v, std::string* out) {
  // The longest form, "-0x1.fffffffffffffp+1023", is 24 bytes.
  char buf[32];
  char* p = buf;
  const uint64_t bits = std::bit_cast<uint64_t>(v);
  const int biased = static_cast<int>((bits >> 52) & 0x7ff);
  uint64_t fraction = bits & ((uint64_t{1} << 52) - 1);
  if ((bits >> 63) != 0) *p++ = '-';
  if (biased == 0x7ff) {
    std::memcpy(p, fraction == 0 ? "inf" : "nan", 3);
    out->append(buf, static_cast<size_t>(p + 3 - buf));
    return;
  }
  // Subnormals print unnormalized, as 0x0.<fraction>p-1022, the way glibc
  // does; std::to_chars prints them that way or as 0x1p-1074 depending on
  // the C++ runtime, so the digits are produced here instead.
  *p++ = '0';
  *p++ = 'x';
  *p++ = biased == 0 ? '0' : '1';
  if (fraction != 0) {
    *p++ = '.';
    for (int shift = 48; fraction != 0; shift -= 4) {
      *p++ = "0123456789abcdef"[(fraction >> shift) & 0xf];
      fraction &= (uint64_t{1} << shift) - 1;
    }
  }
  int exponent = biased - 1023;
  if (biased == 0) exponent = (bits << 1) == 0 ? 0 : -1022;
  *p++ = 'p';
  *p++ = exponent < 0 ? '-' : '+';
  const int magnitude = exponent < 0 ? -exponent : exponent;
  p = std::to_chars(p, buf + sizeof(buf), magnitude).ptr;
  out->append(buf, static_cast<size_t>(p - buf));
}

std::string FormatHex(double v) {
  std::string out;
  AppendHex(v, &out);
  return out;
}

Result<double> ParseDouble(std::string_view token, const char* what) {
  std::string_view body = token;
  bool negative = false;
  if (!body.empty() && (body[0] == '+' || body[0] == '-')) {
    negative = body[0] == '-';
    body.remove_prefix(1);
  }
  std::chars_format format = std::chars_format::general;
  if (body.size() > 2 && body[0] == '0' && (body[1] == 'x' || body[1] == 'X')) {
    body.remove_prefix(2);
    format = std::chars_format::hex;
    // from_chars would take "inf", "nan" or a second sign here.
    if (!IsHexDigit(body[0]) && body[0] != '.') {
      return BadToken(what, "bad number", token);
    }
  }
  if (body.empty() || body[0] == '+' || body[0] == '-') {
    return BadToken(what, "bad number", token);
  }
  double value = 0.0;
  const std::from_chars_result parsed =
      std::from_chars(body.data(), body.data() + body.size(), value, format);
  if (parsed.ec == std::errc::result_out_of_range) {
    return BadToken(what, "number out of range", token);
  }
  if (parsed.ec != std::errc() || parsed.ptr != body.data() + body.size()) {
    return BadToken(what, "bad number", token);
  }
  return negative ? -value : value;
}

template <typename T>
Result<T> ParseInt(std::string_view token, const char* what) {
  std::string_view digits = token;
  // strtol accepted an explicit '+'; from_chars takes only '-'.
  if (digits.size() > 1 && digits[0] == '+' && digits[1] != '-') {
    digits.remove_prefix(1);
  }
  T value{};
  const std::from_chars_result parsed =
      std::from_chars(digits.data(), digits.data() + digits.size(), value);
  if (parsed.ec == std::errc::result_out_of_range) {
    return BadToken(what, "integer out of range", token);
  }
  if (parsed.ec != std::errc() || parsed.ptr != digits.data() + digits.size()) {
    return BadToken(what, "bad integer", token);
  }
  return value;
}

template Result<int> ParseInt<int>(std::string_view, const char*);
template Result<int64_t> ParseInt<int64_t>(std::string_view, const char*);
template Result<uint64_t> ParseInt<uint64_t>(std::string_view, const char*);

std::string_view NextToken(std::string_view* rest) {
  size_t start = 0;
  while (start < rest->size() && IsSpace((*rest)[start])) ++start;
  size_t end = start;
  while (end < rest->size() && !IsSpace((*rest)[end])) ++end;
  const std::string_view token = rest->substr(start, end - start);
  rest->remove_prefix(end);
  return token;
}

std::vector<std::string_view> Tokens(std::string_view line) {
  std::vector<std::string_view> tokens;
  for (std::string_view token = NextToken(&line); !token.empty();
       token = NextToken(&line)) {
    tokens.push_back(token);
  }
  return tokens;
}

Result<std::vector<std::string_view>> Tokens(std::string_view line,
                                             size_t expected,
                                             const char* what) {
  std::vector<std::string_view> tokens = Tokens(line);
  if (tokens.size() != expected) {
    return Status::InvalidArgument(StringF("%s: expected %zu fields, found %zu",
                                           what, expected, tokens.size()));
  }
  return tokens;
}

Result<std::string_view> LineReader::Next(const char* what) {
  if (pos_ >= text_.size()) {
    return Status::InvalidArgument(
        StringF("%s truncated: expected %s", noun_, what));
  }
  const size_t newline = text_.find('\n', pos_);
  const size_t end = newline == std::string_view::npos ? text_.size() : newline;
  const std::string_view line = text_.substr(pos_, end - pos_);
  pos_ = newline == std::string_view::npos ? text_.size() : newline + 1;
  return line;
}

Result<std::string_view> LineReader::Bytes(size_t n, const char* what) {
  if (text_.size() - pos_ < n) {
    return Status::InvalidArgument(
        StringF("%s truncated: expected %zu bytes of %s, have %zu", noun_, n,
                what, text_.size() - pos_));
  }
  const std::string_view bytes = text_.substr(pos_, n);
  pos_ += n;
  return bytes;
}

Status LineReader::ExpectRoomFor(uint64_t tokens, const char* what) const {
  const size_t left = text_.size() - pos_;
  if (tokens > (uint64_t{left} + 1) / 2) {
    return Status::InvalidArgument(
        StringF("%s truncated: %llu %s entries cannot fit in %zu bytes", noun_,
                static_cast<unsigned long long>(tokens), what, left));
  }
  return Status::OK();
}

Status LineReader::ExpectEnd(const char* what) const {
  if (pos_ < text_.size()) {
    return Status::InvalidArgument(StringF("trailing bytes after %s", what));
  }
  return Status::OK();
}

}  // namespace crowdprice
