#include "util/hexfloat.h"

#include <array>
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

// The value of each byte as a digit of the canonical text: 0-15 for '0'-'9'
// and 'a'-'f', kNotDigit for every other byte (upper case included, which
// PutHex never prints): one load per byte instead of range tests on it.
constexpr uint8_t kNotDigit = 0xff;
constexpr std::array<uint8_t, 256> kDigitValue = [] {
  std::array<uint8_t, 256> table{};
  table.fill(kNotDigit);
  for (int c = '0'; c <= '9'; ++c) table[c] = static_cast<uint8_t>(c - '0');
  for (int c = 'a'; c <= 'f'; ++c) {
    table[c] = static_cast<uint8_t>(c - 'a' + 10);
  }
  return table;
}();

uint8_t DigitValue(char c) {
  return kDigitValue[static_cast<unsigned char>(c)];
}

// Reads `token` into `*value` if it is exactly a form PutHex prints for a
// finite value: [-]0x1[.h{1,13}]p(+|-)d{1,4} with an exponent in
// [-1022, 1023], [-]0x0p+0, or [-]0x0.h{1,13}p-1022. Each of these names
// one double exactly, so the bits are built directly. Returns false for
// any other token, which the general parser then reads.
bool ParseCanonicalHex(std::string_view token, double* value) {
  const char* p = token.data();
  const char* const end = p + token.size();
  uint64_t bits = 0;
  if (p != end && *p == '-') {
    bits = uint64_t{1} << 63;
    ++p;
  }
  // The shortest form, "0x0p+0", is 6 bytes; every read below is behind a
  // check that the byte lies inside the token.
  if (end - p < 6 || p[0] != '0' || p[1] != 'x' ||
      (p[2] != '0' && p[2] != '1')) {
    return false;
  }
  const bool normal = p[2] == '1';
  p += 3;
  const bool has_fraction = *p == '.';
  uint64_t fraction = 0;
  if (has_fraction) {
    const char* const first = ++p;
    // Up to 14 digits are read, so that 14 or more fail below.
    for (; p != end && p - first < 14; ++p) {
      const uint8_t digit = DigitValue(*p);
      if (digit == kNotDigit) break;
      fraction = fraction << 4 | digit;
    }
    const ptrdiff_t digits = p - first;
    if (digits == 0 || digits > 13) return false;
    fraction <<= 4 * (13 - digits);
  }
  if (end - p < 3 || p[0] != 'p' || (p[1] != '+' && p[1] != '-')) {
    return false;
  }
  const bool negative_exponent = p[1] == '-';
  p += 2;
  const ptrdiff_t exponent_digits = end - p;
  if (exponent_digits > 4) return false;
  int exponent = 0;
  for (; p != end; ++p) {
    const uint8_t digit = DigitValue(*p);
    if (digit > 9) return false;
    exponent = exponent * 10 + digit;
  }
  if (negative_exponent) exponent = -exponent;
  if (normal) {
    if (exponent < -1022 || exponent > 1023) return false;
    bits |= static_cast<uint64_t>(exponent + 1023) << 52 | fraction;
  } else if (has_fraction) {
    if (exponent != -1022) return false;
    bits |= fraction;
  } else if (negative_exponent || exponent_digits != 1 || exponent != 0) {
    return false;
  }
  *value = std::bit_cast<double>(bits);
  return true;
}

Status BadToken(const char* what, const char* kind, std::string_view token) {
  return Status::InvalidArgument(StringF("%s: %s '%.*s'", what, kind,
                                         static_cast<int>(token.size()),
                                         token.data()));
}

}  // namespace

char* PutHex(double v, char* out) {
  char* p = out;
  const uint64_t bits = std::bit_cast<uint64_t>(v);
  const int biased = static_cast<int>((bits >> 52) & 0x7ff);
  const uint64_t fraction = bits & ((uint64_t{1} << 52) - 1);
  if ((bits >> 63) != 0) *p++ = '-';
  if (biased == 0x7ff) {
    std::memcpy(p, fraction == 0 ? "inf" : "nan", 3);
    return p + 3;
  }
  // Subnormals print unnormalized, as 0x0.<fraction>p-1022, the way glibc
  // does; std::to_chars prints them that way or as 0x1p-1074 depending on
  // the C++ runtime, so the digits are produced here instead.
  std::memcpy(p, biased == 0 ? "0x0" : "0x1", 3);
  p += 3;
  if (fraction != 0) {
    *p++ = '.';
    // All 13 digits, then back over the trailing zeros.
    for (int i = 0; i < 13; ++i) {
      p[i] = "0123456789abcdef"[(fraction >> (48 - 4 * i)) & 0xf];
    }
    p += 13 - std::countr_zero(fraction) / 4;
  }
  int exponent = biased - 1023;
  if (biased == 0) exponent = fraction == 0 ? 0 : -1022;
  *p++ = 'p';
  *p++ = exponent < 0 ? '-' : '+';
  const int magnitude = exponent < 0 ? -exponent : exponent;
  return std::to_chars(p, p + 4, magnitude).ptr;
}

void AppendHex(double v, std::string* out) {
  char buf[kMaxHexChars];
  out->append(buf, static_cast<size_t>(PutHex(v, buf) - buf));
}

std::string FormatHex(double v) {
  std::string out;
  AppendHex(v, &out);
  return out;
}

Result<double> ParseDouble(std::string_view token, const char* what) {
  double value = 0.0;
  if (ParseCanonicalHex(token, &value)) return value;
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
    return FieldCountError(what, expected, tokens.size());
  }
  return tokens;
}

Status FieldCountError(const char* what, size_t expected, size_t found) {
  return Status::InvalidArgument(
      StringF("%s: expected %zu fields, found %zu", what, expected, found));
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

Status LineReader::ExpectFinalNewline() const {
  if (!text_.ends_with('\n')) {
    return Status::InvalidArgument(
        StringF("%s truncated: last line has no newline", noun_));
  }
  return Status::OK();
}

}  // namespace crowdprice
